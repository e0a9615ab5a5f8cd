"""tools/size.py, the one counter of package lines, settable options and model fields."""

import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _size(*args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py"), *args],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return dict(line.strip().split("=") for line in out.splitlines())


def test_counts_the_package():
    size = _size()
    src = ROOT / "src" / "homfilt"
    assert int(size["lines"]) == sum(p.read_text().count("\n") for p in src.glob("*.py"))
    kinds = ("public defaults", "family parameters", "config fields")
    assert int(size["settable_options"]) == sum(int(size[k]) for k in kinds)
    assert int(size["model_fields"]) == 15


def test_counts_each_kind_of_option(tmp_path):
    (tmp_path / "a.py").write_text(
        "def public(a, b=1, *args, c=2, d, **kw):\n    pass\n\n\n"
        "def _private(a=1):\n    pass\n\n\n"
        "def _fam(p=1.0, q=2.0):\n    pass\n\n\n"
        "_FAMILIES = {'fam': _fam}\n\n\n"
        "class StudyConfig:\n    x: int\n    y: float = 0.5\n\n\n"
        "class Other:\n    z: int = 1\n")
    size = _size(str(tmp_path))
    assert size == {"lines": "22", "settable_options": "6", "public defaults": "2",
                    "family parameters": "2", "config fields": "2", "model_fields": "0"}


def test_counts_model_fields_that_init_takes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class MultiscaleModel:\n    a: int\n    b: int = 1\n"
        "    c: int = field(init=False)\n    d: int = field(default=2, init=True)\n\n\n"
        "class HomogenizedModel:\n    e: int\n\n\n"
        "class StudyConfig:\n    f: int\n    g: int = field(init=False)\n")
    size = _size(str(tmp_path))
    assert (size["model_fields"], size["config fields"]) == ("4", "1")


def test_ends_quietly_when_the_reader_closes_the_pipe():
    # Unbuffered, so the first line arrives before the rest are written.
    proc = subprocess.Popen([sys.executable, "-u", str(ROOT / "tools" / "size.py")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("lines=")
    proc.stdout.close()
    with proc.stderr:
        assert proc.stderr.read() == ""
    assert proc.wait(timeout=60) in (0, -signal.SIGPIPE)
