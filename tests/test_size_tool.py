"""tools/size.py, the one counter of package lines and settable options."""

import pathlib
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
                    "family parameters": "2", "config fields": "2"}
