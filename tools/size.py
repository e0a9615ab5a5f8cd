"""Print the size of the homfilt package: its line count and its settable options.

Usage: python tools/size.py [SRC_DIR]   (default: src/homfilt next to this script)

The line count is that of ``cat SRC_DIR/*.py | wc -l``.  The settable options
are counted from the source's syntax tree, without importing it:

- the defaulted parameters of public top-level functions (positional and
  keyword-only; ``*args`` and ``**kwargs`` do not count);
- the parameters of the catalog's family functions, the values of
  ``catalog._FAMILIES``, which a config's ``params`` set;
- the fields of the config dataclasses named in ``CONFIG_CLASSES``.

Apart from the options it prints ``model_fields``, the init parameters of the
model dataclasses named in ``MODEL_CLASSES``.  Here and for the config
classes, a field declared ``field(init=False)`` is not a parameter.
"""

import ast
import pathlib
import signal
import sys

# FilterConfig no longer exists; it stays listed so that older trees count as before.
CONFIG_CLASSES = ("FilterConfig", "StudyConfig", "StationaryAverager", "TabulationGrid")
MODEL_CLASSES = ("MultiscaleModel", "HomogenizedModel")


def _defaulted(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _parameters(fn: ast.FunctionDef) -> int:
    a = fn.args
    return len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)


def _init_fields(cls: ast.ClassDef) -> int:
    """The annotated fields of a dataclass, less those declared ``field(init=False)``."""
    def init(value):
        return not (isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords))
    return sum(isinstance(s, ast.AnnAssign) and init(s.value) for s in cls.body)


def _family_names(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_FAMILIES"
                        for t in node.targets)):
            return [v.id for v in node.value.values]
    return []


def _trees(src: pathlib.Path):
    return [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]


def option_counts(src: pathlib.Path) -> dict:
    """Settable options by kind, over every module of ``src``."""
    counts = {"public defaults": 0, "family parameters": 0, "config fields": 0}
    for tree in _trees(src):
        families = set(_family_names(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    counts["public defaults"] += _defaulted(node)
                if node.name in families:
                    counts["family parameters"] += _parameters(node)
            elif isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                counts["config fields"] += _init_fields(node)
    return counts


def model_fields(src: pathlib.Path) -> int:
    """The init parameters of the model dataclasses, over every module of ``src``."""
    return sum(_init_fields(node) for tree in _trees(src) for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in MODEL_CLASSES)


def line_count(src: pathlib.Path) -> int:
    return sum(path.read_text().count("\n") for path in sorted(src.glob("*.py")))


def main(argv: list) -> int:
    src = pathlib.Path(argv[1] if len(argv) > 1 else
                       pathlib.Path(__file__).resolve().parent.parent / "src" / "homfilt")
    counts = option_counts(src)
    print(f"lines={line_count(src)}")
    print(f"settable_options={sum(counts.values())}")
    for kind, n in counts.items():
        print(f"  {kind}={n}")
    print(f"model_fields={model_fields(src)}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed pipe ends it quietly, as in `| head`
    sys.exit(main(sys.argv))
