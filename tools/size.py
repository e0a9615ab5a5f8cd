"""Print the size of the homfilt package: its line count and its settable options.

Usage: python tools/size.py [SRC_DIR]   (default: src/homfilt next to this script)

The line count is that of ``cat SRC_DIR/*.py | wc -l``.  The settable options
are counted from the source's syntax tree, without importing it:

- the defaulted parameters of public top-level functions (positional and
  keyword-only; ``*args`` and ``**kwargs`` do not count);
- the parameters of the catalog's family functions, the values of
  ``catalog._FAMILIES``, which a config's ``params`` set;
- the fields of the config dataclasses named in ``CONFIG_CLASSES``.
"""

import ast
import pathlib
import sys

# FilterConfig no longer exists; it stays listed so that older trees count as before.
CONFIG_CLASSES = ("FilterConfig", "StudyConfig", "StationaryAverager", "TabulationGrid")


def _defaulted(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _parameters(fn: ast.FunctionDef) -> int:
    a = fn.args
    return len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)


def _family_names(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_FAMILIES"
                        for t in node.targets)):
            return [v.id for v in node.value.values]
    return []


def option_counts(src: pathlib.Path) -> dict:
    """Settable options by kind, over every module of ``src``."""
    counts = {"public defaults": 0, "family parameters": 0, "config fields": 0}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        families = set(_family_names(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    counts["public defaults"] += _defaulted(node)
                if node.name in families:
                    counts["family parameters"] += _parameters(node)
            elif isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                counts["config fields"] += sum(isinstance(s, ast.AnnAssign)
                                               for s in node.body)
    return counts


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
