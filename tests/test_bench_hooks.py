"""The benchmark's trace hooks still find every homfilt name they wrap.

perfbench's trace mode swaps module-level homfilt names for timing wrappers,
and its micro timings call single layer functions with fixed arguments.  A
change that deletes or reshapes one of those names breaks the benchmark
without failing any other test; this one fails instead.  It reads perfbench/
and changes nothing there.
"""

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_every_micro_case_runs_under_the_tracer():
    # installed() looks up every traced name; each case then calls its layer
    # through the wrappers.  Only perfbench's own tables are named here, so
    # the test follows the benchmark when it changes its targets.
    layer_trace, layer_micro = _load("layer_trace"), _load("layer_micro")
    tracer = layer_trace.Tracer()
    with layer_trace.installed(tracer):
        for call in layer_micro._cases().values():
            call()
    traced = {span.name for span in tracer.spans}
    assert traced
    assert traced <= {name for name, *_ in layer_trace.TARGETS}
