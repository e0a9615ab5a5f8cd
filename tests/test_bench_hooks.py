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


def test_traced_table_answers_every_query(tmp_path):
    # `--trace 1` on track loads its table through _with_traced_queries, which
    # swaps the model's query fields for traced wrappers; the traced model must
    # answer as the plain one does and save the same bytes.
    import numpy as np
    from homfilt import catalog
    from homfilt.averaging import (StationaryAverager, TabulationGrid, build_homogenized,
                                   load_tabulated, save_tabulated)

    layer_trace = _load("layer_trace")
    path = str(tmp_path / "table.txt")
    save_tabulated(build_homogenized(
        catalog.make_model("sinusoidal", epsilon=0.05),
        TabulationGrid(lows=(-2.0,), highs=(2.0,), counts=(5,)),
        StationaryAverager(burn_in=0.01, sample_horizon=0.02, dt=0.01, replicates=2),
        root_seed=0), path)
    tracer = layer_trace.Tracer()
    traced = layer_trace._with_traced_queries(tracer, load_tabulated)(path)
    plain = load_tabulated(path)
    x = np.linspace(-2.5, 2.5, 7)[:, None]
    for name in layer_trace.QUERY_FIELDS:
        assert np.array_equal(getattr(traced, name)(x), getattr(plain, name)(x))
    for got, want in zip(traced.coefficients(x), plain.coefficients(x), strict=True):
        assert np.array_equal(got, want)
    assert traced.dim_obs == plain.dim_obs == 1
    save_tabulated(traced, str(tmp_path / "resaved.txt"))
    assert (tmp_path / "resaved.txt").read_bytes() == (tmp_path / "table.txt").read_bytes()
    assert len(tracer.spans) >= len(layer_trace.QUERY_FIELDS)
    assert {span.name for span in tracer.spans} == {"averaging.interp_query"}
