"""Spans around the calls into each homfilt layer, recorded from outside it.

The tracer replaces module-level names that homfilt looks up at call time
(for example `homfilt.filtering.multiscale_step` or `homfilt.cli.metric_d`)
with timing wrappers, runs `homfilt.cli.main(argv)` in-process, and puts the
original names back.  Nothing under src/ changes.  A span holds its name,
start, end, parent span and thread id; spans stay in memory until the run
ends.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import sys
import threading
import time
import warnings
from collections import defaultdict
from typing import Optional

import numpy as np


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tid: int
    size: float = 0.0     # a count or byte size the span carries, if any


class Tracer:
    """Collects spans from every thread.

    A span opened on a worker thread with nothing open on that thread gets
    as parent the innermost span open on the tracer's own thread: that span
    (for example `study.run_study`) submitted the work to the pool.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._main_tid = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, size=None):
        """`fn` wrapped in a span; `size(args, kwargs, result)` gives Span.size."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = size(args, kwargs, result) if size and result is not None else 0.0
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), n))
        return traced


def _substeps(args, kwargs, result):
    # multiscale_step(model, x, z, dt, substeps, rng, step_index=0)
    return kwargs["substeps"] if "substeps" in kwargs else args[4]


def _path_bytes(args, kwargs, result):
    return result.nbytes


# (span name, defining module, attribute, size function)
TARGETS = (
    ("models.multiscale_step", "homfilt.models", "multiscale_step", _substeps),
    ("models.simulate_frozen_fast", "homfilt.models", "simulate_frozen_fast",
     _path_bytes),
    ("averaging.build_homogenized", "homfilt.averaging", "build_homogenized", None),
    ("averaging.save_tabulated", "homfilt.averaging", "save_tabulated", None),
    ("averaging.load_tabulated", "homfilt.averaging", "load_tabulated", None),
    ("filtering.run_full_filter", "homfilt.filtering", "run_full_filter", None),
    ("filtering.run_homogenized_filter", "homfilt.filtering",
     "run_homogenized_filter", None),
    ("filtering.weight_update", "homfilt.filtering", "weight_update", None),
    ("filtering.systematic_resample", "homfilt.filtering", "systematic_resample",
     None),
    ("measures.metric_d", "homfilt.measures", "metric_d", None),
    ("study.run_study", "homfilt.study", "run_study", None),
    ("study.run_replication", "homfilt.study", "run_replication", None),
    ("study.fit_loglog_slope", "homfilt.study", "fit_loglog_slope", None),
    # Private, but looked up at call time like the rest: the bootstrap CI is
    # most of the study's aggregation.
    ("study.bootstrap_slope_ci", "homfilt.study", "_bootstrap_slope_ci", None),
    ("rng.stream", "homfilt.rng", "stream", None),
)

# The three interpolator queries a reduced filter step makes, plus diffsq_avg.
QUERY_FIELDS = ("drift_avg", "diffsq_avg", "diff_avg", "obs_avg")


def _with_traced_queries(tracer, load):
    """`load_tabulated` whose model answers queries through spans."""
    @functools.wraps(load)
    def load_traced(path):
        hm = load(path)
        return dataclasses.replace(hm, **{
            f: tracer.wrap("averaging.interp_query", getattr(hm, f))
            for f in QUERY_FIELDS})
    return load_traced


@contextlib.contextmanager
def installed(tracer):
    """Swap every homfilt module's reference to each target for its wrapper."""
    import homfilt.cli  # noqa: F401  (loads every layer)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "homfilt" or name.startswith("homfilt."))]
    swapped = []
    try:
        for span_name, module, attr, size in TARGETS:
            orig = getattr(sys.modules[module], attr)
            fn = _with_traced_queries(tracer, orig) if attr == "load_tabulated" else orig
            wrapper = tracer.wrap(span_name, fn, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        swapped.append((mod, key, orig))
        yield tracer
    finally:
        for mod, key, orig in reversed(swapped):
            setattr(mod, key, orig)


def _covered(span, kids):
    """Length of the union of the children's intervals inside `span`."""
    total, reach = 0.0, span.start
    for s, e in sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids):
        s = max(s, reach)
        if e > s:
            total += e - s
            reach = e
    return total


@dataclasses.dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size_sum: float = 0.0
    size_max: float = 0.0
    durations: list = dataclasses.field(default_factory=list)


def summarize(spans):
    """Per span name: calls, total and self time, and the carried sizes."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    stats = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        dur = s.end - s.start
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - _covered(s, kids[s.sid])
        st.size_sum += s.size
        st.size_max = max(st.size_max, s.size)
        st.durations.append(dur)
    return stats


def layer_metrics(spans, nodes, warnings_seen, import_s, calls, untraced_s):
    """Per-layer metrics of one traced sequence of `calls` CLI calls.

    `nodes` is the grid nodes one homogenize call tabulates, `import_s` the
    fresh-interpreter import time and `untraced_s` the summed wall time of
    the same calls run as subprocesses with tracing off.
    """
    st = summarize(spans)
    empty = NameStats()

    def of(name):
        return st.get(name, empty)

    reps = np.array(of("study.run_replication").durations) * 1e3
    build = of("averaging.build_homogenized")
    frozen = of("models.simulate_frozen_fast")
    weights = of("filtering.weight_update")
    resamples = of("filtering.systematic_resample")
    main = of("cli.main")
    traced_s = main.total_s + calls * import_s
    return {
        "models.multiscale_step.calls": (of("models.multiscale_step").calls, "count"),
        "models.multiscale_step.self_s": (of("models.multiscale_step").self_s, "s"),
        "models.fast_substeps": (of("models.multiscale_step").size_sum, "count"),
        "models.simulate_frozen_fast.self_s": (frozen.self_s, "s"),
        "models.frozen_path_mb": (frozen.size_max / 2 ** 20, "MB"),
        "averaging.build_homogenized.s": (build.total_s, "s"),
        "averaging.node_s": (build.total_s / (build.calls * nodes) if build.calls
                             else 0.0, "s"),
        "averaging.reduce_self_s": (build.total_s - frozen.total_s if build.calls
                                    else 0.0, "s"),
        "averaging.interp_query.calls": (of("averaging.interp_query").calls, "count"),
        "averaging.interp_query.self_s": (of("averaging.interp_query").self_s, "s"),
        "averaging.save_tabulated.s": (of("averaging.save_tabulated").total_s, "s"),
        "averaging.load_tabulated.s": (of("averaging.load_tabulated").total_s, "s"),
        "averaging.nonergodic_warnings": (warnings_seen, "count"),
        "filtering.run_full_filter.self_s": (of("filtering.run_full_filter").self_s, "s"),
        "filtering.run_homogenized_filter.self_s":
            (of("filtering.run_homogenized_filter").self_s, "s"),
        "filtering.weight_update.calls": (weights.calls, "count"),
        "filtering.weight_update.self_s": (weights.self_s, "s"),
        "filtering.systematic_resample.calls": (resamples.calls, "count"),
        "filtering.systematic_resample.self_s": (resamples.self_s, "s"),
        "filtering.resample_ratio": (resamples.calls / weights.calls if weights.calls
                                     else 0.0, "ratio"),
        "measures.metric_d.calls": (of("measures.metric_d").calls, "count"),
        "measures.metric_d.self_s": (of("measures.metric_d").self_s, "s"),
        "study.run_replication.calls": (len(reps), "count"),
        "study.run_replication.p50_ms": (float(np.percentile(reps, 50)) if len(reps)
                                         else 0.0, "ms"),
        "study.run_replication.p90_ms": (float(np.percentile(reps, 90)) if len(reps)
                                         else 0.0, "ms"),
        "study.aggregate_s": (of("study.fit_loglog_slope").total_s
                              + of("study.bootstrap_slope_ci").total_s, "s"),
        "study.replication_overlap": (
            of("study.run_replication").total_s / of("study.run_study").total_s
            if "study.run_study" in st else 0.0, "ratio"),
        "rng.stream.calls": (of("rng.stream").calls, "count"),
        "rng.stream.self_s": (of("rng.stream").self_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (main.self_s, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.coverage": (traced_s / untraced_s, "ratio"),
    }


def run_traced(argvs):
    """Run `homfilt.cli.main` on each argv in-process under a tracer.

    Returns the tracer, the exit codes, the NonErgodicWarning count and the
    captured stdout/stderr text.
    """
    import homfilt.cli
    from homfilt.errors import NonErgodicWarning

    tracer = Tracer()
    codes = []
    out, err = io.StringIO(), io.StringIO()
    with installed(tracer), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        main = tracer.wrap("cli.main", homfilt.cli.main)
        for argv in argvs:
            codes.append(main(argv))
    seen = sum(issubclass(w.category, NonErgodicWarning) for w in caught)
    return tracer, codes, seen, out.getvalue() + err.getvalue()
