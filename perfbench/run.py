#!/usr/bin/env python3
"""homfilt benchmark: time the `homfilt` CLI on two workloads.

    python3 perfbench/run.py --workload sweep|track \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # everything, one listing

With --trace 0 each CLI call runs as its own subprocess (interpreter start
included) in a closed loop for --seconds, and the last line of stdout is a
JSON object with the end-to-end metrics.  With --trace 1 the same calls run
untraced as subprocesses and traced in-process under layer_trace's spans,
their outputs must match byte for byte, and the JSON holds the per-layer
metrics.  Both modes check the outputs; a failed check counts its operations
as failed.  The benchmark measures only its own processes: no machine-wide
tracing, no cache dropping, and no pinning.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layer_micro
import layer_trace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up repeats at least this often and for at least this long; setup_s is
# the median repeat, so a one-off stall does not move it.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Child:
    """A finished child process: its wall seconds, own ru_maxrss in MB, exit
    code, stdout and stderr."""

    wall: float
    rss: float
    code: int
    out: str
    err: str


def run_child(args, log_stem):
    """Run `python args...` to completion with homfilt on PYTHONPATH.

    os.wait4 reports the rusage of that one child only.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = f"{log_stem}.out", f"{log_stem}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh_out, open(err_path) as fh_err:
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     fh_out.read(), fh_err.read())


def run_cli(argv, log_stem):
    return run_child(["-m", "homfilt.cli"] + argv, log_stem)


def env_record():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "scope": "own processes only: no machine-wide tracing, no dropped "
                 "caches, no CPU pinning of any process",
    }


def tree_fingerprints(directory):
    return {p.name: workloads.sha256(p) for p in sorted(Path(directory).glob("*"))
            if p.is_file() and p.suffix not in (".out", ".err")}


def call_seed(wl, seed, k):
    """The homfilt --seed of a workload's call k."""
    return seed * 1000 + k if wl.varies_seed else seed


def detail_lines(details):
    """One line per figure the checks report, with its distinct values."""
    keys = dict.fromkeys(k for d in details for k in d)
    return [f"{k} " + " ".join(repr(v) for v in
                               dict.fromkeys(d[k] for d in details if k in d))
            for k in keys]


def set_up(wl, work, seed):
    """Set up repeatedly; returns the config, each repeat's time, the median
    import time and the fingerprints of what set-up wrote.

    One set-up is a fresh interpreter that imports homfilt.cli and exits
    (it also compiles the .pyc files, so no timed call pays for that; its
    wall time is cli.import_s), the config, and the workload's own preparing
    CLI calls.  Every repeat must write the same bytes.
    """
    times, imports, prints = [], [], []
    config = None
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        child = run_child(["-c", "import homfilt.cli"], str(work / "import"))
        if child.code != 0:
            fail(f"importing homfilt.cli failed:\n{child.err}")
        imports.append(child.wall)
        config = wl.write_config(str(work))
        for i, argv in enumerate(wl.setup_argvs(str(work), config, seed)):
            os.makedirs(argv[argv.index("--out") + 1], exist_ok=True)
            child = run_cli(argv, str(work / f"setup{i}"))
            if child.code != 0:
                fail(f"set-up call {argv} exited {child.code}:\n{child.err}")
        times.append(time.perf_counter() - t0)
        prints.append(tree_fingerprints(work / "setup")
                      if (work / "setup").is_dir() else {})
    if any(p != prints[0] for p in prints):
        fail("set-up is not deterministic: repeats wrote different bytes")
    return config, times, statistics.median(imports), prints[0]


def timed_loop(wl, work, config, seed, seconds):
    """Closed loop: one call at a time until `seconds` have passed."""
    calls = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(calls) < wl.min_calls:
        k = len(calls)
        out = work / f"call{k}"
        out.mkdir()
        child = run_cli(wl.op_argv(config, str(call_seed(wl, seed, k)), str(out)),
                        str(out / "cli"))
        calls.append({"out": out, "child": child})
    return calls


def check_calls(wl, work, calls):
    """Check every call's outputs; returns attempted, failed, notes, details."""
    attempted = failed = 0
    notes, details = [], []
    first = None
    for c in calls:
        child = c["child"]
        if child.code != 0:
            attempted += wl.ops_per_check
            failed += wl.ops_per_check
            notes.append(f"{c['out'].name}: exit {child.code}: {child.err.strip()[-300:]}")
            continue
        chk = wl.check_call(str(c["out"]), str(work),
                            child.err.count("NonErgodicWarning"))
        attempted += chk.attempted
        failed += chk.failed
        notes += [f"{c['out'].name}: {n}" for n in chk.notes]
        details.append(chk.detail)
        c["fingerprints"] = chk.fingerprints
        first = first or chk.fingerprints
        if not wl.varies_seed and chk.fingerprints != first:
            notes.append(f"{c['out'].name}: outputs differ from call0 at the same seed")
            failed = attempted
    return attempted, failed, notes, details


def e2e(wl, work, seed, seconds):
    """End-to-end metrics of the closed loop, with tracing off."""
    config, setup_times, import_s, setup_prints = set_up(wl, work, seed)
    calls = timed_loop(wl, work, config, seed, seconds)
    attempted, failed, notes, details = check_calls(wl, work, calls)
    if wl.check_run is not None and failed == 0:
        ok, detail = wl.check_run(str(work), [str(c["out"]) for c in calls])
        details.append(detail)
        if not ok:
            notes.append(f"run check failed: {detail}")
            failed = attempted
    walls = [c["child"].wall for c in calls]
    metrics = {
        # All the run's operations over all its call time: the host's speed
        # changes from second to second, and the sum weighs every second of
        # the run alike, where a median over a few calls keeps one of them.
        "ops_per_s": (wl.ops_per_call * len(calls) / sum(walls), "1/s"),
        "peak_rss_mb": (statistics.median(c["child"].rss for c in calls), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = [f"calls {len(calls)} (closed loop, one client), wall_s "
            + " ".join(f"{w:.3f}" for w in walls),
            f"ops_per_s is {wl.alias}",
            "setup_repeats_s " + " ".join(f"{t:.3f}" for t in setup_times),
            f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} "
            f"{wl.fail_unit}s)",
            f"cli.import_s {import_s:.4f} (fresh interpreter, median of the "
            f"set-up repeats)"]
    info += detail_lines(details)
    info += [f"fingerprint setup/{name} {h}" for name, h in setup_prints.items()]
    info += [f"fingerprint {calls[0]['out'].name}/{name} {h}"
             for name, h in calls[0].get("fingerprints", {}).items()]
    return metrics, attempted, failed, notes, info


def untraced_calls(argvs, work):
    """Run the calls as subprocesses: summed wall time, exit codes, stderr."""
    results = [run_cli(argv, str(work / f"untraced{i}")) for i, argv in enumerate(argvs)]
    return (sum(r.wall for r in results), [r.code for r in results],
            "".join(r.err for r in results))


def traced(wl, work, seed, seconds):
    """Per-layer metrics: untraced subprocess calls, then the same calls traced.

    The pair repeats until `seconds` have passed, alternating which side goes
    first; each metric is the median over the pairs.  The spans are written
    to spans<k>.json when the loop ends.
    """
    config, _, import_s, _ = set_up(wl, work, seed)
    out = work / "trace_call"
    out.mkdir()
    argvs = wl.setup_argvs(str(work), config, seed) + [
        wl.op_argv(config, str(call_seed(wl, seed, 0)), str(out))]
    watched = [out] + ([work / "setup"] if (work / "setup").is_dir() else [])
    attempted = failed = 0
    notes, pairs, details, span_sets = [], [], [], []
    t0 = time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        prints = {}
        for side in (("untraced", "traced") if len(pairs) % 2 == 0
                     else ("traced", "untraced")):
            if side == "untraced":
                untraced_s, u_codes, u_err = untraced_calls(argvs, work)
            else:
                tracer, t_codes, warned, t_err = layer_trace.run_traced(argvs)
            prints[side] = [tree_fingerprints(d) for d in watched]
        if any(u_codes) or any(t_codes):
            fail(f"exit codes untraced {u_codes}, traced {t_codes}:\n{u_err}{t_err}")
        chk = wl.check_call(str(out), str(work), warned)
        attempted += chk.attempted
        failed += chk.failed
        notes += chk.notes
        details.append(chk.detail)
        if prints["traced"] != prints["untraced"]:
            notes.append("traced outputs differ from untraced outputs")
            failed = attempted
        pairs.append(layer_trace.layer_metrics(
            tracer.spans, workloads.GRID_NODES, warned, import_s, len(argvs),
            untraced_s))
        span_sets.append(tracer.spans)
    for k, spans in enumerate(span_sets):
        with open(work / f"spans{k}.json", "w") as fh:
            json.dump([vars(s) for s in spans], fh)
    metrics = {name: (statistics.median(p[name][0] for p in pairs), unit)
               for name, (_, unit) in pairs[0].items()}
    metrics.update(layer_micro.micro_metrics())
    info = [f"traced pairs {len(pairs)}, calls per pair {len(argvs)}"]
    info += detail_lines(details)
    info += [f"fingerprint {d.name}/{name} {h}" for d in watched
             for name, h in tree_fingerprints(d).items()]
    return metrics, attempted, failed, notes, info


def run_one(args):
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = env_record()
    with open(work / "env.json", "w") as fh:
        json.dump(env, fh, indent=1)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    run = traced if args.trace else e2e
    metrics, attempted, failed, notes, info = run(wl, work, args.seed, args.seconds)
    declared = {(m["name"], m["unit"])
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {(k, u) for k, (_, u) in metrics.items()}
    if got != declared:
        fail(f"metrics differ from BENCHMARK.json: {sorted(got ^ declared)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {wl.name}: {why}")
    for line in info + [f"CHECK FAILED {n}" for n in notes]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not notes, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_all(args):
    """Every workload, untraced then traced, as separate runs of this script."""
    bad = False
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                bad = True
                continue
            res = json.loads(lines[-1])
            bad |= not res["correct"]
            print(f"== {name} trace={trace} correct={res['correct']} "
                  f"failed_frac={res['failed'] / res['attempted']:.6g} "
                  f"({res['failed']}/{res['attempted']})")
            for line in lines[:-1]:
                print(f"   {line}")
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help=f"all, {', '.join(workloads.WORKLOADS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "homfilt" / "cli.py").is_file():
        fail(f"no homfilt sources at {SRC}; run from a checkout of the repository")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    sys.path.insert(0, str(SRC))
    run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    main()
