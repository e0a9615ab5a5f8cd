"""The benchmark workloads: their configs, CLI calls and output checks.

Each workload is a closed loop with one client: the next `homfilt` CLI call
starts only after the previous one has ended.  A workload writes its YAML
config during set-up, names the CLI calls that prepare its inputs, names the
timed call, and checks what each call wrote.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import yaml

# Criterion-7 shape of the acceptance suite (tests/test_acceptance.py).
SWEEP_EPSILONS = (0.5, 0.25, 0.125, 0.0625)
SWEEP_REPLICATIONS = 25        # per epsilon and per call
SWEEP_SLOPE_RANGE = (0.3, 0.7)

GRID = {"lows": [-2.0], "highs": [2.0], "counts": [17],
        "interpolation": "multilinear"}
GRID_NODES = GRID["counts"][0]
# b-bar and h-bar of the set-up's table must lie within this many of the
# table's own standard errors of the closed form.  b and h share one path
# per node, so there are 17 independent z values, and a |t_63| above 6 has
# probability ~1e-7 each.  Euler at dt 0.01 moves the fast variance to
# 1.005, which shifts the closed form by ~0.002, well below one standard
# error (~0.04).
TABLE_Z_TOL = 6.0

TRACK_STEPS = 1000             # observation steps: horizon 10 at dt 0.01
TRACK_EPSILON = 0.05
# metric_d between the full and the reduced filter at the final time.  On
# seeds 0-13, with a table at dt 0.005, it was 0.003-0.044 (mean 0.015),
# with a roughly exponential tail; 0.15 is ten means out.
TRACK_METRIC_BOUND = 0.15


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


@dataclass
class CallCheck:
    """Outcome of checking one call's outputs."""

    attempted: int
    failed: int
    fingerprints: dict      # output file name -> sha256
    notes: list
    detail: dict = field(default_factory=dict)   # figures worth printing


@dataclass(frozen=True)
class Workload:
    name: str
    alias: str                          # what ops_per_s counts, by name
    ops_per_call: int
    fail_unit: str                      # what failed_frac counts
    ops_per_check: int                  # such operations in one call
    min_calls: int
    write_config: Callable              # (work_dir) -> config path
    setup_argvs: Callable               # (work_dir, config, seed) -> [argv]
    op_argv: Callable                   # (config, seed, out_dir) -> argv
    varies_seed: bool                   # each call gets its own homfilt --seed
    # (out_dir, work_dir, NonErgodicWarnings seen) -> CallCheck
    check_call: Callable
    # (work_dir, [out_dir]) -> (ok, detail): a check over the set-up and all
    # calls of a run; when it fails, every operation of the run counts as
    # failed.
    check_run: Optional[Callable] = None


# --------------------------------------------------------------------------
# sweep: `homfilt study`, the paper's headline experiment.
# --------------------------------------------------------------------------

def _sweep_config(work):
    path = os.path.join(work, "sweep.yaml")
    write_yaml(path, {
        "model": {"family": "ou_benchmark",
                  "params": {"c_b": 0.5, "c_h": 2.0, "sigma0": 0.5}},
        "study": {"epsilons": list(SWEEP_EPSILONS),
                  "replications": SWEEP_REPLICATIONS, "horizon": 1.0,
                  "n_particles": 2048, "dt": 0.02}})
    return path


def _read_report(out_dir):
    """Per-epsilon rows of report.txt and per-replication distances of report.csv."""
    rows = []
    with open(os.path.join(out_dir, "report.txt")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("epsilon mean_distance standard_error count failures")
    for line in lines[start + 1:]:
        eps, mean, se, count, failures = line.split()
        rows.append((float(eps), float(mean), float(se), int(count), int(failures)))
    dists = {}
    with open(os.path.join(out_dir, "report.csv")) as fh:
        next(fh)
        for line in fh:
            eps, _, dist = line.split(",")
            dists.setdefault(float(eps), []).append(float(dist))
    return rows, dists


def _check_sweep(out_dir, work, warned):
    notes = []
    rows, dists = _read_report(out_dir)
    failed = sum(r[4] for r in rows)
    ok = [r[0] for r in rows] == list(SWEEP_EPSILONS)
    for eps, mean, _, count, failures in rows:
        d = np.array(dists.get(eps, []))
        ok &= count + failures == SWEEP_REPLICATIONS and len(d) == count
        ok &= bool(np.all((d >= 0.0) & (d < 1.0)))
        ok &= len(d) > 0 and math.isclose(float(d.mean()), mean, rel_tol=1e-12)
    if not ok:
        notes.append("report.txt and report.csv disagree")
        failed = len(SWEEP_EPSILONS) * SWEEP_REPLICATIONS
    return CallCheck(len(SWEEP_EPSILONS) * SWEEP_REPLICATIONS, failed,
                     _fingerprints(out_dir, SWEEP_OUTPUTS), notes)


def sweep_slope(out_dirs):
    """Pooled per-epsilon means, standard errors and the weighted log-log slope.

    Written independently of homfilt.study: weights are (mean / se)^2.
    """
    pooled = {eps: [] for eps in SWEEP_EPSILONS}
    for out_dir in out_dirs:
        for eps, d in _read_report(out_dir)[1].items():
            pooled[eps].extend(d)
    d = [np.array(pooled[eps]) for eps in SWEEP_EPSILONS]
    means = np.array([v.mean() for v in d])
    ses = np.array([v.std(ddof=1) / math.sqrt(len(v)) for v in d])
    slope = np.polyfit(np.log(SWEEP_EPSILONS), np.log(means), 1, w=means / ses)[0]
    return float(slope), means, ses


def _check_sweep_run(work, out_dirs):
    """Criterion-7 bounds on the replications pooled over the run's calls.

    One call has 25 replications per epsilon, too few for the slope to stay
    in [0.3, 0.7] (about 12% of seeds fall outside); criterion 7 uses 100.
    """
    slope, means, ses = sweep_slope(out_dirs)
    ok = SWEEP_SLOPE_RANGE[0] <= slope <= SWEEP_SLOPE_RANGE[1]
    for i in range(len(means) - 1):
        ok &= means[i + 1] <= means[i] + 2 * math.hypot(ses[i], ses[i + 1])
    return bool(ok), {"pooled_slope": slope}


SWEEP_OUTPUTS = ("report.txt", "report.csv")

SWEEP = Workload(
    name="sweep",
    alias="replications_per_s",
    ops_per_call=len(SWEEP_EPSILONS) * SWEEP_REPLICATIONS,
    fail_unit="replication",
    ops_per_check=len(SWEEP_EPSILONS) * SWEEP_REPLICATIONS,
    min_calls=4,
    write_config=_sweep_config,
    setup_argvs=lambda work, cfg, seed: [],
    op_argv=lambda cfg, seed, out: ["--config", cfg, "--seed", str(seed),
                                    "--out", out, "study"],
    varies_seed=True,
    check_call=_check_sweep,
    check_run=_check_sweep_run)


# --------------------------------------------------------------------------
# track: `homfilt filter` (mode both) on one long path with a tabulated model.
# --------------------------------------------------------------------------

def _track_config(work):
    setup = os.path.join(work, "setup")
    path = os.path.join(work, "track.yaml")
    write_yaml(path, {
        "model": {"family": "sinusoidal", "epsilon": TRACK_EPSILON,
                  "horizon": TRACK_STEPS * 0.01, "dt": 0.01},
        # Set-up time: the table need only be good enough to filter with and
        # to pass the closed-form check of _check_track_table.
        "averager": {"grid": GRID, "burn_in": 2.0, "sample_horizon": 10.0,
                     "dt": 0.01, "replicates": 64},
        "filter": {"mode": "both", "n_particles": 2048, "init_mean": 0.0,
                   "init_std": 0.5,
                   "observations": os.path.join(setup, "observations.csv"),
                   "table": os.path.join(setup, "homogenized_table.txt")}})
    return path


def _track_setup(work, cfg, seed):
    setup = os.path.join(work, "setup")
    return [["--config", cfg, "--seed", str(seed), "--out", setup, "simulate"],
            ["--config", cfg, "--seed", str(seed), "--out", setup, "homogenize"]]


def _read_table_blocks(path):
    blocks, key = {}, None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                key = line.strip("[]")
                blocks[key] = []
            elif key is not None:
                blocks[key].append([float(v) for v in line.split()])
    return {k: np.array(v) for k, v in blocks.items()}


def _check_track_table(work, out_dirs):
    """The set-up's table against the closed form, and its bit-exact reload.

    Each node's b-bar and h-bar lie within TABLE_Z_TOL of the table's own
    standard errors of the closed form, a-bar equals sigma0^2 exactly, the
    homogenize call raised no NonErgodicWarning, and load_tabulated followed
    by save_tabulated writes the same bytes.
    """
    from homfilt.averaging import load_tabulated, save_tabulated

    path = os.path.join(work, "setup", "homogenized_table.txt")
    t = _read_table_blocks(path)
    x = np.linspace(GRID["lows"][0], GRID["highs"][0], GRID_NODES)
    damp = math.exp(-0.5)
    # sinusoidal defaults: a=-1, amp_b=1, sigma0=0.5, h_x=1, amp_h=1
    z_b = (t["b"][:, 0] - (-x + damp * np.sin(x))) / t["b_se"][:, 0]
    z_h = (t["h"][:, 0] - (x + damp * np.sin(x))) / t["h_se"][:, 0]
    bad = (np.abs(z_b) > TABLE_Z_TOL) | (np.abs(z_h) > TABLE_Z_TOL)
    bad |= t["a"][:, 0] != 0.25
    warned = 0
    for name in os.listdir(work):
        if name.startswith("setup") and name.endswith(".err"):
            with open(os.path.join(work, name)) as fh:
                warned += fh.read().count("NonErgodicWarning")
    resaved = os.path.join(work, "table_resaved.txt")
    save_tabulated(load_tabulated(path), resaved)
    reloads = sha256(resaved) == sha256(path)
    detail = {"table_max_abs_z": float(max(np.abs(z_b).max(), np.abs(z_h).max())),
              "table_nodes_off": tuple(np.flatnonzero(bad).tolist()),
              "table_nonergodic_warnings": warned, "table_reloads_exactly": reloads}
    return not bad.any() and warned == 0 and reloads, detail


def _check_track(out_dir, work, warned):
    from homfilt.cli import read_csv

    notes = []
    _, _, obs = read_csv(os.path.join(work, "setup", "observations.csv"))
    failed = 0
    for kind in ("full", "homogenized"):
        _, header, rows = read_csv(os.path.join(out_dir, f"filter_{kind}.csv"))
        ok = (rows.shape[0] == TRACK_STEPS == obs.shape[0]
              and header[0] == "time" and np.array_equal(rows[:, 0], obs[:, 0]))
        if not ok:
            notes.append(f"filter_{kind}.csv does not have one row per step")
            failed += 1
    with open(os.path.join(out_dir, "filter_distance.txt")) as fh:
        dist = float(fh.read().split("metric_d=")[1])
    if not 0.0 <= dist < TRACK_METRIC_BOUND:
        notes.append(f"metric_d={dist!r} outside [0, {TRACK_METRIC_BOUND})")
        failed = 2
    return CallCheck(2, failed, _fingerprints(out_dir, TRACK_OUTPUTS), notes,
                     {"metric_d": dist})


TRACK_OUTPUTS = ("filter_full.csv", "filter_homogenized.csv", "filter_distance.txt")

TRACK = Workload(
    name="track",
    alias="obs_steps_per_s (steps through both filters)",
    ops_per_call=TRACK_STEPS,
    fail_unit="filter run",
    ops_per_check=2,
    min_calls=3,
    write_config=_track_config,
    setup_argvs=_track_setup,
    op_argv=lambda cfg, seed, out: ["--config", cfg, "--seed", str(seed),
                                    "--out", out, "filter"],
    varies_seed=False,
    check_call=_check_track,
    check_run=_check_track_table)


def _fingerprints(out_dir, names) -> dict:
    return {n: sha256(os.path.join(out_dir, n)) for n in names}


WORKLOADS = {w.name: w for w in (SWEEP, TRACK)}
