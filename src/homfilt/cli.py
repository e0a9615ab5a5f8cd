"""Command-line front end: simulate | homogenize | filter | study.

A single YAML config file drives every subcommand (sections: model, averager,
filter, study, output); a few global flags override config values, and flags
win.  Every emitted CSV starts with a '#'-prefixed manifest block recording
the resolved inputs that produced it, so outputs are self-describing and
reproducible.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error.
"""

import argparse
import os
import sys

import numpy as np
import yaml

from . import __version__, catalog, rng as rngmod
from .averaging import (StationaryAverager, TabulationGrid, build_homogenized,
                        load_tabulated, save_tabulated)
from .errors import HomfiltError, ModelShapeError, UsageError
from .filtering import FilterConfig, run_full_filter, run_homogenized_filter
from .measures import default_basis, marginal_x, metric_d
from .models import ObservationPath, simulate_multiscale, simulate_observations
from .study import StudyConfig, run_study, report_csv, report_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ROLE_SIM_SIGNAL = 10
ROLE_SIM_OBS = 11
ROLE_FILTER_FULL = 12
ROLE_FILTER_HOMOG = 13


def _load_config(path):
    if path is None:
        raise UsageError("--config is required")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a mapping of sections")
    return cfg


def _section(cfg, name):
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise UsageError(f"config section [{name}] must be a mapping")
    return sec


def _require(sec, key, section):
    if key not in sec:
        raise UsageError(f"missing key {key!r} in config section [{section}]")
    return sec[key]


def _manifest_lines(args, extra):
    lines = [f"# homfilt {__version__}",
             f"# subcommand={args.command}",
             f"# config={args.config}",
             f"# seed={args.seed}"]
    lines += [f"# {k}={v}" for k, v in extra.items()]
    return lines


def _write_csv(path, manifest, header, rows):
    try:
        with open(path, "w") as fh:
            for line in manifest:
                fh.write(line + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return str(v)


def read_csv(path):
    """Parse one of our own CSVs: manifest dict, column names, float matrix."""
    manifest = {}
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    manifest[k] = v
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return manifest, header, np.array(rows)


def _model_from_config(cfg, epsilon_override=None):
    sec = _section(cfg, "model")
    family = _require(sec, "family", "model")
    eps = epsilon_override if epsilon_override is not None else sec.get("epsilon", 1.0)
    params = dict(sec.get("params", {}))
    try:
        model = catalog.make_model(family, epsilon=float(eps), **params)
    except (ValueError, ModelShapeError) as exc:
        raise UsageError(f"bad [model] config: {exc}") from exc
    return model, family, params


def _averager_from_config(cfg):
    sec = _section(cfg, "averager")
    return StationaryAverager(
        burn_in=float(sec.get("burn_in", 10.0)),
        sample_horizon=float(sec.get("sample_horizon", 600.0)),
        dt=float(sec.get("dt", 1e-3)),
        replicates=int(sec.get("replicates", 64)))


def cmd_simulate(args):
    cfg = _load_config(args.config)
    model, family, params = _model_from_config(cfg)
    sec = _section(cfg, "model")
    horizon = float(_require(sec, "horizon", "model"))
    dt = float(_require(sec, "dt", "model"))
    x0 = np.atleast_1d(np.asarray(sec.get("x0", [0.0] * model.dim_slow), dtype=float))
    z0 = np.atleast_1d(np.asarray(sec.get("z0", [0.0] * model.dim_fast), dtype=float))
    signal = simulate_multiscale(model, x0, z0, horizon, dt,
                                 rng=rngmod.stream(args.seed, ROLE_SIM_SIGNAL))
    obs = simulate_observations(signal, model,
                                rng=rngmod.stream(args.seed, ROLE_SIM_OBS))
    extra = {"family": family, "epsilon": repr(model.epsilon),
             "horizon": repr(horizon), "dt": repr(dt)}
    manifest = _manifest_lines(args, extra)
    m, n = model.dim_slow, model.dim_fast
    sig_header = (["time"] + [f"x{i}" for i in range(m)] + [f"z{i}" for i in range(n)])
    sig_rows = [[float(t)] + [float(v) for v in x] + [float(v) for v in z]
                for t, x, z in zip(signal.times, signal.slow_states, signal.fast_states)]
    _write_csv(os.path.join(args.out, "signal.csv"), manifest, sig_header, sig_rows)
    obs_header = ["time"] + [f"dy{i}" for i in range(model.dim_obs)]
    obs_rows = [[float(t)] + [float(v) for v in dy]
                for t, dy in zip(obs.times[1:], obs.increments)]
    _write_csv(os.path.join(args.out, "observations.csv"), manifest, obs_header, obs_rows)
    return EXIT_OK


def cmd_homogenize(args):
    cfg = _load_config(args.config)
    model, family, params = _model_from_config(cfg)
    sec = _section(cfg, "averager")
    grid_sec = _require(sec, "grid", "averager")
    grid = TabulationGrid(
        lows=tuple(float(v) for v in _require(grid_sec, "lows", "averager.grid")),
        highs=tuple(float(v) for v in _require(grid_sec, "highs", "averager.grid")),
        counts=tuple(int(v) for v in _require(grid_sec, "counts", "averager.grid")),
        interpolation=grid_sec.get("interpolation", "multilinear"))
    acfg = _averager_from_config(cfg)
    hm = build_homogenized(model, grid, acfg, root_seed=args.seed)
    out_path = os.path.join(args.out, "homogenized_table.txt")
    try:
        save_tabulated(hm, out_path)
    except OSError as exc:
        raise IOError(f"cannot write {out_path}: {exc}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _obs_from_file(path):
    try:
        manifest, header, rows = read_csv(path)
    except OSError as exc:
        raise IOError(f"cannot read observations {path}: {exc}")
    times = np.concatenate([[0.0], rows[:, 0]])
    return ObservationPath(times=times, increments=rows[:, 1:])


def cmd_filter(args):
    cfg = _load_config(args.config)
    fsec = _section(cfg, "filter")
    mode = fsec.get("mode", "both")
    if mode not in ("full", "homogenized", "both"):
        raise UsageError(f"filter mode must be full|homogenized|both, got {mode!r}")
    obs = _obs_from_file(_require(fsec, "observations", "filter"))
    dt = float(np.diff(obs.times)[0])
    fcfg = FilterConfig(n_particles=int(fsec.get("n_particles", 1000)), dt=dt,
                        resample_threshold=float(fsec.get("resample_threshold", 0.5)))
    init_mean = float(fsec.get("init_mean", 0.0))
    init_std = float(fsec.get("init_std", 0.5))
    outputs = {}

    def run_one(kind):
        rows = []

        def sink(t, mean, e, resampled):
            rows.append([t] + [float(v) for v in mean] + [float(e), resampled])

        if kind == "full":
            model, _, _ = _model_from_config(cfg)
            m, n = model.dim_slow, model.dim_fast

            def init(rng, count):
                x = init_mean + init_std * rng.standard_normal((count, m))
                z = x[:, :1] + rng.standard_normal((count, n))
                return x, z

            hist = run_full_filter(model, obs, init, fcfg,
                                   rngmod.stream(args.seed, ROLE_FILTER_FULL),
                                   keep_history=False, summary_sink=sink)
            return rows, marginal_x(hist[-1], m), m
        table_path = fsec.get("table")
        if table_path:
            hm = load_tabulated(table_path)
        else:
            _, family, params = _model_from_config(cfg)
            hm = catalog.make_analytic_homogenized(family, **params)

        def init(rng, count):
            return init_mean + init_std * rng.standard_normal((count, hm.dim_slow))

        hist = run_homogenized_filter(hm, obs, init, fcfg,
                                      rngmod.stream(args.seed, ROLE_FILTER_HOMOG),
                                      keep_history=False, summary_sink=sink)
        return rows, marginal_x(hist[-1], hm.dim_slow), hm.dim_slow

    extra = {"mode": mode, "n_particles": str(fcfg.n_particles), "dt": repr(dt)}
    manifest = _manifest_lines(args, extra)
    kinds = ["full", "homogenized"] if mode == "both" else [mode]
    finals = {}
    for kind in kinds:
        rows, final, m = run_one(kind)
        finals[kind] = final
        header = ["time"] + [f"mean{i}" for i in range(m)] + ["ess", "resampled"]
        _write_csv(os.path.join(args.out, f"filter_{kind}.csv"),
                   manifest, header, rows)
    if mode == "both":
        basis = default_basis(int(fsec.get("basis_count", 16)),
                              finals["full"].dim)
        dist = metric_d(finals["full"], finals["homogenized"], basis)
        path = os.path.join(args.out, "filter_distance.txt")
        with open(path, "w") as fh:
            for line in manifest:
                fh.write(line + "\n")
            fh.write(f"metric_d={dist!r}\n")
        print(f"metric_d={dist!r}")
    return EXIT_OK


def cmd_study(args):
    cfg = _load_config(args.config)
    sec = _section(cfg, "study")
    msec = _section(cfg, "model")
    try:
        scfg = StudyConfig(
            epsilons=tuple(float(e) for e in _require(sec, "epsilons", "study")),
            replications=int(_require(sec, "replications", "study")),
            horizon=float(_require(sec, "horizon", "study")),
            n_particles=int(_require(sec, "n_particles", "study")),
            dt=float(_require(sec, "dt", "study")),
            root_seed=args.seed,
            family=msec.get("family", "ou_benchmark"),
            family_params=dict(msec.get("params", {})),
            resample_threshold=float(sec.get("resample_threshold", 0.5)),
            basis_count=int(sec.get("basis_count", 16)),
            init_mean=float(sec.get("init_mean", 0.0)),
            init_std=float(sec.get("init_std", 0.5)),
            threads=args.threads,
            bootstrap_samples=int(sec.get("bootstrap_samples", 1000)))
    except ValueError as exc:
        raise UsageError(f"bad [study] config: {exc}") from exc
    report = run_study(scfg)
    txt_path = os.path.join(args.out, "report.txt")
    csv_path = os.path.join(args.out, "report.csv")
    try:
        with open(txt_path, "w") as fh:
            fh.write(report_text(report))
        with open(csv_path, "w") as fh:
            fh.write(report_csv(report))
    except OSError as exc:
        raise IOError(f"cannot write report: {exc}")
    print(f"slope={report.slope!r} ci=({report.slope_ci[0]!r}, {report.slope_ci[1]!r})")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="homfilt",
        description="Reduced-order nonlinear filtering for slow/fast diffusions")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored; the study is batched")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="simulate a signal and observation path")
    sub.add_parser("homogenize", help="tabulate the averaged model on a grid")
    sub.add_parser("filter", help="run the particle filter(s) on observations")
    sub.add_parser("study", help="run the epsilon-sweep convergence study")
    return p


_COMMANDS = {"simulate": cmd_simulate, "homogenize": cmd_homogenize,
             "filter": cmd_filter, "study": cmd_study}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HomfiltError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
