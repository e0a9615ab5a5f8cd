"""Command-line front end: simulate | homogenize | filter | study.

A single YAML config file drives every subcommand (sections: model, averager,
filter, study); a key that no subcommand reads is a usage error.  The global
flags --seed and --out set what no config key sets.  Every emitted CSV starts
with a '#'-prefixed manifest block recording the resolved inputs that
produced it, so outputs are self-describing and reproducible.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error.
"""

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

import numpy as np
import yaml

from . import __version__, catalog, rng as rngmod, schema
from .averaging import (StationaryAverager, TabulationGrid, build_homogenized,
                        load_tabulated, save_tabulated)
from .errors import BlowUpError, HomfiltError, ModelShapeError, UsageError
from .filtering import (gaussian_prior, run_forked, run_full_filter,
                        run_homogenized_filter)
from .measures import EmpiricalMeasure, default_basis, metric_d
from .models import (ObservationPath, blow_up_steps, simulate_multiscale,
                     simulate_observations, step_count)
from .study import StudyConfig, run_study, report_csv, report_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _names(cls):
    return {f.name for f in dataclasses.fields(cls)}


# [filter] keys read as the StudyConfig fields of the same name, with their defaults.
_FILTER_SETTINGS = ("resample_threshold", "basis_count", "init_mean", "init_std")

# Every key a config section may hold, over all subcommands: one file drives them all.
# The section of a config class holds its fields, less those set elsewhere.
_KEYS = {
    "model": {"family", "epsilon", "params", "horizon", "dt", "x0", "z0"},
    "averager": _names(StationaryAverager) | {"grid"},
    "averager.grid": _names(TabulationGrid),
    "filter": {"mode", "observations", "table", "n_particles", *_FILTER_SETTINGS},
    # [model]'s family and params, and --seed.
    "study": _names(StudyConfig) - {"family", "family_params", "root_seed"},
}


def _load_config(path):
    if path is None:
        raise UsageError("--config is required")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config {path}: {' '.join(str(exc).split())}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a mapping of sections")
    for name in cfg:
        if name not in _KEYS or "." in name:  # [averager.grid] sits in [averager]
            raise UsageError(f"unknown config section [{name}]")
    return cfg


def _section(cfg, name, key=None):
    """Config section [name], held under ``key`` (default ``name``): a mapping
    whose keys must all appear in ``_KEYS[name]``."""
    sec = cfg.get(key or name, {})
    if not isinstance(sec, dict):
        raise UsageError(f"config section [{name}] must be a mapping")
    for k in sec:
        if k not in _KEYS[name]:
            raise UsageError(f"unknown key {k!r} in config section [{name}]")
    return sec


def _require(sec, key, section):
    if key not in sec:
        raise UsageError(f"missing key {key!r} in config section [{section}]")
    return sec[key]


@contextlib.contextmanager
def _config_values(section):
    """Report a value of the wrong type or out of range, read from config
    section [section] in this block, as a usage error."""
    try:
        yield
    except (ValueError, TypeError, ModelShapeError) as exc:
        raise UsageError(f"bad [{section}] config: {exc}") from exc


def _build(cls, section, sec, **given):
    """``cls`` from the keys of config section [section] that are its fields,
    and the values ``given``, each parsed by its field's annotation."""
    values = {k: v for k, v in sec.items() if k in _names(cls)} | given
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            _require(values, f.name, section)
    with _config_values(section):
        return schema.build(cls, values)


def _manifest_lines(args, extra):
    run = {"subcommand": args.command, "config": args.config, "seed": args.seed}
    return [f"# homfilt {__version__}"] + [f"# {k}={v}" for k, v in (run | extra).items()]


def _write_csv(path, manifest, header, rows):
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(manifest + [",".join(header)]) + "\n")
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
                k, eq, v = line[1:].strip().partition("=")
                if eq:
                    manifest[k] = v
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return manifest, header, np.array(rows)


def _family_params(sec):
    """[model] params, each read as a real number: YAML's string '5e-1' is 0.5."""
    with _config_values("model"):
        return {str(k): schema.real(v) for k, v in dict(sec.get("params", {})).items()}


def _model_from_config(cfg):
    """[model]'s full model, its family's closed-form averaged model and the
    family name."""
    sec = _section(cfg, "model")
    family = _require(sec, "family", "model")
    with _config_values("model"):
        epsilon = schema.real(sec.get("epsilon", 1.0))
        model, averaged = catalog.make_views(family, epsilon, **_family_params(sec))
    return model, averaged, family


def cmd_simulate(args):
    cfg = _load_config(args.config)
    model, _, family = _model_from_config(cfg)
    sec = _section(cfg, "model")
    m, n = model.dim_slow, model.dim_fast
    with _config_values("model"):
        horizon = schema.real(_require(sec, "horizon", "model"))
        dt = schema.real(_require(sec, "dt", "model"))
        step_count(horizon, dt)
        x0 = np.asarray(sec.get("x0", [0.0] * m), dtype=float).reshape(m)
        z0 = np.asarray(sec.get("z0", [0.0] * n), dtype=float).reshape(n)
        if not (np.isfinite(x0).all() and np.isfinite(z0).all()):
            raise ValueError("x0 and z0 must be finite")
    xs, zs = simulate_multiscale(model, x0, z0, horizon, dt,
                                 rng=rngmod.stream(args.seed, rngmod.ROLE_SIM_SIGNAL))
    blown = int(blow_up_steps(xs, zs))
    if blown >= 0:
        raise BlowUpError(blown)
    obs = simulate_observations(xs, zs, model, dt,
                                rng=rngmod.stream(args.seed, rngmod.ROLE_SIM_OBS))
    extra = {"family": family, "epsilon": repr(model.epsilon),
             "horizon": repr(horizon), "dt": repr(dt)}
    manifest = _manifest_lines(args, extra)
    sig_header = (["time"] + [f"x{i}" for i in range(m)] + [f"z{i}" for i in range(n)])
    sig_rows = [[float(t)] + [float(v) for v in x] + [float(v) for v in z]
                for t, x, z in zip(obs.times, xs, zs)]
    _write_csv(os.path.join(args.out, "signal.csv"), manifest, sig_header, sig_rows)
    obs_header = ["time"] + [f"dy{i}" for i in range(model.dim_obs)]
    obs_rows = [[float(t)] + [float(v) for v in dy]
                for t, dy in zip(obs.times[1:], obs.increments[:, 0])]
    _write_csv(os.path.join(args.out, "observations.csv"), manifest, obs_header, obs_rows)
    return EXIT_OK


def cmd_homogenize(args):
    cfg = _load_config(args.config)
    model = _model_from_config(cfg)[0]
    sec = _section(cfg, "averager")
    _require(sec, "grid", "averager")
    grid = _build(TabulationGrid, "averager.grid", _section(sec, "averager.grid", "grid"))
    acfg = _build(StationaryAverager, "averager", sec)
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
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError("no rows of time and increments")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite value in data row {bad[0] + 1}")
        return ObservationPath(times=np.concatenate([[0.0], rows[:, 0]]),
                               increments=rows[:, None, 1:])
    except OSError as exc:
        raise IOError(f"cannot read observations {path}: {exc}")
    except ValueError as exc:
        raise IOError(f"{path}: not an observations CSV: {exc}")


def _table_from_file(path):
    try:
        return load_tabulated(path)
    except (ValueError, KeyError, IndexError, HomfiltError) as exc:
        raise IOError(f"{path}: not a tabulated model file: {exc}")


def cmd_filter(args):
    cfg = _load_config(args.config)
    fsec = _section(cfg, "filter")
    mode = fsec.get("mode", "both")
    if mode not in ("full", "homogenized", "both"):
        raise UsageError(f"filter mode must be full|homogenized|both, got {mode!r}")
    obs_path = _require(fsec, "observations", "filter")
    obs = _obs_from_file(obs_path)
    table_path = fsec.get("table") if mode != "full" else None
    targets = {}
    if mode != "homogenized" or not table_path:  # a table needs no [model]
        targets["full"], targets["homogenized"], _ = _model_from_config(cfg)
    if table_path:
        hm = targets["homogenized"] = _table_from_file(table_path)
        if "full" in targets and hm.dim_slow != targets["full"].dim_slow:
            raise IOError(f"{table_path}: the table's slow state has dimension "
                          f"{hm.dim_slow}, the model's {targets['full'].dim_slow}")
    if mode != "both":
        targets = {mode: targets[mode]}
    d = obs.increments.shape[2]
    for kind, target in targets.items():
        if d != target.dim_obs:
            raise IOError(f"{obs_path}: observations of dimension {d}, "
                          f"but the {kind} model's read-out has {target.dim_obs}")
    m = next(iter(targets.values())).dim_slow
    with _config_values("filter"):
        n_particles = schema.whole(fsec.get("n_particles", 1000))
        if n_particles < 1:
            raise ValueError("n_particles must be positive")
        settings = {f.name: schema.parse(f.type, fsec[f.name]) if f.name in fsec
                    else f.default for f in dataclasses.fields(StudyConfig)
                    if f.name in _FILTER_SETTINGS}
        basis = default_basis(settings["basis_count"], m)  # checked in every mode

    manifest = _manifest_lines(args, {"mode": mode, "n_particles": str(n_particles),
                                      "dt": repr(obs.dt)})
    tasks = []
    for kind, target in targets.items():
        if kind == "full":
            run, role, n = run_full_filter, rngmod.ROLE_FILTER_FULL, target.dim_fast
        else:
            run, role, n = run_homogenized_filter, rngmod.ROLE_FILTER_HOMOG, 0
        rngs = [rngmod.stream(args.seed, role)]
        states = gaussian_prior(rngmod.StreamBatch(rngs), (1, n_particles),
                                settings["init_mean"], settings["init_std"], m, n)
        tasks.append(functools.partial(run, target, obs, states,
                                       settings["resample_threshold"], rngs))
    # The filters run side by side; their outputs and errors follow in order.
    finals = {}
    for kind, batch in zip(targets, run_forked(lambda group: [f() for f in group], tasks)):
        if batch.errors[0] is not None:
            raise batch.errors[0]
        finals[kind] = EmpiricalMeasure(batch.states[0, :, :m], batch.weights[0])
        # The full filter's mean covers (x, z); the columns name x only.
        rows = [[t, *mean, e, flag] for t, mean, e, flag in zip(
            obs.times[1:].tolist(), batch.means[:, 0, :m].tolist(),
            batch.ess[:, 0].tolist(), batch.resampled[:, 0].tolist())]
        header = ["time"] + [f"mean{i}" for i in range(m)] + ["ess", "resampled"]
        _write_csv(os.path.join(args.out, f"filter_{kind}.csv"),
                   manifest, header, rows)
    if mode == "both":
        dist = metric_d(finals["full"], finals["homogenized"], basis)
        path = os.path.join(args.out, "filter_distance.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(manifest + [f"metric_d={dist!r}"]) + "\n")
        print(f"metric_d={dist!r}")
    return EXIT_OK


def cmd_study(args):
    cfg = _load_config(args.config)
    sec = _section(cfg, "study")
    msec = _section(cfg, "model")
    family = {"family": msec["family"]} if "family" in msec else {}
    scfg = _build(StudyConfig, "study", sec, root_seed=args.seed,
                  family_params=_family_params(msec), **family)
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
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        os.makedirs(args.out, exist_ok=True)
        # Non-finite states are reported as errors; numpy's warnings add nothing.
        with np.errstate(all="ignore"):
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
