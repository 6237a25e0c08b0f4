"""Config-driven command line for bounds, spectra, evolution and simulation.

Every run reads one JSON config, writes its artifacts into an output
directory, and finishes with a manifest listing each artifact with its
SHA-256 digest, so any artifact can be regenerated bit-identically from the
config alone.

Config schema (unknown keys anywhere are rejected)::

    {
      "task": "bounds" | "spectrum" | "evolve" | "simulate" | "validate" | "report",
      "velocity": { "kind": ..., ... },     # required except for validate/report
      "seed": 0,                            # optional integer (null: 0),
                                            # overridden by --seed
      "out_dir": "out",                     # optional, overridden by --out
      "params": { ... task-specific ... }
    }

Velocity kinds and their parameters:

    piecewise_constant: breakpoints [x0=domain start, ...], values, domain?
    piecewise_linear:   knots, values, domain?
    grid:               samples, domain?
    sine:               amplitude, frequency, phase?
    sawtooth:           amplitude
    heaviside:          high?, low?
    binary_cascade:     c, tail_tol?

`domain` is "torus" (default) or [a, b].  Only `spectrum` takes a field on
[a, b]; `bounds`, `evolve` and `simulate` need a torus field.

Task parameter blocks (all optional, with defaults):

    bounds:   grid_n, eps_grid (non-empty list of numbers), flatness_interval
              ([lo, hi]), j_points
    spectrum: k, boundary, n, s_points, discretization
    evolve:   t_end, samples, k_max, nx, ny, initial ("cos_y" | "cos_xy" |
              "random"), snapshots (count of field dumps)
    simulate: start [x, y], t_end, dt, n_paths, bins, y_integrator,
              kill_interval? ([lo, hi])
    validate: criteria (non-empty list of known criterion ids 1-11, default all)
    report:   (none; reads artifacts already in the output directory)

The CLI checks JSON types only (integers or integral numbers such as 64.0;
finite numbers, not strings or booleans, for t_end, dt and the pairs), and
the library states every range.  Exit codes: 0 success, 1 configuration error
(a malformed command line or a value that a library call refuses with a
ValueError), 2 validation-suite failure (`validate` only), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evolve, functionals, mcsim, validation
from .spectral import make_operator, resolvent_gap
from .velocity import field_from_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as config errors: argparse's 2 is a validation failure."""

    def error(self, message):
        raise ValueError(message)


# the tasks that run on the config's velocity field
_FIELD_TASKS = ("bounds", "spectrum", "evolve", "simulate")


def load_config(path):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ValueError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    allowed = {"task", "velocity", "seed", "out_dir", "params"}
    extra = set(raw) - allowed
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    task = raw.get("task")
    if task not in _TASKS:
        raise ValueError(f"task must be one of {tuple(_TASKS)}, got {task!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    extra = set(params) - _TASKS[task][1]
    if extra:
        raise ValueError(f"unknown params for task {task!r}: {sorted(extra)}")
    if task in _FIELD_TASKS:
        if "velocity" not in raw:
            raise ValueError(f"task {task!r} needs a velocity description")
        try:
            field_from_config(raw["velocity"])
        except ValueError as err:
            raise ValueError(f"bad velocity description: {err}") from err
    return raw


class Workspace:
    """Output directory plus the manifest of artifacts written into it."""

    def __init__(self, out_dir, config):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.artifacts = []

    def write_text(self, name, text):
        path = self.out / name
        path.write_text(text)
        self._record(name, path.read_bytes())
        return path

    def write_json(self, name, payload):
        return self.write_text(name, json.dumps(payload, indent=1, sort_keys=True) + "\n")

    def _record(self, name, blob):
        self.artifacts.append({
            "name": name,
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        })

    def record_file(self, name):
        """Record a file that its writer put in the directory (the snapshots)."""
        self._record(name, (self.out / name).read_bytes())

    def finish(self):
        manifest = {"config": self.config, "artifacts": self.artifacts}
        path = self.out / "manifest.json"
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return path


def _seeded(config, args):
    """The run seed: --seed, else the config's; an integer, null meaning 0."""
    return _int_param({"seed": args.seed} if args.seed is not None else config, "seed", 0)


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _int_param(params, name, default):
    """Integer task parameter (default when absent or null)."""
    value = params.get(name)
    if value is None:
        return default
    _require(type(value) is int or (type(value) is float and value.is_integer()),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _float_param(params, name, default):
    """Finite number task parameter (default when absent or null); not a string or boolean."""
    value = params.get(name)
    if value is None:
        return default
    _require(type(value) in (int, float) and math.isfinite(value),
             f"{name} must be a finite number, got {value!r}")
    return float(value)


def _pair(value, name):
    """Pair of finite numbers; JSON strings, booleans and NaN are refused."""
    _require(isinstance(value, (list, tuple)) and len(value) == 2
             and all(type(v) in (int, float) and math.isfinite(v) for v in value),
             f"{name} must be a pair of numbers, got {value!r}")
    return tuple(value)


def task_bounds(config, ws, args):
    params = config.get("params", {})
    eps_grid = params.get("eps_grid")
    if eps_grid is None:
        eps_grid = list(functionals.DEFAULT_EPS_GRID)
    _require(isinstance(eps_grid, list) and eps_grid,
             f"eps_grid must be a non-empty list of numbers, got {eps_grid!r}")
    interval = params.get("flatness_interval")
    if interval is not None:
        _pair(interval, "flatness_interval")
    report = functionals.compute_bounds_report(
        field_from_config(config["velocity"]),
        grid_n=_int_param(params, "grid_n", 512),
        eps_grid=eps_grid,
        flatness_interval=interval,
        j_points=_int_param(params, "j_points", 65),
    )
    ws.write_json("bounds.json", report.to_json_dict())
    return EXIT_OK


def task_spectrum(config, ws, args):
    field = field_from_config(config["velocity"])
    params = config.get("params", {})
    op = make_operator(field, k=_int_param(params, "k", 1),
                       boundary=params.get("boundary", "periodic"),
                       n=_int_param(params, "n", 256),
                       discretization=params.get("discretization"))
    summary = resolvent_gap(op, s_points=_int_param(params, "s_points", 192))
    ws.write_json("spectral_summary.json", summary.to_json_dict())
    ws.write_text("sweep.csv", summary.sweep_csv())
    return EXIT_OK


def task_evolve(config, ws, args):
    field = field_from_config(config["velocity"])
    params = config.get("params", {})
    _require(field.periodic, "evolve needs a torus velocity field")
    ny = _int_param(params, "ny", 17)
    t_end = _float_param(params, "t_end", 10.0)
    k_max = _int_param(params, "k_max", None)
    u0 = evolve.initial_samples(params.get("initial", "cos_y"), _int_param(params, "nx", 64),
                                ny, _seeded(config, args))
    fld = evolve.field_from_samples(u0, k_max=k_max)  # rejects a ny that aliases k_max
    evo = evolve.Evolution(field)  # one operator per mode for the trace and the snapshots
    n_snapshots = _int_param(params, "snapshots", 0)
    snapshots = evo.trajectory(fld, t_end, n_snapshots) if n_snapshots else ()  # 0: none
    trace = evolve.relax_trace(u0, field, t_end=t_end, n_samples=_int_param(params, "samples", 33),
                               k_max=k_max, evolution=evo)
    ws.write_text("decay.csv", trace.decay_csv())
    for i, (t, state) in enumerate(snapshots):
        name = f"field-{i:03d}.f64"
        evolve.save_snapshot(ws.out / name, evolve.field_to_samples(state, ny),
                             meta={"time": t})
        ws.record_file(name)
        ws.record_file(name + ".json")
    return EXIT_OK


def task_simulate(config, ws, args):
    field = field_from_config(config["velocity"])
    params = config.get("params", {})
    start = _pair(params.get("start", (0.0, 0.0)), "start")
    kill = params.get("kill_interval")
    if kill is not None:
        kill = _pair(kill, "kill_interval")
    cfg = mcsim.PathConfig(  # PathConfig checks the ranges; simulate, the field and kill_interval
        dt=_float_param(params, "dt", 1e-3),
        n_paths=_int_param(params, "n_paths", 100_000),
        t_end=_float_param(params, "t_end", 1.0),
        seed=_seeded(config, args),
        y_integrator=params.get("y_integrator", "left"),
        bins=_int_param(params, "bins", 32),
        workers=args.workers,
    )
    hist = mcsim.simulate(start, field, cfg, kill_interval=kill)
    ws.write_text("histogram.csv", hist.histogram_csv())
    ws.write_json("histogram-meta.json", hist.metadata())
    return EXIT_OK


def task_validate(config, ws, args):
    params = config.get("params", {})
    ids = params.get("criteria")
    known = [cid for cid, _, _ in validation.CRITERIA]
    _require(ids is None or (isinstance(ids, list) and ids
                             and all(type(i) is int and i in known for i in ids)),
             f"criteria must be a non-empty list of ids from {known}, got {ids!r}")
    results = validation.run_all(ids=ids, progress=print, workers=args.workers)
    # artifacts must regenerate bit-identically, so timings stay on stdout
    lines = [r.status() for r in results]
    payload = [
        {"criterion": r.cid, "name": r.name, "passed": r.passed,
         "details": _jsonable(r.details)}
        for r in results
    ]
    ws.write_json("validation.json", payload)
    ws.write_text("validation.txt", "\n".join(lines) + "\n")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_VALIDATION


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def task_report(config, ws, args):
    """Summarize whatever artifacts previous tasks left in the directory."""
    summary = []
    missing = []
    bounds_path = ws.out / "bounds.json"
    if bounds_path.exists():
        bounds = json.loads(bounds_path.read_text())
        summary.append("bounds report")
        for key in ("oscillation", "lip_correlation", "l2_mixing_rate",
                    "residual_mixing_rate", "gap_bound_correlation_periodic",
                    "plateau_time", "plateau_mass_log",
                    "flatness_time", "flatness_mass_log",
                    "doeblin_rho", "doeblin_rho_log"):
            summary.append(f"  {key:36s} {bounds.get(key)}")
    else:
        missing.append("bounds.json")
    spectral_path = ws.out / "spectral_summary.json"
    if spectral_path.exists():
        spectrum = json.loads(spectral_path.read_text())
        summary.append("spectral summary")
        summary.append(f"  {'r_lambda1':36s} {spectrum['r_lambda1']}")
        summary.append(f"  {'s_argmin':36s} {spectrum['s_argmin']}")
        refs = {"sigma_min_gap": spectrum["r_lambda1"]}
        meta = spectrum.get("meta", {})
        comparable = meta.get("boundary") == "periodic" and meta.get("k", 0) >= 1
        if bounds_path.exists() and comparable:
            # for periodic modes k >= 1 the mode gap dominates the k = 1
            # correlation bound (the bound only improves with the mode index)
            bounds = json.loads(bounds_path.read_text())
            ref = bounds["gap_bound_correlation_periodic"]
            refs["gap_bound_correlation_periodic"] = ref
            gap_table = bounds.get("gap_bound_residual_table", {})
            if gap_table:
                refs["gap_bound_residual_max"] = max(gap_table.values())
            ordered = spectrum["r_lambda1"] >= ref - 1e-8
            summary.append(f"  gap >= correlation bound: {'PASS' if ordered else 'FAIL'}"
                           f" ({spectrum['r_lambda1']:.3e} vs {ref:.3e})")
        ws.write_json("spectrum-references.json", refs)
    else:
        missing.append("spectral_summary.json")
    decay_path = ws.out / "decay.csv"
    if decay_path.exists():
        rows = decay_path.read_text().strip().splitlines()[1:]
        flags = [row.split(",")[3] for row in rows]
        bad = sum(1 for f in flags if f == "1")
        summary.append("decay trace")
        summary.append(f"  samples: {len(rows)}, envelope violations: {bad}")
    else:
        missing.append("decay.csv")
    if not summary:
        print("warning: no artifacts found to report on")
        ws.write_text("report.txt", "no artifacts found\n")
        return EXIT_OK
    if missing:
        summary.append("missing inputs: " + ", ".join(missing))
    text = "\n".join(summary) + "\n"
    print(text, end="")
    ws.write_text("report.txt", text)
    return EXIT_OK


# task: (runner, the keys its params block takes)
_TASKS = {
    "bounds": (task_bounds, {"grid_n", "eps_grid", "flatness_interval", "j_points"}),
    "spectrum": (task_spectrum, {"k", "boundary", "n", "s_points", "discretization"}),
    "evolve": (task_evolve, {"t_end", "samples", "k_max", "nx", "ny", "initial",
                             "snapshots"}),
    "simulate": (task_simulate, {"start", "t_end", "dt", "n_paths", "bins",
                                 "y_integrator", "kill_interval"}),
    "validate": (task_validate, {"criteria"}),
    "report": (task_report, set()),
}


def main(argv=None):
    parser = _Parser(
        prog="shearmix",
        description="mixing bounds and validation for diffusion with shear transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in _TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=task in _FIELD_TASKS,
                       help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=2 if task == "validate" else 1,
                       help="Monte Carlo worker count of simulate (default 1) and "
                            "validate (default 2)")
    try:
        args = parser.parse_args(argv)
        _require(args.workers >= 1, f"--workers must be at least 1, got {args.workers}")
        if args.config is not None:
            config = load_config(args.config)
            if config["task"] != args.command:
                raise ValueError(f"config task {config['task']!r} does not match "
                                 f"subcommand {args.command!r}")
        else:
            config = {"task": args.command, "params": {}}
        ws = Workspace(args.out or config.get("out_dir") or "shearmix-out", config)
        status = _TASKS[args.command][0](config, ws, args)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        # first: LinAlgError is a ValueError
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:  # the config, the command line or a library call refused a value
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    ws.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
