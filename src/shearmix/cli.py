"""Config-driven command line for bounds, spectra, evolution and simulation.

Every run reads one JSON config, writes its artifacts into an output
directory, and finishes with a manifest listing each artifact with its
SHA-256 digest, so any artifact can be regenerated bit-identically from the
config alone.  The manifest keeps, under `earlier`, the config and artifacts
of each other task run into the same directory.

Config schema (unknown keys anywhere are rejected)::

    {
      "task": "bounds" | "spectrum" | "evolve" | "simulate" | "validate" | "report",
      "velocity": { "kind": ..., ... },     # required except for validate/report
      "seed": 0,                            # optional integer, default 0,
                                            # overridden by --seed
      "out_dir": "out",                     # optional, overridden by --out
      "params": { ... task-specific ... }
    }

Velocity kinds and their parameters:

    piecewise_constant: breakpoints [x0=domain start, ...], values, domain?
    piecewise_linear:   knots, values, domain?
    grid:               samples, domain?
    sine:               amplitude?, frequency?, phase?
    sawtooth:           amplitude?
    heaviside:          high?, low?
    binary_cascade:     c?, tail_tol?

A `?` marks an optional parameter, which takes its constructor's default.
The constructor decides the keys and the values: an unknown or missing key,
or a value it refuses, is a config error.  `domain` is "torus" (default) or
[a, b].  Only `spectrum` takes a field on [a, b]; `bounds`, `evolve` and
`simulate` need a torus field.

Task parameter blocks (all optional, with defaults):

    bounds:   grid_n, eps_grid (non-empty list of numbers), flatness_interval
              ([lo, hi]), j_points
    spectrum: k = 1, boundary, n, s_points, discretization
    evolve:   t_end = 10.0, samples = 33, k_max, nx = 64, ny = 17,
              initial = "cos_y" ("cos_y" | "cos_xy" | "random"),
              snapshots = 0 (count of field dumps)
    simulate: start = [0, 0] ([x, y]), t_end = 1.0, dt = 0.001,
              n_paths = 100000, bins, y_integrator, kill_interval ([lo, hi])
    validate: criteria (non-empty list of known criterion ids 1-11, default all)
    report:   (none; reads artifacts already in the output directory)

A default written here, like the seed's, is the CLI's own: no library call
has one.  A key that is absent or null is not passed on, so every other
default is the library's.  The CLI checks JSON types only (integers or
integral numbers such as 64.0; finite numbers, not strings or booleans, for
t_end, dt and the pairs), and the library states every range.  Exit codes: 0
success, 1 configuration error (a malformed command line or a value that a
library call refuses with a ValueError), 2 validation-suite failure
(`validate` only), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import _checks, evolve, functionals, mcsim, validation
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


def load_config(path):
    """The config at `path`, its velocity field or None, and its typed non-null params."""
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
    task = _checks.choice(raw.get("task"), "task", tuple(_TASKS))
    _, types, takes_field = _TASKS[task]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    extra = set(params) - set(types)
    if extra:
        raise ValueError(f"unknown params for task {task!r}: {sorted(extra)}")
    field = None
    if takes_field:
        if "velocity" not in raw:
            raise ValueError(f"task {task!r} needs a velocity description")
        try:
            field = field_from_config(raw["velocity"])
        except ValueError as err:
            raise ValueError(f"bad velocity description: {err}") from err
    return raw, field, {name: _typed(name, params[name], kind)
                        for name, kind in types.items() if params.get(name) is not None}


class Workspace:
    """Output directory plus the manifest of artifacts written into it."""

    def __init__(self, out_dir, config):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.artifacts = []

    def write_text(self, name, text):
        (self.out / name).write_text(text)
        self.record_file(name)

    def write_json(self, name, payload):
        self.write_text(name, _dumps(payload))

    def record_file(self, name):
        """Record a file of the directory, as it is on disk, with its size and digest."""
        blob = (self.out / name).read_bytes()
        self.artifacts.append({
            "name": name,
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        })

    def finish(self):
        """Write manifest.json: this run's config and artifacts, and under `earlier` the
        last record of each other task that wrote into the directory."""
        path = self.out / "manifest.json"
        earlier = _task_records(path)
        earlier.pop(self.config["task"], None)
        manifest = {"config": self.config, "artifacts": self.artifacts}
        if earlier:
            manifest["earlier"] = earlier
        path.write_text(_dumps(manifest))


def _task_records(path):
    """{task: {"config", "artifacts"}} of each task in the manifest at `path`; {} when
    there is none, or it is no JSON or of another layout, so that it is replaced."""
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):  # a JSONDecodeError or a UnicodeDecodeError
        return {}
    if not (isinstance(old, dict) and isinstance(old.get("earlier", {}), dict)):
        return {}
    records = [*old.pop("earlier", {}).values(), old]
    if not all(isinstance(r, dict) and set(r) == {"config", "artifacts"}
               and isinstance(r["config"], dict) and isinstance(r["config"].get("task"), str)
               and isinstance(r["artifacts"], list) for r in records):
        return {}
    return {r["config"]["task"]: r for r in records}


def _jsonable(obj):
    """`obj` as JSON values: tuples and arrays as lists, numpy scalars as Python's,
    and every dict key as its `str`, which reads a float key back to the same float."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _dumps(payload):
    """The text of a JSON artifact: `payload` through `_jsonable`, indented, keys sorted."""
    return json.dumps(_jsonable(payload), indent=1, sort_keys=True) + "\n"


def _require(ok, message):
    if not ok:
        raise ValueError(message)


# a JSON type of a parameter: (test, what a refused value must be, conversion)
_JSON_TYPES = {
    "integer": (lambda v: type(v) is int or (type(v) is float and v.is_integer()),
                "an integer", int),
    "number": (_checks.finite, "a finite number", float),  # not a string or a boolean
    "pair": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_checks.finite, v)),
             "a pair of numbers", list),
    "list": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list of numbers", list),
    "any": (lambda v: True, None, lambda v: v),  # for the library call to check
}


def _typed(name, value, kind):
    """`value` converted for the library call, if of the JSON type `kind`."""
    test, what, convert = _JSON_TYPES[kind]
    _require(test(value), f"{name} must be {what}, got {value!r}")
    return convert(value)


def _given(values, *names):
    """The entries of `values` among `names` that are not None, as keywords."""
    return {name: values[name] for name in names if values.get(name) is not None}


def _seeded(config, args):
    """The run seed: --seed, else the config's; an integer, null meaning 0."""
    seed = config.get("seed") if args.seed is None else args.seed
    return 0 if seed is None else _typed("seed", seed, "integer")


def task_bounds(field, params, ws, args):
    report = functionals.compute_bounds_report(field, **params)
    ws.write_json("bounds.json", vars(report))
    return EXIT_OK


def task_spectrum(field, params, ws, args):
    op = make_operator(field, params.get("k", 1),
                       **_given(params, "boundary", "n", "discretization"))
    summary = resolvent_gap(op, **_given(params, "s_points"))
    ws.write_json("spectral_summary.json",
                  {key: value for key, value in vars(summary).items() if key != "trace"})
    ws.write_text("sweep.csv", summary.sweep_csv())
    return EXIT_OK


def task_evolve(field, params, ws, args):
    t_end, ny, k_max = params.get("t_end", 10.0), params.get("ny", 17), _given(params, "k_max")
    u0 = evolve.initial_samples(params.get("initial", "cos_y"), params.get("nx", 64), ny,
                                _seeded(ws.config, args))
    fld = evolve.field_from_samples(u0, **k_max)  # rejects a ny that aliases k_max
    evo = evolve.Evolution(field)  # one operator per mode for the trace and the snapshots
    n_snapshots = params.get("snapshots", 0)
    snapshots = evo.trajectory(fld, t_end, n_snapshots) if n_snapshots else ()  # 0: none
    trace = evolve.relax_trace(u0, field, t_end=t_end, n_samples=params.get("samples", 33),
                               evolution=evo, **k_max)
    ws.write_text("decay.csv", trace.decay_csv())
    for i, (t, state) in enumerate(snapshots):
        name = f"field-{i:03d}.f64"
        evolve.save_snapshot(ws.out / name, evolve.field_to_samples(state, ny),
                             meta={"time": t})
        ws.record_file(name)
        ws.record_file(name + ".json")
    return EXIT_OK


def task_simulate(field, params, ws, args):
    cfg = mcsim.PathConfig(  # PathConfig checks the ranges; simulate, the field and kill_interval
        dt=params.get("dt", 1e-3),
        n_paths=params.get("n_paths", 100_000),
        t_end=params.get("t_end", 1.0),
        seed=_seeded(ws.config, args),
        **_given(params, "y_integrator", "bins"),
        **_given(vars(args), "workers"),
    )
    hist = mcsim.simulate(params.get("start", (0.0, 0.0)), field, cfg,
                          **_given(params, "kill_interval"))
    ws.write_text("histogram.csv", hist.histogram_csv())
    ws.write_json("histogram-meta.json", hist.metadata())
    return EXIT_OK


def task_validate(field, params, ws, args):
    results = validation.run_all(ids=params.get("criteria"), progress=print,
                                 **_given(vars(args), "workers"))
    # artifacts must regenerate bit-identically, so timings stay on stdout
    lines = [r.status() for r in results]
    ws.write_json("validation.json", [
        {"criterion": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ])
    ws.write_text("validation.txt", "\n".join(lines) + "\n")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_VALIDATION


def task_report(field, params, ws, args):
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
        meta = spectrum.get("meta", {})
        comparable = meta.get("boundary") == "periodic" and meta.get("k", 0) >= 1
        if bounds_path.exists() and comparable:
            # for periodic modes k >= 1 the mode gap dominates the k = 1
            # correlation bound (the bound only improves with the mode index)
            ref = bounds["gap_bound_correlation_periodic"]
            ordered = spectrum["r_lambda1"] >= ref - 1e-8
            summary.append(f"  gap >= correlation bound: {'PASS' if ordered else 'FAIL'}"
                           f" ({spectrum['r_lambda1']:.3e} vs {ref:.3e})")
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


# task: (runner, the JSON type of each key its params block takes, in the order
# they are checked, and whether the task runs on the config's velocity field)
_TASKS = {
    "bounds": (task_bounds, {"eps_grid": "list", "flatness_interval": "pair",
                             "grid_n": "integer", "j_points": "integer"}, True),
    "spectrum": (task_spectrum, {"k": "integer", "boundary": "any", "n": "integer",
                                 "discretization": "any", "s_points": "integer"}, True),
    "evolve": (task_evolve, {"ny": "integer", "t_end": "number", "k_max": "integer",
                             "initial": "any", "nx": "integer", "snapshots": "integer",
                             "samples": "integer"}, True),
    "simulate": (task_simulate, {"start": "pair", "kill_interval": "pair", "dt": "number",
                                 "n_paths": "integer", "t_end": "number",
                                 "y_integrator": "any", "bins": "integer"}, True),
    "validate": (task_validate, {"criteria": "list"}, False),
    "report": (task_report, {}, False),
}


def main(argv=None):
    parser = _Parser(
        prog="shearmix",
        description="mixing bounds and validation for diffusion with shear transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in _TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=_TASKS[task][2],
                       help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, help="Monte Carlo worker count of simulate "
                       "and validate (default: the library's, 1 and 2)")
    try:
        args = parser.parse_args(argv)
        _require(args.workers is None or args.workers >= 1,
                 f"--workers must be at least 1, got {args.workers}")
        if args.config is not None:
            config, field, params = load_config(args.config)
            if config["task"] != args.command:
                raise ValueError(f"config task {config['task']!r} does not match "
                                 f"subcommand {args.command!r}")
        else:
            config, field, params = {"task": args.command, "params": {}}, None, {}
        ws = Workspace(args.out or config.get("out_dir") or "shearmix-out", config)
        status = _TASKS[args.command][0](field, params, ws, args)
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
