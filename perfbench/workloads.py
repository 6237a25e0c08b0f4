"""Job lists of the four benchmark workloads.

A job is one CLI task run in-process through ``shearmix.cli.main`` on a
generated config or, where the CLI has no task for the call, one public
library call.  Every job has a timed part (``call``), an untimed part that
turns what it produced into canonical bytes (``output``) and a correctness
check on those outputs (``check``), so a failed job is one that raised,
exited nonzero, or produced wrong numbers.

Fixed battery fields stay fixed and are checked against stored reference
values (``references.json``, rebuilt by ``make_references.py``).  Seeded
inputs (random grid samples, piecewise-linear knots, Monte Carlo seeds and
starts, random initial data) come from the workload seed and are checked
against invariants.  The program only ever receives the generated configs.

Each workload has a full and a tiny size.  The tiny jobs serve as the
warm-up jobs of the timed run (one per job kind) and as the smoke test.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from shearmix import cli, evolve, functionals, kernels, mcsim, spectral
from shearmix.velocity import field_from_config

WORKLOADS = ("bounds", "spectrum", "evolve", "montecarlo")

REFERENCES = Path(__file__).resolve().parent / "references.json"

BATTERY = {
    "cos": {"kind": "sine", "amplitude": 1.0, "frequency": 1, "phase": math.pi / 2.0},
    "sawtooth": {"kind": "sawtooth", "amplitude": 1.0},
    "two_plateau": {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5],
                    "values": [0.0, 1.0]},
    "cascade": {"kind": "binary_cascade", "c": 1.0},
}

T_PLATEAU = 1.4375  # plateau time of the two-plateau battery field
C10_STARTS = [((2 * i + 1) / 16.0, ((6 * i + 3) % 16) / 16.0) for i in range(8)]
MC_WORKERS = 2  # the reference host has two cores; mcsim never gets more
KILL_INTERVAL = (0.25, 0.75)
KILL_T = 0.05

# relative tolerances of the reference comparisons (ROADMAP items 5 and 2)
BOUNDS_RTOL = 1e-12
GAP_RTOL = 1e-10


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


@dataclass
class Job:
    name: str
    kind: str
    call: Callable[[], object]
    output: Callable[[object], tuple]  # result -> (canonical bytes, payload)
    check: Callable[[object], None]  # payload -> None, raises CheckFailed
    facts: dict = dc_field(default_factory=dict)


def _require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# reference values and canonical outputs


def bounds_key(field_name, params):
    return f"bounds/{field_name}/grid{params['grid_n']}/j{params['j_points']}"


def gap_key(field_name, k, boundary, n, s_points):
    return f"gap/{field_name}/k{k}/{boundary}/n{n}/s{s_points}"


@functools.cache
def _references():
    return json.loads(REFERENCES.read_text())


def reference(key):
    if key not in _references():
        raise CheckFailed(f"no stored reference {key}; rerun make_references.py")
    return _references()[key]


def close(got, want, rtol, path="value"):
    """Raise CheckFailed unless got equals want within rtol, recursively."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and set(got) == set(want), f"{path}: keys differ")
        for key in want:
            close(got[key], want[key], rtol, f"{path}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{path}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            close(g, w, rtol, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        ok = got == want or abs(got - want) <= rtol * max(abs(got), abs(want))
        _require(ok, f"{path}: {got!r} vs reference {want!r}")
    else:
        _require(got == want, f"{path}: {got!r} vs reference {want!r}")


def digest_of(obj):
    """Canonical bytes of a library result: exact floats, raw array bytes."""
    out = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            out.update(f"a{x.dtype.str}{x.shape}".encode())
            out.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (bool, np.bool_)):
            out.update(b"T" if x else b"F")
        elif isinstance(x, (int, np.integer)):
            out.update(f"i{int(x)};".encode())
        elif isinstance(x, (float, np.floating)):
            out.update(b"f" + struct.pack("<d", float(x)))
        elif isinstance(x, str):
            out.update(f"s{len(x)}:{x}".encode())
        elif isinstance(x, dict):
            out.update(f"d{len(x)}".encode())
            for key in sorted(x, key=repr):
                feed(repr(key))
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            out.update(f"l{len(x)}".encode())
            for item in x:
                feed(item)
        elif x is None:
            out.update(b"N")
        elif hasattr(x, "__dict__"):
            feed(type(x).__name__)
            feed(vars(x))
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(obj)
    return out.digest()


def path_steps(cfg):
    """Path-steps one simulation of cfg performs (mcsim's own step count)."""
    return cfg.n_paths * max(1, int(round(cfg.t_end / cfg.dt)))


# ---------------------------------------------------------------------------
# job constructors


class Inputs:
    """Where generated configs go, and the seeded random stream."""

    def __init__(self, workdir, seed, workload):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])

    def grid_field(self, cells=16):
        return {"kind": "grid", "samples": self.rng.uniform(-1.0, 1.0, cells).tolist()}

    def linear_field(self, knots=8):
        inner = np.sort(self.rng.uniform(0.02, 0.98, knots - 1))
        return {"kind": "piecewise_linear", "knots": [0.0] + inner.tolist(),
                "values": self.rng.uniform(-1.0, 1.0, knots).tolist()}

    def mc_seed(self):
        return int(self.rng.integers(0, 2**31))

    def start(self):
        return [float(v) for v in self.rng.uniform(0.0, 1.0, 2)]


def cli_job(inputs, name, kind, config, check, workers=1, facts=None):
    slug = name.replace("/", "-")
    cfg_path = inputs.dir / f"{slug}.json"
    cfg_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    out = inputs.dir / slug
    argv = [config["task"], "--config", str(cfg_path), "--out", str(out),
            "--workers", str(workers)]

    def call():
        return cli.main(argv)

    def output(status):
        if status != cli.EXIT_OK:
            raise CheckFailed(f"exit status {status}")
        manifest = (out / "manifest.json").read_bytes()
        return manifest, out

    facts = dict(facts or {})
    facts.update(cli=True, out=out, config=config)
    return Job(name, kind, call, output, check, facts)


def lib_job(name, kind, call, check, facts=None):
    def output(result):
        return digest_of(result), result

    return Job(name, kind, call, output, check, dict(facts or {}))


# ---------------------------------------------------------------------------
# bounds: the affine-window scans and the correlation LP


def _bounds_reference_check(key):
    def check(out):
        got = json.loads((out / "bounds.json").read_text())
        close(got, reference(key), BOUNDS_RTOL, key)
    return check


def doeblin_underflowed(report):
    """True when the plateau-route C - 1 is stored as the 0.0 its mass rounds to.

    The plateau mass exp(plateau_mass_log) is below the smallest double once
    the log mass is under about -745, which a plateau of length 1/16 always
    reaches; compute_bounds_report then stores C - 1 = 0.0, the correctly
    rounded value, while BoundsReport.validate still asserts C - 1 > 0 on
    this route.  The tracing layer counts these reports as
    ``functionals.doeblin_underflows``.
    """
    return (report.plateau_time is not None and report.doeblin_c_minus_one == 0.0
            and report.plateau_mass_log is not None
            and math.exp(report.plateau_mass_log) == 0.0)


def validate_report(report):
    """BoundsReport.validate, with C - 1 > 0 certified in log space on underflow.

    validate's own comment says positivity is certified in log space when the
    mass underflows; on an underflowed plateau report that certificate is
    checked here in place of its ``C - 1 > 0`` assertion, and every other
    assertion of validate still runs.
    """
    if not doeblin_underflowed(report):
        report.validate()
        return
    replace(report, doeblin_c_minus_one=None).validate()
    rho_log = report.plateau_mass_log - math.log(report.plateau_time)
    assert math.isfinite(report.plateau_mass_log)
    assert report.doeblin_rho_log is not None and math.isfinite(report.doeblin_rho_log)
    assert abs(report.doeblin_rho_log - rho_log) <= 1e-12 * abs(rho_log)
    assert report.doeblin_c == 1.0 and report.doeblin_rho == 0.0


def _bounds_invariant_check(out):
    got = json.loads((out / "bounds.json").read_text())
    try:
        validate_report(functionals.BoundsReport(**got))
    except AssertionError as err:
        raise CheckFailed(f"BoundsReport.validate failed: {err}") from err
    table = sorted((float(eps), res) for eps, res in got["affine_residual_table"].items())
    residuals = [res for _, res in table]
    _require(all(b >= a for a, b in zip(residuals, residuals[1:])),
             f"residual table decreases in eps: {table}")


def bounds_jobs(inputs, tiny):
    params = {"grid_n": 64, "j_points": 17} if tiny else {"grid_n": 512, "j_points": 65}
    jobs = []
    for name, velocity in BATTERY.items():
        key = bounds_key(name, params)
        config = {"task": "bounds", "velocity": velocity, "params": params}
        jobs.append(cli_job(inputs, f"bounds/{name}", "cli.bounds", config,
                            _bounds_reference_check(key), facts={"ref": key}))
    for name, velocity in (("grid", inputs.grid_field()),
                           ("piecewise_linear", inputs.linear_field())):
        config = {"task": "bounds", "velocity": velocity, "params": params}
        jobs.append(cli_job(inputs, f"bounds/{name}", "cli.bounds", config,
                            _bounds_invariant_check))
    return jobs


# ---------------------------------------------------------------------------
# spectrum: dense sigma_min sweeps


def _gap_reference_check(key):
    def check(out):
        got = json.loads((out / "spectral_summary.json").read_text())
        close(got["r_lambda1"], reference(key), GAP_RTOL, key)
    return check


def _gap_dominates_bound_check(velocity):
    bound = []

    def check(out):
        got = json.loads((out / "spectral_summary.json").read_text())
        if not bound:
            field = field_from_config(velocity)
            corr = functionals.lipschitz_correlation(field, grid_n=512)
            bound.append(functionals.gap_bound_from_correlation(
                corr, field.oscillation(), 1.0, periodic_improved=True))
        _require(got["r_lambda1"] >= bound[0] - 1e-8,
                 f"r_lambda1 {got['r_lambda1']} below gap_bound_correlation_periodic "
                 f"{bound[0]}")
    return check


def spectrum_jobs(inputs, tiny):
    s_points = 64 if tiny else 192
    small, large = (32, 48) if tiny else (128, 256)
    # (field, k, boundary, n): every battery field, both boundaries, k = 1 and 2,
    # one job at the larger size; cos keeps the dense collocation path
    battery = [("cos", 1, "periodic", small), ("two_plateau", 1, "periodic", small),
               ("two_plateau", 2, "periodic", small), ("sawtooth", 2, "dirichlet", small),
               ("cascade", 1, "dirichlet", small), ("cascade", 1, "periodic", large)]
    jobs = []
    for name, k, boundary, n in battery:
        key = gap_key(name, k, boundary, n, s_points)
        params = {"k": k, "boundary": boundary, "n": n, "s_points": s_points}
        config = {"task": "spectrum", "velocity": BATTERY[name], "params": params}
        jobs.append(cli_job(inputs, f"spectrum/{name}-k{k}-{boundary}-n{n}", "cli.spectrum",
                            config, _gap_reference_check(key),
                            facts={"ref": key}))
    velocity = inputs.grid_field()
    params = {"k": 1, "boundary": "periodic", "n": small, "s_points": s_points}
    config = {"task": "spectrum", "velocity": velocity, "params": params}
    jobs.append(cli_job(inputs, f"spectrum/grid-k1-periodic-n{small}", "cli.spectrum",
                        config, _gap_dominates_bound_check(velocity)))
    return jobs


# ---------------------------------------------------------------------------
# evolve: propagators, their cache and per-mode matvecs


def _envelope_check(out):
    rows = (out / "decay.csv").read_text().strip().splitlines()[1:]
    flags = [row.rsplit(",", 1)[1] for row in rows]
    _require(rows and all(f == "0" for f in flags),
             f"{flags.count('1')} envelope violations in decay.csv")


def _semigroup_check(name, k, n, s_points, times):
    key = gap_key(name, k, "periodic", n, s_points)
    cap = math.e ** (math.pi / 2.0) * (1.0 + 1e-4)

    def check(norms):
        op = spectral.make_operator(field_from_config(BATTERY[name]), k, n=n)
        gap = op.lambda1_discrete + reference(key)
        ratio = float(np.max(norms * np.exp(gap * times)))
        _require(ratio <= cap, f"semigroup ratio {ratio} above e^(pi/2)(1+1e-4)")
    return check


def _strip_check(trace):
    mass = trace.mass
    _require(np.all(np.diff(mass) <= 1e-12 * np.abs(mass[:-1])),
             f"strip mass increases: {mass.tolist()}")


def evolve_jobs(inputs, tiny):
    ny, samples, snapshots = (5, 5, 2) if tiny else (9, 17, 3)
    sizes = (16, 16, 16) if tiny else (64, 128, 256)
    seed = inputs.mc_seed()
    runs = [("cos", "cos_y", sizes[0]), ("two_plateau", "cos_xy", sizes[1]),
            ("sawtooth", "random", sizes[2])]
    jobs = []
    for name, initial, nx in runs:
        params = {"nx": nx, "ny": ny, "t_end": 2.0, "samples": samples,
                  "initial": initial, "snapshots": snapshots}
        config = {"task": "evolve", "velocity": BATTERY[name], "seed": seed,
                  "params": params}
        jobs.append(cli_job(inputs, f"evolve/{name}-{initial}-nx{nx}", "cli.evolve",
                            config, _envelope_check))

    # semigroup norms of battery operators; the c5 check uses the stored gaps
    n, s_points = (32, 64) if tiny else (128, 192)
    times = np.geomspace(1e-2, 50.0 / (4.0 * math.pi**2), 4 if tiny else 10)
    for name in ("two_plateau", "cos"):
        def call(name=name):
            op = spectral.make_operator(field_from_config(BATTERY[name]), 1, n=n)
            return spectral.semigroup_norm(op, times)
        jobs.append(lib_job(f"evolve/semigroup-{name}-n{n}", "lib.semigroup_norm", call,
                            _semigroup_check(name, 1, n, s_points, times),
                            facts={"expm": int(np.count_nonzero(times))}))

    # absorbing strip under the two-plateau field, seeded positive data
    nx = 16 if tiny else 128
    nu0 = 1.0 + inputs.rng.uniform(0.0, 1.0, (nx, ny))

    def strip():
        return evolve.strip_trace(nu0, field_from_config(BATTERY["two_plateau"]),
                                  KILL_INTERVAL, t_end=0.5, n_samples=9 if tiny else 17)
    jobs.append(lib_job(f"evolve/strip-nx{nx}", "lib.strip_trace", strip, _strip_check))
    return jobs


# ---------------------------------------------------------------------------
# montecarlo: path stepping


def _histogram_check(out):
    meta = json.loads((out / "histogram-meta.json").read_text())
    rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
    total = sum(int(row.rsplit(",", 1)[1]) for row in rows)
    _require(total + meta["n_absorbed"] == meta["n_paths"],
             f"counts {total} + absorbed {meta['n_absorbed']} != {meta['n_paths']}")


def _same_histogram_check(other_out):
    def check(out):
        _histogram_check(out)
        mine = (out / "histogram.csv").read_bytes()
        _require(mine == (other_out / "histogram.csv").read_bytes(),
                 "histograms differ between workers=1 and workers=2")
    return check


def _hist_sums(hists):
    for h in hists:
        _require(int(h.counts.sum()) + h.n_absorbed == h.n_paths,
                 f"counts + absorbed != n_paths from start {h.start}")


def kill_survival_exact():
    """Closed-form survival in KILL_INTERVAL from its midpoint at KILL_T."""
    a, b = KILL_INTERVAL
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    dens = kernels.heat_dirichlet(x, 0.5 * (a + b), KILL_INTERVAL, t=KILL_T)
    return float(0.5 * (b - a) * np.dot(weights, dens))


def montecarlo_jobs(inputs, tiny):
    paths = 2048 if tiny else 16384
    block = 1 << 10 if tiny else 1 << 13  # two blocks, so both workers run
    t_p = T_PLATEAU
    two_plateau = field_from_config(BATTERY["two_plateau"])
    jobs = []

    # criterion-10-shaped library calls on the two-plateau field
    cfg = mcsim.PathConfig(dt=2e-2 if tiny else 4e-3, n_paths=paths, t_end=t_p,
                           seed=inputs.mc_seed(), bins=8, block_size=block,
                           workers=MC_WORKERS)

    def doeblin_check(est):
        # reduced path counts leave rare cells empty; the c10 gate on
        # alpha_hat needs its full million paths, so only invariants here
        _hist_sums(est.per_start)
        _require(len(est.per_start) == len(C10_STARTS), "a start is missing")
        _require(0.0 <= est.alpha_lower_confidence <= est.alpha_hat <= cfg.bins**2,
                 f"alpha bounds out of order: {est.alpha_lower_confidence}, {est.alpha_hat}")

    jobs.append(lib_job("montecarlo/doeblin", "lib.doeblin_estimate",
                        lambda: mcsim.doeblin_estimate(two_plateau, t_p, C10_STARTS, cfg),
                        doeblin_check,
                        facts={"path_steps": len(C10_STARTS) * path_steps(cfg),
                               "mc_class": "step"}))

    snap_cfg = cfg.replace(n_paths=paths // 2, t_end=4 * t_p, seed=inputs.mc_seed())
    snap_start = tuple(inputs.start())
    jobs.append(lib_job("montecarlo/snapshots", "lib.simulate_snapshots",
                        lambda: mcsim.simulate_snapshots(snap_start, two_plateau, snap_cfg,
                                                         [t_p, 2 * t_p, 4 * t_p]),
                        _hist_sums,
                        facts={"path_steps": path_steps(snap_cfg), "mc_class": "step"}))

    tv_cfg = cfg.replace(n_paths=paths // 2, seed=inputs.mc_seed())
    tv_times = [t_p, 1.5 * t_p, 2 * t_p, 3 * t_p]

    def tv_check(decay):
        _require(np.all((decay.tv >= 0.0) & (decay.tv <= 1.0)),
                 f"tv outside [0, 1]: {decay.tv}")

    jobs.append(lib_job("montecarlo/tv_decay", "lib.tv_decay",
                        lambda: mcsim.tv_decay(two_plateau, C10_STARTS[0], C10_STARTS[4],
                                               tv_times, tv_cfg),
                        tv_check,
                        facts={"path_steps": 2 * path_steps(tv_cfg.replace(t_end=3 * t_p)),
                               "mc_class": "step"}))

    # CLI simulate on step fields, a sine field and a killed run; the CLI
    # keeps the default 32768-path blocks, so two blocks need 65536 paths
    t_end, sim_paths = (0.05, 2 * paths) if tiny else (0.2, 4 * paths)
    sim = {"t_end": t_end, "dt": 1e-3, "n_paths": sim_paths, "bins": 16}
    sim_cfg = mcsim.PathConfig(dt=1e-3, n_paths=sim_paths, t_end=t_end)
    runs = [("two_plateau", BATTERY["two_plateau"], "left", "step"),
            ("heaviside", {"kind": "heaviside"}, "left", "step"),
            ("grid", inputs.grid_field(), "left", "step"),
            ("cascade", BATTERY["cascade"], "left", "step"),
            ("sine", {"kind": "sine", "amplitude": 1.0, "frequency": 2}, "trapezoid",
             "smooth")]
    for name, velocity, integrator, mc_class in runs:
        config = {"task": "simulate", "velocity": velocity, "seed": inputs.mc_seed(),
                  "params": dict(sim, start=inputs.start(), y_integrator=integrator)}
        jobs.append(cli_job(inputs, f"montecarlo/simulate-{name}", "cli.simulate", config,
                            _histogram_check, workers=MC_WORKERS,
                            facts={"path_steps": path_steps(sim_cfg), "mc_class": mc_class}))
    # the same two-plateau config again on one worker: bit-identical histograms
    w2 = jobs[-len(runs)]
    jobs.append(cli_job(inputs, "montecarlo/simulate-two_plateau-w1", "cli.simulate",
                        w2.facts["config"], _same_histogram_check(w2.facts["out"]),
                        workers=1,
                        facts={"path_steps": path_steps(sim_cfg), "mc_class": "step",
                               "pair_of": w2.name}))

    kill_paths = 8192 if tiny else 100_000
    kill = {"t_end": KILL_T, "dt": 1e-3, "n_paths": kill_paths, "bins": 8,
            "start": [0.5, inputs.start()[1]], "kill_interval": list(KILL_INTERVAL)}
    config = {"task": "simulate", "velocity": BATTERY["two_plateau"],
              "seed": inputs.mc_seed(), "params": kill}
    kill_cfg = mcsim.PathConfig(dt=1e-3, n_paths=kill_paths, t_end=KILL_T)
    jobs.append(cli_job(inputs, "montecarlo/simulate-killed", "cli.simulate", config,
                        _histogram_check, workers=MC_WORKERS,
                        facts={"path_steps": path_steps(kill_cfg), "mc_class": "step",
                               "killed": True}))

    # free-space shear against the explicit plane kernel
    plane_cfg = mcsim.PathConfig(dt=1e-2, n_paths=4 * paths, t_end=1.0,
                                 seed=inputs.mc_seed(), geometry="plane",
                                 block_size=2 * paths, workers=MC_WORKERS)

    def plane_check(res):
        _require(res.n_paths == plane_cfg.n_paths, "path count changed")
        rel = abs(res.var_x / res.var_x_expected - 1.0)
        _require(rel < (0.15 if tiny else 0.05), f"var_x off by {rel:.3f}")

    jobs.append(lib_job("montecarlo/plane", "lib.kolmogorov_experiment",
                        lambda: mcsim.kolmogorov_experiment(plane_cfg), plane_check,
                        facts={"path_steps": path_steps(plane_cfg), "mc_class": "plane"}))
    return jobs


_JOB_LISTS = {
    "bounds": bounds_jobs,
    "spectrum": spectrum_jobs,
    "evolve": evolve_jobs,
    "montecarlo": montecarlo_jobs,
}


def build(workload, seed, workdir, tiny=False):
    """The workload's fixed job list, inputs generated from the seed."""
    return _JOB_LISTS[workload](Inputs(workdir, seed, workload), tiny)
