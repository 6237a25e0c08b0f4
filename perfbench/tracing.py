"""Spans around the public calls of each shearmix layer, recorded from outside.

Only the traced run imports this module.  ``install`` wraps the public
functions and methods the per-layer metrics need, on the module that defines
each one and on every namespace that imported it by name, and returns a
function that puts the originals back.  Spans stay in memory as
``[name, start, end, parent, job, extra]`` rows and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

from shearmix import cli, evolve, functionals, kernels, mcsim, spectral, velocity

# (owner, attribute, span name); owners are modules or classes
TARGETS = [
    (velocity.Primitive, "affine_residual", "velocity.affine_residual"),
    (velocity.VelocityField, "find_plateau_pair", "velocity.find_plateau_pair"),
    (velocity, "estimate_flatness_constant", "velocity.estimate_flatness_constant"),
    (functionals, "estimate_flatness_constant", "velocity.estimate_flatness_constant"),
    (functionals, "min_affine_residual", "functionals.min_affine_residual"),
    (functionals, "lipschitz_correlation", "functionals.lipschitz_correlation"),
    (functionals, "compute_bounds_report", "functionals.compute_bounds_report"),
    (spectral, "make_operator", "spectral.make_operator"),
    (cli, "make_operator", "spectral.make_operator"),
    (evolve, "make_operator", "spectral.make_operator"),
    (spectral.ModeOperator, "matrix", "spectral.ModeOperator.matrix"),
    (spectral.ModeOperator, "laplacian", "spectral.ModeOperator.laplacian"),
    (spectral.ModeOperator, "propagator", "spectral.ModeOperator.propagator"),
    (spectral, "resolvent_gap", "spectral.resolvent_gap"),
    (cli, "resolvent_gap", "spectral.resolvent_gap"),
    (spectral, "semigroup_norm", "spectral.semigroup_norm"),
    (evolve.Evolution, "step", "evolve.Evolution.step"),
    (evolve, "relax_trace", "evolve.relax_trace"),
    (evolve, "strip_trace", "evolve.strip_trace"),
    (evolve, "field_from_samples", "evolve.field_from_samples"),
    (evolve, "field_to_samples", "evolve.field_to_samples"),
    (kernels, "kolmogorov_kernel", "kernels.kolmogorov_kernel"),
] + [(mcsim, fn, f"mcsim.{fn}") for fn in (
    "simulate", "simulate_snapshots", "doeblin_estimate", "tv_decay",
    "kolmogorov_experiment")]


def _extra(name, args):
    """Work facts a span carries: cache hits and mode matvecs."""
    if name == "spectral.ModeOperator.propagator":
        op, dt = args[0], args[1]
        return int(float(dt) in op._propagators)  # 1 = served from the cache
    if name == "evolve.Evolution.step":
        return 2 * args[1].k_max + 1
    return 0


class Tracer:
    """In-memory span recorder; spans outside a job are not recorded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def begin(self, name, extra=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, extra])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            self.begin(name, _extra(name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def install(self):
        """Wrap every target in place; returns the function that undoes it."""
        saved = []
        wrapped = {}
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            if original not in wrapped:
                wrapped[original] = self.wrap(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[original])

        def uninstall():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return uninstall

    def write_csv(self, path):
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,job,extra\n")
            for name, start, end, parent, job, extra in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{job},{extra}\n")


class SpanTable:
    """Queries over recorded spans: totals, self time and group time."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def named(self, *names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def total(self, *names):
        return sum(self.duration(i) for i in self.named(*names))

    def count(self, *names):
        return len(self.named(*names))

    def self_time(self, i):
        """Duration minus the time of the direct children."""
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def group_time(self, *names):
        """Time inside any span of the group, nested group spans counted once."""
        out = 0.0
        for i in self.named(*names):
            parent = self.spans[i][3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out += self.duration(i)
        return out

    def extra_sum(self, *names):
        return sum(self.spans[i][5] for i in self.named(*names))

    def by_job(self, job, *names):
        return [i for i in self.named(*names) if self.spans[i][4] == job]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run

AR = "velocity.affine_residual"
MC_CALLS = ("mcsim.simulate", "mcsim.simulate_snapshots", "mcsim.doeblin_estimate",
            "mcsim.tv_decay", "mcsim.kolmogorov_experiment")
OPERATOR_BUILD = ("spectral.make_operator", "spectral.ModeOperator.matrix",
                  "spectral.ModeOperator.laplacian")


def _ratio(num, den):
    return num / den if den else 0.0


def _sweep_facts(job):
    """(swept points, useful points, extensions, warned, certified) of a spectrum job."""
    out, params = job.facts["out"], job.facts["config"]["params"]
    meta = json.loads((out / "spectral_summary.json").read_text())["meta"]
    trace = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    n, k = params["n"], params["k"]
    if params["boundary"] == "periodic":
        nodes = np.arange(n) / n
    else:
        nodes = np.arange(1, n + 1) / (n + 1)
    field = velocity.field_from_config(job.facts["config"]["velocity"])
    w = 2.0 * np.pi * k * field(nodes)
    lo, hi, vals = trace[0, 0], trace[-1, 0], trace[:, 1]
    low = vals.min()
    certified = (min(w.min() - lo, hi - w.max()) > low and vals[0] > low and vals[-1] > low)
    ext = meta["window_extensions"]
    return (meta["s_points"] * (1 + ext), meta["s_points"], ext,
            int(meta["refinement_warning"]), bool(certified))


def _artifact_bytes(job):
    manifest = json.loads((job.facts["out"] / "manifest.json").read_text())
    return sum(a["bytes"] for a in manifest["artifacts"])


def layer_metrics(table, jobs, traced, passes):
    """Per-pass layer metrics, as {name: (value, unit)}.

    Times and counts are totals over the traced passes divided by their
    number; counts marked computed come from job inputs and outputs.
    """
    from workloads import doeblin_underflowed, kill_survival_exact

    per = 1.0 / passes
    job_of = {rec["instance"]: next(j for j in jobs if j.name == rec["name"])
              for rec in traced}
    spans = table.spans
    m = {}

    m["velocity.affine_residual_calls"] = (table.count(AR) * per, "count")
    m["velocity.affine_residual_s"] = (table.total(AR) * per, "s")
    m["velocity.flatness_s"] = (table.total("velocity.estimate_flatness_constant") * per, "s")
    m["velocity.plateau_scan_s"] = (table.total("velocity.find_plateau_pair") * per, "s")

    scan_fn = "functionals.min_affine_residual"
    scan = table.total(scan_fn)
    windows = sum(1 for i in table.named(AR) if spans[spans[i][3]][0] == scan_fn)
    m["functionals.window_scan_s"] = (scan * per, "s")
    m["functionals.windows_per_s"] = (_ratio(windows, scan), "1/s")
    m["functionals.lp_calls"] = (table.count("functionals.lipschitz_correlation") * per, "count")
    m["functionals.lp_s"] = (table.total("functionals.lipschitz_correlation") * per, "s")
    m["functionals.report_self_s"] = (
        sum(table.self_time(i) for i in table.named("functionals.compute_bounds_report")) * per,
        "s")

    # reports whose C - 1 underflowed to 0.0 (see workloads.doeblin_underflowed)
    underflows = sum(
        doeblin_underflowed(functionals.BoundsReport(
            **json.loads((j.facts["out"] / "bounds.json").read_text())))
        for j in jobs if j.kind == "cli.bounds")
    m["functionals.doeblin_underflows"] = (underflows, "count")

    sweeps = [_sweep_facts(j) for j in jobs if j.kind == "cli.spectrum"]
    points = sum(s[0] for s in sweeps)
    sweep_s = table.total("spectral.resolvent_gap") * per
    m["spectral.sweep_s"] = (sweep_s, "s")
    m["spectral.sweep_points"] = (points, "count")
    m["spectral.sweep_s_per_point"] = (_ratio(sweep_s, points), "s")
    m["spectral.window_extensions"] = (sum(s[2] for s in sweeps), "count")
    m["spectral.sweep_useful_frac"] = (_ratio(sum(s[1] for s in sweeps), points), "fraction")
    m["spectral.refinement_warnings"] = (sum(s[3] for s in sweeps), "count")
    m["spectral.uncertified_sweeps"] = (sum(not s[4] for s in sweeps), "count")
    m["spectral.operator_build_s"] = (table.group_time(*OPERATOR_BUILD) * per, "s")
    prop = "spectral.ModeOperator.propagator"
    m["spectral.propagator_calls"] = (table.count(prop) * per, "count")
    m["spectral.propagator_s"] = (table.total(prop) * per, "s")
    m["spectral.propagator_hit_frac"] = (_ratio(table.extra_sum(prop), table.count(prop)),
                                         "fraction")
    m["spectral.semigroup_s"] = (table.total("spectral.semigroup_norm") * per, "s")
    m["spectral.semigroup_expm"] = (sum(j.facts.get("expm", 0) for j in jobs), "count")

    step = "evolve.Evolution.step"
    m["evolve.step_calls"] = (table.count(step) * per, "count")
    m["evolve.step_self_s"] = (sum(table.self_time(i) for i in table.named(step)) * per, "s")
    m["evolve.mode_matvecs"] = (table.extra_sum(step) * per, "count")
    m["evolve.relax_trace_self_s"] = (
        sum(table.self_time(i) for i in table.named("evolve.relax_trace")) * per, "s")
    m["evolve.strip_trace_s"] = (table.total("evolve.strip_trace") * per, "s")
    m["evolve.transform_s"] = (
        table.total("evolve.field_from_samples", "evolve.field_to_samples") * per, "s")

    kk = "kernels.kolmogorov_kernel"
    m["kernels.kolmogorov_kernel_calls"] = (table.count(kk) * per, "count")
    m["kernels.kolmogorov_kernel_s"] = (table.total(kk) * per, "s")

    # Monte Carlo: path-steps from the job inputs over time inside the job's
    # top-level mcsim calls
    steps, busy, pair = {}, {}, {}
    for inst, job in job_of.items():
        if "path_steps" not in job.facts:
            continue
        mc_busy = sum(table.duration(i) for i in table.by_job(inst, *MC_CALLS)
                      if spans[spans[i][3]][0].startswith("job."))
        cls = job.facts["mc_class"]
        steps[cls] = steps.get(cls, 0) + job.facts["path_steps"]
        busy[cls] = busy.get(cls, 0.0) + mc_busy
        if "pair_of" in job.facts:
            pair.setdefault("w1", []).append(job.facts["path_steps"] / mc_busy)
        elif any(j.facts.get("pair_of") == job.name for j in jobs):
            pair.setdefault("w2", []).append(job.facts["path_steps"] / mc_busy)
    m["mcsim.path_steps"] = (sum(steps.values()) * per, "count")
    m["mcsim.busy_s"] = (table.group_time(*MC_CALLS) * per, "s")
    m["mcsim.step_field_steps_per_s"] = (_ratio(steps.get("step", 0), busy.get("step")), "1/s")
    m["mcsim.smooth_field_steps_per_s"] = (
        _ratio(steps.get("smooth", 0), busy.get("smooth")), "1/s")
    m["mcsim.plane_steps_per_s"] = (_ratio(steps.get("plane", 0), busy.get("plane")), "1/s")
    w1 = statistics.median(pair["w1"]) if pair else 0.0
    w2 = statistics.median(pair["w2"]) if pair else 0.0
    m["mcsim.steps_per_s_w1"] = (w1, "1/s")
    m["mcsim.steps_per_s_w2"] = (w2, "1/s")
    m["mcsim.parallel_efficiency"] = (_ratio(w2, 2.0 * w1), "fraction")
    absorbed_frac = bias = 0.0
    for job in jobs:
        if job.facts.get("killed"):
            meta = json.loads((job.facts["out"] / "histogram-meta.json").read_text())
            absorbed_frac = meta["n_absorbed"] / meta["n_paths"]
            bias = (1.0 - absorbed_frac) - kill_survival_exact()
    m["mcsim.absorbed_frac"] = (absorbed_frac, "fraction")
    m["mcsim.kill_survival_bias"] = (bias, "probability")

    cli_self = sum(table.self_time(i) for i in table.named(*{f"job.{j.kind}" for j in jobs})
                   if job_of[spans[i][4]].facts.get("cli"))
    m["cli.self_s"] = (cli_self * per, "s")
    m["cli.artifact_bytes"] = (sum(_artifact_bytes(j) for j in jobs if j.facts.get("cli")),
                               "bytes")
    return m
