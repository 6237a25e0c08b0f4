"""Acceptance battery: every headline claim checked end to end.

Each criterion is a standalone function returning its measured numbers and
a verdict; `run_all` runs a subset into CriterionResults and is what both the
test suite and the command-line `validate` task call.  All randomness is
seeded inside the criteria, so the battery is deterministic.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _checks, evolve, functionals as fn, kernels, mcsim
from .spectral import make_operator, resolvent_gap, semigroup_norm
from .velocity import (
    BinaryCascadeField,
    SawtoothField,
    SineField,
    two_plateau,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "polytope_vertex_max"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    def status(self):
        """The verdict line without the timing, as `validation.txt` keeps it."""
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.cid:2d}: {self.name}"

    def line(self):
        return f"{self.status()} ({self.elapsed:.1f}s)"


def _cos_field():
    return SineField(1.0, 1, math.pi / 2.0)


def _battery():
    return {
        "cos": _cos_field(),
        "sawtooth": SawtoothField(1.0),
        "two_plateau": two_plateau(0.0, 1.0),
        "cascade": BinaryCascadeField(1.0),
    }


# ---------------------------------------------------------------------------
# 1. golden constant evaluations


def criterion_1():
    checks = {}
    t_p = fn.plateau_constants(0.25, 1.0).time
    checks["plateau_time"] = (t_p, 1.390625, abs(t_p - 1.390625) < 1e-12)
    c, rho = fn.doeblin_constants(1.0, 0.5)
    checks["doeblin_c"] = (c, 2.0, abs(c - 2.0) < 1e-12)
    checks["doeblin_rho"] = (rho, math.log(2.0), abs(rho - math.log(2.0)) < 1e-12)
    # the bijection 36 s tan(s) sends pi/4 to 9 pi
    inv = fn.gap_bound_from_residual(9.0 * math.pi / 0.3, 0.3, 0.0)
    target = (math.pi / 4.0) ** 2 / 0.3**2
    checks["tan_inverse"] = (inv, target, abs(inv - target) < 1e-10 * target)
    return checks, all(v[2] for v in checks.values())


# ---------------------------------------------------------------------------
# 2. closed-form affine residuals


def criterion_2():
    lin = fn.min_affine_residual(SawtoothField(1.0), 0.5, j_points=33)
    cos = fn.min_affine_residual(_cos_field(), 0.5, j_points=33)
    cos_target = 1.0 / (8.0 * math.pi**2) - 3.0 / (4.0 * math.pi**4)
    details = {
        "linear": (lin, 1.0 / 720.0),
        "cosine": (cos, cos_target),
    }
    ok = abs(lin - 1.0 / 720.0) < 1e-9 and abs(cos - cos_target) < 1e-6
    return details, ok


# ---------------------------------------------------------------------------
# 3. correlation LP against exhaustive vertex enumeration


def polytope_vertex_max(objective, weights, slope_cap):
    """Maximize a linear objective over the test-function polytope by brute force.

    The polytope lives in the weighted-mean-zero hyperplane; its vertices are
    enumerated exactly (Qhull halfspace intersection around the strictly
    feasible origin) and the objective is evaluated at every vertex.
    Independent of the LP solver path by construction.
    """
    import scipy.linalg as sla
    from scipy.spatial import HalfspaceIntersection

    n = len(objective)
    rows = []
    rhs = []
    for i in range(n):
        j = (i + 1) % n
        for sign in (1.0, -1.0):
            row = np.zeros(n)
            row[i], row[j] = sign, -sign
            rows.append(row)
            rhs.append(slope_cap)
    for i in range(n):
        for sign in (1.0, -1.0):
            row = np.zeros(n)
            row[i] = sign
            rows.append(row)
            rhs.append(1.0)
    a_ub = np.array(rows)
    b_ub = np.array(rhs)
    basis = sla.null_space(np.asarray(weights, dtype=float)[None, :])
    halfspaces = np.hstack([a_ub @ basis, -b_ub[:, None]])
    hs = HalfspaceIntersection(halfspaces, np.zeros(basis.shape[1]))
    best = -math.inf
    for z in hs.intersections:
        best = max(best, float(objective @ (basis @ z)))
    return best


def criterion_3():
    from .velocity import GridField

    rng = np.random.default_rng(2024)
    n = 8
    h = 1.0 / n
    weights = np.full(n, h)
    slope_cap = 2.0 * math.pi * h
    worst_gap = 0.0
    for _ in range(5):
        v = rng.normal(size=n)
        # the production LP on a grid field sees exactly v at its nodes; both
        # maxima are nonnegative because the polytope is symmetric under -phi
        lp = fn.lipschitz_correlation(GridField(v), grid_n=n)
        brute = polytope_vertex_max(v * weights, weights, slope_cap)
        worst_gap = max(worst_gap, abs(lp - brute))
    lp512 = fn.lipschitz_correlation(_cos_field(), grid_n=512)
    details = {"lp_vs_vertices_gap": worst_gap, "cos_lp_512": lp512}
    return details, worst_gap < 1e-9 and lp512 >= 0.5 - 1e-3


# ---------------------------------------------------------------------------
# 4. resolvent gaps dominate both functional lower bounds


@functools.cache
def _battery_summaries():
    """(k = 1 operator at n = 256, its resolvent-gap summary) per battery field."""
    out = {}
    for name, field in _battery().items():
        op = make_operator(field, 1, boundary="periodic", n=256)
        out[name] = (op, resolvent_gap(op, s_points=192))
    return out


def criterion_4():
    details = {}
    ok = True
    for name, field in _battery().items():
        r = _battery_summaries()[name][1].r_lambda1
        report = fn.compute_bounds_report(field, grid_n=512, j_points=65)
        corr = 2.0 * math.pi * report.lip_correlation
        osc = 2.0 * math.pi * report.oscillation
        bound_imp = fn.gap_bound_from_correlation(corr, osc, 1.0, periodic_improved=True)
        bound_gen = fn.gap_bound_from_correlation(corr, osc, 1.0)
        bound_res = max(
            fn.gap_bound_from_residual((2.0 * math.pi) ** 2 * res, eps, lambda1=0.0)
            for eps, res in report.affine_residual_table.items()
        )
        details[name] = {
            "r": r,
            "bound_correlation_improved": bound_imp,
            "bound_correlation_general": bound_gen,
            "bound_residual": bound_res,
        }
        ok &= r >= bound_imp - 1e-8
        ok &= r >= bound_gen - 1e-8
        ok &= r >= bound_res - 1e-8
    op128 = make_operator(_cos_field(), 1, boundary="periodic", n=128)
    r128 = resolvent_gap(op128, s_points=192).r_lambda1
    r256 = _battery_summaries()["cos"][1].r_lambda1
    drift = abs(r256 - r128) / r256
    details["cos_grid_doubling_relative_change"] = drift
    ok &= drift < 0.01
    return details, bool(ok)


# ---------------------------------------------------------------------------
# 5. explicit semigroup bound


def criterion_5():
    details = {}
    ok = True
    lam2 = 4.0 * math.pi**2
    times = np.geomspace(1e-2, 50.0 / lam2, 40)
    for name, (op, summary) in _battery_summaries().items():
        gap = op.lambda1_discrete + summary.r_lambda1
        norms = semigroup_norm(op, times)
        ratio = float(np.max(norms * np.exp(gap * times)))
        eig = op.eigendecomposition
        details[name] = {"max_ratio": ratio, "cap": math.e ** (math.pi / 2.0),
                         "route": eig.route, "cond_w": eig.cond_w}
        ok &= ratio <= math.e ** (math.pi / 2.0) * (1.0 + 1e-4)
    return details, bool(ok)


# ---------------------------------------------------------------------------
# 6. relaxation envelope for the 2D evolution


def criterion_6():
    details = {}
    ok = True
    nx, ny = 64, 9
    tilt = 0.3 * np.sin(2 * np.pi * (np.arange(ny) / ny))
    tilted = evolve.initial_samples("cos_xy", nx, ny) + tilt
    initials = [evolve.initial_samples("cos_y", nx, ny), tilted,
                evolve.initial_samples("random", nx, ny, seed=99)]
    for name, field in (("cos", _cos_field()), ("two_plateau", two_plateau(0.0, 1.0))):
        worst = -math.inf
        violations = 0
        evo = evolve.Evolution(field)
        for u0 in initials:
            trace = evolve.relax_trace(u0, field, 20.0, n_samples=41,
                                       correlation_grid=256, evolution=evo)
            violations += len(trace.violations)
            with np.errstate(divide="ignore"):
                margin = np.max(np.log(trace.deviation[1:] / trace.envelope[1:]))
            worst = max(worst, float(margin))
        details[name] = {"violations": violations, "worst_log_margin": worst}
        ok &= violations == 0

    # a constant field is exactly a translated heat flow
    const = 0.37
    from .velocity import PiecewiseConstantField

    fld = evolve.field_from_samples(tilted)
    t = 1.25
    moved = evolve.Evolution(PiecewiseConstantField([0.0], [const])).step(fld, t)
    base = evolve.Evolution(PiecewiseConstantField([0.0], [0.0])).step(fld, t)
    err = 0.0
    for k in range(-fld.k_max, fld.k_max + 1):
        phase = np.exp(-2j * np.pi * k * const * t)
        err = max(err, float(np.max(np.abs(moved.mode(k) - phase * base.mode(k)))))
    details["constant_shift_error"] = err
    ok &= err <= 1e-8
    return details, bool(ok)


# ---------------------------------------------------------------------------
# 7. heat-kernel constants


def criterion_7():
    x = np.linspace(0.0, 1.0, 4001)
    torus_min = float(np.min(kernels.heat_torus(x, 0.0, 0.125)))
    torus_floor = math.sqrt(2.0 / (math.e * math.pi))
    core_min = math.inf
    for interval in ((0.0, 1.0), (0.1, 0.6)):
        a, b = interval
        length = b - a
        t = length**2 / 8.0
        core = np.linspace(a + length / 4.0, b - length / 4.0, 81)
        xx, yy = np.meshgrid(core, core)
        vals = kernels.heat_dirichlet(xx, yy, interval, t)
        core_min = min(core_min, float(np.min(
            vals * length * math.exp(math.pi**2 * t / length**2))))
    details = {"torus_min": torus_min, "torus_floor": torus_floor,
               "dirichlet_core_constant": core_min}
    ok = torus_min >= torus_floor - 1e-8 and core_min >= 0.5
    return details, ok


# ---------------------------------------------------------------------------
# 8. arcsine occupation-time law


def criterion_8(workers=2):
    cfg = mcsim.PathConfig(dt=1e-4, n_paths=200_000, t_end=1.0, seed=81520,
                           geometry="plane", block_size=1 << 14, workers=workers)
    res = mcsim.arcsine_experiment(cfg)
    return {"ks_distance": res.ks_distance, "n_paths": res.n_paths}, res.ks_distance <= 0.02


# ---------------------------------------------------------------------------
# 9. explicit plane kernel: control identity, histogram, PDE residual


def criterion_9(workers=2):
    """The plane kernel: its control cost, a Monte Carlo histogram and the PDE residual.

    The histogram's step-size bias is known exactly.  For V(x) = x from the
    origin the trapezoid rule makes (X_n, Y_n) exactly Gaussian at t = n dt,
    with mean 0, Var X = 2t, Cov(X, Y) = t^2 and Var Y = 2t^3/3 - t dt^2/6
    (checked with rational arithmetic for n = 1, 2, 5, 10 and 40), against
    the kernel's 2t^3/3.  So Var Y is low by dt^2 / (4 t^2), 2.5e-7 relative
    at dt = 1e-3 and t = 1, far below what 10^6 paths resolve.
    """
    details = {}
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(100):
        x0, y0, x, y = rng.normal(scale=2.0, size=4)
        t = float(rng.uniform(0.05, 4.0))
        sol = kernels.kolmogorov_control(kernels.KolmogorovState(x0, y0, x, y, t))
        psi = kernels.kolmogorov_cost(t, x, y, x0, y0)
        scale = max(abs(psi), 1e-9)
        worst = max(worst, abs(sol.cost - psi) / scale)
    details["cost_vs_action_rel"] = worst
    ok = worst <= 1e-12

    cfg = mcsim.PathConfig(dt=1e-3, n_paths=1_000_000, t_end=1.0, seed=90,
                           geometry="plane", y_integrator="trapezoid",
                           block_size=1 << 14, workers=workers)
    res = mcsim.kolmogorov_experiment(cfg, bins=24)
    details["histogram_max_rel_error"] = res.max_rel_error
    details["high_mass_cells"] = res.high_mass_cells
    details["x_marginal_chi2_p"] = res.chi2_pvalue
    ok &= res.max_rel_error <= 0.05 and res.chi2_pvalue > 0.001

    # fourth-order stencil residual of du/dt = dxx u - x dy u
    h = 0.012
    offs = np.arange(-2, 3)
    worst_res = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.5, 2.0))
        x = float(rng.normal())
        y = float(rng.normal(scale=0.7))
        ut = (-kernels.kolmogorov_kernel(t + 2 * h, x, y)
              + 8 * kernels.kolmogorov_kernel(t + h, x, y)
              - 8 * kernels.kolmogorov_kernel(t - h, x, y)
              + kernels.kolmogorov_kernel(t - 2 * h, x, y)) / (12 * h)
        fx = np.array([kernels.kolmogorov_kernel(t, x + j * h, y) for j in offs])
        uxx = (-fx[4] + 16 * fx[3] - 30 * fx[2] + 16 * fx[1] - fx[0]) / (12 * h * h)
        fy = np.array([kernels.kolmogorov_kernel(t, x, y + j * h) for j in offs])
        uy = (-fy[4] + 8 * fy[3] - 8 * fy[1] + fy[0]) / (12 * h)
        worst_res = max(worst_res, abs(ut - uxx + x * uy))
    details["pde_residual"] = worst_res
    ok &= worst_res <= 1e-4
    return details, bool(ok)


# ---------------------------------------------------------------------------
# 10. empirical Doeblin minorization and TV decay


def _tv_fit_rate(times, tv, bias):
    keep = tv > 2.0 * bias
    t = np.asarray(times)[keep]
    y = np.log(np.asarray(tv)[keep] - np.asarray(bias)[keep])
    if len(t) < 2:
        return math.nan
    slope = np.polyfit(t, y, 1)[0]
    return -float(slope)


def criterion_10(workers=2):
    field = two_plateau(0.0, 1.0)
    plateau = fn.plateau_constants(0.5, 1.0)
    t_p = plateau.time
    starts = [((2 * i + 1) / 16.0, ((6 * i + 3) % 16) / 16.0) for i in range(8)]
    details = {}

    # full-strength histograms at the plateau time itself
    cfg_full = mcsim.PathConfig(dt=4e-3, n_paths=1_000_000, t_end=t_p, seed=1001,
                                bins=8, block_size=1 << 15, workers=workers)
    est = mcsim.doeblin_estimate(field, t_p, starts, cfg_full)
    alpha_p = plateau.mass
    details["alpha_hat"] = est.alpha_hat
    details["alpha_lcb"] = est.alpha_lower_confidence
    details["empty_cells"] = len(est.empty_cells)
    details["alpha_theorem"] = alpha_p
    ok = est.all_cells_hit and est.alpha_hat > 0.0 and est.alpha_hat >= alpha_p

    # monotonicity of the empirical floor along dyadic times; t_P takes the
    # full-strength estimate, since 125k paths leave cells empty there
    cfg_snap = cfg_full.replace(n_paths=125_000, t_end=4 * t_p, seed=1002)
    by_time = zip(*mcsim.simulate_starts(starts, field, cfg_snap, [2 * t_p, 4 * t_p]))
    alphas = [est.alpha_hat]
    widths = [est.alpha_hat - est.alpha_lower_confidence]
    for hists in by_time:
        worst = min(hist.alpha_hat() for hist in hists)
        worst_lcb = min(hist.alpha_lower_confidence() for hist in hists)
        alphas.append(worst)
        widths.append(worst - worst_lcb)
    details["alpha_by_time"] = alphas
    for i in range(len(alphas) - 1):
        ok &= alphas[i + 1] >= alphas[i] - max(widths[i], widths[i + 1])

    # TV decay rate against the Doeblin rate built from (t_P, alpha_hat)
    cfg_tv = mcsim.PathConfig(dt=4e-3, n_paths=200_000, t_end=3 * t_p, seed=1003,
                              bins=8, block_size=1 << 15, workers=workers)
    decay = mcsim.tv_decay(field, starts[0], starts[4],
                           [t_p, 1.5 * t_p, 2 * t_p, 3 * t_p], cfg_tv)
    fitted = _tv_fit_rate(decay.times, decay.tv, decay.bias)
    rho_doeblin = -math.log1p(-est.alpha_hat) / t_p
    details["tv"] = decay.tv.tolist()
    details["fitted_rate"] = fitted
    details["rho_doeblin"] = rho_doeblin
    ok &= fitted > 0.0 and fitted >= rho_doeblin
    return details, bool(ok)


# ---------------------------------------------------------------------------
# 11. determinism of artifacts across reruns and worker counts


def criterion_11():
    """The histogram, decay and sweep CSV texts are equal across reruns, and
    the histogram across worker counts; nothing is written to disk."""
    details = {}
    field = two_plateau(0.0, 1.0)

    def hist_csv(workers):
        cfg = mcsim.PathConfig(dt=0.01, n_paths=20_000, t_end=0.5, seed=7,
                               bins=8, block_size=1 << 13, workers=workers)
        return mcsim.simulate((0.25, 0.25), field, cfg).histogram_csv()

    ok = hist_csv(1) == hist_csv(2) == hist_csv(1)
    details["histogram_bit_identical"] = ok

    def decay_csv():
        u0 = evolve.initial_samples("random", 32, 5, seed=99)
        return evolve.relax_trace(u0, field, 2.0, n_samples=9,
                                  correlation_grid=64).decay_csv()

    same_decay = decay_csv() == decay_csv()
    details["decay_bit_identical"] = same_decay
    ok &= same_decay

    def sweep_csv():
        op = make_operator(field, 1, boundary="periodic", n=64)
        return resolvent_gap(op, s_points=64).sweep_csv()

    same_sweep = sweep_csv() == sweep_csv()
    details["sweep_bit_identical"] = same_sweep
    ok &= same_sweep
    return details, bool(ok)


CRITERIA = [
    (1, "golden constant evaluations", criterion_1),
    (2, "closed-form affine residuals", criterion_2),
    (3, "correlation LP vs vertex enumeration", criterion_3),
    (4, "resolvent gaps dominate functional bounds", criterion_4),
    (5, "explicit semigroup bound", criterion_5),
    (6, "relaxation envelope for the 2D evolution", criterion_6),
    (7, "heat-kernel constants", criterion_7),
    (8, "arcsine occupation-time law", criterion_8),
    (9, "explicit plane kernel", criterion_9),
    (10, "empirical Doeblin minorization and TV decay", criterion_10),
    (11, "bit-identical artifacts", criterion_11),
]


# criteria whose Monte Carlo runs take a worker count
_MONTE_CARLO = (8, 9, 10)


def run_all(ids=None, progress=None, workers=2):
    """Run the requested criteria (all by default), in id order, and return
    their timed CriterionResults; `progress` gets each result's line.  An
    `ids` that is no iterable or is empty, an id that is not an integer
    (booleans and floats are not) or names no criterion, and a `workers`
    below 1 are refused before any criterion runs.

    `workers` is the Monte Carlo worker count of criteria 8, 9 and 10; their
    results do not depend on it (criterion 11 checks that for a histogram).
    The spectral summaries that criteria 4 and 5 share are computed once per
    process.
    """
    known = [cid for cid, _, _ in CRITERIA]
    wanted = known if ids is None else list(ids) if isinstance(ids, Iterable) else []
    if not wanted or not all(_checks.count(i, "ids") in known for i in wanted):
        raise ValueError(f"ids must be a non-empty list of criterion ids from {known}, "
                         f"got {wanted or ids!r}")
    _checks.count(workers, "workers", 1)
    todo = [c for c in CRITERIA if c[0] in wanted]
    results = []
    for cid, name, func in todo:
        start = time.time()
        extra = {"workers": workers} if cid in _MONTE_CARLO else {}
        details, passed = func(**extra)
        result = CriterionResult(cid, name, passed, details, time.time() - start)
        results.append(result)
        if progress is not None:
            progress(result.line())
    return results
