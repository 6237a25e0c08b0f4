"""Explicit constants and lower bounds attached to a velocity field.

Everything here is a plain number: the maximal correlation of V against
constrained Lipschitz test functions (solved exactly as a linear program on
nodal values), worst-case affine residuals of the primitive of V, the mixing
rates and resolvent-gap lower bounds built from them, the plateau and
non-flatness minorization constants, and the Doeblin constants turning a
uniform kernel lower bound into exponential total-variation decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from .velocity import VelocityField, _flatness_from_table, estimate_flatness_constant

__all__ = [
    "lipschitz_correlation",
    "min_affine_residual",
    "full_affine_residual",
    "mixing_rate",
    "mixing_rate_from_residual",
    "gap_bound_from_correlation",
    "gap_bound_from_residual",
    "plateau_constants",
    "flatness_constants",
    "doeblin_constants",
    "doeblin_iterate",
    "DoeblinCheck",
    "MinorizationError",
    "PlateauConstants",
    "FlatnessConstants",
    "BoundsReport",
    "compute_bounds_report",
]


# ---------------------------------------------------------------------------
# scalar inversions


def _invert_s_tan(y, coeff, inner, s_max):
    """Invert the increasing bijection s -> coeff * s * tan(inner * s).

    Defined on [0, s_max) with inner * s_max = pi/2; bisection to relative
    tolerance 1e-12 with a 200-iteration cap.
    """
    if y < 0:
        raise ValueError("argument must be nonnegative")
    if y == 0.0:
        return 0.0

    def fn(s):
        return coeff * s * math.tan(inner * s)

    lo = 0.0
    hi = s_max * (1.0 - 1e-16)
    if fn(hi) <= y:
        return s_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def mixing_rate(correlation, oscillation):
    """L2 relaxation rate lower bound (correlation / (2 pi (1 + osc)))^2."""
    if correlation < 0 or oscillation < 0:
        raise ValueError("inputs must be nonnegative")
    return (correlation / (2.0 * math.pi * (1.0 + oscillation))) ** 2


def mixing_rate_from_residual(residual_full):
    """Alternative rate from the full-interval affine residual of the primitive.

    Inverts s -> 144 s tan(2s) on [0, pi/4) and squares the result.
    """
    s = _invert_s_tan(residual_full, 144.0, 2.0, math.pi / 4.0)
    return s * s


def gap_bound_from_correlation(correlation, oscillation, length, periodic_improved=False):
    """Resolvent-gap lower bound from the Lipschitz correlation functional.

    General form: corr^2 / 18 * (pi^2/L^2 + L^2/pi^2 * osc^2)^{-1}.
    With `periodic_improved` (valid for the full torus, L = 1) the sharper
    (corr / (2 pi (1 + osc)))^2 is returned instead.
    """
    if correlation < 0 or oscillation < 0 or length <= 0:
        raise ValueError("bad inputs")
    if periodic_improved:
        if abs(length - 1.0) > 1e-12:
            raise ValueError("improved bound applies to the unit torus only")
        return mixing_rate(correlation, oscillation)
    denom = math.pi**2 / length**2 + length**2 / math.pi**2 * oscillation**2
    return correlation**2 / 18.0 / denom


def gap_bound_from_residual(residual_eps, eps, lambda1=0.0):
    """Resolvent-gap lower bound from the scale-eps affine residual.

    Returns max(0, phi^{-1}(eps * residual)^2 / eps^2 - lambda1) where phi is
    the bijection s -> 36 s tan(s) on [0, pi/2).  The result never exceeds
    pi^2 / (4 eps^2).
    """
    if eps <= 0 or residual_eps < 0:
        raise ValueError("bad inputs")
    s = _invert_s_tan(eps * residual_eps, 36.0, 1.0, math.pi / 2.0)
    return max(0.0, s * s / eps**2 - lambda1)


# ---------------------------------------------------------------------------
# the Lipschitz correlation LP


def _lp_weights(boundary, a, b, n):
    length = b - a
    h = length / n
    x = a + (np.arange(n) + 0.5) * h
    if boundary == "periodic":
        w = np.full(n, h / length)
    elif boundary == "dirichlet":
        w = (2.0 / length) * np.sin(np.pi * (x - a) / length) ** 2 * h
    else:
        raise ValueError(f"unknown boundary: {boundary!r}")
    return x, w, h


def lipschitz_correlation(field, boundary="periodic", interval=None, grid_n=256):
    """Maximal weighted correlation of V against constrained test functions.

    Maximizes the midpoint quadrature of integral(V * phi * weight) over
    nodal values of phi subject to |phi| <= 1, the Lipschitz bound
    2 pi / L between adjacent nodes, and zero weighted mean.  The weight is
    uniform for periodic boundary conditions (where phi also closes up across
    the seam) and 2 sin^2(pi (x-a)/L)/L for Dirichlet, in which case the
    endpoint matching condition is automatic and dropped.  Solved exactly as
    a linear program; the value is the maximum over piecewise-linear test
    functions on the grid and converges to the continuum value as grid_n
    grows.
    """
    from scipy.optimize import linprog

    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    if interval is None:
        a, b = field.a, field.b
    else:
        a, b = float(interval[0]), float(interval[1])
    length = b - a
    x, w, h = _lp_weights(boundary, a, b, grid_n)
    v = np.asarray(field(x), dtype=float)
    slope_cap = 2.0 * math.pi / length * h

    # row i of diff is phi_i - phi_{i+1}; the last row closes the torus, and
    # Dirichlet drops it
    n = grid_n
    diff = sparse.eye_array(n) - sparse.eye_array(n, k=1) - sparse.eye_array(n, k=1 - n)
    if boundary != "periodic":
        diff = diff.tocsr()[:-1]
    a_ub = sparse.kron(diff, [[1.0], [-1.0]])  # rows 2i and 2i + 1 bound +-(phi_i - phi_{i+1})
    b_ub = np.full(a_ub.shape[0], slope_cap)

    res = linprog(
        -(v * w),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=w[None, :],
        b_eq=[0.0],
        bounds=(-1.0, 1.0),
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"correlation LP failed: {res.message}")
    return max(0.0, -res.fun)


# ---------------------------------------------------------------------------
# affine residuals of the primitive


def full_affine_residual(field, interval=None):
    """Affine least-squares residual of the primitive over the whole interval."""
    a, b = (field.a, field.b) if interval is None else (float(interval[0]), float(interval[1]))
    return field.primitive(base=a).affine_residual(a, b)


def min_affine_residual(field, eps, interval=None, j_points=129):
    """Worst-case affine residual of the primitive at scale eps.

    Minimum over subintervals J of length >= 2 eps, endpoints scanned on a
    uniform lattice of `j_points` points, of the exact affine least-squares
    residual of the primitive of the field on J.  Nondecreasing in eps for a
    fixed lattice.
    """
    a, b = (field.a, field.b) if interval is None else (float(interval[0]), float(interval[1]))
    table = field.primitive(base=a).window_table(a, b, j_points, 2.0 * eps)
    return _min_residual(table, eps, b - a)


def _min_residual(table, eps, length):
    """Smallest residual in a `Primitive.window_table` over windows of length >= 2 eps."""
    # eps = |I|/2 is admitted: exactly one window (J = I) qualifies there
    if not 0.0 < eps <= 0.5 * length:
        raise ValueError("eps must lie in (0, |I|/2]")
    admitted = table[table[:, 1] - table[:, 0] >= 2.0 * eps - 1e-12, 4]
    return float(admitted.min()) if len(admitted) else math.inf


# ---------------------------------------------------------------------------
# minorization constants


@dataclass(frozen=True)
class PlateauConstants:
    """Mixing time and kernel mass from a plateau pair (shorter length, gap)."""

    time: float
    mass: float
    log_mass: float


def plateau_constants(ell, dv):
    """Uniform lower-bound constants for a field with two plateaus.

    `ell` is the length of the shorter plateau (at most 1/2 on the torus) and
    `dv` the height difference.  The time is 1/dv + (3 + 2 ell^2)/8 and the
    mass (8 pi e)^{-3/2} exp(-pi^2/4) ell^2 exp(-pi^2/(ell^2 dv)); the latter
    is also returned in log form since it underflows easily.
    """
    if not 0.0 < ell <= 0.5:
        raise ValueError("plateau length must lie in (0, 1/2]")
    if dv <= 0.0:
        raise ValueError("plateau height difference must be positive")
    time = 1.0 / dv + (3.0 + 2.0 * ell**2) / 8.0
    log_mass = (
        -1.5 * math.log(8.0 * math.pi * math.e)
        - math.pi**2 / 4.0
        + 2.0 * math.log(ell)
        - math.pi**2 / (ell**2 * dv)
    )
    return PlateauConstants(time, math.exp(log_mass), log_mass)


@dataclass(frozen=True)
class FlatnessConstants:
    """Mixing time and kernel mass from the non-flatness route."""

    growth: float
    time: float
    mass: float
    log_mass: float


def flatness_constants(length, oscillation, correlation, k_const):
    """Uniform lower-bound constants under quantitative non-flatness.

    `correlation` is the Dirichlet-weighted Lipschitz correlation of V on the
    interval of length `length` and `k_const >= 1` the non-flatness constant.
    The mass is astronomically small for realistic inputs, so the log value
    is the meaningful output; the direct value underflows to 0.0.
    """
    if not 0.0 < length <= 1.0:
        raise ValueError("interval length must lie in (0, 1]")
    if oscillation < 0.0:
        raise ValueError("oscillation must be nonnegative")
    if correlation <= 0.0:
        raise ArithmeticError("correlation must be positive; the bound is undefined otherwise")
    if k_const < 1.0:
        raise ValueError("non-flatness constant must be at least 1")
    growth = 1.0 + 2.0 * math.pi * oscillation * length**2
    time = (10.0 * growth / (length * correlation)) ** 2 * (
        1.0 + math.log(growth) + k_const / length**2
    )
    log_mass = math.log(length / 3.0) - math.pi**2 / length**2 * time
    return FlatnessConstants(growth, time, math.exp(log_mass), log_mass)


def doeblin_constants(t_star, alpha_star):
    """Exponential decay constants (C, rho) from a uniform minorization.

    C = 1/(1 - alpha) and rho = log(C)/t; rho goes through log1p so it stays
    accurate when alpha is tiny.
    """
    if t_star <= 0.0:
        raise ValueError("minorization time must be positive")
    if not 0.0 < alpha_star < 1.0:
        raise ValueError("minorization mass must lie in (0, 1)")
    c = 1.0 / (1.0 - alpha_star)
    rho = -math.log1p(-alpha_star) / t_star
    return c, rho


@dataclass
class DoeblinCheck:
    """Per-step total-variation distances and the verified pointwise bound."""

    tv: np.ndarray
    bound_mass: np.ndarray
    c: float
    rho: float
    violation: dict | None = None


class MinorizationError(ValueError):
    """Raised when a kernel fails the uniform minorization precondition."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


def doeblin_iterate(kernel, t_star_steps, alpha_star, horizon):
    """Verify the pointwise Doeblin bound along powers of a kernel matrix.

    The kernel must be bi-stochastic (rows and columns sum to 1, so the
    uniform distribution is invariant, as for the shear-diffusion semigroup)
    and its `t_star_steps` power must dominate `alpha_star` times the uniform
    row.  Checks min-entry(kernel^m) >= (1 - C exp(-rho m)) / n for every
    m <= horizon and returns the worst-row total-variation distance to
    uniform at each step.
    """
    p = np.asarray(kernel, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("kernel must be a square matrix")
    n = p.shape[0]
    if np.any(p < -1e-12):
        raise MinorizationError("kernel has a negative entry")
    if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise MinorizationError("kernel rows must sum to 1")
    if not np.allclose(p.sum(axis=0), 1.0, atol=1e-9):
        raise MinorizationError("kernel columns must sum to 1 (uniform must be invariant)")
    pt = np.linalg.matrix_power(p, int(t_star_steps))
    floor = alpha_star / n
    if pt.min() < floor - 1e-12:
        idx = np.unravel_index(int(np.argmin(pt)), pt.shape)
        raise MinorizationError(
            f"entry {idx} of the {t_star_steps}-step kernel is {pt[idx]:.3e} < {floor:.3e}",
            entry=idx,
        )
    c, rho = doeblin_constants(float(t_star_steps), alpha_star)
    tv = np.empty(horizon)
    bound = np.empty(horizon)
    violation = None
    pm = np.eye(n)
    for m in range(1, horizon + 1):
        pm = pm @ p
        tv[m - 1] = 0.5 * np.abs(pm - 1.0 / n).sum(axis=1).max()
        bound[m - 1] = max(0.0, 1.0 - c * math.exp(-rho * m)) / n
        if pm.min() < bound[m - 1] - 1e-12 and violation is None:
            idx = np.unravel_index(int(np.argmin(pm)), pm.shape)
            violation = {"step": m, "entry": idx, "value": float(pm.min()),
                         "required": float(bound[m - 1])}
    return DoeblinCheck(tv=tv, bound_mass=bound, c=c, rho=rho, violation=violation)


# ---------------------------------------------------------------------------
# the consolidated report


@dataclass
class BoundsReport:
    """Every explicit constant for one velocity field, with provenance tags.

    Mass constants are reported both directly and in log form since the
    theory produces values far below double-precision underflow.  Fields tied
    to an assumption (plateau pair / non-flatness) are None when it fails.
    """

    oscillation: float
    lip_correlation: float
    affine_residual_full: float
    affine_residual_table: dict
    l2_mixing_rate: float
    residual_mixing_rate: float
    gap_bound_correlation: float
    gap_bound_correlation_periodic: float
    gap_bound_residual_table: dict
    plateau_ell: float | None = None
    plateau_dv: float | None = None
    plateau_time: float | None = None
    plateau_mass: float | None = None
    plateau_mass_log: float | None = None
    flatness_interval: tuple | None = None
    flatness_feasible: bool = False
    flatness_constant: float | None = None
    dirichlet_correlation: float | None = None
    mode_growth_factor: float | None = None
    flatness_time: float | None = None
    flatness_mass: float | None = None
    flatness_mass_log: float | None = None
    doeblin_c: float | None = None
    doeblin_c_minus_one: float | None = None
    doeblin_rho: float | None = None
    doeblin_rho_log: float | None = None
    provenance: dict = dc_field(default_factory=dict)

    def to_json_dict(self):
        out = {}
        for key, value in self.__dict__.items():
            if isinstance(value, dict) and key != "provenance":
                out[key] = {f"{k:.6g}": v for k, v in value.items()}
            elif isinstance(value, tuple):
                out[key] = list(value)
            elif isinstance(value, np.floating):
                out[key] = float(value)
            else:
                out[key] = value
        return out

    def _doeblin_route(self):
        """(route, t, log mass) behind the Doeblin constants: the plateau route
        when it applies (vastly larger mass in practice), else flatness, else None."""
        if self.plateau_time is not None:
            return "plateau", self.plateau_time, self.plateau_mass_log
        if self.flatness_time is not None:
            return "flatness", self.flatness_time, self.flatness_mass_log
        return None

    def validate(self):
        """Check the structural invariants; raises AssertionError on failure,
        explicitly, so python -O keeps the checks.

        The Doeblin certificate is checked on its route: rho_log = log mass -
        log t, and C - 1 > 0 where the mass is a positive double.  Where it
        underflows, C - 1, C and rho are exactly 0.0, 1.0 and 0.0, and the
        finite, negative log mass certifies C > 1.
        """
        _check(0.0 <= self.lip_correlation <= 0.5 * self.oscillation + 1e-9, "correlation")
        for name, t, log_mass in (("plateau", self.plateau_time, self.plateau_mass_log),
                                  ("flatness", self.flatness_time, self.flatness_mass_log)):
            _check(t is None or (log_mass is not None and log_mass < 0.0), f"{name} log mass")
        if self.doeblin_c_minus_one is None:
            return
        route = self._doeblin_route()
        _check(route is not None, "Doeblin constants without a minorization route")
        name, t_star, log_mass = route
        rho_log = log_mass - math.log(t_star)
        _check(self.doeblin_rho_log is not None
               and abs(self.doeblin_rho_log - rho_log) <= 1e-12 * abs(rho_log),
               f"rho_log is not the {name} route's log mass - log t = {rho_log}")
        if math.exp(log_mass) > 0.0:
            _check(self.doeblin_c_minus_one > 0.0, f"C - 1 = 0 with a representable {name} mass")
        else:
            _check((self.doeblin_c_minus_one, self.doeblin_c, self.doeblin_rho) == (0.0, 1.0, 0.0),
                   f"the {name} mass underflows, but C != 1 or rho != 0")


def _check(ok, message):
    if not ok:  # not an assert, which python -O strips
        raise AssertionError(message)


DEFAULT_EPS_GRID = (0.05, 0.1, 0.2, 0.4)


def compute_bounds_report(field, *, grid_n=512, eps_grid=DEFAULT_EPS_GRID,
                          flatness_interval=None, j_points=65):
    """Assemble the full bounds report for a torus velocity field."""
    if not isinstance(field, VelocityField):
        raise TypeError("expected a VelocityField")
    if not field.periodic:
        raise ValueError("bounds reports are defined for torus fields")
    prov = {}
    osc = field.oscillation()
    corr = lipschitz_correlation(field, boundary="periodic", grid_n=grid_n)
    prov["lip_correlation"] = f"lp-{grid_n}"
    res_full = full_affine_residual(field)
    # one table of lattice windows over the domain serves every eps, and the
    # flatness scan too when its interval is the domain
    domain = (field.a, field.b)
    interval = flatness_interval if flatness_interval is not None else domain
    interval = (float(interval[0]), float(interval[1]))
    length = interval[1] - interval[0]
    scan_eps = [e * length for e in (0.1, 0.2, 0.4, 0.8)]
    shortest = [2.0 * eps for eps in eps_grid]
    if interval == domain:
        shortest.append(scan_eps[0])
    table = field.primitive(base=field.a).window_table(*domain, j_points,
                                                       min(shortest, default=math.inf))
    res_table = {eps: _min_residual(table, eps, field.length) for eps in eps_grid}
    gap_table = {eps: gap_bound_from_residual(res, eps, lambda1=0.0)
                 for eps, res in res_table.items()}
    report = BoundsReport(
        oscillation=osc,
        lip_correlation=corr,
        affine_residual_full=res_full,
        affine_residual_table=res_table,
        l2_mixing_rate=mixing_rate(corr, osc),
        residual_mixing_rate=mixing_rate_from_residual(res_full),
        gap_bound_correlation=gap_bound_from_correlation(corr, osc, 1.0),
        gap_bound_correlation_periodic=gap_bound_from_correlation(
            corr, osc, 1.0, periodic_improved=True),
        gap_bound_residual_table=gap_table,
        provenance=prov,
    )

    pair = field.find_plateau_pair()
    if pair is not None:
        ell = min(pair.ell, 0.5)
        consts = plateau_constants(ell, pair.dv)
        report.plateau_ell = ell
        report.plateau_dv = pair.dv
        report.plateau_time = consts.time
        report.plateau_mass = consts.mass
        report.plateau_mass_log = consts.log_mass
        prov["plateau"] = "plateau-pair-scan"

    if interval == domain:
        flat = _flatness_from_table(table, scan_eps)
    else:
        flat = estimate_flatness_constant(field, interval, scan_eps, j_points=j_points)
    report.flatness_interval = interval
    report.flatness_feasible = flat.feasible
    if flat.feasible:
        report.flatness_constant = flat.constant
        dir_corr = lipschitz_correlation(field, boundary="dirichlet",
                                         interval=interval, grid_n=grid_n)
        report.dirichlet_correlation = dir_corr
        if dir_corr > 0.0:
            consts = flatness_constants(length, osc, dir_corr, flat.constant)
            report.mode_growth_factor = consts.growth
            report.flatness_time = consts.time
            report.flatness_mass = consts.mass
            report.flatness_mass_log = consts.log_mass
            prov["flatness"] = f"scan-{j_points}"

    route = report._doeblin_route()
    if route is not None:
        prov["doeblin"], t_star, log_mass = route
        alpha = math.exp(log_mass)
        report.doeblin_c_minus_one = alpha / (1.0 - alpha)
        report.doeblin_c = 1.0 + report.doeblin_c_minus_one
        report.doeblin_rho = -math.log1p(-alpha) / t_star
        report.doeblin_rho_log = log_mass - math.log(t_star)
    return report
