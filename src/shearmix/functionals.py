"""Explicit constants and lower bounds attached to a velocity field.

Everything here is a plain number: the maximal correlation of V against
constrained Lipschitz test functions (solved exactly as a linear program on
nodal values), worst-case affine residuals of the primitive of V, the mixing
rates and resolvent-gap lower bounds built from them, the plateau and
non-flatness minorization constants, and the Doeblin constants turning a
uniform kernel lower bound into exponential total-variation decay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _checks, _extension
from .spectral import BOUNDARIES
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
    tolerance 1e-12 with a 200-iteration cap; the caller checks y >= 0.
    """
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
    _checks.positive(correlation, "correlation", strict=False)
    _checks.positive(oscillation, "oscillation", strict=False)
    return (correlation / (2.0 * math.pi * (1.0 + oscillation))) ** 2


def mixing_rate_from_residual(residual_full):
    """Alternative rate from the full-interval affine residual of the primitive.

    Inverts s -> 144 s tan(2s) on [0, pi/4) and squares the result.
    """
    _checks.positive(residual_full, "residual_full", strict=False)
    s = _invert_s_tan(residual_full, 144.0, 2.0, math.pi / 4.0)
    return s * s


def gap_bound_from_correlation(correlation, oscillation, length, periodic_improved=False):
    """Resolvent-gap lower bound from the Lipschitz correlation functional.

    General form: corr^2 / 18 * (pi^2/L^2 + L^2/pi^2 * osc^2)^{-1}.
    With `periodic_improved` (valid for the full torus, L = 1) the sharper
    (corr / (2 pi (1 + osc)))^2 is returned instead.
    """
    improved = mixing_rate(correlation, oscillation)  # which checks both
    _checks.positive(length, "length")
    if periodic_improved:
        if abs(length - 1.0) > 1e-12:
            raise ValueError(f"length must be 1 for the improved bound on the torus, got {length}")
        return improved
    denom = math.pi**2 / length**2 + length**2 / math.pi**2 * oscillation**2
    return correlation**2 / 18.0 / denom


def gap_bound_from_residual(residual_eps, eps, lambda1=0.0):
    """Resolvent-gap lower bound from the scale-eps affine residual.

    Returns max(0, phi^{-1}(eps * residual)^2 / eps^2 - lambda1) where phi is
    the bijection s -> 36 s tan(s) on [0, pi/2).  The result never exceeds
    pi^2 / (4 eps^2).
    """
    _checks.positive(eps, "eps")
    _checks.positive(residual_eps, "residual_eps", strict=False)
    s = _invert_s_tan(eps * residual_eps, 36.0, 1.0, math.pi / 2.0)
    return max(0.0, s * s / eps**2 - lambda1)


# ---------------------------------------------------------------------------
# the Lipschitz correlation LP


def _lp_weights(boundary, a, b, n):
    length = b - a
    h = length / n
    x = a + (np.arange(n) + 0.5) * h
    if _checks.choice(boundary, "boundary", BOUNDARIES) == "periodic":
        w = np.full(n, h / length)
    else:
        w = (2.0 / length) * np.sin(np.pi * (x - a) / length) ** 2 * h
    return x, w, h


@functools.cache
def _lp_pattern(n, periodic):
    """CSC arrays (indptr, indices, data) of the correlation LP's constraint
    rows, built once per (n, boundary) and read-only.

    Rows 2i and 2i + 1 bound +-(phi_i - phi_{i+1}); the last pair closes the
    torus, and Dirichlet drops it.  The mean row comes last, with ones where
    the caller puts its weights: each column's last entry.  Column j meets
    rows 2j - 2 and 2j - 1 (-1, +1), then 2j and 2j + 1 (+1, -1), in
    increasing row order, as `scipy.sparse` lays them out.
    """
    slope_rows = 2 * n if periodic else 2 * n - 2  # also the mean row's index
    rows = np.column_stack((2 * np.arange(n)[:, None] + np.arange(-2, 2), np.full(n, slope_rows)))
    values = np.tile([-1.0, 1.0, 1.0, -1.0, 1.0], (n, 1))
    if periodic:  # column 0 meets its own pair first, then the closing pair
        rows[0, :4] = [0, 1, slope_rows - 2, slope_rows - 1]
        values[0, :4] = [1.0, -1.0, -1.0, 1.0]
    else:  # Dirichlet has no closing pair: column n - 1 has no rows 2n - 2, 2n - 1
        rows[-1, 2:4] = -1
    keep = rows >= 0
    indptr = np.append(0, np.cumsum(keep.sum(axis=1))).astype(np.int32)
    pattern = (indptr, rows[keep].astype(np.int32), values[keep])
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def _highs():
    """The HiGHS binding that scipy ships, loaded without `scipy.optimize` or `scipy.sparse`."""
    return _extension.load("optimize._highspy", "_core")


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

    `interval` (a, b) must be finite with a < b.

    The LP goes straight to the HiGHS binding that scipy ships
    (`scipy.optimize._highspy._core`, a private module, checked on scipy
    1.17), as the same model and options `linprog(method="highs")` would
    build, so every value keeps linprog's bits without its input parsing,
    its per-call sparse conversions and its per-option checks.  `_highs()`
    loads that extension alone, so the LP imports neither `scipy.optimize`
    nor `scipy.sparse`, and its constraint pattern is numpy arrays:
    - columns phi_j with bounds [-1, 1] and cost -(v_j w_j);
    - 2 grid_n slope rows on the torus, 2 (grid_n - 1) for Dirichlet, each
      in [-kHighsInf, slope cap], then the mean row w . phi in [0, 0], with
      the pattern of `_lp_pattern`, built once per (grid_n, boundary);
    - options presolve "on", dual simplex, no debug checks, no output.
    linprog's two refusals are kept, each an `ArithmeticError`: a model
    status other than optimal, and a solution outside its constraints by more
    than linprog's tolerance 10 sqrt(1e-9) (or with a NaN in it).  A
    non-finite cost is a `ValueError`, as linprog's input check made it.
    """
    n = _checks.count(grid_n, "grid_n", 8)
    a, b = (field.a, field.b) if interval is None else _checks.interval(interval, "interval")
    length = b - a
    x, w, h = _lp_weights(boundary, a, b, n)
    cost = -(np.asarray(field(x), dtype=float) * w)
    if not np.isfinite(cost).all():
        raise ValueError("correlation LP cost must be finite (field values times weights)")
    slope_cap = 2.0 * math.pi / length * h

    indptr, indices, data = _lp_pattern(n, boundary == "periodic")
    data = data.copy()
    data[indptr[1:] - 1] = w  # each column's last entry is its mean-row weight
    slope_rows = int(indices[-1])  # the mean row's index
    highs = _highs()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = slope_rows + 1
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    lp.col_cost_ = cost
    lp.col_lower_ = np.full(n, -1.0)
    lp.col_upper_ = np.full(n, 1.0)
    lp.row_lower_ = np.append(np.full(slope_rows, -highs.kHighsInf), 0.0)
    lp.row_upper_ = np.append(np.full(slope_rows, slope_cap), 0.0)
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise ArithmeticError(f"correlation LP failed: {solver.modelStatusToString(status)}")

    solution = solver.getSolution()
    phi = np.array(solution.col_value)
    row = np.array(solution.row_value)
    fun = solver.getInfo().objective_function_value
    tol = 10.0 * math.sqrt(1e-9)
    slack = slope_cap - row[:slope_rows]
    if (np.isnan(phi).any() or np.isnan(fun) or np.isnan(row).any()
            or not np.all((phi >= -1.0 - tol) & (phi <= 1.0 + tol))
            or (slack < -tol).any() or abs(row[slope_rows]) > tol):
        raise ArithmeticError("correlation LP failed: the solution breaks its constraints "
                              f"by more than {tol:.2e}")
    return max(0.0, -fun)


# ---------------------------------------------------------------------------
# affine residuals of the primitive


def full_affine_residual(field):
    """Affine least-squares residual of the primitive over the field's whole domain."""
    return field.primitive(base=field.a).affine_residual(field.a, field.b)


def min_affine_residual(field, eps, j_points=129):
    """Worst-case affine residual of the primitive at scale eps.

    Minimum over subintervals J of the field's domain of length >= 2 eps,
    endpoints scanned on a uniform lattice of `j_points` points, of the exact
    affine least-squares residual of the primitive of the field on J.
    Nondecreasing in eps for a fixed lattice.
    """
    a, b = field.a, field.b
    # eps = |I|/2 is admitted: exactly one window (J = I) qualifies there, and
    # the table always holds it
    if not (_checks.finite(eps) and 0.0 < eps <= 0.5 * (b - a)):
        raise ValueError(f"eps must lie in (0, {0.5 * (b - a):g}], got {eps!r}")
    _checks.count(j_points, "j_points", 2)
    table = field.primitive(base=a).window_table(a, b, j_points, 2.0 * eps)
    return _min_residual(table, eps)


def _min_residual(table, eps):
    """Smallest residual in a `Primitive.window_table` over windows of length >= 2 eps."""
    return float(table[table[:, 1] - table[:, 0] >= 2.0 * eps - 1e-12, 4].min())


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
    if not 0.0 < _checks.number(ell, "ell") <= 0.5:
        raise ValueError(f"ell must lie in (0, 1/2], got {ell}")
    _checks.positive(dv, "dv")
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
    if not 0.0 < _checks.number(length, "length") <= 1.0:
        raise ValueError(f"length must lie in (0, 1], got {length}")
    _checks.positive(oscillation, "oscillation", strict=False)
    if not _checks.number(correlation, "correlation") > 0.0:
        raise ArithmeticError("correlation must be positive; the bound is undefined otherwise")
    if not _checks.number(k_const, "k_const") >= 1.0:
        raise ValueError(f"k_const must be at least 1, got {k_const}")
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
    _checks.positive(t_star, "t_star")
    if not 0.0 < _checks.number(alpha_star, "alpha_star") < 1.0:
        raise ValueError(f"alpha_star must lie in (0, 1), got {alpha_star}")
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
    t_star_steps = _checks.count(t_star_steps, "t_star_steps", 1)
    c, rho = doeblin_constants(float(t_star_steps), alpha_star)
    horizon = _checks.count(horizon, "horizon", 0)
    p = _checks.finite_array(kernel, "kernel")
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("kernel must be a square matrix")
    n = p.shape[0]
    if np.any(p < -1e-12):
        raise MinorizationError("kernel has a negative entry")
    if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise MinorizationError("kernel rows must sum to 1")
    if not np.allclose(p.sum(axis=0), 1.0, atol=1e-9):
        raise MinorizationError("kernel columns must sum to 1 (uniform must be invariant)")
    pt = np.linalg.matrix_power(p, t_star_steps)
    floor = alpha_star / n
    if pt.min() < floor - 1e-12:
        idx = tuple(map(int, np.unravel_index(int(np.argmin(pt)), pt.shape)))
        raise MinorizationError(
            f"entry {idx} of the {t_star_steps}-step kernel is {pt[idx]:.3e} < {floor:.3e}",
            entry=idx,
        )
    tv = np.empty(horizon)
    bound = np.empty(horizon)
    violation = None
    pm = np.eye(n)
    for m in range(1, horizon + 1):
        pm = pm @ p
        tv[m - 1] = 0.5 * np.abs(pm - 1.0 / n).sum(axis=1).max()
        bound[m - 1] = max(0.0, 1.0 - c * math.exp(-rho * m)) / n
        if pm.min() < bound[m - 1] - 1e-12 and violation is None:
            idx = tuple(map(int, np.unravel_index(int(np.argmin(pm)), pm.shape)))
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
        raise TypeError(f"field must be a VelocityField, got {type(field).__name__}")
    _checks.torus_field(field, "field")
    eps_grid = _checks.finite_array(eps_grid, "eps_grid")
    if eps_grid.ndim != 1 or not len(eps_grid):
        raise ValueError("eps_grid must not be empty")
    half = 0.5 * field.length
    if not ((eps_grid > 0.0) & (eps_grid <= half)).all():
        raise ValueError(f"eps_grid entries must lie in (0, {half:g}], got {eps_grid.tolist()}")
    eps_grid = eps_grid.tolist()  # floats, as the report's table keys
    domain = (field.a, field.b)
    interval = (domain if flatness_interval is None
                else _checks.interval(flatness_interval, "flatness_interval", *domain))
    _checks.count(j_points, "j_points", 2)
    prov = {}
    osc = field.oscillation()
    corr = lipschitz_correlation(field, boundary="periodic", grid_n=grid_n)
    prov["lip_correlation"] = f"lp-{grid_n}"
    res_full = full_affine_residual(field)
    # one table of lattice windows over the domain serves every eps, and the
    # flatness scan too when its interval is the domain
    length = interval[1] - interval[0]
    scan_eps = [e * length for e in (0.1, 0.2, 0.4, 0.8)]
    shortest = [2.0 * eps for eps in eps_grid]
    if interval == domain:
        shortest.append(scan_eps[0])
    table = field.primitive(base=field.a).window_table(*domain, j_points, min(shortest))
    res_table = {eps: _min_residual(table, eps) for eps in eps_grid}
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
