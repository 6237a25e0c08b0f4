"""Velocity fields on the torus or an interval.

A velocity field V is a bounded function given in one of four concrete
representations: piecewise constant, piecewise linear, grid-sampled
(midpoint-held step function), or a named closed form (sine, sawtooth,
heaviside, binary cascade).  Every representation supports exact pointwise
evaluation, exact oscillation (sup - inf), an exact primitive, plateau
detection, and quantitative non-flatness estimation.

Conventions: cells of step-like representations are right-open, and torus
fields wrap their argument modulo 1.  The value at a breakpoint is the value
of the cell starting there; this is a convention, not a modelling statement
(breakpoints form a null set).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _checks
from ._checks import DomainError

__all__ = [
    "DomainError",
    "Plateau",
    "PlateauPair",
    "FlatnessEstimate",
    "VelocityField",
    "PiecewiseConstantField",
    "PiecewiseLinearField",
    "GridField",
    "SineField",
    "SawtoothField",
    "HeavisideField",
    "BinaryCascadeField",
    "Primitive",
    "field_from_config",
    "two_plateau",
    "estimate_flatness_constant",
]


class Plateau(NamedTuple):
    """Maximal interval (left, right, value) on which V is constant.

    For a torus field whose constancy interval wraps through 0, `right`
    exceeds 1 and the interval is understood modulo 1.
    """

    left: float
    right: float
    value: float

    @property
    def length(self):
        return self.right - self.left


@dataclass(frozen=True)
class PlateauPair:
    """Two plateaus of V at distinct heights, ordered left to right."""

    first: Plateau
    second: Plateau

    @property
    def ell(self):
        """Length of the shorter plateau."""
        return min(self.first.length, self.second.length)

    @property
    def dv(self):
        """Absolute height difference between the plateaus."""
        return abs(self.first.value - self.second.value)


@dataclass(frozen=True)
class FlatnessEstimate:
    """Result of the non-flatness scan on an interval.

    `constant` is the smallest admissible constant (clamped below at 1) for
    which every scanned scale/subinterval satisfies the exponential residual
    lower bound; it is estimated on finite grids, never certified.  When a
    scanned subinterval has zero affine residual (V is flat there) the scan
    is infeasible and `witness` records the offending subinterval.
    """

    constant: float
    feasible: bool
    witness: tuple | None
    table: dict


# ---------------------------------------------------------------------------
# quadrature helpers (exact for piecewise polynomials of modest degree)

@functools.cache
def _gauss_rule(order):
    return np.polynomial.legendre.leggauss(order)


def _panel_quadrature(lefts, rights, order):
    """Gauss-Legendre nodes/weights over the panels [lefts[k], rights[k]], panel by panel."""
    base, wts = _gauss_rule(order)
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (lefts + rights)
    return (mid[:, None] + half[:, None] * base).ravel(), (half[:, None] * wts).ravel()


_BATCH_NODES = 1 << 15  # quadrature nodes per PV evaluation of a window scan


class Primitive:
    """Antiderivative PV of a velocity field, zero at the base point that the
    field's `primitive(base)` chose.

    PV is Lipschitz with constant sup|V|.  A point, and a window [alpha,
    beta], must lie in the domain [a, b] up to 1e-12 (`_checks.inside`); a
    torus primitive wraps a point but not a window.  A subclass evaluates PV
    (`_eval_inside`) and gives its panel rule for windows [alpha, beta] as
    array expressions over many windows at once: `_counts(alphas, betas)`,
    each window's panel count, and `_lefts(alphas, betas, counts, k)`, the
    left ends of all their panels laid window after window (k is a panel's
    index within its window; the next panel's left end, or beta, closes it).
    The QUAD_ORDER-point Gauss-Legendre rule on each panel integrates PV and
    its square exactly (or to machine accuracy).  The affine least-squares
    residual over a window is computed in two passes, first fitting the
    optimal affine function from moments and then integrating the squared
    deviation directly so the result is nonnegative by construction.

    `window_table` orders a lattice's windows by panel count and fits them in
    batches of about _BATCH_NODES quadrature nodes: a batch's panels get
    their nodes in one array expression and PV one evaluation, and the
    windows of one node count share each step of the fit, their three inner
    products each one stacked `np.matmul`.  numpy computes those with the dot
    routine `np.dot` uses on one window, and every other step is elementwise,
    so each window keeps the bits of fitting it alone (`affine_residual`).
    """

    def __init__(self, a, b, periodic, full_integral):
        self.a = float(a)
        self.b = float(b)
        self.periodic = bool(periodic)
        self.full_integral = float(full_integral)

    def _eval_inside(self, x):
        raise NotImplementedError

    def _counts(self, alphas, betas):
        """Panel count of each window [alphas[j], betas[j]]."""
        raise NotImplementedError

    def _lefts(self, alphas, betas, counts, k):
        """Left ends of the windows' panels, window after window, exact for this
        primitive's class; k is each panel's index within its window."""
        raise NotImplementedError

    def __call__(self, x):
        x = _checks.finite_array(x, "x")
        if self.periodic:
            span = self.b - self.a
            wraps = np.floor((x - self.a) / span)
            inside = x - wraps * span
            out = self._eval_inside(inside) + wraps * self.full_integral
        else:
            out = self._eval_inside(_checks.inside(x, "x", self.a, self.b))
        return out if out.shape else float(out)

    def _panels(self, alphas, betas):
        """(lefts, rights, counts): the panels of the windows [alphas[j], betas[j]]
        laid window after window, and each window's panel count."""
        counts = self._counts(alphas, betas)
        ends = np.cumsum(counts)
        k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)  # index within the window
        lefts = self._lefts(alphas, betas, counts, k)
        rights = np.empty_like(lefts)
        rights[:-1] = lefts[1:]
        rights[ends - 1] = betas
        return lefts, rights, counts

    def _fit(self, alphas, betas):
        """Table of (alpha, beta, p, q, residual) lines for the least-squares affine
        fits p*x + q of PV on the windows [alphas[j], betas[j]], windows of equal
        panel count side by side, from one evaluation of PV."""
        lefts, rights, counts = self._panels(alphas, betas)
        xs, ws = _panel_quadrature(lefts, rights, self.QUAD_ORDER)
        vals = self._eval_inside(xs)
        length = betas - alphas
        mid = 0.5 * (alphas + betas)
        # a scalar ** 3, as a fit of one window takes it: numpy's array ** 3
        # differs from it on about 5 % of lattice lengths
        cubes = np.array([span**3 for span in length.tolist()])
        table = np.empty((len(alphas), 5))
        table[:, 0], table[:, 1] = alphas, betas
        firsts = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), len(counts)]
        starts = self.QUAD_ORDER * np.concatenate([[0], np.cumsum(counts)])
        for first, stop in zip(firsts, firsts[1:]):
            # the windows first..stop-1 have the same node count, side by side
            rows = slice(first, stop)
            x, w, v = (a[starts[first]:starts[stop]].reshape(stop - first, -1) for a in (xs, ws, vals))
            w = w[:, None, :]
            d0 = np.matmul(w, v[:, :, None])[:, 0, 0] / length[rows]
            # one scratch array, updated in place, holds (x - mid) * v and then dev * dev
            y = x - mid[rows, None]
            y *= v
            p = np.matmul(w, y[:, :, None])[:, 0, 0] * 12.0 / cubes[rows]
            q = d0 - p * mid[rows]
            np.multiply(p[:, None], x, out=y)
            y += q[:, None]
            np.subtract(v, y, out=y)  # dev = v - (p * x + q)
            y *= y
            table[rows, 2], table[rows, 3] = p, q
            table[rows, 4] = np.matmul(w, y[:, :, None])[:, 0, 0]
        return table

    def affine_residual(self, alpha, beta):
        """inf over (p, q) of the integral of |PV - p x - q|^2 over [alpha, beta],
        a window inside [a, b]."""
        alpha, beta = _checks.interval((alpha, beta), "window")
        # past b the fit would read the end segments extended, not the torus wrap
        _checks.inside((alpha, beta), "window", self.a, self.b)
        return float(self._fit(np.array([alpha]), np.array([beta]))[0, 4])

    def window_table(self, lo, hi, points, min_len):
        """(count, 5) array of (left, right, p, q, residual) lines for the windows
        of length >= min_len on the uniform `points`-point lattice of [lo, hi],
        in lattice order; [lo, hi] must lie in [a, b].  The lattice needs at
        least 2 points, so [lo, hi] is a window of the table when min_len allows."""
        _checks.count(points, "points", 2)
        _checks.positive(min_len, "min_len", strict=False)
        _checks.interval((lo, hi), "window")
        _checks.inside((lo, hi), "window", self.a, self.b)
        grid = np.linspace(lo, hi, points)
        left, right = np.triu_indices(points, 1)
        keep = grid[right] - grid[left] >= min_len - 1e-12
        alphas, betas = grid[left[keep]], grid[right[keep]]
        counts = self._counts(alphas, betas)
        order = np.argsort(counts, kind="stable")
        # a batch is the windows whose first node falls in one _BATCH_NODES span
        starts = self.QUAD_ORDER * (np.cumsum(counts[order]) - counts[order])
        table = np.empty((len(order), 5))
        for batch in np.split(order, np.flatnonzero(np.diff(starts // _BATCH_NODES)) + 1):
            if len(batch):
                table[batch] = self._fit(alphas[batch], betas[batch])
        return table


class PiecewisePolyPrimitive(Primitive):
    """Primitive stored as per-segment quadratics in local coordinates."""

    QUAD_ORDER = 3  # exact through degree 5, enough for squared quadratics

    def __init__(self, nodes, coeffs, base, periodic):
        nodes = np.asarray(nodes, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)  # rows (c0, c1, c2)
        full = _poly_value(nodes, coeffs, nodes[-1])
        super().__init__(nodes[0], nodes[-1], periodic, full)
        offset = _poly_value(nodes, coeffs, base)
        coeffs = coeffs.copy()
        coeffs[:, 0] -= offset
        self.nodes = nodes
        self.coeffs = coeffs

    def _eval_inside(self, x):
        return _poly_value(self.nodes, self.coeffs, x)

    # a window's panels are cut at alpha, at the breakpoints strictly inside
    # it (nodes increase strictly) and at beta

    def _counts(self, alphas, betas):
        inner = self.nodes[1:-1]
        return inner.searchsorted(betas, side="left") - inner.searchsorted(alphas, side="right") + 1

    def _lefts(self, alphas, betas, counts, k):
        # panel k >= 1 starts at the k-th breakpoint after alpha, nodes[first + k]
        first = self.nodes[1:-1].searchsorted(alphas, side="right")
        lefts = self.nodes[np.repeat(first, counts) + k]
        lefts[k == 0] = alphas
        return lefts


def _poly_value(nodes, coeffs, x):
    """Piecewise quadratic with rows (c0, c1, c2) in local coordinates at x;
    points outside [nodes[0], nodes[-1]] extend the end segments."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(coeffs) - 1)
    u = x - nodes[idx]
    c = np.take(coeffs, idx, axis=0)  # 2.5x faster than coeffs[idx] on 32k points
    return c[..., 0] + u * (c[..., 1] + u * c[..., 2])


class SmoothPrimitive(Primitive):
    """Primitive given in closed form, integrated by dense Gauss panels.

    A window [alpha, beta] has max(8, ceil((beta - alpha) * panels_per_unit))
    equal panels, cut where np.linspace(alpha, beta, n + 1) cuts it.
    """

    QUAD_ORDER = 10

    def __init__(self, fn, a, b, periodic, full_integral, panels_per_unit):
        super().__init__(a, b, periodic, full_integral)
        self._fn = fn
        self._per_unit = panels_per_unit

    def _eval_inside(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def _counts(self, alphas, betas):
        return np.maximum(8, np.ceil((betas - alphas) * self._per_unit).astype(np.intp))

    def _lefts(self, alphas, betas, counts, k):
        # linspace's own arithmetic, k * ((beta - alpha) / n) + alpha
        return k * np.repeat((betas - alphas) / counts, counts) + np.repeat(alphas, counts)


# ---------------------------------------------------------------------------
# velocity field representations


class VelocityField:
    """Base class; concrete representations override the evaluation hooks.

    Fields are immutable after construction and all operations are pure, so
    instances may be shared freely across workers.
    """

    kind = "abstract"

    def __init__(self, domain=None):
        """`domain` is None or "torus" for the unit torus, else an interval [a, b]."""
        if isinstance(domain, str):
            _checks.choice(domain, "domain", ("torus",))
            domain = None
        if domain is None:
            self.domain, self.a, self.b, self.periodic = None, 0.0, 1.0, True
        else:
            self.domain = list(_checks.interval(domain, "domain"))
            self.a, self.b = self.domain
            self.periodic = False

    @property
    def length(self):
        return self.b - self.a

    def __call__(self, x):
        x = _checks.finite_array(x, "x")
        if self.periodic:
            x = self.a + np.mod(x - self.a, self.length)
        else:
            x = _checks.inside(x, "x", self.a, self.b)
        out = self._eval_inside(x)
        return out if out.shape else float(out)

    def _eval_inside(self, x):
        raise NotImplementedError

    def range(self):
        """Exact (inf, sup) of the representation's reachable values."""
        raise NotImplementedError

    def oscillation(self):
        lo, hi = self.range()
        return hi - lo

    def bound(self):
        lo, hi = self.range()
        return max(abs(lo), abs(hi))

    def primitive(self, base=None):
        raise NotImplementedError

    def plateaus(self, min_length=0.0):
        """Maximal constancy intervals of length >= min_length, left to right."""
        _checks.positive(min_length, "min_length", strict=False)
        return [p for p in self._all_plateaus() if p.length >= min_length]

    def _all_plateaus(self):
        # a field without flat pieces has a plateau only when it is constant
        lo, hi = self.range()
        return [Plateau(self.a, self.b, hi)] if lo == hi else []

    def find_plateau_pair(self):
        """Best pair of plateaus at distinct heights, or None.

        The pair maximizes the shorter length, ties broken by larger height
        difference, then by the leftmost left endpoint.
        """
        # plateaus come left to right, so each combination is an ordered pair,
        # and max keeps the first of equally good pairs
        pairs = (PlateauPair(p, r) for p, r in itertools.combinations(self._all_plateaus(), 2)
                 if p.value != r.value)
        return max(pairs, key=lambda pair: (pair.ell, pair.dv, -pair.first.left), default=None)

    def to_config(self):
        """The kind and each constructor parameter, read from the attribute of its
        name; None is left out, and arrays and lists are written as lists."""
        cfg = {"kind": self.kind}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            if value is not None:
                cfg[name] = list(value) if isinstance(value, (list, np.ndarray)) else value
        return cfg

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


class _StepField(VelocityField):
    """Shared machinery for representations that are step functions; a
    subclass sets its domain, then its cells with `_set_cells`: increasing
    edges that tile the domain, and one value per cell."""

    def _set_cells(self, edges, values):
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        self.edges = edges
        self.values = values
        self._table = _dyadic_table(edges, values)

    def _eval_inside(self, x):
        if self._table is not None:
            # x * 2**j is exact, so truncation finds the dyadic cell; the clip
            # sends x < 0 and x >= 1 to the end cells, as the binary search does
            idx = (x * len(self._table)).astype(np.intp)
            return np.take(self._table, idx, mode="clip")
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.values) - 1)
        return self.values[idx]

    def range(self):
        return float(self.values.min()), float(self.values.max())

    def primitive(self, base=None):
        base = self.a if base is None else float(base)
        widths = np.diff(self.edges)
        cumint = np.concatenate([[0.0], np.cumsum(widths * self.values)])
        coeffs = np.column_stack([cumint[:-1], self.values, np.zeros_like(self.values)])
        return PiecewisePolyPrimitive(self.edges, coeffs, base, self.periodic)

    def _all_plateaus(self):
        return _constant_runs(self.edges, self.values, self.periodic)


_MAX_TABLE_BITS = 16  # the deepest binary cascade has 2**16 cells


def _dyadic_table(edges, values):
    """Cell values on the coarsest grid k/2**j of [0, 1] holding every edge.

    Returns None when an edge is not dyadic, or is finer than
    2**-_MAX_TABLE_BITS; those fields keep the binary search.
    """
    if edges[0] != 0.0 or edges[-1] != 1.0:
        return None
    for bits in range(_MAX_TABLE_BITS + 1):
        n = 1 << bits
        if np.all(edges * n == np.floor(edges * n)):
            left = np.arange(n) / n
            idx = np.searchsorted(edges, left, side="right") - 1
            return values[idx]
    return None


def _constant_runs(edges, values, periodic):
    """Maximal runs of equal values over the cells [edges[i], edges[i + 1]].

    A NaN cell ends a run and starts none.  On the torus a run reaching the
    last edge continues an equal run from the first edge, through the seam.
    """
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    ends = np.append(starts[1:], len(values))
    runs = [[edges[i], edges[j], values[i]] for i, j in zip(starts, ends)
            if not np.isnan(values[i])]
    if periodic and len(runs) > 1 and runs[0][0] == edges[0] and runs[-1][1] == edges[-1] \
            and runs[0][2] == runs[-1][2]:
        first = runs.pop(0)
        runs[-1][1] = first[1] + (edges[-1] - edges[0])
    return [Plateau(*map(float, run)) for run in runs]


class PiecewiseConstantField(_StepField):
    """Step function given by left cell edges and cell values."""

    kind = "piecewise_constant"

    def __init__(self, breakpoints, values, domain=None):
        super().__init__(domain)
        breakpoints = _checks.finite_array(breakpoints, "breakpoints")
        if breakpoints.ndim != 1 or not len(breakpoints) or abs(breakpoints[0] - self.a) > 1e-12:
            raise DomainError(f"breakpoints must be a sequence from the domain start {self.a:g}")
        values = _checks.finite_array(values, "values")
        if values.shape != breakpoints.shape:
            raise ValueError(f"values must have the shape {breakpoints.shape}, got {values.shape}")
        edges = np.append(breakpoints, self.b)
        if np.any(np.diff(edges) <= 0):
            raise ValueError(f"breakpoints must increase strictly below the domain end {self.b:g}")
        self._set_cells(edges, values)
        self.breakpoints = self.edges[:-1]


class GridField(_StepField):
    """N equispaced midpoint-held samples, i.e. a step function on N cells."""

    kind = "grid"

    def __init__(self, samples, domain=None):
        super().__init__(domain)
        samples = _checks.finite_array(samples, "samples")
        if samples.ndim != 1 or len(samples) < 1:
            raise ValueError("samples must be a nonempty 1D sequence")
        self._set_cells(np.linspace(self.a, self.b, len(samples) + 1), samples)
        self.samples = self.values


class HeavisideField(_StepField):
    """Two-level field: `high` on [0, 1/2), `low` on [1/2, 1)."""

    kind = "heaviside"

    def __init__(self, high=1.0, low=0.0):
        super().__init__()
        self.high = _checks.number(high, "high")
        self.low = _checks.number(low, "low")
        self._set_cells([0.0, 0.5, 1.0], [self.high, self.low])


class BinaryCascadeField(_StepField):
    """Field whose value flips sign with each binary digit of x.

    V(x) = sum_k a_k (-1)^{b_k} with a_k = exp(-c 4^k) and b_k the binary
    digits of x; terms below `tail_tol` are dropped, which truncates the
    cascade at a finite digit depth.  As an idealized object the cascade has
    no plateau, so plateau queries report none even though the truncated
    evaluator is piecewise constant on dyadic cells.

    The depth is also capped at MAX_DEPTH.  `first_dropped` is the first
    coefficient left out, and `truncated` is true when the cap cut the
    cascade, i.e. when a_{MAX_DEPTH+1} is still at least `tail_tol` (at
    c = 1e-9 the last term kept is about 0.0137 and the first dropped about
    3.5e-8).  Neither is part of the config.
    """

    kind = "binary_cascade"
    MAX_DEPTH = 16

    def __init__(self, c=1.0, tail_tol=1e-15):
        _checks.positive(c, "c")
        super().__init__()
        self.c = float(c)
        self.tail_tol = _checks.number(tail_tol, "tail_tol")
        coefs = []
        for k in range(1, self.MAX_DEPTH + 2):
            ak = math.exp(-self.c * 4.0**k)
            if ak < self.tail_tol or k > self.MAX_DEPTH:
                break
            coefs.append(ak)
        self.first_dropped = ak
        self.truncated = ak >= self.tail_tol
        self.coefficients = np.asarray(coefs)
        depth = len(coefs)
        if depth == 0:
            edges, values = np.array([0.0, 1.0]), np.array([0.0])
        else:
            cells = np.arange(2**depth)
            values = np.zeros(2**depth)
            for k in range(1, depth + 1):
                bit = (cells >> (depth - k)) & 1
                values += coefs[k - 1] * (1.0 - 2.0 * bit)
            edges = np.linspace(0.0, 1.0, 2**depth + 1)
        self._set_cells(edges, values)

    def _all_plateaus(self):
        # judged as the idealized cascade, like a closed-form field, not by its cells
        return VelocityField._all_plateaus(self)


class PiecewiseLinearField(VelocityField):
    """Continuous piecewise-linear interpolant of (knot, value) pairs.

    On the torus the last segment closes the loop from the final knot back to
    the first value at x = 1.
    """

    kind = "piecewise_linear"

    def __init__(self, knots, values, domain=None):
        super().__init__(domain)
        knots = _checks.finite_array(knots, "knots")
        values = _checks.finite_array(values, "values")
        least = 1 if self.periodic else 2
        if knots.ndim != 1 or len(knots) < least:
            raise ValueError(f"knots must be a sequence of at least {least} numbers")
        if values.shape != knots.shape:
            raise ValueError(f"values must have the shape {knots.shape}, got {values.shape}")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if abs(knots[0] - self.a) > 1e-12:
            raise DomainError(f"knots must start at the domain start {self.a:g}, got {knots[0]}")
        if self.periodic:
            if knots[-1] >= self.b:
                raise DomainError(f"knots must lie in [0, 1) on the torus, got {knots[-1]}")
            self._x = np.concatenate([knots, [self.b]])
            self._v = np.concatenate([values, [values[0]]])
        else:
            if abs(knots[-1] - self.b) > 1e-12:
                raise DomainError(f"knots must end at the domain end {self.b:g}, got {knots[-1]}")
            self._x = knots
            self._v = values
        self.knots = knots
        self.values = values

    def _eval_inside(self, x):
        return np.interp(x, self._x, self._v)

    def range(self):
        return float(self._v.min()), float(self._v.max())

    def primitive(self, base=None):
        base = self.a if base is None else float(base)
        widths = np.diff(self._x)
        slopes = np.diff(self._v) / widths
        seg_int = widths * (self._v[:-1] + 0.5 * slopes * widths)
        cum = np.concatenate([[0.0], np.cumsum(seg_int)])
        coeffs = np.column_stack([cum[:-1], self._v[:-1], 0.5 * slopes])
        return PiecewisePolyPrimitive(self._x, coeffs, base, self.periodic)

    def _all_plateaus(self):
        # a segment is flat by exact equality of its end values, per the representation
        flat = self._v[:-1] == self._v[1:]
        return _constant_runs(self._x, np.where(flat, self._v[:-1], np.nan), self.periodic)


class SineField(VelocityField):
    """V(x) = amplitude * sin(2 pi frequency x + phase) on the torus."""

    kind = "sine"

    def __init__(self, amplitude=1.0, frequency=1, phase=0.0):
        super().__init__()
        self.amplitude = _checks.number(amplitude, "amplitude")
        _checks.number(frequency, "frequency")
        self.frequency = int(frequency)
        self.phase = _checks.number(phase, "phase")
        if self.frequency != float(frequency) or self.frequency < 1:
            raise ValueError("frequency must be a positive integer")

    def _eval_inside(self, x):
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * x + self.phase)

    def range(self):
        # a full period is always covered, so the range is +-|amplitude|
        return -abs(self.amplitude), abs(self.amplitude)

    def primitive(self, base=None):
        base = 0.0 if base is None else float(base)
        amp, freq, phase = self.amplitude, self.frequency, self.phase
        scale = amp / (2.0 * np.pi * freq)
        c0 = math.cos(2.0 * np.pi * freq * base + phase)

        def pv(x):
            return scale * (c0 - np.cos(2.0 * np.pi * freq * x + phase))

        return SmoothPrimitive(pv, 0.0, 1.0, True, 0.0, panels_per_unit=32 * freq)


class SawtoothField(VelocityField):
    """V(x) = amplitude * x on [0, 1), repeating with a jump at the seam."""

    kind = "sawtooth"

    def __init__(self, amplitude=1.0):
        super().__init__()
        self.amplitude = _checks.number(amplitude, "amplitude")

    def _eval_inside(self, x):
        return self.amplitude * np.asarray(x, dtype=float)

    def range(self):
        lo, hi = sorted((0.0, self.amplitude))
        return lo, hi  # sup over [0, 1) as a supremum, not an attained max

    def primitive(self, base=None):
        base = 0.0 if base is None else float(base)
        coeffs = np.array([[0.0, 0.0, 0.5 * self.amplitude]])
        return PiecewisePolyPrimitive(np.array([0.0, 1.0]), coeffs, base, True)


def two_plateau(low=0.0, high=1.0, split=0.5):
    """Torus field equal to `low` on [0, split) and `high` on [split, 1)."""
    return PiecewiseConstantField([0.0, split], [low, high])


_CONSTRUCTORS = {cls.kind: cls for cls in (
    PiecewiseConstantField, PiecewiseLinearField, GridField, SineField, SawtoothField,
    HeavisideField, BinaryCascadeField)}


def field_from_config(config):
    """Build a velocity field from its JSON description.

    The schema is {"kind": <name>, ...parameters}, the parameters being the
    kind's constructor's, as `VelocityField.to_config` writes them; the CLI
    documentation lists them for each kind.  The config itself must be a
    mapping with a known kind; the constructor decides the keys and the
    values.  Binding its signature refuses an unknown or missing key, and the
    constructor refuses each value that it cannot take (a NaN or an
    infinity, such as JSON's NaN and Infinity, a string, a boolean, null) by
    its parameter's name.  Every refusal is a ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("velocity config must be a mapping")
    cfg = dict(config)
    kind = _checks.choice(cfg.pop("kind", None), "kind", tuple(_CONSTRUCTORS))
    try:
        return _CONSTRUCTORS[kind](**cfg)
    except TypeError as err:  # a key the signature cannot bind, or a value of no usable type
        raise ValueError(f"velocity kind {kind!r}: {err}") from err


# ---------------------------------------------------------------------------
# non-flatness estimation


def estimate_flatness_constant(field, interval, eps_grid, j_points=65):
    """Estimate the non-flatness constant of `field` on `interval`.

    Scans scales eps from `eps_grid` and subintervals J (endpoints on a
    uniform lattice of `j_points` points, |J| >= eps) and returns the largest
    eps^2 * log(1 / (eps * residual)) encountered, clamped below at 1, where
    `residual` is the exact affine least-squares residual of the primitive of
    the field on J.  A zero residual means the field is flat on J and the
    estimate is infeasible; the witness interval is reported.

    `interval` must lie in the field's domain [a, b], as every window of
    `Primitive.window_table` must: the primitive is not wrapped past b.

    The result is a finite-grid estimate of the true constant, not a proof.
    """
    lo, hi = _checks.interval(interval, "interval", field.a, field.b)
    eps_grid = np.sort(_checks.finite_array(eps_grid, "eps_grid")).tolist()
    if not (eps_grid and 0.0 < eps_grid[0] and eps_grid[-1] < hi - lo):  # sorted
        raise ValueError("eps_grid values must lie strictly between 0 and the interval length")
    table = field.primitive(base=lo).window_table(lo, hi, j_points, eps_grid[0])
    return _flatness_from_table(table, eps_grid)


def _flatness_from_table(windows, eps_grid):
    """`estimate_flatness_constant` over a `Primitive.window_table`; windows
    shorter than eps_grid[0] are skipped, and eps_grid must be sorted."""
    left, right, p, q, res = windows.T
    length = right - left
    scanned = length >= eps_grid[0] - 1e-12
    flat = scanned & (res <= 1e-13 * length * (1.0 + p * p + q * q))
    if flat.any():
        first = np.argmax(flat)  # the first flat window in lattice order
        return FlatnessEstimate(math.inf, False, (left[first], right[first]), {})
    length, res = length[scanned], res[scanned]
    table = {}
    best = -math.inf
    for eps in eps_grid:
        admissible = res[length >= eps - 1e-12]
        if not len(admissible):
            continue
        k_eps = eps**2 * math.log(1.0 / (eps * float(admissible.min())))
        table[eps] = k_eps
        best = max(best, k_eps)
    if not table:
        raise ValueError("no admissible subintervals at the requested scales")
    return FlatnessEstimate(max(best, 1.0), True, None, table)
