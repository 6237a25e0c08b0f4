"""Closed-form heat kernels and the explicit Kolmogorov fundamental solution.

Line, torus and Dirichlet-interval heat kernels are evaluated with certified
series tails (below 1e-14, with no cap on the term count: the torus image
count grows like sqrt(t) and the sine series like 1/sqrt(t)).  The plane
kernel of the equation du/dt = dxx u - x dy u is built from the quadratic cost
of its minimum-energy control problem and normalized to unit mass.  A time t
that is not finite and positive, a point or start that is not a finite number
and a torus cell that is reversed or longer than 1 are refused before any
series is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "heat_line",
    "heat_torus",
    "heat_torus_cell_mass",
    "heat_dirichlet",
    "KolmogorovState",
    "ControlSolution",
    "kolmogorov_cost",
    "kolmogorov_control",
    "kolmogorov_kernel",
    "KOLMOGOROV_NORMALIZATION",
]

TAIL_TOL = 1e-14
# terms times points of the sine series summed per numpy pass
SERIES_CHUNK = 1 << 16


def heat_line(x, t):
    """Heat kernel on the line, (4 pi t)^{-1/2} exp(-x^2 / 4t)."""
    _checks.positive(t, "t")
    x = _checks.finite_array(x, "x")
    out = np.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return out if out.shape else float(out)


def _term_count(tail):
    """The first m >= 1 with tail(m) <= TAIL_TOL, for a nonincreasing tail.

    Doubling finds an m with tail(m) <= TAIL_TOL, then bisection the first
    one: O(log m) evaluations of the tail.
    """
    hi = 1
    while tail(hi) > TAIL_TOL:
        hi *= 2
    lo = hi // 2  # 0, or a count whose tail is above TAIL_TOL
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) > TAIL_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def _torus_images(t):
    from scipy.special import erfc

    _checks.positive(t, "t")
    # tail of the image sum is below erfc((M - 1/2) / (2 sqrt(t))): M ~ 11 sqrt(t)
    return _term_count(lambda m: float(erfc((m - 0.5) / (2.0 * math.sqrt(t)))))


def heat_torus(x, xp=0.0, t=0.125):
    """Heat kernel on the unit torus via the image sum.

    Dominates the line kernel at the wrapped offset and converges to the
    uniform density 1 as t grows.
    """
    m = _torus_images(t)
    d = _checks.finite_array(x, "x") - _checks.finite_array(xp, "xp")
    d = d - np.round(d)  # wrap to [-1/2, 1/2]
    out = np.zeros_like(d, dtype=float)
    for j in range(-m, m + 1):
        out += np.exp(-((d + j) ** 2) / (4.0 * t))
    out /= math.sqrt(4.0 * math.pi * t)
    return out if out.shape else float(out)


def heat_torus_cell_mass(x0, lo, hi, t):
    """Exact mass the torus kernel started at x0 assigns to the cell [lo, hi]."""
    from scipy.special import erf

    m = _torus_images(t)
    _checks.number(x0, "x0")
    _checks.interval((lo, hi), "cell", lo, lo + 1.0)  # at most one torus long
    s = 2.0 * math.sqrt(t)
    total = 0.0
    for j in range(-m, m + 1):
        total += 0.5 * (erf((hi - x0 + j) / s) - erf((lo - x0 + j) / s))
    return float(total)


def heat_dirichlet(x, xp, interval=(0.0, 1.0), t=0.125):
    """Heat kernel on an interval with absorbing endpoints (sine series)."""
    from scipy.special import erfc

    _checks.positive(t, "t")
    a, b = _checks.interval(interval, "interval")
    length = b - a
    q = math.pi**2 * t / length**2

    def tail(m):
        # sum_{k>m} e^{-k^2 q} <= integral, evaluated through erfc
        return (2.0 / length) * 0.5 * math.sqrt(math.pi / q) * float(erfc(m * math.sqrt(q)))

    m = _term_count(tail)
    x, xp = _checks.finite_array(x, "x"), _checks.finite_array(xp, "xp")
    for points, name in ((x, "x"), (xp, "xp")):
        if np.any((points < a - 1e-12) | (points > b + 1e-12)):
            raise ValueError(f"{name} must lie inside the interval [{a:g}, {b:g}]")
    out = np.zeros(np.broadcast(x, xp).shape, dtype=float)
    u = math.pi * (x - a) / length
    v = math.pi * (xp - a) / length
    # terms k = 1..m in chunks, each added to out in order of k: accumulate
    # sums strictly left to right (a sum would pair terms), and math.exp and
    # these sin calls give the bits of the term-by-term loop (k * k in floats
    # is one rounding of the exact square, as float(k**2) is)
    chunk = max(1, SERIES_CHUNK // max(out.size, 1))
    for first in range(1, m + 1, chunk):
        ks = np.arange(first, min(first + chunk, m + 1), dtype=float)
        decay = np.fromiter(map(math.exp, (-(ks * ks) * q).tolist()), float, len(ks))
        ks = ks.reshape((-1,) + (1,) * out.ndim)
        terms = decay.reshape(ks.shape) * np.sin(ks * u) * np.sin(ks * v)
        out = np.add.accumulate(np.concatenate((out[None], terms)), axis=0)[-1]
    out *= 2.0 / length
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# the plane kernel of du/dt = dxx u - x dy u

# unit-mass normalization: the x and y Gaussian factors integrate to
# sqrt(4 pi t) and sqrt(pi t^3 / 3), whose product is 2 pi t^2 / sqrt(3)
KOLMOGOROV_NORMALIZATION = math.sqrt(3.0) / (2.0 * math.pi)


@dataclass(frozen=True)
class KolmogorovState:
    """Endpoint data (x0, y0) -> (x, y) in time t > 0 on the plane."""

    x0: float
    y0: float
    x: float
    y: float
    t: float

    def __post_init__(self):
        _checks.positive(self.t, "t")


@dataclass(frozen=True)
class ControlSolution:
    """Minimum-energy control w(s) = a + 2 b s steering the endpoint problem."""

    a: float
    b: float
    cost: float


def kolmogorov_cost(t, x, y, x0=0.0, y0=0.0):
    """Quadratic action (x-x0)^2/(4t) + 3 (y - y0 - (x+x0) t / 2)^2 / t^3."""
    _checks.positive(t, "t")
    x, y = _checks.finite_array(x, "x"), _checks.finite_array(y, "y")
    x0, y0 = _checks.number(x0, "x0"), _checks.number(y0, "y0")
    straight = y - y0 - 0.5 * (x + x0) * t
    out = (x - x0) ** 2 / (4.0 * t) + 3.0 * straight**2 / t**3
    return out if out.shape else float(out)


def kolmogorov_control(state):
    """Solve the two-by-two endpoint system for the affine optimal control.

    The control w(s) = a + 2 b s drives dX = w, dY = X from (x0, y0) to
    (x, y) in time t with minimal integral of w^2/4; that minimal value
    coincides with kolmogorov_cost on the same endpoints.
    """
    t = state.t
    rhs = np.array([state.x - state.x0, state.y - state.y0 - state.x0 * t])
    # endpoint constraints: [[t, t^2], [t^2/2, t^3/3]] (a, b) = rhs
    mat = np.array([[t**2 / 3.0, -t], [-t / 2.0, 1.0]])
    a, b = -6.0 / t**3 * (mat @ rhs)
    cost = 0.25 * (a * a * t + 2.0 * a * b * t * t + 4.0 / 3.0 * b * b * t**3)
    return ControlSolution(float(a), float(b), float(cost))


def kolmogorov_kernel(t, x, y, x0=0.0, y0=0.0):
    """Unit-mass fundamental solution of du/dt = dxx u - x dy u on the plane."""
    cost = kolmogorov_cost(t, x, y, x0, y0)  # refuses a bad t, point or start
    out = np.asarray(KOLMOGOROV_NORMALIZATION / t**2 * np.exp(-cost))
    return out if out.shape else float(out)
