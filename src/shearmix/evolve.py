"""Evolution of the shear-diffusion equation by Fourier modes in y.

The solution u(t, x, y) on the torus (or a Dirichlet strip in x) is stored
as one complex coefficient vector per transverse mode k; each mode evolves
independently under the operator -d_xx + 2 pi i k V(x), applied through
exact cached matrix exponentials, so there is no time-discretization error
anywhere in this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _checks, functionals
from .spectral import BOUNDARIES, _grid, make_operator

__all__ = [
    "ModeField",
    "Evolution",
    "DecayTrace",
    "StripTrace",
    "field_from_samples",
    "field_to_samples",
    "initial_samples",
    "relax_trace",
    "strip_trace",
    "save_snapshot",
    "load_snapshot",
]


@dataclass
class ModeField:
    """Fourier-in-y representation: coeffs[k + k_max] is the mode-k vector.

    For real data the coefficients satisfy the conjugate symmetry
    mode(-k) == conj(mode(k)).
    """

    coeffs: np.ndarray
    k_max: int
    boundary: str = "periodic"
    interval: tuple = (0.0, 1.0)

    def __post_init__(self):
        _checks.choice(self.boundary, "boundary", BOUNDARIES)
        self.interval = _checks.interval(self.interval, "interval")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or len(self.coeffs) != 2 * self.k_max + 1:
            raise ValueError(f"coeffs must have {2 * self.k_max + 1} rows, got shape "
                             f"{self.coeffs.shape}")

    @property
    def nx(self):
        return self.coeffs.shape[1]

    @property
    def length(self):
        return self.interval[1] - self.interval[0]

    @property
    def h(self):
        return _grid(self.boundary, *self.interval, self.nx)[0]

    def mode(self, k):
        if abs(k) > self.k_max:
            raise IndexError(f"mode {k} beyond cutoff {self.k_max}")
        return self.coeffs[k + self.k_max]

    def mean(self):
        """Global mean of the represented function (mode-0 average)."""
        return float(np.real(self.mode(0).sum() * self.h / self.length))

    def l2_norm(self):
        return math.sqrt(self.h * float(np.sum(np.abs(self.coeffs) ** 2)))

    def deviation(self):
        """L2 distance to the global mean."""
        mask = np.ones(2 * self.k_max + 1, dtype=bool)
        mask[self.k_max] = False
        total = float(np.sum(np.abs(self.coeffs[mask]) ** 2))
        total += float(np.sum(np.abs(self.mode(0) - self.mean()) ** 2))
        return math.sqrt(self.h * total)

    def conjugate_symmetry_defect(self):
        negative = self.coeffs[:self.k_max][::-1]  # modes -1, -2, ..., -k_max
        positive = self.coeffs[self.k_max + 1:]
        return float(np.max(np.abs(negative - np.conj(positive)), initial=0.0))

    def copy(self):
        return ModeField(self.coeffs.copy(), self.k_max, self.boundary, self.interval)


def field_from_samples(u0, k_max=None, boundary="periodic", interval=(0.0, 1.0)):
    """Discrete Fourier transform in y of samples u0[x_i, y_j].

    The y grid is j/ny on the torus; the x grid follows the mode-operator
    convention (periodic nodes, or interior nodes for a Dirichlet strip).
    Requires ny >= 2*k_max + 1 so the retained modes are alias-free.
    """
    u0 = _checks.finite_array(u0, "u0")
    if u0.ndim != 2:
        raise ValueError("u0 must be a 2D array (x by y)")
    ny = u0.shape[1]
    k_max = (ny - 1) // 2 if k_max is None else _checks.count(k_max, "k_max", 0)
    if ny < 2 * k_max + 1:
        raise ValueError(f"k_max must be at most {(ny - 1) // 2}, got {k_max}: ny = {ny} aliases")
    spectrum = np.fft.fft(u0, axis=1) / ny
    coeffs = spectrum.T[np.arange(-k_max, k_max + 1) % ny]
    return ModeField(coeffs, k_max, boundary, interval)


def field_to_samples(field, ny):
    """Evaluate the mode representation back on an x-by-y sample grid."""
    _checks.count(ny, "ny", 2 * field.k_max + 1)  # the stored modes need no aliasing
    spectrum = np.zeros((field.nx, ny), dtype=complex)
    spectrum[:, np.arange(-field.k_max, field.k_max + 1) % ny] = field.coeffs.T
    return np.fft.ifft(spectrum * ny, axis=1).real


def initial_samples(initial, nx, ny, seed=0):
    """Initial data u0[x_i, y_j] on the grid (i/nx, j/ny) of the torus.

    `initial` names the data: `cos_y` is cos(2 pi y) and `cos_xy` is
    cos(2 pi x) cos(2 pi y); `random` sums ten modes cos(2 pi (m x + k y) +
    phase), k = 1, 2 and m = -2..2, with N(0, 1/4) amplitudes and uniform
    phases drawn from `seed`; nx >= 16.
    """
    _checks.choice(initial, "initial", ("cos_y", "cos_xy", "random"))
    nx, ny = _checks.count(nx, "nx", 16), _checks.count(ny, "ny", 1)
    _checks.seed(seed)
    x = np.arange(nx) / nx
    y = np.arange(ny) / ny
    xx, yy = np.meshgrid(x, y, indexing="ij")
    if initial == "cos_y":
        return np.cos(2 * np.pi * yy)
    if initial == "cos_xy":
        return np.cos(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    rng = np.random.default_rng(seed)
    out = np.zeros((nx, ny))
    for k in range(1, 3):
        for m in range(-2, 3):
            out += rng.normal(scale=0.5) * np.cos(
                2 * np.pi * (m * xx + k * yy) + rng.uniform(0, 2 * np.pi))
    return out


class Evolution:
    """Cached per-mode propagators for one velocity field.

    Each stepped field supplies the grid (nx, boundary, interval); operators
    are cached per (|k|, grid), and a negative mode's vector v is stepped by
    the positive mode's propagator P as conj(P conj(v)), with no conjugate
    copy of P.
    """

    def __init__(self, field_v):
        self.field_v = field_v
        self._ops: dict = {}

    def step(self, field, dt):
        """Advance every stored mode by one exact exponential step."""
        out = field.copy()
        for k in range(-field.k_max, field.k_max + 1):
            key = (abs(k), field.nx, field.boundary, tuple(field.interval))
            if key not in self._ops:
                self._ops[key] = make_operator(self.field_v, abs(k), boundary=field.boundary,
                                               interval=field.interval, n=field.nx)
            prop = self._ops[key].propagator(dt)
            v = field.coeffs[k + field.k_max]
            out.coeffs[k + field.k_max] = prop @ v if k >= 0 else np.conj(prop @ np.conj(v))
        return out

    def trajectory(self, field, t_end, n_samples):
        """Iterator of (t, state) at the n_samples times linspace(0, t_end, n_samples).

        The arguments are checked at the call.  The state at t = 0 is `field`
        itself; each later state is one exact step of times[1] - times[0]
        from the one before, stepped as it is read.
        """
        times = np.linspace(0.0, _checks.positive(t_end, "t_end"),
                            _checks.count(n_samples, "n_samples", 1))
        return self._states(field, times)

    def _states(self, field, times):
        for i, t in enumerate(times):
            if i > 0:
                field = self.step(field, times[1] - times[0])
            yield float(t), field


@dataclass
class DecayTrace:
    """Sampled L2 deviations against the theoretical relaxation envelope."""

    times: np.ndarray
    deviation: np.ndarray
    envelope: np.ndarray
    rate: float
    violations: list = dc_field(default_factory=list)

    def decay_csv(self):
        """The trace as CSV text, one row per sample; every float round-trips."""
        flags = np.zeros(len(self.times), dtype=int)
        flags[self.violations] = 1
        lines = ["t,deviation,envelope,violated_flag"] + [
            f"{t:.17g},{d:.17g},{e:.17g},{f}"
            for t, d, e, f in zip(self.times, self.deviation, self.envelope, flags)]
        return "\n".join(lines) + "\n"


def relax_trace(u0, field_v, t_end, n_samples=32, k_max=None, correlation_grid=256,
                evolution=None):
    """Evolve torus samples u0 and compare deviations with the envelope.

    The envelope is exp(pi/2 - rate * t) times the initial deviation, with
    the rate computed from the correlation LP of the velocity field.  No
    violation is expected; any sample exceeding the envelope is reported by
    index.  `evolution`, an Evolution(field_v) that keeps its operators and
    propagators for later calls, defaults to a fresh one; the rate's LP is
    solved on each call.
    """
    _checks.torus_field(field_v, "field_v")  # the envelope's rate holds on the unit torus
    fld = field_from_samples(u0, k_max=k_max)
    evo = Evolution(field_v) if evolution is None else evolution
    if evo.field_v is not field_v:
        raise ValueError("evolution must step field_v, not another velocity field")
    states = evo.trajectory(fld, t_end, n_samples)  # checked before the LP
    corr = functionals.lipschitz_correlation(field_v, grid_n=correlation_grid)
    rate = functionals.mixing_rate(corr, field_v.oscillation())
    samples = [(t, state.deviation()) for t, state in states]
    times, dev = (np.array(column) for column in zip(*samples))
    envelope = math.e ** (math.pi / 2.0 - rate * times) * dev[0]
    violations = [int(i) for i in np.nonzero(dev > envelope * (1 + 1e-9) + 1e-12)[0]]
    return DecayTrace(times, dev, envelope, rate, violations)


@dataclass
class StripTrace:
    """Per-mode sup norms on a Dirichlet strip, with the mode-0 floor check."""

    times: np.ndarray
    sup_norms: np.ndarray  # (n_samples, k_max + 1), |k| column-indexed
    mass: np.ndarray
    floor_margin: np.ndarray
    kappa0: float

    def sup(self, k):
        return self.sup_norms[:, abs(k)]


def strip_trace(nu0, field_v, interval, t_end, n_samples=16):
    """Evolve strip samples under Dirichlet conditions in x.

    Tracks the sup norm of every mode, the mode-0 mass (nonincreasing: the
    strip absorbs), and the margin of the mode-0 profile over the decaying
    ground-state envelope kappa0 e^{-pi^2 t / L^2} sin(pi (x-a)/L), where
    kappa0 is the initial floor of the y-averaged data.
    """
    a, b = _checks.interval(interval, "interval")
    length = b - a
    # checked here too, so that a refusal names nu0 and not field_from_samples' u0
    fld = field_from_samples(_checks.finite_array(nu0, "nu0"), boundary="dirichlet",
                             interval=(a, b))
    nodes = _grid("dirichlet", a, b, fld.nx)[1]
    shape = np.sin(math.pi * (nodes - a) / length)
    kappa0 = float(np.min(np.real(fld.mode(0))))

    rows = []
    for t, state in Evolution(field_v).trajectory(fld, t_end, n_samples):
        mode0 = np.real(state.mode(0))
        floor = kappa0 * math.exp(-math.pi**2 / length**2 * t) * shape
        rows.append((t, np.abs(state.coeffs[state.k_max:]).max(axis=1),
                     mode0.sum() * state.h, np.min(mode0 - floor)))
    times, sup_norms, mass, margin = (np.array(column) for column in zip(*rows))
    return StripTrace(times, sup_norms, mass, margin, kappa0)


# ---------------------------------------------------------------------------
# snapshot files: flat little-endian float64 grid plus a JSON sidecar


def save_snapshot(path, samples, meta=None):
    samples = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(samples.tobytes())
    sidecar = {
        "shape": list(samples.shape),
        "dtype": "<f8",
        "order": "C",
    }
    if meta:
        sidecar.update(meta)
    with open(str(path) + ".json", "w") as handle:
        json.dump(sidecar, handle, indent=1, sort_keys=True)


def load_snapshot(path):
    with open(str(path) + ".json") as handle:
        sidecar = json.load(handle)
    data = np.fromfile(path, dtype="<f8").reshape(sidecar["shape"])
    return data, sidecar
