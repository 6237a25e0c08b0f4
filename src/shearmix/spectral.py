"""Discretized mode operators -d_xx + 2 pi i k V(x) and their spectral data.

A ModeOperator is a dense discretization of the operator acting on one
Fourier mode in the transport direction, with periodic or homogeneous
Dirichlet boundary conditions, second-order finite differences or a
collocation (sine / Fourier) basis.  It keeps no dense matrix: laplacian()
and matrix() build a fresh array at each call.  The module computes the
resolvent gap along the accretivity edge by a minimum-singular-value sweep
with local refinement, semigroup operator norms, and cached mode propagators
for the PDE evolution driver.  Sweeps and refinements run on a banded
inverse-Lanczos engine over each operator's band form, which band_form()
builds in LAPACK band storage from the samples (Dirichlet collocation, a
full band, from matrix()), and the dense SVD decides every value that a
reported gap depends on.  Semigroup norms come from one cached
eigendecomposition A = W Lambda W^-1 per operator (route "eig"), within
16 cond_2(W) max(1, ||tA||_1) eps relative of a dense matrix exponential's;
where cond_2(W) exceeds EIG_COND_MAX they come from one dense expm per time
(route "expm").  A propagator exp(-dt A) is a dense expm, or, when a cached
step d has dt = 2^j d and |tr(d A)| / n >= THETA_13, the cached exp(-d A)
squared j times, bit for bit the expm result (see ModeOperator.propagator).
Every dense factorization calls scipy's compiled extensions, each loaded by
itself: LAPACK through `scipy.linalg._flapack`, expm's Pade kernels through
`scipy.linalg._matfuncs_expm` and the inverse through
`scipy.linalg._batched_linalg`.  Each call passes the arguments and work
sizes that scipy.linalg's eigvalsh, svdvals, eig, qr, inv and expm pass, so
it keeps those functions' bits, and this module loads no scipy.linalg package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import _checks, _extension
from .velocity import SineField

__all__ = [
    "ModeOperator",
    "SpectralSummary",
    "make_operator",
    "resolvent_gap",
    "semigroup_norm",
]

BOUNDARIES = ("periodic", "dirichlet")


def _grid(boundary, a, b, n):
    """Spacing and nodes of the n-point grid on [a, b].

    Periodic nodes are a + h i for i = 0..n-1 with h = (b - a) / n; Dirichlet
    nodes are the interior a + h i for i = 1..n with h = (b - a) / (n + 1).
    """
    if _checks.choice(boundary, "boundary", BOUNDARIES) == "periodic":
        h = (b - a) / n
        return h, a + h * np.arange(n)
    h = (b - a) / (n + 1)
    return h, a + h * np.arange(1, n + 1)


def _lapack():
    """scipy's LAPACK extension `scipy.linalg._flapack`, loaded without `scipy.linalg`."""
    return _extension.load("linalg", "_flapack")


def _check_info(info, routine, failure=None):
    """Raise LinAlgError for a negative LAPACK `info`, an illegal argument.

    A positive info raises too when `failure` names what it means.
    """
    if info < 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info} of {routine}")
    if info > 0 and failure:
        raise np.linalg.LinAlgError(f"{routine} {failure} (info {info})")


def _svdvals(a, overwrite_a=False):
    """scipy.linalg.svdvals(a, overwrite_a) of a complex matrix, bit for bit.

    The zgesdd call of scipy 1.17.1's svdvals: the finite check, the lwork of
    zgesdd_lwork (on which gesdd's blocking depends), no singular vectors.
    The values are in descending order.
    """
    lapack = _lapack()
    a = np.asarray_chkfinite(a)
    work, info = lapack.zgesdd_lwork(*a.shape, compute_uv=0, full_matrices=True)
    _check_info(info, "zgesdd_lwork", "failed")
    _, s, _, info = lapack.zgesdd(a, compute_uv=0, lwork=int(work.real), full_matrices=True,
                                  overwrite_a=overwrite_a)
    _check_info(info, "zgesdd", "did not converge")
    return s


def _lambda_min(a):
    """scipy.linalg.eigvalsh(a)[0] of a real symmetric matrix, bit for bit.

    The dsyevr call of scipy 1.17.1's eigvalsh (its default driver "evr"): the
    finite check, the lower triangle, the lwork and liwork of dsyevr_lwork, no
    eigenvectors.
    """
    lapack = _lapack()
    a = np.asarray_chkfinite(a)
    work, iwork, info = lapack.dsyevr_lwork(n=len(a), lower=True)
    _check_info(info, "dsyevr_lwork", "failed")
    w, _, _, _, info = lapack.dsyevr(a=a, overwrite_a=False, lower=True, compute_v=0,
                                     lwork=int(work.real), liwork=int(iwork.real))
    _check_info(info, "dsyevr", "did not converge")
    return float(w[0])


def _eig(a):
    """scipy.linalg.eig(a) of a complex matrix, bit for bit: (values, right vectors).

    The zgeev call of scipy 1.17.1's eig: the finite check, the lwork of
    zgeev_lwork, no left eigenvectors.
    """
    lapack = _lapack()
    a = np.asarray_chkfinite(a)
    work, info = lapack.zgeev_lwork(len(a), compute_vl=0, compute_vr=1)
    _check_info(info, "zgeev_lwork", "failed")
    w, _, vr, info = lapack.zgeev(a, compute_vl=0, compute_vr=1, lwork=int(work.real))
    _check_info(info, "zgeev", "did not converge")
    return w, vr


def _qr_r(a):
    """scipy.linalg.qr(a, mode="r")[0] of a complex square matrix, bit for bit.

    The zgeqrf call of scipy 1.17.1's qr: the finite check, the workspace
    query lwork=-1 and the factorization with the lwork it returns; R is the
    upper triangle of the factored matrix.
    """
    lapack = _lapack()
    a = np.asarray_chkfinite(a)
    work = lapack.zgeqrf(a, lwork=-1)[-2]
    qr, _, _, info = lapack.zgeqrf(a, lwork=int(work[0].real))
    _check_info(info, "zgeqrf")
    return np.triu(qr)


def _inv(a):
    """scipy.linalg.inv(a) of a complex square matrix, bit for bit.

    The call of scipy 1.17.1's inv with no assumed structure, through the
    extension `scipy.linalg._batched_linalg`.  Any reported problem raises
    LinAlgError: a singular matrix, an illegal argument, or an ill-conditioned
    matrix, on which scipy only warns.
    """
    a = np.asarray_chkfinite(a)
    inverse, errors = _extension.load("linalg", "_batched_linalg")._inv(a, -1, False, False)
    if errors:
        raise np.linalg.LinAlgError(f"inverse failed: {errors}")
    return inverse


def _expm(a):
    """scipy.linalg.expm(a) of a complex matrix with nonzero first sub- and
    super-diagonals, bit for bit.

    scipy 1.17.1's generic path, through the extension
    `scipy.linalg._matfuncs_expm`: pick_pade_structure chooses the Pade
    degree m and the scaling 2^-s on a (5, n, n) work array that holds a in
    its first slice, pade_UV_calc leaves the approximant there, and it is
    squared s times.  The result is a copy, so it keeps no reference to the
    work array.  Every ModeOperator matrix has those diagonals, and so has
    its product with a nonzero time, so expm's diagonal and triangular
    branches never apply; a matrix without them is refused.
    """
    if not (np.diagonal(a, 1).all() and np.diagonal(a, -1).all()):
        raise ValueError("a must have nonzero first sub- and super-diagonals")
    kernels = _extension.load("linalg", "_matfuncs_expm")
    work = np.empty((5, *a.shape), dtype=a.dtype)
    work[0] = a
    m, s = kernels.pick_pade_structure(work)
    info = kernels.pade_UV_calc(work, m) if m >= 0 else m
    if info:
        raise np.linalg.LinAlgError(f"expm's Pade step failed (error code {info})")
    result = work[0].copy()
    for _ in range(s):
        result = result @ result
    return result


# cond_2(W) above which semigroup_norm leaves the eigenvector route for expm.
# The eigenvector route's rounding error is about cond_2(W) times expm's own
# ||tA|| eps; cond_2(W) measured 1.0-58 on the battery fields up to k = 64 and
# reached 1.7e3 only at k = 256 (n = 128).
EIG_COND_MAX = 1e3

# theta_13 of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 31, 2009): the
# largest ||2^-s A|| that scipy.linalg.expm's degree-13 Pade approximant takes
THETA_13 = 5.371920351148152


class Eigendecomposition(NamedTuple):
    """matrix() = W diag(values) W^-1, values sorted by real part, in triangular form.

    With the QR factorizations W = Q1 R1 and W^-H = Q2 R2, exp(-tA) is
    Q1 (left diag(e^{-t values}) right) Q2^H for left = R1 (upper triangular)
    and right = R2^H (lower triangular), so exp(-tA) has the 2-norm of the
    middle factor.  cond_w is cond_2(W) from its singular values.  route is
    "eig" when cond_w <= EIG_COND_MAX; otherwise it is "expm", and left and
    right are None.
    """

    values: np.ndarray
    left: np.ndarray | None
    right: np.ndarray | None
    cond_w: float
    route: str


class ModeOperator:
    """Dense discretization of -d_xx + i * (2 pi k) V on an interval.

    Immutable after construction.  laplacian() and matrix() build a fresh
    array at each call, so an operator holds its samples, its nodes, its
    accretivity edge and eigendecomposition once computed, and the propagators
    of the requested time steps.
    """

    DISCRETIZATIONS = ("fd2", "spectral")

    def __init__(self, boundary, interval, v_samples, k, discretization="fd2"):
        _checks.choice(discretization, "discretization", self.DISCRETIZATIONS)
        v_samples = _checks.finite_array(v_samples, "v_samples")
        if v_samples.ndim != 1 or len(v_samples) < 16:
            raise ValueError(f"v_samples must be a sequence of at least 16 numbers, "
                             f"got shape {v_samples.shape}")
        self.boundary = boundary
        self.a, self.b = _checks.interval(interval, "interval")
        self.n = len(v_samples)
        self.k = _checks.count(k, "k")
        self.discretization = discretization
        v_samples.setflags(write=False)
        self.v_samples = v_samples
        self.h, self.nodes = _grid(boundary, self.a, self.b, self.n)
        self.nodes.setflags(write=False)
        self._propagators: dict = {}

    @property
    def length(self):
        return self.b - self.a

    @property
    def skew_values(self):
        """Diagonal of the skew part, i.e. 2 pi k V at the nodes."""
        return 2.0 * math.pi * self.k * self.v_samples

    def laplacian(self):
        """Dense symmetric positive semidefinite -d_xx, built at each call."""
        n, h = self.n, self.h
        if self.discretization == "fd2":
            lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
                   - np.diag(np.ones(n - 1), -1)) / h**2
            if self.boundary == "periodic":
                lap[0, -1] -= 1.0 / h**2
                lap[-1, 0] -= 1.0 / h**2
        elif self.boundary == "dirichlet":
            j = np.arange(1, n + 1)
            basis = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))
            mu = (j * math.pi / self.length) ** 2
            lap = basis @ (mu[:, None] * basis)
            lap = 0.5 * (lap + lap.T)
        else:  # periodic Fourier collocation
            xi = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
            lap = np.fft.ifft(xi[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0).real
            lap = 0.5 * (lap + lap.T)
        return lap

    def matrix(self):
        """The dense complex operator matrix, built at each call."""
        return self.laplacian().astype(complex) + 1j * np.diag(self.skew_values)

    def band_form(self):
        """(band, w, dropped): a band M of width w, in LAPACK band storage, unitarily
        similar to matrix() up to entries of Frobenius norm at most `dropped`.

        M[i, j] is at band[2w + i - j, j], F-ordered; rows 0..w-1 are zero, room
        for the fill-in of a banded LU.  fd2 is the ring circulant (-1, 2,
        -1)/h^2 plus the diagonal 2 pi k i V, bit for bit matrix()'s entries;
        on the Dirichlet boundary it stays in node order at w = 1, where the
        ring's corner pair, not part of that operator, falls outside the band,
        so dropped is 0.  Periodic collocation in the unitary DFT basis is
        diag(xi^2) plus i times the circulant of c = fft(2 pi k V) / n, its
        entry (i, j) being c[i - j mod n]; f is the largest frequency whose
        coefficient is above 1e-12 of the largest.  The periodic operators
        are folded by the order 0, n-1, 1, n-2, ..., which turns a circulant
        of offsets up to f into a band of width 2f: w = 2 for the fd2 ring and
        min(2f, n - 1) for collocation, whose entries outside the band are
        coefficients beyond f, each in n entries, so dropped is sqrt(n) times
        their 2-norm.  That form is exact, while matrix() carries the rounding
        of its Laplacian's FFT construction, which dropped does not count:
        its 2-norm, which bounds how far it moves any singular value,
        measured 0.09-0.11 of _BandedSigma's 16 eps ||M||_1 at n = 64-2048
        (against an extended-precision Laplacian), and the engine's tolerance
        takes it inside that term.  Dirichlet collocation is matrix() itself
        at the full width n - 1: on it the banded engine measured within
        0.19 eps (||M||_1 + |z|) of the dense SVD, and a whole gap at n = 256
        took two thirds of the all-dense time.
        """
        n = self.n
        if self.discretization == "spectral" and self.boundary == "dirichlet":
            mat = self.matrix()
            return _band_storage(n, n - 1, lambda d: np.diagonal(mat, -d)), n - 1, 0.0
        if self.discretization == "fd2":
            diagonal = 2.0 / self.h**2 + 1j * self.skew_values  # matrix()'s operations
            circulant = np.zeros(n, dtype=complex)
            circulant[[1, -1]] = -1.0 / self.h**2
            width, dropped = (2 if self.boundary == "periodic" else 1), 0.0
        else:
            coefs = np.fft.fft(self.skew_values) / n
            freqs = np.minimum(np.arange(n), n - np.arange(n))
            size = np.abs(coefs)
            f = int(freqs[size > 1e-12 * size.max()].max(initial=0))
            width = min(2 * f, n - 1)
            dropped = math.sqrt(n) * float(np.linalg.norm(coefs[freqs > f]))
            diagonal = (2.0 * math.pi * np.fft.fftfreq(n, d=self.h)) ** 2 + 1j * coefs[0]
            circulant = 1j * coefs
        p = np.arange(n)
        order = np.where(p % 2, n - 1 - p // 2, p // 2) if self.boundary == "periodic" else p

        def entries(d):  # M[p, q] = A[order[p], order[q]] for p - q = d
            if d == 0:
                return diagonal[order]
            q = np.arange(max(0, -d), n - max(0, d))
            return circulant[(order[q + d] - order[q]) % n]

        return _band_storage(n, width, entries), width, dropped

    @functools.cached_property
    def lambda1_discrete(self):
        """Smallest eigenvalue of the discrete symmetric part.

        This is the accretivity edge of the matrix: the numerical range of
        matrix() - lambda1_discrete lies in the closed right half-plane.
        """
        return _lambda_min(self.laplacian())

    @functools.cached_property
    def eigendecomposition(self):
        """The Eigendecomposition that semigroup_norm uses: one LAPACK eig, with cond_2(W).

        On the "eig" route it adds one inv and two QR factorizations.
        """
        values, vectors = _eig(self.matrix())
        order = np.argsort(values.real, kind="stable")
        values, vectors = values[order], vectors[:, order]
        values.setflags(write=False)
        sv = _svdvals(vectors)
        with np.errstate(divide="ignore"):
            cond_w = float(sv[0] / sv[-1])
        if cond_w > EIG_COND_MAX:
            return Eigendecomposition(values, None, None, cond_w, "expm")
        left = _qr_r(vectors)
        right = _qr_r(_inv(vectors).conj().T).conj().T
        left.setflags(write=False)
        right.setflags(write=False)
        return Eigendecomposition(values, left, right, cond_w, "eig")

    def propagator(self, dt):
        """exp(-dt * A), cached per time step; bit for bit scipy.linalg.expm's.

        On a cache miss, the cached step d with dt == d * 2**j (j >= 1) and
        |tr(d A)| / n >= THETA_13, the largest such d, gives exp(-d A) squared
        j times; without one, dt is a dense expm.  scipy.linalg.expm scales by
        2^-s, takes the degree-13 Pade approximant and squares s times
        whenever every ||(dA)^p||_1^(1/p) it reads exceeds theta_9 and
        theta_13 / 2, and these are at least the spectral radius, which is at
        least |tr(d A)| / n.  Then expm(-2^j d A) scales by 2^-(s+j), which
        reaches the same matrix exactly (powers of two scale without
        rounding), so its last j squarings are the ones done here.  The guard
        keeps a factor 2 above what the argument needs (expm estimates the
        norms for n >= 400) and implies ||d A||_1 >= THETA_13.  Only requested
        steps are cached.
        """
        key = float(_checks.positive(dt, "dt"))
        if key not in self._propagators:
            mat = self.matrix()
            radius_floor = abs(np.trace(mat)) / self.n
            bases = [(d, round(math.log2(key / d))) for d in self._propagators
                     if d * radius_floor >= THETA_13]
            bases = [(d, j) for d, j in bases if j >= 1 and d * 2.0**j == key]
            if bases:
                d, j = max(bases)
                prop = self._propagators[d]
                for _ in range(j):
                    prop = prop @ prop
            else:
                mat *= -key  # -dt A in place: expm holds no unscaled copy
                prop = _expm(mat)
            prop.setflags(write=False)
            self._propagators[key] = prop
        return self._propagators[key]


def _band_storage(n, width, entries):
    """LAPACK band storage, F-ordered, of the n x n matrix whose diagonal of offset
    d = i - j is entries(d), ordered by column, for |d| <= width."""
    band = np.zeros((3 * width + 1, n), dtype=complex, order="F")
    for d in range(-width, width + 1):
        band[2 * width + d, max(0, -d):n - max(0, d)] = entries(d)
    return band


def make_operator(field, k, boundary="periodic", interval=None, n=256, discretization=None):
    """Build the mode-k operator for a velocity field.

    Defaults to finite differences; a collocation basis is selected
    automatically for smooth closed-form fields on the periodic torus, where
    it is exact to machine precision.
    """
    interval = _checks.interval((field.a, field.b) if interval is None else interval, "interval")
    _, nodes = _grid(boundary, *interval, _checks.count(n, "n", 16))
    if discretization is None:
        smooth = boundary == "periodic" and isinstance(field, SineField)
        discretization = "spectral" if smooth else "fd2"
    return ModeOperator(boundary, interval, field(nodes), k, discretization)


@dataclass
class SpectralSummary:
    """Resolvent gap of one mode operator along its discrete accretivity edge,
    meta["lambda1_discrete"], with the sweep and its bookkeeping."""

    r_lambda1: float
    s_argmin: float
    trace: np.ndarray  # the sweep's (s, sigma_min) rows
    meta: dict = dc_field(default_factory=dict)

    def sweep_csv(self):
        """The swept (s, sigma_min) pairs as CSV text; every float round-trips."""
        lines = ["s,sigma_min"] + [f"{s:.17g},{v:.17g}" for s, v in self.trace]
        return "\n".join(lines) + "\n"


def _candidates(vals, slack):
    """Mask of the sweep points that are refined as local minima.

    A point qualifies when it is at most 1.25 times the sweep minimum (plus
    1e-12) and no larger than either neighbour.  `slack` widens every
    comparison by a bound on the error of each value.
    """
    padded = np.concatenate(([math.inf], vals, [math.inf]))
    return ((vals - slack <= (vals.min() + slack) * 1.25 + 1e-12)
            & (vals <= padded[:-2] + 2.0 * slack) & (vals <= padded[2:] + 2.0 * slack))


class _BandedSigma:
    """sigma_min(A - zI) from a band form (band, w, dropped) of A, by banded LU and
    inverse Lanczos.

    The band M, of width w in LAPACK band storage, is unitarily similar to A
    up to entries of Frobenius norm at most `dropped` (see
    ModeOperator.band_form), which move every singular value by at most
    that much; ||M||_1 is taken from the band's column sums.  On periodic
    collocation M is the exact DFT form, and the rounding of A = matrix()'s
    Laplacian, of 2-norm 1.4-1.8 eps ||M||_1 at n = 64-2048, is taken
    inside the TOLERANCE term.  Lanczos with full reorthogonalization on
    (M-zI)^-1 (M-zI)^-H converges to its largest
    eigenvalue theta = sigma_min^-2 (Wright and Trefethen, SIAM J. Sci.
    Comput. 23, 2001).  Lanczos stops once the residual bound puts sigma
    within min(1e-12 sigma, eps ||M - zI||_1) of its limit; the start vector
    is a fixed-seed normal vector, so it has no symmetry that could hide the
    wanted singular vector.

    Shifts are evaluated in chunks of `chunk` shifts: CHUNK, or fewer when
    their band storage would pass CHUNK_BYTES (one at a time for a wide band).
    The bands of M - zI for the shifts of a chunk are stacked block-diagonally
    in one LAPACK band storage and factored by one gbtrf: the band entries
    that would couple two blocks are stored zeros, so no pivot search picks a
    row of the next block over a nonzero pivot and elimination adds 0 times
    a row there, and each block's factor is that block's own LU.  Lanczos
    then runs for the whole chunk in lockstep, with one pair of gbtrs solves
    per step over the stacked vector, batched reorthogonalization and one
    batched eigh of the tridiagonals; a shift that has stopped leaves the
    stacked factor.  A chunk with a singular block is evaluated one shift at
    a time.  A shift's value is None when its factor is singular or its
    Lanczos has not converged; a negative LAPACK info, an illegal argument,
    raises LinAlgError.
    """

    # bound on |banded - dense sigma_min| in units of eps ||M - zI||_1, beyond
    # the dropped part: about 30 times the largest difference measured on fd2,
    # and 45 times (0.35) on periodic sine collocation with nothing dropped;
    # on collocation at n = 256 and 1024, with matrix()'s rounding in the
    # dense value, the difference measured at most 0.008 of the tolerance
    TOLERANCE = 16.0
    MAX_STEPS = 48
    # chunk 16 and 32 timed the same on battery sweeps at n = 128 and 256, 8
    # and 64 slower; the byte cap keeps wide bands (Dirichlet collocation is
    # at width n - 1) to one shift at a time at n >= 128
    CHUNK = 16
    CHUNK_BYTES = 1 << 20

    def __init__(self, band, width, dropped):
        n = band.shape[1]
        self.band, self.width, self.dropped = band, width, float(dropped)
        self.norm1 = float(np.abs(band).sum(axis=0).max())
        self.steps = min(n, self.MAX_STEPS)
        self.chunk = int(np.clip(self.CHUNK_BYTES // self.band.nbytes, 1, self.CHUNK))
        start = np.random.default_rng(20011).standard_normal(n)
        self.start = start / np.linalg.norm(start)

    def tolerance(self, z_max):
        """Bound on |banded - dense| for shifts with |z| <= z_max."""
        return self.TOLERANCE * np.finfo(float).eps * (self.norm1 + z_max) + self.dropped

    def sigma_min(self, shifts):
        """sigma_min(M - zI), or None, for each z in `shifts`, in chunks."""
        shifts = np.asarray(shifts, dtype=complex)
        values = []
        for i in range(0, len(shifts), self.chunk):
            values += self._chunk(shifts[i:i + self.chunk])
        return values

    def _chunk(self, shifts):
        n, w = len(self.start), self.width
        # the stacked bands, F-ordered: block b holds columns b n .. b n + n - 1
        stacked = np.tile(self.band.T, (len(shifts), 1)).T
        stacked[2 * w] -= np.repeat(shifts, n)
        lu, piv, info = _lapack().zgbtrf(stacked, w, w, overwrite_ab=True)
        _check_info(info, "zgbtrf")
        if info > 0:
            if len(shifts) == 1:
                return [None]
            return [self._chunk(shifts[b:b + 1])[0] for b in range(len(shifts))]
        return self._lanczos(lu, piv, shifts)

    def _lanczos(self, lu, piv, shifts):
        """Inverse Lanczos in lockstep on the stacked factor (lu, piv) of a chunk."""
        lapack = _lapack()
        n, w = len(self.start), self.width
        values = [None] * len(shifts)
        live = np.arange(len(shifts))  # chunk position of each block still running
        atol = np.finfo(float).eps * (self.norm1 + np.abs(shifts))
        # one row of Lanczos vectors per block; room grows as steps are taken
        basis = np.empty((len(shifts), min(8, self.steps + 1), n), dtype=complex)
        basis[:, 0] = self.start
        alpha = np.empty((len(shifts), self.steps))
        beta = np.zeros((len(shifts), self.steps))
        for m in range(self.steps):
            x, info = lapack.zgbtrs(lu, w, w, basis[:, m].reshape(-1, 1), piv, trans=2)
            _check_info(info, "zgbtrs")
            x, info = lapack.zgbtrs(lu, w, w, x, piv, overwrite_b=True)
            _check_info(info, "zgbtrs")
            x = x.reshape(len(live), n, 1)
            done = basis[:, :m + 1]
            coef = 0.0
            for _ in range(2):  # two passes: full reorthogonalization
                # done^H x per block, as the conjugate of done x^*
                proj = np.matmul(done, x.conj()).conj()
                x -= np.matmul(done.transpose(0, 2, 1), proj)
                coef = coef + proj[:, m, 0]
            alpha[:, m] = coef.real
            norm = np.linalg.norm(x[:, :, 0], axis=1)
            # the tridiagonals, diagonal and subdiagonal set through flat views
            tri = np.zeros((len(live), (m + 1) ** 2))
            tri[:, ::m + 2] = alpha[:, :m + 1]
            tri[:, m + 1::m + 2] = beta[:, :m]
            theta, vecs = np.linalg.eigh(tri.reshape(-1, m + 1, m + 1))
            theta = theta[:, -1]
            sigma = 1.0 / np.sqrt(theta)
            # |theta - eigenvalue| <= residual, and d sigma = sigma d theta / (2 theta)
            residual = norm * np.abs(vecs[:, -1, -1])
            stop = 0.5 * sigma * residual / theta <= np.minimum(1e-12 * sigma, atol)
            for b in np.flatnonzero(stop):
                values[live[b]] = float(sigma[b])
            if stop.all() or m + 1 == self.steps:
                break
            if stop.any():
                # keep the running blocks' columns of the factor, with pivots
                # moved from their old block offsets to the new ones
                keep = ~stop
                cols = (np.flatnonzero(keep)[:, None] * n + np.arange(n)).ravel()
                lu = np.asfortranarray(lu[:, cols])
                piv = piv[cols] - (cols - np.arange(len(cols)))
                live, basis, alpha, beta = live[keep], basis[keep], alpha[keep], beta[keep]
                atol, x, norm = atol[keep], x[keep], norm[keep]
            if m + 1 == basis.shape[1]:
                basis = np.concatenate((basis, np.empty_like(basis)), axis=1)
            beta[:, m] = norm
            basis[:, m + 1] = x[:, :, 0] / norm[:, None]
        return values


# bracket width at which the trisection of a sweep minimum stops
REFINE_TOL = 1e-6


def _trisect(estimate, densify, lo, hi, max_iter=200):
    """Trisection for a local minimum inside [lo, hi], on estimated values.

    `estimate(ss)` returns a point [s, value, error] for each s in ss, whose
    value is within `error` of the dense SVD's (error 0 for a dense value),
    and `densify(point)` replaces an estimate by the dense value.  Each step
    estimates its two inner points together and drops the outer third next
    to the higher of them (the left third on a tie); a step that the errors
    cannot decide compares dense values.  So the points visited, the final
    bracket and `converged` are those of a trisection on dense values.  It
    stops when the bracket is at most REFINE_TOL wide.  Returns the visited
    points, in visit order, and `converged`.
    """
    points = []
    for _ in range(max_iter):
        if hi - lo <= REFINE_TOL:
            return points, True
        p1, p2 = estimate([lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0])
        if abs(p1[1] - p2[1]) <= p1[2] + p2[2]:
            densify(p1)
            densify(p2)
        points += [p1, p2]
        if p1[1] < p2[1]:
            hi = p2[0]
        else:
            lo = p1[0]
    return points, False


def resolvent_gap(op, s_points=192):
    """Resolvent gap of a mode operator along its accretivity edge.

    Sweeps s over `s_points` points of [w_lo - 3 spread - 1, w_hi + 3 spread
    + 1], for [w_lo, w_hi] the range of w = op.skew_values and spread =
    w_hi - w_lo, computes sigma_min(matrix() - lambda1 - i s), and refines
    every competitive local minimum by trisection down to REFINE_TOL bracket
    width.  The shift lambda1 is the discrete accretivity edge so the
    returned gap feeds the explicit semigroup bound exactly; it is read from
    the real part of the same matrix() (laplacian() bit for bit) and cached
    as op.lambda1_discrete.

    The window holds the global minimum (numerical-range bounds: Trefethen
    and Embree, Spectra and Pseudospectra, 2005, ch. 17).  With L =
    laplacian(), W = diag(w) and B = matrix() - lambda1 = (L - lambda1) + iW:
    - sigma_min(B - is) >= dist(s, [w_lo, w_hi]): x*(L - lambda1)x is real, so
      ||(B - is)x|| >= |x*(W - s)x| for unit x;
    - sigma_min(B - is) <= max_j |w_j - s|: (B - is)u = i(W - s)u for the
      unit ground state u of L;
    - sigma_min is 1-Lipschitz in s, so with the step h = (7 spread + 2) /
      (s_points - 1) the sweep minimum is at most spread/2 + h/2 <=
      0.56 spread + 0.016, while at both edges sigma_min >= 3 spread + 1,
      far above that and either engine's error.
    meta["certified"] checks this on the computed values, and
    meta["window_extensions"] is 0: the window is never widened.

    Values come from the banded engine on op.band_form(), within
    engine.tolerance of the dense SVD's: the whole sweep in chunks, and the
    two points of each trisection step as one chunk.  The dense SVD
    evaluates every value that this bound cannot rule out of a decision:
    - in the sweep, every point that could be a refinement candidate of the
      dense sweep, and its two neighbours.  Every other point then lies above
      the dense minimum in both engines, so the dense minimum, the
      certification, the candidate set and the candidates' values are those
      of an all-dense sweep;
    - in the trisection, both points of a step whose comparison is closer
      than their errors;
    - at the end, every visited point whose value less its error is not above
      the lowest upper bound of any value.  Every other point is above the
      dense minimum, so the first point with the lowest dense value is the
      all-dense result.
    So r_lambda1, s_argmin and refinement_warning are those of an all-dense
    run.  meta["refinements"] gives each candidate's grid point and whether
    its trisection converged (refinement_warning is set when one did not);
    meta["sigma_evals"] counts banded evaluations, dense SVDs, and the dense
    SVDs among them that replaced a failed banded evaluation, over the sweep
    and the refinement.
    """
    s_points = _checks.count(s_points, "s_points", 64)
    mat = op.matrix()
    if "lambda1_discrete" not in vars(op):  # mat.real is laplacian() bit for bit
        op.lambda1_discrete = _lambda_min(mat.real)
    shift = op.lambda1_discrete
    w = op.skew_values
    w_lo, w_hi = float(w.min()), float(w.max())
    spread = w_hi - w_lo
    lo = w_lo - 3.0 * spread - 1.0
    hi = w_hi + 3.0 * spread + 1.0
    grid = np.linspace(lo, hi, s_points)

    evals = {"banded": 0, "dense": 0, "dense_fallbacks": 0}
    engine = _BandedSigma(*op.band_form())
    tol = engine.tolerance(abs(shift) + float(np.abs(grid).max()))

    diag = np.arange(op.n)

    def dense(s):
        evals["dense"] += 1
        shifted = np.array(mat, order="F")
        shifted[diag, diag] -= shift + 1j * s
        return float(_svdvals(shifted, overwrite_a=True)[-1])

    def densify(point):
        if point[2]:
            point[1], point[2] = dense(point[0]), 0.0

    def estimate(ss):
        points = []
        for s, value in zip(ss, engine.sigma_min([shift + 1j * s for s in ss])):
            if value is None:
                evals["dense_fallbacks"] += 1
                points.append([s, dense(s), 0.0])
            else:
                evals["banded"] += 1
                points.append([s, value, tol])
        return points

    swept = estimate(grid)
    near = _candidates(np.array([p[1] for p in swept]), tol)
    # each point that could be a candidate of the dense sweep, and its neighbours
    for j in np.flatnonzero(np.convolve(near, np.ones(3), mode="same")):
        densify(swept[j])
    vals = np.array([p[1] for p in swept])
    interior_min = float(vals.min())
    certified = (min(w_lo - lo, hi - w_hi) > interior_min
                 and vals[0] > interior_min and vals[-1] > interior_min)

    # the global minimum is always a candidate
    best_s, best_f = float(grid[np.argsort(vals)[0]]), interior_min
    visited, refinements = [], []
    for j in np.flatnonzero(_candidates(vals, 0.0)):
        blo = grid[max(j - 1, 0)]
        bhi = grid[min(j + 1, len(grid) - 1)]
        points, ok = _trisect(estimate, densify, float(blo), float(bhi))
        visited += points
        refinements.append({"s": float(grid[j]), "converged": ok})
    # a point whose value less its error is above an upper bound of another
    # value is not the minimum
    upper = min([best_f] + [value + error for _, value, error in visited])
    for point in visited:
        if point[1] - point[2] <= upper:
            densify(point)
        if point[2] == 0.0 and point[1] < best_f:
            best_s, best_f = point[0], point[1]

    meta = {
        "n": op.n,
        "boundary": op.boundary,
        "discretization": op.discretization,
        "k": op.k,
        "window": (lo, hi),
        "s_points": s_points,
        "lambda1_discrete": shift,
        "refine_tol": REFINE_TOL,
        "window_extensions": 0,
        "refinement_warning": not all(r["converged"] for r in refinements),
        "refinements": refinements,
        "certified": bool(certified),
        "sigma_evals": evals,
    }
    return SpectralSummary(best_f, best_s, np.column_stack([grid, vals]), meta)


def semigroup_norm(op, times):
    """Operator 2-norms of exp(-t A) at the requested times; t = 0 gives exactly 1.0.

    On route "eig" of op.eigendecomposition this is the eigenvector method
    (Moler and Van Loan, SIAM Rev. 45, 2003), whose error grows with
    cond_2(W) (Higham, Functions of Matrices, 2008, sec. 4.5): each norm is
    ||left diag(e^{-t values}) right||_2, the triangular form of
    W e^{-t Lambda} W^-1.  Modes whose factor e^{-t values} is below eps/n of
    the slowest mode's are dropped; the leading k x k block then holds every
    kept term, and since the norm is at least the slowest factor, dropping
    moves it by at most cond_2(W) eps relative.  So each time costs one k x k
    SVD, and k shrinks as t grows (at most 21 of 256 modes at criterion 5's
    times).  The result is within 16 cond_2(W) max(1, ||tA||_1) eps relative
    of a dense expm's, where max(1, .) covers small t; expm itself is
    accurate only to about ||tA|| eps.  On route "expm"
    (cond_2(W) > EIG_COND_MAX) each norm is ||expm(-tA)||_2, one dense
    matrix exponential per time.
    """
    times = np.atleast_1d(_checks.finite_array(times, "times"))
    if times.ndim != 1:
        raise ValueError(f"times must be a number or a 1-D array, got shape {times.shape}")
    if (times < 0.0).any():
        raise ValueError(f"times must be nonnegative, got {times.min()}")
    eig = op.eigendecomposition
    mat = op.matrix() if eig.route == "expm" else None
    rates = eig.values.real
    cut = math.log(len(rates) / np.finfo(float).eps)
    out = np.empty(len(times))
    for i, t in enumerate(times):
        if t == 0.0:
            out[i] = 1.0
        elif eig.route == "eig":
            k = int(np.searchsorted(rates, rates[0] + cut / t, side="right"))
            decay = np.exp(-t * eig.values[:k])
            out[i] = float(np.linalg.norm((eig.left[:k, :k] * decay) @ eig.right[:k, :k], 2))
        else:
            out[i] = float(np.linalg.norm(_expm(-t * mat), 2))
    return out
