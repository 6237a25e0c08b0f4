"""Monte Carlo simulation of the diffusion-with-shear Markov process.

The process is X_t = X_0 + sqrt(2) W_t (mod 1) and Y_t = Y_0 + integral of
V(X_s) ds (mod 1).  X is stepped by exact Gaussian increments, so its law
carries no time-discretization error at any step size; the Y integral uses a
disclosed quadrature (left endpoint by default, optional trapezoid).

One loop steps every path block.  The block's per-step rules are picked once
from the geometry, the y integrator and the kill interval: the left rule
reads V at the pre-move x; after x moves, the torus wrap, the trapezoid rule
and killing run in that order.  Each rule owns its buffers, and the loop
tests none of them, so a further per-step statistic is one more rule.

Randomness comes from counter-based Philox streams keyed by (seed xor
start-tag, block index) over fixed-size path blocks.  The blocks of every
start of one call run on one pool of `workers` threads; since a block's bits
depend only on (seed, start, block index), every result is bit-identical
regardless of worker count or scheduling and reproducible from the run
metadata alone.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _checks, kernels
from .velocity import _panel_quadrature

__all__ = [
    "PathConfig",
    "TransitionHistogram",
    "DoeblinEstimate",
    "TVDecay",
    "ArcsineResult",
    "KolmogorovResult",
    "simulate",
    "simulate_snapshots",
    "simulate_starts",
    "doeblin_estimate",
    "tv_decay",
    "arcsine_experiment",
    "kolmogorov_experiment",
]

# steps of normals drawn at once: a 2^15-path block holds 4 rows (1 MiB) of
# draws; 16 rows time the same and one row per step is slower.  The stream is
# read in the same order at any chunk size, so the bits do not depend on it.
_STEP_CHUNK = 4


@dataclass(frozen=True)
class PathConfig:
    """Simulation parameters; the seed, in [0, 2**64), pins the entire output."""

    dt: float
    n_paths: int
    t_end: float
    seed: int = 0
    y_integrator: str = "left"
    geometry: str = "torus2"
    bins: int = 32
    block_size: int = 1 << 15
    workers: int = 1

    def __post_init__(self):
        _checks.positive(self.dt, "dt")
        _checks.positive(self.t_end, "t_end")
        for name in ("n_paths", "bins", "block_size", "workers"):
            _checks.count(getattr(self, name), name, 1)
        _checks.seed(self.seed)
        _checks.choice(self.y_integrator, "y_integrator", ("left", "trapezoid"))
        _checks.choice(self.geometry, "geometry", ("torus2", "plane"))

    replace = dataclasses.replace


@dataclass
class TransitionHistogram:
    """Cell counts of the process position on an M x M partition of the torus."""

    bins: int
    counts: np.ndarray
    n_paths: int
    start: tuple
    t: float
    meta: dict = dc_field(default_factory=dict)
    n_absorbed: int = 0

    def probabilities(self):
        return self.counts / self.n_paths

    def alpha_hat(self):
        """Empirical uniform minorization mass M^2 * min cell probability."""
        return float(self.bins**2 * self.counts.min() / self.n_paths)

    def alpha_lower_confidence(self, level=0.99):
        """Exact binomial (Clopper-Pearson) lower bound aggregated by min.

        The per-cell bound is monotone in the cell count, so the minimum over
        cells is the bound at the smallest count.  The bound is the
        (1 - level) quantile of Beta(k, n - k + 1) from
        `scipy.special.betaincinv`, bit for bit `scipy.stats.beta.ppf`.
        """
        from scipy import special

        k = int(self.counts.min())
        lo = 0.0 if k == 0 else float(special.betaincinv(k, self.n_paths - k + 1, 1.0 - level))
        return self.bins**2 * lo

    def empty_cells(self):
        return [tuple(map(int, idx)) for idx in np.argwhere(self.counts == 0)]

    def histogram_csv(self):
        """The cell counts as CSV text, one row,col,count line per cell."""
        lines = ["row,col,count"] + [f"{i},{j},{int(self.counts[i, j])}"
                                     for i in range(self.bins) for j in range(self.bins)]
        return "\n".join(lines) + "\n"

    def metadata(self):
        out = {
            "bins": self.bins,
            "n_paths": self.n_paths,
            "n_absorbed": self.n_absorbed,
            "start": list(self.start),
            "t": self.t,
        }
        out.update(self.meta)
        return out


def _start_tag(start):
    """Stable 64-bit tag of the starting point, mixed into the stream key."""
    bits = np.asarray(start, dtype="<f8").view(np.uint64)
    tag = np.uint64(0x9E3779B97F4A7C15)
    for b in bits:
        tag = np.uint64((int(tag) ^ int(b)) * 0xBF58476D1CE4E5B9 % (1 << 64))
    return int(tag)


def _blocks(n_paths, block_size):
    return [(b, lo, min(lo + block_size, n_paths))
            for b, lo in enumerate(range(0, n_paths, block_size))]


def _steps_for(cfg):
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    return n_steps, cfg.t_end / n_steps


def _simulate_block(block_index, lo, hi, start, vfun, cfg, snapshot_steps, observe,
                    kill_interval):
    """Advance one block of paths; returns {step: observe(x, y)} per snapshot step.

    `observe` gets the positions of the surviving paths, in buffers that the
    next step overwrites, so it copies what it keeps.

    The block's rules are picked once, from cfg.geometry, cfg.y_integrator
    and `kill_interval`, and the step loop tests none of them: each step runs
    the "before" rules on the pre-move x (the left rule), adds sqrt(2 dt) Z
    to x, and runs the "after" rules in order (the torus wrap, the trapezoid
    rule, killing).  Each rule owns its preallocated buffers and updates them
    in place with the arithmetic of y + dt V(x), x - floor(x) (which rounds
    exactly as x mod 1), y + dt/2 (V(x) + V(x')) and alive &= lo <= x <= hi,
    operation for operation, so the bits do not depend on the buffering.
    The trapezoid rule keeps V(x') as the next step's V(x), so it evaluates
    V once per step.
    """
    m = hi - lo
    n_steps, dt = _steps_for(cfg)
    key = np.array([cfg.seed ^ _start_tag(start), block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    x0, y0 = float(start[0]), float(start[1])
    before, after = [], []
    if cfg.geometry == "torus2":
        x0, y0 = x0 % 1.0, y0 % 1.0  # the velocity is only read on [0, 1]
        floor = np.empty(m)
        after.append(lambda: np.subtract(x, np.floor(x, out=floor), out=x))
    x = np.full(m, x0)
    y = np.full(m, y0)
    if cfg.y_integrator == "left":
        v_dt = np.empty(m)
        before.append(lambda: np.add(y, np.multiply(vfun(x), dt, out=v_dt), out=y))
    else:
        v_prev = np.array(vfun(x))  # a copy: vfun may return x itself, as for V(x) = x
        v_sum = np.empty(m)

        def trapezoid():
            v_new = vfun(x)
            np.add(v_prev, v_new, out=v_sum)
            np.copyto(v_prev, v_new)
            np.add(y, np.multiply(v_sum, dt * 0.5, out=v_sum), out=y)
        after.append(trapezoid)
    alive = slice(None)  # x[alive] is every path
    if kill_interval is not None:
        alive = np.ones(m, dtype=bool)
        k_lo, k_hi = kill_interval
        after.append(lambda: np.bitwise_and(alive, (x >= k_lo) & (x <= k_hi), out=alive))
    root2dt = math.sqrt(2.0 * dt)
    snapshots = {}
    step = 0
    last = min(n_steps, max(snapshot_steps))
    draws = np.empty((min(_STEP_CHUNK, last), m))
    while step < last:
        chunk = draws[:min(_STEP_CHUNK, last - step)]
        rng.standard_normal(out=chunk)
        chunk *= root2dt
        for dx in chunk:
            step += 1
            for rule in before:
                rule()
            x += dx
            for rule in after:
                rule()
            if step in snapshot_steps:
                snapshots[step] = observe(x[alive], y[alive])
    return snapshots


def _positions(x, y):
    """The snapshot observer that keeps every surviving (x, y)."""
    return x.copy(), y.copy()


def _run(starts, vfun, cfg, snapshot_steps, observe, kill_interval=None):
    """Simulate the path blocks of every start on one pool of cfg.workers threads.

    Returns one {step: [observation of each block, in block order]} dict per
    start, in the order of `starts`.  A block's stream is keyed by (seed xor
    start tag, block index) alone, so the bits depend on neither the worker
    count nor the order in which blocks finish.
    """
    blocks = _blocks(cfg.n_paths, cfg.block_size)

    def work(task):
        start, (b, lo, hi) = task
        return _simulate_block(b, lo, hi, start, vfun, cfg, snapshot_steps, observe,
                               kill_interval)

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = list(pool.map(work, [(start, block) for start in starts
                                       for block in blocks]))
    return [{step: [res[step] for res in results[i:i + len(blocks)]]
             for step in snapshot_steps}
            for i in range(0, len(results), len(blocks))]


def _torus_vfun(field):
    # the engine keeps x wrapped, so it skips the public wrap
    return _checks.torus_field(field, "field")._eval_inside


def simulate(start, field, cfg, kill_interval=None):
    """Transition histogram of the process at time t_end.

    X is advanced by exact Gaussian increments and Y by the configured
    quadrature of V along the path; final positions are binned on a
    bins x bins partition of the torus.  With `kill_interval`, paths whose X
    leaves the interval are absorbed and reported separately.
    """
    return simulate_snapshots(start, field, cfg, [cfg.t_end],
                              kill_interval=kill_interval)[0]


def simulate_snapshots(start, field, cfg, times, kill_interval=None):
    """Histograms at several times along the same trajectories."""
    return simulate_starts([start], field, cfg, times, kill_interval=kill_interval)[0]


def simulate_starts(starts, field, cfg, times, kill_interval=None):
    """`simulate_snapshots` of each start, with all their blocks on one pool.

    Returns one list of histograms (one per time) per start; each equals the
    start's own `simulate_snapshots` bit for bit.  A start outside the kill
    interval is legal: paths are checked against it after every step.
    """
    if cfg.geometry != "torus2":
        raise ValueError(f"cfg must be a torus config (geometry 'torus2'), got {cfg.geometry!r}")
    shape = _checks.finite_array(starts, "starts").shape  # all of a start keys its stream
    if shape[1:] != (2,) or not shape[0]:
        raise ValueError(f"starts must be one or more (x, y) pairs, got {starts!r}")
    kill = None if kill_interval is None else _checks.interval(kill_interval, "kill_interval")
    n_steps, dt = _steps_for(cfg)
    step_of = {}
    for t in times:
        s = int(round(_checks.positive(t, "times") / dt))
        if not 1 <= s <= n_steps:
            raise ValueError(f"times must lie in the simulated horizon (0, {cfg.t_end}], got {t}")
        step_of[t] = s
    m = cfg.bins

    def cell_counts(x, y):
        ix = np.minimum((np.mod(x, 1.0) * m).astype(np.int64), m - 1)
        iy = np.minimum((np.mod(y, 1.0) * m).astype(np.int64), m - 1)
        return np.bincount(ix * m + iy, minlength=m * m).reshape(m, m)

    runs = _run(starts, _torus_vfun(field), cfg, set(step_of.values()), cell_counts,
                kill_interval=kill)
    meta = {
        "seed": cfg.seed,
        "dt": dt,
        "y_integrator": cfg.y_integrator,
        "block_size": cfg.block_size,
        "velocity": field.to_config(),
    }
    if getattr(field, "truncated", False):  # the field that ran is a cut of the config's
        meta["truncated"] = True
        meta["first_dropped"] = field.first_dropped
    if kill_interval is not None:
        meta["kill_interval"] = list(kill_interval)
    out = []
    for start, merged in zip(starts, runs):
        hists = []
        for t in times:
            counts = sum(merged[step_of[t]])
            absorbed = cfg.n_paths - int(counts.sum())
            hists.append(TransitionHistogram(cfg.bins, counts, cfg.n_paths, tuple(start),
                                             step_of[t] * dt, dict(meta), absorbed))
        out.append(hists)
    return out


@dataclass
class DoeblinEstimate:
    """Empirical uniform minorization across several starting points."""

    alpha_hat: float
    alpha_lower_confidence: float
    t_star: float
    per_start: list
    empty_cells: list

    @property
    def all_cells_hit(self):
        return not self.empty_cells


def doeblin_estimate(field, t_star, starts, cfg):
    """Estimate the uniform kernel floor at time t_star over given starts.

    alpha_hat is the minimum over starts of bins^2 times the smallest cell
    probability; an exact binomial 99% lower confidence bound is aggregated
    the same way.  Any empty cell is reported with its index and forces
    alpha_hat = 0.
    """
    run_cfg = cfg.replace(t_end=t_star)
    per_start = []
    empty = []
    alpha = math.inf
    lcb = math.inf
    for (hist,) in simulate_starts(starts, field, run_cfg, [t_star]):
        per_start.append(hist)
        alpha = min(alpha, hist.alpha_hat())
        lcb = min(lcb, hist.alpha_lower_confidence())
        for cell in hist.empty_cells():
            empty.append((hist.start, cell))
    return DoeblinEstimate(float(alpha), float(lcb), t_star, per_start, empty)


@dataclass
class TVDecay:
    """Empirical total-variation distances between two transition laws."""

    times: np.ndarray
    tv: np.ndarray
    bias: np.ndarray
    n_paths: int


def tv_decay(field, start1, start2, times, cfg):
    """Estimated TV distance between the kernels from two starting points.

    Each start gets its own independent ensemble (streams are keyed by the
    starting point, so identical starts under the same seed are perfectly
    coupled and give exactly zero).  The estimator 0.5 sum |p_hat - q_hat|
    carries an upward bias at equality of roughly M(pi n)^{-1/2}; a normal
    approximation of that floor is reported per time.
    """
    times = np.sort(_checks.finite_array(times, "times")).tolist()
    run_cfg = cfg.replace(t_end=max(times))
    h1, h2 = simulate_starts([start1, start2], field, run_cfg, times)
    tv = np.empty(len(times))
    bias = np.empty(len(times))
    for i, (a, b) in enumerate(zip(h1, h2)):
        p = a.probabilities()
        q = b.probabilities()
        tv[i] = 0.5 * float(np.abs(p - q).sum())
        pooled = 0.5 * (p + q)
        var = pooled * (1.0 - pooled) * (1.0 / a.n_paths + 1.0 / b.n_paths)
        bias[i] = 0.5 * float(np.sum(np.sqrt(2.0 * var / math.pi)))
    return TVDecay(np.asarray(times), tv, bias, cfg.n_paths)


# ---------------------------------------------------------------------------
# validation experiments on the plane


@dataclass
class ArcsineResult:
    ks_distance: float
    n_paths: int
    dt: float
    t_end: float

    @staticmethod
    def cdf(a):
        return 2.0 / math.pi * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def arcsine_experiment(cfg):
    """Occupation-time law of the positive half-line for plane Brownian X.

    Simulates Z = (1/t) integral of 1_{X_s > 0} ds from the origin and
    returns the one-sample Kolmogorov-Smirnov distance to the arcsine
    distribution.  The left-endpoint rule biases Z by O(sqrt(dt)).
    """
    if cfg.geometry != "plane":
        raise ValueError(f"cfg must be a plane config (geometry 'plane'), got {cfg.geometry!r}")
    n_steps, dt = _steps_for(cfg)

    def indicator(x):
        return (x > 0.0).astype(float)

    blocks = _run([(0.0, 0.0)], indicator, cfg, {n_steps}, _positions)[0][n_steps]
    z = np.concatenate([by for _, by in blocks]) / cfg.t_end
    z.sort()
    n = len(z)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    cdf = ArcsineResult.cdf(z)
    ks = float(max(np.max(np.abs(cdf - grid_hi)), np.max(np.abs(cdf - grid_lo))))
    return ArcsineResult(ks, cfg.n_paths, dt, cfg.t_end)


@dataclass
class KolmogorovResult:
    max_rel_error: float
    rel_errors: np.ndarray
    high_mass_cells: int
    chi2_pvalue: float
    var_x: float
    var_y: float
    var_x_expected: float
    var_y_expected: float
    n_paths: int


_SPAN_SIGMAS = 4.0  # half-width of the kolmogorov_experiment grid, in standard deviations


def kolmogorov_experiment(cfg, bins=24):
    """Free-space shear V(x) = x against the explicit plane kernel.

    Bins the endpoint cloud on a grid spanning +-_SPAN_SIGMAS standard
    deviations per axis, compares cell frequencies with the cell-averaged
    kernel on every cell holding at least 1% of the mass, chi-square tests
    the exactly-Gaussian X marginal, and checks the Y moments against the
    kernel's own quadrature moments.
    """
    if cfg.geometry != "plane":
        raise ValueError(f"cfg must be a plane config (geometry 'plane'), got {cfg.geometry!r}")
    _checks.count(bins, "bins", 1)
    from scipy import special
    n_steps, dt = _steps_for(cfg)
    blocks = _run([(0.0, 0.0)], lambda x: x, cfg, {n_steps}, _positions)[0][n_steps]
    x, y = map(np.concatenate, zip(*blocks))
    t = cfg.t_end

    sx = math.sqrt(2.0 * t)
    sy = math.sqrt(2.0 * t**3 / 3.0)
    x_edges = np.linspace(-_SPAN_SIGMAS * sx, _SPAN_SIGMAS * sx, bins + 1)
    y_edges = np.linspace(-_SPAN_SIGMAS * sy, _SPAN_SIGMAS * sy, bins + 1)
    counts, _, _ = np.histogram2d(x, y, bins=[x_edges, y_edges])

    # cell averages of the kernel by one tensor-product 4x4 Gauss-Legendre
    # rule: nodes and weights are indexed (cell, node), the kernel values
    # (x cell, y cell, x node, y node), and each cell reduces as w_x @ K @ w_y
    xs, wx = (q.reshape(bins, 4) for q in _panel_quadrature(x_edges[:-1], x_edges[1:], 4))
    ys, wy = (q.reshape(bins, 4) for q in _panel_quadrature(y_edges[:-1], y_edges[1:], 4))
    vals = kernels.kolmogorov_kernel(t, xs[:, None, :, None], ys[None, :, None, :])
    expected = (wx[:, None, None, :] @ vals @ wy[None, :, :, None])[..., 0, 0]

    mask = expected >= 0.01
    rel = np.abs(counts[mask] / cfg.n_paths - expected[mask]) / expected[mask]

    # X marginal is exactly Gaussian with variance 2t; include the tails so
    # the cells partition the line and Pearson's k-1 degrees apply
    full_edges = np.concatenate([[-np.inf], x_edges, [np.inf]])
    x_probs = np.diff(special.ndtr(full_edges / sx))
    x_counts, _ = np.histogram(x, bins=full_edges)
    keep = x_probs * cfg.n_paths >= 5
    stat = float(np.sum((x_counts[keep] - cfg.n_paths * x_probs[keep]) ** 2
                        / (cfg.n_paths * x_probs[keep])))
    pvalue = float(special.chdtrc(int(keep.sum()) - 1, stat))

    return KolmogorovResult(
        max_rel_error=float(rel.max()) if rel.size else math.nan,
        rel_errors=rel,
        high_mass_cells=int(mask.sum()),
        chi2_pvalue=pvalue,
        var_x=float(np.var(x)),
        var_y=float(np.var(y)),
        var_x_expected=2.0 * t,
        var_y_expected=2.0 * t**3 / 3.0,
        n_paths=cfg.n_paths,
    )
