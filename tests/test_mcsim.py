import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from shearmix import kernels as kr
from shearmix import mcsim
from shearmix.velocity import (BinaryCascadeField, GridField, PiecewiseConstantField,
                               SineField, two_plateau)

ZERO = PiecewiseConstantField([0.0], [0.0])
CONST = PiecewiseConstantField([0.0], [0.4])
TWO = two_plateau(0.0, 1.0)


def small_cfg(**kw):
    base = dict(dt=0.01, n_paths=4000, t_end=0.5, seed=707, bins=8,
                block_size=1024)
    base.update(kw)
    return mcsim.PathConfig(**base)


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mcsim.PathConfig(dt=0.0, n_paths=10, t_end=1.0)
        with pytest.raises(ValueError):
            mcsim.PathConfig(dt=0.1, n_paths=0, t_end=1.0)
        with pytest.raises(ValueError):
            mcsim.PathConfig(dt=0.1, n_paths=10, t_end=1.0, y_integrator="simpson")
        with pytest.raises(ValueError):
            mcsim.PathConfig(dt=0.1, n_paths=10, t_end=1.0, geometry="sphere")
        with pytest.raises(ValueError, match="workers must be at least 1"):
            mcsim.PathConfig(dt=0.1, n_paths=10, t_end=1.0, workers=0)


class TestSimulate:
    def test_mass_conservation(self):
        hist = mcsim.simulate((0.3, 0.7), TWO, small_cfg())
        assert int(hist.counts.sum()) == hist.n_paths
        assert hist.n_absorbed == 0

    def test_zero_field_keeps_y_exactly(self):
        cfg = small_cfg(bins=16)
        hist = mcsim.simulate((0.5, 0.3126), ZERO, cfg)
        # all mass stays in the single y-column containing y0
        col = int(0.3126 * 16)
        assert int(hist.counts[:, col].sum()) == cfg.n_paths

    def test_constant_field_translates_y_exactly(self):
        cfg = small_cfg(t_end=0.5, bins=16)
        hist = mcsim.simulate((0.5, 0.0), CONST, cfg)
        # left-endpoint rule is exact for constant V: y = 0.4 * 0.5 = 0.2
        col = int(round(0.2 * 16))
        assert int(hist.counts[:, col].sum()) == cfg.n_paths

    def test_determinism_and_worker_independence(self):
        cfg1 = small_cfg(workers=1)
        cfg2 = small_cfg(workers=3)
        h1 = mcsim.simulate((0.2, 0.2), TWO, cfg1)
        h2 = mcsim.simulate((0.2, 0.2), TWO, cfg2)
        h3 = mcsim.simulate((0.2, 0.2), TWO, cfg1)
        np.testing.assert_array_equal(h1.counts, h2.counts)
        np.testing.assert_array_equal(h1.counts, h3.counts)

    def test_different_seeds_differ(self):
        h1 = mcsim.simulate((0.2, 0.2), TWO, small_cfg(seed=1))
        h2 = mcsim.simulate((0.2, 0.2), TWO, small_cfg(seed=2))
        assert np.any(h1.counts != h2.counts)

    def test_x_marginal_matches_torus_heat_kernel(self):
        cfg = small_cfg(n_paths=100_000, dt=0.05, t_end=0.3, bins=32,
                        block_size=1 << 14)
        hist = mcsim.simulate((0.25, 0.0), ZERO, cfg)
        observed = hist.counts.sum(axis=1)
        edges = np.linspace(0, 1, 33)
        expected = np.array([kr.heat_torus_cell_mass(0.25, lo, hi, 0.3)
                             for lo, hi in zip(edges[:-1], edges[1:])])
        stat = float(np.sum((observed - cfg.n_paths * expected) ** 2
                            / (cfg.n_paths * expected)))
        from scipy.stats import chi2
        assert chi2.sf(stat, 31) > 0.001

    def test_long_time_uniformizes(self):
        # the slowest mode of this field decays at rate ~0.205, so t = 30
        # puts the residual TV (~2e-3) far below the sampling bands
        cfg = small_cfg(n_paths=64_000, dt=0.02, t_end=30.0, bins=4,
                        block_size=1 << 14)
        hist = mcsim.simulate((0.1, 0.9), TWO, cfg)
        expected = cfg.n_paths / 16.0
        sigma = math.sqrt(expected * (1 - 1 / 16.0))
        assert np.all(np.abs(hist.counts - expected) < 5 * sigma)

    def test_snapshots_share_trajectories(self):
        cfg = small_cfg(t_end=0.4)
        h1, h2 = mcsim.simulate_snapshots((0.3, 0.3), TWO, cfg, [0.2, 0.4])
        assert h1.t == pytest.approx(0.2) and h2.t == pytest.approx(0.4)
        assert int(h1.counts.sum()) == int(h2.counts.sum()) == cfg.n_paths

    def test_start_outside_torus_is_wrapped(self):
        # one left-rule step reads V at the start, V(-0.25 mod 1) = V(0.75) = 1,
        # so every path ends at y = 0.25, in column 2 of 8
        cfg = small_cfg(dt=0.25, t_end=0.25, n_paths=500, bins=8)
        hist = mcsim.simulate((-0.25, 0.0), TWO, cfg)
        assert int(hist.counts[:, 2].sum()) == cfg.n_paths

    def test_killed_variant_absorbs(self):
        cfg = small_cfg(t_end=0.5)
        hist = mcsim.simulate((0.5, 0.5), ZERO, cfg, kill_interval=(0.25, 0.75))
        assert hist.n_absorbed > 0
        assert int(hist.counts.sum()) + hist.n_absorbed == cfg.n_paths

    @pytest.mark.parametrize("start,kill,message", [
        ((math.nan, 0.1), None, "starts must be finite"),
        ((0.5, math.inf), None, "starts must be finite"),
        ((0.5, 0.5), (0.75, 0.25), "kill_interval must be increasing"),
        ((0.5, 0.5), (0.5, 0.5), "kill_interval must be increasing"),
        ((0.5, 0.5), (math.nan, 0.8), "kill_interval must be increasing"),
    ])
    def test_refuses_bad_start_or_kill_interval(self, start, kill, message):
        with pytest.raises(ValueError, match=message):
            mcsim.simulate(start, TWO, small_cfg(n_paths=10), kill_interval=kill)

    def test_start_outside_kill_interval_is_absorbed(self):
        # 14 standard deviations of one step from the interval
        hist = mcsim.simulate((0.95, 0.5), TWO, small_cfg(n_paths=10, dt=1e-4, t_end=1e-3),
                              kill_interval=(0.25, 0.75))
        assert hist.n_absorbed == 10

    @pytest.mark.parametrize("rule,calls_per_block", [("left", 20), ("trapezoid", 21)])
    def test_one_velocity_evaluation_per_step(self, rule, calls_per_block):
        calls = []

        def vfun(x):
            calls.append(len(x))
            return TWO(x)

        cfg = small_cfg(t_end=0.2, n_paths=2500, y_integrator=rule)  # 20 steps, 3 blocks
        mcsim._run([(0.3, 0.7)], vfun, cfg, {20}, mcsim._positions)
        assert len(calls) == 3 * calls_per_block
        assert sum(calls) == cfg.n_paths * calls_per_block

    def test_csv_round_trip(self, tmp_path):
        hist = mcsim.simulate((0.2, 0.2), TWO, small_cfg(n_paths=500))
        path = tmp_path / "hist.csv"
        path.write_text(hist.histogram_csv())
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "row,col,count"
        total = sum(int(r.split(",")[2]) for r in rows[1:])
        assert total == 500
        meta = hist.metadata()
        assert meta["velocity"]["kind"] == "piecewise_constant"
        assert meta["seed"] == hist.meta["seed"]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


_GOLDEN_RNG = np.random.default_rng(11)
_GRID16 = GridField(_GOLDEN_RNG.uniform(-1, 1, 16))
_GRID10 = GridField(_GOLDEN_RNG.uniform(-1, 1, 10))


class TestGoldenHistograms:
    """Digests recorded with the out-of-place step and binary-search lookup.

    The runs cross several draw chunks, blocks and both workers, and cover
    the dyadic-table fields, the binary-search fields, a smooth field under
    the trapezoid rule, absorption under either y rule, and plane shear
    V(x) = x, whose velocity is the position array itself.  Absorption reads
    x alone, so both killed runs absorb the same paths.
    """

    @staticmethod
    def cfg(**kw):
        base = dict(dt=1e-3, n_paths=3000, t_end=0.3, seed=4242, bins=8,
                    block_size=1024, workers=2)
        base.update(kw)
        return mcsim.PathConfig(**base)

    @pytest.mark.parametrize("field, rule, kill, times, digests, absorbed", [
        (_GRID16, "left", None, [0.1, 0.3],
         ["65849e34ac39b4b3", "b6ecad29a4c762ae"], [0, 0]),
        (_GRID10, "left", None, [0.1, 0.3],
         ["fb7ee41728040067", "e4de7d0c44acd0b1"], [0, 0]),
        (PiecewiseConstantField([0.0, 0.1, 0.35, 0.6], [0.3, -1.0, 0.8, 0.1]),
         "left", None, [0.1, 0.3], ["2eb842f8fe39a6d5", "e555a7a52a43f7c8"], [0, 0]),
        (BinaryCascadeField(c=0.01), "left", None, [0.1, 0.3],
         ["005ec01ac5bd8187", "6a5cfe6a74a06ca7"], [0, 0]),
        (SineField(amplitude=1.0, frequency=2), "trapezoid", None, [0.1, 0.3],
         ["5def7fc44369e019", "a41d73b294e6cddd"], [0, 0]),
        (TWO, "left", (0.2, 0.8), [0.02, 0.05],
         ["c5707d1d2e69a936", "0b819e9f3f75d8cf"], [629, 1820]),
        (SineField(amplitude=1.0, frequency=2), "trapezoid", (0.2, 0.8), [0.02, 0.05],
         ["e7b0d48160ade1d7", "cfa70204b9d1155a"], [629, 1820]),
    ], ids=["grid16", "grid10", "uneven", "cascade", "sine-trapezoid", "killed",
            "killed-trapezoid"])
    def test_torus(self, field, rule, kill, times, digests, absorbed):
        hists = mcsim.simulate_snapshots((0.5, 0.125), field, self.cfg(y_integrator=rule),
                                         times, kill_interval=kill)
        assert [_digest(h.counts) for h in hists] == digests
        assert [h.n_absorbed for h in hists] == absorbed

    @pytest.mark.parametrize("rule, digest", [("left", "735cb7aff71a7bfe"),
                                              ("trapezoid", "22c9989b8a16f0c3")])
    def test_plane_shear(self, rule, digest):
        cfg = self.cfg(dt=1e-2, t_end=1.0, geometry="plane", y_integrator=rule)
        blocks = mcsim._run([(0.0, 0.0)], lambda x: x, cfg, {100}, mcsim._positions)[0][100]
        assert _digest(*map(np.concatenate, zip(*blocks))) == digest


class TestDrawBuffer:
    """A block draws _STEP_CHUNK steps of normals at a time into one reused buffer."""

    @pytest.mark.parametrize("rule, kill", [("left", None), ("trapezoid", None),
                                            ("left", (0.2, 0.8))],
                             ids=["left", "trapezoid", "killed"])
    def test_chunk_size_keeps_bits(self, monkeypatch, rule, kill):
        # 23 steps: whole and partial chunks of every size, over three blocks
        cfg = small_cfg(dt=1e-3, t_end=0.023, n_paths=2500, y_integrator=rule)
        runs = []
        for chunk in (1, 4, 16):
            monkeypatch.setattr(mcsim, "_STEP_CHUNK", chunk)
            hists = mcsim.simulate_snapshots((0.5, 0.125), TWO, cfg, [0.003, 0.016, 0.023],
                                             kill_interval=kill)
            runs.append([(h.counts.tobytes(), h.n_absorbed) for h in hists])
        assert runs[0] == runs[1] == runs[2]
        if kill is not None:
            assert runs[0][-1][1] > 0

    @pytest.mark.parametrize("rule", ["left", "trapezoid"])
    def test_block_peak_memory(self, rule):
        # one 2^15-path block: 4 rows of draws are 1 MiB, 16 rows 4 MiB, and the
        # path state and V temporaries about 2 MiB more
        cfg = mcsim.PathConfig(dt=1e-3, n_paths=1 << 15, t_end=0.02, bins=8,
                               y_integrator=rule)
        tracemalloc.start()
        try:
            mcsim.simulate((0.3, 0.7), TWO, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


_STARTS = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                             st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=4)


def _doeblin_per_start(field, t_star, starts, cfg):
    """(alpha_hat, alpha_lower_confidence, empty cells) from one run per start."""
    hists = [mcsim.simulate(start, field, cfg.replace(t_end=t_star)) for start in starts]
    return (min(h.alpha_hat() for h in hists), min(h.alpha_lower_confidence() for h in hists),
            [(h.start, cell) for h in hists for cell in h.empty_cells()])


def _tv_per_start(field, start1, start2, times, cfg):
    """(tv, bias) from one `simulate_snapshots` per start."""
    run_cfg = cfg.replace(t_end=max(times))
    h1 = mcsim.simulate_snapshots(start1, field, run_cfg, times)
    h2 = mcsim.simulate_snapshots(start2, field, run_cfg, times)
    tv, bias = [], []
    for a, b in zip(h1, h2):
        p, q = a.probabilities(), b.probabilities()
        tv.append(0.5 * float(np.abs(p - q).sum()))
        pooled = 0.5 * (p + q)
        var = pooled * (1.0 - pooled) * (1.0 / a.n_paths + 1.0 / b.n_paths)
        bias.append(0.5 * float(np.sum(np.sqrt(2.0 * var / math.pi))))
    return tv, bias


class TestSharedPool:
    """All starts of one call share one pool; each start keeps its own bits."""

    @settings(max_examples=30, deadline=None)
    @given(starts=_STARTS, n_paths=st.integers(1, 600), block_size=st.integers(16, 128),
           workers=st.sampled_from([1, 2]),
           steps=st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True),
           kill=st.sampled_from([None, (0.2, 0.8)]))
    def test_multi_start_equals_one_call_per_start(self, starts, n_paths, block_size,
                                                   workers, steps, kill):
        assume(n_paths % block_size)
        cfg = small_cfg(t_end=0.1, n_paths=n_paths, block_size=block_size, workers=workers)
        times = [0.01 * s for s in steps]
        runs = mcsim.simulate_starts(starts, TWO, cfg, times, kill_interval=kill)
        assert len(runs) == len(starts)
        for start, hists in zip(starts, runs):
            alone = mcsim.simulate_snapshots(start, TWO, cfg, times, kill_interval=kill)
            assert [h.t for h in hists] == [h.t for h in alone]
            for h, a in zip(hists, alone):
                np.testing.assert_array_equal(h.counts, a.counts)
                assert h.n_absorbed == a.n_absorbed
                assert h.start == a.start

    @settings(max_examples=10, deadline=None)
    @given(starts=_STARTS, seed=st.integers(0, 2**32 - 1), workers=st.sampled_from([1, 2]))
    def test_doeblin_and_tv_equal_the_per_start_composition(self, starts, seed, workers):
        cfg = small_cfg(t_end=0.5, n_paths=300, block_size=128, bins=2, seed=seed,
                        workers=workers)
        est = mcsim.doeblin_estimate(TWO, 0.3, starts, cfg)
        assert (est.alpha_hat, est.alpha_lower_confidence, est.empty_cells) == \
            _doeblin_per_start(TWO, 0.3, starts, cfg)
        times = [0.1, 0.25, 0.5]
        decay = mcsim.tv_decay(TWO, starts[0], starts[-1], times, cfg)
        tv, bias = _tv_per_start(TWO, starts[0], starts[-1], times, cfg)
        assert decay.tv.tolist() == tv
        assert decay.bias.tolist() == bias


class TestDoeblin:
    def test_uniform_sampler_alpha_near_one(self):
        # a synthetic perfectly-uniform kernel: the estimator converges to 1
        rng = np.random.default_rng(99)
        counts = np.bincount(rng.integers(0, 16, size=100_000), minlength=16)
        hist = mcsim.TransitionHistogram(4, counts.reshape(4, 4), 100_000,
                                         (0.0, 0.0), 1.0)
        assert hist.alpha_hat() >= 0.9
        assert hist.alpha_lower_confidence() <= hist.alpha_hat()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bins=st.integers(1, 8),
           n_paths=st.integers(1, 10**7), empty=st.booleans())
    def test_lower_confidence_is_the_per_cell_minimum(self, seed, bins, n_paths, empty):
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n_paths, rng.dirichlet(np.ones(bins * bins)))
        if empty:
            counts[rng.integers(bins * bins)] = 0
        hist = mcsim.TransitionHistogram(bins, counts.reshape(bins, bins), n_paths,
                                         (0.0, 0.0), 1.0)
        per_cell = [0.0 if k == 0 else float(stats.beta.ppf(1.0 - 0.99, k, n_paths - k + 1))
                    for k in counts.tolist()]
        assert hist.alpha_lower_confidence() == min(bins**2 * lo for lo in per_cell)

    @pytest.mark.parametrize("level", [0.95, 0.99])
    @pytest.mark.parametrize("n_paths", [1, 2, 1000, 4096, 10**6])
    @pytest.mark.parametrize("which", ["zero", "one", "mid", "n-1"])
    def test_lower_confidence_is_beta_ppf(self, level, n_paths, which):
        k = {"zero": 0, "one": 1, "mid": n_paths // 2, "n-1": n_paths - 1}[which]
        # one cell holding k of the paths
        hist = mcsim.TransitionHistogram(1, np.array([[k]]), n_paths, (0.0, 0.0), 1.0)
        expected = 0.0 if k == 0 else float(stats.beta.ppf(1.0 - level, k, n_paths - k + 1))
        assert hist.alpha_lower_confidence(level) == expected

    def test_dirac_start_zero_alpha(self):
        cfg = small_cfg(dt=0.001, t_end=0.001, n_paths=2000, bins=8)
        est = mcsim.doeblin_estimate(TWO, 0.001, [(0.1, 0.1)], cfg)
        assert est.alpha_hat == 0.0
        assert not est.all_cells_hit

    def test_two_plateau_minorization(self):
        cfg = small_cfg(dt=0.005, n_paths=40_000, t_end=1.4375, bins=4,
                        block_size=1 << 14)
        est = mcsim.doeblin_estimate(TWO, 1.4375, [(0.1, 0.1), (0.6, 0.9)], cfg)
        assert est.all_cells_hit
        assert est.alpha_hat > 0.0
        assert 0.0 < est.alpha_lower_confidence <= est.alpha_hat


class TestTVDecay:
    def test_identical_starts_coupled_to_zero(self):
        cfg = small_cfg(n_paths=2000)
        out = mcsim.tv_decay(TWO, (0.3, 0.3), (0.3, 0.3), [0.25, 0.5], cfg)
        np.testing.assert_allclose(out.tv, 0.0, atol=1e-15)

    def test_decay_rate_matches_slowest_mode_gap(self):
        # the empirical TV rate approaches the k = 1 resolvent gap (~0.205)
        from shearmix.spectral import make_operator, resolvent_gap

        cfg = small_cfg(n_paths=40_000, dt=0.01, bins=4, block_size=1 << 14)
        out = mcsim.tv_decay(TWO, (0.1, 0.1), (0.6, 0.6), [1.0, 8.0], cfg)
        fitted = math.log(out.tv[0] / out.tv[-1]) / 7.0
        gap = resolvent_gap(make_operator(TWO, 1, n=64), s_points=96).r_lambda1
        assert np.all(np.diff(out.tv) < 0)
        assert fitted == pytest.approx(gap, rel=0.2)

    def test_no_mixing_in_y_without_shear(self):
        # starts differing only in y stay maximally separated under V = 0
        cfg = small_cfg(n_paths=4000, bins=8)
        out = mcsim.tv_decay(ZERO, (0.3, 0.1), (0.3, 0.6), [0.5], cfg)
        assert out.tv[0] > 0.95


class TestArcsine:
    def test_cdf_anchors(self):
        assert mcsim.ArcsineResult.cdf(0.0) == 0.0
        assert mcsim.ArcsineResult.cdf(1.0) == pytest.approx(1.0)
        assert mcsim.ArcsineResult.cdf(0.5) == pytest.approx(0.5)

    def test_ks_small_at_moderate_resolution(self):
        cfg = mcsim.PathConfig(dt=1e-3, n_paths=20_000, t_end=1.0, seed=12,
                               geometry="plane", block_size=1 << 13)
        res = mcsim.arcsine_experiment(cfg)
        assert res.ks_distance <= 0.05

    def test_requires_plane(self):
        with pytest.raises(ValueError):
            mcsim.arcsine_experiment(small_cfg())


class TestKolmogorovExperiment:
    def test_matches_kernel(self):
        cfg = mcsim.PathConfig(dt=2e-3, n_paths=200_000, t_end=1.0, seed=5,
                               geometry="plane", y_integrator="trapezoid",
                               block_size=1 << 14)
        res = mcsim.kolmogorov_experiment(cfg, bins=12)
        assert res.high_mass_cells >= 4
        assert res.max_rel_error <= 0.08
        assert res.chi2_pvalue > 0.001
        assert res.var_x == pytest.approx(res.var_x_expected, rel=0.02)
        assert res.var_y == pytest.approx(res.var_y_expected, rel=0.02)

    def test_chi2_pvalue_is_the_scipy_stats_value(self):
        # the X-marginal test recomputed with scipy.stats from the same paths
        cfg = mcsim.PathConfig(dt=1e-2, n_paths=20_000, t_end=1.0, seed=17,
                               geometry="plane", block_size=1 << 12)
        bins, span_sigmas = 12, mcsim._SPAN_SIGMAS
        res = mcsim.kolmogorov_experiment(cfg, bins=bins)
        n_steps, _ = mcsim._steps_for(cfg)
        blocks = mcsim._run([(0.0, 0.0)], lambda x: x, cfg, {n_steps},
                            mcsim._positions)[0][n_steps]
        x, _ = map(np.concatenate, zip(*blocks))
        assert float(np.var(x)) == res.var_x
        sx = math.sqrt(2.0 * cfg.t_end)
        edges = np.linspace(-span_sigmas * sx, span_sigmas * sx, bins + 1)
        full_edges = np.concatenate([[-np.inf], edges, [np.inf]])
        probs = np.diff(stats.norm.cdf(full_edges, scale=sx))
        counts, _ = np.histogram(x, bins=full_edges)
        keep = probs * cfg.n_paths >= 5
        stat = float(np.sum((counts[keep] - cfg.n_paths * probs[keep]) ** 2
                            / (cfg.n_paths * probs[keep])))
        assert keep.sum() > 2
        assert res.chi2_pvalue == float(stats.chi2.sf(stat, int(keep.sum()) - 1))
