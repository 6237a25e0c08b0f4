import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from shearmix import evolve
from shearmix import functionals as fn
from shearmix import spectral
from shearmix.spectral import (
    ModeOperator,
    laplace_eigs,
    make_operator,
    resolvent_gap,
    semigroup_norm,
)
from shearmix.velocity import (
    BinaryCascadeField,
    GridField,
    HeavisideField,
    PiecewiseConstantField,
    SawtoothField,
    SineField,
    two_plateau,
)

COS = SineField(1.0, 1, math.pi / 2)


class TestLaplaceEigs:
    def test_dirichlet_unit(self):
        l1, l2, e1 = laplace_eigs("dirichlet", (0.0, 1.0), n=64)
        assert l1 == pytest.approx(math.pi**2)
        assert l2 == pytest.approx(4 * math.pi**2)
        h = 1.0 / 65
        assert h * np.dot(e1, e1) == pytest.approx(1.0, abs=1e-12)

    def test_periodic_unit(self):
        l1, l2, e1 = laplace_eigs("periodic", (0.0, 1.0), n=64)
        assert l1 == 0.0
        assert l2 == pytest.approx(4 * math.pi**2)
        np.testing.assert_allclose(e1, 1.0, atol=1e-12)

    def test_dirichlet_half_interval(self):
        l1, _, _ = laplace_eigs("dirichlet", (0.0, 0.5), n=32)
        assert l1 == pytest.approx(4 * math.pi**2)


class TestModeOperator:
    @pytest.mark.parametrize("boundary,disc", [
        ("periodic", "fd2"), ("periodic", "spectral"),
        ("dirichlet", "fd2"), ("dirichlet", "spectral"),
    ])
    def test_symmetric_psd_laplacian(self, boundary, disc):
        op = make_operator(COS, k=1, boundary=boundary, n=32, discretization=disc)
        lap = op.laplacian()
        np.testing.assert_allclose(lap, lap.T, atol=1e-9)
        eigs = sla.eigvalsh(lap)
        assert eigs[0] > -1e-8

    def test_skew_part_diagonal_imaginary(self):
        op = make_operator(COS, k=2, boundary="periodic", n=32)
        skew = op.matrix() - op.laplacian()
        np.testing.assert_allclose(np.real(skew), 0.0, atol=1e-14)
        np.testing.assert_allclose(
            np.imag(skew), np.diag(2 * math.pi * 2 * COS(op.nodes)), atol=1e-14)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ModeOperator("periodic", (0.0, 1.0), np.zeros(8), 1)

    def test_dirichlet_grid_excludes_endpoints(self):
        op = make_operator(COS, k=0, boundary="dirichlet", n=20)
        assert op.nodes[0] > 0.0 and op.nodes[-1] < 1.0

    def test_spectral_dirichlet_exact_lambda1(self):
        op = make_operator(COS, k=1, boundary="dirichlet", n=32, discretization="spectral")
        assert op.lambda1_discrete == pytest.approx(math.pi**2, rel=1e-10)

    def test_fd2_periodic_lambda1_zero(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32, discretization="fd2")
        assert abs(op.lambda1_discrete) < 1e-9


class TestPropagator:
    def test_semigroup_property(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        p1 = op.propagator(0.1)
        p2 = op.propagator(0.2)
        np.testing.assert_allclose(p1 @ p1, p2, atol=1e-10)

    def test_cached(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        assert op.propagator(0.1) is op.propagator(0.1)

    def test_mass_mode_fixes_constants(self):
        op = make_operator(COS, k=0, boundary="periodic", n=32)
        ones = np.ones(32, dtype=complex)
        np.testing.assert_allclose(op.propagator(0.5) @ ones, ones, atol=1e-10)

    def test_constant_field_is_phase_times_heat(self):
        const = PiecewiseConstantField([0.0], [0.7])
        zero = PiecewiseConstantField([0.0], [0.0])
        op_c = make_operator(const, k=3, boundary="periodic", n=32)
        op_0 = make_operator(zero, k=3, boundary="periodic", n=32)
        dt = 0.2
        phase = np.exp(-2j * math.pi * 3 * 0.7 * dt)
        np.testing.assert_allclose(op_c.propagator(dt), phase * op_0.propagator(dt),
                                   atol=1e-12)

    def test_contraction(self):
        op = make_operator(HeavisideField(), k=1, boundary="dirichlet", n=48)
        dt = 0.07
        norm = np.linalg.norm(op.propagator(dt), 2)
        assert norm <= math.exp(-op.lambda1_discrete * dt) * (1 + 1e-10)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sine=st.booleans(),
           boundary=st.sampled_from(["periodic", "dirichlet"]),
           disc=st.sampled_from(["fd2", "spectral"]), k=st.integers(0, 16),
           n=st.integers(16, 64), j=st.integers(1, 3), log2_scale=st.floats(-4.0, 6.0))
    def test_doubled_step_is_expm_bit_for_bit(self, seed, sine, boundary, disc, k, n, j,
                                              log2_scale):
        rng = np.random.default_rng(seed)
        if sine:
            field = SineField(rng.uniform(0.1, 2.0), int(rng.integers(1, 4)),
                              rng.uniform(0.0, 2 * math.pi))
        else:
            field = GridField(rng.uniform(-1.0, 1.0, int(rng.integers(1, 17))))
        op = make_operator(field, k, boundary=boundary, n=n, discretization=disc)
        # ||d A||_1 log-uniform on both sides of theta_13
        d = spectral.THETA_13 / np.abs(op.matrix()).sum(axis=0).max() * 2.0**log2_scale
        op.propagator(d)
        calls, expm = [], sla.expm

        def counted(mat):
            calls.append(1)
            return expm(mat)

        with mock.patch.object(sla, "expm", counted):
            got = op.propagator(2**j * d)
        squared = d * abs(np.trace(op.matrix())) / n >= spectral.THETA_13
        assert len(calls) == (0 if squared else 1)
        assert np.array_equal(got, sla.expm(-(2**j * d) * op.matrix()))


def _arrays(value):
    """Every numpy array reachable from `value` through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


class TestOperatorsKeepNoMatrix:
    """laplacian() and matrix() are built when called; no operator keeps them."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls, matrix = [], ModeOperator.matrix

        def counted(op):
            calls.append(op)
            return matrix(op)

        monkeypatch.setattr(ModeOperator, "matrix", counted)
        return calls

    def test_evolution_holds_only_propagators(self, builds):
        field = two_plateau()
        evo = evolve.Evolution(field)
        u0 = evolve.initial_samples("random", 64, 9, seed=1)
        evolve.relax_trace(u0, field, 0.05, n_samples=3, correlation_grid=32, evolution=evo)
        assert len(evo._ops) == 5 and len(builds) == 5  # one build per |k|, for its expm
        for op in evo._ops.values():
            big = [a for a in _arrays(vars(op)) if a.size >= op.n ** 2]
            props = list(op._propagators.values())
            assert len(big) == len(props) == 1
            assert all(any(a is p for p in props) for a in big)

    @pytest.mark.parametrize("boundary,disc", [
        ("periodic", "fd2"), ("periodic", "spectral"), ("dirichlet", "fd2"),
    ])
    def test_gap_builds_the_matrix_once(self, builds, monkeypatch, boundary, disc):
        laplacians, laplacian = [], ModeOperator.laplacian
        monkeypatch.setattr(ModeOperator, "laplacian",
                            lambda op: laplacians.append(op) or laplacian(op))
        op = make_operator(COS, k=1, boundary=boundary, n=32, discretization=disc)
        resolvent_gap(op, s_points=64)
        assert builds == [op]
        assert laplacians == [op]  # the accretivity edge is read from the gap's matrix
        edge = op.lambda1_discrete  # and cached for later readers
        assert laplacians == [op] and edge == spectral._lambda_min(laplacian(op))

    def test_semigroup_norm_builds_only_for_the_eigendecomposition(self, builds):
        op = make_operator(two_plateau(), k=1, n=32)
        semigroup_norm(op, [0.0, 0.01, 0.1])
        assert op.eigendecomposition.route == "eig" and len(builds) == 1
        semigroup_norm(op, [0.2])
        assert len(builds) == 1

    def test_expm_route_builds_once_per_call(self, builds, monkeypatch):
        monkeypatch.setattr(spectral, "EIG_COND_MAX", 0.0)
        op = make_operator(two_plateau(), k=1, n=32)
        norms = semigroup_norm(op, [0.01, 0.1])
        assert op.eigendecomposition.route == "expm" and len(builds) == 2
        assert np.array_equal(norms, _expm_norms(op, [0.01, 0.1]))


class TestSemigroupNorm:
    def test_time_zero_is_one(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        assert semigroup_norm(op, [0.0])[0] == 1.0

    def test_free_dirichlet_heat_decay(self):
        zero = PiecewiseConstantField([0.0], [0.0])
        op = make_operator(zero, k=1, boundary="dirichlet", n=64,
                           discretization="spectral")
        times = np.array([0.05, 0.2, 0.5])
        norms = semigroup_norm(op, times)
        np.testing.assert_allclose(norms, np.exp(-math.pi**2 * times), atol=1e-6)

    def test_accretivity_bound(self):
        for disc in ("fd2", "spectral"):
            op = make_operator(COS, k=1, boundary="dirichlet", n=48, discretization=disc)
            times = np.linspace(0.01, 0.6, 7)
            norms = semigroup_norm(op, times)
            cap = np.exp(-op.lambda1_discrete * times) * (1 + 48 * 2e-16 + 1e-10)
            assert np.all(norms <= cap)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 16),
           boundary=st.sampled_from(["periodic", "dirichlet"]),
           disc=st.sampled_from(["fd2", "spectral"]), k=st.integers(0, 16),
           n=st.integers(16, 64), t_max=st.floats(1e-3, 2.0))
    def test_eig_route_matches_expm(self, seed, cells, boundary, disc, k, n, t_max):
        field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
        op = make_operator(field, k, boundary=boundary, n=n, discretization=disc)
        times = np.concatenate(([0.0], np.geomspace(1e-6, t_max, 6)))
        norms = semigroup_norm(op, times)
        assert op.eigendecomposition.route == "eig"
        assert norms[0] == 1.0
        ref = _expm_norms(op, times)
        assert np.all(np.abs(norms - ref) <= _eig_tolerance(op, times) * ref)

    def test_expm_fallback_is_the_expm_loop(self, monkeypatch):
        monkeypatch.setattr(spectral, "EIG_COND_MAX", 0.5)
        op = make_operator(two_plateau(0.0, 1.0), 3, boundary="periodic", n=48)
        times = np.array([0.0, 1e-3, 0.05, 0.4])
        norms = semigroup_norm(op, times)
        eig = op.eigendecomposition
        assert (eig.route, eig.left, eig.right) == ("expm", None, None) and eig.cond_w >= 1.0
        assert norms.tolist() == _expm_norms(op, times).tolist()

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_mode_zero_is_a_contraction_of_norm_one(self, disc):
        op = make_operator(two_plateau(0.0, 1.0), 0, boundary="periodic", n=40,
                           discretization=disc)
        times = np.geomspace(1e-3, 3.0, 9)
        norms = semigroup_norm(op, times)
        assert op.eigendecomposition.route == "eig"
        assert np.all(np.abs(norms - 1.0) <= _eig_tolerance(op, times))


def _expm_norms(op, times):
    """The reference: one dense expm per nonzero time."""
    return np.array([1.0 if t == 0.0 else float(np.linalg.norm(sla.expm(-t * op.matrix()), 2))
                     for t in times])


def _eig_tolerance(op, times):
    """semigroup_norm's stated relative tolerance on route "eig"."""
    norm1 = np.abs(op.matrix()).sum(axis=0).max()
    return (16.0 * op.eigendecomposition.cond_w * np.maximum(1.0, times * norm1)
            * np.finfo(float).eps)


class TestResolventGap:
    def test_constant_field_gap_zero(self):
        const = PiecewiseConstantField([0.0], [0.4])
        op = make_operator(const, k=1, boundary="periodic", n=32)
        summary = resolvent_gap(op, s_points=96)
        assert summary.r_lambda1 == pytest.approx(0.0, abs=1e-5)
        assert summary.s_argmin == pytest.approx(2 * math.pi * 0.4, abs=1e-3)

    def test_shift_invariance(self):
        op0 = make_operator(HeavisideField(1.0, 0.0), k=1, boundary="periodic", n=32)
        op1 = make_operator(HeavisideField(1.5, 0.5), k=1, boundary="periodic", n=32)
        s0 = resolvent_gap(op0, s_points=96)
        s1 = resolvent_gap(op1, s_points=96)
        assert s1.r_lambda1 == pytest.approx(s0.r_lambda1, abs=1e-6)
        assert s1.s_argmin - s0.s_argmin == pytest.approx(2 * math.pi * 0.5, abs=1e-3)

    def test_cosine_beats_correlation_bound(self):
        op = make_operator(COS, k=1, boundary="periodic", n=64)
        summary = resolvent_gap(op, s_points=96)
        corr = 2 * math.pi * fn.lipschitz_correlation(COS, grid_n=128)
        osc = 2 * math.pi * COS.oscillation()
        bound = fn.gap_bound_from_correlation(corr, osc, 1.0, periodic_improved=True)
        assert summary.r_lambda1 >= bound - 1e-8

    def test_sigma_floor_outside_range(self):
        # sigma_min(A - lambda1 - i s) >= dist(s, skew range) for exterior s
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        mat = op.matrix()
        shift = op.lambda1_discrete
        w_lo, w_hi = op.skew_values.min(), op.skew_values.max()
        for s in (w_hi + 0.5, w_hi + 2.0, w_lo - 1.0):
            sig = sla.svdvals(mat - (shift + 1j * s) * np.eye(op.n))[-1]
            dist = max(w_lo - s, s - w_hi, 0.0)
            assert sig >= dist - 1e-10

    def test_grid_refinement_stability(self):
        r = []
        for n in (48, 96):
            op = make_operator(COS, k=1, boundary="periodic", n=n)
            r.append(resolvent_gap(op, s_points=96).r_lambda1)
        assert abs(r[1] - r[0]) / r[1] < 0.01

    def test_trace_and_json(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        summary = resolvent_gap(op, s_points=64)
        assert summary.trace is not None and summary.trace.shape[1] == 2
        blob = summary.to_json_dict()
        assert blob["lambda1"] == 0.0 and len(blob["e1"]) == 32


GOLDEN_FIELDS = {
    "two_plateau": lambda: two_plateau(0.0, 1.0),
    "sawtooth": lambda: SawtoothField(1.0),
    "heaviside": lambda: HeavisideField(),
    "cascade": lambda: BinaryCascadeField(1.0),
    "cos": lambda: SineField(1.0, 1, math.pi / 2),
    "grid3": lambda: GridField(np.random.default_rng(3).uniform(-1.0, 1.0, 16)),
    "grid8": lambda: GridField(np.random.default_rng(8).uniform(-1.0, 1.0, 16)),
}


class TestGapGolden:
    """r_lambda1, s_argmin, window_extensions and refinement_warning of fd2
    operators, recorded with the all-dense sweep and compared exactly.  The
    mirror-symmetric fields have twin sweep points whose dense values differ
    only by roundoff; five of these cases change when the banded sweep's
    candidates and their neighbours are not evaluated again with the dense SVD.
    `options` are spectral module constants patched for the case."""

    CASES = [
        # field, k, boundary, n, s_points, options, r_lambda1, s_argmin, extensions, warned
        ("two_plateau", 2, "periodic", 32, 64, {},
         0.8116074269446558, 6.2831860884437365, 0, False),
        ("sawtooth", 2, "dirichlet", 32, 64, {},
         0.17245932015353238, 6.283185222069912, 0, False),
        ("heaviside", 1, "dirichlet", 48, 96, {},
         0.24863063022551327, 3.141592633312455, 0, False),
        ("two_plateau", 1, "periodic", 32, 64, {},
         0.20610900996883247, 3.141592866914823, 0, False),
        ("heaviside", 1, "dirichlet", 32, 64, {},
         0.2496456787458229, 3.141592440264763, 0, False),
        ("sawtooth", 2, "periodic", 32, 64, {},
         0.219988125083306, 6.086835678623726, 0, False),
        ("cascade", 1, "dirichlet", 48, 96, {},
         0.000336607400026658, -5.1151460335669026e-08, 0, False),
        ("cos", 3, "dirichlet", 48, 96, {},
         1.0922188676994193, -9.562195857510638, 0, False),
        ("grid3", 1, "periodic", 48, 96, {},
         0.04006498880968203, -0.5193195161088158, 0, False),
        ("grid8", 2, "dirichlet", 64, 128, {},
         0.41347211013800406, -2.677605846952981, 0, False),
        ("sawtooth", 1, "dirichlet", 32, 64, {"REFINE_TOL": 0.0},
         0.043389573311596395, 3.1415926045083395, 0, True),
    ]

    @pytest.mark.parametrize("name,k,boundary,n,s_points,options,r,s,ext,warned", CASES)
    def test_golden(self, monkeypatch, name, k, boundary, n, s_points, options, r, s, ext,
                    warned):
        for constant, value in options.items():
            monkeypatch.setattr(spectral, constant, value)
        op = make_operator(GOLDEN_FIELDS[name](), k, boundary=boundary, n=n,
                           discretization="fd2")
        summary = resolvent_gap(op, s_points=s_points)
        got = (summary.r_lambda1, summary.s_argmin, summary.meta["window_extensions"],
               summary.meta["refinement_warning"])
        assert got == (r, s, ext, warned)

    def test_fallbacks_are_counted_and_change_nothing(self, monkeypatch):
        name, k, boundary, n, s_points, _, r, s, ext, warned = self.CASES[0]
        banded = spectral._BandedSigma.sigma_min
        calls = []

        def every_third_fails(engine, shifts):
            values = banded(engine, shifts)
            for b, z in enumerate(shifts):
                calls.append(z)
                if len(calls) % 3 == 0:
                    values[b] = None
            return values

        monkeypatch.setattr(spectral._BandedSigma, "sigma_min", every_third_fails)
        op = make_operator(GOLDEN_FIELDS[name](), k, boundary=boundary, n=n)
        summary = resolvent_gap(op, s_points=s_points)
        assert (summary.r_lambda1, summary.s_argmin) == (r, s)
        evals = summary.meta["sigma_evals"]
        # the sweep and the refinement both call the engine
        assert len(calls) > s_points
        assert evals["dense_fallbacks"] == len(calls) // 3
        assert evals["banded"] + evals["dense_fallbacks"] == len(calls)
        assert evals["dense"] > evals["dense_fallbacks"]

    def test_singular_chunk_is_evaluated_one_shift_at_a_time(self, monkeypatch):
        # gbtrf reporting a singular block for every chunk of two or more
        # shifts sends each chunk through the one-shift path
        name, k, boundary, n, s_points, _, r, s, ext, warned = self.CASES[0]
        op = make_operator(GOLDEN_FIELDS[name](), k, boundary=boundary, n=n)
        chunked = resolvent_gap(op, s_points=s_points)
        lapack = spectral._lapack()
        factor, sizes = lapack.zgbtrf, []

        def singular_chunks(ab, kl, ku, **options):
            lu, piv, info = factor(ab, kl, ku, **options)
            sizes.append(ab.shape[1] // n)
            return lu, piv, (1 if ab.shape[1] > n else info)

        monkeypatch.setattr(lapack, "zgbtrf", singular_chunks)
        single = resolvent_gap(op, s_points=s_points)
        assert max(sizes) > 1 and sizes.count(1) == single.meta["sigma_evals"]["banded"]
        assert single.meta["sigma_evals"]["dense_fallbacks"] == 0
        assert (single.r_lambda1, single.s_argmin) == (r, s)
        assert (single.r_lambda1, single.s_argmin, single.meta) == \
            (chunked.r_lambda1, chunked.s_argmin, chunked.meta)

    # cos collocation on the torus, recorded with the all-dense sweep and trisection
    COLLOCATION_CASES = [
        # k, n, s_points, r_lambda1, s_argmin
        (1, 32, 64, 0.493059129734063, 5.982393087824699e-08),
        (1, 48, 96, 0.49305912973987664, 5.88414125442064e-07),
        (3, 32, 64, 4.029822237066303, 6.987771894569986e-07),
        (3, 48, 96, 4.029822237070951, 1.7390803593614988e-06),
    ]

    @pytest.mark.parametrize("k,n,s_points,r,s", COLLOCATION_CASES)
    def test_golden_collocation(self, k, n, s_points, r, s):
        op = make_operator(COS, k, boundary="periodic", n=n)
        assert op.discretization == "spectral"
        summary = resolvent_gap(op, s_points=s_points)
        got = (summary.r_lambda1, summary.s_argmin, summary.meta["window_extensions"],
               summary.meta["refinement_warning"])
        assert got == (r, s, 0, False)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 16),
           boundary=st.sampled_from(["periodic", "dirichlet"]), k=st.sampled_from([1, 3]),
           n=st.sampled_from([16, 33, 48]), sine=st.integers(0, 3))
    def test_banded_matches_all_dense(self, seed, cells, boundary, k, n, sine):
        # sine > 0: collocation of a sine field of that frequency, in the sine
        # basis on the Dirichlet boundary
        if sine:
            field = SineField(1.0, sine, seed % 7)
            op = make_operator(field, k, boundary=boundary, n=n, discretization="spectral")
        else:
            field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
            op = make_operator(field, k, boundary=boundary, n=n)
        banded = resolvent_gap(op, s_points=64)
        # a failed banded evaluation falls back to the dense SVD, so this is all-dense
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral._BandedSigma, "sigma_min",
                          lambda engine, shifts: [None] * len(shifts))
            dense = resolvent_gap(op, s_points=64)
        assert dense.meta["sigma_evals"]["banded"] == 0
        assert banded.meta["sigma_evals"]["banded"] > 0
        for summary in (banded, dense):
            summary.meta.pop("sigma_evals")
        assert (banded.r_lambda1, banded.s_argmin, banded.meta) == \
            (dense.r_lambda1, dense.s_argmin, dense.meta)


class TestGapMeta:
    def test_certified_flag(self):
        op = make_operator(two_plateau(0.0, 1.0), 1, boundary="periodic", n=32)
        assert resolvent_gap(op, s_points=64).meta["certified"] is True

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 16),
           sine=st.integers(0, 3), amplitude=st.floats(0.0, 2.0), k=st.integers(0, 8),
           n=st.integers(16, 48), boundary=st.sampled_from(["periodic", "dirichlet"]),
           discretization=st.sampled_from(["fd2", "spectral"]))
    def test_default_window_holds_the_minimum(self, seed, cells, sine, amplitude, k, n,
                                              boundary, discretization):
        # sigma_min(B - is) <= max_j |w_j - s| and is 1-Lipschitz in s, so the
        # sweep minimum is at most spread/2 + h/2; at the window edges it is at
        # least 3 spread + 1, so the first sweep is certified
        if sine:
            field = SineField(amplitude, sine, seed % 7)
        else:
            field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
        op = make_operator(field, k, boundary=boundary, n=n, discretization=discretization)
        summary = resolvent_gap(op, s_points=64)
        assert summary.meta["certified"] is True
        assert summary.meta["window_extensions"] == 0
        w = op.skew_values
        spread = float(w.max() - w.min())
        lo, hi = summary.meta["window"]
        z_max = abs(op.lambda1_discrete) + max(abs(lo), abs(hi))
        tolerance = spectral._BandedSigma(*op.band_form()).tolerance(z_max)
        h = (hi - lo) / (64 - 1)
        assert summary.r_lambda1 <= spread / 2 + h / 2 + tolerance

    def test_sigma_evals_fd2(self):
        op = make_operator(two_plateau(0.0, 1.0), 1, boundary="periodic", n=32)
        evals = resolvent_gap(op, s_points=64).meta["sigma_evals"]
        # the banded engine runs the sweep and the trisection
        assert evals["banded"] + evals["dense_fallbacks"] > 64
        # the dense SVD re-evaluates the candidates and decides the minimum
        assert evals["dense"] > 0

    def test_sigma_evals_dirichlet_collocation_is_banded(self):
        op = make_operator(COS, k=1, boundary="dirichlet", n=32, discretization="spectral")
        assert op.band_form()[1] == 31
        evals = resolvent_gap(op, s_points=64).meta["sigma_evals"]
        assert evals["banded"] > 64
        assert 0 < evals["dense"] < 64

    def test_sigma_evals_periodic_collocation_is_banded(self):
        op = make_operator(COS, k=1, boundary="periodic", n=32)
        assert op.discretization == "spectral"
        assert op.band_form()[1] == 2
        evals = resolvent_gap(op, s_points=64).meta["sigma_evals"]
        assert evals["banded"] > 64
        assert 0 < evals["dense"] < 64

    def test_refinements(self, monkeypatch):
        op = make_operator(SawtoothField(1.0), 1, boundary="dirichlet", n=32)
        summary = resolvent_gap(op, s_points=64)
        refinements = summary.meta["refinements"]
        assert refinements and all(r["converged"] for r in refinements)
        assert summary.meta["refinement_warning"] is False
        lo, hi = summary.meta["window"]
        # the minimum lies in the bracket of a candidate, one grid step either side
        assert min(abs(r["s"] - summary.s_argmin) for r in refinements) <= (hi - lo) / 63
        monkeypatch.setattr(spectral, "REFINE_TOL", 0.0)
        stalled = resolvent_gap(op, s_points=64).meta
        assert [r["s"] for r in stalled["refinements"]] == [r["s"] for r in refinements]
        assert not any(r["converged"] for r in stalled["refinements"])
        assert stalled["refinement_warning"] is True


def _in_chunk(engine, op, z):
    """The banded value at z, evaluated as the middle block of a full chunk
    whose other shifts spread over the default window."""
    w = op.skew_values
    spread = float(w.max() - w.min())
    s = np.linspace(w.min() - 3.0 * spread - 1.0, w.max() + 3.0 * spread + 1.0, engine.chunk)
    shifts = op.lambda1_discrete + 1j * s
    shifts[engine.chunk // 2] = z
    return engine.sigma_min(shifts)[engine.chunk // 2]


def _assert_banded_matches_dense(op, fraction):
    engine = spectral._BandedSigma(*op.band_form())
    w = op.skew_values
    spread = float(w.max() - w.min())
    s = w.min() - 3.0 * spread - 1.0 + fraction * (8.0 * spread + 2.0)
    z = op.lambda1_discrete + 1j * s
    banded = _in_chunk(engine, op, z)
    mat = op.matrix()
    dense = sla.svdvals(mat - z * np.eye(op.n))[-1]
    norm1 = np.abs(mat).sum(axis=0).max()
    assert banded is not None
    assert abs(banded - dense) <= 16.0 * np.finfo(float).eps * norm1


class TestBandedSigma:
    """The banded inverse-Lanczos sigma_min against the dense SVD."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 16),
           boundary=st.sampled_from(["periodic", "dirichlet"]), k=st.sampled_from([1, 3]),
           n=st.sampled_from([16, 33, 64]), fraction=st.floats(0.0, 1.0))
    def test_random_grid_fields(self, seed, cells, boundary, k, n, fraction):
        field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
        op = make_operator(field, k, boundary=boundary, n=n)
        _assert_banded_matches_dense(op, fraction)

    @settings(max_examples=30, deadline=None)
    @given(fraction=st.floats(0.0, 1.0))
    @pytest.mark.parametrize("field,boundary", [
        (SineField(1.0, 1, math.pi / 2), "dirichlet"),
        (SineField(1.0, 1, 0.0), "periodic"),
    ])
    def test_symmetric_fields(self, field, boundary, fraction):
        # a symmetric Lanczos start vector misses the wanted singular vector here
        op = make_operator(field, 3, boundary=boundary, n=64, discretization="fd2")
        _assert_banded_matches_dense(op, fraction)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 16),
           case=st.sampled_from(["periodic", "dirichlet", "dirichlet collocation"]),
           k=st.sampled_from([1, 3]), n=st.integers(16, 64), data=st.data())
    def test_chunk_matches_one_shift_at_a_time(self, seed, cells, case, k, n, data):
        if case == "dirichlet collocation":
            op = make_operator(SineField(1.0, 1 + seed % 3, seed % 7), k, boundary="dirichlet",
                               n=n, discretization="spectral")
        else:
            field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
            op = make_operator(field, k, boundary=case, n=n)
        engine = spectral._BandedSigma(*op.band_form())
        # a sweep of the default window that ends in a partial chunk
        s_points = data.draw(st.integers(engine.chunk + 1, 3 * engine.chunk + 1).filter(
            lambda count: count % engine.chunk), label="s_points")
        w = op.skew_values
        spread = float(w.max() - w.min())
        s = np.linspace(w.min() - 3.0 * spread - 1.0, w.max() + 3.0 * spread + 1.0, s_points)
        shifts = op.lambda1_discrete + 1j * s
        chunked = engine.sigma_min(shifts)
        single = [engine.sigma_min([z])[0] for z in shifts]
        assert None not in chunked and None not in single
        mat = op.matrix()
        eps = np.finfo(float).eps
        for z, a, b in zip(shifts, chunked, single):
            dense = sla.svdvals(mat - z * np.eye(op.n))[-1]
            assert abs(a - dense) <= engine.tolerance(abs(z))
            # only rounding tells a block of a chunk from a chunk of one
            # (measured at most 0.34 eps (norm1 + |z|) on 120 such sweeps)
            assert abs(a - b) <= 2.0 * eps * (engine.norm1 + abs(z))

    def test_near_singular_shift(self):
        # A - zI is the periodic Laplacian, singular up to roundoff
        zero = PiecewiseConstantField([0.0], [0.0])
        op = make_operator(zero, 1, boundary="periodic", n=16)
        banded = _in_chunk(spectral._BandedSigma(*op.band_form()), op, 0.0)
        norm1 = np.abs(op.matrix()).sum(axis=0).max()
        assert banded is not None and banded <= 16.0 * np.finfo(float).eps * norm1

    def test_unconverged_lanczos_returns_none(self, monkeypatch):
        monkeypatch.setattr(spectral._BandedSigma, "MAX_STEPS", 1)
        op = make_operator(two_plateau(0.0, 1.0), 1, boundary="periodic", n=32)
        engine = spectral._BandedSigma(*op.band_form())
        assert engine.sigma_min([op.lambda1_discrete + 3.0j]) == [None]


class TestCollocationBand:
    """The banded engine on band forms with entries outside the band (the
    periodic collocation operator in the DFT basis, and a ring cut short on
    purpose) against the dense SVD."""

    @settings(max_examples=60, deadline=None)
    @given(frequency=st.integers(1, 3), phase=st.floats(0.0, 2.0 * math.pi),
           amplitude=st.floats(0.1, 2.0), k=st.sampled_from([1, 3]),
           n=st.integers(16, 64), fraction=st.floats(0.0, 1.0))
    def test_sine_fields(self, frequency, phase, amplitude, k, n, fraction):
        field = SineField(amplitude, frequency, phase)
        op = make_operator(field, k, boundary="periodic", n=n)
        assert op.discretization == "spectral"
        mat, width = op.band_form()
        assert width == min(2 * frequency, n - 1)
        engine = spectral._BandedSigma(mat, width)
        w = op.skew_values
        spread = float(w.max() - w.min())
        s = w.min() - 3.0 * spread - 1.0 + fraction * (8.0 * spread + 2.0)
        z = op.lambda1_discrete + 1j * s
        banded = _in_chunk(engine, op, z)
        dense = sla.svdvals(op.matrix() - z * np.eye(op.n))[-1]
        assert banded is not None
        assert abs(banded - dense) <= engine.tolerance(abs(z))

    def test_band_form_is_unitarily_similar(self):
        op = make_operator(SineField(1.0, 2, 0.4), 3, boundary="periodic", n=24)
        mat, width = op.band_form()
        np.testing.assert_allclose(sla.svdvals(mat), sla.svdvals(op.matrix()),
                                   rtol=1e-12, atol=1e-9)
        offsets = np.abs(np.subtract.outer(np.arange(24), np.arange(24)))
        engine = spectral._BandedSigma(mat, width)
        assert engine.dropped == np.linalg.norm(mat[offsets > width])
        assert engine.dropped < 1e-9

    def test_dropped_part_is_in_the_tolerance(self):
        # the folded periodic fd2 ring needs width 2; width 1 drops 1/h^2 entries
        op = make_operator(two_plateau(0.0, 1.0), 1, boundary="periodic", n=32,
                           discretization="fd2")
        mat, _ = op.band_form()
        engine = spectral._BandedSigma(mat, 1)
        assert engine.dropped > 0.0
        worst = 0.0
        shifts = op.lambda1_discrete + 1j * np.linspace(-10.0, 16.0, 27)
        for z, banded in zip(shifts, engine.sigma_min(shifts)):
            dense = sla.svdvals(op.matrix() - z * np.eye(op.n))[-1]
            assert abs(banded - dense) <= engine.tolerance(abs(z))
            worst = max(worst, abs(banded - dense) / (engine.tolerance(abs(z)) - engine.dropped))
        assert worst > 1.0


class TestLapackWrappers:
    """The dense sigma_min and lambda_min call scipy's LAPACK extension as
    scipy.linalg's svdvals and eigvalsh do, so their values are scipy's bit for
    bit; a scipy release that changes those calls fails here."""

    @staticmethod
    def _check_sigma_min(a):
        assert spectral._sigma_min(a) == sla.svdvals(a)[-1]
        # resolvent_gap's call: an F-ordered copy, overwritten
        assert spectral._sigma_min(np.array(a, order="F"), overwrite_a=True) == \
            sla.svdvals(np.array(a, order="F"), overwrite_a=True)[-1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 40),
           scale=st.sampled_from([1e-8, 1.0, 1e6]))
    def test_random_matrices(self, seed, m, n, scale):
        rng = np.random.default_rng(seed)
        a = scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        self._check_sigma_min(a)
        b = scale * rng.standard_normal((m, m))
        b = b + b.T
        assert spectral._lambda_min(b) == sla.eigvalsh(b)[0]

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(GOLDEN_FIELDS)),
           boundary=st.sampled_from(["periodic", "dirichlet"]),
           disc=st.sampled_from(["fd2", "spectral"]), k=st.sampled_from([1, 3]),
           n=st.sampled_from([16, 33, 64, 128, 256]), fraction=st.floats(0.0, 1.0))
    def test_battery_operators(self, name, boundary, disc, k, n, fraction):
        op = make_operator(GOLDEN_FIELDS[name](), k, boundary=boundary, n=n, discretization=disc)
        lap = op.laplacian()
        assert op.lambda1_discrete == spectral._lambda_min(lap) == sla.eigvalsh(lap)[0]
        w = op.skew_values
        spread = float(w.max() - w.min())
        s = w.min() - 3.0 * spread - 1.0 + fraction * (8.0 * spread + 2.0)
        self._check_sigma_min(op.matrix() - (op.lambda1_discrete + 1j * s) * np.eye(n))

    def test_non_finite_matrix_is_refused(self):
        a = np.eye(4, dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._sigma_min(a)
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._lambda_min(np.full((4, 4), np.inf))

    @pytest.mark.parametrize("routine", ["zgbtrf", "zgbtrs", "zgesdd", "dsyevr"])
    def test_negative_info_raises(self, monkeypatch, routine):
        # an illegal argument is a fault, never a singular factor or a fallback
        lapack = spectral._lapack()
        call = getattr(lapack, routine)

        def illegal(*args, **kwargs):
            return call(*args, **kwargs)[:-1] + (-1,)

        op = make_operator(two_plateau(0.0, 1.0), 1, boundary="periodic", n=32)
        monkeypatch.setattr(lapack, routine, illegal)
        with pytest.raises(np.linalg.LinAlgError, match=f"argument 1 of {routine}"):
            if routine == "dsyevr":
                spectral._lambda_min(op.laplacian())
            else:
                resolvent_gap(op, s_points=64)
