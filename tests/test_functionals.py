import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearmix import functionals as fn
from shearmix.velocity import (
    BinaryCascadeField,
    GridField,
    HeavisideField,
    PiecewiseConstantField,
    PiecewiseLinearField,
    SawtoothField,
    SineField,
    two_plateau,
)

COS = SineField(amplitude=1.0, frequency=1, phase=math.pi / 2)  # cos(2 pi x)


class TestScalarInversions:
    def test_rate_from_residual_at_zero(self):
        assert fn.mixing_rate_from_residual(0.0) == 0.0

    def test_rate_from_residual_anchor(self):
        # 144 * (pi/8) * tan(pi/4) = 18 pi, so the inverse squared is (pi/8)^2
        val = fn.mixing_rate_from_residual(18.0 * math.pi)
        assert val == pytest.approx((math.pi / 8.0) ** 2, rel=1e-10)

    def test_rate_from_residual_monotone(self):
        ys = [0.1, 0.5, 2.0, 10.0, 100.0]
        vals = [fn.mixing_rate_from_residual(y) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_gap_from_residual_anchor(self):
        # 36 * (pi/4) * tan(pi/4) = 9 pi
        eps = 0.3
        out = fn.gap_bound_from_residual(9.0 * math.pi / eps, eps, lambda1=1.0)
        assert out == pytest.approx(math.pi**2 / (16.0 * eps**2) - 1.0, rel=1e-10)

    def test_gap_from_residual_zero_clamps(self):
        assert fn.gap_bound_from_residual(0.0, 0.2, lambda1=5.0) == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.45])
    def test_gap_from_residual_capped(self, eps):
        out = fn.gap_bound_from_residual(1e9, eps, lambda1=0.0)
        assert out <= math.pi**2 / (4.0 * eps**2) + 1e-9


class TestMixingRate:
    def test_zero(self):
        assert fn.mixing_rate(0.0, 1.0) == 0.0

    def test_value(self):
        assert fn.mixing_rate(0.5, 2.0) == pytest.approx((0.5 / (6 * math.pi)) ** 2, rel=1e-12)

    def test_monotonicity(self):
        base = fn.mixing_rate(0.5, 2.0)
        assert fn.mixing_rate(0.6, 2.0) > base
        assert fn.mixing_rate(0.5, 2.5) < base


class TestGapFromCorrelation:
    def test_zero(self):
        assert fn.gap_bound_from_correlation(0.0, 1.0, 1.0) == 0.0

    def test_improved_value(self):
        out = fn.gap_bound_from_correlation(0.5, 2.0, 1.0, periodic_improved=True)
        assert out == pytest.approx(7.036e-4, rel=1e-3)

    def test_general_value(self):
        out = fn.gap_bound_from_correlation(0.5, 2.0, 1.0)
        expected = (0.25 / 18.0) / (math.pi**2 + 4.0 / math.pi**2)
        assert out == pytest.approx(expected, rel=1e-12)
        assert out == pytest.approx(1.352e-3, rel=1e-3)

    def test_improved_requires_unit_length(self):
        with pytest.raises(ValueError):
            fn.gap_bound_from_correlation(0.5, 2.0, 0.5, periodic_improved=True)


class TestPlateauConstants:
    def test_time_golden(self):
        consts = fn.plateau_constants(0.25, 1.0)
        assert consts.time == pytest.approx(1.390625, abs=1e-12)

    def test_mass_value(self):
        consts = fn.plateau_constants(0.5, 2.0)
        expected = (8 * math.pi * math.e) ** -1.5 * math.exp(-math.pi**2 / 4) \
            * 0.25 * math.exp(-2 * math.pi**2)
        assert consts.mass == pytest.approx(expected, rel=1e-12)
        assert consts.mass == pytest.approx(1.0e-13, rel=2e-2)

    def test_limits_in_dv(self):
        dvs = [0.1, 0.5, 1.0, 5.0]
        times = [fn.plateau_constants(0.5, dv).time for dv in dvs]
        masses = [fn.plateau_constants(0.5, dv).mass for dv in dvs]
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))
        assert all(m1 < m2 for m1, m2 in zip(masses, masses[1:]))
        tiny = fn.plateau_constants(0.5, 1e-4)
        assert tiny.time > 1e3 and tiny.log_mass < -1e5

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fn.plateau_constants(0.6, 1.0)
        with pytest.raises(ValueError):
            fn.plateau_constants(0.25, 0.0)


class TestFlatnessConstants:
    def test_example_value(self):
        consts = fn.flatness_constants(1.0, 1.0, 0.25, 1.0)
        growth = 1.0 + 2.0 * math.pi
        expected_time = (10 * growth / 0.25) ** 2 * (2.0 + math.log(growth))
        assert consts.growth == pytest.approx(growth, rel=1e-14)
        assert consts.time == pytest.approx(expected_time, rel=1e-12)
        assert consts.time == pytest.approx(3.383e5, rel=1e-3)
        assert consts.log_mass == pytest.approx(
            math.log(1.0 / 3.0) - math.pi**2 * consts.time, rel=1e-12)

    def test_monotone_in_k_and_growth(self):
        t1 = fn.flatness_constants(1.0, 1.0, 0.25, 1.0).time
        t2 = fn.flatness_constants(1.0, 1.0, 0.25, 2.0).time
        t3 = fn.flatness_constants(1.0, 2.0, 0.25, 1.0).time
        assert t2 > t1 and t3 > t1

    def test_zero_correlation_errors(self):
        with pytest.raises(ArithmeticError):
            fn.flatness_constants(1.0, 0.0, 0.0, 1.0)


class TestDoeblinConstants:
    def test_golden(self):
        c, rho = fn.doeblin_constants(1.0, 0.5)
        assert c == pytest.approx(2.0, abs=1e-15)
        assert rho == pytest.approx(math.log(2.0), abs=1e-15)

    def test_time_scaling(self):
        c, rho = fn.doeblin_constants(2.0, 0.5)
        assert (c, rho) == (2.0, pytest.approx(math.log(2.0) / 2.0))

    def test_small_alpha_limits(self):
        c, rho = fn.doeblin_constants(1.0, 1e-9)
        assert c == pytest.approx(1.0, abs=1e-8) and c > 1.0
        assert rho == pytest.approx(1e-9, rel=1e-6) and rho > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            fn.doeblin_constants(1.0, 0.0)
        with pytest.raises(ValueError):
            fn.doeblin_constants(1.0, 1.0)
        with pytest.raises(ValueError):
            fn.doeblin_constants(0.0, 0.5)


def random_bistochastic(rng, n):
    """Convex combination of permutation matrices plus a uniform floor."""
    mats = [np.eye(n)[rng.permutation(n)] for _ in range(2 * n)]
    weights = rng.dirichlet(np.ones(len(mats)))
    p = sum(w * m for w, m in zip(weights, mats))
    return 0.25 * np.full((n, n), 1.0 / n) + 0.75 * p


class TestDoeblinIterate:
    def test_uniform_kernel_mixes_in_one_step(self):
        u = np.full((4, 4), 0.25)
        check = fn.doeblin_iterate(u, t_star_steps=1, alpha_star=0.9, horizon=5)
        assert check.violation is None
        np.testing.assert_allclose(check.tv, 0.0, atol=1e-14)

    def test_two_state_chain(self):
        p = np.array([[0.75, 0.25], [0.25, 0.75]])
        check = fn.doeblin_iterate(p, t_star_steps=1, alpha_star=0.5, horizon=12)
        assert check.violation is None
        steps = np.arange(1, 13)
        np.testing.assert_allclose(check.tv, 0.5 * 0.5**steps, rtol=1e-12)
        # lemma bound on the TV ratio, with TV(0) = 1/2 for a point start
        assert np.all(check.tv / 0.5 <= check.c * np.exp(-check.rho * steps) + 1e-12)

    def test_identity_kernel_fails_precondition(self):
        with pytest.raises(fn.MinorizationError) as err:
            fn.doeblin_iterate(np.eye(3), 1, 0.1, 5)
        assert err.value.entry is not None

    def test_row_stochastic_only_rejected(self):
        p = np.array([[0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(fn.MinorizationError, match="columns"):
            fn.doeblin_iterate(p, 1, 0.1, 5)

    def test_doubly_stochastic_kernel_passes(self):
        p = random_bistochastic(np.random.default_rng(7), 5)
        alpha = 0.9 * 5 * np.linalg.matrix_power(p, 2).min()
        check = fn.doeblin_iterate(p, 2, alpha, horizon=30)
        assert check.violation is None
        assert np.all(np.diff(check.tv) <= 1e-15)  # a bi-stochastic kernel contracts TV
        least = [np.linalg.matrix_power(p, m).min() for m in range(1, 31)]
        assert np.all(check.bound_mass <= np.array(least) + 1e-12)

    @pytest.mark.parametrize("kernel,match", [
        ([[1.2, -0.2], [-0.2, 1.2]], "negative"),
        ([[0.5, 0.4], [0.5, 0.6]], "rows"),
    ])
    def test_kernel_preconditions(self, kernel, match):
        with pytest.raises(fn.MinorizationError, match=match):
            fn.doeblin_iterate(np.array(kernel), 1, 0.1, 5)

    def test_weak_power_names_its_entry(self):
        p = np.array([[0.9, 0.1], [0.1, 0.9]])  # p^2 has least entry 0.18 < 0.5 / 2
        with pytest.raises(fn.MinorizationError, match=r"entry \(0, 1\) of the 2-step") as err:
            fn.doeblin_iterate(p, 2, 0.5, 5)
        assert err.value.entry == (0, 1)

    def test_arguments_refused_before_the_kernel(self):
        # the identity kernel fails its minorization, but the arguments go first
        for alpha, horizon, name in [(1.5, 5, "alpha_star"), (0.5, -1, "horizon"),
                                     (0.5, 2.5, "horizon")]:
            with pytest.raises(ValueError, match=f"^{name} ") as err:
                fn.doeblin_iterate(np.eye(3), 1, alpha, horizon)
            assert not isinstance(err.value, fn.MinorizationError)

    def test_hundred_random_chains_never_violate(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p = random_bistochastic(rng, n)
            alpha = 0.999 * n * p.min()
            if alpha <= 0:
                continue
            check = fn.doeblin_iterate(p, 1, alpha, horizon=40)
            assert check.violation is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           t_star=st.integers(1, 3), horizon=st.integers(1, 40))
    def test_random_bistochastic_tv_decay(self, seed, n, t_star, horizon):
        p = random_bistochastic(np.random.default_rng(seed), n)
        alpha = 0.999 * n * np.linalg.matrix_power(p, t_star).min()
        check = fn.doeblin_iterate(p, t_star, alpha, horizon=horizon)
        assert check.violation is None
        # a point start is 1 - 1/n from uniform in total variation
        steps = np.arange(1, horizon + 1)
        tv0 = 1.0 - 1.0 / n
        assert np.all(check.tv / tv0 <= check.c * np.exp(-check.rho * steps) + 1e-12)


class TestCorrelationLP:
    def test_constant_field_zero(self):
        v = PiecewiseConstantField([0.0], [3.0])
        assert fn.lipschitz_correlation(v, grid_n=64) == pytest.approx(0.0, abs=1e-10)

    def test_cosine_beats_half(self):
        val = fn.lipschitz_correlation(COS, grid_n=512)
        assert val >= 0.5 - 1e-3

    def test_scaling(self):
        v = HeavisideField()
        v3 = HeavisideField(high=3.0, low=0.0)
        a = fn.lipschitz_correlation(v, grid_n=128)
        b = fn.lipschitz_correlation(v3, grid_n=128)
        assert b == pytest.approx(3.0 * a, rel=1e-8)

    def test_shift_invariance(self):
        v = HeavisideField(high=1.0, low=0.0)
        w = HeavisideField(high=2.5, low=1.5)
        a = fn.lipschitz_correlation(v, grid_n=128)
        b = fn.lipschitz_correlation(w, grid_n=128)
        assert b == pytest.approx(a, abs=1e-9)

    @pytest.mark.parametrize("field", [COS, HeavisideField(), SawtoothField(),
                                       BinaryCascadeField(1.0)])
    def test_bounded_by_half_oscillation(self, field):
        val = fn.lipschitz_correlation(field, grid_n=128)
        assert val <= 0.5 * field.oscillation() + 1e-9

    def test_dyadic_refinement_nondecreasing(self):
        # midpoint nodes are not nested under refinement, so monotonicity
        # holds only up to the quadrature wobble (observed ~4e-5)
        vals = [fn.lipschitz_correlation(COS, grid_n=n) for n in (64, 128, 256, 512)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-4

    def test_dirichlet_variant(self):
        val = fn.lipschitz_correlation(COS, boundary="dirichlet",
                                       interval=(0.0, 1.0), grid_n=256)
        assert val > 0.1
        const = PiecewiseConstantField([0.0], [1.0])
        assert fn.lipschitz_correlation(const, boundary="dirichlet",
                                        interval=(0.0, 1.0), grid_n=64) < 1e-10

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            fn.lipschitz_correlation(COS, grid_n=4)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("interval", [(0.6, 0.2), (0.5, 0.5), (math.nan, 0.5),
                                          (0.2, math.nan)])
    def test_interval_must_increase(self, boundary, interval):
        with pytest.raises(ValueError, match="interval must be increasing and finite"):
            fn.lipschitz_correlation(COS, boundary, interval, grid_n=64)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_pattern_is_the_sparse_construction(self, periodic):
        for n in [*range(8, 71), 128, 255, 256, 512, 1024]:
            rows = sparse_rows(n, periodic)
            for got, want in zip(fn._lp_pattern(n, periodic),
                                 (rows.indptr, rows.indices, rows.data)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert not got.flags.writeable


def sparse_rows(n, periodic):
    """Reference: the correlation LP's constraint rows as a `scipy.sparse`
    difference operator, slope rows then a mean row of ones."""
    from scipy import sparse

    # row i of diff is phi_i - phi_{i+1}
    diff = sparse.eye_array(n) - sparse.eye_array(n, k=1) - sparse.eye_array(n, k=1 - n)
    if not periodic:
        diff = diff.tocsr()[:-1]
    return sparse.csc_array(sparse.vstack((sparse.kron(diff, [[1.0], [-1.0]]), np.ones((1, n)))))


def linprog_correlation(field, boundary="periodic", interval=None, grid_n=256):
    """Reference: the correlation LP through `linprog(method="highs")`, with
    the slope rows of `sparse_rows`."""
    from scipy.optimize import linprog

    a, b = (field.a, field.b) if interval is None else (float(interval[0]), float(interval[1]))
    x, w, h = fn._lp_weights(boundary, a, b, grid_n)
    a_ub = sparse_rows(grid_n, boundary == "periodic")[:-1]  # the mean row is A_eq
    res = linprog(-(np.asarray(field(x), dtype=float) * w), A_ub=a_ub,
                  b_ub=np.full(a_ub.shape[0], 2.0 * math.pi / (b - a) * h),
                  A_eq=w[None, :], b_eq=[0.0], bounds=(-1.0, 1.0), method="highs")
    assert res.status == 0, res.message
    return max(0.0, -res.fun)


@st.composite
def _lp_fields(draw):
    values = st.floats(-10.0, 10.0)
    kind = draw(st.sampled_from(["grid", "sine", "piecewise_linear"]))
    if kind == "grid":
        return GridField(draw(st.lists(values, min_size=1, max_size=40)))
    if kind == "sine":
        return SineField(draw(values), draw(st.integers(1, 8)), draw(st.floats(-4.0, 4.0)))
    inner = sorted(draw(st.sets(st.integers(1, 63), max_size=8)))
    knots = [0.0] + [k / 64 for k in inner]
    return PiecewiseLinearField(knots, draw(st.lists(values, min_size=len(knots),
                                                     max_size=len(knots))))


class TestCorrelationLPSolver:
    """The direct HiGHS call against linprog's model, options and refusals."""

    @settings(max_examples=60, deadline=None)
    @given(field=_lp_fields(), case=st.sampled_from([("periodic", None), ("dirichlet", None),
                                                     ("dirichlet", (0.2, 0.7))]),
           grid_n=st.sampled_from([8, 9, 33, 64, 128]))
    def test_same_bits_as_linprog(self, field, case, grid_n):
        boundary, interval = case
        assert fn.lipschitz_correlation(field, boundary, interval, grid_n) == \
            linprog_correlation(field, boundary, interval, grid_n)

    @staticmethod
    def _patch_solver(monkeypatch, **overrides):
        from scipy.optimize._highspy import _core as highs

        class Patched(highs._Highs):
            pass

        for name, method in overrides.items():
            setattr(Patched, name, method)
        monkeypatch.setattr(highs, "_Highs", Patched)
        return highs

    def test_non_optimal_status_is_refused(self, monkeypatch):
        highs = self._patch_solver(
            monkeypatch, getModelStatus=lambda self: highs.HighsModelStatus.kIterationLimit)
        with pytest.raises(ArithmeticError, match="correlation LP failed: Iteration limit"):
            fn.lipschitz_correlation(COS, grid_n=64)

    def test_infeasible_solution_is_refused(self, monkeypatch):
        from scipy.optimize._highspy import _core as highs

        get_solution = highs._Highs.getSolution

        def far_off(self):
            # every phi doubled: |phi| and the slopes break their bounds
            solution = get_solution(self)
            return SimpleNamespace(col_value=2.0 * np.array(solution.col_value),
                                   row_value=2.0 * np.array(solution.row_value))

        self._patch_solver(monkeypatch, getSolution=far_off)
        with pytest.raises(ArithmeticError, match="breaks its constraints"):
            fn.lipschitz_correlation(COS, grid_n=64)
        monkeypatch.undo()
        assert fn.lipschitz_correlation(COS, grid_n=64) > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_is_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            fn.lipschitz_correlation(GridField([bad, 1.0, 2.0]), grid_n=8)


class TestAffineResidualScan:
    def test_constant_zero(self):
        v = GridField([2.0] * 8)
        assert fn.min_affine_residual(v, 0.25) < 1e-25

    def test_linear_golden(self):
        v = SawtoothField(1.0)
        val = fn.min_affine_residual(v, 0.5, j_points=33)
        assert val == pytest.approx(1.0 / 720.0, abs=1e-9)

    def test_cosine_golden(self):
        val = fn.min_affine_residual(COS, 0.5, j_points=33)
        expected = 1.0 / (8 * math.pi**2) - 3.0 / (4 * math.pi**4)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_nondecreasing_in_eps(self):
        vals = [fn.min_affine_residual(COS, e, j_points=65) for e in (0.1, 0.2, 0.3, 0.45)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-15

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            fn.min_affine_residual(COS, 0.6)

    @pytest.mark.parametrize("j_points", [0, 1])
    def test_lattice_needs_two_points(self, j_points):
        # a lattice of fewer points has no window: its empty minimum read inf,
        # which gap_bound_from_residual turns into its largest bound
        with pytest.raises(ValueError, match="j_points must be at least 2"):
            fn.min_affine_residual(two_plateau(), 0.1, j_points=j_points)

    @pytest.mark.parametrize("field, eps, expected", [
        (COS, 0.05, 2.054703774356023e-09),
        (COS, 0.5, 0.004965661264278969),
        (BinaryCascadeField(1.0), 0.05, 0.0),
        (BinaryCascadeField(1.0), 0.5, 6.988804748034954e-06),
    ])
    def test_golden_bits(self, field, eps, expected):
        assert fn.min_affine_residual(field, eps, j_points=129) == expected


def _seeded_linear_field(seed):
    rng = np.random.default_rng(seed)
    knots = [0.0] + np.sort(rng.uniform(0.02, 0.98, 7)).tolist()
    return PiecewiseLinearField(knots, rng.uniform(-1.0, 1.0, 8))


# a 16-cell grid whose plateau mass, exp(-1465.4), underflows to 0.0
UNDERFLOW_GRID = GridField(np.random.default_rng(3).uniform(-1.0, 1.0, 16))


class TestBoundsGolden:
    """Whole bounds reports pinned bit for bit.

    Each digest is the SHA-256 of the report's sorted-key JSON, whose float
    reprs round-trip exactly.  Recorded at grid_n=128 and the default
    j_points=65 with numpy 2.4.6 and scipy 1.17.1; the LP values depend on
    the HiGHS build.
    """

    CASES = {
        "cos": (COS, {}),
        "sawtooth": (SawtoothField(1.0), {}),
        "two_plateau": (two_plateau(0.0, 1.0), {}),
        "cascade": (BinaryCascadeField(1.0), {}),
        "grid": (UNDERFLOW_GRID, {}),
        "piecewise_linear": (_seeded_linear_field(5), {}),
        "cos_flatness_interval": (COS, {"flatness_interval": (0.1, 0.6)}),
        # flat on the 3/64 windows inside a cell, which only eps = 0.02 admits:
        # the flatness scan must skip them, as they are shorter than its 0.1
        "grid_fine_eps": (UNDERFLOW_GRID, {"eps_grid": (0.02, 0.3)}),
    }
    DIGESTS = {
        "cos": "dd62d73dd49344c8948458b3e42dfa91c7db52f6df8fec434e715edbdb48999f",
        "sawtooth": "a1d8036f5acb8766b22f6925ec3f8a8e17626b6b760324df05882ddda9601d7f",
        "two_plateau": "69474a83783bbdad85d3b8a43dd26109b5990f582f475daa102898828a3f8ccb",
        "cascade": "d3654b8420a7245ced0b0ceb05c3af6e953d013f90930fd57f5acc459c4d05c1",
        "grid": "0dc4780632a31d732d761a7991d8fe468263aee74dec8e71173889fa612b2c96",
        "piecewise_linear": "f31222e55f0bd89abe5bd1b07314f31f3e55168c3b0ffa9aae3f4a0c1c2f7ad7",
        "cos_flatness_interval":
            "20aec46e201490557cf4f9a488ca31f918d62dd5779fab219b2b530d7623bb2e",
        "grid_fine_eps": "9b737eb7ee9bc9d10290ef5ba1d1a5c67878092e4913ad88714a4e152fa4319a",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_bits(self, name):
        field, kwargs = self.CASES[name]
        report = fn.compute_bounds_report(field, grid_n=128, **kwargs).to_json_dict()
        blob = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGESTS[name], blob


class TestLipschitzCorrelationGolden:
    """Correlation LP values pinned bit for bit on each boundary case.

    Each digest is the SHA-256 of the repr of the list of values over FIELDS,
    recorded with numpy 2.4.6 and scipy 1.17.1; the values depend on the
    HiGHS build.
    """

    FIELDS = [COS, SawtoothField(1.0), two_plateau(0.0, 1.0), BinaryCascadeField(1.0),
              UNDERFLOW_GRID, _seeded_linear_field(5)]
    BOUNDARIES = {
        "periodic": ("periodic", None),
        "dirichlet_unit": ("dirichlet", (0.0, 1.0)),
        "dirichlet_inner": ("dirichlet", (0.2, 0.7)),
    }
    DIGESTS = {
        ("dirichlet_inner", 8):
            "3ef7a9cab25820555ac98c965a44c58905dfa8a62638ae1b19ff3653b5c29ef4",
        ("dirichlet_inner", 64):
            "2ae36d5bcec94c3a6d28ec88a302546c5bde94279907845042631373da530e9b",
        ("dirichlet_inner", 512):
            "273ad7a848512d06cca742787d543f7078c6374885a3cec3c94d4751e55d11d4",
        ("dirichlet_unit", 8):
            "7432374eae799f8fef7e5f2227b2b0a604f239f9cff14369d015aad16bb40c1f",
        ("dirichlet_unit", 64):
            "ccf0be07ea644087d2942863422cc45d91311759870fb306fb86066602ec7951",
        ("dirichlet_unit", 512):
            "d237e3b113b62743501d5ac8b8a886867f3d36b35e012a3bf8957d6999c0d115",
        ("periodic", 8):
            "87f8b80697e307d8e8ad8d584bc8c4a58c13a43c837b8dd5af2b26005a5259bf",
        ("periodic", 64):
            "273bd03e4811a20dfdec08295610e89a09f4e9cb919e3e64dd1a9b222f0d9eef",
        ("periodic", 512):
            "c66bbbac8c4f72c0208635d10d52dce25af82f516595311032875b06453480c0",
    }

    @pytest.mark.parametrize("grid_n", [8, 64, 512])
    @pytest.mark.parametrize("case", sorted(BOUNDARIES))
    def test_values_bits(self, case, grid_n):
        boundary, interval = self.BOUNDARIES[case]
        values = [fn.lipschitz_correlation(f, boundary, interval, grid_n) for f in self.FIELDS]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == self.DIGESTS[case, grid_n], \
            values


class TestBoundsReport:
    def test_two_plateau_report(self):
        report = fn.compute_bounds_report(two_plateau(0.0, 1.0), grid_n=128, j_points=17)
        report.validate()
        assert report.plateau_time == pytest.approx(1.4375, abs=1e-12)
        assert report.plateau_ell == pytest.approx(0.5)
        assert report.plateau_dv == pytest.approx(1.0)
        assert not report.flatness_feasible
        assert report.doeblin_rho is not None and report.doeblin_rho > 0.0
        assert report.provenance["doeblin"] == "plateau"

    def test_cosine_report(self):
        report = fn.compute_bounds_report(COS, grid_n=128, j_points=17)
        report.validate()
        assert report.plateau_time is None
        assert report.flatness_feasible
        assert report.flatness_time is not None
        assert report.flatness_mass == 0.0  # underflows by design
        assert report.flatness_mass_log < -1e4
        assert report.l2_mixing_rate > 0.0

    def test_underflowed_plateau_mass_validates(self):
        report = fn.compute_bounds_report(UNDERFLOW_GRID, grid_n=64, j_points=17)
        assert report.plateau_mass_log < -1400.0
        assert report.doeblin_c_minus_one == 0.0 and report.doeblin_c == 1.0
        report.validate()

    def test_zero_c_minus_one_without_underflow_fails_validation(self):
        report = fn.compute_bounds_report(two_plateau(0.0, 1.0), grid_n=64, j_points=9)
        report.validate()
        report.doeblin_c_minus_one = 0.0
        with pytest.raises(AssertionError):
            report.validate()

    def test_flatness_route_needs_positive_c_minus_one(self):
        # the flatness mass exp(-10) is a positive double, so C - 1 = 0.0 is wrong
        report = fn.compute_bounds_report(COS, grid_n=64, j_points=9)
        assert report.provenance["doeblin"] == "flatness"
        report.validate()
        report.flatness_mass_log = -10.0
        report.doeblin_rho_log = -10.0 - math.log(report.flatness_time)
        report.doeblin_c_minus_one = 0.0
        with pytest.raises(AssertionError, match="representable flatness mass"):
            report.validate()

    def test_rho_log_must_match_the_route(self):
        report = fn.compute_bounds_report(two_plateau(0.0, 1.0), grid_n=64, j_points=9)
        report.doeblin_rho_log *= 1.0 + 1e-9
        with pytest.raises(AssertionError, match="log mass - log t"):
            report.validate()

    def test_underflow_needs_unit_c(self):
        report = fn.compute_bounds_report(UNDERFLOW_GRID, grid_n=64, j_points=9)
        report.validate()
        report.doeblin_c = 1.0 + 2.0**-52
        with pytest.raises(AssertionError, match="mass underflows"):
            report.validate()

    def test_empty_eps_grid_is_refused(self):
        with pytest.raises(ValueError, match="eps_grid must not be empty"):
            fn.compute_bounds_report(two_plateau(), grid_n=64, j_points=9, eps_grid=())

    def test_json_round_trip(self):
        import json

        report = fn.compute_bounds_report(two_plateau(), grid_n=64, j_points=9)
        blob = json.dumps(report.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["plateau_time"] == pytest.approx(1.4375)
