import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearmix import velocity
from shearmix.velocity import (
    BinaryCascadeField,
    DomainError,
    GridField,
    HeavisideField,
    PiecewiseConstantField,
    PiecewiseLinearField,
    SawtoothField,
    SineField,
    estimate_flatness_constant,
    field_from_config,
    two_plateau,
)


def brute_affine_residual(pv, a, b, n=20001):
    """Independent oracle: dense least squares plus high-resolution quadrature."""
    x = np.linspace(a, b, n)
    vals = pv(x)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    dev = vals - design @ coef
    return np.trapezoid(dev * dev, x)


class TestEval:
    def test_sine_quarter(self):
        v = SineField(amplitude=1.0, frequency=1)
        assert v(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_heaviside_convention(self):
        v = HeavisideField()
        assert v(0.75) == 0.0
        assert v(0.0) == 1.0
        assert v(0.5) == 0.0  # right-open cells

    def test_piecewise_constant_right_open(self):
        v = PiecewiseConstantField([0.0, 0.5], [0.0, 2.0])
        assert v(0.5) == 2.0
        assert v(0.4999999) == 0.0

    def test_torus_wraps(self):
        v = PiecewiseConstantField([0.0, 0.5], [0.0, 2.0])
        assert v(1.5) == 2.0
        assert v(-0.25) == 2.0

    def test_interval_domain_error(self):
        v = GridField([1.0, 2.0, 3.0], domain=[0.0, 1.0])
        with pytest.raises(DomainError):
            v(1.5)

    def test_bounded_by_stored_bound(self):
        fields = [
            SineField(2.5, 3),
            SawtoothField(-1.5),
            BinaryCascadeField(c=1.0),
            GridField(np.sin(np.arange(17))),
            PiecewiseLinearField([0.0, 0.3, 0.7], [1.0, -2.0, 0.5]),
        ]
        x = np.linspace(0, 1, 1001, endpoint=False)
        for v in fields:
            assert np.all(np.abs(v(x)) <= v.bound() + 1e-12)


class TestOscillation:
    def test_constant(self):
        assert PiecewiseConstantField([0.0], [3.0]).oscillation() == 0.0

    def test_sine(self):
        assert SineField(amplitude=1.0).oscillation() == pytest.approx(2.0)

    def test_two_values(self):
        assert two_plateau(0.0, 2.0).oscillation() == pytest.approx(2.0)

    def test_cascade(self):
        v = BinaryCascadeField(c=1.0)
        expected = 2.0 * (math.exp(-4.0) + math.exp(-16.0))
        assert v.oscillation() == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
    @pytest.mark.parametrize("shift", [0.0, 1.7, -0.4])
    def test_shift_and_scale(self, lam, shift):
        vals = [0.3, -1.2, 0.8, 0.3]
        base = PiecewiseConstantField([0.0, 0.2, 0.5, 0.9], vals)
        moved = PiecewiseConstantField([0.0, 0.2, 0.5, 0.9],
                                       [lam * v + shift for v in vals])
        assert moved.oscillation() == pytest.approx(abs(lam) * base.oscillation(), rel=1e-12)

    def test_scale_sine_and_grid(self):
        assert SineField(amplitude=-2.0).oscillation() == pytest.approx(4.0)
        g = GridField([1.0, 4.0, 2.0])
        g2 = GridField([3.0, 6.0, 4.0])
        assert g.oscillation() == g2.oscillation()


class TestPrimitive:
    def test_cosine(self):
        v = SineField(amplitude=1.0, frequency=1, phase=math.pi / 2)  # cos(2 pi x)
        pv = v.primitive(base=0.0)
        x = np.linspace(0, 1, 97)
        np.testing.assert_allclose(pv(x), np.sin(2 * np.pi * x) / (2 * np.pi), atol=1e-13)

    def test_constant(self):
        v = PiecewiseConstantField([0.0], [2.5])
        pv = v.primitive(base=0.0)
        assert pv(0.8) == pytest.approx(2.0, abs=1e-14)

    def test_heaviside_half_mass(self):
        pv = HeavisideField().primitive(base=0.0)
        assert pv(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_at_base(self):
        for v in [SineField(), SawtoothField(), HeavisideField(), BinaryCascadeField(0.5)]:
            pv = v.primitive(base=0.37)
            assert abs(pv(0.37)) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["grid", "linear", "sine"]), seed=st.integers(0, 2**32 - 1),
           x=st.floats(-1.0, 2.0), y=st.floats(-1.0, 2.0))
    def test_lipschitz(self, kind, seed, x, y):
        # |PV(x) - PV(y)| <= sup|V| |x - y| for every pair, across the torus seam too
        rng = np.random.default_rng(seed)
        field = _random_field(kind, rng)
        pv = field.primitive(base=rng.uniform(0.0, 1.0))
        pts = np.concatenate([[x, y], rng.uniform(-1.0, 2.0, 30)])
        vals = pv(pts)
        gap = np.abs(vals[:, None] - vals[None, :])
        bound = field.bound() * np.abs(pts[:, None] - pts[None, :])
        assert np.all(gap <= bound + 1e-12 * (1.0 + np.abs(vals).max()))

    @pytest.mark.parametrize(
        "field,a,b,tol",
        [
            (SineField(1.0, 1), 0.13, 0.77, 1e-8),
            (HeavisideField(), 0.0, 1.0, 1e-12),
            (BinaryCascadeField(1.0), 0.0, 1.0, 1e-12),
            (SawtoothField(1.0), 0.0, 0.5, 1e-12),
        ],
    )
    def test_matches_midpoint_rule(self, field, a, b, tol):
        n = 10_000
        h = (b - a) / n
        mids = a + (np.arange(n) + 0.5) * h
        integral = float(np.sum(field(mids)) * h)
        pv = field.primitive(base=a)
        assert pv(b) - pv(a) == pytest.approx(integral, abs=tol)

    def test_torus_unwrap(self):
        v = HeavisideField()
        pv = v.primitive(base=0.0)
        assert pv(2.25) == pytest.approx(2 * 0.5 + 0.25, abs=1e-13)

    def test_interval_ends_and_domain_error(self):
        # V = 2 on [1, 2) and -1 on [2, 3]: PV(1) = 0, PV(3) = 2 - 1
        pv = PiecewiseConstantField([1.0, 2.0], [2.0, -1.0], domain=[1.0, 3.0]).primitive()
        assert pv(1.0) == 0.0
        assert pv(3.0) == pytest.approx(1.0, abs=1e-14)
        for x in (1.0 - 1e-9, 3.0 + 1e-9):
            with pytest.raises(DomainError):
                pv(x)


class TestPlateaus:
    def test_two_runs(self):
        v = PiecewiseConstantField([0.0, 0.4], [1.0, 0.0])
        plats = v.plateaus(min_length=0.1)
        assert len(plats) == 2
        assert plats[0].length == pytest.approx(0.4)
        assert plats[1].length == pytest.approx(0.6)

    def test_sine_has_none(self):
        assert SineField().plateaus(0.01) == []

    def test_cascade_has_none(self):
        assert BinaryCascadeField(c=1.0).plateaus(1e-6) == []

    def test_wraparound_merge(self):
        v = PiecewiseConstantField([0.0, 0.3, 0.6], [1.0, 0.0, 1.0])
        plats = sorted(v.plateaus(), key=lambda p: p.length)
        assert len(plats) == 2
        assert plats[0].length == pytest.approx(0.3)
        assert plats[1].length == pytest.approx(0.7)  # [0.6, 1.3) through the seam

    def test_constant_merges_to_whole_torus(self):
        v = PiecewiseConstantField([0.0, 0.3, 0.6], [1.0, 1.0, 1.0])
        plats = v.plateaus()
        assert len(plats) == 1
        assert plats[0].length == pytest.approx(1.0)

    def test_min_length_filter(self):
        v = PiecewiseConstantField([0.0, 0.05, 0.5], [1.0, 2.0, 3.0])
        assert len(v.plateaus(min_length=0.1)) == 2

    def test_piecewise_linear_flats(self):
        v = PiecewiseLinearField([0.0, 0.2, 0.5, 1.0], [1.0, 1.0, 0.0, 0.0],
                                 domain=[0.0, 1.0])
        plats = v.plateaus()
        assert len(plats) == 2
        assert plats[0].value == 1.0 and plats[0].length == pytest.approx(0.2)
        assert plats[1].value == 0.0 and plats[1].length == pytest.approx(0.5)

    def test_piecewise_linear_wrap_merge(self):
        v = PiecewiseLinearField([0.0, 0.2, 0.5, 0.8], [1.0, 1.0, 0.0, 1.0])
        plats = v.plateaus()
        assert len(plats) == 1
        assert plats[0].left == pytest.approx(0.8)
        assert plats[0].length == pytest.approx(0.4)  # [0.8, 1.2) through 0


class TestPlateauGolden:
    """plateaus() and find_plateau_pair() pinned to exact floats.

    The cases cover a flat run through the seam, adjacent equal cells or flat
    segments, flat runs touching only one end of the torus, and interval
    fields whose two ends are equal but must not merge.
    """

    CASES = {
        "step_seam": PiecewiseConstantField([0.0, 0.3, 0.6], [1.0, 0.0, 1.0]),
        "step_equal_neighbours": PiecewiseConstantField([0.0, 0.25, 0.5, 0.75],
                                                        [2.0, 2.0, -1.0, 0.5]),
        "grid_interval_equal_ends": GridField([1.0, 1.0, 0.0, 0.0, 1.0], domain=[0.0, 1.0]),
        "grid_seeded": GridField(np.random.default_rng(7).integers(0, 3, 12).astype(float)),
        "linear_seam": PiecewiseLinearField([0.0, 0.2, 0.5, 0.8], [1.0, 1.0, 0.0, 1.0]),
        "linear_adjacent_flats": PiecewiseLinearField([0.0, 0.2, 0.4, 0.7],
                                                      [0.5, 1.0, 1.0, 1.0]),
        "linear_left_end_only": PiecewiseLinearField([0.0, 0.3, 0.6], [2.0, 2.0, 0.0]),
        "linear_right_end_only": PiecewiseLinearField([0.0, 0.3, 0.6], [0.0, 1.0, 0.0]),
        "linear_two_levels_seam": PiecewiseLinearField([0.0, 0.1, 0.4, 0.5, 0.9],
                                                       [0.0, 0.0, 1.0, 1.0, 0.0]),
        "linear_interval_equal_ends": PiecewiseLinearField(
            [0.0, 0.2, 0.5, 0.8, 1.0], [1.0, 1.0, 0.0, 1.0, 1.0], domain=[0.0, 1.0]),
        "linear_interval_two_levels": PiecewiseLinearField(
            [0.0, 0.3, 0.7, 1.0], [1.0, 1.0, 0.0, 0.0], domain=[0.0, 1.0]),
        "linear_constant": PiecewiseLinearField([0.0, 0.5], [3.0, 3.0]),
    }
    EXPECTED = {
        "step_seam":
            ([(0.3, 0.6, 0.0), (0.6, 1.3, 1.0)], ((0.3, 0.6, 0.0), (0.6, 1.3, 1.0))),
        "step_equal_neighbours":
            ([(0.0, 0.5, 2.0), (0.5, 0.75, -1.0), (0.75, 1.0, 0.5)],
             ((0.0, 0.5, 2.0), (0.5, 0.75, -1.0))),
        "grid_interval_equal_ends":
            ([(0.0, 0.4, 1.0), (0.4, 0.8, 0.0), (0.8, 1.0, 1.0)],
             ((0.0, 0.4, 1.0), (0.4, 0.8, 0.0))),
        "grid_seeded":
            ([(0.08333333333333333, 0.16666666666666666, 1.0),
              (0.16666666666666666, 0.3333333333333333, 2.0),
              (0.3333333333333333, 0.41666666666666663, 1.0),
              (0.41666666666666663, 0.5833333333333333, 2.0),
              (0.5833333333333333, 0.9166666666666666, 0.0),
              (0.9166666666666666, 1.0833333333333333, 2.0)],
             ((0.16666666666666666, 0.3333333333333333, 2.0),
              (0.5833333333333333, 0.9166666666666666, 0.0))),
        "linear_seam":
            ([(0.8, 1.2, 1.0)], None),
        "linear_adjacent_flats":
            ([(0.2, 0.7, 1.0)], None),
        "linear_left_end_only":
            ([(0.0, 0.3, 2.0)], None),
        "linear_right_end_only":
            ([(0.6, 1.0, 0.0)], None),
        "linear_two_levels_seam":
            ([(0.4, 0.5, 1.0), (0.9, 1.1, 0.0)], ((0.4, 0.5, 1.0), (0.9, 1.1, 0.0))),
        "linear_interval_equal_ends":
            ([(0.0, 0.2, 1.0), (0.8, 1.0, 1.0)], None),
        "linear_interval_two_levels":
            ([(0.0, 0.3, 1.0), (0.7, 1.0, 0.0)], ((0.0, 0.3, 1.0), (0.7, 1.0, 0.0))),
        "linear_constant":
            ([(0.0, 1.0, 3.0)], None),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exact(self, name):
        field = self.CASES[name]
        plats, pair = self.EXPECTED[name]
        assert [tuple(p) for p in field.plateaus()] == plats
        assert all(type(x) is float for p in field.plateaus() for x in p)
        got = field.find_plateau_pair()
        assert (None if got is None else (tuple(got.first), tuple(got.second))) == pair


@settings(max_examples=150, deadline=None)
@given(segments=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 4)),
                         min_size=2, max_size=10),
       periodic=st.booleans())
def test_linear_plateaus_constant_and_maximal(segments, periodic):
    """Every plateau of a piecewise-linear field is a union of flat segments at
    its value, no flat segment borders it from outside, and every flat segment
    lies in exactly one plateau."""
    levels = [float(level) for level, _ in segments]
    edges = np.concatenate([[0.0], np.cumsum([w for _, w in segments])])
    edges /= edges[-1]
    if periodic:
        field = PiecewiseLinearField(edges[:-1], levels)
        ends = levels + levels[:1]
        xs = edges
    else:
        field = PiecewiseLinearField(edges[:-1] / edges[-2], levels, domain=[0.0, 1.0])
        ends = levels
        xs = edges[:-1] / edges[-2]
    n_seg = len(ends) - 1
    flat = [ends[k] == ends[k + 1] for k in range(n_seg)]
    mids = [0.5 * (xs[k] + xs[k + 1]) for k in range(n_seg)]
    covered = []
    for p in field.plateaus():
        inside = [k for k in range(n_seg)
                  if p.left < mids[k] < p.right or (periodic and p.left < mids[k] + 1.0 < p.right)]
        assert inside and all(flat[k] and ends[k] == p.value for k in inside)
        assert all(field(mids[k]) == p.value for k in inside)
        assert p.length == pytest.approx(sum(xs[k + 1] - xs[k] for k in inside), abs=1e-12)
        around = {(k + d) % n_seg if periodic else k + d for k in inside for d in (-1, 1)}
        assert not any(flat[k] for k in around - set(inside) if 0 <= k < n_seg)
        covered += inside
    assert sorted(covered) == [k for k in range(n_seg) if flat[k]]


class TestPlateauPair:
    def test_two_level(self):
        pair = two_plateau(0.0, 1.0).find_plateau_pair()
        assert pair is not None
        assert pair.ell == pytest.approx(0.5)
        assert pair.dv == pytest.approx(1.0)

    def test_sine_none(self):
        assert SineField().find_plateau_pair() is None

    def test_merged_constant_none(self):
        v = PiecewiseConstantField([0.0, 0.3, 0.6], [1.0, 1.0, 1.0])
        assert v.find_plateau_pair() is None

    def test_tie_break_on_height_difference(self):
        v = PiecewiseConstantField([0.0, 0.3, 0.6], [0.0, 5.0, 1.0])
        pair = v.find_plateau_pair()
        assert pair.dv == pytest.approx(5.0)

    def test_prefers_longer_min_length(self):
        v = PiecewiseConstantField([0.0, 0.1, 0.5], [3.0, 0.0, 1.0])
        pair = v.find_plateau_pair()
        # (0.0 on [.1,.5), 1.0 on [.5,1)) has min length .4, beats pairs with .1
        assert pair.ell == pytest.approx(0.4)
        assert pair.dv == pytest.approx(1.0)


class TestAffineResidual:
    def test_linear_growth_residual(self):
        # V(x) = x has primitive x^2/2; residual over [0,1] is 1/720
        pv = SawtoothField(1.0).primitive(base=0.0)
        assert pv.affine_residual(0.0, 1.0) == pytest.approx(1.0 / 720.0, rel=1e-12)

    def test_scaling_in_length(self):
        pv = SawtoothField(1.0).primitive(base=0.0)
        for lo, hi in [(0.1, 0.6), (0.25, 0.75)]:
            assert pv.affine_residual(lo, hi) == pytest.approx((hi - lo) ** 5 / 720.0, rel=1e-10)

    def test_against_brute_force(self):
        for field in [SineField(1.0, 2), BinaryCascadeField(1.0), HeavisideField()]:
            pv = field.primitive(base=0.0)
            for lo, hi in [(0.0, 1.0), (0.15, 0.8)]:
                exact = pv.affine_residual(lo, hi)
                brute = brute_affine_residual(pv, lo, hi)
                assert exact == pytest.approx(brute, rel=5e-4, abs=1e-12)

    def test_monotone_under_inclusion(self):
        pv = SineField(1.0, 1).primitive()
        outer = pv.affine_residual(0.1, 0.9)
        for lo, hi in [(0.2, 0.8), (0.1, 0.5), (0.4, 0.9)]:
            assert pv.affine_residual(lo, hi) <= outer + 1e-15

    def test_constant_field_zero(self):
        pv = PiecewiseConstantField([0.0], [4.0]).primitive()
        assert pv.affine_residual(0.0, 1.0) < 1e-25

    @pytest.mark.parametrize("field, base, window", [
        # past the seam the end segment extended is affine, the wrap is not:
        # this window used to read 0.0
        (GridField([1.0, 0.0, 0.0, -1.0]), 0.5, (0.75, 1.25)),
        (PiecewiseLinearField([0.0, 0.5], [1.0, -1.0]), 0.0, (-0.25, 0.5)),
        (SineField(1.0, 2), 0.0, (0.5, 1.0 + 1e-9)),
    ])
    def test_window_must_lie_in_the_domain(self, field, base, window):
        pv = field.primitive(base=base)
        with pytest.raises(DomainError, match=r"^window must lie within \[0, 1\]"):
            pv.affine_residual(*window)
        with pytest.raises(DomainError, match=r"^window must lie within \[0, 1\]"):
            pv.window_table(*window, 9, 0.1)

    def test_window_edge_slack(self):
        # the same 1e-12 slack as evaluating the primitive at a point
        pv = GridField([1.0, 0.0, 0.0, -1.0]).primitive(base=0.5)
        assert pv.affine_residual(0.5, 1.0 + 5e-13) > 0.0
        assert pv.affine_residual(-5e-13, 0.5) > 0.0



def _random_field(kind, rng):
    if kind == "grid":
        return GridField(rng.uniform(-2.0, 2.0, int(rng.integers(1, 20))))
    if kind == "linear":
        inner = np.unique(rng.uniform(0.01, 0.99, int(rng.integers(0, 8))))
        return PiecewiseLinearField([0.0, *inner], rng.uniform(-2.0, 2.0, len(inner) + 1))
    if kind == "two_plateau":
        return two_plateau(*rng.uniform(-2.0, 2.0, 2))
    return SineField(rng.uniform(-2.0, 2.0), int(rng.integers(1, 4)), rng.uniform(0.0, 6.0))


def _reference_fit(pv, alpha, beta):
    """(p, q, residual) of one window by the per-window arithmetic the scan
    must keep bit for bit: the window's own cuts and quadrature, three np.dot
    calls and the numpy scalar length ** 3."""
    alpha, beta = np.float64(alpha), np.float64(beta)
    if isinstance(pv, velocity.SmoothPrimitive):
        cuts = np.linspace(alpha, beta, max(8, math.ceil((beta - alpha) * pv._per_unit)) + 1)
    else:
        inner = pv.nodes[1:-1]
        cuts = np.concatenate([[alpha], inner[(inner > alpha) & (inner < beta)], [beta]])
    x, w = velocity._panel_quadrature(cuts[:-1], cuts[1:], pv.QUAD_ORDER)
    v = pv._eval_inside(x)
    length = beta - alpha
    mid = 0.5 * (alpha + beta)
    d0 = float(np.dot(w, v)) / length
    p = float(np.dot(w, (x - mid) * v)) * 12.0 / length**3
    q = d0 - p * mid
    dev = v - (p * x + q)
    return p, q, float(np.dot(w, dev * dev))


def _blas_versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


class TestWindowScan:
    """Primitive.window_table: every lattice window once, with the bits of
    fitting each window alone."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["grid", "linear", "sine", "two_plateau"]),
           seed=st.integers(0, 2**32 - 1), lo=st.floats(0.0, 0.5), span=st.floats(0.05, 0.5),
           points=st.integers(2, 65), min_frac=st.floats(0.0, 1.0))
    # lattice points on the breakpoint 0.5 (odd points): the breakpoints
    # inside a window are the ones strictly between its ends
    @example(kind="two_plateau", seed=1, lo=0.0, span=1.0, points=65, min_frac=0.0)
    @example(kind="two_plateau", seed=2, lo=0.0, span=1.0, points=3, min_frac=0.0)
    @example(kind="two_plateau", seed=3, lo=0.25, span=0.5, points=33, min_frac=0.1)
    @example(kind="two_plateau", seed=4, lo=0.5, span=0.5, points=5, min_frac=0.0)
    # lengths whose array ** 3 differs from the scalar one
    @example(kind="sine", seed=5, lo=0.1, span=0.45, points=65, min_frac=0.0)
    def test_table(self, kind, seed, lo, span, points, min_frac):
        hi = lo + span
        pv = _random_field(kind, np.random.default_rng(seed)).primitive(base=lo)
        table = pv.window_table(lo, hi, points, min_frac * span).tolist()
        grid = np.linspace(lo, hi, points)
        expected = [(grid[i], grid[j]) for i in range(points) for j in range(i + 1, points)
                    if grid[j] - grid[i] >= min_frac * span - 1e-12]
        assert [(left, right) for left, right, *_ in table] == expected
        for left, right, *fit in table:
            assert tuple(fit) == _reference_fit(pv, left, right)
        if table:
            lefts, rights, _ = pv._panels(*(np.array(column) for column in zip(*expected)))
            assert np.all(rights > lefts)  # no empty panel
        # a window's residual is at most that of any window containing it
        lefts, rights, res = (np.array(column) for column in
                              zip(*((left, right, r) for left, right, _, _, r in table)))
        for left, right, r in zip(lefts, rights, res):
            outer = (lefts <= left) & (right <= rights)
            assert np.all(r <= res[outer] * (1.0 + 1e-9) + 1e-15)

    def test_smooth_cuts_are_linspace(self):
        # SmoothPrimitive._panels cuts every window of a row where np.linspace does
        pv = SineField(1.3, 3, 0.4).primitive(base=0.0)
        rng = np.random.default_rng(11)
        rows = [(alpha, np.sort(rng.uniform(alpha, 1.0, 40))) for alpha in rng.uniform(0.0, 1.0, 50)]
        grid = np.linspace(0.0, 1.0, 65)
        rows += [(grid[i], grid[i + 1:]) for i in range(64)]
        for alpha, betas in rows:
            lefts, rights, counts = pv._panels(np.full(len(betas), alpha), betas)
            ends = np.cumsum(counts)
            for beta, first, stop in zip(betas, ends - counts, ends):
                n = max(8, math.ceil((beta - alpha) * pv._per_unit))
                cuts = np.append(lefts[first:stop], rights[stop - 1])
                assert stop - first == n
                assert cuts.tobytes() == np.linspace(alpha, beta, n + 1).tobytes()
                assert rights[first:stop - 1].tobytes() == lefts[first + 1:stop].tobytes()

    def test_batch_size_keeps_bits(self, monkeypatch):
        # batches of one window, of a few, or of many
        rng = np.random.default_rng(7)
        for field, points in ((SineField(1.3, 3, 0.4), 33),
                              (GridField(rng.uniform(-2.0, 2.0, 300)), 33),
                              (_random_field("linear", rng), 33),
                              (GridField(rng.uniform(-1.0, 1.0, 1000)), 33),
                              (SineField(1.0, 40, 0.2), 33),
                              (BinaryCascadeField(1e-9), 17)):  # 2**16 cells
            pv = field.primitive(base=0.0)
            tables = []
            for nodes in (1 << 15, 1000, 1):
                monkeypatch.setattr(velocity, "_BATCH_NODES", nodes)
                tables.append(pv.window_table(0.0, 1.0, points, 0.0).tolist())
            assert tables[0] == tables[1] == tables[2]
            for left, right, *fit in tables[0]:
                assert tuple(fit) == _reference_fit(pv, left, right), field

    def test_stacked_matmul_is_np_dot(self):
        # the scan's stacked products must give np.dot's bits on every row
        rng = np.random.default_rng(3)
        for n in [*range(1, 201), 1000, 12_800]:
            w, v = rng.standard_normal((2, 4, n))
            stacked = np.matmul(w[:, None, :], v[:, :, None])[:, 0, 0]
            rows = np.array([np.dot(a, b) for a, b in zip(w, v)])
            assert stacked.tobytes() == rows.tobytes(), f"n={n}: {_blas_versions()}"
        # rows copied out of arbitrary slices of one array
        w, v = rng.standard_normal((2, 50_000))
        for n in (3, 30, 77, 200, 3000):
            starts = rng.integers(0, len(w) - n, 20)
            rows = starts[:, None] + np.arange(n)
            stacked = np.matmul(w[rows][:, None, :], v[rows][:, :, None])[:, 0, 0]
            single = np.array([np.dot(w[s:s + n], v[s:s + n]) for s in starts])
            assert stacked.tobytes() == single.tobytes(), f"n={n}: {_blas_versions()}"


class TestFlatnessEstimate:
    def test_plateau_infeasible(self):
        v = PiecewiseConstantField([0.0, 0.5], [0.0, 1.0])
        est = estimate_flatness_constant(v, (0.0, 1.0), [0.1, 0.2], j_points=21)
        assert not est.feasible
        assert est.witness is not None

    def test_constant_infeasible(self):
        v = PiecewiseConstantField([0.0], [2.0])
        est = estimate_flatness_constant(v, (0.0, 1.0), [0.25], j_points=9)
        assert not est.feasible

    def test_linear_field_feasible_and_matches_oracle(self):
        v = SawtoothField(1.0)
        eps_grid = [0.25, 0.5, 0.75]
        j_points = 17
        est = estimate_flatness_constant(v, (0.0, 1.0), eps_grid, j_points=j_points)
        assert est.feasible
        # oracle: residual over any window of length L is L^5/720, so the
        # worst admissible window at scale eps has length exactly eps
        expected = max(
            e**2 * math.log(720.0 / e**6) for e in eps_grid
        )
        assert est.constant == pytest.approx(max(expected, 1.0), rel=1e-9)

    def test_clamped_at_one(self):
        # gentle scales where the raw maximum is below 1
        v = SawtoothField(1.0)
        est = estimate_flatness_constant(v, (0.0, 1.0), [0.9], j_points=11)
        assert est.feasible
        assert est.constant >= 1.0

    @pytest.mark.parametrize("field, interval", [
        # a window past the seam would fit the primitive extended past b, not
        # its wrap: GridField([1, 0, 0, -1]).primitive(base=0.5) reads 0.0 on
        # [0.75, 1.25] where the wrapped primitive is not affine
        (GridField([1.0, 0.0, 0.0, -1.0]), (0.75, 1.25)),
        (PiecewiseLinearField([0.0, 0.5], [1.0, -1.0]), (0.5, 1.5)),
        (PiecewiseLinearField([0.0, 0.5], [1.0, -1.0]), (-0.25, 0.5)),
    ])
    def test_interval_must_lie_in_the_domain(self, field, interval):
        with pytest.raises(ValueError, match=r"interval must lie in \["):
            estimate_flatness_constant(field, interval, [0.1, 0.2], j_points=9)

    @pytest.mark.parametrize("eps_grid", [[0.1, math.nan], [math.nan], [math.nan, 0.1]])
    def test_nan_scale_is_refused(self, eps_grid):
        # a NaN sorts anywhere, so checking only the sorted ends let it through:
        # [0.1, nan] dropped the NaN scale from the table, and the others
        # refused with "no admissible subintervals"; it is refused before the sort
        with pytest.raises(ValueError, match="^eps_grid must be finite, got nan"):
            estimate_flatness_constant(SineField(), (0.0, 1.0), eps_grid, j_points=9)

    def test_cascade_infeasible_at_fine_scales(self):
        # the truncated cascade is flat below its digit resolution
        v = BinaryCascadeField(c=1.0)
        est = estimate_flatness_constant(v, (0.0, 1.0), [0.0625], j_points=33)
        assert not est.feasible


@st.composite
def _velocity_configs(draw):
    """A config of any kind, on [a, b] where the kind takes a domain, with
    each optional parameter present or left out."""
    numbers = st.floats(-10.0, 10.0)
    kind = draw(st.sampled_from(sorted(velocity._CONSTRUCTORS)))
    cfg = {"kind": kind}
    a, b = 0.0, 1.0
    if "domain" in inspect.signature(velocity._CONSTRUCTORS[kind]).parameters \
            and draw(st.booleans()):
        a = draw(st.floats(-5.0, 5.0))
        b = a + draw(st.floats(0.1, 5.0))
        cfg["domain"] = [a, b]
    inner = [a + k / 64 * (b - a) for k in sorted(draw(st.sets(st.integers(1, 63), max_size=8)))]
    if kind == "piecewise_constant":
        cfg["breakpoints"] = [a] + inner
    elif kind == "piecewise_linear":
        cfg["knots"] = [a] + inner + ([b] if "domain" in cfg else [])
    elif kind == "grid":
        cfg["samples"] = draw(st.lists(numbers, min_size=1, max_size=16))
    elif kind == "sine":
        cfg.update(amplitude=draw(numbers), frequency=draw(st.integers(1, 8)),
                   phase=draw(st.floats(-4.0, 4.0)))
    elif kind == "sawtooth":
        cfg["amplitude"] = draw(numbers)
    elif kind == "heaviside":
        cfg.update(high=draw(numbers), low=draw(numbers))
    else:
        cfg.update(c=draw(st.floats(1e-3, 10.0)), tail_tol=draw(st.floats(1e-15, 1e-2)))
    for key in ("breakpoints", "knots"):
        if key in cfg:
            cfg["values"] = draw(st.lists(numbers, min_size=len(cfg[key]),
                                          max_size=len(cfg[key])))
    for key in ("phase", "high", "low", "tail_tol"):
        if key in cfg and draw(st.booleans()):
            del cfg[key]
    return cfg


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(cfg=_velocity_configs(),
           xs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=16))
    def test_to_config_is_the_constructor(self, cfg, xs):
        v = field_from_config(cfg)
        out = v.to_config()
        assert out["kind"] == cfg["kind"]
        assert set(out) - {"kind"} <= set(inspect.signature(type(v)).parameters)
        v2 = field_from_config(out)
        assert v2.to_config() == out
        x = v.a + np.array(xs) * v.length
        assert v2(x).tobytes() == v(x).tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "sine", "amplitude": 2.0, "frequency": 3, "phase": 0.5},
            {"kind": "sawtooth", "amplitude": -1.0},
            {"kind": "heaviside", "high": 2.0, "low": -1.0},
            {"kind": "binary_cascade", "c": 0.5},
            {"kind": "piecewise_constant", "breakpoints": [0.0, 0.25], "values": [1.0, 2.0]},
            {"kind": "grid", "samples": [1.0, 2.0, 3.0], "domain": [0.0, 2.0]},
            {"kind": "piecewise_linear", "knots": [0.0, 0.5], "values": [0.0, 1.0]},
            # 16 cells; dropping tail_tol would rebuild 32
            {"kind": "binary_cascade", "c": 0.01, "tail_tol": 1e-3},
            {"kind": "sine", "amplitude": 1.0, "frequency": 2.0},
            {"kind": "piecewise_constant", "breakpoints": [-1.0, 0.5], "values": [1.0, 2.0],
             "domain": [-1.0, 2.0]},
            {"kind": "piecewise_linear", "knots": [0.5, 1.0, 2.0], "values": [0.0, 3.0, -1.0],
             "domain": [0.5, 2.0]},
        ],
    )
    def test_round_trip(self, cfg):
        v = field_from_config(cfg)
        v2 = field_from_config(v.to_config())
        assert v2.to_config() == v.to_config()
        x = np.linspace(v.a, v.b, 101, endpoint=False)
        np.testing.assert_allclose(v(x), v2(x), rtol=0, atol=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^kind must be one of .*got 'fourier'"):
            field_from_config({"kind": "fourier"})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unexpected keyword argument 'omega'"):
            field_from_config({"kind": "sine", "amplitude": 1.0, "omega": 2})

    @pytest.mark.parametrize("cfg,message", [
        # an id names the fault, in the words of the config layer's former check
        pytest.param({"kind": "grid"}, "^velocity kind 'grid': .*missing 1 required positional "
                     "argument: 'samples'",
                     id="cfg0-missing keys for velocity kind 'grid': \\['samples'\\]"),
        pytest.param({"kind": "piecewise_linear", "knots": [0.0]},
                     "required positional argument: 'values'", id="cfg1-missing keys"),
        ({"kind": "sine", "frequency": 1.5}, "frequency must be a positive integer"),
    ])
    def test_rejected(self, cfg, message):
        with pytest.raises(ValueError, match=message):
            field_from_config(cfg)

    def test_breakpoints_must_start_at_origin(self):
        with pytest.raises(DomainError):
            PiecewiseConstantField([0.1, 0.5], [1.0, 2.0])

    def test_breakpoints_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseConstantField([0.0, 0.5, 0.5], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("build,arrays", [
        (lambda a: GridField(a[0]), [[0.0, 1.0]]),
        (lambda a: PiecewiseConstantField(a[0], a[1]), [[0.0, 0.5], [0.0, 1.0]]),
        (lambda a: PiecewiseLinearField(a[0], a[1]), [[0.0, 0.5], [0.0, 1.0]]),
    ], ids=["grid", "piecewise_constant", "piecewise_linear"])
    def test_a_field_keeps_its_own_copy(self, build, arrays):
        # the caller's float64 arrays, changed after construction
        arrays = [np.array(a) for a in arrays]
        field = build(arrays)
        before = (field.range(), field.to_config(), field(np.array([0.25, 0.75])).tolist())
        for a in arrays:
            a += 0.125
        assert (field.range(), field.to_config(),
                field(np.array([0.25, 0.75])).tolist()) == before


class TestCascadeValues:
    def test_dyadic_cells(self):
        v = BinaryCascadeField(c=1.0)
        a1, a2 = math.exp(-4.0), math.exp(-16.0)
        assert v(0.0) == pytest.approx(a1 + a2)
        assert v(0.3) == pytest.approx(a1 - a2)  # digits (0, 1)
        assert v(0.5) == pytest.approx(-a1 + a2)  # digits (1, 0)
        assert v(0.8) == pytest.approx(-a1 - a2)  # digits (1, 1)

    def test_depth_grows_as_c_shrinks(self):
        assert len(BinaryCascadeField(c=1.0).coefficients) == 2
        assert len(BinaryCascadeField(c=0.01).coefficients) == 5

    def test_depth_cap_is_flagged(self):
        v = BinaryCascadeField(c=1e-9)
        assert len(v.coefficients) == BinaryCascadeField.MAX_DEPTH
        assert v.coefficients[-1] == pytest.approx(0.0136, abs=1e-4)
        assert v.truncated
        assert v.first_dropped == math.exp(-1e-9 * 4.0**17)
        assert v.first_dropped >= v.tail_tol
        assert v.to_config() == {"kind": "binary_cascade", "c": 1e-9, "tail_tol": 1e-15}

    def test_tail_cut_is_not_flagged(self):
        v = BinaryCascadeField(c=1.0)
        assert not v.truncated
        assert v.first_dropped == math.exp(-64.0) < v.tail_tol


def _binary_search_eval(field, x):
    """The step lookup by binary search over the cell edges."""
    idx = np.clip(np.searchsorted(field.edges, x, side="right") - 1, 0, len(field.values) - 1)
    return field.values[idx]


def _edge_probes(field, xs):
    edges = field.edges
    return np.concatenate([xs, edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf), [0.0, 1.0]])


class TestStepLookup:
    """The dyadic table lookup returns the binary search's bits."""

    unit_floats = st.lists(st.floats(0.0, 1.0), max_size=64)

    @settings(max_examples=60, deadline=None)
    @given(cells=st.sampled_from([1, 2, 3, 4, 8, 10, 12, 16, 64, 100, 1024]),
           seed=st.integers(0, 2**32 - 1), xs=unit_floats)
    def test_grid(self, cells, seed, xs):
        field = GridField(np.random.default_rng(seed).uniform(-1.0, 1.0, cells))
        assert (field._table is not None) == (cells & (cells - 1) == 0)
        x = _edge_probes(field, xs)
        assert field._eval_inside(x).tobytes() == _binary_search_eval(field, x).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 12), dyadic=st.booleans(),
           xs=unit_floats)
    def test_uneven_cells(self, data, bits, dyadic, xs):
        if dyadic:
            ks = data.draw(st.sets(st.integers(1, 2**bits - 1), max_size=20))
            inner = [k / 2**bits for k in ks]
        else:
            inner = data.draw(st.sets(st.floats(0.0, 1.0, exclude_min=True,
                                                exclude_max=True), max_size=20))
        breakpoints = [0.0] + sorted(inner)
        values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(breakpoints),
                                    max_size=len(breakpoints)))
        field = PiecewiseConstantField(breakpoints, values)
        if dyadic:
            assert field._table is not None
        x = _edge_probes(field, xs)
        assert field._eval_inside(x).tobytes() == _binary_search_eval(field, x).tobytes()

    @pytest.mark.parametrize("c", [1e-9, 1e-3, 1.0])
    def test_cascade(self, c):
        field = BinaryCascadeField(c=c)
        assert field._table is not None
        x = _edge_probes(field, np.random.default_rng(5).uniform(0.0, 1.0, 4096))
        assert field._eval_inside(x).tobytes() == _binary_search_eval(field, x).tobytes()
