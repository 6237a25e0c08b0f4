import math

import numpy as np
import pytest

from shearmix import kernels as kr


class TestHeatLine:
    def test_peak_normalization(self):
        assert kr.heat_line(0.0, 1.0 / (4 * math.pi)) == pytest.approx(1.0, abs=1e-14)

    def test_half_point_value(self):
        assert kr.heat_line(0.5, 0.125) == pytest.approx(
            math.sqrt(2.0 / (math.e * math.pi)), rel=1e-13)
        assert kr.heat_line(0.5, 0.125) == pytest.approx(0.48394, abs=1e-5)

    def test_unit_mass(self):
        x = np.linspace(-12, 12, 40001)
        assert np.trapezoid(kr.heat_line(x, 0.7), x) == pytest.approx(1.0, abs=1e-8)

    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            kr.heat_line(0.0, 0.0)


class TestHeatTorus:
    def test_minimum_dominates_line_value(self):
        x = np.linspace(0, 1, 2001)
        vals = kr.heat_torus(x, 0.0, 0.125)
        assert vals.min() >= math.sqrt(2.0 / (math.e * math.pi)) - 1e-8

    def test_dominates_line_kernel(self):
        x = np.linspace(-0.5, 0.5, 101)
        assert np.all(kr.heat_torus(x, 0.0, 0.2) >= kr.heat_line(x, 0.2) - 1e-15)

    def test_equilibrium(self):
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(kr.heat_torus(x, 0.3, 5.0), 1.0, atol=1e-8)

    def test_symmetry_and_mass(self):
        x = np.linspace(0, 1, 257, endpoint=False)
        vals = kr.heat_torus(x, 0.37, 0.11)
        vals_t = kr.heat_torus(0.37, x, 0.11)
        np.testing.assert_allclose(vals, vals_t, atol=1e-14)
        assert vals.mean() == pytest.approx(1.0, abs=1e-12)

    def test_chapman_kolmogorov(self):
        z = np.linspace(0, 1, 512, endpoint=False)
        x, y, s, t = 0.2, 0.8, 0.13, 0.21
        comp = np.mean(kr.heat_torus(x, z, t) * kr.heat_torus(z, y, s))
        assert comp == pytest.approx(kr.heat_torus(x, y, t + s), abs=1e-6)

    def test_cell_mass_matches_quadrature(self):
        lo, hi, t = 0.2, 0.45, 0.09
        z = np.linspace(lo, hi, 20001)
        quad = np.trapezoid(kr.heat_torus(z, 0.7, t), z)
        assert kr.heat_torus_cell_mass(0.7, lo, hi, t) == pytest.approx(quad, abs=1e-9)

    def test_cell_masses_partition_unity(self):
        edges = np.linspace(0, 1, 9)
        total = sum(kr.heat_torus_cell_mass(0.31, lo, hi, 0.4)
                    for lo, hi in zip(edges[:-1], edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [1e4, 1e5])
    def test_long_times_reach_equilibrium(self, t):
        # a cap on the image count would leave these short of 1 (0.995 and 0.63
        # at a 400-image cap)
        assert kr.heat_torus(0.3, 0.0, t) == pytest.approx(1.0, abs=1e-12)
        assert kr.heat_torus_cell_mass(0.0, 0.0, 1.0, t) == pytest.approx(1.0, abs=1e-12)


def _sine_series_loop(x, xp, interval, t):
    """The Dirichlet kernel term by term, its count found one term at a time:
    the reference for heat_dirichlet's chunked sum and term search."""
    from scipy.special import erfc

    a, b = interval
    length = b - a
    q = math.pi**2 * t / length**2
    m = 1
    while (2.0 / length) * 0.5 * math.sqrt(math.pi / q) * float(erfc(m * math.sqrt(q))) > 1e-14:
        m += 1
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    out = np.zeros(np.broadcast(x, xp).shape, dtype=float)
    u = math.pi * (x - a) / length
    v = math.pi * (xp - a) / length
    for k in range(1, m + 1):
        out += math.exp(-(k**2) * q) * np.sin(k * u) * np.sin(k * v)
    out *= 2.0 / length
    return out if out.shape else float(out)


class TestHeatDirichlet:
    def test_boundary_vanishes(self):
        assert kr.heat_dirichlet(0.0, 0.5, (0.0, 1.0), 0.1) == pytest.approx(0.0, abs=1e-12)
        assert kr.heat_dirichlet(1.0, 0.5, (0.0, 1.0), 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_line_kernel(self):
        x = np.linspace(0.01, 0.99, 61)
        vals = kr.heat_dirichlet(x, 0.4, (0.0, 1.0), 0.05)
        assert np.all(vals <= kr.heat_line(x - 0.4, 0.05) + 1e-12)

    def test_symmetry(self):
        assert kr.heat_dirichlet(0.3, 0.6, (0.0, 1.0), 0.2) == pytest.approx(
            kr.heat_dirichlet(0.6, 0.3, (0.0, 1.0), 0.2), abs=1e-14)

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.2, 0.7)])
    def test_core_constant_at_least_half(self, interval):
        # on the middle half of the interval, at t = L^2/8, the kernel times
        # L e^{pi^2 t / L^2} stays above 1/2
        a, b = interval
        length = b - a
        t = length**2 / 8.0
        core = np.linspace(a + length / 4.0, b - length / 4.0, 41)
        xx, yy = np.meshgrid(core, core)
        vals = kr.heat_dirichlet(xx, yy, interval, t)
        scaled = vals * length * math.exp(math.pi**2 * t / length**2)
        assert scaled.min() >= 0.5

    def test_point_mass_l2_smoothing(self):
        # unit-mass data evolved to time 1 on [0,1] has tiny L2 norm, far
        # below the free-space smoothing constant (8 pi)^{-1/2}
        x = np.linspace(0, 1, 2001)
        worst = 0.0
        for x0 in (0.1, 0.5, 0.77):
            prof = kr.heat_dirichlet(x, x0, (0.0, 1.0), 1.0)
            worst = max(worst, math.sqrt(np.trapezoid(prof**2, x)))
        assert worst <= (8 * math.pi) ** -0.5 + 1e-6

    def test_nonnegative(self):
        x = np.linspace(0, 1, 101)
        xx, yy = np.meshgrid(x, x)
        assert kr.heat_dirichlet(xx, yy, (0.0, 1.0), 0.02).min() >= -1e-13

    def test_short_time_matches_line_kernel(self):
        # far from the walls the line kernel is exact to e^{-1/(4t)}; a cap of
        # 100 000 sine terms read 0.840 of it at this t
        t = 1e-11
        ratio = kr.heat_dirichlet(0.5, 0.5, (0.0, 1.0), t) / kr.heat_line(0.0, t)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [1e-8, 1e-5, 0.02, 0.125, 1.0])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.2, 0.7)])
    def test_same_bits_as_the_term_loop(self, t, interval):
        # 9 and 25 points split the 2e4 terms at t = 1e-8 into several chunks
        a, b = interval
        x = np.random.default_rng(7).uniform(a, b, 9)
        grid = np.linspace(a, b, 5)
        for args in [(x[2], x[5]), (x, x[0]), (grid[:, None], grid[None, :])]:
            got = kr.heat_dirichlet(*args, interval, t)
            want = _sine_series_loop(*args, interval, t)
            assert type(got) is type(want) and np.array_equal(got, want)


class TestKolmogorovControl:
    def test_free_streaming_costs_nothing(self):
        st = kr.KolmogorovState(0.3, 0.1, 0.3, 0.1 + 0.3 * 2.0, 2.0)
        sol = kr.kolmogorov_control(st)
        assert sol.a == pytest.approx(0.0, abs=1e-12)
        assert sol.b == pytest.approx(0.0, abs=1e-12)
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_unit_vertical_displacement(self):
        sol = kr.kolmogorov_control(kr.KolmogorovState(0.0, 0.0, 0.0, 1.0, 1.0))
        assert sol.a == pytest.approx(6.0, rel=1e-12)
        assert sol.b == pytest.approx(-6.0, rel=1e-12)
        assert sol.cost == pytest.approx(3.0, rel=1e-12)
        assert sol.cost == pytest.approx(kr.kolmogorov_cost(1.0, 0.0, 1.0), rel=1e-12)

    def test_control_reaches_endpoint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x0, y0, x, y = rng.normal(size=4)
            t = float(rng.uniform(0.2, 3.0))
            sol = kr.kolmogorov_control(kr.KolmogorovState(x0, y0, x, y, t))
            s = np.linspace(0, t, 20001)
            w = sol.a + 2 * sol.b * s
            xs = x0 + np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(s))])
            ys = y0 + np.trapezoid(xs, s)
            assert xs[-1] == pytest.approx(x, abs=1e-8)
            assert ys == pytest.approx(y, abs=1e-8)

    def test_cost_equals_action_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x0, y0, x, y = rng.normal(scale=2.0, size=4)
            t = float(rng.uniform(0.05, 4.0))
            sol = kr.kolmogorov_control(kr.KolmogorovState(x0, y0, x, y, t))
            psi = kr.kolmogorov_cost(t, x, y, x0, y0)
            assert sol.cost == pytest.approx(psi, rel=1e-12, abs=1e-12)


class TestKolmogorovKernel:
    def test_normalization_constant(self):
        assert kr.KOLMOGOROV_NORMALIZATION == pytest.approx(math.sqrt(3) / (2 * math.pi), rel=1e-15)

    def test_unit_mass_quadrature(self):
        t = 0.8
        sx, sy = math.sqrt(2 * t), math.sqrt(2 * t**3 / 3)
        x = np.linspace(-8 * sx, 8 * sx, 401)
        y = np.linspace(-8 * sy, 8 * sy, 401)
        xx, yy = np.meshgrid(x, y)
        vals = kr.kolmogorov_kernel(t, xx, yy)
        mass = np.trapezoid(np.trapezoid(vals, x, axis=1), y)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_moments_match_path_integral_statistics(self):
        # Var X = 2t, Var Y = 2 t^3 / 3, Cov = t^2 from the quadratic form
        t = 1.3
        sx, sy = math.sqrt(2 * t), math.sqrt(2 * t**3 / 3)
        x = np.linspace(-9 * sx, 9 * sx, 501)
        y = np.linspace(-9 * sy, 9 * sy, 501)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        vals = kr.kolmogorov_kernel(t, xx, yy)

        def integrate(f):
            return np.trapezoid(np.trapezoid(f * vals, y, axis=1), x)

        assert integrate(xx * xx) == pytest.approx(2 * t, rel=1e-5)
        assert integrate(yy * yy) == pytest.approx(2 * t**3 / 3, rel=1e-5)
        assert integrate(xx * yy) == pytest.approx(t**2, rel=1e-5)

    def test_solves_pde(self):
        # residual of du/dt = dxx u - x dy u under fourth-order stencils
        rng = np.random.default_rng(11)
        hx = hy = ht = 0.012

        def u(t, x, y):
            return kr.kolmogorov_kernel(t, x, y)

        def d1(f, h):
            return (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)

        def d2(f, h):
            return (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)

        for _ in range(20):
            t = float(rng.uniform(0.5, 2.0))
            x = float(rng.normal(scale=1.0))
            y = float(rng.normal(scale=0.7))
            offs = np.arange(-2, 3)
            ut = d1(np.array([u(t + j * ht, x, y) for j in offs]), ht)
            uxx = d2(np.array([u(t, x + j * hx, y) for j in offs]), hx)
            uy = d1(np.array([u(t, x, y + j * hy) for j in offs]), hy)
            assert abs(ut - uxx + x * uy) <= 1e-4

    def test_time_validation(self):
        with pytest.raises(ValueError):
            kr.kolmogorov_kernel(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            kr.KolmogorovState(0, 0, 0, 0, -1.0)
