import hashlib
import json
import math

import numpy as np
import pytest

from shearmix import cli, functionals
from shearmix.evolve import (
    Evolution,
    ModeField,
    field_from_samples,
    field_to_samples,
    initial_samples,
    load_snapshot,
    relax_trace,
    save_snapshot,
    strip_trace,
)
from shearmix.spectral import make_operator, resolvent_gap
from shearmix.velocity import PiecewiseConstantField, SineField, two_plateau

COS = SineField(1.0, 1, math.pi / 2)


def torus_samples(fun, nx, ny):
    x = np.arange(nx) / nx
    y = np.arange(ny) / ny
    return fun(x[:, None], y[None, :])


class TestModeField:
    def test_constant_gives_only_mode_zero(self):
        fld = field_from_samples(np.ones((16, 9)))
        assert np.allclose(fld.mode(0), 1.0)
        for k in range(1, fld.k_max + 1):
            assert np.max(np.abs(fld.mode(k))) < 1e-14

    def test_cos_y_splits_into_two_modes(self):
        u0 = torus_samples(lambda x, y: np.cos(2 * np.pi * y) + 0 * x, 8, 9)
        fld = field_from_samples(u0)
        np.testing.assert_allclose(fld.mode(1), 0.5, atol=1e-13)
        np.testing.assert_allclose(fld.mode(-1), 0.5, atol=1e-13)

    def test_conjugate_symmetry_random_real_field(self):
        rng = np.random.default_rng(3)
        fld = field_from_samples(rng.normal(size=(12, 11)))
        assert fld.conjugate_symmetry_defect() < 1e-13

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        u0 = rng.normal(size=(16, 13))
        fld = field_from_samples(u0)
        np.testing.assert_allclose(field_to_samples(fld, 13), u0, atol=1e-12)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="alias"):
            field_from_samples(np.ones((8, 7)), k_max=4)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        u0 = rng.normal(size=(32, 17))
        fld = field_from_samples(u0)
        grid_norm = math.sqrt(np.mean(u0**2))
        assert fld.l2_norm() == pytest.approx(grid_norm, rel=1e-10)


class TestEvolution:
    def test_mass_conserved(self):
        rng = np.random.default_rng(13)
        u0 = 1.0 + 0.3 * rng.normal(size=(32, 9))
        fld = field_from_samples(u0)
        evo = Evolution(COS)
        *_, (_, out) = evo.trajectory(fld, 0.7, 4)
        assert out.mean() == pytest.approx(fld.mean(), abs=1e-10)

    def test_l2_nonincreasing(self):
        rng = np.random.default_rng(17)
        fld = field_from_samples(rng.normal(size=(32, 9)))
        evo = Evolution(COS)
        norms = [fld.l2_norm()]
        for _ in range(4):
            fld = evo.step(fld, 0.05)
            norms.append(fld.l2_norm())
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_two_half_steps_equal_one(self):
        rng = np.random.default_rng(23)
        fld = field_from_samples(rng.normal(size=(24, 9)))
        evo = Evolution(COS)
        once = evo.step(fld, 0.2)
        twice = evo.step(evo.step(fld, 0.1), 0.1)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-10)

    def test_mode_decoupling(self):
        rng = np.random.default_rng(29)
        fld = field_from_samples(rng.normal(size=(24, 9)))
        evo = Evolution(COS)
        joint = evo.step(fld, 0.3)
        for k in range(-fld.k_max, fld.k_max + 1):
            alone = fld.copy()
            for j in range(-fld.k_max, fld.k_max + 1):
                if j != k:
                    alone.coeffs[j + fld.k_max] = 0.0
            np.testing.assert_allclose(evo.step(alone, 0.3).mode(k), joint.mode(k),
                                       atol=1e-12)

    @pytest.mark.parametrize("t,steps", [(0.7, 3), (2.0, 4), (1.25, 1), (10.0, 32)])
    def test_trajectory_ends_at_repeated_steps(self, t, steps):
        fld = field_from_samples(np.random.default_rng(53).normal(size=(24, 7)))
        evo = Evolution(COS)
        *_, (_, last) = evo.trajectory(fld, t, steps + 1)
        stepped = fld
        for _ in range(steps):
            stepped = evo.step(stepped, t / steps)
        np.testing.assert_array_equal(last.coeffs, stepped.coeffs)

    def test_grid_comes_from_the_stepped_field(self):
        # one evolution steps fields on three grids, each with its own operators
        field = two_plateau(0.0, 1.0)
        evo = Evolution(field)
        rng = np.random.default_rng(47)
        fields = [field_from_samples(rng.normal(size=(32, 5)), boundary="dirichlet",
                                     interval=(0.25, 0.75)),
                  field_from_samples(rng.normal(size=(32, 5))),
                  field_from_samples(rng.normal(size=(48, 5)))]
        dt = 0.05
        for fld in fields:
            out = evo.step(fld, dt)
            for k in range(-fld.k_max, fld.k_max + 1):
                prop = make_operator(field, abs(k), boundary=fld.boundary,
                                     interval=fld.interval, n=fld.nx).propagator(dt)
                if k < 0:
                    prop = np.conj(prop)
                np.testing.assert_array_equal(out.mode(k), prop @ fld.mode(k))

    def test_constant_field_is_shifted_heat(self):
        c = 0.6
        const = PiecewiseConstantField([0.0], [c])
        zero = PiecewiseConstantField([0.0], [0.0])
        rng = np.random.default_rng(31)
        u0 = rng.normal(size=(24, 9))
        fld = field_from_samples(u0)
        t = 0.4
        with_drift = Evolution(const).step(fld, t)
        free = Evolution(zero).step(fld, t)
        for k in range(-fld.k_max, fld.k_max + 1):
            phase = np.exp(-2j * np.pi * k * c * t)
            np.testing.assert_allclose(with_drift.mode(k), phase * free.mode(k),
                                       atol=1e-8)

    def test_zero_field_y_mode_frozen(self):
        # with V = 0 a y-only mode feels no diffusion at all: no mixing in y
        zero = PiecewiseConstantField([0.0], [0.0])
        u0 = torus_samples(lambda x, y: np.cos(2 * np.pi * y) + 0 * x, 16, 9)
        fld = field_from_samples(u0)
        evo = Evolution(zero)
        *_, (_, out) = evo.trajectory(fld, 2.0, 5)
        assert out.deviation() == pytest.approx(fld.deviation(), rel=1e-12)

    def test_weak_positivity(self):
        u0 = torus_samples(
            lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * y) * np.cos(2 * np.pi * x), 32, 9)
        fld = field_from_samples(u0)
        evo = Evolution(two_plateau(0.0, 1.0))
        *_, (_, out) = evo.trajectory(fld, 0.5, 3)
        samples = field_to_samples(out, 9)
        assert samples.min() >= -1e-8 * np.abs(u0).max()


class TestRelaxTrace:
    def test_constant_initial_data(self):
        trace = relax_trace(np.full((16, 9), 2.0), COS, 1.0, n_samples=5,
                            correlation_grid=64)
        np.testing.assert_allclose(trace.deviation, 0.0, atol=1e-12)
        assert trace.violations == []

    def test_cos_y_under_cosine_shear(self):
        u0 = torus_samples(lambda x, y: np.cos(2 * np.pi * y) + 0 * x, 32, 9)
        trace = relax_trace(u0, COS, 4.0, n_samples=9, correlation_grid=64)
        assert trace.violations == []
        assert trace.deviation[-1] < trace.deviation[0]

    def test_envelope_never_violated_under_two_plateau(self):
        rng = np.random.default_rng(37)
        u0 = rng.normal(size=(32, 9))
        trace = relax_trace(u0, two_plateau(0.0, 1.0), 6.0, n_samples=13,
                            correlation_grid=64)
        assert trace.violations == []

    @pytest.mark.parametrize("field", [COS, two_plateau(0.0, 1.0)],
                             ids=["cos", "two_plateau"])
    def test_modal_gap_envelope(self, field):
        # deviations also sit below the per-mode resolvent-gap envelope
        u0 = torus_samples(
            lambda x, y: np.cos(2 * np.pi * y) * (1 + 0.3 * np.sin(2 * np.pi * x)), 48, 5)
        fld = field_from_samples(u0)
        evo = Evolution(field)
        gaps = []
        for k in range(1, fld.k_max + 1):
            op = make_operator(field, k, n=fld.nx)
            gaps.append(op.lambda1_discrete + resolvent_gap(op, s_points=64).r_lambda1)
        op0 = make_operator(field, 0, n=48)
        lam2_disc = float(np.sort(np.linalg.eigvalsh(op0.laplacian()))[1])
        r_hat = min(gaps + [lam2_disc])
        times = np.linspace(0.0, 3.0, 7)
        dev0 = fld.deviation()
        current = fld
        for i, t in enumerate(times[1:], start=1):
            current = evo.step(current, times[1])
            assert current.deviation() <= math.e**(math.pi / 2 - r_hat * t) * dev0 * (1 + 1e-9)

    def test_shared_evolution(self, monkeypatch):
        u0 = initial_samples("random", 16, 5, seed=2)
        evo = Evolution(COS)
        fresh = relax_trace(u0, COS, 1.0, n_samples=5, correlation_grid=64)
        solves = []
        lp = functionals.lipschitz_correlation
        monkeypatch.setattr(functionals, "lipschitz_correlation",
                            lambda *args, **kw: solves.append(kw["grid_n"]) or lp(*args, **kw))
        shared = relax_trace(u0, COS, 1.0, n_samples=5, correlation_grid=64, evolution=evo)
        relax_trace(initial_samples("random", 16, 5, seed=3), COS, 1.0, n_samples=5,
                    correlation_grid=64, evolution=evo)
        relax_trace(u0, COS, 1.0, n_samples=5, correlation_grid=32, evolution=evo)
        assert solves == [64, 64, 32]  # the LP once per call: an Evolution keeps operators only
        assert shared.deviation.tolist() == fresh.deviation.tolist()
        assert shared.envelope.tolist() == fresh.envelope.tolist()
        assert sorted(k for k, *_ in evo._ops) == [0, 1, 2]
        with pytest.raises(ValueError, match="another velocity field"):
            relax_trace(u0, two_plateau(0.0, 1.0), 1.0, n_samples=5, evolution=evo)

    def test_csv_export(self, tmp_path):
        u0 = torus_samples(lambda x, y: np.cos(2 * np.pi * y) + 0 * x, 16, 5)
        trace = relax_trace(u0, COS, 1.0, n_samples=4, correlation_grid=64)
        path = tmp_path / "decay.csv"
        path.write_text(trace.decay_csv())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,deviation,envelope,violated_flag"
        assert len(lines) == 5


class TestStripTrace:
    def test_pure_ground_mode_decays_at_discrete_rate(self):
        interval = (0.0, 0.5)
        nx, ny = 48, 9
        nodes = np.linspace(*interval, nx + 2)[1:-1]
        profile = np.sin(np.pi * (nodes - interval[0]) / 0.5)
        nu0 = np.tile(profile[:, None], (1, ny))
        zero = PiecewiseConstantField([0.0], [0.0])
        trace = strip_trace(nu0, zero, interval, 0.4, n_samples=5)
        op = make_operator(zero, 0, boundary="dirichlet", interval=interval, n=nx)
        lam1 = op.lambda1_discrete
        expected = trace.sup(0)[0] * np.exp(-lam1 * trace.times)
        np.testing.assert_allclose(trace.sup(0), expected, rtol=1e-10)
        for k in range(1, trace.sup_norms.shape[1]):
            assert np.max(trace.sup(k)) < 1e-13

    def test_uniform_data_respects_ground_floor(self):
        interval = (0.0, 1.0)
        nx, ny = 48, 9
        nu0 = np.full((nx, ny), 0.8)
        trace = strip_trace(nu0, two_plateau(0.0, 1.0), interval, 1.0, n_samples=6)
        assert trace.kappa0 == pytest.approx(0.8, abs=1e-12)
        assert np.all(trace.floor_margin >= -1e-10)

    def test_mass_nonincreasing(self):
        rng = np.random.default_rng(41)
        nu0 = 1.0 + 0.2 * rng.random(size=(32, 9))
        trace = strip_trace(nu0, COS, (0.25, 0.75), 0.5, n_samples=6)
        assert np.all(np.diff(trace.mass) <= 1e-12)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        grid = rng.normal(size=(12, 7))
        path = tmp_path / "snap.f64"
        save_snapshot(path, grid, meta={"time": 0.25})
        back, sidecar = load_snapshot(path)
        np.testing.assert_array_equal(back, grid)
        assert sidecar["time"] == 0.25
        assert sidecar["dtype"] == "<f8"


def _sha256(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


class TestEvolveGolden:
    """Evolution outputs pinned bit for bit.

    Recorded with per-caller stepping loops, per-mode copy loops in the y
    transforms and per-step snapshot propagation in the CLI, with numpy 2.4.6
    and scipy 1.17.1; the digests do not change between 1 and 2 BLAS threads.
    """

    @pytest.mark.parametrize("name,field,u0,t_end,n_samples,digest", [
        ("cos", COS, initial_samples("random", 32, 9, seed=7), 3.0, 7,
         "5e7167fc82153e8500980c187fb1696761af98df04cba487c7fbb22741fad868"),
        # dt = 1/6 is not a binary fraction
        ("two_plateau", two_plateau(0.0, 1.0), initial_samples("cos_xy", 24, 7), 1.0, 7,
         "ec794e12e0e1d2f365af751cc2bbd33f3aaa7da3307a8cc9b18a962c8796decf"),
    ])
    def test_decay_csv(self, tmp_path, name, field, u0, t_end, n_samples, digest):
        path = tmp_path / f"{name}.csv"
        path.write_text(relax_trace(u0, field, t_end, n_samples=n_samples,
                                    correlation_grid=64).decay_csv())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_strip_trace(self):
        nu0 = 1.0 + np.random.default_rng(5).uniform(size=(32, 9))
        trace = strip_trace(nu0, two_plateau(0.0, 1.0), (0.25, 0.75), 0.5, n_samples=6)
        got = _sha256(trace.times, trace.sup_norms, trace.mass, trace.floor_margin,
                      np.float64(trace.kappa0))
        assert got == "aee4f159b2bc76fb737e1295cdade9b3a8a26ad6c3a113cf32846432edcfab98"

    def test_cli_snapshots(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "task": "evolve", "seed": 3,
            "velocity": {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5],
                         "values": [0.0, 1.0]},
            "params": {"t_end": 2.0, "samples": 5, "nx": 32, "ny": 9, "initial": "random",
                       "snapshots": 3},
        }))
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert [a["name"] for a in artifacts] == [
            "decay.csv", "field-000.f64", "field-000.f64.json", "field-001.f64",
            "field-001.f64.json", "field-002.f64", "field-002.f64.json"]
        blob = json.dumps(artifacts, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "1883f3ced2287342b1209b2909a39d8b2e87bb4370846fc05b80c957e3093054")

    def test_transform_round_trip(self):
        u0 = np.random.default_rng(17).normal(size=(20, 11))
        fld = field_from_samples(u0, k_max=4)
        got = _sha256(fld.coeffs, field_to_samples(fld, 11), field_to_samples(fld, 13))
        assert got == "304c21f3e58230553dd7fb1e638d1050ea6fc873c925a7e40be6086c8e75d9a1"

    def test_conjugate_symmetry_defect(self):
        rng = np.random.default_rng(19)
        fld = ModeField(rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10)), 3)
        assert fld.conjugate_symmetry_defect() == 4.408546073271454
        assert ModeField(np.ones((1, 10)), 0).conjugate_symmetry_defect() == 0.0
