"""The refusal contract: a bad argument is refused by name, never turned into a number.

One table of (entry point, parameter, call, probed values, more bad values).
Every probed value, and one value drawn from the row's strategy, must raise a
ValueError or TypeError whose message starts with the parameter's name.  A
returned value fails the row, and so does a call that runs past a one-second
alarm, so that a regression to a hang fails instead of stalling the suite.
Every test here runs with warnings as errors, so a refusal that goes through
a numpy warning (a cast that overflows, a NaN in a comparison) fails too.
The drawn values are NaN and infinities, integers beyond the largest float,
numbers out of range, reversed, empty or too long intervals, non-integral
floats and booleans where a count belongs, unknown criterion ids, too few
velocity samples, velocity fields off the unit torus where a torus field
belongs, breakpoints and knots out of order, and names that are unknown or
not strings (a list, an array of names, None).  Every array row probes a
string, a boolean, a list mixing a boolean with numbers and a NaN or an
infinity: an array argument goes through `_checks.finite_array`, whose own
contract is tested at the end.  Every row of a pair that a caller passes
whole probes the values in NOT_A_PAIR, and every point set or window that
must lie in a domain has a row in OUTSIDE, whose values are a DomainError;
a test reads the `_checks.interval` and `_checks.inside` calls of the
package and finds the row of each.
"""

import ast
import math
import pathlib
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shearmix
from shearmix import (_checks, evolve, functionals, kernels, mcsim, spectral, validation,
                      velocity)
from shearmix.velocity import (BinaryCascadeField, GridField, HeavisideField,
                               PiecewiseConstantField, PiecewiseLinearField, SawtoothField,
                               SineField, estimate_flatness_constant, field_from_config,
                               two_plateau)

# warnings are errors, except the DeprecationWarning that libcst's import emits when
# hypothesis reports a failure: raised in that report hook, it would end the session
pytestmark = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

NAN, INF = math.nan, math.inf
NONFINITE = st.sampled_from([NAN, INF, -INF])
# an array entry that is not a finite number: numpy would convert the others
NOT_AN_ENTRY = NONFINITE | st.booleans() | st.text(max_size=4)
# integers that no float holds
BEYOND_FLOATS = st.integers(min_value=2**1024) | st.integers(max_value=-2**1024)
# a number that is not a finite positive one
NOT_POSITIVE = NONFINITE | st.floats(max_value=0.0, allow_nan=False)
# a count that is not an integer: a non-integral float, a boolean or no number
NOT_INTEGER = (st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: not v.is_integer()) | st.booleans() | NONFINITE)


def below(least):
    return st.integers(max_value=least - 1)


def not_increasing(lo=-1.0, hi=1.0):
    """Pairs inside [lo, hi] that are reversed, empty or hold a NaN or an infinity."""
    finite = st.floats(lo, hi)
    reversed_or_empty = st.tuples(finite, finite).map(lambda p: (max(p), min(p)))
    return reversed_or_empty | st.tuples(finite, NONFINITE) | st.tuples(NONFINITE, finite)


FIELD = two_plateau()
PV = FIELD.primitive()
# a field, and its primitive, on the interval [0, 2]
FIELD_02 = GridField([0.0, 1.0, 3.0], domain=[0.0, 2.0])
OP = spectral.make_operator(FIELD, 1, n=16)
U0 = evolve.initial_samples("cos_y", 16, 5)
KERNEL = np.array([[0.75, 0.25], [0.25, 0.75]])
# velocity fields on an interval, where a field on the unit torus belongs
OFF_TORUS = [PiecewiseLinearField([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], domain=(0.0, 2.0)),
             PiecewiseLinearField([0.0, 8.0], [1.0, -1.0], domain=(0.0, 8.0)),
             GridField([0.0, 1.0], domain=(0.0, 0.5))]


def path_config(**bad):
    return mcsim.PathConfig(**dict(dict(dt=0.1, n_paths=10, t_end=1.0), **bad))


def with_entry(samples, value):
    """`samples` as nested lists, with `value` in place of the first entry."""
    rows = samples.tolist()
    rows[0][0] = value
    return rows


# a name that is not a string: each must be refused by name, not hashed or compared elementwise
NOT_A_NAME = st.sampled_from([None, 1, ["periodic"], np.array(["periodic", "dirichlet"])])
# a second point of [0, 1] that does not lie strictly between 0 and 1
OFF_UNIT = st.floats(-10.0, 10.0).filter(lambda v: not 0.0 < v < 1.0)


# values that are no (lo, hi) pair: a scalar, a triple, a mapping, a set and a string;
# the rows hold these very objects, which the call-site test looks for
NOT_A_PAIR = [5, (0.0, 0.5, 1.0), {0.0: 1.0, 1.0: 2.0}, {0.0, 1.0}, "tor"]
# windows with a NaN, reversed, empty, or with a string or a boolean end
BAD_WINDOWS = [(NAN, 0.5), (0.8, 0.2), (0.2, 0.2), ("0.1", 0.5), (True, 0.5)]


def kolmogorov_state(**bad):
    return kernels.KolmogorovState(**dict(dict(x0=0.0, y0=0.0, x=1.0, y=0.0, t=1.0), **bad))


# (entry point, parameter, call with the bad value, probed values, more bad values); an
# entry point's label carries a qualifier where it has two rows for one parameter
ROWS = [
    ("PathConfig", "dt", lambda v: path_config(dt=v), [NAN], NOT_POSITIVE),
    ("PathConfig", "t_end", lambda v: path_config(t_end=v), [INF], NOT_POSITIVE),
    ("PathConfig", "n_paths", lambda v: path_config(n_paths=v), [2.5, True],
     NOT_INTEGER | below(1)),
    ("PathConfig", "bins", lambda v: path_config(bins=v), [2.5], NOT_INTEGER | below(1)),
    ("PathConfig", "workers", lambda v: path_config(workers=v), [1.5], NOT_INTEGER | below(1)),
    ("PathConfig", "seed", lambda v: path_config(seed=v), [-1, 2**64],
     below(0) | st.integers(min_value=2**64) | NOT_INTEGER),
    ("ModeOperator.propagator", "dt", lambda v: OP.propagator(v), [10**400, -10**400],
     BEYOND_FLOATS | NOT_POSITIVE),
    ("heat_line", "t", lambda v: kernels.heat_line(0.1, v), [NAN, INF], NOT_POSITIVE),
    ("heat_line", "x", lambda v: kernels.heat_line([0.0, v], 0.1), [NAN, "0.5", True],
     NONFINITE),
    ("heat_torus", "x", lambda v: kernels.heat_torus(v, 0.0, 0.1),
     [NAN, "0.1", ["0.1"], True, [0.1, True]], NONFINITE),
    ("heat_torus", "xp", lambda v: kernels.heat_torus(0.1, v, 0.1),
     [INF, "0.1", True, [0.1, True]], NONFINITE),
    ("heat_torus_cell_mass", "x0", lambda v: kernels.heat_torus_cell_mass(v, 0.0, 0.5, 0.1),
     [NAN], NONFINITE),
    ("heat_torus_cell_mass", "cell", lambda v: kernels.heat_torus_cell_mass(0.5, *v, 0.1),
     [(0.5, 0.2), (0.1, 2.5), (NAN, 0.5)],
     not_increasing() | st.tuples(st.floats(-1.0, 1.0), st.floats(1.01, 3.0)).map(
         lambda p: (p[0], p[0] + p[1]))),
    ("heat_dirichlet", "x", lambda v: kernels.heat_dirichlet(v, 0.5, (0.0, 1.0), 0.1),
     [NAN, "0.3", True, [0.3, True], 1.5], NONFINITE),
    ("heat_dirichlet", "xp", lambda v: kernels.heat_dirichlet(0.5, [0.2, v], (0.0, 1.0), 0.1),
     [NAN, "0.5", True, -0.5], NONFINITE),
    ("heat_torus", "t", lambda v: kernels.heat_torus(0.1, 0.0, v), [NAN, INF], NOT_POSITIVE),
    ("heat_torus_cell_mass", "t", lambda v: kernels.heat_torus_cell_mass(0.1, 0.0, 0.5, v),
     [NAN, INF], NOT_POSITIVE),
    ("heat_dirichlet", "t", lambda v: kernels.heat_dirichlet(0.3, 0.5, (0.0, 1.0), v),
     [NAN, INF], NOT_POSITIVE),
    ("kolmogorov_kernel", "t", lambda v: kernels.kolmogorov_kernel(v, 0.1, 0.2), [NAN, INF],
     NOT_POSITIVE),
    ("kolmogorov_cost", "t", lambda v: kernels.kolmogorov_cost(v, 0.1, 0.2), [NAN, 0.0],
     NOT_POSITIVE),
    ("kolmogorov_cost", "x", lambda v: kernels.kolmogorov_cost(1.0, v, 0.2),
     [NAN, "0.1", True, [0.1, True]], NOT_AN_ENTRY),
    ("kolmogorov_cost", "y", lambda v: kernels.kolmogorov_cost(1.0, 0.1, [0.2, v]),
     [INF, "0.2", True], NOT_AN_ENTRY),
    ("kolmogorov_cost", "x0", lambda v: kernels.kolmogorov_cost(1.0, 0.1, 0.2, x0=v),
     [NAN, "1", True, [0.1, True]], NOT_AN_ENTRY),
    ("kolmogorov_cost", "y0", lambda v: kernels.kolmogorov_cost(1.0, 0.1, 0.2, y0=v),
     [-INF, "0", False], NOT_AN_ENTRY),
    ("kolmogorov_kernel", "x", lambda v: kernels.kolmogorov_kernel(1.0, [0.1, v], 0.2),
     [NAN, "0.1", True], NOT_AN_ENTRY),
    ("kolmogorov_kernel", "y0", lambda v: kernels.kolmogorov_kernel(1.0, 0.1, 0.2, y0=v),
     [NAN, "0", True], NOT_AN_ENTRY),
    ("semigroup_norm", "times", lambda v: spectral.semigroup_norm(OP, [0.5, v]),
     [NAN, "0.5", True], NONFINITE | st.floats(max_value=-1e-300, allow_nan=False)),
    ("relax_trace", "t_end", lambda v: evolve.relax_trace(U0, FIELD, v, n_samples=3), [NAN],
     NOT_POSITIVE),
    ("relax_trace", "n_samples", lambda v: evolve.relax_trace(U0, FIELD, 1.0, n_samples=v),
     [2.5], NOT_INTEGER | below(1)),
    ("relax_trace", "field_v", lambda v: evolve.relax_trace(U0, v, 1.0, n_samples=3),
     OFF_TORUS[:2], st.sampled_from(OFF_TORUS)),
    ("simulate", "field", lambda v: mcsim.simulate((0.5, 0.5), v, path_config()),
     OFF_TORUS[:1], st.sampled_from(OFF_TORUS)),
    # every start is one (x, y) pair: all of a start enters its stream key
    ("simulate", "starts", lambda v: mcsim.simulate(v, FIELD, path_config()),
     [(0.1, 0.2, 0.3), (0.1,), (NAN, 0.5), ("0.1", 0.5), (True, 0.5), 0.5],
     st.tuples(NOT_AN_ENTRY, st.floats(0.0, 1.0))
     | st.lists(st.floats(0.0, 1.0), max_size=5).filter(lambda p: len(p) != 2)),
    ("tv_decay", "times",
     lambda v: mcsim.tv_decay(FIELD, (0.1, 0.2), (0.3, 0.4), [0.5, v], path_config()),
     [NAN, "0.5", True], NOT_AN_ENTRY),
    ("field_from_samples", "u0", lambda v: evolve.field_from_samples(with_entry(U0, v)),
     [NAN, "0.5", True], NOT_AN_ENTRY),
    ("relax_trace", "u0",
     lambda v: evolve.relax_trace(with_entry(U0, v), FIELD, 1.0, n_samples=3),
     [NAN, "0.5", True], NOT_AN_ENTRY),
    ("strip_trace", "nu0",
     lambda v: evolve.strip_trace(with_entry(U0, v), FIELD, (0.0, 1.0), 1.0, n_samples=3),
     [NAN, "0.5", True], NOT_AN_ENTRY),
    ("make_operator", "interval",
     lambda v: spectral.make_operator(FIELD, 1, boundary="dirichlet", interval=v, n=16),
     [(0.7, 0.2), *NOT_A_PAIR], not_increasing(0.0, 1.0)),
    ("make_operator", "n",
     lambda v: spectral.make_operator(SawtoothField(1.0), 1, n=v, discretization="fd2"),
     [16.5], NOT_INTEGER | below(16)),
    ("ModeOperator", "k",
     lambda v: spectral.ModeOperator("periodic", (0.0, 1.0), np.zeros(16), v), [1.5],
     NOT_INTEGER),
    ("ModeOperator", "v_samples", lambda v: spectral.ModeOperator("periodic", (0.0, 1.0), v, 1),
     [[NAN] * 16, ["1"] * 16, [0.0] * 15 + [True], np.zeros(8), 0.5,
      [0.0] * 15 + [np.float32(NAN)]],
     st.lists(st.floats(-1.0, 1.0), max_size=15)
     | st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=40), NONFINITE).map(
         lambda p: [*p[0], p[1]])),
    ("resolvent_gap", "s_points", lambda v: spectral.resolvent_gap(OP, s_points=v), [64.5],
     NOT_INTEGER | below(64)),
    ("compute_bounds_report", "field",
     lambda v: functionals.compute_bounds_report(v, grid_n=16), OFF_TORUS[:1],
     st.sampled_from(OFF_TORUS)),
    ("compute_bounds_report", "j_points",
     lambda v: functionals.compute_bounds_report(FIELD, grid_n=16, j_points=v), [2.5],
     NOT_INTEGER | below(2)),
    ("compute_bounds_report", "flatness_interval",
     lambda v: functionals.compute_bounds_report(FIELD, grid_n=16, flatness_interval=v),
     [(0.6, 0.4), (0.5, 0.5), (0.5, 1.5), *NOT_A_PAIR], not_increasing(0.0, 1.0)),
    ("compute_bounds_report", "eps_grid",
     lambda v: functionals.compute_bounds_report(FIELD, grid_n=16, eps_grid=[0.1, v]),
     [NAN, 0.6, "0.1", True, np.float32(NAN)],
     NOT_POSITIVE | st.floats(min_value=0.5, exclude_min=True)),
    ("lipschitz_correlation", "interval",
     lambda v: functionals.lipschitz_correlation(FIELD, "dirichlet", v, grid_n=16),
     [(0.6, 0.2), (NAN, 0.5), *NOT_A_PAIR], not_increasing()),
    ("mixing_rate", "correlation", lambda v: functionals.mixing_rate(v, 1.0), [NAN],
     NONFINITE),
    ("gap_bound_from_correlation", "oscillation",
     lambda v: functionals.gap_bound_from_correlation(1.0, v, 1.0), [NAN], NONFINITE),
    ("gap_bound_from_residual", "residual_eps",
     lambda v: functionals.gap_bound_from_residual(v, 0.1), [NAN], NONFINITE),
    ("initial_samples", "nx", lambda v: evolve.initial_samples("cos_y", v, 5), [16.5],
     NOT_INTEGER | below(16)),
    ("initial_samples", "ny", lambda v: evolve.initial_samples("cos_y", 16, v), [5.5],
     NOT_INTEGER | below(1)),
    ("initial_samples", "seed", lambda v: evolve.initial_samples("random", 16, 5, v),
     [-1, 2**64], NOT_INTEGER),
    ("GridField", "samples", lambda v: GridField([0.0, v, 1.0]), [NAN, INF, "0.5", True],
     NONFINITE),
    ("PiecewiseConstantField", "breakpoints",
     lambda v: PiecewiseConstantField([0.0, v], [0.0, 1.0]), [NAN, "0.5", True], NONFINITE),
    ("PiecewiseConstantField", "values",
     lambda v: PiecewiseConstantField([0.0, 0.5], [v, 1.0]), [NAN, "0.5", True], NONFINITE),
    ("PiecewiseLinearField", "knots", lambda v: PiecewiseLinearField([0.0, v], [0.0, 1.0]),
     [NAN, "0.5", True], NONFINITE),
    ("PiecewiseLinearField", "values", lambda v: PiecewiseLinearField([0.0, 0.5], [v, 1.0]),
     [NAN, "0.5", True], NONFINITE),
    ("VelocityField.__call__", "x", lambda v: FIELD(v), [NAN, "0.5", True, [0.5, True]],
     NOT_AN_ENTRY),
    ("Primitive.__call__", "x", lambda v: FIELD.primitive()(v),
     [NAN, "0.5", True, [0.5, True]], NOT_AN_ENTRY),
    ("SineField", "amplitude", lambda v: SineField(v, 1),
     [NAN, "2", True, "abc", np.float32(NAN)], NONFINITE),
    ("SineField", "phase", lambda v: SineField(1.0, 1, v), [NAN, "0.5", False], NONFINITE),
    ("SineField", "frequency", lambda v: SineField(1.0, v),
     [NAN, INF, "2", True, 1.5, 0, 2**53 + 1],
     NOT_INTEGER | below(1)),
    ("SawtoothField", "amplitude", lambda v: SawtoothField(v), [INF, "3"], NONFINITE),
    ("HeavisideField", "high", lambda v: HeavisideField(v), [NAN, "1.5", True], NONFINITE),
    ("HeavisideField", "low", lambda v: HeavisideField(1.0, v), [NAN, "0"], NONFINITE),
    ("BinaryCascadeField", "tail_tol", lambda v: BinaryCascadeField(1.0, v), [NAN, "1e-15"],
     NONFINITE),
    ("doeblin_iterate", "kernel",
     lambda v: functionals.doeblin_iterate([[0.75, v], [0.25, 0.75]], 1, 0.5, 5),
     [NAN, "0.25", True], NOT_AN_ENTRY),
    ("doeblin_iterate", "horizon", lambda v: functionals.doeblin_iterate(KERNEL, 1, 0.5, v),
     [-1, 2.5], NOT_INTEGER | below(0)),
    ("doeblin_iterate", "alpha_star", lambda v: functionals.doeblin_iterate(KERNEL, 1, v, 5),
     [1.5, 0.0, NAN, "0.5"], NONFINITE | st.floats(min_value=1.0) | st.floats(max_value=0.0)),
    ("doeblin_iterate", "t_star_steps",
     lambda v: functionals.doeblin_iterate(KERNEL, v, 0.5, 5), [0, 1.5], NOT_INTEGER | below(1)),
    ("doeblin_constants", "alpha_star", lambda v: functionals.doeblin_constants(1.0, v),
     [1.0, NAN, "0.5"], NONFINITE | st.floats(min_value=1.0) | st.floats(max_value=0.0)),
    ("run_all", "ids", lambda v: validation.run_all(ids=v),
     [[99], [], [1, 99], [True], [1.0], [1, True], ["1"], 5],
     st.lists(st.integers(max_value=0) | st.integers(min_value=12) | st.booleans()
              | st.floats(), min_size=1)),
    ("run_all", "workers", lambda v: validation.run_all(workers=v), [0, 1.5, True],
     NOT_INTEGER | below(1)),
    ("estimate_flatness_constant", "interval",
     lambda v: estimate_flatness_constant(SineField(), v, [0.05], j_points=9),
     [(0.5, 1.5), (0.6, 0.6), *NOT_A_PAIR], not_increasing(0.0, 1.0)),
    ("estimate_flatness_constant", "eps_grid",
     lambda v: estimate_flatness_constant(SineField(), (0.0, 1.0), [0.05, v], j_points=9),
     [NAN, "0.1", True, 0.0, 1.0], NOT_AN_ENTRY | st.floats(min_value=1.0)),
    *[("KolmogorovState", name, lambda v, name=name: kolmogorov_state(**{name: v}),
       [NAN, INF, True, "1"], NOT_AN_ENTRY) for name in ("x0", "y0", "x", "y")],
    ("plateau_constants", "ell", lambda v: functionals.plateau_constants(v, 1.0),
     ["0.3", True, NAN, 0.75, 0.0], NOT_AN_ENTRY | st.floats(min_value=0.5, exclude_min=True)),
    ("flatness_constants", "length", lambda v: functionals.flatness_constants(v, 1.0, 0.1, 2.0),
     ["0.5", True, NAN, 1.5], NOT_AN_ENTRY | st.floats(min_value=1.0, exclude_min=True)),
    ("flatness_constants", "k_const", lambda v: functionals.flatness_constants(1.0, 1.0, 0.1, v),
     ["2", True, NAN, 0.5], NOT_AN_ENTRY | st.floats(max_value=1.0, exclude_max=True)),
    ("gap_bound_from_correlation", "length",
     lambda v: functionals.gap_bound_from_correlation(1.0, 1.0, v, periodic_improved=True),
     [0.5, 2.0, "1"], st.floats(1e-3, 100.0).filter(lambda v: abs(v - 1.0) > 1e-9)),
    ("simulate", "cfg", lambda v: mcsim.simulate((0.5, 0.5), FIELD, v),
     [path_config(geometry="plane")], st.just(path_config(geometry="plane"))),
    ("arcsine_experiment", "cfg", mcsim.arcsine_experiment, [path_config()],
     st.just(path_config())),
    ("kolmogorov_experiment", "cfg", mcsim.kolmogorov_experiment, [path_config()],
     st.just(path_config())),
    ("doeblin_estimate", "starts",
     lambda v: mcsim.doeblin_estimate(FIELD, 0.5, v, path_config()),
     [[], (), np.zeros((0, 2))], st.sampled_from([[], ()])),
    ("simulate_snapshots", "times",
     lambda v: mcsim.simulate_snapshots((0.5, 0.5), FIELD, path_config(), [0.5, v]),
     [2.0, 1.5], st.floats(1.1, 1e6)),
    ("field_from_samples", "k_max", lambda v: evolve.field_from_samples(U0, k_max=v), [3, 10],
     st.integers(3, 1000)),
    ("ModeField", "coeffs", lambda v: evolve.ModeField(v, 1),
     [np.zeros((2, 4)), np.zeros((4, 4)), np.zeros(3)],
     st.integers(0, 9).filter(lambda r: r != 3).map(lambda r: np.zeros((r, 4)))),
    ("relax_trace", "evolution",
     lambda v: evolve.relax_trace(U0, FIELD, 1.0, n_samples=3, evolution=v),
     [evolve.Evolution(SawtoothField(1.0))], st.just(evolve.Evolution(two_plateau()))),
    ("compute_bounds_report(type)", "field",
     lambda v: functionals.compute_bounds_report(v, grid_n=16), [None, "two_plateau", 1.0],
     st.none() | st.text(max_size=4) | st.floats()),
    ("PiecewiseConstantField(layout)", "breakpoints",
     lambda v: PiecewiseConstantField(v, [0.0, 1.0]),
     [[0.1, 0.5], [0.0, 0.0], [0.0, 1.5], [[0.0, 0.5]]], OFF_UNIT.map(lambda v: [0.0, v])),
    ("PiecewiseConstantField(layout)", "values",
     lambda v: PiecewiseConstantField([0.0, 0.5], v), [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]],
     st.lists(st.floats(-1.0, 1.0), max_size=6).filter(lambda v: len(v) != 2)),
    ("PiecewiseLinearField(layout)", "knots", lambda v: PiecewiseLinearField(v, [0.0, 1.0]),
     [[0.1, 0.5], [0.0, 1.0], [0.5, 0.2], [], [[0.0, 0.5]]], OFF_UNIT.map(lambda v: [0.0, v])),
    ("PiecewiseLinearField(interval)", "knots",
     lambda v: PiecewiseLinearField(v, [0.0, 1.0], domain=(0.0, 2.0)), [[0.0, 1.0], [0.5, 2.0]],
     st.floats(0.01, 1.99).map(lambda v: [0.0, v])),
    ("PiecewiseLinearField(layout)", "values", lambda v: PiecewiseLinearField([0.0, 0.5], v),
     [[1.0], [1.0, 2.0, 3.0]],
     st.lists(st.floats(-1.0, 1.0), max_size=6).filter(lambda v: len(v) != 2)),
    # every named choice: unknown names (no known name is 3 characters or shorter), and
    # values that are no name
    ("make_operator", "boundary",
     lambda v: spectral.make_operator(FIELD, 1, boundary=v, n=16),
     ["neumann", np.array(["periodic", "dirichlet"]), ["periodic"], None, 1],
     NOT_A_NAME | st.text(max_size=3)),
    ("ModeOperator", "discretization",
     lambda v: spectral.ModeOperator("periodic", (0.0, 1.0), np.zeros(16), 1, v),
     ["chebyshev", np.array(["fd2", "spectral"]), ["fd2"], None], NOT_A_NAME),
    ("lipschitz_correlation", "boundary",
     lambda v: functionals.lipschitz_correlation(FIELD, v, grid_n=16),
     ["x", np.array(["periodic", "dirichlet"]), ["periodic"]], NOT_A_NAME),
    ("PathConfig", "y_integrator", lambda v: path_config(y_integrator=v),
     ["midpoint", ["left"], None], NOT_A_NAME | st.text(max_size=3)),
    ("PathConfig", "geometry", lambda v: path_config(geometry=v), ["torus", ["plane"], 2],
     NOT_A_NAME | st.text(max_size=3)),
    ("initial_samples", "initial", lambda v: evolve.initial_samples(v, 16, 5),
     ["bogus", np.array(["cos_y"]), ["cos_y"], None], NOT_A_NAME | st.text(max_size=3)),
    ("field_from_config", "kind", lambda v: field_from_config({"kind": v}),
     ["fourier", ["sine"], None, np.array(["sine"])], NOT_A_NAME | st.text(max_size=3)),
    # every pair: no pair at all, or a pair that is reversed, empty or not finite
    ("VelocityField", "domain", lambda v: GridField([0.0, 1.0], domain=v),
     [*NOT_A_PAIR, (2.0, 0.0), np.array([NAN, 2.0]), np.zeros((2, 2))], not_increasing()),
    ("heat_dirichlet", "interval", lambda v: kernels.heat_dirichlet(0.5, 0.5, v, 0.1),
     [*NOT_A_PAIR, (1.0, 0.0)], not_increasing()),
    ("strip_trace", "interval", lambda v: evolve.strip_trace(U0, FIELD, v, 1.0, n_samples=3),
     [*NOT_A_PAIR, (1.0, 1.0)], not_increasing()),
    ("field_from_samples", "interval", lambda v: evolve.field_from_samples(U0, interval=v),
     [*NOT_A_PAIR, (1.0, 0.0)], not_increasing()),
    ("simulate_starts", "kill_interval",
     lambda v: mcsim.simulate_starts([(0.5, 0.5)], FIELD, path_config(), [1.0], kill_interval=v),
     [*NOT_A_PAIR, (0.8, 0.2)], not_increasing()),
    ("laplace_eigs", "interval", lambda v: spectral.laplace_eigs("dirichlet", v, n=16),
     [*NOT_A_PAIR, (INF, 1.0)], not_increasing()),
    ("ModeOperator", "interval",
     lambda v: spectral.ModeOperator("periodic", v, np.zeros(16), 1), [*NOT_A_PAIR, (0.5, 0.5)],
     not_increasing()),
    ("Primitive.affine_residual", "window", lambda v: PV.affine_residual(*v), BAD_WINDOWS,
     not_increasing(0.0, 1.0)),
    ("Primitive.window_table", "window", lambda v: PV.window_table(*v, 9, 0.0), BAD_WINDOWS,
     not_increasing(0.0, 1.0)),
    ("flatness_constants", "correlation",
     lambda v: functionals.flatness_constants(1.0, 1.0, v, 2.0), ["0.1", True, NAN],
     NOT_AN_ENTRY),
    ("Primitive.window_table", "min_len", lambda v: PV.window_table(0.0, 1.0, 9, v),
     [NAN, -0.1, "0.1", True], NONFINITE | st.floats(max_value=-1e-300, allow_nan=False)),
    ("ModeField", "boundary", lambda v: evolve.ModeField(np.zeros((3, 4)), 1, boundary=v),
     ["bogus", np.array(["periodic", "dirichlet"]), ["periodic"], None],
     NOT_A_NAME | st.text(max_size=3)),
    ("field_from_samples", "boundary", lambda v: evolve.field_from_samples(U0, boundary=v),
     ["bogus", ["periodic"], None], NOT_A_NAME | st.text(max_size=3)),
    ("ModeField", "interval", lambda v: evolve.ModeField(np.zeros((3, 4)), 1, interval=v),
     [*NOT_A_PAIR, (1.0, 0.0)], not_increasing()),
]

# (entry point, parameter, call with the value, values outside the domain, more such
# values): each is a DomainError named for the parameter; the domain is [0, 2] or [0, 1]
OFF_02 = st.floats(2.0 + 1e-9, 1e6) | st.floats(-1e6, -1e-9)
OUTSIDE = [
    ("VelocityField.__call__", "x", FIELD_02, [2.5, -0.1, [1.0, 3.0]], OFF_02),
    ("Primitive.__call__", "x", FIELD_02.primitive(), [2.5, -0.1, [1.0, 3.0]], OFF_02),
    ("heat_dirichlet", "x", lambda v: kernels.heat_dirichlet(v, 0.5, (0.0, 2.0), 0.1),
     [2.5, [0.5, -0.1]], OFF_02),
    ("heat_dirichlet", "xp", lambda v: kernels.heat_dirichlet(0.5, v, (0.0, 2.0), 0.1),
     [-0.1, [0.5, 2.5]], OFF_02),
    ("Primitive.affine_residual", "window", lambda v: PV.affine_residual(*v),
     [(0.5, 1.5), (-0.25, 0.5)], st.floats(1.0 + 1e-9, 5.0).map(lambda v: (0.5, v))),
    ("Primitive.window_table", "window", lambda v: PV.window_table(*v, 9, 0.1),
     [(0.5, 1.5), (-0.25, 0.5)], st.floats(-5.0, -1e-9).map(lambda v: (v, 0.5))),
]


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang("no refusal within one second")


def _refused(call, value):
    """The exception that `call(value)` raises within one second."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises((ValueError, TypeError)) as err:
            call(value)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return err.value


@pytest.mark.parametrize("name,call,probed,more", [row[1:] for row in ROWS],
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_refused_by_name(name, call, probed, more, data):
    for value in [*probed, data.draw(more, label=name)]:
        message = str(_refused(call, value))
        assert message.startswith(f"{name} "), (value, message)


@pytest.mark.parametrize("name,call,probed,more", [row[1:] for row in OUTSIDE],
                         ids=[f"{row[0]}-{row[1]}" for row in OUTSIDE])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_outside_the_domain_is_a_domain_error_by_name(name, call, probed, more, data):
    for value in [*probed, data.draw(more, label=name)]:
        err = _refused(call, value)
        assert isinstance(err, _checks.DomainError), (value, err)
        assert str(err).startswith(f"{name} must lie within ["), (value, str(err))


def test_domain_error_is_one_class():
    assert velocity.DomainError is _checks.DomainError
    assert issubclass(_checks.DomainError, ValueError)


def test_an_array_domain_builds_the_field_of_the_list():
    listed = GridField([0.0, 1.0, 3.0], domain=[0.0, 2.0])
    arrayed = GridField([0.0, 1.0, 3.0], domain=np.array([0.0, 2.0]))
    assert arrayed.to_config() == listed.to_config()
    x = np.linspace(0.0, 2.0, 9)
    assert arrayed(x).tobytes() == listed(x).tobytes()
    assert arrayed.primitive()(x).tobytes() == listed.primitive()(x).tobytes()


class _RangeChecks(ast.NodeVisitor):
    """(rule, entry point, parameter, whole) of each `_checks.interval` and
    `_checks.inside` call: the entry point is the function that holds the call,
    its class for an __init__ or a __post_init__, and `whole` is false when the
    pair is a tuple built at the call, which cannot be anything but a pair."""

    def __init__(self):
        self.scope, self.calls = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "_checks" and func.attr in ("interval", "inside")):
            init = self.scope[-1] in ("__init__", "__post_init__")
            scope = self.scope[:-1] if init else self.scope
            self.calls.append((func.attr, ".".join(scope), node.args[1].value,
                               not isinstance(node.args[0], ast.Tuple)))
        self.generic_visit(node)


def _rows(table, entry, name):
    """The rows of `table` for the parameter `name` of `entry`, whatever their qualifier."""
    return [row for row in table if row[0].split("(")[0] == entry and row[1] == name]


def test_every_range_check_has_its_refusal_rows():
    """A new `_checks.interval` or `_checks.inside` call needs its rows here."""
    finder = _RangeChecks()
    for path in sorted(pathlib.Path(shearmix.__file__).parent.glob("*.py")):
        finder.visit(ast.parse(path.read_text()))
    assert len(finder.calls) > 10
    missing = []
    for rule, entry, name, whole in finder.calls:
        if rule == "inside":
            found = _rows(OUTSIDE, entry, name)
        elif whole:  # the row probes every value of NOT_A_PAIR, the very objects
            found = [row for row in _rows(ROWS, entry, name)
                     if all(any(value is bad for value in row[3]) for bad in NOT_A_PAIR)]
        else:
            found = _rows(ROWS, entry, name)
        if not found:
            missing.append((rule, entry, name))
    assert missing == []


def test_run_all_refuses_workers_before_the_first_criterion():
    lines = []
    with pytest.raises(ValueError, match="^workers "):
        validation.run_all(ids=[1, 8], progress=lines.append, workers=0)
    assert lines == []


@pytest.mark.parametrize("call", [
    lambda v: mcsim.simulate_starts(v, FIELD, path_config(), [0.5]),
    lambda v: _checks.finite_array(v, "starts"),
], ids=["simulate_starts", "finite_array"])
def test_a_ragged_array_is_refused_as_not_rectangular(call):
    # numpy keeps the rows of a ragged input whole: the fault is the shape, not a value
    for ragged in ([(0.1, 0.2), (0.3,)], [[0.1, 0.2], [0.3, 0.4, 0.5]], [0.1, (0.2, 0.3)]):
        with pytest.raises(ValueError, match=r"^starts must be a rectangular array, got the row"):
            call(ragged)


def test_float32_scalars_are_accepted_without_a_warning():
    # comparing a float32 with the float64 maximum would cast the maximum to float32, an overflow
    assert SineField(np.float32(1.0), 1).amplitude == 1.0
    assert kernels.heat_line(np.float32(0.5), 0.1) == kernels.heat_line(0.5, 0.1)


# finite numeric input of the kinds callers pass, 1-D and 2-D: each kind's
# entries, and how a list of them becomes that kind
KINDS = {
    "list": (st.floats(-1e300, 1e300) | st.integers(-2**80, 2**80), list),
    "tuple": (st.floats(-1e300, 1e300) | st.integers(-2**80, 2**80), tuple),
    "int64": (st.integers(-2**63, 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    "float32": (st.floats(width=32, allow_nan=False, allow_infinity=False),
                lambda v: np.array(v, dtype=np.float32)),
    "float64": (st.floats(allow_nan=False, allow_infinity=False), np.array),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)),
       shape=st.sampled_from([(0,), (1,), (7,), (3, 4)]))
def test_finite_array_equals_numpys_conversion(data, kind, shape):
    entries, make = KINDS[kind]
    values = data.draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    if len(shape) == 2:
        values = [make(values[i:i + shape[1]]) for i in range(0, len(values), shape[1])]
    given_ = make(values)
    out = _checks.finite_array(given_, "values")
    reference = np.asarray(given_, dtype=float)
    assert out.dtype == np.float64 and out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()
    assert out is not given_ and not np.shares_memory(out, reference)


def test_mode_operator_reads_no_sample_one_by_one(monkeypatch):
    """A float64 ndarray of samples is checked whole: `finite` sees only the interval's ends."""
    seen = []
    real = _checks.finite
    monkeypatch.setattr(_checks, "finite", lambda value: seen.append(value) or real(value))
    op = spectral.ModeOperator("periodic", (0.0, 1.0), np.linspace(2.0, 3.0, 4096), 1)
    assert op.n == 4096 and seen == [0.0, 1.0]
