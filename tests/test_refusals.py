"""The refusal contract: a bad argument is refused by name, never turned into a number.

One table of (entry point, parameter, call, probed values, more bad values).
Every probed value, and one value drawn from the row's strategy, must raise a
ValueError or TypeError whose message starts with the parameter's name.  A
returned value fails the row, and so does a call that runs past a one-second
alarm, so that a regression to a hang fails instead of stalling the suite.
The drawn values are NaN and infinities, integers beyond the largest float,
numbers out of range, reversed, empty or too long intervals, non-integral
floats and booleans where a count belongs, unknown criterion ids, and
velocity fields off the unit torus where a torus field belongs.
"""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearmix import evolve, functionals, kernels, mcsim, spectral, validation
from shearmix.velocity import (BinaryCascadeField, GridField, HeavisideField,
                               PiecewiseConstantField, PiecewiseLinearField, SawtoothField,
                               SineField, estimate_flatness_constant, two_plateau)

NAN, INF = math.nan, math.inf
NONFINITE = st.sampled_from([NAN, INF, -INF])
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
OP = spectral.make_operator(FIELD, 1, n=16)
U0 = evolve.initial_samples("cos_y", 16, 5)
KERNEL = np.array([[0.75, 0.25], [0.25, 0.75]])
# velocity fields on an interval, where a field on the unit torus belongs
OFF_TORUS = [PiecewiseLinearField([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], domain=(0.0, 2.0)),
             PiecewiseLinearField([0.0, 8.0], [1.0, -1.0], domain=(0.0, 8.0)),
             GridField([0.0, 1.0], domain=(0.0, 0.5))]


def path_config(**bad):
    return mcsim.PathConfig(**dict(dict(dt=0.1, n_paths=10, t_end=1.0), **bad))


# (entry point, parameter, call with the bad value, probed values, more bad values)
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
    ("heat_line", "x", lambda v: kernels.heat_line([0.0, v], 0.1), [NAN], NONFINITE),
    ("heat_torus", "x", lambda v: kernels.heat_torus(v, 0.0, 0.1), [NAN], NONFINITE),
    ("heat_torus", "xp", lambda v: kernels.heat_torus(0.1, v, 0.1), [INF], NONFINITE),
    ("heat_torus_cell_mass", "x0", lambda v: kernels.heat_torus_cell_mass(v, 0.0, 0.5, 0.1),
     [NAN], NONFINITE),
    ("heat_torus_cell_mass", "cell", lambda v: kernels.heat_torus_cell_mass(0.5, *v, 0.1),
     [(0.5, 0.2), (0.1, 2.5), (NAN, 0.5)],
     not_increasing() | st.tuples(st.floats(-1.0, 1.0), st.floats(1.01, 3.0)).map(
         lambda p: (p[0], p[0] + p[1]))),
    ("heat_dirichlet", "x", lambda v: kernels.heat_dirichlet(v, 0.5, (0.0, 1.0), 0.1), [NAN],
     NONFINITE),
    ("heat_dirichlet", "xp", lambda v: kernels.heat_dirichlet(0.5, [0.2, v], (0.0, 1.0), 0.1),
     [NAN], NONFINITE),
    ("heat_torus", "t", lambda v: kernels.heat_torus(0.1, 0.0, v), [NAN, INF], NOT_POSITIVE),
    ("heat_torus_cell_mass", "t", lambda v: kernels.heat_torus_cell_mass(0.1, 0.0, 0.5, v),
     [NAN, INF], NOT_POSITIVE),
    ("heat_dirichlet", "t", lambda v: kernels.heat_dirichlet(0.3, 0.5, (0.0, 1.0), v),
     [NAN, INF], NOT_POSITIVE),
    ("kolmogorov_kernel", "t", lambda v: kernels.kolmogorov_kernel(v, 0.1, 0.2), [NAN, INF],
     NOT_POSITIVE),
    ("kolmogorov_cost", "t", lambda v: kernels.kolmogorov_cost(v, 0.1, 0.2), [NAN, 0.0],
     NOT_POSITIVE),
    ("semigroup_norm", "times", lambda v: spectral.semigroup_norm(OP, [0.5, v]), [NAN],
     NONFINITE | st.floats(max_value=-1e-300, allow_nan=False)),
    ("relax_trace", "t_end", lambda v: evolve.relax_trace(U0, FIELD, v, n_samples=3), [NAN],
     NOT_POSITIVE),
    ("relax_trace", "n_samples", lambda v: evolve.relax_trace(U0, FIELD, 1.0, n_samples=v),
     [2.5], NOT_INTEGER | below(1)),
    ("relax_trace", "field_v", lambda v: evolve.relax_trace(U0, v, 1.0, n_samples=3),
     OFF_TORUS[:2], st.sampled_from(OFF_TORUS)),
    ("simulate", "field", lambda v: mcsim.simulate((0.5, 0.5), v, path_config()),
     OFF_TORUS[:1], st.sampled_from(OFF_TORUS)),
    ("make_operator", "interval",
     lambda v: spectral.make_operator(FIELD, 1, boundary="dirichlet", interval=v, n=16),
     [(0.7, 0.2)], not_increasing(0.0, 1.0)),
    ("make_operator", "n",
     lambda v: spectral.make_operator(SawtoothField(1.0), 1, n=v, discretization="fd2"),
     [16.5], NOT_INTEGER | below(16)),
    ("ModeOperator", "k",
     lambda v: spectral.ModeOperator("periodic", (0.0, 1.0), np.zeros(16), v), [1.5],
     NOT_INTEGER),
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
     [(0.6, 0.4), (0.5, 0.5), (0.5, 1.5)], not_increasing(0.0, 1.0)),
    ("compute_bounds_report", "eps_grid",
     lambda v: functionals.compute_bounds_report(FIELD, grid_n=16, eps_grid=[0.1, v]),
     [NAN, 0.6, "0.1", True], NOT_POSITIVE | st.floats(min_value=0.5, exclude_min=True)),
    ("lipschitz_correlation", "interval",
     lambda v: functionals.lipschitz_correlation(FIELD, "dirichlet", v, grid_n=16),
     [(0.6, 0.2), (NAN, 0.5)], not_increasing()),
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
    ("GridField", "samples", lambda v: GridField([0.0, v, 1.0]), [NAN, INF], NONFINITE),
    ("PiecewiseConstantField", "breakpoints",
     lambda v: PiecewiseConstantField([0.0, v], [0.0, 1.0]), [NAN], NONFINITE),
    ("PiecewiseConstantField", "values",
     lambda v: PiecewiseConstantField([0.0, 0.5], [v, 1.0]), [NAN], NONFINITE),
    ("PiecewiseLinearField", "knots", lambda v: PiecewiseLinearField([0.0, v], [0.0, 1.0]),
     [NAN], NONFINITE),
    ("PiecewiseLinearField", "values", lambda v: PiecewiseLinearField([0.0, 0.5], [v, 1.0]),
     [NAN], NONFINITE),
    ("SineField", "amplitude", lambda v: SineField(v, 1), [NAN, "2", True, "abc"], NONFINITE),
    ("SineField", "phase", lambda v: SineField(1.0, 1, v), [NAN, "0.5", False], NONFINITE),
    ("SineField", "frequency", lambda v: SineField(1.0, v),
     [NAN, INF, "2", True, 1.5, 0, 2**53 + 1],
     NOT_INTEGER | below(1)),
    ("SawtoothField", "amplitude", lambda v: SawtoothField(v), [INF, "3"], NONFINITE),
    ("HeavisideField", "high", lambda v: HeavisideField(v), [NAN, "1.5", True], NONFINITE),
    ("HeavisideField", "low", lambda v: HeavisideField(1.0, v), [NAN, "0"], NONFINITE),
    ("BinaryCascadeField", "tail_tol", lambda v: BinaryCascadeField(1.0, v), [NAN, "1e-15"],
     NONFINITE),
    ("doeblin_iterate", "horizon", lambda v: functionals.doeblin_iterate(KERNEL, 1, 0.5, v),
     [-1, 2.5], NOT_INTEGER | below(0)),
    ("doeblin_iterate", "alpha_star", lambda v: functionals.doeblin_iterate(KERNEL, 1, v, 5),
     [1.5, 0.0, NAN, "0.5"], NONFINITE | st.floats(min_value=1.0) | st.floats(max_value=0.0)),
    ("doeblin_iterate", "t_star_steps",
     lambda v: functionals.doeblin_iterate(KERNEL, v, 0.5, 5), [0, 1.5], NOT_INTEGER | below(1)),
    ("doeblin_constants", "alpha_star", lambda v: functionals.doeblin_constants(1.0, v),
     [1.0, NAN, "0.5"], NONFINITE | st.floats(min_value=1.0) | st.floats(max_value=0.0)),
    ("run_all", "ids", lambda v: validation.run_all(ids=v),
     [[99], [], [1, 99], [True], [1.0], [1, True], ["1"]],
     st.lists(st.integers(max_value=0) | st.integers(min_value=12) | st.booleans()
              | st.floats(), min_size=1)),
    ("run_all", "workers", lambda v: validation.run_all(workers=v), [0, 1.5, True],
     NOT_INTEGER | below(1)),
    ("estimate_flatness_constant", "interval",
     lambda v: estimate_flatness_constant(SineField(), v, [0.05], j_points=9),
     [(0.5, 1.5), (0.6, 0.6)], not_increasing(0.0, 1.0)),
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


def test_run_all_refuses_workers_before_the_first_criterion():
    lines = []
    with pytest.raises(ValueError, match="^workers "):
        validation.run_all(ids=[1, 8], progress=lines.append, workers=0)
    assert lines == []
