"""The refusal contract of the public entry points.

An entry point refuses an argument that it cannot use before any work, with a
ValueError whose message starts with the parameter's name, so that no bad
argument turns into a number, a hang or an error from inside numpy.  Each
check runs once per call, outside every loop.

An array argument goes through `finite_array`, which knows two kinds of
input.  A numeric ndarray (dtype kind f, i or u) cannot hold a string or a
boolean, so it is checked whole with np.isfinite.  Any other input, a list,
a tuple, a scalar or an ndarray of another dtype, is first read value by
value with `finite`: numpy's promotion turns [0.0, True] or ["1", 2.0] into
floats before a test of the whole array could see them.
"""

import math
import numbers
import sys

import numpy as np


def finite(value):
    """Whether `value` is a finite real number: not a bool, nor an int past the floats."""
    if isinstance(value, numbers.Integral):  # a Python int compares exactly
        return not isinstance(value, bool) and -sys.float_info.max <= value <= sys.float_info.max
    # math.isfinite reads a numpy float32 as the float it is, with no cast of the bound
    return isinstance(value, numbers.Real) and math.isfinite(value)


def number(value, name):
    """`value` as a float, if a finite number."""
    if not finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def finite_array(values, name):
    """`values` as a new float64 array, if each of its entries is a finite number."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for value in np.ravel(np.array(values, dtype=object)):
            if not finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    out = np.array(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite, got {out[~np.isfinite(out)][0]}")
    return out


def positive(value, name, strict=True):
    """`value`, if a finite number above 0 (at least 0 when not strict)."""
    number(value, name)
    if value < 0 or (strict and value == 0):
        raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'}, got {value}")
    return value


def count(value, name, least=-math.inf):
    """`value` as an int, if an integer (not a bool) of at least `least`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def interval(value, name, a=-math.inf, b=math.inf):
    """`value` as floats (lo, hi), if finite with a <= lo < hi <= b."""
    lo, hi = value
    if not (finite(lo) and finite(hi) and lo < hi):
        raise ValueError(f"{name} must be increasing and finite, got {value!r}")
    if lo < a or hi > b:
        raise ValueError(f"{name} must lie in [{a:g}, {b:g}], got {value!r}")
    return float(lo), float(hi)


def torus_field(field, name):
    """`field`, if a velocity field on the unit torus."""
    if not field.periodic:
        raise ValueError(f"{name} must be a torus velocity field")
    return field


def seed(value, name="seed"):
    """`value` as an int, if in [0, 2**64): one word of a Philox key."""
    number = count(value, name, 0)
    if number >> 64:
        raise ValueError(f"{name} must be below 2**64, got {number}")
    return number
