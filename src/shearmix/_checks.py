"""The refusal contract of the public entry points.

An entry point refuses an argument that it cannot use before any work, with a
ValueError whose message starts with the parameter's name, so that no bad
argument turns into a number, a hang or an error from inside numpy.  Each
check runs once per call, outside every loop.  Standard library only.
"""

import math
import numbers
import sys


def finite(value):
    """Whether `value` is a finite real number: not a bool, nor an int past the floats."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def number(value, name):
    """`value` as a float, if a finite number."""
    if not finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def finite_all(values, name):
    """`values`, if each of them is a finite number."""
    for value in values:
        if not finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return values


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
