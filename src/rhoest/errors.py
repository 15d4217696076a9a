"""Exception hierarchy, and the input rules of public value objects and arguments.

A rule takes a parameter's name and the value passed, and returns the value
to store or raises :class:`ContractViolationError` naming the parameter.  A
scalar is stored as a Python ``int`` or ``float``: a numpy integer as an int,
a numpy float as a float, and an int stays an int, so ``to_json`` keeps ``0``
as ``0`` and a numpy scalar stores, hashes and computes as the Python number
of its value.
"""

import itertools
import sys

import numpy as np


class RhoestError(Exception):
    """Base class for all package errors."""


class ContractViolationError(RhoestError, ValueError):
    """An input violates a documented precondition or invariant."""


class QuadratureError(RhoestError, ArithmeticError):
    """Numerical integration failed to reach the requested tolerance."""


class DegenerateCandidatesError(RhoestError, ValueError):
    """Candidate densities are numerically linearly dependent."""


class ConfigError(RhoestError, ValueError):
    """A configuration file or CLI argument could not be interpreted."""


class SolverError(RhoestError, ArithmeticError):
    """An iterative solver met a non-finite value or failed to converge."""


class Checked:
    """Base of the public value objects.  ``rules`` maps parameters, in field
    order, to their rules; ``_check`` tests the conditions that tie them
    together.  Both run once, when an object is built."""

    rules = {}

    def __post_init__(self):
        for name, rule in self.rules.items():
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        self._check()

    def _check(self):
        pass


_REAL = (int, float, np.integer, np.floating)
_BOOLS = frozenset((bool, np.bool_))


def _plain(v):
    """A real number as a Python int or float."""
    if isinstance(v, np.floating):
        return float(v)
    return int(v) if isinstance(v, np.integer) else v


def _overflows(v):
    """Is v an int too large for a float?  (Exact; no OverflowError.)"""
    return isinstance(v, int) and not abs(v) <= sys.float_info.max


def _shown(v):
    """``repr(v)``, or for an int too large for a float its bit length: an
    int of more than 4300 digits has no ``repr``."""
    if _overflows(v):
        sign = "a negative" if v < 0 else "an"
        return f"{sign} int of {v.bit_length()} bits, too large for a float"
    return repr(v)


def _number(name, v):
    """A real number other than NaN; infinities pass, a bool and an int too
    large for a float do not."""
    if isinstance(v, bool) or not isinstance(v, _REAL) or v != v or _overflows(v):
        raise ContractViolationError(f"{name} must be a number, got {_shown(v)}")
    return _plain(v)


def _finite(name, v):
    """A number that is a finite float, or an int that converts to one."""
    v = _number(name, v)
    if not abs(v) <= sys.float_info.max:
        raise ContractViolationError(f"{name} must be finite, got {_shown(v)}")
    return v


def _scale(name, v):
    v = _finite(name, v)
    if not v > 0:
        raise ContractViolationError(f"{name} must be positive and finite, got {_shown(v)}")
    return v


def _nonnegative(name, v):
    """A number >= 0; infinity passes, NaN, a bool and an int too large for a
    float do not."""
    if isinstance(v, bool) or not isinstance(v, _REAL) or not v >= 0 or _overflows(v):
        raise ContractViolationError(f"{name} must be a nonnegative number, got {_shown(v)}")
    return _plain(v)


def _integer(name, v):
    """Any integer, as an int; a bool or a float is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ContractViolationError(f"{name} must be an integer, got {_shown(v)}")
    return int(v)


def _count(name, v, least=1):
    """An integer >= ``least``, as an int; a bool or a float is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise ContractViolationError(f"{name} must be an integer >= {least}, got {_shown(v)}")
    return int(v)


def _instance(name, v, cls, default=None):
    """The rule of an object argument: ``v`` if it is a ``cls``, ``default``
    for None where the parameter has one; anything else, 0 or "" too, fails."""
    if isinstance(v, cls):
        return v
    if v is None and default is not None:
        return default
    raise ContractViolationError(f"{name} must be a {cls.__name__}, got {type(v).__name__}")


def _callable(name, v):
    """The rule of a function argument: anything callable."""
    if not callable(v):
        raise ContractViolationError(f"{name} must be callable, got {type(v).__name__}")
    return v


def _of(cls):
    """The rule of an argument that must be a ``cls``, as :func:`_instance`."""
    return lambda name, v: _instance(name, v, cls)


def _items(name, v):
    """Any iterable but a string, as a tuple."""
    if isinstance(v, str) or not hasattr(v, "__iter__"):
        raise ContractViolationError(f"{name} must be a list, got {_shown(v)}")
    return tuple(v)


def _each(name, v, rule, least=0):
    """Any iterable but a string of at least ``least`` items, as a tuple of
    ``rule(name, item)``; only when an item fails does the rule run again,
    item by item, so that the message names the first bad one ``name[i]``."""
    v = _items(name, v)
    if len(v) < least:
        raise ContractViolationError(f"{name} must hold >= {least} items, got {len(v)}")
    try:
        return tuple(rule(name, x) for x in v)
    except ContractViolationError:
        for i, x in enumerate(v):
            rule(f"{name}[{i}]", x)
        raise


def _index(name, v, size):
    """An int in ``range(size)``; a bool, a float and a negative int fail."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < size:
        raise ContractViolationError(f"{name} must be an integer in [0, {size}), got {_shown(v)}")
    return int(v)


def _numbers(name, v):
    """A number or an array of numbers, as a float64 array; whatever numpy
    cannot convert fails."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ContractViolationError(
            f"{name} must be a number or an array of numbers, got {type(v).__name__}") from None


def _array(name, v, ndim):
    """A non-empty array of ``ndim`` (1 or 2) axes of finite real numbers, as
    float64: any iterable but a string of which numpy makes such an array.
    Where numpy makes an array of something else, the items run through a
    rule of their own (a number on one axis, a vector of finite numbers on
    two), as in :func:`_each`, so that the message names the first bad item
    ``name[i]``: a bool, a complex number or a string, say.  numpy makes a
    float array of a list that mixes bools with numbers, so such a list is
    scanned for bools, on either axis; an ndarray of a real dtype is not
    scanned.  The first item that holds a NaN or an infinity is named the
    same way."""
    try:
        a = np.asarray(v)
    except ValueError:  # rows of different lengths
        a = None
    if isinstance(v, str) or a is not None and a.ndim == 0:
        raise ContractViolationError(f"{name} must be a list, got {_shown(v)}")
    if a is None or a.dtype.kind not in "iuf" or _holds_bools(v, a, ndim):
        _each(name, v, _number if ndim == 1 else _vector)
    if a is None or a.ndim != ndim or not a.size:
        raise ContractViolationError(
            f"{name} must be a non-empty {ndim}-D array, got "
            + ("rows of different lengths" if a is None else f"shape {a.shape}"))
    a = a.astype(float, copy=False)
    finite = np.isfinite(a)
    if not finite.all():
        i = np.flatnonzero(~finite.reshape(len(a), -1).all(axis=1))[0]
        raise ContractViolationError(f"{name}[{i}] must be finite, got {a[i].tolist()}")
    return a


def _holds_bools(v, a, ndim):
    """Does ``v``, of which numpy made the real array ``a``, hold a bool?
    An ndarray holds none; a list of ``ndim`` axes is scanned."""
    if isinstance(v, np.ndarray) or a.ndim != ndim:
        return False
    items = v if ndim == 1 else itertools.chain.from_iterable(v)
    return bool(_BOOLS & set(map(type, items)))


def _vector(name, v):
    """A sequence of finite numbers, as a tuple of floats."""
    return tuple(float(_finite(name, x)) for x in _items(name, v))


def _weights(name, v):
    return tuple(_nonnegative(name, x) for x in _vector(name, v))


def _grid(name, v):
    g = _vector(name, v)
    if any(b <= a for a, b in zip(g, g[1:])):
        raise ContractViolationError(f"{name} must be finite and strictly increasing")
    return g
