"""Samples, one-dimensional density families and Hellinger geometry.

Densities are immutable value objects evaluating a nonnegative density with
respect to a declared dominating measure (Lebesgue unless stated otherwise).
Parameter rules, for these and every other public value object, live in
:mod:`rhoest.errors`.
The Hellinger machinery prefers closed forms for recognized pairs and falls
back to adaptive quadrature of the affinity integral.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (Checked, ContractViolationError, _array, _count, _each, _finite,
                     _grid, _index, _instance, _items, _number, _of, _scale, _vector,
                     _weights)
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate_1d

__all__ = [
    "Sample",
    "Density1D",
    "Gaussian",
    "Cauchy",
    "Laplace",
    "Uniform",
    "Exponential",
    "Histogram",
    "ExpFamily",
    "PathologicalGaussian",
    "Tabulated",
    "ProductDensity",
    "shifted",
    "density_from_json",
    "hellinger_sq",
    "hellinger_affinity",
    "product_hellinger_sq",
]

_INF = float("inf")


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """n independent observations, scalar or (w, y) pairs, immutable."""

    points: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        if self.kind not in ("scalar", "pair"):
            raise ContractViolationError(f"unknown sample kind {self.kind!r}")
        pts = _array("points", self.points, 1 if self.kind == "scalar" else 2)
        if self.kind == "pair" and pts.shape[1] != 2:
            raise ContractViolationError(
                f"points of a pair sample must have shape (n, 2), got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# One-dimensional densities
# ---------------------------------------------------------------------------

class Density1D(Checked):
    """Base class: a nonnegative density on the line.

    Subclasses are frozen dataclasses that provide ``_pdf``, the density's
    formula, a support interval and the interior kink locations used to
    guide quadrature.  ``rules`` maps every parameter, in field order, to
    the rule from :mod:`rhoest.errors` that checks it; ``params``, ``key``,
    ``to_json`` and ``density_from_json`` all read it.  ``location`` names
    the parameters a translation moves, and ``_check`` tests the conditions
    that tie parameters together.

    ``sample(rng, size)`` draws from exactly the law of ``pdf``, or raises
    :class:`ContractViolationError` for a kind without an exact sampler.

    The ``pdf`` of a kind in ``_STACKABLE`` is elementwise in its parameters
    and points: with float64 arrays as parameters, which broadcast against
    ``x``, each value has the bits of the scalar density's ``pdf`` at its
    point.  (m, 1) parameter columns against n points give an (m, n)
    matrix, and length-m vectors against m points give m values.  So such a
    ``pdf`` never branches in Python on a parameter's value.

    ``pdf`` owns the conversion of the point, so ``_pdf`` holds only the
    formula.  A Python float, QUADPACK's node, goes to ``_pdf`` as it is:
    arithmetic and numpy ufuncs give the same bits on it as on a 0-d array,
    without the cost of building one, and float arithmetic overflows to inf
    with no warning.  Anything else goes as a float64 array under
    ``np.errstate(over="ignore")``: a point or parameter so far out that
    x - loc, a division by the scale or z * z overflows already gets the
    density's limit there, 0.0.  A numpy exp overflows on a float too, so
    the singular Gaussian's spike and the exponential family's exp keep
    their own ``errstate``.
    """

    kind = "abstract"
    location = ()

    def pdf(self, x):
        if type(x) is float:
            return self._pdf(x)
        with np.errstate(over="ignore"):
            return self._pdf(np.asarray(x, dtype=float))

    def _pdf(self, x):
        raise NotImplementedError

    @property
    def support(self):
        return (-_INF, _INF)

    def breakpoints(self):
        return ()

    def params(self) -> dict:
        """The parameters by name, sequences as lists."""
        values = {name: getattr(self, name) for name in self.rules}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    def key(self):
        return (self.kind, tuple(getattr(self, name) for name in self.rules))

    def sample(self, rng, size):
        raise ContractViolationError(f"density kind {self.kind!r} has no exact sampler")

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __eq__(self, other):
        return isinstance(other, Density1D) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


_density = _of(Density1D)  # the rule of a parameter that takes a Density1D


@dataclass(frozen=True, eq=False)
class Gaussian(Density1D):
    mean: float = 0.0
    sd: float = 1.0
    kind = "gaussian"
    rules = {"mean": _finite, "sd": _scale}
    location = ("mean",)

    def _pdf(self, x):
        z = (x - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def sample(self, rng, size):
        return rng.normal(self.mean, self.sd, size)


@dataclass(frozen=True, eq=False)
class Cauchy(Density1D):
    loc: float = 0.0
    scale: float = 1.0
    kind = "cauchy"
    rules = {"loc": _finite, "scale": _scale}
    location = ("loc",)

    def _pdf(self, x):
        z = (x - self.loc) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + z * z))

    def sample(self, rng, size):
        return self.loc + self.scale * rng.standard_cauchy(size)


@dataclass(frozen=True, eq=False)
class Laplace(Density1D):
    loc: float = 0.0
    scale: float = 1.0
    kind = "laplace"
    rules = {"loc": _finite, "scale": _scale}
    location = ("loc",)

    def _pdf(self, x):
        return np.exp(-abs(x - self.loc) / self.scale) / (2.0 * self.scale)

    def breakpoints(self):
        return (self.loc,)

    def sample(self, rng, size):
        return rng.laplace(self.loc, self.scale, size)


@dataclass(frozen=True, eq=False)
class Uniform(Density1D):
    a: float = 0.0
    b: float = 1.0
    kind = "uniform"
    rules = {"a": _finite, "b": _finite}
    location = ("a", "b")

    def _check(self):
        if not self.a < self.b:
            raise ContractViolationError("need a < b")
        width = float(self.b) - float(self.a)
        if not (0.0 < width < _INF and 1.0 / width < _INF):
            raise ContractViolationError(
                "b - a and the density 1 / (b - a) must be positive finite floats")

    def _pdf(self, x):
        a, b = np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=float)
        return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)

    @property
    def support(self):
        return (self.a, self.b)

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size)


@dataclass(frozen=True, eq=False)
class Exponential(Density1D):
    rate: float = 1.0
    shift: float = 0.0
    kind = "exponential"
    rules = {"rate": _scale, "shift": _finite}
    location = ("shift",)

    def _pdf(self, x):
        t = x - self.shift
        # exp(-746) is 0.0, so the upper clip changes no value; it only keeps
        # rate * t from overflowing.
        clipped = np.clip(t, 0.0, 746.0 / self.rate)
        return np.where(t >= 0.0, self.rate * np.exp(-self.rate * clipped), 0.0)

    @property
    def support(self):
        return (self.shift, _INF)

    def breakpoints(self):
        return (self.shift,)

    def sample(self, rng, size):
        return self.shift + rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True, eq=False)
class Histogram(Density1D):
    """Piecewise-constant density; heights must integrate to one."""

    breaks: tuple
    heights: tuple
    kind = "histogram"
    rules = {"breaks": _grid, "heights": _weights}
    location = ("breaks",)

    def _check(self):
        breaks, heights = self.breaks, self.heights
        if len(breaks) != len(heights) + 1:
            raise ContractViolationError("need len(breaks) == len(heights) + 1")
        mass = sum(h * (b2 - b1) for h, b1, b2 in zip(heights, breaks[:-1], breaks[1:]))
        if not abs(mass - 1.0) <= 1e-9:
            raise ContractViolationError(f"histogram mass {mass} != 1")

    def _pdf(self, x):
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.heights) - 1)
        vals = np.asarray(self.heights)[idx]
        inside = (x >= self.breaks[0]) & (x <= self.breaks[-1])
        return np.where(inside, vals, 0.0)

    @property
    def support(self):
        return (self.breaks[0], self.breaks[-1])

    def breakpoints(self):
        return self.breaks

    def sample(self, rng, size):
        widths = np.diff(self.breaks)
        masses = np.asarray(self.heights) * widths
        piece = rng.choice(len(masses), size=size, p=masses / masses.sum())
        lo = np.asarray(self.breaks[:-1])[piece]
        return lo + widths[piece] * rng.uniform(0.0, 1.0, size)


# Restricted namespace for exp-family basis expressions like "x" or "x**2".
_BASIS_NS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "abs": np.abs, "sqrt": np.sqrt, "pi": math.pi}
_BASIS_FUNCTIONS = {name for name, value in _BASIS_NS.items() if callable(value)}
_BASIS_VALUES = {"x", *_BASIS_NS.keys() - _BASIS_FUNCTIONS}
# Arithmetic on floats; a number is an int or float constant.
_BASIS_SYNTAX = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add,
                 ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                 ast.UAdd, ast.USub)


def _basis_node_ok(node, called):
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in (_BASIS_FUNCTIONS if node in called else _BASIS_VALUES)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and len(node.args) == 1
                and not node.keywords)
    return isinstance(node, _BASIS_SYNTAX)


def _compile_basis(expr: str):
    """A basis expression as a vectorized function of x.

    Only numbers, ``x``, ``pi``, arithmetic and one-argument calls of the
    functions in ``_BASIS_NS`` are accepted.
    """
    try:
        tree = ast.parse(expr, "<basis>", "eval")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ContractViolationError(f"bad basis {expr!r}: {exc}") from None
    called = {node.func for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not _basis_node_ok(node, called):
            what = ast.unparse(node) or type(node).__name__  # an operator unparses to ""
            raise ContractViolationError(f"{what!r} not allowed in basis {expr!r}")
    code = compile(tree, "<basis>", "eval")
    return lambda x: np.broadcast_to(
        np.asarray(eval(code, {"__builtins__": {}}, {**_BASIS_NS, "x": x}),
                   dtype=float), np.shape(x)).copy()


@dataclass(frozen=True, eq=False)
class ExpFamily(Density1D):
    """exp(sum_j beta_j g_j(x) - log Z) on a finite or infinite interval.

    ``log_norm`` is log Z; builders compute it by quadrature and reject
    coefficient vectors with divergent normalizers.
    """

    basis: tuple           # expression strings in the variable x
    coeffs: tuple
    log_norm: float
    lo: float = -_INF
    hi: float = _INF
    kind = "exp-family"
    rules = {"basis": _items, "coeffs": _vector, "log_norm": _finite,
             "lo": _number, "hi": _number}

    def _check(self):
        if len(self.basis) != len(self.coeffs):
            raise ContractViolationError("basis and coefficients differ in length")
        if not self.lo < self.hi:
            raise ContractViolationError("need lo < hi")
        object.__setattr__(self, "_fns", tuple(_compile_basis(e) for e in self.basis))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.full(x.shape, -self.log_norm)
        for c, fn in zip(self.coeffs, self._fns):
            acc = acc + c * fn(x)
        return acc

    def _pdf(self, x):
        inside = (x >= self.lo) & (x <= self.hi)
        with np.errstate(over="ignore"):
            vals = np.exp(self.log_pdf(x))
        return np.where(inside, vals, 0.0)

    @property
    def support(self):
        return (self.lo, self.hi)


def _spike_log(theta):
    """The singular Gaussian's extra log-density at x == theta > 0,
    (theta^2 / 2) exp(min(theta^2, 700)); +inf from theta of about 188 up.

    In float64 whatever type theta came as, and theta * theta, not theta**2:
    Python's float ** is libm's pow, which is not always correctly rounded,
    and numpy squares an array.
    """
    theta = np.asarray(theta, dtype=float)
    sq = theta * theta
    with np.errstate(over="ignore"):
        return 0.5 * sq * np.exp(np.minimum(sq, 700.0))


@dataclass(frozen=True, eq=False)
class PathologicalGaussian(Density1D):
    """N(theta, 1) with a deliberately singular density version.

    The density w.r.t. the standard-Gaussian base measure carries an extra
    factor exp[(theta^2/2) exp(x^2)] on the single point x == theta (for
    theta > 0).  The point mass is Lebesgue-null, so the probability is still
    N(theta, 1); only likelihood-style computations see the spike, and only
    when evaluated at a floating-point input exactly equal to theta.  Off
    its spike the pdf is ``Gaussian(theta, 1).pdf``, bit for bit.
    """

    theta: float
    kind = "pathological-gaussian"
    rules = {"theta": _finite}

    def _pdf(self, x):
        # exp of a spike overflows from theta of about 2.36, on a float too.
        with np.errstate(over="ignore"):
            z = x - self.theta
            expo = -0.5 * z * z
            spike = (z == 0) & (self.theta > 0)
            if np.any(spike):
                expo = np.where(spike, _spike_log(self.theta), expo)
            return np.exp(expo) / math.sqrt(2.0 * math.pi)

    def sample(self, rng, size):
        return rng.normal(self.theta, 1.0, size)


@dataclass(frozen=True, eq=False)
class Tabulated(Density1D):
    """Piecewise-linear density from (grid, values) tables; the trapezoid
    mass must be one."""

    grid: tuple
    values: tuple
    kind = "tabulated"
    rules = {"grid": _grid, "values": _weights}
    location = ("grid",)

    def _check(self):
        grid, values = self.grid, self.values
        if len(grid) != len(values) or len(grid) < 2:
            raise ContractViolationError("grid and values must match, length >= 2")
        mass = sum(0.5 * (v1 + v2) * (g2 - g1) for v1, v2, g1, g2
                   in zip(values[:-1], values[1:], grid[:-1], grid[1:]))
        if not abs(mass - 1.0) <= 1e-9:
            raise ContractViolationError(f"tabulated mass {mass} != 1")

    def _pdf(self, x):
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    @property
    def support(self):
        return (self.grid[0], self.grid[-1])

    def breakpoints(self):
        return self.grid

    def sample(self, rng, size):
        # A piece drawn by its trapezoid mass, then the root t in [0, 1] of
        # its quadratic CDF, (2 a t + (b - a) t^2) / (a + b) = u, on values
        # a, b scaled to a maximum of 1, so that a * a cannot overflow.  u is
        # in (0, 1], so a piece that starts at 0 never meets 0 / 0.  A width
        # rounded up can carry t = 1 past the piece's end, hence the minimum.
        grid, values = np.asarray(self.grid), np.asarray(self.values)
        widths = np.diff(grid)
        masses = 0.5 * (values[:-1] + values[1:]) * widths
        piece = rng.choice(len(masses), size=size, p=masses / masses.sum())
        u = 1.0 - rng.uniform(0.0, 1.0, size)
        a, b = values[piece], values[piece + 1]
        top = np.maximum(a, b)
        a, b = a / top, b / top
        t = u * (a + b) / (a + np.sqrt((1.0 - u) * a * a + u * b * b))
        return np.minimum(grid[piece] + widths[piece] * t, grid[piece + 1])


_DENSITY_KINDS = {cls.kind: cls for cls in (
    Gaussian, Cauchy, Laplace, Uniform, Exponential, Histogram, ExpFamily,
    PathologicalGaussian, Tabulated)}

# The kinds whose pdf is elementwise in parameters and points (see Density1D).
# Each of their rules is _finite or _scale, which accept an interval of floats
# and refuse NaN, so DensityFamily.iid checks a column by its two ends.
_STACKABLE = frozenset({Gaussian, Cauchy, Laplace, Uniform, Exponential,
                        PathologicalGaussian})


def _stacks(densities):
    """The stackable densities of a list, kind by kind, and the rest.

    Returns ``(stacks, others)``.  ``stacks`` holds an ``(indices, kind,
    columns)`` triple per stackable kind, in order of first appearance: the
    ascending indices of the densities whose class is exactly ``kind``, and
    a float64 vector of their values per parameter, in ``rules`` order.
    ``others`` lists the other indices, objects that are no density
    included.
    """
    groups, others = {}, []
    for i, d in enumerate(densities):
        if type(d) in _STACKABLE:
            groups.setdefault(type(d), []).append(i)
        else:
            others.append(i)
    stacks = [(idx, kind, [np.array([getattr(densities[i], name) for i in idx],
                                    dtype=float) for name in kind.rules])
              for kind, idx in groups.items()]
    return stacks, others


def _stacked(kind, columns):
    """A density of ``kind`` whose parameters, in ``rules`` order, are the
    float64 arrays ``columns``.  The rules ran when the stacked densities
    were built, so they do not run again."""
    stack = object.__new__(kind)
    for name, column in zip(kind.rules, columns):
        object.__setattr__(stack, name, column)
    return stack


def density_from_json(obj: dict) -> Density1D:
    """Inverse of ``Density1D.to_json``: {kind, params} -> instance."""
    try:
        # TypeError here means an unknown or missing parameter, or a spec or
        # params that is not an object.
        return _DENSITY_KINDS[obj["kind"]](**obj["params"])
    except (KeyError, TypeError, ContractViolationError) as exc:
        raise ContractViolationError(f"bad density spec {obj!r}: {exc}") from exc


def shifted(d: Density1D, a: float) -> Density1D:
    """The density of X + a when X has density d: its location parameters
    move by ``a``.  A kind without one cannot be shifted."""
    d, a = _density("d", d), _finite("a", a)
    if a == 0.0:
        return d
    if not d.location:
        raise ContractViolationError(f"cannot shift density of kind {d.kind!r}")
    moved = {}
    for name in d.location:
        v = getattr(d, name)
        moved[name] = tuple(x + a for x in v) if isinstance(v, tuple) else v + a
    return dataclasses.replace(d, **moved)


# ---------------------------------------------------------------------------
# Hellinger distance and affinity
# ---------------------------------------------------------------------------

def integrate_on_supports(fn, over, kinks_of=(), quad=None):
    """Integrate ``fn`` over the common support of the densities in ``over``.

    ``fn`` must vanish off that range, so ``over`` lists the densities whose
    supports bound the integrand's.  The range is split at the breakpoints of
    the densities in ``over`` and ``kinks_of`` that fall inside it.  An empty
    common support gives 0.0 without any quadrature.
    """
    lo = max(d.support[0] for d in over)
    hi = min(d.support[1] for d in over)
    if hi <= lo:
        return 0.0
    kinks = tuple(k for d in (*over, *kinks_of) for k in d.breakpoints())
    return integrate_1d(fn, lo, hi, quad, points=kinks)


def _closed_form_affinity(p, q):
    """rho(p, q) for identical densities and for two Gaussians, two Laplaces or
    two Cauchys; None for any other pair.  None, NaN or inf when a parameter
    is so extreme that the formula under- or overflows."""
    if p.key() == q.key():
        return 1.0
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        # sqrt(2 s1 s2 / (s1^2 + s2^2)) exp(-d^2 / (4 (s1^2 + s2^2))), with the
        # first factor written in t = min/max sd.  Equal sds give a factor of
        # exactly 1.0, so the value is exp(-d^2 / (8 sd^2)) bit for bit.
        t = min(p.sd, q.sd) / max(p.sd, q.sd)
        try:
            s = p.sd**2 + q.sd**2
            return (math.sqrt(2.0 * t / (1.0 + t * t))
                    * math.exp(-((p.mean - q.mean) ** 2) / (4.0 * s)))
        except (OverflowError, ZeroDivisionError):  # an sd or d beyond ~1e154
            return None
    if isinstance(p, Laplace) and isinstance(q, Laplace):
        # Three exponential pieces in a = d / (2 b1), b = d / (2 b2): left of
        # both locations, right of both, and between them, which is
        # sqrt(ab) e^-min(a, b) (1 - e^-delta) / delta with delta = |a - b|.
        t = min(p.scale, q.scale) / max(p.scale, q.scale)
        d = abs(p.loc - q.loc)
        a, b = d / (2.0 * p.scale), d / (2.0 * q.scale)
        delta = abs(a - b)
        between = (math.sqrt(a) * math.sqrt(b) * math.exp(-min(a, b))
                   * (-math.expm1(-delta) / delta if delta > 0.0 else 1.0))
        return math.sqrt(t) / (1.0 + t) * (math.exp(-a) + math.exp(-b)) + between
    if isinstance(p, Cauchy) and isinstance(q, Cauchy):
        # (2 / pi) c K(m) = c / AGM(1, c), where c^2 = 1 - m = 4 b1 b2 /
        # ((b1 + b2)^2 + d^2); c is never squared, so it may be subnormal.
        c = (2.0 * math.sqrt(p.scale) * math.sqrt(q.scale)
             / math.hypot(p.scale + q.scale, p.loc - q.loc))
        a, b = 1.0, c
        for _ in range(16):  # 13 steps converge for every float c in (0, 1]
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        return c / (0.5 * (a + b))
    return None


def hellinger_affinity(p, q, quad=None, method="auto"):
    """rho(p, q) = integral of sqrt(p q) dx; equals 1 - h^2.

    ``method="auto"`` uses a closed form for identical densities and for
    pairs of Gaussians, of Laplaces or of Cauchys, and integrates every other
    pair, and any pair whose closed form is not finite, against Lebesgue
    measure on their common support; ``method="quadrature"`` always
    integrates.
    """
    _density("p", p)
    _density("q", q)
    quad = _instance("quad", quad, QuadratureSpec, DEFAULT_QUAD)
    if method not in ("auto", "quadrature"):
        raise ContractViolationError(f"unknown method {method!r}")
    rho = _closed_form_affinity(p, q) if method == "auto" else None
    if rho is not None and math.isfinite(rho):
        return min(rho, 1.0)
    rho = integrate_on_supports(lambda x: np.sqrt(p.pdf(x) * q.pdf(x)), (p, q),
                                quad=quad)
    return min(max(rho, 0.0), 1.0)


def hellinger_sq(p, q, quad=None, method="auto"):
    """Squared Hellinger distance h^2(p, q) = 1 - rho(p, q), in [0, 1]."""
    return 1.0 - hellinger_affinity(p, q, quad=quad, method=method)


# ---------------------------------------------------------------------------
# Product densities
# ---------------------------------------------------------------------------

class ProductDensity(Checked):
    """n-coordinate product density of :class:`Density1D` coordinates;
    i.i.d. shorthand stores one marginal."""

    rules = {"n": _count}

    def __init__(self, coords=None, *, iid=None, n=None):
        if iid is not None and coords is not None:
            raise ContractViolationError("pass either coords or iid, not both")
        self.marginal = iid if iid is None else _density("iid", iid)
        self.coords = None if iid is not None else _each("coords", coords, _density)
        self.n = n if iid is not None else len(self.coords)
        self.__post_init__()

    @property
    def is_iid(self):
        return self.marginal is not None

    def coordinate(self, i) -> Density1D:
        i = _index("i", i, self.n)
        return self.marginal if self.is_iid else self.coords[i]

    def coord_values(self, sample: Sample) -> np.ndarray:
        """Per-coordinate density values at the sample points."""
        if sample.kind != "scalar" or sample.n != self.n:
            raise ContractViolationError(
                f"product density needs a scalar sample of n={self.n}, "
                f"got a {sample.kind} sample of n={sample.n}")
        if self.is_iid:
            return np.asarray(self.marginal.pdf(sample.points), dtype=float)
        # One pdf call per stackable kind, elementwise on its coordinates'
        # points; one call per coordinate for the other kinds.
        values = np.empty(self.n)
        stacks, others = _stacks(self.coords)
        for idx, kind, columns in stacks:
            values[idx] = _stacked(kind, columns).pdf(sample.points[idx])
        for i in others:
            values[i] = np.asarray(self.coords[i].pdf(sample.points[i:i + 1]))[0]
        return values

    def key(self):
        if self.is_iid:
            return ("iid", self.n, self.marginal.key())
        return ("coords", tuple(c.key() for c in self.coords))

    def __repr__(self):
        if self.is_iid:
            return f"ProductDensity(iid={self.marginal!r}, n={self.n})"
        return f"ProductDensity(coords={self.coords!r})"


def product_hellinger_sq(P: ProductDensity, Q: ProductDensity, quad=None):
    """Sum of coordinate h^2; n * h^2 for a pair of i.i.d. products."""
    _instance("P", P, ProductDensity)
    _instance("Q", Q, ProductDensity)
    if P.n != Q.n:
        raise ContractViolationError(f"coordinate counts differ: {P.n} != {Q.n}")
    if P.is_iid and Q.is_iid:
        return P.n * hellinger_sq(P.marginal, Q.marginal, quad)
    return float(sum(hellinger_sq(P.coordinate(i), Q.coordinate(i), quad)
                     for i in range(P.n)))
