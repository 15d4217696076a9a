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

from .errors import (Checked, ContractViolationError, _count, _finite, _grid,
                     _items, _number, _scale, _vector, _weights)
from .quadrature import integrate_1d

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
        pts = np.asarray(self.points, dtype=float)
        if self.kind == "scalar":
            if pts.ndim != 1:
                raise ContractViolationError("scalar sample must be 1-D")
        elif self.kind == "pair":
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ContractViolationError("pair sample must have shape (n, 2)")
        else:
            raise ContractViolationError(f"unknown sample kind {self.kind!r}")
        if pts.shape[0] < 1:
            raise ContractViolationError("sample must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ContractViolationError("sample points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# One-dimensional densities
# ---------------------------------------------------------------------------

def _float_or_array(x):
    """``x`` itself when it is a float, else ``np.asarray(x, dtype=float)``.

    QUADPACK calls an integrand with one float node at a time.  A pdf made of
    arithmetic and numpy ufuncs gives the same bits on the float as on a 0-d
    array, without the cost of building one.
    """
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


class Density1D(Checked):
    """Base class: a nonnegative density on the line.

    Subclasses are frozen dataclasses that provide ``pdf`` (vectorized), a
    support interval and the interior kink locations used to guide
    quadrature.  ``rules`` maps every parameter, in field order, to the rule
    from :mod:`rhoest.errors` that checks it; ``params``, ``key``,
    ``to_json`` and ``density_from_json`` all read it.  ``location`` names
    the parameters a translation moves, and ``_check`` tests the conditions
    that tie parameters together.
    """

    kind = "abstract"
    location = ()

    def pdf(self, x):
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
        # Generic inverse-CDF fallback on a dense tabulation of the support.
        lo, hi = self._finite_window()
        grid = np.linspace(lo, hi, 20001)
        dens = self.pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        u = rng.uniform(0.0, 1.0, size)
        return np.interp(u, cdf, grid)

    def _finite_window(self):
        lo, hi = self.support
        if not math.isfinite(lo):
            lo = -40.0
        if not math.isfinite(hi):
            hi = 40.0
        return lo, hi

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __eq__(self, other):
        return isinstance(other, Density1D) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


def _density(name, v):
    """The rule of a parameter that takes a :class:`Density1D`."""
    if not isinstance(v, Density1D):
        raise ContractViolationError(f"{name} must be a Density1D, got {v!r}")
    return v


@dataclass(frozen=True, eq=False)
class Gaussian(Density1D):
    mean: float = 0.0
    sd: float = 1.0
    kind = "gaussian"
    rules = {"mean": _finite, "sd": _scale}
    location = ("mean",)

    def pdf(self, x):
        x = _float_or_array(x)
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

    def pdf(self, x):
        x = _float_or_array(x)
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

    def pdf(self, x):
        x = _float_or_array(x)
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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        t = x - self.shift
        clipped = np.clip(t, 0.0, 700.0 / self.rate)
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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        with np.errstate(over="ignore"):
            vals = np.exp(self.log_pdf(x))
        return np.where(inside, vals, 0.0)

    @property
    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class PathologicalGaussian(Density1D):
    """N(theta, 1) with a deliberately singular density version.

    The density w.r.t. the standard-Gaussian base measure carries an extra
    factor exp[(theta^2/2) exp(x^2)] on the single point x == theta (for
    theta > 0).  The point mass is Lebesgue-null, so the probability is still
    N(theta, 1); only likelihood-style computations see the spike, and only
    when evaluated at a floating-point input exactly equal to theta.
    """

    theta: float
    kind = "pathological-gaussian"
    rules = {"theta": _finite}

    def _log_base_ratio(self, x):
        expo = self.theta * x - 0.5 * self.theta**2
        if self.theta > 0:
            spike = np.where(x == self.theta,
                             0.5 * self.theta**2 * np.exp(np.minimum(x * x, 700.0)),
                             0.0)
            expo = expo + spike
        return expo

    def base_ratio(self, x):
        """Density w.r.t. the standard-Gaussian base measure."""
        with np.errstate(over="ignore"):
            return np.exp(self._log_base_ratio(np.asarray(x, dtype=float)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        expo = self._log_base_ratio(x)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.exp(expo)
            vals = ratio * phi
            over = np.isinf(ratio)
            if over.any():  # where phi underflows to 0, inf * 0 is NaN
                vals = np.where(over, np.exp(expo - 0.5 * x * x)
                                / math.sqrt(2.0 * math.pi), vals)
        return vals

    def sample(self, rng, size):
        return rng.normal(self.theta, 1.0, size)


@dataclass(frozen=True, eq=False)
class Tabulated(Density1D):
    """Piecewise-linear density from (grid, values) tables."""

    grid: tuple
    values: tuple
    kind = "tabulated"
    rules = {"grid": _grid, "values": _weights}
    location = ("grid",)

    def _check(self):
        if len(self.grid) != len(self.values) or len(self.grid) < 2:
            raise ContractViolationError("grid and values must match, length >= 2")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    @property
    def support(self):
        return (self.grid[0], self.grid[-1])

    def breakpoints(self):
        return self.grid


_DENSITY_KINDS = {cls.kind: cls for cls in (
    Gaussian, Cauchy, Laplace, Uniform, Exponential, Histogram, ExpFamily,
    PathologicalGaussian, Tabulated)}


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
        self.marginal = iid
        self.coords = None if iid is not None else _items("coords", coords or ())
        self.n = n if iid is not None else len(self.coords)
        self.__post_init__()

    def _check(self):
        for d in self.coords or [self.marginal]:
            _density("product coordinate", d)

    @property
    def is_iid(self):
        return self.marginal is not None

    def coordinate(self, i) -> Density1D:
        return self.marginal if self.is_iid else self.coords[i]

    def coord_values(self, sample: Sample) -> np.ndarray:
        """Per-coordinate density values at the sample points."""
        if sample.kind != "scalar" or sample.n != self.n:
            raise ContractViolationError(
                f"product density needs a scalar sample of n={self.n}, "
                f"got a {sample.kind} sample of n={sample.n}")
        if self.is_iid:
            return np.asarray(self.marginal.pdf(sample.points), dtype=float)
        return np.array([float(np.asarray(self.coords[i].pdf(
            sample.points[i:i + 1]))[0]) for i in range(self.n)])

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
    if not (isinstance(P, ProductDensity) and isinstance(Q, ProductDensity)):
        raise ContractViolationError("product_hellinger_sq takes two ProductDensity")
    if P.n != Q.n:
        raise ContractViolationError(f"coordinate counts differ: {P.n} != {Q.n}")
    if P.is_iid and Q.is_iid:
        return P.n * hellinger_sq(P.marginal, Q.marginal, quad)
    return float(sum(hellinger_sq(P.coordinate(i), Q.coordinate(i), quad)
                     for i in range(P.n)))
