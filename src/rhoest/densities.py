"""Samples, one-dimensional density families and Hellinger geometry.

Densities are immutable value objects evaluating a nonnegative density with
respect to a declared dominating measure (Lebesgue unless stated otherwise).
The Hellinger machinery prefers closed forms for recognized pairs and falls
back to adaptive quadrature of the affinity integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import ContractViolationError
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
    "PairDensity",
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

class Density1D:
    """Base class: a nonnegative density on the line.

    Subclasses provide ``pdf`` (vectorized), a support interval, the interior
    kink locations used to guide quadrature, and a parameter dict for JSON.
    """

    kind = "abstract"

    def pdf(self, x):
        raise NotImplementedError

    @property
    def support(self):
        return (-_INF, _INF)

    def breakpoints(self):
        return ()

    def params(self) -> dict:
        raise NotImplementedError

    def key(self):
        def freeze(v):
            if isinstance(v, (list, tuple)):
                return tuple(freeze(x) for x in v)
            if isinstance(v, dict):
                return tuple(sorted((k, freeze(x)) for k, x in v.items()))
            return v
        return (self.kind, freeze(self.params()))

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


@dataclass(frozen=True, eq=False)
class Gaussian(Density1D):
    mean: float = 0.0
    sd: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        if not 0 < self.sd < _INF:
            raise ContractViolationError("sd must be positive and finite")
        if not math.isfinite(self.mean):
            raise ContractViolationError("mean must be finite")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def params(self):
        return {"mean": self.mean, "sd": self.sd}

    def sample(self, rng, size):
        return rng.normal(self.mean, self.sd, size)


@dataclass(frozen=True, eq=False)
class Cauchy(Density1D):
    loc: float = 0.0
    scale: float = 1.0
    kind = "cauchy"

    def __post_init__(self):
        if not 0 < self.scale < _INF:
            raise ContractViolationError("scale must be positive and finite")
        if not math.isfinite(self.loc):
            raise ContractViolationError("loc must be finite")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.loc) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + z * z))

    def params(self):
        return {"loc": self.loc, "scale": self.scale}

    def sample(self, rng, size):
        return self.loc + self.scale * rng.standard_cauchy(size)


@dataclass(frozen=True, eq=False)
class Laplace(Density1D):
    loc: float = 0.0
    scale: float = 1.0
    kind = "laplace"

    def __post_init__(self):
        if not 0 < self.scale < _INF:
            raise ContractViolationError("scale must be positive and finite")
        if not math.isfinite(self.loc):
            raise ContractViolationError("loc must be finite")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - self.loc) / self.scale) / (2.0 * self.scale)

    def breakpoints(self):
        return (self.loc,)

    def params(self):
        return {"loc": self.loc, "scale": self.scale}

    def sample(self, rng, size):
        return rng.laplace(self.loc, self.scale, size)


@dataclass(frozen=True, eq=False)
class Uniform(Density1D):
    a: float = 0.0
    b: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        if not -_INF < self.a < self.b < _INF:
            raise ContractViolationError("need finite a < b")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    @property
    def support(self):
        return (self.a, self.b)

    def params(self):
        return {"a": self.a, "b": self.b}

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size)


@dataclass(frozen=True, eq=False)
class Exponential(Density1D):
    rate: float = 1.0
    shift: float = 0.0
    kind = "exponential"

    def __post_init__(self):
        if not 0 < self.rate < _INF:
            raise ContractViolationError("rate must be positive and finite")
        if not math.isfinite(self.shift):
            raise ContractViolationError("shift must be finite")

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

    def params(self):
        return {"rate": self.rate, "shift": self.shift}

    def sample(self, rng, size):
        return self.shift + rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True, eq=False)
class Histogram(Density1D):
    """Piecewise-constant density; heights must integrate to one."""

    breaks: tuple
    heights: tuple
    kind = "histogram"

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        heights = tuple(float(h) for h in self.heights)
        if len(breaks) != len(heights) + 1:
            raise ContractViolationError("need len(breaks) == len(heights) + 1")
        if any(b2 <= b1 for b1, b2 in zip(breaks[:-1], breaks[1:])):
            raise ContractViolationError("breakpoints must be strictly increasing")
        if any(h < 0 for h in heights):
            raise ContractViolationError("heights must be nonnegative")
        mass = sum(h * (b2 - b1) for h, b1, b2 in zip(heights, breaks[:-1], breaks[1:]))
        # A NaN mass fails too: NaN heights or breaks, and a zero height over
        # an infinite piece, give one.
        if not abs(mass - 1.0) <= 1e-9:
            raise ContractViolationError(f"histogram mass {mass} != 1")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "heights", heights)

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

    def params(self):
        return {"breaks": list(self.breaks), "heights": list(self.heights)}

    def sample(self, rng, size):
        widths = np.diff(self.breaks)
        masses = np.asarray(self.heights) * widths
        piece = rng.choice(len(masses), size=size, p=masses / masses.sum())
        lo = np.asarray(self.breaks[:-1])[piece]
        return lo + widths[piece] * rng.uniform(0.0, 1.0, size)


# Restricted namespace for exp-family basis expressions like "x" or "x**2".
_BASIS_NS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "abs": np.abs, "sqrt": np.sqrt, "pi": math.pi}


def _compile_basis(expr: str):
    code = compile(expr, "<basis>", "eval")
    for name in code.co_names:
        if name != "x" and name not in _BASIS_NS:
            raise ContractViolationError(f"unknown symbol {name!r} in basis {expr!r}")
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

    def __post_init__(self):
        if len(self.basis) != len(self.coeffs):
            raise ContractViolationError("basis and coefficients differ in length")
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(math.isfinite(c) for c in (*self.coeffs, self.log_norm)):
            raise ContractViolationError("coefficients and log_norm must be finite")
        # Infinite ends are allowed; NaN ends fail the comparison.
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

    def params(self):
        return {"basis": list(self.basis), "coeffs": list(self.coeffs),
                "log_norm": self.log_norm, "lo": self.lo, "hi": self.hi}


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

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ContractViolationError("theta must be finite")

    def base_ratio(self, x):
        """Density w.r.t. the standard-Gaussian base measure."""
        x = np.asarray(x, dtype=float)
        expo = self.theta * x - 0.5 * self.theta**2
        if self.theta > 0:
            spike = np.where(x == self.theta,
                             0.5 * self.theta**2 * np.exp(np.minimum(x * x, 700.0)),
                             0.0)
            expo = expo + spike
        with np.errstate(over="ignore"):
            return np.exp(expo)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return self.base_ratio(x) * phi

    def params(self):
        return {"theta": self.theta}

    def sample(self, rng, size):
        return rng.normal(self.theta, 1.0, size)


@dataclass(frozen=True, eq=False)
class Tabulated(Density1D):
    """Piecewise-linear density from (grid, values) tables."""

    grid: tuple
    values: tuple
    kind = "tabulated"

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        values = tuple(float(v) for v in self.values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ContractViolationError("grid and values must match, length >= 2")
        # NaN fails g1 < g2 and v >= 0.
        if not (math.isfinite(grid[0]) and math.isfinite(grid[-1])
                and all(g1 < g2 for g1, g2 in zip(grid, grid[1:]))):
            raise ContractViolationError("grid must be finite and strictly increasing")
        if not all(v >= 0 for v in values):
            raise ContractViolationError("tabulated values must be nonnegative numbers")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    @property
    def support(self):
        return (self.grid[0], self.grid[-1])

    def breakpoints(self):
        return self.grid

    def params(self):
        return {"grid": list(self.grid), "values": list(self.values)}


class PairDensity(Density1D):
    """Density on (w, y) pairs of the translation form r(y - g(w)).

    Used for random-design regression; evaluated only at observed pairs, the
    design distribution never enters.
    """

    kind = "pair"

    def __init__(self, error_density: Density1D, regression_fn, label=""):
        self.error_density = error_density
        self.regression_fn = regression_fn
        self.label = label

    def pdf(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ContractViolationError("PairDensity expects (n, 2) points")
        w, y = pts[:, 0], pts[:, 1]
        return self.error_density.pdf(y - self.regression_fn(w))

    def params(self):
        return {"error": self.error_density.to_json(), "g": self.label}

    def key(self):
        return ("pair", self.error_density.key(), self.label)


_DENSITY_KINDS = {
    "gaussian": Gaussian,
    "cauchy": Cauchy,
    "laplace": Laplace,
    "uniform": Uniform,
    "exponential": Exponential,
    "histogram": Histogram,
    "exp-family": ExpFamily,
    "pathological-gaussian": PathologicalGaussian,
    "tabulated": Tabulated,
}


def density_from_json(obj: dict) -> Density1D:
    """Inverse of ``Density1D.to_json``: {kind, params} -> instance."""
    try:
        cls = _DENSITY_KINDS[obj["kind"]]
        params = dict(obj["params"])
        for tupled in ("breaks", "heights", "grid", "values", "basis", "coeffs"):
            if tupled in params:
                params[tupled] = tuple(params[tupled])
        # TypeError here means an unknown or missing parameter, or a wrong type.
        return cls(**params)
    except (KeyError, TypeError) as exc:
        raise ContractViolationError(f"bad density spec {obj!r}: {exc}") from exc


def shifted(d: Density1D, a: float) -> Density1D:
    """The density of X + a when X has density d (same family when closed)."""
    if a == 0.0:
        return d
    if isinstance(d, Gaussian):
        return Gaussian(d.mean + a, d.sd)
    if isinstance(d, Cauchy):
        return Cauchy(d.loc + a, d.scale)
    if isinstance(d, Laplace):
        return Laplace(d.loc + a, d.scale)
    if isinstance(d, Uniform):
        return Uniform(d.a + a, d.b + a)
    if isinstance(d, Exponential):
        return Exponential(d.rate, d.shift + a)
    if isinstance(d, Histogram):
        return Histogram(tuple(b + a for b in d.breaks), d.heights)
    if isinstance(d, Tabulated):
        return Tabulated(tuple(g + a for g in d.grid), d.values)
    raise ContractViolationError(f"cannot shift density of kind {d.kind!r}")


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
        # (2 / pi) c K(m), where c^2 = 1 - m = 4 b1 b2 / ((b1 + b2)^2 + d^2);
        # ellipkm1 takes 1 - m, which keeps K accurate as m approaches 1.
        c = (2.0 * math.sqrt(p.scale) * math.sqrt(q.scale)
             / math.hypot(p.scale + q.scale, p.loc - q.loc))
        return 2.0 / math.pi * c * float(special.ellipkm1(c * c))
    return None


def hellinger_affinity(p, q, quad=None, base=None, method="auto"):
    """rho(p, q) = integral of sqrt(p q); equals 1 - h^2.

    ``method="auto"`` without ``base`` uses a closed form for identical
    densities and for pairs of Gaussians, of Laplaces or of Cauchys, and
    integrates every other pair, and any pair whose closed form is not
    finite; ``method="quadrature"`` always integrates.
    """
    if method not in ("auto", "quadrature"):
        raise ContractViolationError(f"unknown method {method!r}")
    rho = _closed_form_affinity(p, q) if method == "auto" and base is None else None
    if rho is not None and math.isfinite(rho):
        return min(rho, 1.0)

    if base is None:
        def integrand(x):
            return np.sqrt(p.pdf(x) * q.pdf(x))
    else:
        # Same integral expressed against an explicit dominating measure:
        # integral sqrt((p/b)(q/b)) b.  Mathematically identical, numerically
        # a distinct evaluation path.
        def integrand(x):
            b = base.pdf(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.sqrt((p.pdf(x) / b) * (q.pdf(x) / b)) * b
            return np.where(b > 0, r, 0.0)
    rho = integrate_on_supports(integrand, (p, q),
                                () if base is None else (base,), quad)
    return min(max(rho, 0.0), 1.0)


def hellinger_sq(p, q, quad=None, base=None, method="auto"):
    """Squared Hellinger distance h^2(p, q) = 1 - rho(p, q), in [0, 1]."""
    return 1.0 - hellinger_affinity(p, q, quad=quad, base=base, method=method)


# ---------------------------------------------------------------------------
# Product densities
# ---------------------------------------------------------------------------

class ProductDensity:
    """n-coordinate product density; i.i.d. shorthand stores one marginal."""

    def __init__(self, coords=None, *, iid=None, n=None, label=None):
        if iid is not None:
            if coords is not None:
                raise ContractViolationError("pass either coords or iid, not both")
            if n is None or n < 1:
                raise ContractViolationError("iid shorthand needs n >= 1")
            self.marginal = iid
            self.coords = None
            self.n = int(n)
        else:
            coords = tuple(coords or ())
            if not coords:
                raise ContractViolationError("need at least one coordinate density")
            self.marginal = None
            self.coords = coords
            self.n = len(coords)
        self.label = label

    @property
    def is_iid(self):
        return self.marginal is not None

    def coordinate(self, i) -> Density1D:
        return self.marginal if self.is_iid else self.coords[i]

    def coord_values(self, sample: Sample) -> np.ndarray:
        """Per-coordinate density values at the sample points."""
        if sample.n != self.n:
            raise ContractViolationError(
                f"sample has n={sample.n}, product density has n={self.n}")
        if self.is_iid:
            return np.asarray(self.marginal.pdf(sample.points), dtype=float)
        return np.array([float(np.asarray(self.coords[i].pdf(
            sample.points[i:i + 1]))[0]) for i in range(self.n)])

    def key(self):
        if self.is_iid:
            return ("iid", self.n, self.marginal.key())
        return ("coords", tuple(c.key() for c in self.coords))

    def to_json(self):
        if self.is_iid:
            return {"iid": self.marginal.to_json(), "n": self.n}
        return {"coords": [c.to_json() for c in self.coords]}

    def __repr__(self):
        if self.is_iid:
            return f"ProductDensity(iid={self.marginal!r}, n={self.n})"
        return f"ProductDensity(coords={self.coords!r})"


def product_hellinger_sq(P: ProductDensity, Q: ProductDensity, quad=None):
    """Sum of coordinate h^2; n * h^2 for a pair of i.i.d. products."""
    if P.n != Q.n:
        raise ContractViolationError(f"coordinate counts differ: {P.n} != {Q.n}")
    if P.is_iid and Q.is_iid:
        return P.n * hellinger_sq(P.marginal, Q.marginal, quad)
    return float(sum(hellinger_sq(P.coordinate(i), Q.coordinate(i), quad)
                     for i in range(P.n)))
