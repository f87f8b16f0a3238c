"""Noise distributions: exact densities, rejection sampling, absolute moments.

Every sampling routine takes a caller-owned numpy Generator; nothing in this
module holds generator state, so distinct generators may be used from any
number of threads.  The one-time normalization constants are cached with
compute-once semantics and are bit-stable because the quadrature refinement
rule is deterministic.  Two-dimensional moments (s > 1) use a fixed tensor
Gauss-Legendre rule on graded panels, so they involve no refinement at all.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .norms import s_norms

# Rejection proposals are uniform on [-EXPOL2_BOX, EXPOL2_BOX] per coordinate.
# The unnormalized density exp(-(u^2-1)^2) attains its maximum 1 at u = +-1,
# so the envelope constant is exactly 1, and the mass beyond |u| = 3 is below
# exp(-64) * width, negligible against every tolerance used here.
EXPOL2_BOX = 3.0

# Moment quadrature integrates on a wider box so that the quadrature
# truncation error is strictly smaller than the sampler truncation.
_QUAD_BOX = 4.0
_QUAD_TOL = 1e-9

# The s > 1 moment integrates (|u|^s + |v|^s)^(1/s), whose only kink is at the
# origin, with a tensor Gauss-Legendre rule: each half-axis [0, box] is cut
# into panels at these fractions of the box, graded towards the kink, with
# _GL_NODES nodes per panel (448 nodes per axis).
_PANEL_EDGES = (0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
_GL_NODES = 32

_MAX_PROPOSALS_PER_DRAW = 10 ** 6


class _NoiseSpec:
    """Defaults for noise laws without a separable density or closed forms."""

    def coordinate_density(self):
        """(density, box) for one coordinate of a separable noise law."""
        raise ValueError(
            "quadrature moments require a separable density (gaussian or expol2)"
        )

    def analytic_abs_moment(self, s):
        raise ValueError("analytic moments are available only for gaussian noise")


@dataclass(frozen=True)
class StdGaussian(_NoiseSpec):
    """Standard normal noise with independent coordinates."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def sample(self, rng, count):
        return rng.standard_normal((count, self.dim))

    def density(self, x):
        return float(
            (2.0 * math.pi) ** (-self.dim / 2.0) * math.exp(-0.5 * float(np.sum(x * x)))
        )

    def coordinate_density(self):
        return (lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), 10.0)

    def analytic_abs_moment(self, s):
        if s <= 1.0:
            # E|N(0,1)|^s = 2^(s/2) Gamma((s+1)/2) / sqrt(pi), per coordinate.
            return self.dim * (
                2.0 ** (s / 2.0) * math.gamma((s + 1.0) / 2.0) / math.sqrt(math.pi)
            )
        if s == 2.0:
            # Mean of a chi distribution with `dim` degrees of freedom.
            return (
                math.sqrt(2.0)
                * math.gamma((self.dim + 1.0) / 2.0)
                / math.gamma(self.dim / 2.0)
            )
        raise ValueError("analytic gaussian moments cover s <= 1 and s = 2 only")


@dataclass(frozen=True)
class Expol2(_NoiseSpec):
    """Bivariate noise with density proportional to exp(-(x^2-1)^2 - (y^2-1)^2).

    Coordinates are independent and identically distributed; each marginal is
    bimodal with modes near +-1.
    """

    dim = 2

    def sample(self, rng, count):
        flat, _ = _rejection_sample_expol2(rng, 2 * count)
        return flat.reshape(count, 2)

    def density(self, x):
        z = _expol2_z()
        return float(np.prod(_expol2_unnormalized(x))) / (z * z)

    def coordinate_density(self):
        z = _expol2_z()
        return (lambda u: float(_expol2_unnormalized(u)) / z, _QUAD_BOX)


@dataclass(frozen=True)
class BoundedCustomDensity(_NoiseSpec):
    """Noise given by a bounded unnormalized log-density on a centered box.

    The unnormalized density exp(log_unnormalized_density(x)) must not exceed
    envelope_constant anywhere on the box; mass outside the box is truncated.
    """

    dim: int
    log_unnormalized_density: Callable
    box_halfwidth: float
    envelope_constant: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.box_halfwidth <= 0:
            raise ValueError("box_halfwidth must be positive")
        if self.envelope_constant <= 0:
            raise ValueError("envelope_constant must be positive")

    def sample(self, rng, count):
        out, _ = _rejection_sample_custom(self, rng, count)
        return out

    def density(self, x):
        return math.exp(self.log_unnormalized_density(x)) / _custom_z(self)


@dataclass(frozen=True)
class MomentEstimate:
    """Value of E[||e||_s] together with how it was obtained."""

    value: float
    std_error: float
    method: str
    s: float
    sample_count: Optional[int] = None
    grid_size: Optional[int] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("moment value must be nonnegative")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method not in ("quadrature", "monte_carlo", "analytic"):
            raise ValueError(f"unknown moment method {self.method!r}")


def adaptive_simpson(fn, lo, hi, tol=_QUAD_TOL):
    """Adaptive Simpson quadrature with absolute tolerance tol.

    The interval splitting rule is deterministic, so repeated calls with the
    same integrand are bit-identical.  Returns (integral, eval_count).
    """
    if not hi > lo:
        raise ValueError("empty integration interval")
    evals = [0]

    def f(u):
        evals[0] += 1
        return fn(u)

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, eps, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        if depth > 50:
            raise ArithmeticError("adaptive quadrature exceeded recursion depth")
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        half = 0.5 * eps
        return recurse(a, fa, lm, flm, m, fm, left, half, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, half, depth + 1
        )

    a, b = float(lo), float(hi)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, fa, m, fm, b, fb)
    value = recurse(a, fa, m, fm, b, fb, whole, float(tol), 0)
    return value, evals[0]


def _legendre_pair(x, n):
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence, elementwise."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p0, p1


def _gauss_legendre(n):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence from Tricomi's initial guesses,
    with (1 - x)(1 + x) in place of 1 - x^2 so that the weights next to +-1
    keep their accuracy.  No eigensolver is involved, so no LAPACK is loaded.
    """
    x = np.array([math.cos(math.pi * (k - 0.25) / (n + 0.5)) for k in range(n, 0, -1)])
    for _ in range(100):
        p0, p1 = _legendre_pair(x, n)
        dx = p1 * (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    p0, p1 = _legendre_pair(x, n)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1)) ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def _graded_rule(box):
    """Nodes and weights of the graded composite Gauss-Legendre rule on
    [-box, box], panel by panel (_GL_NODES consecutive entries per panel)."""
    t, w = _gauss_legendre(_GL_NODES)
    half = box * np.array(_PANEL_EDGES)
    edges = np.concatenate([-half[:0:-1], half])
    lo, hi = edges[:-1, None], edges[1:, None]
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * t).ravel(), (0.5 * (hi - lo) * w).ravel()


def _expol2_unnormalized(u):
    t = u * u - 1.0
    return np.exp(-(t * t))


@functools.lru_cache(maxsize=1)
def _expol2_z():
    """Per-coordinate normalization of exp(-(u^2-1)^2), cached once."""
    z, _ = adaptive_simpson(lambda u: float(_expol2_unnormalized(u)), -_QUAD_BOX, _QUAD_BOX)
    return z


@functools.lru_cache(maxsize=None)
def _custom_z(spec):
    """Normalization of a BoundedCustomDensity over its box (dims 1 and 2)."""
    w = spec.box_halfwidth
    if spec.dim == 1:
        z, _ = adaptive_simpson(
            lambda u: math.exp(spec.log_unnormalized_density(np.array([u]))), -w, w
        )
        return z
    if spec.dim == 2:
        def inner(u):
            v, _ = adaptive_simpson(
                lambda t: math.exp(spec.log_unnormalized_density(np.array([u, t]))),
                -w,
                w,
                tol=_QUAD_TOL / 10.0,
            )
            return v

        z, _ = adaptive_simpson(inner, -w, w)
        return z
    raise ValueError("density normalization is supported only for dim <= 2")


def _rejection_sample_expol2(rng, count):
    """Draw `count` scalar Expol2 coordinates; returns (values, n_proposals).

    Per round, one batch of uniform proposals on [-3, 3] and one batch of
    acceptance uniforms are drawn; accepted values fill the output in
    proposal order.  The per-round batch size equals the number of slots
    still unfilled, which makes the draw order deterministic.
    """
    out = np.empty(count)
    filled = 0
    proposals = 0
    while filled < count:
        k = count - filled
        u = rng.uniform(-EXPOL2_BOX, EXPOL2_BOX, k)
        v = rng.uniform(0.0, 1.0, k)
        proposals += k
        accepted = u[v <= _expol2_unnormalized(u)]
        n = accepted.size
        out[filled:filled + n] = accepted
        filled += n
        if proposals > _MAX_PROPOSALS_PER_DRAW * count:
            raise ValueError("rejection sampler exceeded the proposal budget")
    return out, proposals


def _rejection_sample_custom(spec, rng, count):
    # Rounds propose at least 1024 points so that low acceptance rates hit the
    # proposal budget quickly instead of degenerating into scalar rounds;
    # surplus accepted values beyond `count` are discarded deterministically.
    out = np.empty((count, spec.dim))
    filled = 0
    proposals = 0
    w = spec.box_halfwidth
    while filled < count:
        k = max(count - filled, 1024)
        u = rng.uniform(-w, w, (k, spec.dim))
        v = rng.uniform(0.0, 1.0, k)
        proposals += k
        dens = np.array([math.exp(spec.log_unnormalized_density(row)) for row in u])
        if np.any(dens > spec.envelope_constant * (1.0 + 1e-12)):
            raise ValueError("unnormalized density exceeds the declared envelope")
        mask = v * spec.envelope_constant <= dens
        accepted = u[mask]
        take = min(accepted.shape[0], count - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
        if proposals > _MAX_PROPOSALS_PER_DRAW * count:
            raise ValueError("rejection sampler exceeded the proposal budget")
    return out, proposals


def sample(spec, rng, count):
    """Draw `count` i.i.d. noise vectors as an array of shape (count, dim).

    Deterministic given the generator state and count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return spec.sample(rng, count)


def density(spec, x):
    """Normalized density of the noise law at x."""
    return spec.density(np.asarray(x, dtype=float))


def abs_moment(spec, s, method="quadrature", budget=10 ** 5, rng=None):
    """Compute E[||e||_s] for the given noise law.

    Parameters
    ----------
    spec : StdGaussian | Expol2 | BoundedCustomDensity
    s : float
        Norm exponent; pseudonorm below 1, l_s norm from 1 up.
    method : {"quadrature", "monte_carlo", "analytic"}
        quadrature: separable densities only.  For s <= 1 the moment splits
            into one coordinate integral by adaptive Simpson; for s > 1 (two
            coordinates) a fixed tensor Gauss-Legendre rule on panels graded
            towards the origin, whose grid_size is its point count.
        monte_carlo: sample mean of ||e||_s with a standard error (needs rng).
        analytic: closed forms for the Gaussian law (s <= 1 or s = 2).
    budget : int
        Monte Carlo sample count; ignored by the other methods.
    rng : numpy Generator, required for monte_carlo.
    """
    s = float(s)
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo requires a seeded generator")
        if budget < 2:
            raise ValueError("monte_carlo budget must be >= 2")
        vals = s_norms(sample(spec, rng, budget), s, axis=1)
        value = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(budget))
        return MomentEstimate(value, stderr, "monte_carlo", s, sample_count=budget)
    if method == "quadrature":
        dens, box = spec.coordinate_density()
        dim = spec.dim
        if s <= 1.0:
            # No outer root, so the expectation separates across coordinates.
            per_coord, evals = adaptive_simpson(
                lambda u: abs(u) ** s * dens(u), -box, box
            )
            return MomentEstimate(
                dim * per_coord, 0.0, "quadrature", s, grid_size=evals
            )
        if dim != 2:
            raise ValueError("quadrature with s > 1 is supported only for dim 2")
        u, w = _graded_rule(box)
        weighted = w * np.array([dens(v) for v in u])
        a = np.abs(u) ** s
        value = 0.0
        # One panel of rows at a time, updated in place and summed without
        # matmul: a full N x N grid, more temporaries or a first BLAS call
        # would each raise the command's peak memory.
        for i in range(0, u.size, _GL_NODES):
            block = a[i:i + _GL_NODES, None] + a
            block **= 1.0 / s
            block *= weighted[i:i + _GL_NODES, None]
            block *= weighted
            value += float(np.sum(block))
        return MomentEstimate(value, 0.0, "quadrature", s, grid_size=u.size ** 2)
    if method == "analytic":
        return MomentEstimate(spec.analytic_abs_moment(s), 0.0, "analytic", s)
    raise ValueError(f"unknown moment method {method!r}")
