"""Noise distributions: exact densities, rejection sampling, absolute moments.

Every sampling routine takes a caller-owned numpy Generator; nothing in this
module holds generator state beyond the draw sources a caller asks for, so
distinct generators may be used from any number of threads.  A noise law
draws only through its draw_source, which hands out one sample in pieces
of any sizes, and sample() takes it in one piece; Expol2 and
BoundedCustomDensity sources replay the rejection rounds piece by piece, so
every source holds O(piece) draws.  Their proposals are Generator.random()
doubles scaled in place as Generator.uniform scales them: uniform's values,
without its temporaries.  The one-time normalization constants are cached
with compute-once semantics.  Every quadrature moment and the Expol2
normalization use one fixed rule with no refinement, Gauss-Legendre on
panels graded towards the kink at the origin (_graded_rule); only a custom
density's normalization refines (_custom_z).
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

# Nodes per panel of _graded_rule and its depths: 40 halvings resolve the
# |u|^s cusp of a line integral at every s > 0 (2,624 nodes); the s > 1
# integrand is Lipschitz, so 6 serve its tensor rule (448 per axis).
_GL_NODES = 32
_LINE_DEPTH = 40
_TENSOR_DEPTH = 6

_MAX_PROPOSALS_PER_DRAW = 10 ** 6

# A rejection round of at most this many proposals is drawn whole from the one
# generator; a larger round that a piece does not use up is split (see
# _RejectionStream).  Smaller rounds would split more often, each split costing
# a generator copy; larger ones would leave more accepted values waiting.
_WHOLE_ROUND = 2048

# A custom density's rounds propose at least this many rows, so that a low
# acceptance rate hits the proposal budget quickly, not in rounds of one row.
_CUSTOM_MIN_ROUND = 1024


class _NoiseSpec:
    """Defaults for noise laws without a separable density or closed forms."""

    def coordinate_density(self):
        """(density, box) of one coordinate of a separable law, vectorized."""
        raise ValueError(
            "quadrature moments require a separable density (gaussian or expol2)"
        )

    def moment_method(self, s):
        """abs_moment's method at s: "analytic" where a closed form exists."""
        return "quadrature"

    def analytic_abs_moment(self, s):
        raise ValueError("analytic moments are available only for gaussian noise")


@dataclass(frozen=True)
class StdGaussian(_NoiseSpec):
    """Standard normal noise with independent coordinates."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def draw_source(self, rng, count):
        # standard_normal gives the same values in pieces as in one call.
        return _GaussianDraws(count, rng, self.dim)

    def density(self, x):
        return float(
            (2.0 * math.pi) ** (-self.dim / 2.0) * math.exp(-0.5 * float(np.sum(x * x)))
        )

    def coordinate_density(self):
        return (lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), 10.0)

    def moment_method(self, s):
        return "analytic" if s <= 1.0 or s == 2.0 else "quadrature"

    def analytic_abs_moment(self, s):
        if self.moment_method(s) != "analytic":
            raise ValueError("analytic gaussian moments cover s <= 1 and s = 2 only")
        if s <= 1.0:
            # E|N(0,1)|^s = 2^(s/2) Gamma((s+1)/2) / sqrt(pi), per coordinate.
            return self.dim * (
                2.0 ** (s / 2.0) * math.gamma((s + 1.0) / 2.0) / math.sqrt(math.pi)
            )
        # s = 2: the mean of a chi distribution with `dim` degrees of freedom.
        # Gamma((dim + 1) / 2) overflows from dim = 343 on; there the series
        # sqrt(dim) (1 - 1/(4 dim) + 1/(32 dim^2) + ...) is within 3e-16 of it
        # (a difference of lgamma values loses ~1e-11 at dim = 10^4).
        try:
            return (math.sqrt(2.0) * math.gamma((self.dim + 1.0) / 2.0)
                    / math.gamma(self.dim / 2.0))
        except OverflowError:
            t = 1.0 / self.dim
            return math.sqrt(self.dim) * (1.0 + t * (-1.0 / 4.0 + t * (1.0 / 32.0 + t * (
                5.0 / 128.0 + t * (-21.0 / 2048.0 - t * 399.0 / 8192.0)))))


@dataclass(frozen=True)
class Expol2(_NoiseSpec):
    """Bivariate noise with density proportional to exp(-(x^2-1)^2 - (y^2-1)^2).

    Coordinates are independent and identically distributed; each marginal is
    bimodal with modes near +-1.
    """

    dim = 2

    def draw_source(self, rng, count):
        return _RejectionStream(rng, count, 2, 1, EXPOL2_BOX, _expol2_mask)

    def density(self, x):
        z = _expol2_z()
        return float(np.prod(_expol2_unnormalized(x))) / (z * z)

    def coordinate_density(self):
        z = _expol2_z()
        return (lambda u: _expol2_unnormalized(u) / z, _QUAD_BOX)


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
        # Written so that NaN fails them too.  Proposals are scaled by the
        # box width 2 * box_halfwidth, which is finite up to half the largest
        # double.
        if not 0 < self.box_halfwidth <= np.finfo(float).max / 2:
            raise ValueError("box_halfwidth must be positive and finite, and so "
                             "must the box width 2 * box_halfwidth")
        if not 0 < self.envelope_constant < math.inf:
            raise ValueError("envelope_constant must be positive and finite")

    def draw_source(self, rng, count):
        return _RejectionStream(rng, count, self.dim, self.dim, self.box_halfwidth,
                                self._mask, _CUSTOM_MIN_ROUND)

    def _mask(self, u, v):
        """Accepted values among the flat proposal rows u, given uniforms v."""
        logs = [self.log_unnormalized_density(row) for row in u.reshape(-1, self.dim)]
        try:
            dens = np.array([math.exp(v) for v in logs])
        except OverflowError:  # above the largest double, so above the envelope
            dens = np.array([math.inf])
        # Written so that NaN fails it too: it would never be accepted.
        if not np.all(dens <= self.envelope_constant * (1.0 + 1e-12)):
            raise ValueError("unnormalized density is not a finite number or "
                             "exceeds the declared envelope")
        return np.repeat(v * self.envelope_constant <= dens, self.dim)

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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence from Tricomi's initial guesses,
    with (1 - x)(1 + x) in place of 1 - x^2 so that the weights next to +-1
    keep their accuracy.  No eigensolver is involved, so no LAPACK is loaded.
    Cached, so callers share the arrays and must not write to them.
    """
    x = np.array([math.cos(math.pi * (k - 0.25) / (n + 0.5)) for k in range(n, 0, -1)])
    for _ in range(100):
        p0, p1 = _legendre_pair(x, n)
        dx = p1 * (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1))
        x = x - dx
        if np.all(np.abs(dx) <= 1e-15):
            break
    p0, p1 = _legendre_pair(x, n)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1)) ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def _graded_rule(box, depth):
    """Nodes and weights of the graded composite Gauss-Legendre rule on
    [-box, box], panel by panel (_GL_NODES consecutive entries per panel):
    each half-axis is cut into [box 2^-(k+1), box 2^-k] for k < depth and
    [0, box 2^-depth]."""
    t, w = _gauss_legendre(_GL_NODES)
    half = box * np.array([0.0] + [2.0 ** -k for k in range(depth, -1, -1)])
    edges = np.concatenate([-half[:0:-1], half])
    lo, hi = edges[:-1, None], edges[1:, None]
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * t).ravel(), (0.5 * (hi - lo) * w).ravel()


def _expol2_unnormalized(u):
    # One scratch array updated in place, so the heap grows by no other
    # temporary of u's size.
    t = np.asarray(u * u)
    t -= 1.0
    t *= t
    return np.exp(np.negative(t, out=t), out=t)


def _expol2_mask(u, v):
    """Accepted Expol2 proposals u, given uniforms v (the envelope is 1)."""
    return v <= _expol2_unnormalized(u)


@functools.lru_cache(maxsize=1)
def _expol2_z():
    """Per-coordinate normalization of exp(-(u^2-1)^2), cached once."""
    u, w = _graded_rule(_QUAD_BOX, _LINE_DEPTH)
    return float(np.sum(w * _expol2_unnormalized(u)))


@functools.lru_cache(maxsize=None)
def _custom_z(spec):
    """Normalization of a BoundedCustomDensity over its box (dims 1 and 2) by
    adaptive Simpson: a custom density may kink anywhere, and _graded_rule,
    refined only at the origin, is 2.6e-5 off for exp(-|x - 0.7|) on [-2, 2]."""
    w = spec.box_halfwidth

    def dens(*x):
        return math.exp(spec.log_unnormalized_density(np.array(x)))

    if spec.dim == 1:
        return adaptive_simpson(dens, -w, w)[0]
    if spec.dim == 2:
        def inner(u):
            return adaptive_simpson(lambda t: dens(u, t), -w, w, _QUAD_TOL / 10.0)[0]

        return adaptive_simpson(inner, -w, w)[0]
    raise ValueError("density normalization is supported only for dim <= 2")


class _DrawSource:
    """The draws of one sample of `count` rows, handed out in pieces:
    take(m) returns the next m rows, and the pieces concatenate bit for bit
    to the sample drawn at once."""

    # Slots make each source one small object; a simulation holds one per
    # lane.
    __slots__ = ("left",)

    def __init__(self, count):
        self.left = count

    def take(self, m):
        if not 1 <= m <= self.left:
            raise ValueError(f"cannot take {m} draws with {self.left} left")
        rows = self._next(m)
        self.left -= m
        return rows


class _GaussianDraws(_DrawSource):
    """Draw source of standard normal rows, drawn piece by piece."""

    def __init__(self, count, rng, dim):
        super().__init__(count)
        self._rng = rng
        self._dim = dim

    def _next(self, m):
        return self._rng.standard_normal((m, self._dim))


class _RejectionStream(_DrawSource):
    """`count` rows of `width` values drawn by rejection, in pieces.

    A proposal is `per` values uniform on [-box, box] (one Expol2
    coordinate, or one row of a custom density), drawn as random() doubles
    r scaled to r * (2 * box) - box, which is how uniform(-box, box) rounds
    them; an acceptance uniform is random(), which equals uniform(0, 1).
    mask(u, v) is the boolean mask of the accepted values among the flat
    proposals u, given one acceptance uniform per proposal in v.  A round
    makes one proposal per unfilled slot of `per` values, but at least
    `min_round`: k proposals (k * per uniforms), then k acceptance uniforms,
    one 64-bit output per uniform; accepted values fill the slots in
    proposal order, `proposals` counts them all, and the next round starts
    where they end.  Accepted values beyond the last slot are never handed
    out.  A round drawn whole reads both from one generator.  A round too
    large to draw whole that this piece does not use up is split: its
    acceptance uniforms come from a copy advanced past the proposals, both
    are read a chunk at a time, and when the round is used up the copy,
    which then stands where the round ends, becomes the generator (and the
    old one the spare for the next copy).  Accepted values a piece does not
    need wait in `_ready`, so a source holds O(piece) values.
    """

    __slots__ = ("_width", "_per", "_box", "_mask", "_min_round", "_total", "_budget",
                 "_rng", "_accept", "_spare", "_round_left", "_filled", "_ready",
                 "proposals")

    def __init__(self, rng, count, width, per, box, mask, min_round=0):
        super().__init__(count)
        self._width = width
        self._per = per
        self._box = box
        self._mask = mask
        self._min_round = min_round
        self._total = count * width
        self._budget = _MAX_PROPOSALS_PER_DRAW * (self._total // per)
        self._rng = rng
        self._accept = rng  # the acceptance-uniform generator of the round
        self._spare = None  # a generator free to become the next copy
        self._round_left = 0  # proposals of the round not yet read
        self._filled = 0  # values accepted so far
        self._ready = np.empty(0)
        self.proposals = 0

    def _next(self, m):
        need = m * self._width
        out = np.empty(need)
        got = 0
        while True:
            n = min(self._ready.size, need - got)
            out[got:got + n] = self._ready[:n]
            self._ready = self._ready[n:]
            got += n
            if got == need:
                # A copy, so that the chunk the values came from is freed.
                self._ready = self._ready.copy()
                return out.reshape(m, self._width)
            self._propose(need - got)

    def _propose(self, need):
        """Read the next chunk of proposals into `_ready`, which is empty;
        `need` more values are wanted by this piece."""
        if not self._round_left:
            to_come = self._total - self._filled
            k = max(to_come // self._per, self._min_round)
            self._round_left = k
            self.proposals += k
            # With need == to_come this piece takes every value still to
            # come, so it uses the round up.  advance(n) skips exactly n
            # 64-bit outputs on these bit generators.
            bits = self._rng.bit_generator
            advanceable = (np.random.PCG64, np.random.PCG64DXSM)
            if k > _WHOLE_ROUND and need < to_come and isinstance(bits, advanceable):
                if self._spare is None:
                    self._spare = np.random.Generator(type(bits)(0))
                self._accept, self._spare = self._spare, None
                self._accept.bit_generator.state = bits.state
                self._accept.bit_generator.advance(k * self._per)
        k = self._round_left
        if self._accept is not self._rng:
            # Three proposals per value wanted, plus a margin: Expol2 accepts
            # about a third (Z / 6 = 0.329), a custom law at its own rate.
            # The chunk size sets only how many chunks a piece reads, never
            # a value.
            k = min(k, 3 * need // self._per + 256)
        # Scaled in place as uniform(-box, box) scales random(): the same
        # bits, without uniform's temporaries.
        u = self._rng.random(k * self._per)
        u *= 2 * self._box
        u -= self._box
        v = self._accept.random(k)  # uniform(0, 1)
        self._ready = u.compress(self._mask(u, v))
        self._filled += self._ready.size
        self._round_left -= k
        if not self._round_left:
            if self._accept is not self._rng:
                self._rng, self._spare = self._accept, self._rng
            if self.proposals > self._budget:
                raise ValueError("rejection sampler exceeded the proposal budget")


def sample(spec, rng, count):
    """draw_source(spec, rng, count) taken in one piece, a (count, dim) array.

    Deterministic given the generator state and count.
    """
    return draw_source(spec, rng, count).take(count)


def draw_source(spec, rng, count):
    """A source of `count` i.i.d. noise draws, handed out in pieces.

    source.take(m) returns the next m draws as an (m, dim) array, and pieces
    taken in any sizes that add up to count concatenate bit for bit to
    sample(spec, rng, count).  Every source holds O(m) draws, and a fault
    of the law's density or proposal budget raises on the take that meets
    it.  The source draws from rng, which it leaves at an unspecified
    position.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return spec.draw_source(rng, count)


def density(spec, x):
    """Normalized density of the noise law at x."""
    return spec.density(np.asarray(x, dtype=float))


def abs_moment(spec, s, method="quadrature", budget=10 ** 5, rng=None):
    """Compute E[||e||_s] for the given noise law.

    Parameters
    ----------
    spec : StdGaussian | Expol2 | BoundedCustomDensity
    s : float
        Finite norm exponent; pseudonorm in (0, 1], l_s norm from 1 up.
    method : {"quadrature", "monte_carlo", "analytic"}
        quadrature: separable densities only, on the graded Gauss-Legendre
            rule: for s <= 1 one coordinate integral at depth 40 (2,624
            nodes), for s > 1 (two coordinates) the depth-6 tensor rule
            (448^2 points).  grid_size is the point count.
        monte_carlo: sample mean of ||e||_s with a standard error (needs rng).
        analytic: closed forms for the Gaussian law (s <= 1 or s = 2);
            spec.moment_method(s) names the method a law has at s.
    budget : int
        Monte Carlo sample count; ignored by the other methods.
    rng : numpy Generator, required for monte_carlo.
    """
    s = float(s)
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"s must be positive and finite, got {s}")
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
        if s <= 1.0:
            # No outer root, so the expectation separates across coordinates.
            u, w = _graded_rule(box, _LINE_DEPTH)
            value = spec.dim * float(np.sum(w * dens(u) * np.abs(u) ** s))
            return MomentEstimate(value, 0.0, "quadrature", s, grid_size=u.size)
        if spec.dim != 2:
            raise ValueError("quadrature with s > 1 is supported only for dim 2")
        u, w = _graded_rule(box, _TENSOR_DEPTH)
        weighted = w * dens(u)
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
