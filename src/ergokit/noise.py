"""Noise distributions: exact densities, rejection sampling, absolute moments.

The two laws are the paper's: Expol2 (density proportional to
exp(-(x^2-1)^2 - (y^2-1)^2)) and the standard Gaussian.  Every sampling
routine takes caller-owned numpy Generators; nothing in this module holds
generator state beyond the draw objects a caller asks for, so distinct
generators may be used from any number of threads.  A noise law draws only
through spec.lane_draws(rngs), one object for k lanes with one generator
each: fill(ids, block) writes the next draws of the lanes ids into their
slabs of a (k, m, dim) block, as a simulation refills every live lane's
rows of its window, and sample() is one lane taking one block.  Expol2
filters each lane's random() doubles in consecutive pairs, a value and its
acceptance uniform, so a fill is just the next pairs and a lane holds
O(m) draws.  The value is its double scaled in place as Generator.uniform
scales it: uniform's value, without its temporaries.  Each lane reads its
pairs from its own generator into its rows of a shared scratch buffer, and
the scaling, the acceptance test and the compress run once per group of
lanes, of at most _GROUP_PROPOSALS pairs unless one lane's chunk alone is
larger.  The Expol2 normalization constant is cached with compute-once
semantics.  Every quadrature moment and that normalization use one fixed
rule with no refinement, Gauss-Legendre on panels graded towards the kink
at the origin (_graded_rule).
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .norms import SUBNORMAL_SAFE_SUM, require_exponent, require_int, s_norms

# Rejection proposals are uniform on [-EXPOL2_BOX, EXPOL2_BOX] per coordinate.
# The unnormalized density exp(-(u^2-1)^2) attains its maximum 1 at u = +-1,
# so the envelope constant is exactly 1, and the mass beyond |u| = 3 is below
# exp(-64) * width, negligible against every tolerance used here.
EXPOL2_BOX = 3.0

# Moment quadrature integrates on a wider box so that the quadrature
# truncation error is strictly smaller than the sampler truncation.
_QUAD_BOX = 4.0

# Nodes per panel of _graded_rule and its depths: 40 halvings resolve the
# |u|^s cusp of a line integral at every s > 0 (2,624 nodes); the s > 1
# integrand is Lipschitz, so 6 serve its tensor rule (448 per axis).
_GL_NODES = 32
_LINE_DEPTH = 40
_TENSOR_DEPTH = 6

_MAX_PROPOSALS_PER_DRAW = 10 ** 6

# A fill tests the chunks of consecutive short lanes together, up to this
# many proposals (pairs) per group; a lane whose chunk alone is larger is a
# group by itself.  No chunk is longer than _MAX_CHUNK_PAIRS pairs.  The
# sizes set only the scratch memory and the number of passes, never a value.
_GROUP_PROPOSALS = 8192
_MAX_CHUNK_PAIRS = 1 << 16

_NO_VALUES = np.empty(0)


class _NoiseSpec:
    """Defaults for noise laws without closed-form moments."""

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
        dim = require_int(self.dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        object.__setattr__(self, "dim", dim)

    def lane_draws(self, rngs):
        return _GaussianDraws(rngs, self.dim)

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

    def lane_draws(self, rngs):
        return _Expol2Draws(rngs, 2)

    def density(self, x):
        z = _expol2_z()
        return float(np.prod(_expol2_unnormalized(x))) / (z * z)

    def coordinate_density(self):
        z = _expol2_z()
        return (lambda u: _expol2_unnormalized(u) / z, _QUAD_BOX)


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


@functools.lru_cache(maxsize=1)
def _expol2_z():
    """Per-coordinate normalization of exp(-(u^2-1)^2), cached once."""
    u, w = _graded_rule(_QUAD_BOX, _LINE_DEPTH)
    return float(np.sum(w * _expol2_unnormalized(u)))


class _LaneDraws:
    """The draw streams of k lanes of one noise law, lane i drawing from
    rngs[i] only.  fill(ids, block) writes the next m draws of lane ids[j]
    into block[ids[j]], where block is a float64 (k, m, dim) array whose
    lane slabs are C-contiguous, such as the draw rows of a simulation
    window; a lane's fills of any sizes concatenate bit for bit to
    sample(spec, rng, count) of its generator.  Nothing is drawn unless the
    block has that form and the ids are distinct integers in [0, k)."""

    def __init__(self, rngs, dim):
        self._rngs = list(rngs)
        self._dim = dim

    def fill(self, ids, block):
        k, d = len(self._rngs), self._dim
        # A slab that is not C-contiguous would reshape(-1) to a silent copy;
        # block[:1] is one slab, whatever the stride between slabs.
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.ndim == 3 and block.shape[::2] == (k, d)
                and block[:1].flags.c_contiguous):
            raise ValueError(f"draws go into a float64 ({k}, m, {d}) array with "
                             f"C-contiguous lane slabs")
        ids = [require_int(i, "lane id") for i in ids]
        if len(set(ids)) < len(ids) or not all(0 <= i < k for i in ids):
            raise ValueError(f"lane ids must be distinct integers in [0, {k})")
        self._fill(ids, block)


class _GaussianDraws(_LaneDraws):
    """Standard normal draws; standard_normal gives the same values in
    pieces as in one call."""

    def _fill(self, ids, block):
        for i in ids:
            self._rngs[i].standard_normal(out=block[i])


class _Expol2Draws(_LaneDraws):
    """Expol2 draws of `dim` coordinates per row, by rejection.

    Proposal j of a lane is the pair of doubles 2j and 2j + 1 that its
    generator's random() gives after the draws are made.  The first, r, is
    the value u = r * (2 * box) - box, box = EXPOL2_BOX, which is how
    uniform(-box, box) rounds it; the second, v, is its acceptance uniform,
    and u is accepted when v <= exp(-(u^2 - 1)^2), since the envelope is 1.
    A lane's stream is its accepted values in proposal order, so fills read
    any number of pairs and still concatenate to the sample taken at once,
    for every bit generator.  proposals[i] counts the pairs lane i has read,
    which depends on the fills; a fill that would read more than
    _MAX_PROPOSALS_PER_DRAW pairs per value it writes raises.  Accepted
    values a fill does not need wait in the lane's `_ready`, so a lane holds
    O(m) values.

    Lanes are filled together: each lane still short of its m rows reads its
    next chunk of pairs from its own generator into its rows of a shared
    (pairs, 2) scratch, and the scaling, the test, the compress and the
    counts per lane run once per group of lanes (_test_group).
    """

    def __init__(self, rngs, dim):
        super().__init__(rngs, dim)
        self._ready = [_NO_VALUES] * len(self._rngs)
        self.proposals = [0] * len(self._rngs)

    def _fill(self, ids, block):
        budget = _MAX_PROPOSALS_PER_DRAW * block.shape[1] * self._dim
        limit = [p + budget for p in self.proposals]
        short = []  # (lane, its slab as a flat view, values written)
        for i in ids:
            flat = block[i].reshape(-1)  # a view, since the slab is C-contiguous
            ready = self._ready[i]
            n = ready.size
            if n > flat.size:
                flat[:] = ready[:flat.size]
                self._ready[i] = ready[flat.size:]
                continue
            if n:
                flat[:n] = ready
                self._ready[i] = _NO_VALUES
            if n < flat.size:
                short.append((i, flat, n))
        while short:
            wanting, short = short, []
            group, total = [], 0
            for i, flat, got in wanting:
                # Three pairs per value wanted, plus a margin: about a third
                # are accepted (Z / 6 = 0.329).  The chunk size sets only how
                # many pairs a fill reads, never a value.
                k = min(3 * (flat.size - got) + 256, _MAX_CHUNK_PAIRS)
                if self.proposals[i] + k > limit[i]:
                    raise ValueError("rejection sampler exceeded the proposal budget")
                if group and total + k > _GROUP_PROPOSALS:
                    short += self._test_group(group, total)
                    group, total = [], 0
                group.append((i, flat, got, k))
                total += k
            short += self._test_group(group, total)

    def _test_group(self, group, total):
        """Read and test one chunk of each (lane, flat, got, k) of group,
        `total` pairs in all: the lane's k pairs go into its rows of the
        scratch.  Accepted values go to the lane's slab from flat[got] on,
        and what the slab does not need to its `_ready`.  Returns the
        (lane, flat, got) of the lanes still short."""
        pairs = np.empty((total, 2))
        starts = []
        a = 0
        for i, _, _, k in group:
            starts.append(a)
            self._rngs[i].random(out=pairs[a:a + k])
            self.proposals[i] += k
            a += k
        u = pairs[:, 0]
        # Scaled in place as uniform(-box, box) scales random(): the same
        # bits, without uniform's temporaries.
        u *= 2 * EXPOL2_BOX
        u -= EXPOL2_BOX
        keep = pairs[:, 1] <= _expol2_unnormalized(u)
        accepted = u.compress(keep)
        short = []
        pos = 0
        for (i, flat, got, _), c in zip(group, np.add.reduceat(keep, starts).tolist()):
            n = min(c, flat.size - got)
            if n:
                flat[got:got + n] = accepted[pos:pos + n]
            if n < c:
                # A copy, so that the group's values are freed.
                self._ready[i] = accepted[pos + n:pos + c].copy()
            elif got + n < flat.size:
                short.append((i, flat, got + n))
            pos += c
        return short


def sample(spec, rng, count):
    """`count` i.i.d. draws of the noise law as a (count, dim) array: one
    lane's draws (spec.lane_draws) taken in one block.

    Deterministic given the generator state and count; rng ends at an
    unspecified position.
    """
    count = require_int(count, "count")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    block = np.empty((1, count, spec.dim))
    spec.lane_draws([rng]).fill([0], block)
    return block[0]


def density(spec, x):
    """Normalized density of the noise law at x, a point of shape (dim,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"x has shape {x.shape} but the noise has dim {spec.dim}")
    return spec.density(x)


def abs_moment(spec, s, method="quadrature", budget=10 ** 5, rng=None):
    """Compute E[||e||_s] for the given noise law.

    Parameters
    ----------
    spec : StdGaussian | Expol2
        Both have independent coordinates, so the quadrature integrates over
        one coordinate's density (spec.coordinate_density()).
    s : float
        Finite norm exponent; pseudonorm in (0, 1], l_s norm from 1 up.
    method : {"quadrature", "monte_carlo", "analytic"}
        quadrature: on the graded Gauss-Legendre rule, for s <= 1 one
            coordinate integral at depth 40 (2,624 nodes), for s > 1 (two
            coordinates) the depth-6 tensor rule (448^2 points).
            grid_size is the point count.
        monte_carlo: sample mean of ||e||_s with a standard error (needs rng).
        analytic: closed forms for the Gaussian law (s <= 1 or s = 2);
            spec.moment_method(s) names the method a law has at s.
    budget : int
        Monte Carlo sample count; ignored by the other methods.
    rng : numpy Generator, required for monte_carlo.
    """
    s = require_exponent(s)
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo requires a seeded generator")
        budget = require_int(budget, "budget")
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
        au = np.abs(u)
        value = 0.0
        # One panel of rows at a time, updated in place and summed without
        # matmul: a full N x N grid, more temporaries or a first BLAS call
        # would each raise the command's peak memory.  No node is 0.
        with np.errstate(over="ignore"):
            a = au ** s
            for i in range(0, u.size, _GL_NODES):
                block = a[i:i + _GL_NODES, None] + a
                if np.min(block) < SUBNORMAL_SAFE_SUM or np.isinf(np.max(block)):
                    pairs = np.broadcast_arrays(au[i:i + _GL_NODES, None], au)
                    block = s_norms(np.stack(pairs, axis=-1), s, axis=2)
                else:
                    block **= 1.0 / s
                block *= weighted[i:i + _GL_NODES, None]
                block *= weighted
                value += float(np.sum(block))
        return MomentEstimate(value, 0.0, "quadrature", s, grid_size=u.size ** 2)
    if method == "analytic":
        return MomentEstimate(spec.analytic_abs_moment(s), 0.0, "analytic", s)
    raise ValueError(f"unknown moment method {method!r}")
