import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergokit import noise
from ergokit.noise import (
    EXPOL2_BOX,
    Expol2,
    MomentEstimate,
    StdGaussian,
    abs_moment,
    density,
    draw_source,
    sample,
    take_each,
    _RejectionStream,
    _expol2_z,
    _gauss_legendre,
)
from ergokit.norms import s_norms

# Frozen reference values, precomputed with 30-digit quadrature and
# cross-checked against scipy.integrate before being baked in.
Z_REF = 1.9737321500898238
E_ABS_REF = 0.8273924393392819       # E|X| per coordinate
E_L1_REF = 1.6547848786785639        # E||e||_1 = 2 E|X|
E_S05_REF = 0.8750418393407426       # E|X|^0.5 per coordinate
E_S075_REF = 0.8450573544657344      # E|X|^0.75 per coordinate
# E||e||_s for two coordinates at s > 1, from mpmath.quad (tanh-sinh) at 25
# and again at 32 significant digits, agreeing in every digit kept here:
# 4 * int_0^4 p(u) int_0^4 (u^s + v^s)^(1/s) p(v) dv du / Z^2 with
# p(u) = exp(-(u^2 - 1)^2), Z = 2 int_0^4 p, breakpoints at 1 and at v = u.
E_S15_REF = 1.3548150185797296       # s = 1.5
E_L2_REF = 1.2370305581477301        # s = 2
E_S3_REF = 1.141895211641996         # s = 3
GAUSS_L2_REF = math.sqrt(math.pi / 2.0)
GAUSS_L1_2D_REF = 2.0 * math.sqrt(2.0 / math.pi)


def test_normalization_constant():
    assert abs(_expol2_z() - Z_REF) < 1e-15


def test_density_examples():
    z = _expol2_z()
    assert abs(density(Expol2(), (1.0, 1.0)) - 1.0 / z ** 2) < 1e-14
    assert abs(density(Expol2(), (0.0, 0.0)) - math.exp(-2.0) / z ** 2) < 1e-14
    assert abs(density(StdGaussian(2), (0.0, 0.0)) - 1.0 / (2.0 * math.pi)) < 1e-15


def test_density_integrates_to_one():
    # The trapezoid rule on [-4, 4]: the integrand is smooth and vanishes at
    # both ends, so the rule converges spectrally.  The nodes are 2^-6 apart,
    # so each is exact.
    u = np.linspace(-4.0, 4.0, 513)
    y = np.exp(-((u * u - 1.0) ** 2)) / _expol2_z()
    per_coord = float(2.0 ** -6 * (np.sum(y) - (y[0] + y[-1]) / 2.0))
    total = per_coord ** 2
    assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12


def test_gaussian_sample_clt_band():
    rng = np.random.default_rng(101)
    draws = sample(StdGaussian(2), rng, 10 ** 5)
    assert draws.shape == (10 ** 5, 2)
    band = 4.0 / math.sqrt(10 ** 5)
    assert np.all(np.abs(draws.mean(axis=0)) < band)


def test_expol2_sample_is_bimodal():
    rng = np.random.default_rng(103)
    draws = sample(Expol2(), rng, 10 ** 5)
    assert draws.shape == (10 ** 5, 2)
    assert np.all(np.abs(draws) <= 3.0)
    for j in (0, 1):
        col = draws[:, j]
        near_mode = np.mean((np.abs(col) > 0.8) & (np.abs(col) < 1.2))
        near_zero = np.mean(np.abs(col) < 0.2)
        assert near_mode > 2.0 * near_zero


def test_sample_deterministic_for_fixed_seed():
    a = sample(Expol2(), np.random.default_rng(7), 500)
    b = sample(Expol2(), np.random.default_rng(7), 500)
    assert np.array_equal(a, b)


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(Expol2(), np.random.default_rng(0), 0)


def test_rejection_acceptance_rate():
    rng = np.random.default_rng(107)
    want = 40000
    stream = _RejectionStream(rng, want, 1)
    stream.take(want)
    # The stream has accepted the values it handed out and those it holds,
    # out of every pair it read.
    assert stream.proposals >= 10 ** 5
    rate = (want + stream._ready.size) / stream.proposals
    assert Z_REF / 6.0 - 0.02 <= rate <= Z_REF / 6.0 + 0.02


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64)


@settings(max_examples=200, deadline=None)
@given(bits=st.sampled_from(_BIT_GENERATORS), seed=st.integers(0, 2 ** 64 - 1),
       count=st.integers(0, 3000),
       box=st.floats(min_value=5e-324, max_value=np.finfo(float).max / 2))
@example(bits=np.random.PCG64, seed=0, count=100, box=EXPOL2_BOX)
def test_scaled_random_doubles_are_uniform_bit_for_bit(bits, seed, count, box):
    # The rejection stream scales random() doubles in place; this is the
    # identity with numpy's uniform that keeps its draws unchanged.
    want = np.random.Generator(bits(seed)).uniform(-box, box, count)
    u = np.random.Generator(bits(seed)).random(count)
    u *= 2 * box
    u -= box
    assert np.array_equal(u, want)
    assert np.array_equal(np.random.Generator(bits(seed)).random(count),
                          np.random.Generator(bits(seed)).uniform(0.0, 1.0, count))


def _reference_expol2(rng, count):
    """The first `count` values of the Expol2 pair filter, written out: the
    generator's random() doubles in pairs, 1,000 pairs at a time, each pair a
    value uniform on [-3, 3] and its acceptance uniform."""
    out = np.empty(0)
    while out.size < count:
        d = rng.random(2000)
        u = -3.0 + 6.0 * d[0::2]
        out = np.concatenate([out, u[d[1::2] <= np.exp(-((u * u - 1.0) ** 2))]])
    return out[:count]


def _generator(bits, seed, start):
    """A fresh generator, or one that first drew a start the way a callable
    x0 does, or a 32-bit integer (which leaves half an output buffered)."""
    rng = np.random.Generator(bits(seed))
    if start == "uniform":
        rng.uniform(-2.0, 2.0, 2)
    elif start == "int32":
        rng.integers(0, 10, dtype=np.int32)
    return rng


def _pieces(take, cuts, count):
    edges = [0, *sorted(set(cuts)), count]
    return [take(b - a) for a, b in zip(edges, edges[1:]) if b > a]


_seeds = st.integers(0, 2 ** 63)
_bits = st.sampled_from(_BIT_GENERATORS)
_starts = st.sampled_from(("none", "uniform", "int32"))


@settings(max_examples=150, deadline=None)
@given(count=st.integers(1, 12000), bits=_bits, seed=_seeds, start=_starts,
       data=st.data())
# 30,000 values need about 91,000 pairs, so the whole take and its longest
# piece each read more than one chunk of the 2^16-pair cap.
@example(count=30000, bits=np.random.PCG64, seed=5, start="int32", data=None)
def test_expol2_stream_is_the_pair_filter(count, bits, seed, start, data):
    want = _reference_expol2(_generator(bits, seed, start), count)
    whole = _RejectionStream(_generator(bits, seed, start), count, 1)
    assert np.array_equal(whole.take(count).ravel(), want)
    if data is None:
        cuts = [1, 2, 1000, 4095, 4096, 4097, count - 1]
    else:
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=30))
    cuts = [c for c in cuts if 0 < c < count]
    stream = _RejectionStream(_generator(bits, seed, start), count, 1)
    pieces = _pieces(stream.take, cuts, count)
    assert np.array_equal(np.concatenate(pieces).ravel(), want)


@settings(max_examples=200, deadline=None)
@given(bits=_bits, seed=_seeds, start=_starts, count=st.integers(1, 400),
       data=st.data())
def test_expol2_pieces_read_only_pairs(bits, seed, start, count, data):
    # Whatever the pieces, a stream has read whole pairs from its generator,
    # and exactly the pairs it counts: the generator then continues with the
    # double after the last pair.
    stream = _RejectionStream(_generator(bits, seed, start), count, 2)
    cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=8))
    _pieces(stream.take, [c for c in cuts if 0 < c < count], count)
    rng = _generator(bits, seed, start)
    rng.random(2 * stream.proposals)
    assert stream._rng.random() == rng.random()


def test_expol2_draws_follow_the_law():
    # Empirical CDF of 2 * 10^5 coordinates against the quadrature CDF of
    # exp(-(u^2 - 1)^2) / Z on [-4, u] (64-point Gauss-Legendre; the
    # integrand is smooth), within 5 standard errors at each point.
    values = sample(Expol2(), np.random.default_rng(20260814), 10 ** 5).ravel()
    t, w = _gauss_legendre(64)
    n = values.size
    for u in np.arange(-2.0, 2.25, 0.5):
        half = (u + 4.0) / 2.0
        x = half * t + (u - 4.0) / 2.0
        cdf = half * float(np.sum(w * np.exp(-((x * x - 1.0) ** 2)))) / _expol2_z()
        sigma = math.sqrt(cdf * (1.0 - cdf) / n)
        assert abs(np.count_nonzero(values <= u) / n - cdf) <= 5.0 * sigma, u


_SOURCE_SPECS = {
    "expol2": Expol2(),
    "gaussian": StdGaussian(3),
}


def _want(spec, rng, count):
    """The sample of count draws, written out without a draw source."""
    if isinstance(spec, Expol2):
        return _reference_expol2(rng, 2 * count).reshape(count, 2)
    return rng.standard_normal((count, spec.dim))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SOURCE_SPECS)), count=st.integers(1, 6000),
       bits=_bits, seed=_seeds, start=_starts, data=st.data())
@example(name="expol2", count=2500, bits=np.random.PCG64, seed=5, start="int32",
         data=None)
def test_draw_source_pieces_concatenate_to_the_sample(name, count, bits, seed, start,
                                                      data):
    spec = _SOURCE_SPECS[name]
    want = _want(spec, _generator(bits, seed, start), count)
    if data is None:
        cuts = [1, 1000, count - 1]
    else:
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=30))
    cuts = [c for c in cuts if 0 < c < count]
    assert np.array_equal(sample(spec, _generator(bits, seed, start), count), want)
    source = draw_source(spec, _generator(bits, seed, start), count)
    got = np.concatenate(_pieces(source.take, cuts, count))
    assert got.shape == want.shape == (count, spec.dim)
    assert np.array_equal(got, want)
    assert source.left == 0
    with pytest.raises(ValueError, match="cannot take"):
        source.take(1)


_FILL_SPECS = {
    "gaussian": StdGaussian(3),
    "expol2": Expol2(),
    "gaussian-2d": StdGaussian(2),
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_FILL_SPECS)), bits=_bits,
       seed=_seeds, count=st.integers(1, 3000), data=st.data())
def test_draws_fill_caller_rows_in_place(name, bits, seed, count, data):
    # Pieces written into one lane's rows of a simulation-like window
    # concatenate bit for bit to the sample, and touch no other row.
    spec = _FILL_SPECS[name]
    want = sample(spec, np.random.Generator(bits(seed)), count)
    cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=20))
    edges = [0, *sorted({c for c in cuts if 0 < c < count}), count]
    window = np.full((2, count + 1, spec.dim), np.nan)
    source = draw_source(spec, np.random.Generator(bits(seed)), count)
    for a, b in zip(edges, edges[1:]):
        rows = window[1, a + 1:b + 1]
        assert source.take(b - a, rows) is rows
    assert np.array_equal(window[1, 1:], want)
    assert np.isnan(window[0]).all() and np.isnan(window[1, 0]).all()
    assert source.left == 0


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_FILL_SPECS)), bits=_bits, start=_starts,
       seeds=st.lists(_seeds, min_size=1, max_size=6), count=st.integers(1, 2500),
       # 1 puts each stream's chunk in a group of its own.
       group=st.sampled_from((1, 700, 8192)), data=st.data())
# Seven 128-row refills of 200-row streams, as in a short simulation.
@example(name="expol2", bits=np.random.PCG64, start="none", seeds=list(range(5)),
         count=200, group=8192, data=None)
def test_grouped_refill_matches_each_lane_alone(name, bits, start, seeds, count, group,
                                                data):
    # A refill of k lanes together writes each lane's sample bit for bit,
    # reading as many pairs as the lane taking the same pieces alone,
    # whatever the piece sizes and whichever lanes drop out between refills.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "_GROUP_PROPOSALS", group)
        _check_grouped_refill(_FILL_SPECS[name], bits, start, seeds, count, data)


def _check_grouped_refill(spec, bits, start, seeds, count, data):
    k = len(seeds)

    def sources():
        return [draw_source(spec, _generator(bits, seed, start), count) for seed in seeds]

    together, alone = sources(), sources()
    window = np.full((k, count, spec.dim), np.nan)
    if data is None:
        drop, cuts = [count] * k, list(range(128, count, 128))
    else:
        drop = data.draw(st.lists(st.integers(1, count), min_size=k, max_size=k))
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=12))
    edges = [0, *sorted({c for c in cuts if 0 < c < count}), count]
    for a, b in zip(edges, edges[1:]):
        live = [i for i in range(k) if drop[i] > a]
        if not live:
            break
        rows = [window[i, a:b] for i in live]
        got = take_each([together[i] for i in live], b - a, rows)
        assert all(g is r for g, r in zip(got, rows, strict=True))
        for i in live:
            alone[i].take(b - a)
    for i, seed in enumerate(seeds):
        stop = next(b for b in edges if b >= drop[i])
        want = _want(spec, _generator(bits, seed, start), count)
        assert np.array_equal(window[i, :stop], want[:stop])
        assert np.isnan(window[i, stop:]).all()
        assert together[i].left == alone[i].left == count - stop
        if isinstance(spec, Expol2):
            assert together[i].proposals == alone[i].proposals


def test_grouped_refill_refuses_what_take_refuses():
    # Nothing is drawn unless every source and every out can take the piece.
    def sources():
        return [draw_source(Expol2(), np.random.default_rng(s), 10) for s in (1, 2)]

    group = sources()
    outs = [np.empty((4, 2)), np.empty((4, 2))[::-1]]
    with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
        take_each(group, 4, outs)
    with pytest.raises(ValueError, match="1 outs for 2 sources"):
        take_each(group, 4, outs[:1])
    with pytest.raises(ValueError, match="cannot take 11 draws with 10 left"):
        take_each(group, 11)
    with pytest.raises(ValueError, match="distinct sources"):
        take_each([group[0], group[0]], 4)
    with pytest.raises(ValueError, match="the sources of one noise law"):
        take_each([group[0], draw_source(StdGaussian(2), np.random.default_rng(3), 10)], 4)
    assert [source.left for source in group] == [10, 10]
    got = take_each(group, 10)
    assert all(np.array_equal(g, s.take(10)) for g, s in zip(got, sources()))
    assert take_each([], 3) == []


@pytest.mark.parametrize("name", sorted(_FILL_SPECS))
def test_draws_refuse_rows_they_cannot_fill_in_place(name):
    spec = _FILL_SPECS[name]
    d = spec.dim
    refused = [
        np.empty((8, d))[::2],                   # every other row
        np.empty((4, 2 * d))[:, :d],             # half of each row
        np.empty((d, 4)).T,                      # column-major (d > 1)
        np.empty((4, d + 1)),                    # misshaped
        np.empty((5, d)),                        # more rows than taken
        np.empty(4 * d),                         # flat
        np.empty((4, d), dtype=np.float32),      # another dtype
        [[0.0] * d] * 4,                         # not an array
    ]
    source = draw_source(spec, np.random.default_rng(5), 10)
    for out in refused:
        with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
            source.take(4, out)
    # A refused destination takes no draw.
    assert source.left == 10
    assert np.array_equal(source.take(10), sample(spec, np.random.default_rng(5), 10))


def test_expol2_stream_keeps_the_proposal_budget(monkeypatch):
    # With a budget of one pair per value, a sample of 5,000 rows may read
    # 10,000 pairs: its first chunk would read more, and pieces of 100 rows
    # reach the budget within 50 pieces.  The take that would pass it
    # raises.
    monkeypatch.setattr(noise, "_MAX_PROPOSALS_PER_DRAW", 1)
    with pytest.raises(ValueError, match="proposal budget"):
        sample(Expol2(), np.random.default_rng(3), 5000)
    source = draw_source(Expol2(), np.random.default_rng(3), 5000)
    with pytest.raises(ValueError, match="proposal budget"):
        for _ in range(50):
            source.take(100)


def test_quadrature_moments_match_frozen_values():
    est = abs_moment(Expol2(), 1.0, method="quadrature")
    assert est.std_error == 0.0
    assert est.method == "quadrature"
    assert est.s == 1.0
    assert est.grid_size == 2624
    assert abs(est.value - E_L1_REF) < 1e-13
    assert 1.64 <= est.value <= 1.68
    assert abs(abs_moment(Expol2(), 0.5, "quadrature").value - 2 * E_S05_REF) < 1e-13
    assert abs(abs_moment(Expol2(), 0.75, "quadrature").value - 2 * E_S075_REF) < 1e-13
    assert abs(abs_moment(StdGaussian(2), 1.0, "quadrature").value - GAUSS_L1_2D_REF) < 1e-13


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.05, 1.0), dim=st.integers(1, 3))
@example(s=0.05, dim=2)
@example(s=1.0, dim=2)
def test_pseudonorm_quadrature_matches_gaussian_closed_form(s, dim):
    # |u|^s has a cusp at the origin that the depth-40 grading resolves at
    # every s; adaptive Simpson could not (it raised here already at s = 0.5).
    spec = StdGaussian(dim)
    want = abs_moment(spec, s, "analytic").value
    got = abs_moment(spec, s, "quadrature").value
    assert abs(got - want) <= 1e-13 * want


def test_quadrature_l2_moment_two_dims():
    est = abs_moment(Expol2(), 2.0, method="quadrature")
    assert abs(est.value - E_L2_REF) < 1e-10
    assert est.grid_size == 448 ** 2
    est = abs_moment(StdGaussian(2), 2.0, method="quadrature")
    assert abs(est.value - GAUSS_L2_REF) < 1e-10


@pytest.mark.parametrize("s, want", [(1.5, E_S15_REF), (3.0, E_S3_REF)])
def test_quadrature_s_moment_two_dims(s, want):
    est = abs_moment(Expol2(), s, method="quadrature")
    assert abs(est.value - want) < 1e-10
    assert est.grid_size <= 250_000


def _tensor_moment_by_s_norms(spec, s):
    """The s > 1 tensor rule with each pair's norm taken by norms.s_norms,
    summed per panel of _GL_NODES rows as abs_moment sums."""
    dens, box = spec.coordinate_density()
    u, w = noise._graded_rule(box, noise._TENSOR_DEPTH)
    weighted = w * dens(u)
    value = 0.0
    for i in range(0, u.size, noise._GL_NODES):
        pairs = np.stack(np.broadcast_arrays(u[i:i + noise._GL_NODES, None], u), axis=-1)
        block = s_norms(pairs, s, axis=-1) * weighted[i:i + noise._GL_NODES, None]
        value += float(np.sum(block * weighted))
    return value


@pytest.mark.parametrize("spec", [Expol2(), StdGaussian(2)], ids=["expol2", "gaussian"])
@pytest.mark.parametrize("s", [300.0, 600.0, 1e4])
def test_quadrature_moment_at_large_s_rescales_the_pair_norms(spec, s):
    # |u|^s underflows from small s on and overflows from s = 512 at the
    # box edge |u| = 4; the pair norms are rescaled as s_norms rescales, so
    # the moment stays finite and exact to the rule, without a warning.
    got = abs_moment(spec, s, method="quadrature").value
    want = _tensor_moment_by_s_norms(spec, s)
    assert abs(got - want) <= 1e-12 * want


def test_gauss_legendre_matches_numpy():
    from numpy.polynomial.legendre import leggauss

    x, w = _gauss_legendre(32)
    want_x, want_w = leggauss(32)
    # Within 2 ulp of 1, the scale of the rule (|x| <= 1, sum w = 2).  Per
    # entry numpy's smallest weights, from an eigenvalue solve, are some 470
    # of their own ulps from the exact ones; the Newton weights are closer.
    eps = np.finfo(float).eps
    assert np.max(np.abs(x - want_x)) <= 2 * eps
    assert np.max(np.abs(w - want_w)) <= 2 * eps
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_analytic_gaussian_moments():
    est = abs_moment(StdGaussian(2), 2.0, method="analytic")
    assert est.method == "analytic"
    assert abs(est.value - GAUSS_L2_REF) < 1e-15
    assert abs(abs_moment(StdGaussian(2), 1.0, "analytic").value - GAUSS_L1_2D_REF) < 1e-15
    with pytest.raises(ValueError):
        abs_moment(Expol2(), 2.0, method="analytic")
    with pytest.raises(ValueError):
        abs_moment(StdGaussian(2), 3.0, method="analytic")


def test_chi_mean_closed_form_at_every_dim():
    # Up to dim 342 the gamma ratio itself, bit for bit; from 343 on, where
    # Gamma((dim + 1) / 2) overflows, a value within 1e-12 of mpmath.
    for dim in range(1, 343):
        want = math.sqrt(2.0) * math.gamma((dim + 1.0) / 2.0) / math.gamma(dim / 2.0)
        assert StdGaussian(dim).analytic_abs_moment(2.0) == want
    mpmath = pytest.importorskip("mpmath")
    for dim in (343, 10_000):
        with mpmath.workdps(40):
            ref = float(mpmath.sqrt(2) * mpmath.gamma(mpmath.mpf(dim + 1) / 2)
                        / mpmath.gamma(mpmath.mpf(dim) / 2))
        assert StdGaussian(dim).analytic_abs_moment(2.0) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("s, method", [
    (0.3, "analytic"), (1.0, "analytic"), (1.5, "quadrature"), (2.0, "analytic"),
    (3.0, "quadrature"),
])
def test_moment_method_names_the_closed_forms(s, method):
    spec = StdGaussian(2)
    assert spec.moment_method(s) == method
    assert Expol2().moment_method(s) == "quadrature"
    est = abs_moment(spec, s, method=method)
    assert est.method == method
    assert est.value == pytest.approx(abs_moment(spec, s, "quadrature").value, rel=1e-11)
    if method == "quadrature":
        with pytest.raises(ValueError, match="s <= 1 and s = 2 only"):
            abs_moment(spec, s, method="analytic")


def test_monte_carlo_agrees_with_quadrature():
    quad = abs_moment(Expol2(), 1.0, method="quadrature")
    mc = abs_moment(
        Expol2(), 1.0, method="monte_carlo", budget=10 ** 5,
        rng=np.random.default_rng(113),
    )
    assert mc.sample_count == 10 ** 5
    assert mc.std_error > 0.0
    assert abs(mc.value - quad.value) <= 3.0 * mc.std_error


def test_monte_carlo_deterministic():
    a = abs_moment(Expol2(), 1.0, "monte_carlo", budget=2000, rng=np.random.default_rng(5))
    b = abs_moment(Expol2(), 1.0, "monte_carlo", budget=2000, rng=np.random.default_rng(5))
    assert a == b


def test_monte_carlo_scaling_monotonicity():
    budget = 50000
    base = abs_moment(
        Expol2(), 1.0, "monte_carlo", budget=budget, rng=np.random.default_rng(127)
    )
    draws = sample(Expol2(), np.random.default_rng(131), budget)
    c = 2.5
    scaled = np.abs(c * draws).sum(axis=1)
    scaled_mean = float(scaled.mean())
    scaled_se = float(scaled.std(ddof=1) / math.sqrt(budget))
    combined = 3.0 * (c * base.std_error + scaled_se)
    assert abs(scaled_mean - c * base.value) <= combined


def test_tensor_quadrature_rejected_beyond_two_dims():
    # s <= 1 separates into one coordinate integral at any dim; the s > 1
    # tensor rule is written for two coordinates.
    abs_moment(StdGaussian(3), 1.0, method="quadrature")
    with pytest.raises(ValueError, match="supported only for dim 2"):
        abs_moment(StdGaussian(3), 1.5, method="quadrature")


def test_moment_estimate_validation():
    with pytest.raises(ValueError):
        MomentEstimate(-1.0, 0.0, "quadrature", 1.0)
    with pytest.raises(ValueError):
        MomentEstimate(1.0, -1.0, "quadrature", 1.0)
    with pytest.raises(ValueError):
        MomentEstimate(1.0, 0.0, "bootstrap", 1.0)
    with pytest.raises(ValueError):
        abs_moment(Expol2(), -1.0)
    with pytest.raises(ValueError):
        abs_moment(Expol2(), 1.0, method="monte_carlo", rng=None)
