import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergokit import noise
from ergokit.noise import (
    EXPOL2_BOX,
    BoundedCustomDensity,
    Expol2,
    MomentEstimate,
    StdGaussian,
    abs_moment,
    adaptive_simpson,
    density,
    draw_source,
    sample,
    _RejectionStream,
    _expol2_mask,
    _expol2_z,
    _gauss_legendre,
)

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


def test_adaptive_simpson_polynomial_exact():
    val, evals = adaptive_simpson(lambda u: u * u, 0.0, 3.0)
    assert abs(val - 9.0) < 1e-12
    assert evals >= 5


def test_adaptive_simpson_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda u: u, 1.0, 1.0)


def test_density_examples():
    z = _expol2_z()
    assert abs(density(Expol2(), (1.0, 1.0)) - 1.0 / z ** 2) < 1e-14
    assert abs(density(Expol2(), (0.0, 0.0)) - math.exp(-2.0) / z ** 2) < 1e-14
    assert abs(density(StdGaussian(2), (0.0, 0.0)) - 1.0 / (2.0 * math.pi)) < 1e-15


def test_density_integrates_to_one():
    z = _expol2_z()
    per_coord, _ = adaptive_simpson(
        lambda u: math.exp(-((u * u - 1.0) ** 2)) / z, -4.0, 4.0, tol=1e-12
    )
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
    want = 33000  # enough accepted values for ~1e5 proposals
    stream = _RejectionStream(rng, want, 1, 1, EXPOL2_BOX, _expol2_mask)
    stream.take(want)
    assert stream.proposals >= 10 ** 5
    rate = want / stream.proposals
    assert Z_REF / 6.0 - 0.02 <= rate <= Z_REF / 6.0 + 0.02


def test_rejection_guard_trips_for_misconfigured_density():
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: -60.0,
        box_halfwidth=1.0,
        envelope_constant=1.0,
    )
    with pytest.raises(ValueError):
        sample(spec, np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        draw_source(spec, np.random.default_rng(0), 1).take(1)


def test_rejection_guard_trips_for_a_density_above_its_envelope():
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: 1.0,
        box_halfwidth=1.0,
        envelope_constant=1.0,
    )
    with pytest.raises(ValueError, match="exceeds the declared envelope"):
        sample(spec, np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="exceeds the declared envelope"):
        draw_source(spec, np.random.default_rng(0), 10).take(10)


def test_rejection_guard_refuses_a_nan_density_at_once():
    # NaN never passes the envelope test, so no proposal would be accepted
    # and 1,000 draws would run 10^9 proposals before the budget trips.
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: math.nan,
        box_halfwidth=1.0,
        envelope_constant=1.0,
    )
    source = draw_source(spec, np.random.default_rng(0), 1000)
    with pytest.raises(ValueError, match="not a finite number or exceeds"):
        source.take(1000)
    assert source.proposals == 1024  # one round


def test_rejection_guard_refuses_a_density_beyond_the_largest_double_at_once():
    # math.exp overflows above about 709.78; such a density exceeds every
    # finite envelope, so it is refused like one, not with an OverflowError.
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: 1000.0,
        box_halfwidth=1.0,
        envelope_constant=1.0,
    )
    source = draw_source(spec, np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="exceeds the declared envelope"):
        source.take(10)
    assert source.proposals == 1024  # one round


# An infinite envelope accepts no proposal, so every draw would run the whole
# proposal budget; a non-finite box used to fail inside numpy at the first
# draw, and a NaN one passed the old `<= 0` test.
@pytest.mark.parametrize("field, value", [
    ("envelope_constant", math.inf),
    ("envelope_constant", math.nan),
    ("box_halfwidth", math.inf),
    ("box_halfwidth", math.nan),
])
def test_custom_density_refuses_a_non_finite_constant(field, value):
    args = dict(dim=1, log_unnormalized_density=lambda x: 0.0,
                box_halfwidth=1.0, envelope_constant=1.0)
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        BoundedCustomDensity(**{**args, field: value})


@pytest.mark.parametrize("box", [1e308, 0.9 * np.finfo(float).max])
def test_custom_density_refuses_a_box_whose_width_overflows(box):
    # Proposals are random() doubles scaled by the width 2 * box_halfwidth,
    # which must be finite, so half the largest double is the widest box.
    with pytest.raises(ValueError, match="box width 2 \\* box_halfwidth"):
        BoundedCustomDensity(dim=1, log_unnormalized_density=lambda x: 0.0,
                             box_halfwidth=box, envelope_constant=1.0)
    BoundedCustomDensity(dim=1, log_unnormalized_density=lambda x: 0.0,
                         box_halfwidth=np.finfo(float).max / 2, envelope_constant=1.0)


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64)


@settings(max_examples=200, deadline=None)
@given(bits=st.sampled_from(_BIT_GENERATORS), seed=st.integers(0, 2 ** 64 - 1),
       count=st.integers(0, 3000),
       box=st.floats(min_value=5e-324, max_value=np.finfo(float).max / 2))
@example(bits=np.random.PCG64, seed=0, count=100, box=EXPOL2_BOX)
def test_scaled_random_doubles_are_uniform_bit_for_bit(bits, seed, count, box):
    # The rejection stream proposes random() doubles scaled in place; this
    # is the identity with numpy's uniform that keeps its draws unchanged.
    want = np.random.Generator(bits(seed)).uniform(-box, box, count)
    u = np.random.Generator(bits(seed)).random(count)
    u *= 2 * box
    u -= box
    assert np.array_equal(u, want)
    assert np.array_equal(np.random.Generator(bits(seed)).random(count),
                          np.random.Generator(bits(seed)).uniform(0.0, 1.0, count))


def _reference_expol2(rng, count):
    """The Expol2 rejection loop as written before draw sources: (values,
    proposals, values accepted by the end of each round)."""
    out = np.empty(count)
    filled = 0
    proposals = 0
    ends = []
    while filled < count:
        k = count - filled
        u = rng.uniform(-3.0, 3.0, k)
        v = rng.uniform(0.0, 1.0, k)
        proposals += k
        t = u * u - 1.0
        accepted = u[v <= np.exp(-(t * t))]
        out[filled:filled + accepted.size] = accepted
        filled += accepted.size
        ends.append(filled)
    return out, proposals, ends


def _reference_custom(spec, rng, count):
    """The custom law's rejection loop as written before it was streamed:
    rounds of at least 1024 rows drawn whole, surplus accepted rows dropped."""
    out = np.empty((count, spec.dim))
    filled = 0
    while filled < count:
        k = max(count - filled, 1024)
        cand = rng.uniform(-spec.box_halfwidth, spec.box_halfwidth, (k, spec.dim))
        v = rng.uniform(0.0, 1.0, k)
        dens = np.array([math.exp(spec.log_unnormalized_density(row)) for row in cand])
        accepted = cand[v * spec.envelope_constant <= dens]
        take = min(len(accepted), count - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def _generator(seed, start):
    """A fresh generator, or one that first drew a start the way a callable
    x0 does, or a 32-bit integer (which leaves half an output buffered)."""
    rng = np.random.default_rng(seed)
    if start == "uniform":
        rng.uniform(-2.0, 2.0, 2)
    elif start == "int32":
        rng.integers(0, 10, dtype=np.int32)
    return rng


def _pieces(take, cuts, count):
    edges = [0, *sorted(set(cuts)), count]
    return [take(b - a) for a, b in zip(edges, edges[1:]) if b > a]


_seeds = st.integers(0, 2 ** 63)
_starts = st.sampled_from(("none", "uniform", "int32"))


@settings(max_examples=150, deadline=None)
@given(count=st.integers(1, 12000), seed=_seeds, start=_starts,
       data=st.data(), at_round_ends=st.booleans())
# Rounds of more than _WHOLE_ROUND proposals are split across a piece.
@example(count=9000, seed=5, start="int32", data=None, at_round_ends=True)
def test_expol2_stream_replays_the_rejection_rounds(count, seed, start, data,
                                                    at_round_ends):
    want, proposals, ends = _reference_expol2(_generator(seed, start), count)
    whole = _RejectionStream(_generator(seed, start), count, 1, 1, EXPOL2_BOX,
                             _expol2_mask)
    assert np.array_equal(whole.take(count).ravel(), want)
    assert whole.proposals == proposals
    if data is None:
        cuts = [1, 2, 1000, 4095, 4096, 4097, count - 1]
    else:
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=30))
    if at_round_ends:
        # Pieces that end exactly where a round's values end, or one off.
        cuts += [e + d for e in ends for d in (-1, 0, 1)]
    cuts = [c for c in cuts if 0 < c < count]
    stream = _RejectionStream(_generator(seed, start), count, 1, 1, EXPOL2_BOX,
                              _expol2_mask)
    pieces = _pieces(stream.take, cuts, count)
    assert np.array_equal(np.concatenate(pieces).ravel(), want)
    assert stream.proposals == proposals


_SOURCE_SPECS = {
    "expol2": Expol2(),
    "gaussian": StdGaussian(3),
    "custom": BoundedCustomDensity(
        dim=2, log_unnormalized_density=lambda x: -abs(float(x[0])) - abs(float(x[1])),
        box_halfwidth=2.0, envelope_constant=1.0,
    ),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SOURCE_SPECS)), count=st.integers(1, 6000),
       seed=_seeds, start=_starts, data=st.data())
# A custom round of more than _WHOLE_ROUND rows is split across pieces.
@example(name="custom", count=2500, seed=5, start="int32", data=None)
def test_draw_source_pieces_concatenate_to_the_sample(name, count, seed, start, data):
    spec = _SOURCE_SPECS[name]
    if name == "custom" and data is not None:
        count = min(count, 400)  # its density runs in Python, row by row
    # sample() is itself one piece of a source, so the reference is drawn
    # without one.
    rng = _generator(seed, start)
    if data is None:
        cuts = [1, 1000, count - 1]
    else:
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=30))
    if name == "gaussian":
        want = rng.standard_normal((count, spec.dim))
    elif name == "expol2":
        values, _, ends = _reference_expol2(rng, 2 * count)
        want = values.reshape(count, 2)
        # Pieces that end on a round boundary, in whole draws of 2 values.
        cuts += [e // 2 for e in ends] + [(e + 1) // 2 for e in ends]
    else:
        want = _reference_custom(spec, rng, count)
    cuts = [c for c in cuts if 0 < c < count]
    source = draw_source(spec, _generator(seed, start), count)
    got = np.concatenate(_pieces(source.take, cuts, count))
    assert got.shape == want.shape == (count, spec.dim)
    assert np.array_equal(got, want)
    assert source.left == 0
    with pytest.raises(ValueError, match="cannot take"):
        source.take(1)


@pytest.mark.parametrize("name", ["expol2", "custom"])
def test_rounds_are_drawn_whole_when_the_generator_cannot_advance(name):
    # MT19937 has no advance(), so no round is split; 3,000 draws still make
    # a first round of more than _WHOLE_ROUND proposals.
    spec, count = _SOURCE_SPECS[name], 3000

    def rng():
        return np.random.Generator(np.random.MT19937(11))

    if name == "expol2":
        want = _reference_expol2(rng(), 2 * count)[0].reshape(count, 2)
    else:
        want = _reference_custom(spec, rng(), count)
    source = draw_source(spec, rng(), count)
    got = np.concatenate(_pieces(source.take, [1, 1000, count - 1], count))
    assert np.array_equal(got, want)


def test_expol2_stream_keeps_the_proposal_budget(monkeypatch):
    # With a budget of one proposal per value, the second round exceeds it;
    # the stream raises at the end of that round, as the one-shot sampler
    # does, also when the round is split across pieces.
    monkeypatch.setattr(noise, "_MAX_PROPOSALS_PER_DRAW", 1)
    with pytest.raises(ValueError, match="proposal budget"):
        sample(Expol2(), np.random.default_rng(3), 5000)
    source = draw_source(Expol2(), np.random.default_rng(3), 5000)
    with pytest.raises(ValueError, match="proposal budget"):
        for _ in range(50):
            source.take(100)


def test_custom_density_sampling_and_normalization():
    # Truncated standard normal on [-4, 4] expressed as a custom density.
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: -0.5 * float(x[0]) ** 2,
        box_halfwidth=4.0,
        envelope_constant=1.0,
    )
    rng = np.random.default_rng(109)
    draws = sample(spec, rng, 20000)
    assert abs(float(draws.mean())) < 0.03
    assert abs(float(draws.std()) - 1.0) < 0.02
    # Normalization runs over the box only, so the reference value carries
    # the truncated-tail correction.
    want = 1.0 / (math.sqrt(2.0 * math.pi) * math.erf(4.0 / math.sqrt(2.0)))
    assert abs(density(spec, np.array([0.0])) - want) < 1e-6 * want


def test_custom_density_with_an_off_center_kink_normalizes():
    # exp(-|x - c|) kinks at c, away from the origin that the fixed graded
    # rule refines towards (it is 2.6e-5 off here); adaptive Simpson finds it.
    c = 0.7
    spec = BoundedCustomDensity(
        dim=1,
        log_unnormalized_density=lambda x: -abs(float(x[0]) - c),
        box_halfwidth=2.0,
        envelope_constant=1.0,
    )
    z = 2.0 - math.exp(-(2.0 - c)) - math.exp(-(2.0 + c))
    assert abs(density(spec, np.array([c])) * z - 1.0) < 1e-12


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


def test_quadrature_rejected_for_custom_density():
    spec = BoundedCustomDensity(
        dim=2,
        log_unnormalized_density=lambda x: -float(np.sum(x ** 4)),
        box_halfwidth=3.0,
        envelope_constant=1.0,
    )
    with pytest.raises(ValueError):
        abs_moment(spec, 1.0, method="quadrature")


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
