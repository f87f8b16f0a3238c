import copy
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergokit import simulate
from ergokit.config import builtin_configs, validate_config
from ergokit.ergodicity import empirical_drift_check, shell_estimate_envelope
from ergokit.models import AffineMap, BekkArch, GenericModel, ThresholdAffine2D, step
from ergokit.noise import Expol2, StdGaussian, sample
from ergokit.simulate import (
    _BLOCK_STEPS,
    EnsembleSummary,
    SimulationConfig,
    _quantiles,
    _snapshot_stats,
    mix64,
    simulate_ensemble,
    simulate_path,
    snapshot_distance,
)

# SplitMix64-style finalizer, frozen reference triples (master, index, seed).
MIX64_REFERENCE = (
    (0, 0, 16294208416658607535),
    (0, 1, 7960286522194355700),
    (20260814, 0, 11659246549464438061),
    (20260814, 199, 15910749215141267597),
    (2 ** 64 - 1, 7, 4638043754431676516),
)


def make_threshold(b_mat=((0.2, 0.1), (0.1, 0.3)),
                   d_main=((0.1, -0.15), (-0.15, 0.1)),
                   d_c=(0.2, -0.25)):
    return ThresholdAffine2D(a=(0.0, 0.0), b_mat=b_mat, d_main=d_main,
                             d_c=d_c, d_const=(1.0, 1.0))


def noise_only_model():
    return GenericModel(dim=2, f=lambda x: np.zeros(2), g=lambda x: np.eye(2))


def test_mix64_reference_values():
    for master, index, expected in MIX64_REFERENCE:
        assert mix64(master, index) == expected
    # Distinct indices under one master give distinct streams.
    seeds = {mix64(42, i) for i in range(1000)}
    assert len(seeds) == 1000



# Every entry point that takes a seed holds it to the one seed rule before
# it draws: numpy would refuse -1 without naming the seed, and take 2^64 + 5.
_SEEDED = {
    "simulate_path": lambda seed: simulate_path(make_threshold(), Expol2(), (0.0, 0.0), 3, seed),
    "shell_estimate_envelope": lambda seed: shell_estimate_envelope(
        make_threshold(), 1.0, 1.0, 30.0, 1000, seed),
    "empirical_drift_check": lambda seed: empirical_drift_check(
        make_threshold(), Expol2(), (1.0, 1.0), 1.0, 1000, seed),
}


@pytest.mark.parametrize("entry", list(_SEEDED))
def test_seeded_entry_points_hold_the_seed_rule(entry):
    run = _SEEDED[entry]
    for seed in (-1, 2 ** 64, 2 ** 64 + 5, True, 1.5):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"seed {seed!r} is not an integer in [0, 2^64)") + "$"):
            run(seed)
    for seed in (0, 2 ** 64 - 1):
        run(seed)

# The longer horizon writes the path through many block windows (17 of 128
# steps, or 5 of 512), with Expol2 leftovers carried across the block
# boundaries.
@pytest.mark.parametrize("horizon", [50, 2051])
def test_simulate_path_matches_step_composition(horizon):
    m = make_threshold()
    res = simulate_path(m, Expol2(), (0.5, -0.25), horizon, seed=123)
    assert res.states.shape == (horizon + 1, 2)
    assert not res.diverged
    # Reconstruct with the generic step operator and the same draws.
    rng = np.random.default_rng(123)
    draws = sample(Expol2(), rng, horizon)
    x = np.array([0.5, -0.25])
    for t in range(1, horizon + 1):
        x = step(m, x, draws[t - 1])
        assert np.array_equal(res.states[t], x)
    again = simulate_path(m, Expol2(), (0.5, -0.25), horizon, seed=123)
    assert np.array_equal(res.states, again.states)


def test_simulate_path_noise_only_is_iid():
    res = simulate_path(noise_only_model(), Expol2(), (3.0, 3.0), 20, seed=9)
    rng = np.random.default_rng(9)
    draws = sample(Expol2(), rng, 20)
    assert np.array_equal(res.states[1:], draws)


def test_simulate_path_affine_without_noise():
    silent = GenericModel(dim=2, f=lambda x: 0.5 * x + 1.0,
                          g=lambda x: np.zeros((2, 2)))
    res = simulate_path(silent, StdGaussian(2), (0.0, 0.0), 30, seed=0)
    x = np.zeros(2)
    for t in range(1, 31):
        x = 0.5 * x + 1.0
        assert res.states[t] == pytest.approx(x, rel=1e-15)
    # Converges to the fixed point 2.
    assert res.states[-1] == pytest.approx((2.0, 2.0), rel=1e-8)


def test_simulate_path_truncates_on_nonfinite():
    # f and g stay finite (so the model-level guards pass) but their
    # combination overflows double precision inside the step arithmetic.
    blower = GenericModel(dim=2, f=lambda x: np.full(2, 1.5e308),
                          g=lambda x: np.diag((1e308, 1e308)))
    res = simulate_path(blower, StdGaussian(2), (1.0, 1.0), 10, seed=1)
    assert res.diverged and res.divergence_step is not None
    # The non-finite state itself is not stored.
    assert res.states.shape[0] == res.divergence_step
    assert np.all(np.isfinite(res.states))


def test_generic_model_divergence_is_censored():
    # f overflows to inf after ~650 steps; the path is censored, not raised.
    tripler = GenericModel(1, lambda x: 3 * x, lambda x: np.eye(1))
    res = simulate_path(tripler, StdGaussian(1), (1.0,), 2000, 5,
                        divergence_threshold=None)
    assert res.diverged
    assert res.states.shape == (res.divergence_step, 1)
    assert np.all(np.isfinite(res.states))
    # A non-finite g counts the same way: x runs 0, 1, 2, 3, 4, and g(4) is
    # NaN, so step 5 diverges and the four finite steps are kept.
    nan_g = GenericModel(1, lambda x: np.abs(x) + 1.0,
                         lambda x: np.full((1, 1), np.nan if x[0] >= 4.0 else 0.0))
    res = simulate_path(nan_g, StdGaussian(1), (0.0,), 10, 1)
    assert res.divergence_step == 5
    assert res.states[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_generic_model_misshaped_value_still_raises():
    wide = GenericModel(2, lambda x: np.zeros(3), lambda x: np.eye(2))
    with pytest.raises(ValueError):
        simulate_path(wide, StdGaussian(2), (0.0, 0.0), 5, 1)


def _fold_of_step(model, x0, horizon, seed, threshold):
    """Reference censoring rule, written with `step` and numpy checks."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0(rng) if callable(x0) else x0, dtype=float)
    draws = sample(Expol2(), rng, horizon)
    rows = [x]
    with np.errstate(over="ignore"):
        for t in range(1, horizon + 1):
            x = step(model, x, draws[t - 1])
            if not np.all(np.isfinite(x)):
                return np.array(rows), t
            rows.append(x)
            if threshold is not None and float(np.sum(np.abs(x))) > threshold:
                return np.array(rows), t
    return np.array(rows), None


_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _threshold_from(coefs, scale):
    c = [scale * v for v in coefs]
    return ThresholdAffine2D(a=c[0:2], b_mat=(c[2:4], c[4:6]),
                             d_main=(c[6:8], c[8:10]), d_c=c[10:12],
                             d_const=(1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    coefs=st.lists(_unit, min_size=12, max_size=12),
    scale=st.sampled_from((0.3, 1.0, 40.0)),
    x0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    seed=st.integers(0, 2 ** 63),
    threshold=st.one_of(st.none(), st.floats(1.0, 1e12)),
)
# Non-finite truncation (no threshold, explosive coefficients) and a kept
# offending state (finite threshold crossed mid-run).
@example(coefs=[1.0] * 12, scale=40.0, x0=(1.0, 1.0), seed=3, threshold=None)
@example(coefs=[0.05] * 12, scale=40.0, x0=(1.0, 1.0), seed=4, threshold=1e6)
def test_simulate_path_is_fold_of_step(coefs, scale, x0, seed, threshold):
    m = _threshold_from(coefs, scale)
    res = simulate_path(m, Expol2(), x0, 200, seed, divergence_threshold=threshold)
    want, bad_step = _fold_of_step(m, x0, 200, seed, threshold)
    assert res.divergence_step == bad_step
    assert res.diverged == (bad_step is not None)
    assert np.array_equal(res.states, want)


def _assert_lanes_are_paths(cfg, threshold):
    """Each lane of the ensemble equals the one-path run of its seed and the
    fold of `step` over its draws; `threshold` is the one-path threshold
    (None where the ensemble has an infinite one)."""
    paths = simulate_ensemble(cfg, keep_paths=True).paths
    assert len(paths) == cfg.n_traj
    for i, lane in enumerate(paths):
        seed = mix64(cfg.master_seed, i)
        one = simulate_path(cfg.model, cfg.noise, cfg.x0, cfg.horizon, seed,
                            divergence_threshold=threshold)
        assert np.array_equal(lane.states, one.states)
        assert lane.diverged == one.diverged
        assert lane.divergence_step == one.divergence_step
        want, bad_step = _fold_of_step(cfg.model, cfg.x0, cfg.horizon, seed, threshold)
        assert lane.divergence_step == bad_step
        assert np.array_equal(lane.states, want)
    return paths


def _ensemble(model, horizon, n_traj, seed, threshold, x0=(0.0, 0.0)):
    return SimulationConfig(
        model=model, noise=Expol2(), x0=x0, horizon=horizon, n_traj=n_traj,
        snapshot_times=(horizon,), master_seed=seed,
        divergence_threshold=math.inf if threshold is None else threshold,
    )


def _bekk_from(coefs, scale, affine_f):
    """BEKK model with b_mat = L L^T (L lower triangular) and an affine mean,
    given as an AffineMap or as a plain callable."""
    c = [scale * v for v in coefs]
    l11, l21, l22 = c[4:7]
    f = AffineMap((c[7:9], c[9:11]), (c[11], c[0]))
    return BekkArch(
        f=f if affine_f else (lambda x: f(x)),
        a_mat=(c[0:2], c[2:4]),
        b_mat=((l11 * l11, l11 * l21), (l21 * l11, l21 * l21 + l22 * l22)),
    )


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(("threshold", "bekk", "bekk-callable")),
    coefs=st.lists(_unit, min_size=12, max_size=12),
    scale=st.sampled_from((0.3, 1.0, 40.0)),
    drawn_start=st.booleans(),
    seed=st.integers(0, 2 ** 63),
    n_traj=st.integers(1, 12),
    threshold=st.one_of(st.none(), st.floats(1.0, 1e12)),
)
def test_ensemble_lanes_are_single_paths(family, coefs, scale, drawn_start, seed,
                                         n_traj, threshold):
    x0 = (lambda rng: rng.uniform(-2.0, 2.0, 2)) if drawn_start else (0.5, -0.5)
    if family == "threshold":
        model = _threshold_from(coefs, scale)
    else:
        model = _bekk_from(coefs, scale, family == "bekk")
    cfg = _ensemble(model, 120, n_traj, seed, threshold, x0=x0)
    _assert_lanes_are_paths(cfg, threshold)


def test_ensemble_lanes_censored_at_different_steps():
    m = make_threshold(b_mat=((1.02, 0.0), (0.0, 1.02)))
    paths = _assert_lanes_are_paths(_ensemble(m, 300, 12, 11, 1000.0), 1000.0)
    steps = [p.divergence_step for p in paths]
    # Offending states are kept, at several different steps, while other
    # lanes run to the horizon.
    assert len({s for s in steps if s is not None}) >= 4
    assert None in steps
    for p in paths:
        if p.diverged:
            assert p.states.shape[0] == p.divergence_step + 1


def test_ensemble_lane_truncates_while_others_live_on():
    # Without a threshold the explosive lanes overflow to inf between steps
    # 1021 and 1032; the horizon falls in between.
    m = make_threshold(b_mat=((2.0, 0.0), (0.0, 2.0)))
    paths = _assert_lanes_are_paths(_ensemble(m, 1027, 12, 11, None), None)
    truncated = [p for p in paths if p.diverged]
    assert len({p.divergence_step for p in truncated}) >= 3
    assert 0 < len(truncated) < len(paths)
    for p in truncated:
        assert p.states.shape[0] == p.divergence_step
        assert np.all(np.isfinite(p.states))


# States at the edges of the per-step divergence test at threshold 1000,
# whose quick test passes every lane with no coordinate above 1000 / 4.
_NEXT = float(np.nextafter(1000.0, math.inf))
_EDGE_STATES = (
    (600.0, 400.0),         # l1 exactly at the threshold
    (500.0, _NEXT - 500.0),  # l1 the next double above it, summed
    (_NEXT, 0.0),           # the same in one coordinate
    (250.0, 250.0),         # every coordinate at 1000 / 4
    (300.0, -0.5),          # one coordinate past 1000 / 4, l1 inside
    (299.75, -700.0),       # l1 999.75
    (math.nan, 0.0),
    (math.inf, 0.0),
    (0.0, -math.inf),
    (1.7e308, -1.7e308),    # finite, with an l1 that overflows
)
_EDGE_STEPS = (1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1)


def _edge_f(x):
    """A lane starting at (-c, 0) counts its steps in x[1], turns into
    _EDGE_STATES[(c - 1) % 10] at step _EDGE_STEPS[(c - 1) // 10], and
    stays there."""
    if not x[0] < 0:
        return x
    k = int(-x[0]) - 1
    t = 1 - 4 * x[1]  # the step this call makes
    if t == _EDGE_STEPS[k // len(_EDGE_STATES)]:
        return np.array(_EDGE_STATES[k % len(_EDGE_STATES)])
    return np.array([x[0], -0.25 * t])


_EDGE = GenericModel(2, _edge_f, lambda x: np.zeros((2, 2)))


@pytest.mark.parametrize("threshold", [1000.0, None])
@pytest.mark.parametrize("kind", range(len(_EDGE_STATES)))
def test_divergence_test_at_its_edges(kind, threshold):
    # One ensemble per edge state, so that no other lane's state sends a
    # step to the exact test.
    horizon = _BLOCK_STEPS + 3
    codes = [kind + len(_EDGE_STATES) * j + 1 for j in range(len(_EDGE_STEPS))]

    def config():
        lanes = iter(codes)
        return _ensemble(_EDGE, horizon, len(codes), 31, threshold,
                         x0=lambda rng: (-float(next(lanes)), 0.0))

    state = _EDGE_STATES[kind]
    crosses = not all(map(math.isfinite, state)) or (
        threshold is not None and abs(state[0]) + abs(state[1]) > threshold)
    paths = simulate_ensemble(config(), keep_paths=True).paths
    for i, p in enumerate(paths):
        code = int(-p.states[0, 0])
        assert code in codes
        at = _EDGE_STEPS[(code - 1) // len(_EDGE_STATES)]
        assert p.divergence_step == (at if crosses else None)
        want, bad_step = _fold_of_step(_EDGE, tuple(p.states[0]), horizon,
                                       mix64(31, i), threshold)
        assert p.divergence_step == bad_step
        assert np.array_equal(p.states, want)
    streamed = simulate_ensemble(config())
    assert streamed.divergence_steps == tuple(p.divergence_step for p in paths)


def test_snapshot_stats_of_states_near_the_largest_double_do_not_warn():
    # Live lanes without a threshold may be finite with an inf l1 norm; their
    # moments overflow to inf, and the suite turns any RuntimeWarning into an
    # error.  A quantile between two inf norms is inf, where numpy's
    # interpolation inf - inf would give NaN.
    rows = np.array([[1e308, 1e308], [1e308, 1e308], [-1e308, -1e308], [1.0, 1.0]])
    stats = _snapshot_stats(5, rows)
    assert stats.mean == (math.inf, math.inf)
    assert stats.second_moment == (math.inf, math.inf)
    assert stats.norm_mean == math.inf
    assert (stats.norm_q10, stats.norm_q50, stats.norm_q90) == (math.inf,) * 3


@pytest.mark.parametrize("threshold", [1e6, None])
def test_bekk_ensemble_censors_divergence(threshold):
    # f = 3x and g of order 2|x|: every lane explodes from its drawn start
    # off the degenerate line x1 = x2.  With the finite threshold each lane
    # keeps its offending state; without one the volatility overflows to
    # non-finite entries and the lane is truncated.
    m = BekkArch(f=AffineMap(((3.0, 0.0), (0.0, 3.0)), (0.0, 0.0)),
                 a_mat=((2.0, 0.0), (0.0, 2.0)), b_mat=((1.0, 1.0), (1.0, 1.0)))
    cfg = _ensemble(m, 700, 6, 19, threshold, x0=lambda rng: rng.uniform(-1.0, 1.0, 2))
    for p in _assert_lanes_are_paths(cfg, threshold):
        assert p.diverged
        assert p.states.shape[0] == p.divergence_step + (threshold is not None)
        assert np.all(np.isfinite(p.states))


@pytest.mark.parametrize("threshold", [math.inf, 1e6])
def test_censored_lanes_are_not_stepped(threshold):
    # x -> x^2 blows up from |x0| > 1 and settles near 0 otherwise; f refuses
    # non-finite input and counts its calls.
    calls = []

    def f(x):
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"stepped a censored lane at x={x!r}")
        calls.append(1)
        return x * x

    model = GenericModel(1, f, lambda x: np.full((1, 1), 0.1))
    cfg = SimulationConfig(model=model, noise=StdGaussian(1),
                           x0=lambda rng: rng.uniform(-2.0, 2.0, 1), horizon=60,
                           n_traj=20, snapshot_times=(60,), master_seed=17,
                           divergence_threshold=threshold)
    summary = simulate_ensemble(cfg, keep_paths=True)
    paths = summary.paths
    steps = [p.divergence_step for p in paths]
    diverged = sum(s is not None for s in steps)
    assert 0 < diverged < len(paths)
    assert max(s for s in steps if s is not None) < 20
    # Each lane takes a step at each t up to its divergence step or the horizon.
    assert len(calls) == sum(60 if s is None else s for s in steps)
    assert summary.diverged_count == diverged
    assert summary.snapshots[-1].count == len(paths) - diverged


@pytest.mark.parametrize("model", [
    make_threshold(),
    BekkArch(f=AffineMap(((0.4, 0.0), (0.0, 0.4)), (1.0, 0.0)),
             a_mat=((0.3, 0.0), (0.0, 0.3)), b_mat=((1.0, 1.0), (1.0, 1.0))),
], ids=["threshold", "bekk"])
def test_ensemble_calls_lane_kernel_once_per_step(monkeypatch, model):
    # Guards against a silent fallback to stepping paths one at a time.
    blocks = []
    family = type(model)
    lane_kernel = family.lane_kernel

    def counting_lane_kernel(self):
        kernel = lane_kernel(self)

        def step(x, u):
            blocks.append(x.shape)
            return kernel(x, u)

        return step

    monkeypatch.setattr(family, "lane_kernel", counting_lane_kernel)
    cfg = _ensemble(model, 100, 50, 8, None)
    paths = simulate_ensemble(cfg, keep_paths=True).paths
    assert blocks == [(50, 2)] * 100
    assert all(p.states.shape == (101, 2) for p in paths)
    # A streamed run steps every lane at every step too: blocks of time
    # steps never split the lanes.
    blocks.clear()
    horizon = 2 * _BLOCK_STEPS + 100
    summary = simulate_ensemble(_ensemble(model, horizon, 50, 8, None))
    assert summary.diverged_count == 0
    assert blocks == [(50, 2)] * horizon


# Lane kinds of the streamed-ensemble test, by the first coordinate of the
# start: 0.5 stays put; -d counts up to 0 and turns non-finite at step d + 1
# (truncated there); c >= 1 counts up and crosses the threshold 1100.5 at
# step 1101 - c (kept there); 1e9 turns non-finite at step 1.  The second
# coordinate follows the noise scaled by 1e-3, so it never decides a
# crossing.
_B = _BLOCK_STEPS
_STARTS = (0.5, -(_B - 2.0), -(_B - 1.0), -float(_B), 1102.0 - _B, 1101.0 - _B,
           1100.0 - _B, 1.0e9)


def _counter_step(x):
    x1 = x[0]
    if x1 == 0.5:
        return np.array([0.5, 0.5 * x[1]])
    if x1 > 1e8:
        return np.array([math.nan, 0.0])
    return np.array([x1 + 1.0 if x1 < 0.0 or x1 >= 1.0 else math.nan, 0.5 * x[1]])


_COUNTER = GenericModel(2, _counter_step, lambda x: np.diag((0.0, 1e-3)))


def _gathered_summary(cfg, paths):
    """Summary of whole paths by the censoring rule, written out: a path
    leaves every snapshot at and after its divergence step."""
    samples = []
    for time in cfg.snapshot_times:
        rows = [p.states[time] for p in paths
                if p.divergence_step is None or time < p.divergence_step]
        samples.append(np.array(rows) if rows else np.empty((0, cfg.model.dim)))
    steps = tuple(p.divergence_step for p in paths)
    return EnsembleSummary(
        n_traj=len(paths),
        snapshots=tuple(_snapshot_stats(t, rows)
                        for t, rows in zip(cfg.snapshot_times, samples)),
        snapshot_samples=tuple(samples),
        diverged_count=sum(s is not None for s in steps),
        divergence_steps=steps,
    )


def _assert_same_summary(got, want):
    assert got.n_traj == want.n_traj
    assert got.divergence_steps == want.divergence_steps
    assert got.diverged_count == want.diverged_count
    # repr tells every float apart and gives nan == nan (empty snapshots).
    assert repr(got.snapshots) == repr(want.snapshots)
    assert len(got.snapshot_samples) == len(want.snapshot_samples)
    for a, b in zip(got.snapshot_samples, want.snapshot_samples):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("noise", [Expol2(), StdGaussian(2)], ids=["expol2", "gaussian"])
def test_streamed_ensemble_matches_whole_paths(noise):
    cfg = SimulationConfig(
        model=_COUNTER, noise=noise,
        x0=lambda rng: (rng.choice(_STARTS), rng.uniform(-1.0, 1.0)),
        horizon=2 * _B + 52, n_traj=40,
        snapshot_times=(0, 1, _B - 2, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 52),
        master_seed=23, divergence_threshold=1100.5,
    )
    whole = simulate_ensemble(cfg, keep_paths=True)
    paths = whole.paths
    want = _gathered_summary(cfg, paths)
    _assert_same_summary(whole, want)
    steps = [p.divergence_step for p in paths]
    # Lanes censored on both sides of the first block boundary, both ways.
    truncated = {p.divergence_step for p in paths if p.diverged
                 and p.states.shape[0] == p.divergence_step}
    kept = {p.divergence_step for p in paths if p.diverged
            and p.states.shape[0] == p.divergence_step + 1}
    assert {_B - 1, _B, _B + 1} <= truncated
    assert {_B - 1, _B, _B + 1} <= kept
    assert 1 in truncated and None in steps
    got = simulate_ensemble(cfg)
    assert got.divergence_steps == tuple(steps)
    _assert_same_summary(got, want)


def test_streamed_ensemble_matches_whole_paths_threshold():
    # The ergodic threshold model over several blocks, with Expol2 leftovers
    # carried across blocks; and an explosive one whose lanes all die.
    for b_mat, threshold in ((((0.2, 0.1), (0.1, 0.3)), 1e9), (((1.5, 0.0), (0.0, 1.5)), 1e6)):
        cfg = SimulationConfig(model=make_threshold(b_mat=b_mat), noise=Expol2(),
                               x0=(0.0, 0.0), horizon=3 * _B + 7, n_traj=13,
                               snapshot_times=(5, _B, 2 * _B + 1, 3 * _B + 7),
                               master_seed=99, divergence_threshold=threshold)
        got = simulate_ensemble(cfg)
        whole = simulate_ensemble(cfg, keep_paths=True)
        assert got.paths is None
        _assert_same_summary(whole, _gathered_summary(cfg, whole.paths))
        _assert_same_summary(got, _gathered_summary(cfg, whole.paths))
    assert got.diverged_count == 13 and got.snapshots[-1].count == 0


# Counter lanes censored on both sides of block edges: truncated (start
# -(t - 1)) and kept (start 1101 - t) at each step t of _EDGE_CENSORED, which
# brackets the edges of 128- and 512-step blocks and holds 511, an edge of
# 7-step blocks; 0.5 never diverges and 1e9 is truncated at step 1.
_EDGE_CENSORED = (127, 128, 129, 511, 512, 513)
_BLOCK_STARTS = (0.5, 1.0e9, *(-(t - 1.0) for t in _EDGE_CENSORED),
                 *(1101.0 - t for t in _EDGE_CENSORED))


@pytest.mark.parametrize("noise", [Expol2(), StdGaussian(2)], ids=["expol2", "gaussian"])
def test_the_block_length_decides_no_value(monkeypatch, noise):
    def config():
        starts = iter(_BLOCK_STARTS)
        return SimulationConfig(
            model=_COUNTER, noise=noise,
            x0=lambda rng: (next(starts), rng.uniform(-1.0, 1.0)), horizon=600,
            n_traj=len(_BLOCK_STARTS),
            snapshot_times=(0, 1, 7, 127, 128, 129, 511, 512, 513, 600),
            master_seed=37, divergence_threshold=1100.5)

    runs = {}
    for block in (1, 7, 128, 512):
        monkeypatch.setattr(simulate, "_BLOCK_STEPS", block)
        runs[block] = simulate_ensemble(config()), simulate_ensemble(config(), keep_paths=True)
    want, kept = runs[_BLOCK_STEPS]
    paths = kept.paths
    _assert_same_summary(want, _gathered_summary(config(), paths))
    truncated = {p.divergence_step for p in paths if p.diverged
                 and p.states.shape[0] == p.divergence_step}
    kept_last = {p.divergence_step for p in paths if p.diverged
                 and p.states.shape[0] == p.divergence_step + 1}
    assert truncated == {1, *_EDGE_CENSORED} and kept_last == set(_EDGE_CENSORED)
    for streamed, whole in runs.values():
        assert streamed.paths is None
        _assert_same_summary(streamed, want)
        _assert_same_summary(whole, want)
        for p, q in zip(whole.paths, paths, strict=True):
            assert p.divergence_step == q.divergence_step
            assert np.array_equal(p.states, q.states)


@pytest.mark.parametrize("noise, n_traj, horizons", [
    # 50 lanes over the trajectory dump cap at both horizons.  Whole paths
    # would take 50 * (T + 1) * 2 * 8 bytes: 1.6 MB and 16 MB.
    (Expol2(), 50, (2_000, 20_000)),
    # Gaussian draws go from each lane's generator straight into the
    # window; whole samples would take 0.48 MB and 3.2 MB.
    (StdGaussian(2), 10, (3_000, 20_000)),
], ids=["expol2", "gaussian"])
def test_streamed_ensemble_memory_does_not_grow_with_horizon(noise, n_traj, horizons):
    def peak(horizon):
        return _traced_peak(SimulationConfig(
            model=make_threshold(), noise=noise, x0=(0.0, 0.0), horizon=horizon,
            n_traj=n_traj, snapshot_times=(horizon // 2, horizon), master_seed=4,
            divergence_threshold=1e9))

    # The first run also pays one-time allocations, such as numpy's lazy
    # imports behind np.quantile; measure warm runs only.
    peak(1_100)
    short, long = map(peak, horizons)
    assert short < 2_000_000
    # The margin covers the accepted values each lane carries from one
    # block to the next, which depend on n_traj, not on T (under 0.1% here).
    assert long <= 1.25 * short


def _traced_peak(cfg):
    """Peak traced memory of one streamed simulate_ensemble(cfg), in bytes."""
    tracemalloc.start()
    try:
        simulate_ensemble(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_window_memory_bound():
    # 200 threshold lanes, as in example2-ergodic, streamed over three
    # blocks.  The peak is one (200, _BLOCK_STEPS + 1, 2) window, 0.41 MB,
    # plus what the lanes' draw sources hold (their generators and leftover
    # values) and one group's scratch of pairs: 1.08 MB with 128-step
    # blocks.  The bound leaves 20% above the measured peak.
    horizon = 3 * _BLOCK_STEPS
    cfg = SimulationConfig(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0),
                           horizon=horizon, n_traj=200,
                           snapshot_times=(horizon // 2, horizon), master_seed=4)
    _traced_peak(cfg)  # warm
    assert _traced_peak(cfg) < 1_300_000


def test_streamed_run_refills_each_live_lane_once_per_block(monkeypatch):
    # One grouped refill per block writes each live lane's block of draws
    # into its window rows, and a censored lane draws no later block.
    sources, refills = [], []
    draw_source, take_each = simulate.draw_source, simulate.take_each

    def recording_draw_source(*args):
        sources.append(draw_source(*args))
        return sources[-1]

    def recording_take_each(group, m, outs=None):
        refills.append(([id(source) for source in group], m, outs is not None))
        return take_each(group, m, outs)

    monkeypatch.setattr(simulate, "draw_source", recording_draw_source)
    monkeypatch.setattr(simulate, "take_each", recording_take_each)
    cfg = validate_config(builtin_configs()["example2-ergodic"])["simulation"]
    assert simulate_ensemble(cfg).diverged_count == 0
    blocks = -(-cfg.horizon // _BLOCK_STEPS)
    assert len(refills) == blocks
    taken = Counter(lane for group, _, _ in refills for lane in group)
    assert sum(taken.values()) == cfg.n_traj * blocks
    assert taken == Counter({id(source): blocks for source in sources})
    assert all(in_place for _, _, in_place in refills)

    # The censored-dump workload: 69 of 100 explosive lanes cross the
    # threshold, in several blocks (steps 257 to 998).
    sources.clear()
    refills.clear()
    doc = copy.deepcopy(builtin_configs()["example2-unit-root"])
    doc["model"]["B"] = [[1.02, 0.0], [0.0, 1.02]]
    doc["simulation"].update(n_traj=100, T=999, snapshots=[100, 999],
                             divergence_threshold=1e6)
    cfg = validate_config(doc)["simulation"]
    steps = simulate_ensemble(cfg).divergence_steps
    taken = Counter(lane for group, _, _ in refills for lane in group)
    assert [taken[id(source)] for source in sources] == [
        -(-(cfg.horizon if t is None else t) // _BLOCK_STEPS) for t in steps]
    censored = [t for t in steps if t is not None]
    assert len(censored) == 69
    assert len({-(-t // _BLOCK_STEPS) for t in censored}) > 1


def test_simulate_path_threshold_censoring():
    m = make_threshold(b_mat=((2.0, 0.0), (0.0, 2.0)))
    res = simulate_path(m, Expol2(), (1.0, 1.0), 50, seed=4,
                        divergence_threshold=100.0)
    assert res.diverged
    norms = np.sum(np.abs(res.states), axis=1)
    # The offending state is kept as the last row; all earlier rows are in.
    assert norms[-1] > 100.0
    assert np.all(norms[:-1] <= 100.0)
    assert res.states.shape[0] == res.divergence_step + 1


def test_simulate_path_sampled_start():
    draw_start = lambda rng: rng.uniform(-1.0, 1.0, 2)
    res = simulate_path(noise_only_model(), StdGaussian(2), draw_start, 5, seed=8)
    again = simulate_path(noise_only_model(), StdGaussian(2), draw_start, 5, seed=8)
    assert np.array_equal(res.states, again.states)
    assert np.all(np.abs(res.states[0]) <= 1.0)


def test_config_validation():
    base = dict(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0),
                horizon=100, n_traj=4, snapshot_times=(50, 100),
                master_seed=1)
    SimulationConfig(**base)
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "horizon": 0})
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "n_traj": 0})
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "snapshot_times": ()})
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "snapshot_times": (100, 50)})
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "snapshot_times": (50, 200)})
    with pytest.raises(ValueError):
        SimulationConfig(**{**base, "divergence_threshold": 0.0})



def test_dimension_mismatch_is_rejected():
    # Both configs used to be accepted, and the run then died inside the
    # threshold step (a TypeError for the start, a ValueError on unpacking
    # the draws).
    base = dict(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0),
                horizon=10, n_traj=2, snapshot_times=(10,), master_seed=1)
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\)"):
        SimulationConfig(**{**base, "x0": (0.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match="noise has dim 3"):
        SimulationConfig(**{**base, "noise": StdGaussian(3)})
    # A drawn start is checked when it is drawn, and a lone path checks too;
    # neither may broadcast a shorter value over the state.
    short_start = SimulationConfig(**{**base, "x0": lambda rng: rng.uniform(-1.0, 1.0, 1)})
    with pytest.raises(ValueError, match=r"x0 has shape \(1,\)"):
        simulate_ensemble(short_start, keep_paths=True).paths
    with pytest.raises(ValueError, match="noise has dim 1"):
        simulate_path(make_threshold(), StdGaussian(1), (0.0, 0.0), 10, 1)


def test_non_finite_start_is_rejected():
    # Row 0 of a path is its start, and only later rows pass the censoring
    # check, so a non-finite start would be a kept non-finite state.
    base = dict(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0),
                horizon=10, n_traj=2, snapshot_times=(10,), master_seed=1)
    with pytest.raises(ValueError, match="x0 must be finite"):
        SimulationConfig(**{**base, "x0": (math.inf, 0.0)})
    drawn = SimulationConfig(**{**base, "x0": lambda rng: np.array([0.0, math.nan])})
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate_ensemble(drawn, keep_paths=True).paths


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_simulate_path_refuses_a_threshold_the_config_refuses(threshold):
    # A lone path used to accept them: 0 and -1 censored every path at
    # step 1, and NaN turned censoring off.
    with pytest.raises(ValueError, match="divergence_threshold must be positive"):
        simulate_path(make_threshold(), Expol2(), (0.0, 0.0), 10, 1,
                      divergence_threshold=threshold)


def test_simulate_path_checks_its_inputs_as_the_config_does():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        simulate_path(make_threshold(), Expol2(), (0.0, 0.0), 0, 1)
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\) but the model has dim 2"):
        simulate_path(make_threshold(), Expol2(), (0.0, 0.0, 0.0), 10, 1)
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate_path(make_threshold(), Expol2(), (math.nan, 0.0), 10, 1)


# Run sizes and times are held to one integer rule: a float snapshot time
# used to run at its floor, a bool horizon or n_traj as 1, and a float
# horizon failed inside numpy.
@pytest.mark.parametrize("field, value, name, bad", [
    ("snapshot_times", (2.7, 4.9), "snapshot_times[0]", 2.7),
    ("snapshot_times", (2, 4.0), "snapshot_times[1]", 4.0),
    ("snapshot_times", (True, 4), "snapshot_times[0]", True),
    ("horizon", True, "horizon", True),
    ("horizon", 5.5, "horizon", 5.5),
    ("horizon", 10.0, "horizon", 10.0),
    ("n_traj", True, "n_traj", True),
    ("n_traj", 3.0, "n_traj", 3.0),
])
def test_run_sizes_are_held_to_the_integer_rule(field, value, name, bad):
    fields = dict(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0), horizon=10,
                  n_traj=3, snapshot_times=(2, 4), master_seed=1)
    fields[field] = value
    refused = pytest.raises(ValueError, match="^" + re.escape(
        f"{name} must be an integer, got {bad!r}") + "$")
    with refused:
        SimulationConfig(**fields)
    if field == "horizon":
        with refused:
            simulate_path(make_threshold(), Expol2(), (0.0, 0.0), value, 1)


def test_numpy_integer_run_sizes_are_held_as_ints():
    cfg = SimulationConfig(model=make_threshold(), noise=Expol2(), x0=(0.0, 0.0),
                           horizon=np.int64(10), n_traj=np.int32(3),
                           snapshot_times=np.array([2, 10]), master_seed=1)
    assert (cfg.horizon, cfg.n_traj, cfg.snapshot_times) == (10, 3, (2, 10))
    assert all(type(v) is int for v in (cfg.horizon, cfg.n_traj, *cfg.snapshot_times))
    assert simulate_ensemble(cfg).n_traj == 3
    assert simulate_path(make_threshold(), Expol2(), (0.0, 0.0), np.int64(3), 1).states.shape == (4, 2)


def test_simulate_path_draws_a_callable_start_from_its_own_stream():
    draw = lambda rng: rng.uniform(-1.0, 1.0, 2)
    path = simulate_path(make_threshold(), Expol2(), draw, 20, 7)
    assert path.states.shape == (21, 2)
    assert path.states[0].tolist() == draw(np.random.default_rng(7)).tolist()
    cfg = SimulationConfig(model=make_threshold(), noise=Expol2(), x0=draw, horizon=20,
                           n_traj=1, snapshot_times=(20,), master_seed=5)
    kept = simulate_ensemble(cfg, keep_paths=True).paths[0]
    again = simulate_path(cfg.model, cfg.noise, draw, 20, mix64(5, 0))
    assert np.array_equal(kept.states, again.states)

def test_ensemble_single_trajectory_reduces_to_path():
    cfg = SimulationConfig(model=make_threshold(), noise=Expol2(),
                           x0=(0.0, 0.0), horizon=50, n_traj=1,
                           snapshot_times=(25, 50), master_seed=5)
    summary = simulate_ensemble(cfg)
    path = simulate_path(cfg.model, cfg.noise, cfg.x0, cfg.horizon,
                         mix64(5, 0), divergence_threshold=cfg.divergence_threshold)
    for stats, time in zip(summary.snapshots, cfg.snapshot_times):
        assert stats.count == 1
        assert stats.mean == pytest.approx(tuple(path.states[time]), rel=0)


def test_all_diverged_before_first_snapshot_is_reported():
    m = make_threshold(b_mat=((3.0, 0.0), (0.0, 3.0)))
    cfg = SimulationConfig(model=m, noise=Expol2(), x0=(1.0, 1.0),
                           horizon=50, n_traj=4, snapshot_times=(50,),
                           master_seed=3, divergence_threshold=10.0)
    summary = simulate_ensemble(cfg)
    assert summary.diverged_count == 4
    assert summary.snapshots[0].count == 0
    assert math.isnan(summary.snapshots[0].norm_mean)
    assert all(s is not None for s in summary.divergence_steps)


def test_divergence_monotone_in_threshold():
    m = make_threshold(b_mat=((1.5, 0.0), (0.0, 1.5)))
    counts = []
    for threshold in (1e6, 1e3, 1e1):
        cfg = SimulationConfig(model=m, noise=Expol2(), x0=(1.0, 1.0),
                               horizon=100, n_traj=30, snapshot_times=(100,),
                               master_seed=13, divergence_threshold=threshold)
        counts.append(simulate_ensemble(cfg).diverged_count)
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] == 30


def test_snapshot_distance_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(31)
    for _ in range(300):
        n1, n2 = (int(n) for n in rng.integers(1, 300, 2))
        # One decimal place forces ties within and across the samples.
        a = np.round(rng.standard_normal((n1, 2)), 1)
        b = np.round(rng.standard_normal((n2, 2)) + rng.uniform(-1.0, 1.0), 1)
        want = max(float(stats.ks_2samp(a[:, j], b[:, j]).statistic)
                   for j in range(2))
        assert snapshot_distance(a, b) == want


# Snapshot l1 norms: nonnegative, possibly inf, never NaN.
_NORMS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(values=st.integers(1, 300).flatmap(lambda n: arrays(np.float64, n, elements=_NORMS)))
@example(values=np.array([2.0]))
@example(values=np.array([np.inf]))
@example(values=np.array([1.0, 1.0, 3.0, 3.0, 3.0, np.inf, np.inf]))
@example(values=np.linspace(0.0, 1.0, 11))
# An inf upper neighbour: numpy gives inf - inf at t >= 0.5 and
# a + inf * 0 where (n - 1) q is an integer.
@example(values=np.array([np.inf, 0.0]))
@example(values=np.array([0.0, 1.0, np.inf]))
@example(values=np.array([0.0, 0.0] + [np.inf] * 9))
def test_quantiles_match_numpy_bit_for_bit(values):
    # The values hold no NaN, so numpy's result is NaN only beside an inf
    # neighbour.  The quantile there is the lower neighbour where (n - 1) q
    # is an integer (its weight is 1), and inf otherwise.
    qs = (0.1, 0.5, 0.9)
    with np.errstate(invalid="ignore"):
        want = np.quantile(values, qs)
        got = _quantiles(values, qs)
    v = (values.size - 1) * np.array(qs)
    lower = np.sort(values)[np.floor(v).astype(int)]
    want = np.where(np.isnan(want), np.where(v == np.floor(v), lower, np.inf), want)
    assert got.tobytes() == want.tobytes()


def test_snapshot_distance_edges():
    zeros = np.zeros((40, 2))
    ones = np.ones((40, 2))
    assert snapshot_distance(zeros, zeros) == 0.0
    assert snapshot_distance(zeros, ones) == 1.0
    with pytest.raises(ValueError):
        snapshot_distance(np.empty((0, 2)), ones)
    with pytest.raises(ValueError):
        snapshot_distance(np.zeros((3, 2)), np.zeros((3, 3)))


def test_ergodic_model_stays_bounded_and_mixes():
    # 200 trajectories keep the two-sample KS noise floor ~0.1, well under
    # the 0.15 heuristic stationarity band.
    cfg = SimulationConfig(model=make_threshold(), noise=Expol2(),
                           x0=(0.0, 0.0), horizon=2000, n_traj=200,
                           snapshot_times=(1000, 2000), master_seed=2026)
    summary = simulate_ensemble(cfg)
    assert summary.diverged_count == 0
    # Distribution has settled: snapshots far apart look alike.
    ks = snapshot_distance(summary.snapshot_samples[0],
                           summary.snapshot_samples[1])
    assert ks <= 0.15
    assert summary.snapshots[-1].norm_q50 < 10.0


def test_unit_root_medians_grow():
    # Unit-root mean matrix: the chain wanders off; median norm rises with t
    # and gains at least 2x between t=1e2 and t=1e4.
    m = make_threshold(b_mat=((1.0, 0.0), (0.0, 1.0)))
    cfg = SimulationConfig(model=m, noise=Expol2(), x0=(0.0, 0.0),
                           horizon=10 ** 4, n_traj=50,
                           snapshot_times=(10 ** 2, 10 ** 3, 10 ** 4),
                           master_seed=414243)
    summary = simulate_ensemble(cfg)
    med = [s.norm_q50 for s in summary.snapshots]
    assert med[0] < med[1] < med[2]
    assert med[2] > 2.0 * med[0]


