"""Trajectory and ensemble simulation of X_t = f(X_{t-1}) + g(X_{t-1}) e_t.

Ensembles derive one independent seed per trajectory from a 64-bit finalizer
mix of the master seed, so results are a pure function of the configuration.
Every model family runs through the same loop over time, which advances all
live trajectories ("lanes") with one call of the family's lane kernel per
step; a single path is a one-lane run of it.  Diverged trajectories are
censored at their first offending step, never stepped again, and excluded
from later snapshot statistics while staying in the divergence counts.

Every run goes through one recurrence: blocks of _BLOCK_STEPS (128) steps,
each refilled by one noise.take_each call in which every live lane's draw
source writes the block's draws straight into that lane's rows of the block
window, with the snapshot rows gathered as the lanes pass the snapshot
times; no later pass aggregates whole paths.
simulate_ensemble(cfg) keeps only those rows and the divergence steps, so
it holds one (n_traj, _BLOCK_STEPS + 1, dim) window of states whatever the
horizon; simulate_ensemble(cfg, keep_paths=True), and so simulate_path,
also keep whole paths, O(n_traj * horizon) states.  Both give bit-identical
summaries.  The block length sets only memory and the per-block cost, never
a value: a draw source hands out one stream whatever the pieces (an Expol2
source the accepted values of its generator's consecutive pairs of
doubles), so every draw, state and summary is the same at any block length.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import draw_source, take_each
from .norms import require_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DEFAULT_DIVERGENCE_THRESHOLD = 1e9

# Time steps per block of the recurrence.
_BLOCK_STEPS = 128


def mix64(master_seed, index):
    """Per-trajectory seed: SplitMix64-style finalizer, bit-exact contract.

    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31
    """
    z = (int(master_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def require_seed(seed, name):
    """seed as an int if it is an integer (norms.require_int) in [0, 2^64),
    else a ValueError naming it: mix64 reduces a seed mod 2^64, so a wider
    one would run as another seed's ensemble."""
    try:
        if 0 <= require_int(seed, name) <= _MASK64:
            return int(seed)
    except ValueError:
        pass
    raise ValueError(f"{name} {seed!r} is not an integer in [0, 2^64)")


def _require_start(model, start):
    """start as a finite float array of the model's shape, else a ValueError."""
    x = model.require_state(start, "x0")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {start!r}")
    return x


def _check_run(model, noise_spec, x0, horizon, divergence_threshold):
    """(x0, horizon), a fixed x0 as a tuple of floats and horizon as an int,
    if horizon is an integer >= 1, a given threshold is positive, the noise
    rule holds and a fixed x0 passes _require_start."""
    horizon = require_int(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if divergence_threshold is not None and not divergence_threshold > 0:
        raise ValueError("divergence_threshold must be positive")
    model.require_noise(noise_spec)
    return x0 if callable(x0) else tuple(_require_start(model, x0).tolist()), horizon


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble description: model, noise, start, horizon and seeding.

    `x0` is either a fixed starting point or a callable rng -> point drawn
    once per trajectory from that trajectory's own stream.  A fixed x0 and
    the noise must both have the model's dimension, and every start point
    must be finite, so that every state a path keeps is finite.
    """

    model: object
    noise: object
    x0: object
    horizon: int
    n_traj: int
    snapshot_times: tuple
    master_seed: int
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD

    def __post_init__(self):
        x0, horizon = _check_run(self.model, self.noise, self.x0, self.horizon,
                                 self.divergence_threshold)
        object.__setattr__(self, "master_seed", require_seed(self.master_seed, "master_seed"))
        n_traj = require_int(self.n_traj, "n_traj")
        if n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        times = tuple(require_int(t, f"snapshot_times[{i}]")
                      for i, t in enumerate(self.snapshot_times))
        if not times:
            raise ValueError("snapshot_times must be nonempty")
        if list(times) != sorted(set(times)):
            raise ValueError("snapshot_times must be strictly increasing")
        if times[0] < 0 or times[-1] > horizon:
            raise ValueError("snapshot_times must lie in [0, horizon]")
        for name, value in (("x0", x0), ("horizon", horizon), ("n_traj", n_traj),
                            ("snapshot_times", times)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class PathResult:
    """One simulated path; `states` has a row per retained time step.

    A non-finite state truncates the path before the offending step; a
    finite state beyond the divergence threshold is kept as the last row.
    In both cases `divergence_step` is the first offending t.  `states` is a
    view into the (n_traj, horizon + 1, dim) buffer of its ensemble, which a
    kept run fills block by block, so kept paths hold O(n_traj * horizon)
    states; simulate_ensemble without keep_paths holds none of them.
    """

    states: np.ndarray
    diverged: bool
    divergence_step: Optional[int] = None


@dataclass(frozen=True)
class SnapshotStats:
    """Moment summary of the ensemble at one snapshot time."""

    time: int
    count: int
    mean: tuple
    second_moment: tuple
    norm_mean: float
    norm_q10: float
    norm_q50: float
    norm_q90: float


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Snapshot statistics plus divergence bookkeeping for one ensemble.

    `snapshot_samples[k]` holds the contributing states at snapshot k
    (trajectories censored at or before that time are excluded); counts
    satisfy diverged_count + (contributing at the last snapshot) = n_traj
    only when every divergence happens by that snapshot, so both are
    reported.  `paths` holds one PathResult per trajectory when the run kept
    whole paths, and is None otherwise.
    """

    n_traj: int
    snapshots: tuple
    snapshot_samples: tuple
    diverged_count: int
    divergence_steps: tuple
    paths: Optional[tuple] = None


def simulate_path(model, noise_spec, x0, horizon, seed,
                  divergence_threshold=None):
    """Simulate one path of length horizon+1 from the seeded noise stream.

    This is a one-lane kept run of the ensemble recurrence.  A non-finite
    state (including one produced by a non-finite f or g) truncates the path
    before the offending step; with a threshold, the first state whose l1
    norm exceeds it is kept as the final row.
    """
    horizon = _check_run(model, noise_spec, x0, horizon, divergence_threshold)[1]
    return _run_lanes(model, noise_spec, x0, horizon, (require_seed(seed, "seed"),),
                      divergence_threshold, keep_paths=True)[2][0]


def _run_lanes(model, noise_spec, x0, horizon, seeds, divergence_threshold,
               snapshot_times=(), keep_paths=False):
    """One path per seed, with the censoring rules of `simulate_path`.

    Each lane draws from its own stream: its start when x0 is callable, then
    its horizon draws, which its draw source writes into the window one
    block of at most _BLOCK_STEPS steps at a time, only while the lane is
    live.  Lane i lives in row i of the block window: window row 0 is its
    state at the block's start, and row s holds the block's draw s-1, which
    a kept run's step s overwrites with the state.  A kept run's window is
    buf[:, t0:t0 + steps + 1] of one (n, horizon + 1, dim) buffer; otherwise
    one (n, block + 1, dim) buffer is reused by every block, and holds only
    draws past row 0.

    Returns (samples, divergence steps, paths).  Sample k holds the states at
    snapshot_times[k] of the lanes still live then, in lane order: a lane
    leaves every snapshot at and after its divergence step.  paths is None
    unless keep_paths, and then one PathResult per seed, whose states are a
    view of the rows it keeps.  It checks only drawn starts (_require_start).
    """
    block = min(horizon, _BLOCK_STEPS)
    n = len(seeds)
    buf = np.empty((n, (horizon if keep_paths else block) + 1, model.dim))
    sources = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        buf[i, 0] = _require_start(model, x0(rng)) if callable(x0) else x0
        sources.append(draw_source(noise_spec, rng, horizon))
    kernel = model.lane_kernel()
    threshold = math.inf if divergence_threshold is None else divergence_threshold
    # A lane passes unexamined while its l1 norm is at most `limit`; a
    # non-finite norm never does.  Every lane passes if no coordinate's size
    # exceeds `quick`, since each l1 sum is then at most about limit / 2, so
    # a step computes the norms only when that test fails.
    limit = min(threshold, np.finfo(float).max)
    quick = limit / (2 * model.dim)
    rows = [horizon + 1] * n
    bad_steps = [None] * n
    lanes = np.arange(n)
    live = slice(None)  # indexes the live lanes of a window; all at first
    x = buf[:, 0].copy()
    snapshot_at = {t: k for k, t in enumerate(snapshot_times)}
    samples = [np.empty((0, model.dim))] * len(snapshot_at)
    if 0 in snapshot_at:
        samples[snapshot_at[0]] = x.copy()
    # Overflow to inf is the designed divergence signal here, not an anomaly.
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, horizon, block):
            steps = min(block, horizon - t0)
            window = buf[:, t0:t0 + steps + 1] if keep_paths else buf
            ids = lanes.tolist()
            take_each([sources[i] for i in ids], steps,
                      [window[i, 1:steps + 1] for i in ids])
            for s in range(1, steps + 1):
                t = t0 + s
                x = kernel(x, window[live, s])
                if keep_paths:  # a streamed run never reads a state back
                    window[live, s] = x
                # The maximum is NaN if any coordinate is.
                a = np.abs(x)
                if not np.maximum.reduce(a, axis=None) <= quick:
                    # The l1 norm summed left to right over the
                    # coordinates, which np.sum does not promise.
                    l1 = a[:, 0]
                    for j in range(1, a.shape[1]):
                        l1 = l1 + a[:, j]
                    if not np.maximum.reduce(l1) <= limit:
                        # A finite state whose norm alone overflows lives on.
                        truncated = ~np.all(np.isfinite(x), axis=1)
                        kept = ~truncated & (l1 > threshold)
                        dead = np.flatnonzero(truncated | kept)
                        for j in dead:
                            rows[lanes[j]] = t + int(kept[j])
                            bad_steps[lanes[j]] = t
                        if len(dead):
                            lanes = live = np.delete(lanes, dead)
                            x = np.delete(x, dead, axis=0)
                            if not len(lanes):
                                break
                if t in snapshot_at:
                    samples[snapshot_at[t]] = x.copy()
            if not len(lanes):
                break
    paths = tuple(
        PathResult(states=buf[i, :rows[i]], diverged=bad_steps[i] is not None,
                   divergence_step=bad_steps[i])
        for i in range(n)
    ) if keep_paths else None
    return tuple(samples), tuple(bad_steps), paths


def _quantiles(values, qs):
    """np.quantile(values, qs) of a 1-D array of norms (no NaN, no -0.0),
    written out step by step as numpy's default linear method computes it,
    so the bits agree wherever numpy's value is not NaN.  Beside an inf
    neighbour, where numpy may give NaN (inf - inf, or inf * 0), the
    quantile is the lower neighbour a where the weight t of the upper one is
    0, and the upper neighbour b where b is inf.  The first np.quantile call
    of a run imports numpy.ma, about 15 ms and 2 MiB."""
    n = values.size
    v = (n - 1) * np.asarray(qs)
    lo = np.floor(v)
    hi = lo + 1
    lo[v >= n - 1] = hi[v >= n - 1] = -1  # the largest value
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    ordered = np.sort(values)
    a, b, t = ordered[lo], ordered[hi], v - lo
    d = b - a
    lerp = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return np.where(t == 0, a, np.where(np.isinf(b), b, lerp))


def _snapshot_stats(time, rows):
    count = rows.shape[0]
    if count == 0:
        dim = rows.shape[1]
        nan = float("nan")
        return SnapshotStats(
            time=time, count=0, mean=(nan,) * dim, second_moment=(nan,) * dim,
            norm_mean=nan, norm_q10=nan, norm_q50=nan, norm_q90=nan,
        )
    # Without a threshold, live states may be finite but near the largest
    # double; their moments are then inf or NaN (inf - inf), which is their
    # value, not a fault.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(np.abs(rows), axis=1)
        q10, q50, q90 = _quantiles(norms, (0.1, 0.5, 0.9))
        return SnapshotStats(
            time=time,
            count=count,
            mean=tuple(float(v) for v in np.mean(rows, axis=0)),
            second_moment=tuple(float(v) for v in np.mean(rows ** 2, axis=0)),
            norm_mean=float(np.mean(norms)),
            norm_q10=float(q10),
            norm_q50=float(q50),
            norm_q90=float(q90),
        )


def simulate_ensemble(cfg, keep_paths=False):
    """Ensemble summary as a pure function of the configuration.

    The lanes advance in blocks of _BLOCK_STEPS steps and gather their
    snapshot rows as they go, so the ensemble holds O(n_traj * _BLOCK_STEPS)
    states whatever its horizon.  With keep_paths the summary's `paths` also
    holds every whole path, O(n_traj * horizon) states; nothing else in the
    summary changes.
    """
    seeds = [mix64(cfg.master_seed, i) for i in range(cfg.n_traj)]
    samples, steps, paths = _run_lanes(cfg.model, cfg.noise, cfg.x0, cfg.horizon,
                                       seeds, cfg.divergence_threshold,
                                       cfg.snapshot_times, keep_paths)
    return EnsembleSummary(
        n_traj=cfg.n_traj,
        snapshots=tuple(
            _snapshot_stats(t, rows) for t, rows in zip(cfg.snapshot_times, samples)
        ),
        snapshot_samples=samples,
        diverged_count=sum(1 for s in steps if s is not None),
        divergence_steps=steps,
        paths=paths,
    )


def snapshot_distance(sample_a, sample_b):
    """Max over coordinates of the two-sample Kolmogorov-Smirnov statistic."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("snapshot samples must be nonempty")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("snapshot samples must be (n, dim) with equal dim")
    return max(_ks_statistic(a[:, j], b[:, j]) for j in range(a.shape[1]))


def _ks_statistic(a, b):
    """Two-sample KS statistic from integer ECDF counts: with g = gcd(n1, n2),
    max |c1 * (n2 // g) - c2 * (n1 // g)| is exact and is divided once."""
    a = np.sort(a)
    b = np.sort(b)
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    c1 = np.searchsorted(a, pooled, side="right")
    c2 = np.searchsorted(b, pooled, side="right")
    g = math.gcd(n1, n2)
    h = int(np.max(np.abs(c1 * (n2 // g) - c2 * (n1 // g))))
    return h / (n1 // g * n2)
