"""Structural non-degeneracy checks and the drift criterion for geometric
ergodicity.

The drift side verifies gamma = b_f + b_g * E[||e||_s] < 1 for envelope
constants (a_f, b_f, a_g, b_g) bounding ||f(x)||_s and the induced s-norm
of g(x) outside the ball {||x||_s <= M}, with the moment taken at the
envelope's own s on one path for both families (_report): the noise law's
closed form where it has one at s, quadrature otherwise.  A shell envelope
is a line fit by alternating tangents to exact draws from the shell
{M < ||x||_s <= R}.  The structural side checks that the volatility's
singular set is thin enough for the chain to smooth it out.  Everything here
is a sufficient condition: a failed check never demonstrates non-ergodicity.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import (
    AffineMap,
    BekkArch,
    REGION_EVERYWHERE_SINGULAR,
    REGION_ON_L,
    ThresholdAffine2D,
    bekk_b_eigenvalues,
    bekk_line_normal,
)
from .noise import Expol2, StdGaussian, abs_moment, sample
from .norms import (
    frobenius_norm,
    induced_norm_bounds,
    require_exponent,
    require_int,
    s_norms,
    vector_s_norm,
)
from .simulate import require_seed

VERDICT_MET = "sufficient_condition_met"
VERDICT_FAILED = "condition_failed"
VERDICT_INCONCLUSIVE = "inconclusive"

SOURCE_ANALYTIC_THRESHOLD = "analytic_threshold_formula"
SOURCE_ANALYTIC_BEKK = "analytic_bekk_frobenius"
SOURCE_USER = "user_supplied"
SOURCE_SHELL = "shell_estimated"

_ENVELOPE_SOURCES = (
    SOURCE_ANALYTIC_THRESHOLD,
    SOURCE_ANALYTIC_BEKK,
    SOURCE_USER,
    SOURCE_SHELL,
)

# Relative zero tolerance for the algebraic != 0 checks; coefficients are
# user-entered exact decimals, so this only absorbs representation noise.
_STRUCTURAL_REL_TOL = 1e-12

# Positive floors keeping fitted envelopes inside the type invariants.
_ENVELOPE_FLOOR = 1e-12

# Skeleton steps _bekk_structural probes for an escape from the line L.
_SKELETON_HORIZON = 20


@dataclass(frozen=True)
class DriftEnvelope:
    """Constants (s, a_f, b_f, a_g, b_g, M) of the drift condition.

    Outside the ball ||x||_s <= M they must satisfy ||f(x)||_s <= a_f + b_f ||x||_s
    and |||g(x)|||_s <= a_g + b_g ||x||_s, where |||.|||_s is the norm induced
    by the s-norm (any c with ||g(x) e||_s <= c ||e||_s for all e), so that a
    user-supplied b_g must bound the induced norm, not a column norm, at s > 1.
    """

    s: float
    a_f: float
    b_f: float
    a_g: float
    b_g: float
    m_ball: float
    source: str

    def __post_init__(self):
        require_exponent(self.s)
        vals = (self.a_f, self.b_f, self.a_g, self.b_g, self.m_ball)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("envelope constants must be finite")
        if min(self.a_f, self.b_f) < 0:
            raise ValueError("a_f and b_f must be nonnegative")
        if min(self.a_g, self.b_g, self.m_ball) <= 0:
            raise ValueError("a_g, b_g and M must be strictly positive")
        if self.source not in _ENVELOPE_SOURCES:
            raise ValueError(f"unknown envelope source {self.source!r}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named structural check with its witness values."""

    name: str
    passed: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class SkeletonProbe:
    """Result of iterating the deterministic skeleton from one seed."""

    start: tuple
    escaped: bool
    escape_step: Optional[int] = None
    witness_det: Optional[float] = None


@dataclass(frozen=True)
class DriftRatioEstimate:
    """Monte Carlo estimate of E[V(X_1) | X_0 = x] / V(x)."""

    value: float
    std_error: float
    sample_count: int


@dataclass(frozen=True)
class ErgodicityReport:
    """Structural check results, drift coefficient, and the verdict."""

    structural: tuple
    gamma: float
    noise_moment: object
    envelope: DriftEnvelope
    verdict: str
    notes: str


def threshold_envelope(model):
    """Global drift envelope for the threshold family, from the coefficients'
    induced norm bounds (s = 1; the bounds hold for every x, so M = 1 is valid).

    On C the volatility's state-scaled part is diag(d_c), elsewhere d_main,
    so b_g is the larger of their bounds.  A norm that overflows is inf,
    without a numpy warning, and DriftEnvelope refuses it."""
    if not isinstance(model, ThresholdAffine2D):
        raise ValueError("threshold_envelope expects a ThresholdAffine2D model")
    s = model.analytic_envelope_s
    with np.errstate(over="ignore"):
        b_f, b_main, b_c = induced_norm_bounds(
            (model.b_mat, model.d_main, np.diag(model.d_c)), s).tolist()
        return DriftEnvelope(
            s=s,
            a_f=vector_s_norm(model.a, s),
            b_f=b_f,
            a_g=max(vector_s_norm(model.d_const, s), _ENVELOPE_FLOOR),
            b_g=max(b_main, b_c, _ENVELOPE_FLOOR),
            m_ball=1.0,
            source=SOURCE_ANALYTIC_THRESHOLD,
        )


def _bekk_envelope(model):
    """Global drift envelope for BEKK with an affine f at s = 2 (M = 1): b_f, a_f
    are the largest singular value of f's matrix and its offset norm, and the
    Frobenius identity bounds the volatility by a_g = sqrt(tr B), b_g = |||A|||_F."""
    if not isinstance(model.f, AffineMap):
        raise ValueError("an explicit envelope is required when f is not an affine map")
    s = model.analytic_envelope_s
    return DriftEnvelope(
        s=s,
        a_f=math.hypot(*model.f.offset),
        b_f=float(induced_norm_bounds((model.f.matrix,), s)[0]),
        a_g=max(math.sqrt(max(float(np.trace(model.b_mat)), 0.0)), _ENVELOPE_FLOOR),
        b_g=max(frobenius_norm(model.a_mat), _ENVELOPE_FLOOR),
        m_ball=1.0,
        source=SOURCE_ANALYTIC_BEKK,
    )


def _fit_linear_envelope(radii, values, mid, floor_a):
    """Lowest line a + b * r at the shell midpoint `mid` lying above all the
    (r, v) samples (arrays), over the slopes 0, max v/r and that of the
    upper-hull edge spanning `mid`, each clamped at 0 and given its least
    intercept a >= 0; ties prefer the smaller slope.  The positive floors
    keep the envelope inside the type invariants and only ever raise it.

    The edge joins a sample with r <= mid to one with r > mid.  Tangents
    alternate between the sides (from a left sample the largest slope to the
    right ones, from that one the smallest slope back) while the line's
    height at `mid` rises strictly, which also ends them on collinear samples.
    """
    slopes = {0.0, float(np.max(values / radii))}
    left = radii <= mid
    r_l, v_l, r_r, v_r = radii[left], values[left], radii[~left], values[~left]
    if r_l.size and r_r.size:
        i, height = int(np.argmax(v_l)), -math.inf
        while True:
            j = int(np.argmax((v_r - v_l[i]) / (r_r - r_l[i])))
            i = int(np.argmin((v_r[j] - v_l) / (r_r[j] - r_l)))
            b = (v_r[j] - v_l[i]) / (r_r[j] - r_l[i])
            at_mid = v_l[i] + b * (mid - r_l[i])
            if not at_mid > height:
                break
            height = at_mid
        slopes.add(max(0.0, float(b)))
    lines = [(max(0.0, float(np.max(values - b * radii))), b) for b in slopes]
    a, b = min(lines, key=lambda line: (line[0] + line[1] * mid, line[1]))
    return max(a, floor_a), max(b, _ENVELOPE_FLOOR)


def _sample_shell(rng, dim, s, m_ball, radius, n_samples):
    """Exact uniform draws from the shell {m_ball < ||x||_s <= radius}; call
    under np.errstate.  In the homogeneous norm (sum |x_i|^s)^(1/s), whose
    s-th power is the pseudonorm below s = 1, the shell is (lo, hi].  A
    uniform point is rho * g / (sum |g_i|^s)^(1/s) (Barthe, Guedon, Mendelson
    & Naor, Ann. Probab. 33, 2005) for g_i = +-Gamma(1 + 1/s)^(1/s) * U(0, 1),
    of density ~ exp(-|t|^s) and scaled in logs by the row's largest |g_i| so
    no power overflows, and rho of density ~ rho^(dim - 1) on [lo, hi]."""
    lo, hi = (m_ball, radius) if s >= 1.0 else np.power((m_ball, radius), 1.0 / s)
    if not math.isfinite(hi):
        raise ValueError(f"cannot sample the shell at s={s:g}: its outer radius "
                         f"{radius:g}^(1/s) is not a finite double")
    u = rng.uniform(-1.0, 1.0, (n_samples, dim))
    log_g = (np.log(rng.standard_gamma(1.0 + 1.0 / s, (n_samples, dim))) / s
             + np.log(np.abs(u)))
    g = np.sign(u) * np.exp(log_g - np.max(log_g, axis=1, keepdims=True))
    c = (lo / hi) ** dim
    rho = hi * (c + (1.0 - c) * rng.random(n_samples)) ** (1.0 / dim)
    return g * (rho / np.sum(np.abs(g) ** s, axis=1) ** (1.0 / s))[:, None]


def shell_estimate_envelope(model, s, m_ball, radius, n_samples, seed):
    """Sample-based envelope fit over the shell {M < ||x||_s <= R}.

    The result is advisory: a sampled supremum is not a bound, so the
    envelope is marked shell_estimated and can never support a
    sufficient_condition_met verdict.  Raises ValueError naming s when the
    draws' outer radius, or a sample's radius, f or g norm, is not a finite
    double; they are computed with numpy warnings off.
    """
    s = require_exponent(s)
    if not (radius > m_ball > 0):
        raise ValueError("need radius > M > 0")
    n_samples = require_int(n_samples, "n_samples")
    if n_samples < 10 ** 3:
        raise ValueError("need at least 1000 shell samples")
    rng = np.random.default_rng(require_seed(seed, "seed"))
    with np.errstate(all="ignore"):
        xs = _sample_shell(rng, model.dim, s, m_ball, radius, n_samples)
        f_x, g_x = model.lane_terms(xs)
        radii = s_norms(xs, s, axis=1)
        f_vals = s_norms(f_x, s, axis=1)
        g_vals = induced_norm_bounds(g_x, s)
    if not all(np.all(np.isfinite(v)) for v in (radii, f_vals, g_vals)):
        raise ValueError(f"cannot fit the shell envelope at s={s:g}: a sample's "
                         "radius, f norm or g norm is not a finite double")
    if np.max(f_vals) <= 0.0:
        raise ValueError("degenerate shell sample: f vanishes on every draw")
    if np.max(g_vals) <= 0.0:
        raise ValueError("degenerate shell sample: g vanishes on every draw")
    mid = 0.5 * (m_ball + radius)
    a_f, b_f = _fit_linear_envelope(radii, f_vals, mid, 0.0)
    a_g, b_g = _fit_linear_envelope(radii, g_vals, mid, _ENVELOPE_FLOOR)
    return DriftEnvelope(
        s=s, a_f=a_f, b_f=b_f, a_g=a_g, b_g=b_g, m_ball=m_ball,
        source=SOURCE_SHELL,
    )


def drift_gamma(envelope, moment):
    """Drift coefficient gamma = b_f + b_g * E[||e||_s]."""
    if float(moment.s) != float(envelope.s):
        raise ValueError(
            f"moment exponent s={moment.s} does not match envelope s={envelope.s}"
        )
    return envelope.b_f + envelope.b_g * moment.value


def check_coefexpol(model):
    """Non-degeneracy of the constant volatility column against both
    state-scaled columns: d11*d42 - d21*d41 != 0 and d31*d42 - d32*d41 != 0."""
    if not isinstance(model, ThresholdAffine2D):
        raise ValueError("check_coefexpol expects a ThresholdAffine2D model")
    ((d11, _), (d21, _)) = model.d_main
    d31, d32 = model.d_c
    d41, d42 = model.d_const
    w1 = abs(d11 * d42 - d21 * d41)
    w2 = abs(d31 * d42 - d32 * d41)
    coeffs = [*model.a, *(v for row in model.b_mat for v in row),
              *(v for row in model.d_main for v in row), *model.d_c, *model.d_const]
    tol = _STRUCTURAL_REL_TOL * (1.0 + max(abs(c) for c in coeffs))
    return CheckResult(
        name="coefexpol",
        passed=w1 > tol and w2 > tol,
        witnesses=(("main_column_witness", w1), ("c_column_witness", w2)),
    )


def _check_d_main_nonsingular(model):
    ((d11, d12), (d21, d22)) = model.d_main
    det = d11 * d22 - d12 * d21
    coeffs = [v for row in model.d_main for v in row]
    tol = _STRUCTURAL_REL_TOL * (1.0 + max(abs(c) for c in coeffs))
    return CheckResult(
        name="d_main_nonsingular",
        passed=abs(det) > tol,
        witnesses=(("det_d_main", det),),
    )


def probe_skeleton_reachability(model, seeds, horizon):
    """Iterate the noiseless skeleton x -> f(x) from each seed and report the
    first step whose volatility determinant is bounded away from zero.

    A diagnostic aid, not a proof: escaping says the deterministic flow
    leaves the degenerate set, from where the noise has full-rank directions.
    """
    horizon = require_int(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    results = []
    for seed in seeds:
        x = np.asarray(seed, dtype=float)
        probe = SkeletonProbe(start=tuple(float(v) for v in x), escaped=False)
        for t in range(1, horizon + 1):
            x = model.eval_f(x)
            det = model.g_determinant(x)
            # x * x overflows quietly, as eval_f does: the bound is then inf.
            with np.errstate(over="ignore"):
                bound = 1e-8 * (1.0 + float(np.sum(x * x)))
            if abs(det) > bound:
                probe = SkeletonProbe(
                    start=probe.start, escaped=True, escape_step=t, witness_det=det
                )
                break
        results.append(probe)
    return tuple(results)


def empirical_drift_check(model, noise_spec, x, s, n_mc, seed):
    """Monte Carlo estimate of E[V(X_1) | X_0 = x] / V(x) for V = 1 + ||.||_s."""
    s = require_exponent(s)
    n_mc = require_int(n_mc, "n_mc")
    if n_mc < 10 ** 3:
        raise ValueError("need at least 1000 Monte Carlo draws")
    x = model.require_state(x)
    model.require_noise(noise_spec)
    draws = sample(noise_spec, np.random.default_rng(require_seed(seed, "seed")), n_mc)
    nxt = model.lane_kernel()(np.broadcast_to(x, draws.shape), draws)
    v1 = 1.0 + s_norms(nxt, s, axis=1)
    v0 = 1.0 + vector_s_norm(x, s)
    value = float(np.mean(v1)) / v0
    stderr = float(np.std(v1, ddof=1) / math.sqrt(n_mc)) / v0
    return DriftRatioEstimate(value=value, std_error=stderr, sample_count=n_mc)


def _verdict(structural, gamma, envelope):
    if any(not c.passed for c in structural) or not gamma < 1.0:
        return VERDICT_FAILED
    if envelope.source == SOURCE_SHELL:
        return VERDICT_INCONCLUSIVE
    return VERDICT_MET


def _report(structural, noise_spec, envelope, extra_notes):
    """Both families' report: E[||e||_s] at envelope.s by the noise law's
    moment_method(s), gamma by drift_gamma, the verdict and the notes."""
    s = envelope.s
    moment = abs_moment(noise_spec, s, method=noise_spec.moment_method(s))
    gamma = drift_gamma(envelope, moment)
    verdict = _verdict(structural, gamma, envelope)
    return ErgodicityReport(
        structural=structural,
        gamma=gamma,
        noise_moment=moment,
        envelope=envelope,
        verdict=verdict,
        notes=_compose_notes(envelope, moment, gamma, verdict, extra_notes),
    )


_SUFFICIENT_ONLY_NOTE = (
    "the criterion is sufficient only: a failed check or gamma >= 1 never "
    "demonstrates non-ergodicity"
)


def _compose_notes(envelope, moment, gamma, verdict, extra):
    parts = [
        f"envelope source: {envelope.source}",
        f"moment method: {moment.method}",
        f"gamma = b_f + b_g * E[||e||_s] = {envelope.b_f:.17g} + "
        f"{envelope.b_g:.17g} * {moment.value:.17g} = {gamma:.17g}",
        _SUFFICIENT_ONLY_NOTE,
    ]
    if verdict == VERDICT_MET:
        parts.append(
            "structural non-degeneracy plus the drift bound gamma < 1 "
            "together imply geometric ergodicity of the chain"
        )
    if envelope.source == SOURCE_SHELL:
        parts.append(
            "shell-estimated envelopes are sample-based, not proofs; the "
            "verdict is capped at inconclusive"
        )
    if extra:
        parts.append(extra)
    return "; ".join(parts)


def _bekk_structural(model):
    """BEKK's PSD, degeneracy-locus and skeleton-escape checks."""
    (w_min, _), _ = bekk_b_eigenvalues(model.b_mat)
    kind, normal = bekk_line_normal(model.a_mat, model.b_mat)
    c1, c2 = normal if kind == REGION_ON_L else (float("nan"), float("nan"))
    checks = [
        CheckResult(name="b_psd", passed=True, witnesses=(("min_eigenvalue", w_min),)),
        CheckResult(name="degeneracy_locus", passed=kind != REGION_EVERYWHERE_SINGULAR,
                    witnesses=(("c1", c1), ("c2", c2))),
    ]
    if kind == REGION_ON_L:
        scale = math.hypot(c1, c2)
        direction = (-c2 / scale, c1 / scale)
        seeds = [direction, tuple(-v for v in direction)]
        probes = probe_skeleton_reachability(model, seeds, _SKELETON_HORIZON)
        checks.append(
            CheckResult(
                name="skeleton_escape",
                passed=all(p.escaped for p in probes),
                witnesses=tuple(
                    (f"escape_step_seed{i}", float(p.escape_step if p.escaped else -1))
                    for i, p in enumerate(probes)
                ),
            )
        )
    return tuple(checks)


def check_model(model, noise_spec=None, envelope=None, extra_notes=""):
    """Full sufficient-condition report, and the one place that branches on
    the model family: a ThresholdAffine2D model gets check_coefexpol and
    _check_d_main_nonsingular (Expol2 and threshold_envelope by default), a
    BekkArch model _bekk_structural (StdGaussian(2) and _bekk_envelope, which
    needs an affine f), then _report.  Raises ValueError for any other model
    and for a noise law of another dim."""
    if isinstance(model, ThresholdAffine2D):
        structural = (check_coefexpol(model), _check_d_main_nonsingular(model))
        noise_spec = noise_spec or Expol2()
        envelope = envelope or threshold_envelope(model)
    elif isinstance(model, BekkArch):
        envelope = envelope or _bekk_envelope(model)
        structural = _bekk_structural(model)
        noise_spec = noise_spec or StdGaussian(2)
    else:
        raise ValueError("check_model expects a ThresholdAffine2D or BekkArch model, "
                         f"got {type(model).__name__}")
    model.require_noise(noise_spec)
    return _report(structural, noise_spec, envelope, extra_notes)
