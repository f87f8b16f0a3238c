"""Structural non-degeneracy checks and the drift criterion for geometric
ergodicity.

The drift side verifies gamma = b_f + b_g * E[||e||_s] < 1 for envelope
constants (a_f, b_f, a_g, b_g) bounding ||f(x)||_s and the induced s-norm
of g(x) outside the ball {||x||_s <= M}.  The structural side checks that the
volatility's singular set is thin enough for the chain to smooth it out.
Everything here is a sufficient condition: a failed check never demonstrates
non-ergodicity.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import (
    BekkArch,
    REGION_EVERYWHERE_SINGULAR,
    REGION_ON_L,
    ThresholdAffine2D,
    bekk_b_eigenvalues,
    bekk_line_normal,
    eval_f,
    eval_g,
    g_determinant,
)
from .noise import Expol2, StdGaussian, _box_rejection, abs_moment, sample
from .norms import (
    frobenius_norm,
    induced_norm_bounds,
    matrix_col_sum_norm,
    operator_norm,
    s_norms,
    vector_s_norm,
)

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

# Skeleton steps check_bekk_model probes for an escape from the line L.
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
        vals = (self.s, self.a_f, self.b_f, self.a_g, self.b_g, self.m_ball)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("envelope constants must be finite")
        if self.s <= 0:
            raise ValueError("s must be positive")
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
    """Global drift envelope for the threshold family, from the coefficient
    column sums (s = 1; the bounds hold for every x, so M = 1 is valid).

    On C the volatility's state-scaled part is diag(d_c), elsewhere d_main,
    so b_g is the larger of their column-sum norms."""
    if not isinstance(model, ThresholdAffine2D):
        raise ValueError("threshold_envelope expects a ThresholdAffine2D model")
    s = model.analytic_envelope_s
    d31, d32 = model.d_c
    on_c = ((d31, 0.0), (0.0, d32))
    return DriftEnvelope(
        s=s,
        a_f=vector_s_norm(model.a, s),
        b_f=matrix_col_sum_norm(model.b_mat, s),
        a_g=max(vector_s_norm(model.d_const, s), _ENVELOPE_FLOOR),
        b_g=max(matrix_col_sum_norm(model.d_main, s),
                matrix_col_sum_norm(on_c, s), _ENVELOPE_FLOOR),
        m_ball=1.0,
        source=SOURCE_ANALYTIC_THRESHOLD,
    )


def _upper_hull(points):
    """Upper convex hull of (r, v) points sorted by r (monotone chain)."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (r1, v1), (r2, v2) = hull[-2], hull[-1]
            cross = (r2 - r1) * (p[1] - v1) - (p[0] - r1) * (v2 - v1)
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _fit_linear_envelope(radii, values, mid, floor_a):
    """Smallest line a + b * r lying above all (r, v) samples.

    Candidate slopes come from the upper convex hull edges (plus the flat
    line and the through-origin ray); for each slope the exact minimal
    intercept is recomputed, and the line minimizing the average bound over
    the shell (evaluated at the shell midpoint `mid`) wins.  Ties prefer the
    smaller slope.  Positive floors keep the envelope inside the type
    invariants; they only ever raise the line.
    """
    hull = _upper_hull(zip(radii, values))
    slopes = {0.0}
    slopes.add(max(v / r for r, v in zip(radii, values)))
    for (r1, v1), (r2, v2) in zip(hull, hull[1:]):
        if r2 > r1:
            slopes.add(max(0.0, (v2 - v1) / (r2 - r1)))
    best = None
    r_arr = np.asarray(radii)
    v_arr = np.asarray(values)
    for b in sorted(slopes):
        a = max(0.0, float(np.max(v_arr - b * r_arr)))
        key = (a + b * mid, b)
        if best is None or key < best[0]:
            best = (key, a, b)
    _, a, b = best
    return max(a, floor_a), max(b, _ENVELOPE_FLOOR)


def _sample_shell(rng, dim, s, m_ball, radius, n_samples):
    """Uniform draws from the shell {m_ball < ||x||_s <= radius} by box
    rejection; the box halfwidth is radius^(1/s) in the pseudonorm regime."""
    half = radius if s >= 1.0 else radius ** (1.0 / s)

    def in_shell(cand):
        norms = s_norms(cand, s, axis=1)
        return (norms > m_ball) & (norms <= radius)

    return _box_rejection(rng, n_samples, dim, half, in_shell)


def shell_estimate_envelope(model, s, m_ball, radius, n_samples, seed):
    """Sample-based envelope fit over the shell {M < ||x||_s <= R}.

    The result is advisory: a sampled supremum is not a bound, so the
    envelope is marked shell_estimated and can never support a
    sufficient_condition_met verdict.
    """
    s = float(s)
    if s <= 0:
        raise ValueError("s must be positive")
    if not (radius > m_ball > 0):
        raise ValueError("need radius > M > 0")
    if n_samples < 10 ** 3:
        raise ValueError("need at least 1000 shell samples")
    rng = np.random.default_rng(seed)
    xs = _sample_shell(rng, model.dim, s, m_ball, radius, n_samples)
    f_x, g_x = model.lane_terms(xs)
    radii = s_norms(xs, s, axis=1).tolist()
    f_vals = s_norms(f_x, s, axis=1).tolist()
    g_vals = induced_norm_bounds(g_x, s).tolist()
    if max(f_vals) <= 0.0:
        raise ValueError("degenerate shell sample: f vanishes on every draw")
    if max(g_vals) <= 0.0:
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


def bekk_gamma(b_f, a_mat, moment2):
    """Drift coefficient for the BEKK family: b_f + |||A|||_F * E[||e||_2]."""
    if float(moment2.s) != 2.0:
        raise ValueError(f"bekk gamma needs an s=2 moment, got s={moment2.s}")
    return float(b_f) + frobenius_norm(a_mat) * moment2.value


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


# (kind, normal) of the set where det(B + (Ax)(Ax)^T) vanishes.
bekk_degeneracy = bekk_line_normal


def probe_skeleton_reachability(model, seeds, horizon):
    """Iterate the noiseless skeleton x -> f(x) from each seed and report the
    first step whose volatility determinant is bounded away from zero.

    A diagnostic aid, not a proof: escaping says the deterministic flow
    leaves the degenerate set, from where the noise has full-rank directions.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    results = []
    for seed in seeds:
        x = np.asarray(seed, dtype=float)
        probe = SkeletonProbe(start=tuple(float(v) for v in x), escaped=False)
        for t in range(1, horizon + 1):
            x = eval_f(model, x)
            det = g_determinant(model, x)
            bound = 1e-8 * (1.0 + float(np.dot(x, x)))
            if abs(det) > bound:
                probe = SkeletonProbe(
                    start=probe.start, escaped=True, escape_step=t, witness_det=det
                )
                break
        results.append(probe)
    return tuple(results)


def empirical_drift_check(model, noise_spec, x, s, n_mc, seed):
    """Monte Carlo estimate of E[V(X_1) | X_0 = x] / V(x) for V = 1 + ||.||_s."""
    if n_mc < 10 ** 3:
        raise ValueError("need at least 1000 Monte Carlo draws")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    draws = sample(noise_spec, rng, n_mc)
    fx = eval_f(model, x)
    gx = eval_g(model, x)
    nxt = fx[None, :] + draws @ gx.T
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


def _report(structural, gamma, moment, envelope, extra_notes):
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
        f"gamma = b_f + b_g * E[||e||_s] = {envelope.b_f:.6g} + "
        f"{envelope.b_g:.6g} * {moment.value:.6g} = {gamma:.6g}",
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


def check_threshold_model(model, noise_spec=None, envelope=None, extra_notes=""):
    """Full sufficient-condition report for a ThresholdAffine2D model."""
    if not isinstance(model, ThresholdAffine2D):
        raise ValueError("check_threshold_model expects a ThresholdAffine2D model")
    noise_spec = noise_spec if noise_spec is not None else Expol2()
    if envelope is None:
        envelope = threshold_envelope(model)
    moment = abs_moment(noise_spec, envelope.s, method="quadrature")
    gamma = drift_gamma(envelope, moment)
    structural = (check_coefexpol(model), _check_d_main_nonsingular(model))
    return _report(structural, gamma, moment, envelope, extra_notes)


def check_bekk_model(model, noise_spec=None, envelope=None, extra_notes=""):
    """Full sufficient-condition report for a BekkArch model.

    Without an explicit envelope the autoregressive term must be an
    AffineMap; then b_f is its matrix operator 2-norm, a_f the offset norm,
    and the volatility is bounded through the Frobenius identity by
    a_g = sqrt(tr B), b_g = |||A|||_F.
    """
    if not isinstance(model, BekkArch):
        raise ValueError("check_bekk_model expects a BekkArch model")
    noise_spec = noise_spec if noise_spec is not None else StdGaussian(2)
    if envelope is None:
        matrix = getattr(model.f, "matrix", None)
        offset = getattr(model.f, "offset", None)
        if matrix is None or offset is None:
            raise ValueError(
                "an explicit envelope is required when f is not an affine map"
            )
        b = np.asarray(model.b_mat)
        envelope = DriftEnvelope(
            s=2.0,
            a_f=math.hypot(*offset),
            b_f=operator_norm(matrix, 2),
            a_g=max(math.sqrt(max(float(np.trace(b)), 0.0)), _ENVELOPE_FLOOR),
            b_g=max(frobenius_norm(model.a_mat), _ENVELOPE_FLOOR),
            m_ball=1.0,
            source=SOURCE_ANALYTIC_BEKK,
        )
    if isinstance(noise_spec, StdGaussian):
        moment = abs_moment(noise_spec, 2.0, method="analytic")
    else:
        moment = abs_moment(noise_spec, 2.0, method="quadrature")
    # The default envelope has b_g = |||A|||_F, so this equals
    # bekk_gamma(b_f, A, moment); a user envelope substitutes its own bound.
    gamma = drift_gamma(envelope, moment)
    w, _ = bekk_b_eigenvalues(model.b_mat)
    checks = [
        CheckResult(
            name="b_psd", passed=True, witnesses=(("min_eigenvalue", float(np.min(w))),)
        )
    ]
    kind, normal = bekk_line_normal(model.a_mat, model.b_mat)
    c1, c2 = normal if kind == REGION_ON_L else (float("nan"), float("nan"))
    checks.append(
        CheckResult(
            name="degeneracy_locus",
            passed=kind != REGION_EVERYWHERE_SINGULAR,
            witnesses=(("c1", c1), ("c2", c2)),
        )
    )
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
    return _report(tuple(checks), gamma, moment, envelope, extra_notes)
