import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergokit.ergodicity import (
    CheckResult,
    DriftEnvelope,
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_MET,
    bekk_degeneracy,
    bekk_gamma,
    check_bekk_model,
    check_coefexpol,
    check_threshold_model,
    drift_gamma,
    empirical_drift_check,
    probe_skeleton_reachability,
    shell_estimate_envelope,
    threshold_envelope,
)
from ergokit.models import (
    REGION_EVERYWHERE_REGULAR,
    REGION_EVERYWHERE_SINGULAR,
    REGION_ON_L,
    AffineMap,
    BekkArch,
    GenericModel,
    ThresholdAffine2D,
    bekk_line_normal,
    eval_f,
    eval_g,
    g_determinant,
)
from ergokit.noise import Expol2, MomentEstimate, StdGaussian, abs_moment
from ergokit.norms import (
    frobenius_norm,
    induced_norm_bounds,
    matrix_col_sum_norm,
    s_norms,
    vector_s_norm,
)

# Frozen quadrature oracle for E||e||_1 under the bimodal noise (see the
# noise tests for the independent cross-checks).
E_L1 = 1.6547848786785639

# Gaussian n=2: E||e||_2 = sqrt(pi/2) exactly.
E_L2_GAUSS = math.sqrt(math.pi / 2.0)


def make_threshold(b_mat=((0.2, 0.1), (0.1, 0.3)),
                   d_main=((0.1, -0.15), (-0.15, 0.1)),
                   d_c=(0.2, -0.25), d_const=(1.0, 1.0)):
    return ThresholdAffine2D(a=(0.0, 0.0), b_mat=b_mat, d_main=d_main,
                             d_c=d_c, d_const=d_const)


def variance_variant():
    # All state-scaling volatility coefficients set to 0.4.
    return make_threshold(d_main=((0.4, 0.4), (0.4, 0.4)), d_c=(0.4, 0.4))


def unit_root_variant():
    return make_threshold(b_mat=((1.0, 0.0), (0.0, 1.0)))


def make_bekk(scale_f=0.3, scale_a=0.3, b_mat=((1.0, 0.0), (0.0, 1.0)),
              offset=(0.0, 0.0)):
    return BekkArch(
        f=AffineMap(((scale_f, 0.0), (0.0, scale_f)), offset),
        a_mat=((scale_a, 0.0), (0.0, scale_a)),
        b_mat=b_mat,
    )


def test_threshold_envelope_example_values():
    env = threshold_envelope(make_threshold())
    assert env.s == 1.0
    assert env.a_f == 0.0
    assert env.b_f == pytest.approx(0.4, abs=0.0)
    assert env.b_g == pytest.approx(0.25, abs=0.0)
    assert env.a_g == pytest.approx(2.0, abs=0.0)
    assert env.m_ball == 1.0
    assert env.source == "analytic_threshold_formula"


def test_threshold_envelope_is_global_bound():
    # The column-sum envelope must hold at every state, not just large ones.
    m = make_threshold()
    env = threshold_envelope(m)
    rng = np.random.default_rng(4321)
    for _ in range(10 ** 4):
        r = 10.0 ** rng.uniform(0.0, 4.0)
        w = rng.dirichlet((1.0, 1.0)) * rng.choice((-1.0, 1.0), 2)
        x = r * w
        nx = vector_s_norm(x, 1.0)
        assert vector_s_norm(eval_f(m, x), 1.0) <= env.a_f + env.b_f * nx + 1e-9
        assert matrix_col_sum_norm(eval_g(m, x), 1.0) <= env.a_g + env.b_g * nx + 1e-9


# Rounding slack of the envelope inequalities on lane blocks.
_SLACK = 1.0 + 1e-12
_coef = st.floats(-2.0, 2.0, allow_nan=False)
# b11, d11 and d41; zero ones can make b_f, a_g and b_g zero.
_lead = st.tuples(*[st.floats(0.0, 2.0)] * 3)
_states = st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                   min_size=1, max_size=16)
_C_EDGES = [(0.0, 0.0), (-1.0, -2.0), (0.0, 3.0), (3.0, 0.0), (-0.0, -5.0), (1e6, -1e6)]


@settings(max_examples=200, deadline=None)
@given(lead=_lead, c=st.lists(_coef, min_size=11, max_size=11), states=_states)
@example(lead=(0.2, 0.1, 1.0), c=[1.0, -1.0, 0.1, 0.1, 0.3, -0.15, -0.15, 0.1, 0.2, -0.25, 1.0],
         states=_C_EDGES)
# Zero mean and zero volatility coefficients: b_f = 0, a_g and b_g floored.
@example(lead=(0.0, 0.0, 0.0), c=[0.0] * 11, states=_C_EDGES)
def test_threshold_envelope_holds_on_lane_blocks(lead, c, states):
    # s = 1: ||f(x)||_1 <= a_f + b_f ||x||_1 and the induced 1-norm bound of
    # g(x) is at most a_g + b_g ||x||_1, at every state.  lead holds b11,
    # d11 and d41.
    b11, d11, d41 = lead
    m = ThresholdAffine2D(a=c[0:2], b_mat=((b11, c[2]), c[3:5]),
                          d_main=((d11, c[5]), c[6:8]), d_c=c[8:10],
                          d_const=(d41, c[10]))
    env = threshold_envelope(m)
    x = np.array(states)
    f, g = m.lane_terms(x)
    nx = s_norms(x, 1.0, axis=1)
    assert np.all(s_norms(f, 1.0, axis=1) <= (env.a_f + env.b_f * nx) * _SLACK)
    assert np.all(induced_norm_bounds(g, 1.0) <= (env.a_g + env.b_g * nx) * _SLACK)


@settings(max_examples=200, deadline=None)
@given(m11=st.floats(0.0, 2.0), c=st.lists(_coef, min_size=12, max_size=12),
       states=_states)
# A zero mean matrix: b_f = 0.
@example(m11=0.0, c=[1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
         states=[(2.5, 2.5), (0.0, 0.0), (1.0, -1.0)])
# b_mat = [[1, 1], [1, 1]] with A = I: det M = 0 on the line x1 = x2.
@example(m11=0.4, c=[1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.4, 1.0, 0.0],
         states=[(2.5, 2.5), (-1e6, -1e6), (0.0, 0.0), (1.0, -1.0)])
# b_mat = 0: g(0) = 0, and ||g(x)||_F = ||Ax||_2 <= ||A||_F ||x||_2 is tight
# for the rank-one A along its row direction; f(x) = (2, -2) x1 - (2, -2) x2
# meets ||f(x)||_2 = b_f ||x||_2 on x1 = -x2.
@example(m11=2.0, c=[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -2.0, -2.0, 2.0, 0.0, 0.0],
         states=[(0.0, 0.0), (3.0, 3.0), (1e6, 1e6), (1.0, -1.0)])
def test_bekk_envelope_holds_on_lane_blocks(m11, c, states):
    # s = 2: ||g(x)||_F <= sqrt(tr B) + ||A||_F ||x||_2 and
    # ||f(x)||_2 <= a_f + b_f ||x||_2, with the constants of the analytic
    # envelope check_bekk_model reports.  b_mat = L L^T, L lower triangular.
    l11, l21, l22 = c[4:7]
    m = BekkArch(f=AffineMap(((m11, c[7]), c[8:10]), c[10:12]), a_mat=(c[0:2], c[2:4]),
                 b_mat=((l11 * l11, l11 * l21), (l21 * l11, l21 * l21 + l22 * l22)))
    env = check_bekk_model(m).envelope
    assert env.source == "analytic_bekk_frobenius"
    b = np.array(m.b_mat)
    assert env.a_g == max(math.sqrt(np.trace(b)), 1e-12)
    assert env.b_g == max(frobenius_norm(m.a_mat), 1e-12)
    x = np.array(states)
    f, g = m.lane_terms(x)
    nx = s_norms(x, 2.0, axis=1)
    g_frobenius = np.array([frobenius_norm(gi) for gi in g])
    assert np.all(g_frobenius <= (env.a_g + env.b_g * nx) * _SLACK)
    assert np.all(s_norms(f, 2.0, axis=1) <= (env.a_f + env.b_f * nx) * _SLACK)


def test_envelope_validation():
    # b_f = 0 is a valid bound (a zero mean matrix); a negative b_f and a
    # zero a_g, b_g or M are not.
    DriftEnvelope(s=1.0, a_f=0.0, b_f=0.0, a_g=1.0, b_g=1.0, m_ball=1.0,
                  source="user_supplied")
    with pytest.raises(ValueError):
        DriftEnvelope(s=1.0, a_f=0.0, b_f=-0.1, a_g=1.0, b_g=1.0, m_ball=1.0,
                      source="user_supplied")
    for zero in ("a_g", "b_g", "m_ball"):
        constants = dict(a_f=0.0, b_f=0.5, a_g=1.0, b_g=1.0, m_ball=1.0)
        with pytest.raises(ValueError):
            DriftEnvelope(s=1.0, **{**constants, zero: 0.0}, source="user_supplied")
    with pytest.raises(ValueError):
        DriftEnvelope(s=0.0, a_f=0.0, b_f=0.5, a_g=1.0, b_g=1.0, m_ball=1.0,
                      source="user_supplied")
    with pytest.raises(ValueError):
        DriftEnvelope(s=1.0, a_f=-0.1, b_f=0.5, a_g=1.0, b_g=1.0, m_ball=1.0,
                      source="user_supplied")
    with pytest.raises(ValueError):
        DriftEnvelope(s=1.0, a_f=0.0, b_f=0.5, a_g=1.0, b_g=1.0, m_ball=1.0,
                      source="made_up")
    with pytest.raises(ValueError):
        DriftEnvelope(s=1.0, a_f=math.inf, b_f=0.5, a_g=1.0, b_g=1.0,
                      m_ball=1.0, source="user_supplied")


def test_drift_gamma_example_and_monotonicity():
    env = threshold_envelope(make_threshold())
    mom = abs_moment(Expol2(), 1.0, method="quadrature")
    gamma = drift_gamma(env, mom)
    assert gamma == pytest.approx(0.4 + 0.25 * E_L1, rel=1e-9)
    assert gamma < 1.0
    # Monotone increasing in each envelope slope and in the moment value.
    env_bigger_bf = DriftEnvelope(s=1.0, a_f=env.a_f, b_f=env.b_f + 0.1,
                                  a_g=env.a_g, b_g=env.b_g, m_ball=1.0,
                                  source="user_supplied")
    env_bigger_bg = DriftEnvelope(s=1.0, a_f=env.a_f, b_f=env.b_f,
                                  a_g=env.a_g, b_g=env.b_g + 0.1, m_ball=1.0,
                                  source="user_supplied")
    mom_bigger = MomentEstimate(value=mom.value + 0.1, std_error=0.0,
                                method="quadrature", s=1.0)
    assert drift_gamma(env_bigger_bf, mom) > gamma
    assert drift_gamma(env_bigger_bg, mom) > gamma
    assert drift_gamma(env, mom_bigger) > gamma


def test_drift_gamma_rejects_mismatched_exponent():
    env = threshold_envelope(make_threshold())
    mom_s2 = MomentEstimate(value=1.0, std_error=0.0, method="quadrature", s=2.0)
    with pytest.raises(ValueError):
        drift_gamma(env, mom_s2)


def test_coefexpol_witnesses():
    res = check_coefexpol(make_threshold())
    assert res.passed
    witnesses = dict(res.witnesses)
    assert witnesses["main_column_witness"] == pytest.approx(0.25, abs=1e-15)
    assert witnesses["c_column_witness"] == pytest.approx(0.45, abs=1e-15)

    res0 = check_coefexpol(make_threshold(d_const=(0.0, 0.0)))
    assert not res0.passed
    assert all(w == 0.0 for _, w in res0.witnesses)

    # Equal first-column entries with equal constants degenerate the first
    # witness only.
    sym = make_threshold(d_main=((0.3, -0.15), (0.3, 0.1)))
    res_sym = check_coefexpol(sym)
    assert not res_sym.passed
    assert dict(res_sym.witnesses)["main_column_witness"] == pytest.approx(0.0, abs=1e-15)


def test_threshold_report_ergodic_example():
    report = check_threshold_model(make_threshold())
    assert report.verdict == VERDICT_MET
    assert report.gamma == pytest.approx(0.4 + 0.25 * E_L1, rel=1e-9)
    assert all(c.passed for c in report.structural)
    names = [c.name for c in report.structural]
    assert names == ["coefexpol", "d_main_nonsingular"]
    assert "gamma" in report.notes and "sufficient" in report.notes


def test_threshold_report_unit_root_variant():
    report = check_threshold_model(unit_root_variant())
    assert report.verdict == VERDICT_FAILED
    # Structure is untouched; only the drift coefficient crosses 1.
    assert all(c.passed for c in report.structural)
    assert report.gamma == pytest.approx(1.0 + 0.25 * E_L1, rel=1e-9)
    assert report.gamma > 1.0


def test_threshold_report_variance_variant():
    report = check_threshold_model(variance_variant())
    assert report.verdict == VERDICT_FAILED
    assert report.gamma == pytest.approx(0.4 + 0.8 * E_L1, rel=1e-9)
    assert abs(report.gamma - 1.72) < 0.01
    by_name = {c.name: c for c in report.structural}
    # The all-equal volatility matrix is singular and kills both witnesses.
    assert not by_name["coefexpol"].passed
    assert not by_name["d_main_nonsingular"].passed


@pytest.mark.parametrize("s, method", [
    (1.0, "analytic"), (2.0, "analytic"), (3.0, "quadrature"),
])
def test_threshold_report_takes_the_gaussian_closed_form_where_it_exists(s, method):
    # One moment rule for both families: Gaussian noise has closed forms at
    # s <= 1 and s = 2, so the threshold report uses them there too.
    model = make_threshold()
    env = None if s == 1.0 else DriftEnvelope(
        s=s, a_f=0.0, b_f=0.4, a_g=1.0, b_g=0.25, m_ball=1.0, source="user_supplied")
    report = check_threshold_model(model, StdGaussian(2), envelope=env)
    moment = report.noise_moment
    assert (moment.s, moment.method) == (s, method)
    assert (moment.grid_size is None) == (method == "analytic")
    assert moment == abs_moment(StdGaussian(2), s, method=method)
    assert report.gamma == report.envelope.b_f + report.envelope.b_g * moment.value
    assert f"moment method: {method}" in report.notes


def test_report_extra_notes_threading():
    report = check_threshold_model(make_threshold(), extra_notes="reference note")
    assert "reference note" in report.notes


def test_verdict_invariant_on_generated_reports():
    reports = [
        check_threshold_model(make_threshold()),
        check_threshold_model(unit_root_variant()),
        check_threshold_model(variance_variant()),
        check_bekk_model(make_bekk()),
        check_bekk_model(make_bekk(scale_f=0.5, scale_a=1.0,
                                   b_mat=((1.0, 1.0), (1.0, 1.0)))),
    ]
    for r in reports:
        if r.verdict == VERDICT_MET:
            assert r.gamma < 1.0
            assert all(c.passed for c in r.structural)


def test_bekk_gamma_closed_forms():
    mom = abs_moment(StdGaussian(2), 2.0, method="analytic")
    assert mom.value == pytest.approx(E_L2_GAUSS, rel=1e-14)
    gamma = bekk_gamma(0.3, ((0.3, 0.0), (0.0, 0.3)), mom)
    assert gamma == pytest.approx(0.3 + 0.3 * math.sqrt(math.pi), rel=1e-12)
    gamma2 = bekk_gamma(0.5, ((1.0, 0.0), (0.0, 1.0)), mom)
    assert gamma2 == pytest.approx(0.5 + math.sqrt(math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        bekk_gamma(0.3, ((0.3, 0.0), (0.0, 0.3)),
                   MomentEstimate(value=1.0, std_error=0.0, method="quadrature", s=1.0))


def test_bekk_report_ergodic():
    report = check_bekk_model(make_bekk())
    assert report.verdict == VERDICT_MET
    assert report.gamma == pytest.approx(0.3 + 0.3 * math.sqrt(math.pi), rel=1e-12)
    assert report.envelope.source == "analytic_bekk_frobenius"
    assert report.envelope.b_f == pytest.approx(0.3, rel=1e-12)
    assert report.envelope.b_g == pytest.approx(0.3 * math.sqrt(2.0), rel=1e-12)
    assert report.envelope.a_g == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert report.noise_moment.method == "analytic"
    by_name = {c.name: c for c in report.structural}
    assert by_name["b_psd"].passed
    assert by_name["degeneracy_locus"].passed
    assert "skeleton_escape" not in by_name


def test_bekk_report_divergent_line_without_escape():
    # Rank-one B with a scaling f: the skeleton never leaves the degenerate
    # line, and gamma is far above 1.
    model = make_bekk(scale_f=0.5, scale_a=1.0, b_mat=((1.0, 1.0), (1.0, 1.0)))
    report = check_bekk_model(model)
    assert report.verdict == VERDICT_FAILED
    assert report.gamma == pytest.approx(0.5 + math.sqrt(math.pi), rel=1e-12)
    by_name = {c.name: c for c in report.structural}
    assert by_name["degeneracy_locus"].passed
    assert not by_name["skeleton_escape"].passed


def test_bekk_report_escaping_line():
    # An offset pushes the skeleton off the line in one step.
    model = make_bekk(scale_f=0.4, scale_a=1.0, b_mat=((1.0, 1.0), (1.0, 1.0)),
                      offset=(1.0, 0.0))
    report = check_bekk_model(model)
    by_name = {c.name: c for c in report.structural}
    assert by_name["skeleton_escape"].passed
    assert all(step == 1.0 for _, step in by_name["skeleton_escape"].witnesses)
    # gamma still exceeds 1, so the verdict stays failed.
    assert report.verdict == VERDICT_FAILED


def test_bekk_report_everywhere_singular():
    model = BekkArch(
        f=AffineMap(((0.3, 0.0), (0.0, 0.3)), (0.0, 0.0)),
        a_mat=((1.0, 1.0), (1.0, 1.0)),
        b_mat=((1.0, 1.0), (1.0, 1.0)),
    )
    report = check_bekk_model(model)
    by_name = {c.name: c for c in report.structural}
    assert not by_name["degeneracy_locus"].passed
    assert report.verdict == VERDICT_FAILED


def test_bekk_degeneracy_kinds():
    eye = ((1.0, 0.0), (0.0, 1.0))
    ones = ((1.0, 1.0), (1.0, 1.0))
    assert bekk_degeneracy(eye, eye) == (REGION_EVERYWHERE_REGULAR, None)
    kind, (c1, c2) = bekk_degeneracy(eye, ones)
    assert kind == REGION_ON_L
    # Normal proportional to (1, -1): the line is {x1 = x2}.
    assert c1 == pytest.approx(-c2, rel=1e-12)
    assert bekk_degeneracy(ones, ones) == (REGION_EVERYWHERE_SINGULAR, None)
    assert bekk_degeneracy(eye, ((0.0, 0.0), (0.0, 0.0))) == (
        REGION_EVERYWHERE_SINGULAR, None)
    # The exported name is the one classification of models.bekk_line_normal.
    for b_mat in (eye, ones, ((0.0, 0.0), (0.0, 0.0))):
        assert bekk_degeneracy(eye, b_mat) == bekk_line_normal(eye, b_mat)


def test_bekk_on_line_determinants_vanish():
    model = make_bekk(scale_f=0.4, scale_a=1.0, b_mat=((1.0, 1.0), (1.0, 1.0)),
                      offset=(1.0, 0.0))
    kind, (c1, c2) = bekk_degeneracy(model.a_mat, model.b_mat)
    assert kind == REGION_ON_L
    scale = math.hypot(c1, c2)
    direction = np.array([-c2 / scale, c1 / scale])
    normal = np.array([c1 / scale, c2 / scale])
    rng = np.random.default_rng(99)
    for _ in range(100):
        t = rng.uniform(1.0, 100.0) * rng.choice((-1.0, 1.0))
        p = t * direction
        bound = 1e-8 * (1.0 + float(p @ p))
        assert abs(g_determinant(model, p)) <= bound
        q = p + abs(t) * normal
        bound_q = 1e-8 * (1.0 + float(q @ q))
        assert abs(g_determinant(model, q)) >= 10.0 * bound_q


def test_probe_skeleton_reachability():
    model = make_bekk(scale_f=0.4, scale_a=1.0, b_mat=((1.0, 1.0), (1.0, 1.0)),
                      offset=(1.0, 0.0))
    probes = probe_skeleton_reachability(model, [(1.0, 1.0)], 10)
    assert probes[0].escaped and probes[0].escape_step == 1
    # f(1,1) = (1.4, 0.4) sits off the line {x1 = x2}.
    assert probes[0].witness_det == pytest.approx((1.4 - 0.4) ** 2, rel=1e-12)

    frozen = BekkArch(
        f=AffineMap(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)),
        a_mat=((1.0, 0.0), (0.0, 1.0)),
        b_mat=((1.0, 1.0), (1.0, 1.0)),
    )
    stuck = probe_skeleton_reachability(frozen, [(1.0, 1.0)], 10)
    assert not stuck[0].escaped and stuck[0].escape_step is None

    with pytest.raises(ValueError):
        probe_skeleton_reachability(model, [(1.0, 1.0)], 0)


def test_shell_estimate_recovers_threshold_slopes():
    m = make_threshold()
    env = shell_estimate_envelope(m, s=1.0, m_ball=1.0, radius=30.0,
                                  n_samples=4000, seed=7)
    assert env.source == "shell_estimated"
    # The fit lands near the analytic slopes 0.4 / 0.25; it may sit slightly
    # above them by trading intercept for slope, never far off.
    assert abs(env.b_f - 0.4) < 0.02
    assert abs(env.b_g - 0.25) < 0.02
    # Determinism under the same seed.
    env2 = shell_estimate_envelope(m, s=1.0, m_ball=1.0, radius=30.0,
                                   n_samples=4000, seed=7)
    assert env == env2


def test_shell_envelope_caps_verdict_at_inconclusive():
    m = make_threshold()
    env = shell_estimate_envelope(m, s=1.0, m_ball=1.0, radius=30.0,
                                  n_samples=4000, seed=7)
    report = check_threshold_model(m, envelope=env)
    assert report.gamma < 1.0
    assert all(c.passed for c in report.structural)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert "inconclusive" in report.notes


def test_shell_estimate_validation():
    m = make_threshold()
    with pytest.raises(ValueError):
        shell_estimate_envelope(m, s=1.0, m_ball=2.0, radius=1.0,
                                n_samples=4000, seed=0)
    with pytest.raises(ValueError):
        shell_estimate_envelope(m, s=1.0, m_ball=1.0, radius=30.0,
                                n_samples=100, seed=0)
    with pytest.raises(ValueError):
        shell_estimate_envelope(m, s=0.0, m_ball=1.0, radius=30.0,
                                n_samples=4000, seed=0)
    silent = GenericModel(dim=2, f=lambda x: np.zeros(2),
                          g=lambda x: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="vanishes"):
        shell_estimate_envelope(silent, s=1.0, m_ball=1.0, radius=10.0,
                                n_samples=1000, seed=0)


def test_empirical_drift_matches_displayed_bound():
    m = make_threshold()
    env = threshold_envelope(m)
    mom = abs_moment(Expol2(), 1.0, method="quadrature")
    gamma = drift_gamma(env, mom)
    x = (50.0, 50.0)
    est = empirical_drift_check(m, Expol2(), x, 1.0, 10 ** 5, seed=11)
    v_of_x = 1.0 + 100.0
    bound = gamma + 3.0 * est.std_error + (env.a_f + env.a_g * mom.value + 1.0) / v_of_x
    assert est.value <= bound
    assert est.sample_count == 10 ** 5
    # Determinism under a fixed seed.
    again = empirical_drift_check(m, Expol2(), x, 1.0, 10 ** 5, seed=11)
    assert again == est


def test_empirical_drift_constant_volatility_decreases():
    const = GenericModel(dim=2, f=lambda x: np.zeros(2),
                         g=lambda x: np.diag((2.0, 2.0)))
    near = empirical_drift_check(const, Expol2(), (5.0, 5.0), 1.0, 5000, seed=3)
    far = empirical_drift_check(const, Expol2(), (50.0, 50.0), 1.0, 5000, seed=3)
    assert far.value < near.value
    with pytest.raises(ValueError):
        empirical_drift_check(const, Expol2(), (5.0, 5.0), 1.0, 10, seed=3)


def test_check_model_type_guards():
    with pytest.raises(ValueError):
        check_threshold_model(make_bekk())
    with pytest.raises(ValueError):
        check_bekk_model(make_threshold())
    # Non-affine f needs an explicit envelope.
    curved = BekkArch(f=lambda x: np.tanh(x), a_mat=((0.3, 0.0), (0.0, 0.3)),
                      b_mat=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="envelope"):
        check_bekk_model(curved)
    env = DriftEnvelope(s=2.0, a_f=2.0, b_f=0.1, a_g=math.sqrt(2.0),
                        b_g=0.3 * math.sqrt(2.0), m_ball=1.0,
                        source="user_supplied")
    report = check_bekk_model(curved, envelope=env)
    assert report.verdict == VERDICT_MET
    assert report.envelope.source == "user_supplied"
