import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergokit.models import (
    _B_REL_TOL,
    AffineMap,
    BekkArch,
    GenericModel,
    ThresholdAffine2D,
    _ModelSpec,
    bekk_b_eigenvalues,
    bekk_line_normal,
    iterate,
    step,
)
from ergokit.noise import StdGaussian
from ergokit.norms import frobenius_norm, psd_sqrt
from ergokit.simulate import simulate_path

import oracle


def make_threshold(b_mat=((0.2, 0.1), (0.1, 0.3)), d_main=((0.1, -0.15), (-0.15, 0.1))):
    return ThresholdAffine2D(
        a=(0.0, 0.0),
        b_mat=b_mat,
        d_main=d_main,
        d_c=(0.2, -0.25),
        d_const=(1.0, 1.0),
    )


def make_bekk(a_mat=((1.0, 0.0), (0.0, 1.0)), b_mat=((1.0, 1.0), (1.0, 1.0)),
              f=AffineMap(((0.4, 0.0), (0.0, 0.4)), (1.0, 0.0))):
    return BekkArch(f=f, a_mat=a_mat, b_mat=b_mat)


def test_eval_f_examples():
    m = make_threshold()
    assert np.allclose(m.eval_f((1.0, 1.0)), (0.3, 0.4), atol=1e-15)
    assert np.allclose(m.eval_f((0.0, 0.0)), (0.0, 0.0))
    scaled = BekkArch(
        f=AffineMap(((0.4, 0.0), (0.0, 0.4)), (0.0, 0.0)),
        a_mat=((1.0, 0.0), (0.0, 1.0)),
        b_mat=((1.0, 0.0), (0.0, 1.0)),
    )
    assert np.allclose(scaled.eval_f((1.0, -1.0)), (0.4, -0.4), atol=1e-15)


def test_eval_g_threshold_regions():
    m = make_threshold()
    # Inside the closed quadrant only the first column survives.
    assert np.allclose(m.eval_g((-1.0, -1.0)), [[0.8, 0.0], [1.25, 0.0]], atol=1e-15)
    # Outside, both columns are active and the constant column is added.
    g = m.eval_g((2.0, 3.0))
    assert np.allclose(g, [[0.1 * 2 + 1, -0.15 * 3], [-0.15 * 2 + 1, 0.1 * 3]], atol=1e-15)


def test_eval_g_bekk_examples():
    m = make_bekk(b_mat=((1.0, 0.0), (0.0, 1.0)))
    assert np.allclose(m.eval_g((0.0, 0.0)), np.eye(2), atol=1e-12)
    g = m.eval_g((1.0, 0.0))
    assert np.allclose(g, [[math.sqrt(2.0), 0.0], [0.0, 1.0]], atol=1e-12)


def test_step_and_iterate():
    m = make_threshold()
    x = np.array([-1.0, -1.0])
    assert np.allclose(step(m, x, (0.0, 0.0)), m.eval_f(x))
    got = step(m, x, (1.0, 0.0))
    assert np.allclose(got, m.eval_f(x) + np.array([0.8, 1.25]), atol=1e-15)
    assert np.allclose(iterate(m, x, []), x)
    u = np.array([0.3, -0.2])
    assert np.allclose(iterate(m, x, [u]), step(m, x, u))
    two = iterate(m, x, [u, u])
    assert np.allclose(two, step(m, step(m, x, u), u), atol=1e-14)


def test_generic_model_step_identity():
    ident = GenericModel(dim=2, f=lambda x: x, g=lambda x: np.zeros((2, 2)))
    assert np.allclose(step(ident, (3.0, -2.0), (5.0, 5.0)), (3.0, -2.0))


def test_generic_model_nonfinite_value_is_kept():
    # A non-finite f is a value, as for every family: eval_f, lane_terms and
    # step return it, and simulate_path censors the lane at its first step.
    bad = GenericModel(dim=2, f=lambda x: np.array([np.inf, 0.0]), g=lambda x: np.eye(2))
    assert np.array_equal(bad.eval_f((0.0, 0.0)), (np.inf, 0.0))
    f, g = bad.lane_terms(np.zeros((3, 2)))
    assert np.array_equal(f, [(np.inf, 0.0)] * 3) and np.array_equal(g, [np.eye(2)] * 3)
    assert np.array_equal(step(bad, (0.0, 0.0), (0.5, -0.5)), (np.inf, -0.5))
    res = simulate_path(bad, StdGaussian(2), (0.0, 0.0), 5, 1)
    assert res.diverged and res.divergence_step == 1
    assert np.array_equal(res.states, [(0.0, 0.0)])


def test_threshold_determinant_zero_on_c():
    m = make_threshold()
    rng = np.random.default_rng(211)
    for _ in range(200):
        x = -rng.uniform(0.0, 50.0, 2)
        assert m.g_determinant(x) == 0.0


def test_bekk_determinant_examples():
    m = make_bekk()
    assert abs(m.g_determinant((1.0, 1.0))) == 0.0
    assert abs(m.g_determinant((1.0, 0.0)) - 1.0) < 1e-15


def test_bekk_determinant_closed_vs_direct():
    # Rank-one b_mat: compare the closed form against a direct determinant
    # of the assembled matrix.
    rng = np.random.default_rng(223)
    for _ in range(10 ** 4):
        w = rng.uniform(-2.0, 2.0, 2)
        b = np.outer(w, w)
        a = rng.uniform(-2.0, 2.0, (2, 2))
        x = rng.uniform(-5.0, 5.0, 2)
        m = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                     a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
        got = m.g_determinant(x)
        v = a @ x
        full = b + np.outer(v, v)
        want = full[0, 0] * full[1, 1] - full[0, 1] * full[1, 0]
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_bekk_frobenius_identity():
    # ||(B + (Ax)(Ax)^T)^(1/2)||_F^2 == tr(B) + ||Ax||_2^2.
    rng = np.random.default_rng(227)
    for _ in range(500):
        q = rng.standard_normal((2, 2))
        b = q @ q.T
        a = rng.uniform(-2.0, 2.0, (2, 2))
        x = rng.uniform(-5.0, 5.0, 2)
        m = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                     a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
        lhs = frobenius_norm(m.eval_g(x)) ** 2
        want = float(np.trace(b) + np.dot(a @ x, a @ x))
        assert abs(lhs - want) <= 1e-8 * (1.0 + abs(want))


def test_bekk_g_is_symmetric_psd():
    rng = np.random.default_rng(229)
    for _ in range(200):
        w = rng.uniform(-2.0, 2.0, 2)
        b = np.outer(w, w)
        a = rng.uniform(-2.0, 2.0, (2, 2))
        m = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                     a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
        g = m.eval_g(rng.uniform(-5.0, 5.0, 2))
        assert np.allclose(g, g.T, atol=1e-10)
        assert float(np.min(np.linalg.eigvalsh(g))) >= -1e-9


_coef = st.floats(-2.0, 2.0, allow_nan=False)
_pair = st.tuples(_coef, _coef)


@settings(max_examples=300, deadline=None)
@given(
    b_kind=st.sampled_from(("full", "rank_one", "zero")),
    q=st.tuples(_pair, _pair),
    a=st.tuples(_pair, _pair),
    x=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    off_line=st.sampled_from((None, 0.0, 1e-12, 1e-6)),
)
def test_bekk_closed_form_root(b_kind, q, a, x, off_line):
    # b_mat is q q^T, w w^T with w the first row of q, or zero.  With
    # `off_line` set, x is moved onto the degeneracy line (when there is
    # one) and then that far off it along the unit normal.
    q = np.array(q)
    b = {"full": q @ q.T, "rank_one": np.outer(q[0], q[0]), "zero": np.zeros((2, 2))}[b_kind]
    a = np.array(a)
    x = np.array(x)
    kind, normal = bekk_line_normal(a, b)
    if off_line is not None and kind == "on_L":
        n = np.array(normal) / math.hypot(*normal)
        x = x - np.dot(x, n) * n + off_line * n
    m = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                 a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
    g = m.eval_g(x)
    v = a @ x
    full = b + np.outer(v, v)
    scale = 1.0 + frobenius_norm(full)
    assert g[0, 1] == g[1, 0]
    assert float(np.min(np.linalg.eigvalsh(g))) >= -1e-12 * scale
    assert frobenius_norm(g @ g - full) <= 1e-12 * scale
    want = full[0, 0] * full[1, 1] - full[0, 1] * full[1, 0]
    assert abs(m.g_determinant(x) - want) <= 1e-12 * scale ** 2


@settings(max_examples=300, deadline=None)
@given(
    b_kind=st.sampled_from(("full", "rank_one")),
    q=st.tuples(_pair, _pair),
    a=st.tuples(_pair, _pair),
    states=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                    min_size=1, max_size=8),
)
@example(b_kind="rank_one", q=((1.0, 1.0), (0.0, 0.0)), a=((1.0, 0.0), (0.0, 1.0)),
         states=[(2.0, 1.0), (-3.0, 0.5), (2.5, 2.5)])
def test_bekk_lane_root_matches_the_eigen_oracle(b_kind, q, a, states):
    # Row i of the lane root against psd_sqrt of M = b_mat + v v^T.  Only
    # states whose smaller eigenvalue of M is at least 1e-8 (1 + ||M||_F)
    # are compared: nearer the line L, psd_sqrt clamps that eigenvalue and
    # its rounding is amplified by the square root (test_bekk_closed_form_root
    # checks g @ g there).
    q = np.array(q)
    b = q @ q.T if b_kind == "full" else np.outer(q[0], q[0])
    a = np.array(a)
    m = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                 a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
    x = np.array(states)
    g = m.lane_terms(x)[1]
    for i, xi in enumerate(x):
        v = a @ xi
        full = b + np.outer(v, v)
        scale = 1.0 + frobenius_norm(full)
        if np.linalg.eigvalsh(full)[0] < 1e-8 * scale:
            continue
        assert frobenius_norm(g[i] - psd_sqrt(full)) <= 1e-10 * math.sqrt(scale)


@settings(max_examples=300, deadline=None)
@given(
    b_kind=st.sampled_from(("full", "rank_one", "zero", "diagonal", "near_symmetric")),
    q=st.tuples(_pair, _pair),
    scale=st.floats(1e-6, 1e6),
    skew=st.floats(-1.0, 1.0),
)
@example(b_kind="rank_one", q=((1.0, 1.0), (0.0, 0.0)), scale=1.0, skew=0.0)
@example(b_kind="diagonal", q=((0.0, 2.0), (0.0, 0.0)), scale=1e6, skew=0.0)
def test_bekk_b_eigenvalues_match_the_lapack_oracle(b_kind, q, scale, skew):
    # The closed-form spectrum against numpy's eigvalsh of the matrix with
    # the averaged off-diagonal it reads.  near_symmetric moves b12 by up to
    # half the symmetry tolerance.
    q = np.array(q)
    b = {"full": q @ q.T, "rank_one": np.outer(q[0], q[0]), "zero": np.zeros((2, 2)),
         "diagonal": np.diag(np.abs(q[0])), "near_symmetric": q @ q.T}[b_kind] * scale
    if b_kind == "near_symmetric":
        b[0, 1] += skew * _B_REL_TOL * (1.0 + frobenius_norm(b)) / 2.0
    (smaller, larger), norm_scale = bekk_b_eigenvalues(b)
    assert norm_scale == 1.0 + frobenius_norm(b)
    want = np.linalg.eigvalsh((b + b.T) / 2.0)
    ulps = 4 * np.spacing(1.0 + np.sum(np.abs(b)))
    assert smaller <= larger
    assert abs(smaller - want[0]) <= ulps
    assert abs(larger - want[1]) <= ulps


def test_bekk_b_eigenvalues_do_not_cancel():
    # mean - radius would round the smaller eigenvalue here to 0.
    assert bekk_b_eigenvalues(((1.0, 0.0), (0.0, 1e-300))) == ((1e-300, 1.0), 2.0)
    assert bekk_b_eigenvalues(((1e-300, 0.0), (0.0, 1.0))) == ((1e-300, 1.0), 2.0)


@pytest.mark.parametrize("scale", [1e200, 2.0 ** 600])
def test_bekk_refuses_a_b_mat_whose_products_overflow(scale):
    # b11 * b22 and ||b_mat||_F^2 overflow: the tolerances 1e-10 (1 +
    # ||b_mat||_F) would be inf and det b_mat inf - inf.  Refused, without a
    # numpy warning (the suite turns RuntimeWarning into an error).
    b = ((scale, scale), (scale, scale))
    with pytest.raises(ValueError, match="b_mat"):
        bekk_b_eigenvalues(b)
    with pytest.raises(ValueError, match="b_mat"):
        make_bekk(b_mat=b)


@pytest.mark.parametrize("scale", [1e200, 2.0 ** 600])
def test_bekk_refuses_an_a_mat_whose_products_overflow(scale):
    # ||a_mat||_F^2 overflows, and with it the envelope's b_g.  Refused,
    # without a numpy warning.
    with pytest.raises(ValueError, match="a_mat is too large"):
        make_bekk(a_mat=((scale, 0.0), (0.0, scale)))


def test_bekk_accepts_a_large_a_mat_whose_products_are_finite():
    # 2 * (6e153)^2 = 7.2e307 is below the largest double.
    m = make_bekk(a_mat=((6e153, 0.0), (0.0, 6e153)))
    assert m.a_mat == ((6e153, 0.0), (0.0, 6e153))


def test_bekk_accepts_a_large_b_mat_whose_products_are_finite():
    # 4 * (6e153)^2 = 1.44e308 is below the largest double.
    m = make_bekk(b_mat=((6e153, 6e153), (6e153, 6e153)))
    assert np.all(np.isfinite(m.eval_g((1.0, -1.0))))


def test_bekk_closed_form_root_examples():
    zero = make_bekk(a_mat=((0.0, 0.0), (0.0, 0.0)), b_mat=((0.0, 0.0), (0.0, 0.0)))
    assert np.array_equal(zero.eval_g((3.0, -1.0)), np.zeros((2, 2)))
    assert np.array_equal(make_bekk(b_mat=((0.0, 0.0), (0.0, 0.0))).eval_g((0.0, 0.0)),
                          np.zeros((2, 2)))
    # Rank-one b_mat on its line x1 = x2: det M = 0, so the root is M / sqrt(tr M).
    m = make_bekk()
    for t in (0.0, 2.5, -3.0, 1e-8):
        full = np.array([[1.0 + t * t, 1.0 + t * t], [1.0 + t * t, 1.0 + t * t]])
        assert m.g_determinant((t, t)) == 0.0
        assert np.array_equal(m.eval_g((t, t)), full / math.sqrt(np.trace(full)))


def _model_of(family, c):
    """A model of `family` built from 12 coefficients c.  BEKK's b_mat is
    L L^T with L lower triangular from c[4:7]; "bekk-callable" wraps the same
    affine mean in a plain function, which lane_terms calls once per row."""
    if family == "threshold":
        return ThresholdAffine2D(a=c[0:2], b_mat=(c[2:4], c[4:6]),
                                 d_main=(c[6:8], c[8:10]), d_c=c[10:12],
                                 d_const=(1.0, 1.0))
    if family == "generic":
        return GenericModel(
            2, lambda x: np.tanh(c[0] * x) + c[1],
            lambda x: np.array([[c[2], c[3] * x[0]], [c[4] * x[1], c[5]]]))
    l11, l21, l22 = c[4:7]
    affine = AffineMap((c[7:9], c[9:11]), (c[11], c[0]))
    return BekkArch(
        f=affine if family == "bekk" else (lambda x: affine(x)),
        a_mat=(c[0:2], c[2:4]),
        b_mat=((l11 * l11, l11 * l21), (l21 * l11, l21 * l21 + l22 * l22)),
    )


def _one_state_step(model, x, u):
    """The step of one state from eval_f and eval_g, each coordinate summed
    f + g_i1 u1 + g_i2 u2 left to right, as the lane kernel sums it."""
    f, g = model.eval_f(x), model.eval_g(x)
    return f + g[:, 0] * u[0] + g[:, 1] * u[1]


_ID = [1.0, 0.0, 0.0, 1.0]
_lane = st.tuples(*[st.floats(-1e6, 1e6)] * 2, *[st.floats(-5.0, 5.0)] * 2)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(("threshold", "bekk", "bekk-callable", "generic")),
    c=st.lists(_coef, min_size=12, max_size=12),
    lanes=st.lists(_lane, min_size=1, max_size=9),
)
# M = 0 (b_mat = 0 and x = 0) beside a regular lane: the t == 0 branch.
@example(family="bekk", c=_ID + [0.0] * 8, lanes=[(0.0, 0.0, 1.0, -2.0), (1.0, 2.0, 0.5, 0.5)])
# b_mat = [[1, 1], [1, 1]] and A = I: det M = 0 on the line L = {x1 = x2}.
@example(family="bekk", c=_ID + [1.0, 1.0, 0.0] + [0.5] * 5,
         lanes=[(2.5, 2.5, 1.0, -1.0), (-3.0, -3.0, 0.3, 0.2), (1e-8, 1e-8, 1.0, 1.0)])
# Lanes that overflow to inf (and to nan inside the BEKK root).
@example(family="bekk", c=_ID + [0.0] * 8, lanes=[(1e300, 0.0, 1.0, 1.0), (1e200, -1e200, 1.0, 1.0)])
@example(family="bekk-callable", c=_ID + [1.0] * 8, lanes=[(1e300, 1e300, 1.0, 1.0)])
# Threshold lanes that overflow to inf, and to nan (inf - inf), beside a finite one.
@example(family="threshold", c=[2.0] * 12,
         lanes=[(1e308, 1e308, 1e308, 1.0), (-1.0, 2.0, 1.0, 1.0),
                (1e308, -1e308, 1e308, -1e308), (-1e308, -1e308, 1e308, 0.0)])
# States on the boundary of C, signed zeros, and D1 and D2 beside it.
@example(family="threshold", c=[0.5, -0.5, 0.2, 0.1, 0.1, 0.3, 0.1, -0.15, -0.15, 0.1, 0.2, -0.25],
         lanes=[(0.0, -1.5, 1.0, -1.0), (-2.0, 0.0, 0.3, 0.7), (0.0, 0.0, -1.0, 2.0),
                (-0.0, -0.0, 1.0, 1.0), (0.0, 1.5, 1.0, 1.0), (1.5, 0.0, 1.0, 1.0),
                (-0.0, 3.0, -1.0, 0.5), (1.5, -0.0, -0.0, 0.0)])
def test_lane_forms_match_one_state_evaluation(family, c, lanes):
    # The one lane kernel keeps the bits of the one-state step, NaNs and
    # signed zeros included.
    m = _model_of(family, c)
    block = np.array(lanes)
    x, u = block[:, :2], block[:, 2:]
    with np.errstate(over="ignore", invalid="ignore"):
        got = m.lane_kernel()(x, u)
        # The kernel leaves its inputs as they were.
        assert np.array_equal(block, lanes)
        f, g = m.lane_terms(x)
        for i in range(len(x)):
            want = _one_state_step(m, x[i], u[i])
            assert np.array_equal(got[i], want, equal_nan=True)
            assert np.array_equal(np.signbit(got[i]), np.signbit(want))
            assert np.array_equal(f[i], m.eval_f(x[i]), equal_nan=True)
            assert np.array_equal(g[i], m.eval_g(x[i]), equal_nan=True)


_edge = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
_oracle_lane = st.tuples(_edge, _edge, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


def _bits(values):
    """The exact bits of each value, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(("threshold", "bekk")),
    c=st.lists(_coef, min_size=12, max_size=12),
    lanes=st.lists(_oracle_lane, min_size=1, max_size=9),
)
# States on the boundary of C, signed zeros, and D1 and D2 beside it.
@example(family="threshold", c=[0.5, -0.5, 0.2, 0.1, 0.1, 0.3, 0.1, -0.15, -0.15, 0.1, 0.2, -0.25],
         lanes=[(0.0, -1.5, 1.0, -1.0), (-2.0, 0.0, 0.3, 0.7), (0.0, 0.0, -1.0, 2.0),
                (-0.0, -0.0, 1.0, 1.0), (0.0, 1.5, 1.0, 1.0), (1.5, 0.0, 1.0, 1.0),
                (-0.0, 3.0, -1.0, 0.5)])
# b_mat = [[1, 1], [1, 1]] and A = I: det M = 0 on the line L = {x1 = x2},
# which holds the origin, where M = b_mat.
@example(family="bekk", c=_ID + [1.0, 1.0, 0.0] + [0.5] * 5,
         lanes=[(2.5, 2.5, 1.0, -1.0), (-3.0, -3.0, 0.3, 0.2), (1e-8, 1e-8, 1.0, 1.0),
                (0.0, 0.0, 1.0, -2.0), (2.5, -2.5, 0.5, 0.5)])
# b_mat = 0 and A = I: M = 0 at the origin, signed zeros too (the t == 0
# branch, the zero root), beside a regular lane.
@example(family="bekk", c=_ID + [0.0] * 8,
         lanes=[(0.0, 0.0, 1.0, -2.0), (-0.0, 0.0, 0.5, 0.5), (1.0, 2.0, 0.3, -0.7)])
def test_lane_kernels_match_the_python_float_oracle(family, c, lanes):
    # The kernel against tests/oracle.py, bit for bit, in its one order.
    m = _model_of(family, c)
    block = np.array(lanes)
    got = [_bits(row) for row in m.lane_kernel()(block[:, :2], block[:, 2:])]
    one_step = oracle.threshold_step if family == "threshold" else oracle.bekk_step
    assert got == [_bits(one_step(m, lane[:2], lane[2:])) for lane in lanes]


def test_generic_model_of_bekk_callables_simulates_the_bekk_path():
    # eval_f and eval_g of a BEKK model, called once per lane by a
    # GenericModel, give the same path bit for bit: one step formula.
    bekk = make_bekk(b_mat=((1.0, 0.2), (0.2, 0.5)), a_mat=((0.6, 0.1), (-0.2, 0.5)))
    generic = GenericModel(2, bekk.eval_f, bekk.eval_g)
    want = simulate_path(bekk, StdGaussian(2), (0.3, -0.2), 200, 7)
    got = simulate_path(generic, StdGaussian(2), (0.3, -0.2), 200, 7)
    assert got.divergence_step == want.divergence_step
    assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("x, shape", [
    ((1.0, 2.0, 3.0), (3,)), ((1.0,), (1,)), (((1.0, 2.0),), (1, 2)), (1.0, ()),
], ids=["length-3", "length-1", "row", "scalar"])
def test_affine_map_takes_only_a_pair(x, shape):
    # The map is public and is the type a BEKK f is given as, so it keeps
    # the state rule itself: no coordinate may be dropped or missing.
    m = AffineMap(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    with pytest.raises(ValueError, match=re.escape(
            f"state has shape {shape} but the map has dim 2")):
        m(x)
    assert np.array_equal(m((1.0, 2.0)), [1.0, 2.0])


def test_lane_terms_keeps_a_nonfinite_row_like_eval():
    # A non-finite f on the second row is that row's value, as in eval_f;
    # the first row is untouched, and a path from that state is censored.
    m = GenericModel(2, lambda x: np.full(2, math.inf if x[0] == 0.0 else 1.0),
                     lambda x: np.eye(2))
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    f, _ = m.lane_terms(x)
    assert np.array_equal(f, [(1.0, 1.0), (math.inf, math.inf)])
    for row, xi in zip(f, x):
        assert np.array_equal(row, m.eval_f(xi))
    assert np.array_equal(step(m, x[1], (0.5, -0.5)), (math.inf, math.inf))
    res = simulate_path(m, StdGaussian(2), x[1], 5, 1)
    assert res.divergence_step == 1 and np.array_equal(res.states, x[1:])


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: np.zeros(3), lambda x: np.eye(2)],
                         ids=["scalar", "length-3", "matrix"])
def test_bekk_callable_f_must_be_a_pair(f):
    # A scalar used to broadcast to [1, 1] in every row.
    m = make_bekk(f=f)
    for evaluate in (m.eval_f, m.eval_g, lambda x: step(m, x, (0.5, -0.5))):
        with pytest.raises(ValueError, match="model f produced a misshaped value at x="):
            evaluate((0.3, 0.2))


def test_bekk_callable_f_may_be_non_finite():
    # A non-finite value is not refused: the state it gives censors the path.
    m = make_bekk(f=lambda x: np.array([math.nan if x[0] > 1.0 else x[0] + 1.0, 0.0]))
    assert np.array_equal(m.eval_f((0.5, 0.0)), (1.5, 0.0))
    assert np.isnan(m.eval_f((2.0, 0.0))[0])
    assert np.isnan(step(m, (2.0, 0.0), (0.5, -0.5))[0])


def test_classify_region_threshold():
    m = make_threshold()
    assert m.classify_region((-1.0, -1.0)) == "C"
    assert m.classify_region((0.0, 0.0)) == "C"
    assert m.classify_region((0.0, 2.0)) == "D1"
    assert m.classify_region((3.0, 0.0)) == "D2"
    assert m.classify_region((1.0, 1.0)) == "complement_of_C"
    assert m.classify_region((-1.0, 0.5)) == "complement_of_C"


def test_classify_region_bekk_line():
    m = make_bekk()
    assert m.classify_region((2.0, 2.0)) == "on_L"
    assert m.classify_region((2.0, 1.0)) == "off_L"
    # Positive rescaling never changes the on-line tag.
    for c in (1e-6, 1.0, 1e6):
        assert m.classify_region((c * 3.0, c * 3.0)) == "on_L"


def test_classify_region_bekk_constant_classes():
    regular = make_bekk(b_mat=((2.0, 0.0), (0.0, 1.0)))
    assert regular.classify_region((5.0, -1.0)) == "everywhere_regular"
    singular = make_bekk(a_mat=((1.0, 1.0), (1.0, 1.0)))
    assert singular.classify_region((5.0, -1.0)) == "everywhere_singular"


def test_bekk_line_normal_cases():
    kind, normal = bekk_line_normal(np.eye(2), ((1.0, 1.0), (1.0, 1.0)))
    assert kind == "on_L"
    c1, c2 = normal
    # Normal (1, -1) up to scale: the line is {x1 = x2}.
    assert abs(c1 + c2) <= 1e-12 * (abs(c1) + abs(c2))
    kind, _ = bekk_line_normal(((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)))
    assert kind == "everywhere_singular"
    kind, _ = bekk_line_normal(np.eye(2), ((2.0, 0.0), (0.0, 1.0)))
    assert kind == "everywhere_regular"
    with pytest.raises(ValueError):
        bekk_line_normal(np.eye(2), ((1.0, 0.0), (0.0, -1.0)))


def test_model_validation():
    with pytest.raises(ValueError):
        ThresholdAffine2D(a=(0.0,), b_mat=np.eye(2), d_main=np.eye(2),
                          d_c=(0.0, 0.0), d_const=(1.0, 1.0))
    with pytest.raises(ValueError):
        make_bekk(b_mat=((1.0, 2.0), (2.0, 1.0)))  # indefinite
    with pytest.raises(ValueError):
        make_bekk(b_mat=((1.0, 0.5), (0.0, 1.0)))  # asymmetric
    with pytest.raises(ValueError):
        GenericModel(2, lambda x: x, lambda x: np.eye(2)).g_determinant((0.0, 0.0))


def _single_state_calls(model):
    """Each entry point that takes one state of the model, as a pytest param."""
    calls = [("eval_f", model.eval_f), ("eval_g", model.eval_g),
             ("g_determinant", model.g_determinant),
             ("classify_region", model.classify_region),
             ("step", lambda x: step(model, x, np.zeros(model.dim))),
             ("iterate", lambda x: iterate(model, x, []))]
    return [pytest.param(call, id=f"{type(model).__name__}.{name}") for name, call in calls]


@pytest.mark.parametrize("state", [(1.0,), (1.0, 2.0, 3.0)], ids=["len1", "len3"])
@pytest.mark.parametrize("call", [
    case
    for model in (make_threshold(), make_bekk(),
                  GenericModel(2, lambda x: 0.5 * x, lambda x: np.eye(2)))
    for case in _single_state_calls(model)
])
def test_a_state_of_another_shape_is_refused(call, state):
    # Without the state rule, BekkArch.eval_f((1, 2, 3)) (the case
    # BekkArch.eval_f-len3) returned a length-3 array whose third entry was
    # uninitialized memory, the built-in families read the first two
    # coordinates of a longer state, and a length-1 state raised IndexError.
    with pytest.raises(ValueError, match=rf"state has shape \({len(state)},\) "
                                         r"but the model has dim 2"):
        call(state)


def test_step_refuses_a_control_of_another_shape():
    with pytest.raises(ValueError, match=r"control has shape \(3,\) but the model has dim 2"):
        step(make_threshold(), (0.0, 0.0), (1.0, 2.0, 3.0))


def test_require_noise_names_both_dims():
    m = make_threshold()
    m.require_noise(StdGaussian(2))
    with pytest.raises(ValueError, match="the noise has dim 3 but the model has dim 2"):
        m.require_noise(StdGaussian(3))
