import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit import ergodicity
from ergokit.cli import main
from ergokit.config import ConfigError, builtin_configs, validate_config
from ergokit.ergodicity import (
    SOURCE_USER,
    DriftEnvelope,
    empirical_drift_check,
    probe_skeleton_reachability,
    shell_estimate_envelope,
)
from ergokit.noise import Expol2, StdGaussian, abs_moment, draw_source, sample
from ergokit.norms import (
    frobenius_norm,
    induced_norm_bounds,
    matrix_col_sum_norm,
    psd_sqrt,
    require_int,
    s_norms,
    vector_s_norm,
)


def test_vector_s_norm_examples():
    assert vector_s_norm([1.0, 1.0], 1) == 2.0
    assert abs(vector_s_norm([4.0, 9.0], 0.5) - 5.0) < 1e-12
    assert abs(vector_s_norm([3.0, 4.0], 2) - 5.0) < 1e-12


def test_vector_s_norm_zero_iff_zero():
    assert vector_s_norm([0.0, 0.0, 0.0], 0.5) == 0.0
    for s in (0.5, 1.0, 2.0):
        assert vector_s_norm([0.0, 1e-8], s) > 0.0


def test_s_norms_keep_tiny_entries():
    # Squares of these entries are subnormal or zero; the norms stay exact
    # along every axis, and rows above the underflow range are unchanged.
    assert vector_s_norm([0.0, 5.174631847492403e-162], 2.0) == 5.174631847492403e-162
    assert vector_s_norm([3e-170, 4e-170], 2.0) == pytest.approx(5e-170, rel=1e-15)
    rows = np.array([[0.0, 1e-200], [3.0, 4.0], [0.0, 0.0]])
    assert s_norms(rows, 2.0, axis=1).tolist() == [1e-200, 5.0, 0.0]
    assert s_norms(rows, 1.5, axis=0).tolist() == [3.0, s_norms([1e-200, 4.0], 1.5)]
    assert s_norms(np.zeros((0, 2)), 2.0, axis=1).shape == (0,)


def test_s_norms_keep_large_entries():
    # 200^200 overflows, the norm 200 does not; rows whose powers stay in
    # range keep their bits, and a norm above the largest double, or of an
    # infinite entry, is inf.  No numpy warning either way.
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vector_s_norm((200.0, 0.0), 200.0) == 200.0
        assert vector_s_norm((1e300, 1e300), 2.0) == pytest.approx(math.sqrt(2.0) * 1e300,
                                                                    rel=1e-15)
        rows = np.array([[200.0, 0.0], [3.0, 4.0], [big, big], [math.inf, 1.0],
                         [math.nan, 1.0]])
        got = s_norms(rows, 200.0, axis=1)
        assert got[:2].tolist() == [200.0, float(np.sum(rows[1] ** 200.0) ** (1 / 200.0))]
        assert got[2:4].tolist() == [math.inf, math.inf] and math.isnan(got[4])
        assert s_norms(rows[:2].T, 200.0, axis=0).tolist() == got[:2].tolist()
        assert vector_s_norm((big, big), 1.0) == math.inf


def test_vector_s_norm_rejects_bad_exponent():
    with pytest.raises(ValueError):
        vector_s_norm([1.0], 0.0)
    with pytest.raises(ValueError):
        vector_s_norm([1.0], -2.0)


_ERGODIC = builtin_configs()["example2-ergodic"]
_MODEL = validate_config(_ERGODIC)["model"]
_USER_ENVELOPE = {"a_f": 0.0, "b_f": 0.4, "a_g": 2.0, "b_g": 0.25, "M": 1.0}

# Every public entry point that takes the norm exponent s.
_EXPONENT_ENTRY_POINTS = {
    "vector_s_norm": lambda s: vector_s_norm((1.0, 2.0), s),
    "matrix_col_sum_norm": lambda s: matrix_col_sum_norm(np.eye(2), s),
    "abs_moment": lambda s: abs_moment(Expol2(), s),
    "DriftEnvelope": lambda s: DriftEnvelope(
        s=s, a_f=0.0, b_f=0.4, a_g=2.0, b_g=0.25, m_ball=1.0, source=SOURCE_USER),
    "shell_estimate_envelope": lambda s: shell_estimate_envelope(
        _MODEL, s, 1.0, 100.0, 1000, 0),
    "empirical_drift_check": lambda s: empirical_drift_check(
        _MODEL, Expol2(), (1.0, 1.0), s, 1000, 0),
}


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_EXPONENT_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_exponent(monkeypatch, entry, s):
    # One rule and one message, given before any draw.
    def no_draws(*args, **kwargs):
        raise AssertionError("drew noise before checking s")

    monkeypatch.setattr(ergodicity, "sample", no_draws)
    with pytest.raises(ValueError, match=f"^s must be positive and finite, got {s}$"):
        _EXPONENT_ENTRY_POINTS[entry](s)


# Every public entry point outside simulate that takes a count, with the
# name its message gives the count.
_COUNT_ENTRY_POINTS = {
    "StdGaussian": ("dim", StdGaussian),
    "sample": ("count", lambda n: sample(Expol2(), np.random.default_rng(0), n)),
    "take": ("m", lambda n: draw_source(Expol2(), np.random.default_rng(0), 10).take(n)),
    "abs_moment": ("budget", lambda n: abs_moment(
        Expol2(), 1.0, method="monte_carlo", budget=n, rng=np.random.default_rng(0))),
    "empirical_drift_check": ("n_mc", lambda n: empirical_drift_check(
        _MODEL, Expol2(), (1.0, 1.0), 1.0, n, 3)),
    "probe_skeleton_reachability": ("horizon", lambda n: probe_skeleton_reachability(
        _MODEL, [(0.0, 0.0)], n)),
    "shell_estimate_envelope": ("n_samples", lambda n: shell_estimate_envelope(
        _MODEL, 1.0, 1.0, 100.0, n, 0)),
}


@pytest.mark.parametrize("bad", [2.5, 1500.5, True, 1000.0, "5"])
@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_every_count_is_held_to_the_integer_rule(entry, bad):
    # One rule and one message, norms.require_int, given before any draw:
    # numpy would raise a bare TypeError that names no parameter, and a bool
    # would run as the count 1.
    name, call = _COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer, got {bad!r}") + "$"):
        call(bad)


def test_numpy_integer_counts_are_counts():
    assert sample(Expol2(), np.random.default_rng(0), np.int64(3)).shape == (3, 2)
    assert type(StdGaussian(np.int64(3)).dim) is int
    assert len(probe_skeleton_reachability(_MODEL, [(0.0, 0.0)], np.int32(2))) == 1
    assert require_int(np.uint64(7), "n") == 7 and type(require_int(np.int8(7), "n")) is int


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("envelope", ["shell", _USER_ENVELOPE], ids=["shell", "user"])
def test_config_and_cli_refuse_a_bad_exponent(capsys, envelope, s):
    message = f"s must be positive and finite, got {s}"
    with pytest.raises(ConfigError, match=f"^{message} at {re.escape('$.checks.s')}$"):
        validate_config({**_ERGODIC, "checks": {"s": s, "envelope": envelope}})
    assert main(["moments", "--noise", "gaussian", "--s", str(s)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_matrix_col_sum_norm_examples():
    assert abs(matrix_col_sum_norm([[0.2, 0.1], [0.1, 0.3]], 1) - 0.4) < 1e-15
    assert matrix_col_sum_norm(np.eye(2), 1) == 1.0
    assert abs(matrix_col_sum_norm([[1.0, 2.0], [2.0, 1.0]], 0.5) - (1 + math.sqrt(2))) < 1e-12


# Entries below 1e-6 in magnitude become 0, so that no |x_i|^s underflows
# on one side of the inequality and not on the other.
_entry = st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-6 else 0.0)


@settings(max_examples=300, deadline=None)
@given(
    s=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    dim=st.sampled_from([2, 3]),
    entries=st.lists(_entry, min_size=12, max_size=12),
)
def test_induced_norm_bounds_are_compatible(s, dim, entries):
    a = np.array(entries[:dim * dim]).reshape(dim, dim)
    x = np.array(entries[9:9 + dim])
    bound = float(induced_norm_bounds(a[None], s)[0])
    assert vector_s_norm(a @ x, s) <= bound * vector_s_norm(x, s) * (1 + 1e-12)
    if s <= 1.0:
        assert bound == matrix_col_sum_norm(a, s)


def test_induced_norm_bounds_examples():
    ones = np.ones((1, 2, 2))
    assert induced_norm_bounds(ones, 2.0)[0] == 2.0
    assert abs(matrix_col_sum_norm(ones[0], 2.0) - math.sqrt(2.0)) < 1e-15
    # Riesz-Thorin is exact on the all-ones matrix: 3^(1/s) * 3^(1 - 1/s).
    assert abs(induced_norm_bounds(np.ones((1, 3, 3)), 1.5)[0] - 3.0) < 1e-14
    stack = np.array([[[2.0, 0.0], [0.0, -3.0]], [[0.0, 1.0], [0.0, 0.0]]])
    assert induced_norm_bounds(stack, 2.0).tolist() == [3.0, 1.0]
    with pytest.raises(ValueError):
        induced_norm_bounds(np.ones((2, 2)), 2.0)


def test_frobenius_norm_examples():
    assert abs(frobenius_norm(np.eye(2)) - math.sqrt(2)) < 1e-15
    assert abs(frobenius_norm(0.3 * np.eye(2)) - 0.3 * math.sqrt(2)) < 1e-15


def test_frobenius_equals_trace_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform(-10, 10, (4, 4))
        want = math.sqrt(np.trace(a.T @ a))
        assert abs(frobenius_norm(a) - want) <= 1e-12 * want


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)
    assert np.allclose(psd_sqrt([[4.0, 0.0], [0.0, 9.0]]), [[2.0, 0.0], [0.0, 3.0]], atol=1e-12)


def test_psd_sqrt_reconstruction_random():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        q = rng.standard_normal((n, n))
        m = q @ q.T
        s = psd_sqrt(m)
        assert frobenius_norm(s @ s - m) <= 1e-10 * (1 + frobenius_norm(m))
        assert frobenius_norm(s - s.T) <= 1e-12 * (1 + frobenius_norm(m))


def test_psd_sqrt_is_identity_on_projections():
    # Matrices with eigenvalues in {0, 1} are their own square roots.
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = int(rng.integers(1, n + 1))
        m = q[:, :k] @ q[:, :k].T
        assert frobenius_norm(psd_sqrt(m) - m) <= 1e-10


def test_psd_sqrt_clamps_tiny_negative_eigenvalues():
    m = np.array([[1.0, 0.0], [0.0, -1e-12]])
    s = psd_sqrt(m)
    assert np.allclose(s, [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)


def test_psd_sqrt_zero_and_diagonal():
    assert np.all(psd_sqrt(np.zeros((3, 3))) == 0.0)
    root = psd_sqrt(np.diag([9.0, 0.0, 4.0]))
    assert np.allclose(root, np.diag([3.0, 0.0, 2.0]), atol=1e-14)


def test_psd_sqrt_rejects_large_dimension():
    assert np.allclose(psd_sqrt(np.eye(8)), np.eye(8), atol=1e-14)
    with pytest.raises(ValueError, match="dimension 9 exceeds the supported maximum 8"):
        psd_sqrt(np.eye(9))


def test_psd_sqrt_rejects_indefinite_and_asymmetric():
    with pytest.raises(ValueError):
        psd_sqrt([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        psd_sqrt([[1.0, 0.5], [0.0, 1.0]])


def _rand_dims(rng, count):
    return rng.integers(2, 6, size=count)


def test_pseudonorm_triangle_inequality():
    rng = np.random.default_rng(41)
    for s in (0.5, 0.75, 1.0):
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            x = rng.uniform(-10, 10, n)
            y = rng.uniform(-10, 10, n)
            lhs = vector_s_norm(x + y, s)
            rhs = vector_s_norm(x, s) + vector_s_norm(y, s)
            assert lhs <= rhs + 1e-10


def test_pseudonorm_s_homogeneity():
    # For s <= 1 scaling by c multiplies the pseudonorm by |c|^s.
    rng = np.random.default_rng(43)
    for s in (0.5, 0.75):
        for _ in range(500):
            x = rng.uniform(-10, 10, 3)
            c = rng.uniform(-4, 4)
            lhs = vector_s_norm(c * x, s)
            rhs = abs(c) ** s * vector_s_norm(x, s)
            assert abs(lhs - rhs) <= 1e-10 * (1 + rhs)


def test_col_norm_submultiplicative_pseudonorm_regime():
    rng = np.random.default_rng(47)
    for s in (0.5, 0.75, 1.0):
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-10, 10, (n, n))
            b = rng.uniform(-10, 10, (n, n))
            lhs = matrix_col_sum_norm(a @ b, s)
            rhs = matrix_col_sum_norm(a, s) * matrix_col_sum_norm(b, s)
            assert lhs <= rhs + 1e-10


def test_col_norm_compatible_pseudonorm_regime():
    rng = np.random.default_rng(53)
    for s in (0.5, 0.75, 1.0):
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-10, 10, (n, n))
            x = rng.uniform(-10, 10, n)
            lhs = vector_s_norm(a @ x, s)
            rhs = matrix_col_sum_norm(a, s) * vector_s_norm(x, s)
            assert lhs <= rhs + 1e-10


def test_frobenius_compatible_with_l2():
    rng = np.random.default_rng(59)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        a = rng.uniform(-10, 10, (n, n))
        x = rng.uniform(-10, 10, n)
        assert vector_s_norm(a @ x, 2) <= frobenius_norm(a) * vector_s_norm(x, 2) + 1e-10
