"""Vector s-pseudonorms, small dense matrix norms, and the PSD matrix square root.

For 0 < s < 1 the vector "norm" is the pseudonorm sum(|x_i|^s) with no outer
root; it satisfies the triangle inequality but not homogeneity.  For s >= 1 it
is the genuine l_s norm.  The two branches coincide at s = 1.  The module
also holds the argument rules every other module calls: require_exponent
for s and require_int for counts.
"""

import math

import numpy as np

# All eigen-based routines are restricted to tiny dense matrices.
MAX_EIG_DIM = 8

# Below this sum of |a_i|^s, terms may have lost bits to subnormal underflow:
# a norm with s >= 1 is then recomputed from entries scaled by their maximum,
# as it is when the sum overflows although every entry is finite.
SUBNORMAL_SAFE_SUM = 2.0 ** -960


def s_norms(a, s, axis=None):
    """Sum of |a|^s along `axis`, with the outer 1/s root when s >= 1: the
    s-norm of a vector (axis=None), of matrix columns or of sample rows.  A
    norm with s >= 1 is inf only if it exceeds the largest double or an
    entry is inf."""
    a = np.abs(np.asarray(a, dtype=float))
    if s < 1.0:
        return np.sum(a ** s, axis=axis)
    # Rows that are not rescaled may meet inf / inf in the scaled form.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(a ** s, axis=axis)
        norms = total ** (1.0 / s)
        rescale = (total < SUBNORMAL_SAFE_SUM) | np.isinf(total)
        if a.size == 0 or not np.any(rescale):
            return norms
        rescale &= np.all(np.isfinite(a), axis=axis)  # an inf entry's norm is inf
        # Tiny entries such as 5e-162 square into subnormals with a few bits
        # left, or to zero, and entries such as 200 overflow at s = 200; the
        # norm of the entries over their peak does neither.
        peak = np.max(a, axis=axis, keepdims=True)
        ratio = np.divide(a, peak, out=np.zeros_like(a), where=peak > 0)
        scaled = np.squeeze(peak, axis=axis) * np.sum(ratio ** s, axis=axis) ** (1.0 / s)
    return np.where(rescale, scaled, norms)[()]


def require_int(value, name):
    """value as an int if it is a Python or numpy integer, else a ValueError
    naming it: sizes, counts and horizons are integers, and a bool or a float
    would run as another count or fail inside numpy."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_exponent(s):
    """float(s) if it is a positive, finite norm exponent, else a ValueError."""
    s = float(s)
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"s must be positive and finite, got {s}")
    return s


def vector_s_norm(x, s):
    """s-pseudonorm for 0 < s < 1, l_s norm for s >= 1."""
    s = require_exponent(s)
    return float(s_norms(x, s))


def matrix_col_sum_norm(a_mat, s):
    """Maximum over columns of the vector_s_norm of the column."""
    s = require_exponent(s)
    m = np.asarray(a_mat, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return float(np.max(s_norms(m, s, axis=0)))


def induced_norm_bounds(mats, s):
    """Bounds c with ||A x||_s <= c ||x||_s for every square A in a stacked
    (n, d, d) array, one per matrix, computed without LAPACK.

    For s <= 1 this is the largest column s-norm (matrix_col_sum_norm), which
    is the induced norm there.  For s = 2 and d = 2 it is the exact largest
    singular value; for any other s > 1 the Riesz-Thorin bound
    ||A||_1^(1/s) ||A||_inf^(1 - 1/s).
    """
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("expected a stacked (n, d, d) array of square matrices")
    if s <= 1.0:
        return np.max(s_norms(m, s, axis=1), axis=1)
    if s == 2.0 and m.shape[1] == 2:
        a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0
    col = np.max(s_norms(m, 1.0, axis=1), axis=1)
    row = np.max(s_norms(m, 1.0, axis=2), axis=1)
    return col ** (1.0 / s) * row ** (1.0 - 1.0 / s)


def frobenius_norm(a_mat):
    """Square root of the sum of squared entries."""
    m = np.asarray(a_mat, dtype=float)
    return float(math.sqrt(np.sum(m * m)))


def psd_sqrt(m_sym, tol=1e-10):
    """Unique positive semidefinite square root of a symmetric PSD matrix.

    Eigenvalues in [-tol * (1 + ||M||_F), 0) are treated as rounding artifacts
    and clamped to zero; anything below that bound raises.

    Parameters
    ----------
    m_sym : array-like, shape (n, n), n <= 8
    tol : float
        Relative tolerance for both the symmetry check and the negative
        eigenvalue clamp.

    Returns
    -------
    ndarray, shape (n, n)
        Symmetric matrix S with S @ S == m_sym up to the same tolerance scale.
    """
    m = np.asarray(m_sym, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = 1.0 + frobenius_norm(m)
    if frobenius_norm(m - m.T) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    n = m.shape[0]
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_EIG_DIM}")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    floor = -tol * scale
    if np.min(w) < floor:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {np.min(w):.6g} "
            f"below {floor:.6g}"
        )
    # Rounding noise can leave eigenvalues slightly positive as well as
    # slightly negative; sqrt would amplify +1e-16 to 1e-8, so clamp both
    # sides.  The positive clamp is divided by the dimension cap so that the
    # reconstruction error stays within tol * scale even if every eigenvalue
    # sits at the clamp.
    w = np.where(w < tol * scale / MAX_EIG_DIM, 0.0, w)
    root = (v * np.sqrt(w)) @ v.T
    return (root + root.T) / 2.0
