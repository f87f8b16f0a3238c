"""One state's step X' = f(x) + g(x) u, written out in Python floats.

An oracle for the lane kernel of ergokit.models that shares no code with
it: each family's formulas transcribed coordinate by coordinate, with
`math` for the roots, in the order in which the kernel rounds them.  Every
family sums each coordinate of the step as f + g_i1 u1 + g_i2 u2, left to
right.
"""

import math


def threshold_step(model, x, u):
    """ThresholdAffine2D: the mean a + b_mat x, and g keeping only its first
    column on the closed quadrant C = {x1 <= 0, x2 <= 0}, plus d_const in
    that column."""
    (x1, x2), (u1, u2) = x, u
    (b11, b12), (b21, b22) = model.b_mat
    a1, a2 = model.a
    (d11, d12), (d21, d22) = model.d_main
    d31, d32 = model.d_c
    d41, d42 = model.d_const
    f1 = a1 + b11 * x1 + b12 * x2
    f2 = a2 + b21 * x1 + b22 * x2
    if x1 <= 0.0 and x2 <= 0.0:
        g11, g12, g21, g22 = d31 * x1 + d41, 0.0, d32 * x2 + d42, 0.0
    else:
        g11, g12, g21, g22 = d11 * x1 + d41, d12 * x2, d21 * x1 + d42, d22 * x2
    return (f1 + g11 * u1 + g12 * u2,
            f2 + g21 * u1 + g22 * u2)


def bekk_root(model, x):
    """(g11, g12, g22) of the BEKK volatility, the PSD root of
    M = b_mat + v v^T with v = a_mat x, taking (b12 + b21) / 2 as the
    off-diagonal of b_mat: (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)),
    or 0 where that trace is 0."""
    x1, x2 = x
    (a11, a12), (a21, a22) = model.a_mat
    (b11, b12), (b21, b22) = model.b_mat
    b12 = (b12 + b21) / 2.0
    v1 = a11 * x1 + a12 * x2
    v2 = a21 * x1 + a22 * x2
    det = b11 * b22 - b12 * b12 + (b11 * v2 * v2 + b22 * v1 * v1 - 2.0 * b12 * v1 * v2)
    m11, m12, m22 = b11 + v1 * v1, b12 + v1 * v2, b22 + v2 * v2
    r = math.sqrt(max(det, 0.0))
    t = math.sqrt(max(m11 + m22 + 2.0 * r, 0.0))
    if t == 0.0:
        return 0.0, 0.0, 0.0
    return (m11 + r) / t, m12 / t, (m22 + r) / t


def bekk_step(model, x, u):
    """BekkArch with an affine mean."""
    x1, x2 = x
    (m11, m12), (m21, m22) = model.f.matrix
    o1, o2 = model.f.offset
    f1 = o1 + m11 * x1 + m12 * x2
    f2 = o2 + m21 * x1 + m22 * x2
    g11, g12, g22 = bekk_root(model, x)
    u1, u2 = u
    return f1 + g11 * u1 + g12 * u2, f2 + g12 * u1 + g22 * u2
