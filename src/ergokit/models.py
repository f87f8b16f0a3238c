"""Model families for X_t = f(X_{t-1}) + g(X_{t-1}) e_t and the step operator.

Three families are provided: a generic callable pair, a bivariate threshold
model whose volatility matrix switches on the closed quadrant
C = {x <= 0, y <= 0}, and a two-dimensional BEKK-ARCH(1) model with
volatility (B + (Ax)(Ax)^T)^(1/2).  All specs are immutable value objects and
every evaluation operation is pure.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .norms import frobenius_norm

# Relative tolerance of the symmetry and PSD checks on BEKK b_mat.
_B_REL_TOL = 1e-10

# Region labels for ThresholdAffine2D.
REGION_C = "C"
REGION_COMPLEMENT = "complement_of_C"
REGION_D1 = "D1"
REGION_D2 = "D2"

# Region labels for BekkArch.
REGION_ON_L = "on_L"
REGION_OFF_L = "off_L"
REGION_EVERYWHERE_SINGULAR = "everywhere_singular"
REGION_EVERYWHERE_REGULAR = "everywhere_regular"


def _as_pair(values, name):
    t = tuple(float(v) for v in values)
    if len(t) != 2 or not all(math.isfinite(v) for v in t):
        raise ValueError(f"{name} must be a pair of finite reals")
    return t


def _as_2x2(values, name):
    rows = tuple(tuple(float(v) for v in row) for row in values)
    ok = len(rows) == 2 and all(len(r) == 2 for r in rows)
    if not ok or not all(math.isfinite(v) for r in rows for v in r):
        raise ValueError(f"{name} must be a finite 2x2 matrix")
    return rows


class _ModelSpec:
    """Base of every model family.

    Each family writes its f and g once, as _columns(): a closure X -> (f, g)
    over a (k, dim) block X whose row i is one lane's state, with f[i]
    coordinate i of f and g[i][j] entry (i, j) of g, each a length-k array,
    and the coefficients held as locals.  lane_kernel() and lane_terms(X)
    are built from it for every family; eval_f and eval_g read row 0 of
    lane_terms.
    """

    def require_state(self, x, name="state"):
        """The state rule: x as a float array of shape (dim,), else a ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape} but the model has dim {self.dim}")
        return x

    def require_noise(self, spec):
        """The noise rule of every entry point that takes a noise law."""
        if spec.dim != self.dim:
            raise ValueError(f"the noise has dim {spec.dim} but the model has dim {self.dim}")

    def lane_terms(self, x):
        """The columns stacked: a (k, dim) block whose row i is f(x[i]) and a
        (k, dim, dim) block whose entry i is g(x[i])."""
        f, g = self._columns()(x)
        g = np.stack([g_ij for row in g for g_ij in row], axis=1)
        return np.stack(f, axis=1), g.reshape(-1, self.dim, self.dim)

    def _one_state(self, x):
        """(f(x), g(x)), row 0 of lane_terms.  Overflow gives non-finite
        entries rather than a warning, as in `step`."""
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = self.lane_terms(self.require_state(x)[None])
        return f[0], g[0]

    def eval_f(self, x):
        """Mean map f(x) as a length-dim array."""
        return self._one_state(x)[0]

    def eval_g(self, x):
        """Volatility matrix g(x) as a dim x dim array."""
        return self._one_state(x)[1]

    def lane_kernel(self):
        """The step in lane form: a closure (X, U) -> X' that advances k
        states at once, with X, U and X' (k, dim) float arrays whose row i is
        one lane's state, draw and next state.  Each coordinate is
        f + g_i1 u1 + g_i2 u2 + ... summed left to right, each operation
        rounded once, with no matmul, so no BLAS decides the bits.  It does
        not modify X or U.  Both `step` (one lane) and the ensemble
        recurrence in `simulate` (every live lane) run it."""
        columns = self._columns()

        def step(x, u):
            f, g = columns(x)
            out = np.empty_like(x)
            for i, (acc, row) in enumerate(zip(f, g)):
                for g_ij, u_j in zip(row, u.T):
                    acc = acc + g_ij * u_j
                out[:, i] = acc
            return out

        return step

    def g_determinant(self, x):
        self.require_state(x)
        raise ValueError("g_determinant supports ThresholdAffine2D and BekkArch only")

    def classify_region(self, x):
        self.require_state(x)
        raise ValueError("classify_region supports ThresholdAffine2D and BekkArch only")


def _rows(fn, x, shape, name):
    """fn of each row of x, stacked; a value of another shape raises.  A
    non-finite value is kept: the state it gives censors the path."""
    out = np.empty((len(x), *shape))
    for i, xi in enumerate(x):
        value = np.asarray(fn(xi), dtype=float)
        if value.shape != shape:
            raise ValueError(f"model {name} produced a misshaped value at x={xi!r}")
        out[i] = value
    return out


@dataclass(frozen=True)
class GenericModel(_ModelSpec):
    """Model given by arbitrary callables f: R^n -> R^n and g: R^n -> R^(n x n),
    called once per lane.  A misshaped value raises everywhere; a non-finite
    one is a value, as for every family, and censors the path it reaches."""

    dim: int
    f: Callable
    g: Callable

    def __post_init__(self):
        if not 1 <= self.dim <= 8:
            raise ValueError(f"dim must be in 1..8, got {self.dim}")

    def _columns(self):
        f, g, dim = self.f, self.g, self.dim
        return lambda x: (_rows(f, x, (dim,), "f").T,
                          _rows(g, x, (dim, dim), "g").transpose(1, 2, 0))


@dataclass(frozen=True)
class ThresholdAffine2D(_ModelSpec):
    """Bivariate threshold model with affine mean and switching volatility.

    The mean is the AffineMap x -> a + b_mat @ x.  The volatility matrix
    keeps only its first column on the closed quadrant C = {x <= 0, y <= 0}
    (entries d_c[0] * x + d_const[0] and d_c[1] * y + d_const[1]); elsewhere
    the main 2x2 block d_main scales column 1 by x and column 2 by y, and
    d_const is still added to the first column.  The matrix is therefore
    singular on C by construction and discontinuous on the boundary of C.
    """

    a: tuple
    b_mat: tuple
    d_main: tuple
    d_c: tuple
    d_const: tuple

    dim = 2
    # Exponent s at which threshold_envelope bounds the drift.
    analytic_envelope_s = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", _as_pair(self.a, "a"))
        object.__setattr__(self, "b_mat", _as_2x2(self.b_mat, "b_mat"))
        object.__setattr__(self, "d_main", _as_2x2(self.d_main, "d_main"))
        object.__setattr__(self, "d_c", _as_pair(self.d_c, "d_c"))
        object.__setattr__(self, "d_const", _as_pair(self.d_const, "d_const"))

    def _columns(self):
        mean = AffineMap(self.b_mat, self.a).columns
        ((d11, d12), (d21, d22)) = self.d_main
        d31, d32 = self.d_c
        d41, d42 = self.d_const

        def columns(x):
            x1, x2 = x.T
            c = _in_c(x1, x2)
            # On C only the first column survives: d_c scales it, g12 = g22 = 0.
            g11 = np.where(c, d31 * x1, d11 * x1) + d41
            g12 = np.where(c, 0.0, d12 * x2)
            g21 = np.where(c, d32 * x2, d21 * x1) + d42
            g22 = np.where(c, 0.0, d22 * x2)
            return mean(x1, x2), ((g11, g12), (g21, g22))

        return columns

    def g_determinant(self, x):
        """det g(x), zero on C."""
        ((g11, g12), (g21, g22)) = self.eval_g(x).tolist()
        return g11 * g22 - g12 * g21

    def classify_region(self, x):
        """Total classification of the state: "C" (the closed quadrant),
        "D1" ({x = 0, y > 0}), "D2" ({x > 0, y = 0}) or "complement_of_C"."""
        x1, x2 = self.require_state(x).tolist()
        if _in_c(x1, x2):
            return REGION_C
        if x1 == 0.0 and x2 > 0.0:
            return REGION_D1
        if x1 > 0.0 and x2 == 0.0:
            return REGION_D2
        return REGION_COMPLEMENT


@dataclass(frozen=True)
class AffineMap:
    """Callable x -> offset + matrix @ x with tuple-stored coefficients."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_2x2(self.matrix, "matrix"))
        object.__setattr__(self, "offset", _as_pair(self.offset, "offset"))

    def columns(self, x1, x2):
        """Both coordinates of the image, over scalars or over equal-shape
        arrays of lane coordinates."""
        ((m11, m12), (m21, m22)) = self.matrix
        o1, o2 = self.offset
        return o1 + m11 * x1 + m12 * x2, o2 + m21 * x1 + m22 * x2

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ValueError(f"state has shape {x.shape} but the map has dim 2")
        return np.array(self.columns(*x.tolist()))


def _finite_scale(m, name):
    """1 + ||m||_F, computed without a numpy warning; raises if it overflows,
    which keeps every product of two entries of m finite."""
    with np.errstate(over="ignore"):
        scale = 1.0 + frobenius_norm(m)
    if not math.isfinite(scale):
        raise ValueError(f"{name} is too large: 1 + ||{name}||_F overflows")
    return scale


def bekk_b_eigenvalues(b_mat):
    """((smaller, larger) eigenvalue, 1 + ||b_mat||_F) of a BEKK b_mat with
    off-diagonal (b12 + b21) / 2, as in BekkArch._m_terms; raises unless it is
    symmetric positive semidefinite within 1e-10 of that scale, and unless
    that scale is finite, which keeps every product of two entries finite.
    They are mean -/+ hypot(half-difference, off-diagonal): the one farther
    from zero from that sum, the other as det / it, which does not cancel."""
    b = np.asarray(b_mat, dtype=float)
    scale = _finite_scale(b, "b_mat")
    if frobenius_norm(b - b.T) > _B_REL_TOL * scale:
        raise ValueError("b_mat must be symmetric")
    ((b11, b12), (b21, b22)) = b.tolist()
    off = (b12 + b21) / 2.0
    mean, radius = (b11 + b22) / 2.0, math.hypot((b11 - b22) / 2.0, off)
    far = mean + math.copysign(radius, mean)
    near = (b11 * b22 - off * off) / far if far else 0.0
    smaller, larger = sorted((near, far))
    if smaller < -_B_REL_TOL * scale:
        raise ValueError("b_mat must be positive semidefinite")
    return (smaller, larger), scale


@dataclass(frozen=True)
class BekkArch(_ModelSpec):
    """Two-dimensional BEKK-ARCH(1) model with autoregressive term f.

    The volatility matrix is the PSD square root of
    b_mat + (a_mat @ x)(a_mat @ x)^T; b_mat must be symmetric positive
    semidefinite but is allowed to be singular.  Both matrices must have a
    finite 1 + ||.||_F.
    """

    f: Callable
    a_mat: tuple
    b_mat: tuple

    dim = 2
    # Exponent s at which check_model's Frobenius envelope for BEKK holds.
    analytic_envelope_s = 2.0

    def __post_init__(self):
        object.__setattr__(self, "a_mat", _as_2x2(self.a_mat, "a_mat"))
        object.__setattr__(self, "b_mat", _as_2x2(self.b_mat, "b_mat"))
        _finite_scale(self.a_mat, "a_mat")
        bekk_b_eigenvalues(self.b_mat)

    def _m_terms(self):
        """Closure (x1, x2) -> (m11, m12, m22, det M) of M = b_mat + v v^T
        with v = a_mat @ x, (b12 + b21) / 2 as b_mat's off-diagonal and
        det M = det b_mat + v^T adj(b_mat) v; over the scalar coordinates of
        one state or over equal-shape arrays of lane coordinates."""
        ((a11, a12), (a21, a22)) = self.a_mat
        ((b11, b12), (b21, b22)) = self.b_mat
        b12 = (b12 + b21) / 2.0
        det_b = b11 * b22 - b12 * b12

        def terms(x1, x2):
            v1 = a11 * x1 + a12 * x2
            v2 = a21 * x1 + a22 * x2
            det = det_b + (b11 * v2 * v2 + b22 * v1 * v1 - 2.0 * b12 * v1 * v2)
            return b11 + v1 * v1, b12 + v1 * v2, b22 + v2 * v2, det

        return terms

    def _columns(self):
        """f and g of every lane: an AffineMap f on the lane columns, any
        other f once per row (a misshaped value raises, a non-finite one
        gives a non-finite row), and g the PSD root of M in closed form,
        (M + sqrt(det M) I) / sqrt(t) with t = tr M + 2 sqrt(det M), and the
        zero matrix where t == 0 (M = 0).  An overflowing lane gives
        non-finite entries."""
        f, m_terms = self.f, self._m_terms()
        mean = f.columns if isinstance(f, AffineMap) else None

        def columns(x):
            x1, x2 = x.T
            f_x = mean(x1, x2) if mean else _rows(f, x, (2,), "f").T
            m11, m12, m22, det = m_terms(x1, x2)
            r = np.sqrt(np.maximum(det, 0.0))
            t = np.sqrt(np.maximum(m11 + m22 + 2.0 * r, 0.0))
            # Dividing only where t != 0 leaves those lanes' zeros in place.
            g11, g12, g22 = np.divide((m11 + r, m12, m22 + r), t,
                                      out=np.zeros((3, len(t))), where=t != 0.0)
            return f_x, ((g11, g12), (g12, g22))

        return columns

    def g_determinant(self, x):
        """det(b_mat + (Ax)(Ax)^T)."""
        return self._m_terms()(*self.require_state(x).tolist())[3]

    def classify_region(self, x):
        """Total classification of the state: "everywhere_regular" /
        "everywhere_singular" when the degeneracy class of bekk_line_normal
        does not depend on x, else "on_L" / "off_L" with a scale-invariant
        membership test (so positive rescaling never changes the tag)."""
        x1, x2 = self.require_state(x).tolist()
        kind, normal = bekk_line_normal(self.a_mat, self.b_mat)
        if kind != REGION_ON_L:
            return kind
        c1, c2 = normal
        lhs = abs(c1 * x1 + c2 * x2)
        bound = 1e-9 * math.hypot(c1, c2) * math.hypot(x1, x2)
        return REGION_ON_L if lhs <= bound else REGION_OFF_L


def _in_c(x1, x2):
    # C is closed: its boundary belongs to the region.  `&` so that lane
    # arrays give an elementwise mask.
    return (x1 <= 0.0) & (x2 <= 0.0)


def step(model, x, u):
    """One transition: f(x) + g(x) @ u, a one-lane call of the family's lane
    kernel."""
    x, u = model.require_state(x), model.require_state(u, "control")
    # Overflow shows as a non-finite state, as in the ensemble recurrence.
    with np.errstate(over="ignore", invalid="ignore"):
        return model.lane_kernel()(x[None], u[None])[0]


def iterate(model, x0, controls):
    """Fold `step` over the control sequence; empty controls return x0."""
    x = model.require_state(x0)
    for u in controls:
        x = step(model, x, u)
    return x


def bekk_line_normal(a_mat, b_mat):
    """Degeneracy class of det(b_mat + (Ax)(Ax)^T) over x in R^2.

    Returns (kind, normal): kind is one of the Bekk region constants
    REGION_EVERYWHERE_REGULAR / REGION_EVERYWHERE_SINGULAR, or REGION_ON_L
    with `normal` = (c1, c2) such that the determinant vanishes exactly on
    the line {c1 x1 + c2 x2 = 0}.

    For rank-one b_mat = w w^T with w = (sqrt(b11), sigma sqrt(b22)) the
    determinant equals (c1 x1 + c2 x2)^2 where
    c1 = a11 sqrt(b22) - sigma a21 sqrt(b11),
    c2 = a12 sqrt(b22) - sigma a22 sqrt(b11),
    and sigma = sign(b12) resolves the rank-one factorization sign
    (sigma = +1 when b12 = 0), with b12 read as (b12 + b21) / 2.
    """
    b = np.asarray(b_mat, dtype=float)
    a = np.asarray(a_mat, dtype=float)
    (w_min, w_max), scale = bekk_b_eigenvalues(b)
    tol_eig = _B_REL_TOL * scale
    if w_min > tol_eig:
        return REGION_EVERYWHERE_REGULAR, None
    if w_max <= tol_eig:
        # b_mat ~ 0: the volatility is the rank-one (Ax)(Ax)^T everywhere.
        return REGION_EVERYWHERE_SINGULAR, None
    b11 = max(float(b[0, 0]), 0.0)
    b22 = max(float(b[1, 1]), 0.0)
    sigma = -1.0 if b[0, 1] + b[1, 0] < 0.0 else 1.0
    r11 = math.sqrt(b11)
    r22 = math.sqrt(b22)
    c1 = a[0, 0] * r22 - sigma * a[1, 0] * r11
    c2 = a[0, 1] * r22 - sigma * a[1, 1] * r11
    tol_c = 1e-12 * (1.0 + frobenius_norm(a) * (r11 + r22))
    if abs(c1) <= tol_c and abs(c2) <= tol_c:
        return REGION_EVERYWHERE_SINGULAR, None
    return REGION_ON_L, (c1, c2)
