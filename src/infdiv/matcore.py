"""Dense symmetric matrix kernels.

Everything in here operates on small matrices (nothing bigger than 8x8 in
practice). The heavy lifting is numpy's LAPACK bindings; what this module
adds are the documented conventions, as thin post-processing:

* the general eigensolver is np.linalg.eigh, with eigenvalues put in
  descending order (exact ties by the row of the eigenvector's largest
  entry, so diagonal inputs keep index order) and each eigenvector's
  largest-magnitude entry made positive,
* the 2x2 eigenproblem has a dedicated closed form so that tie conventions
  (identity multiples, sign of the leading eigenvector) are honored exactly,
* np.linalg.cholesky is followed by one pivot rule, min(diag L)^2 above
  1e-12 * trace / dim, so the positive-definiteness test has a well-defined
  tolerance; a non-finite entry is never positive definite.

symmetrize, top_eigenvalue and is_positive_definite also take a (..., n, n)
stack and decide each matrix exactly as they would alone; eigen2_rows runs
the 2x2 closed form over many matrices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, NotPositiveDefinite

# no sum of two entries at most this large in magnitude overflows
_HALF_MAX = sys.float_info.max / 2.0


def symmetrize(m) -> np.ndarray:
    """Return (M + M^t)/2 as a float array, for one (n, n) matrix or a
    (..., n, n) stack. Downstream code assumes exact symmetry, so every
    external matrix passes through here once.

    Where the sum of two finite entries overflows, the entry is
    M/2 + M^t/2 instead; halving first everywhere would round odd
    subnormals, so every other entry keeps the bits of (M + M^t)/2.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    if np.abs(a).max(initial=0.0) <= _HALF_MAX:  # False on a NaN
        return (a + at) / 2.0
    with np.errstate(over="ignore"):
        s = (a + at) / 2.0
    over = np.isinf(s) & np.isfinite(a) & np.isfinite(at)
    s[over] = (a / 2.0 + at / 2.0)[over]
    return s


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric real matrix with JSON round-tripping.

    entries is the full dense array; symmetry is enforced at construction by
    averaging and can be assumed exact afterwards.
    """

    dim: int
    entries: np.ndarray

    @classmethod
    def from_array(cls, m) -> "SymMatrix":
        a = symmetrize(m)
        if a.ndim != 2:
            raise ValueError(f"expected one square matrix, got shape {a.shape}")
        return cls(dim=a.shape[0], entries=a)

    @classmethod
    def from_json(cls, obj: dict) -> "SymMatrix":
        dim = int(obj["dim"])
        flat = np.asarray(obj["entries"], dtype=float)
        if flat.size != dim * dim:
            raise ValueError(f"entries length {flat.size} != dim^2 = {dim * dim}")
        return cls.from_array(flat.reshape(dim, dim))

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [float(x) for x in self.entries.ravel()]}


@dataclass(frozen=True)
class EigenPair2:
    """Eigendecomposition of a symmetric 2x2 matrix, lambda1 >= lambda2.

    Conventions: for a multiple of the identity v1 is exactly (1, 0); otherwise
    v1 is normalized with v1[0] >= 0, and v1[0] == 0 forces v1[1] > 0.
    v2 = (-v1[1], v1[0]) so the pair is an exactly orthonormal right-handed
    basis (its first entry is +0.0, not -0.0, when v1[1] is 0).
    """

    lambda1: float
    lambda2: float
    v1: np.ndarray
    v2: np.ndarray

    @classmethod
    def from_row(cls, row) -> "EigenPair2":
        """Wrap one (lambda1, lambda2, x, y) row of the closed form, v1 = (x, y).
        The eigenvalues become numpy scalars, as for the unscaled entries:
        callers take lambda ** -0.5, which is nan for a roundoff-negative
        numpy value but complex for a float."""
        lam1, lam2, x, y = row
        return cls(np.float64(lam1), np.float64(lam2), np.array([x, y]), np.array([0.0 - y, x]))

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack([self.v1, self.v2])


def _eigen2(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """Closed-form eigendecomposition of [[a, b], [b, c]] on Python floats:
    (lambda1, lambda2, x, y) with v1 = (x, y), under EigenPair2's conventions.

    The closed form runs on the matrix scaled by the power of two that puts
    its largest |entry| in [0.5, 1): b*b cannot overflow, subnormals keep
    their bits, and normal-range results are bit-identical to no scaling.
    An off-diagonal entry that would be subnormal after scaling counts as 0.
    """
    _, e = math.frexp(max(abs(a), abs(b), abs(c)))
    if math.ldexp(abs(b), -e) <= sys.float_info.min:
        # a >= c includes the identity-multiple case a == c: v1 = (1, 0)
        return (a, c, 1.0, 0.0) if a >= c else (c, a, 0.0, 1.0)
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    h = 0.5 * (a - c)
    r = math.hypot(h, b)
    mid = 0.5 * (a + c)
    # v1 is parallel to (lam1 - c, b); the first component is computed in a
    # cancellation-free form, positive whenever b != 0
    x = h + r if h >= 0 else b * b / (r - h)
    nrm = math.hypot(x, b)
    x, y = x / nrm, b / nrm
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return math.ldexp(mid + r, e), math.ldexp(mid - r, e), x, y


def eigen2(m) -> EigenPair2:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix (the upper
    triangle is read); see _eigen2 for the scaling."""
    (a, b), (_, c) = np.asarray(m, dtype=float).tolist()
    return EigenPair2.from_row(_eigen2(a, b, c))


def eigen2_rows(rows) -> list[tuple[float, float, float, float]]:
    """eigen2's closed form on each (a, b, c) of rows, the upper triangle of
    a symmetric 2x2 as Python floats: a list of (lambda1, lambda2, x, y)
    with v1 = (x, y), each of which EigenPair2.from_row turns into eigen2's
    result. Stack code maps this over .tolist() rows: a vectorized np.hypot
    does not round like math.hypot."""
    return [_eigen2(a, b, c) for a, b, c in rows]


def eigen_sym(m):
    """Eigendecomposition of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Returns (eigenvalues descending, V orthogonal with matching columns).
    Reconstruction satisfies max|V^t M V - diag(lam)| <= 1e-10 * max|M|.
    Exactly tied eigenvalues are ordered by the row of their column's
    largest-magnitude entry, so a diagonal input gets the identity columns
    in index order (2*I and the zero matrix give V = I). Eigenvector columns
    are sign-normalized: largest-magnitude entry positive, the first row
    winning a tie in magnitude. A non-finite entry raises NonFiniteResult.
    """
    a = symmetrize(m)
    if not np.isfinite(a).all():
        raise NonFiniteResult("eigen_sym: the matrix has a non-finite entry")
    lam, v = np.linalg.eigh(a)
    lead = np.argmax(np.abs(v), axis=0)
    order = np.lexsort((lead, -lam))
    lam, v, lead = lam[order], v[:, order], lead[order]
    v *= np.copysign(1.0, v[lead, np.arange(v.shape[1])])
    return lam, v


def top_eigenvalue(m):
    """Largest eigenvalue of a symmetric matrix, bit-identical to
    eigen_sym(m)[0][0] without the eigenvector ordering and sign work; for a
    (..., n, n) stack, the array of each matrix's largest eigenvalue.
    A non-finite entry raises NonFiniteResult."""
    a = symmetrize(m)
    if not np.isfinite(a).all():
        raise NonFiniteResult("top_eigenvalue: the matrix has a non-finite entry")
    return np.linalg.eigh(a)[0][..., -1][()]  # [()]: one matrix gives a numpy scalar


def _factor(a: np.ndarray):
    """Cholesky factors of the symmetric (..., n, n) array a, and whether
    each matrix is positive definite: finite entries, trace > 0, a
    successful LAPACK factorization, and every pivot L_jj^2 above
    1e-12 * trace / dim. A factor means nothing where its flag is False.

    Where the trace of finite entries overflows, the threshold is taken
    as 1e-12 * sum(diag / dim); a finite trace keeps its bits."""
    n = a.shape[-1]
    try:
        with np.errstate(over="raise"):
            trace = a.trace(axis1=-2, axis2=-1)
        floor = 1e-12 * trace / n
    except FloatingPointError:  # finite diagonal entries summed past the maximum
        with np.errstate(over="ignore", invalid="ignore"):
            trace = a.trace(axis1=-2, axis2=-1)
            floor = np.where(np.isfinite(trace), 1e-12 * trace / n,
                             1e-12 * (a.diagonal(0, -2, -1) / n).sum(-1))
    ok = np.isfinite(a).all(axis=(-2, -1)) & (trace > 0.0)
    if ok.all():  # LAPACK never sees a matrix refused above
        try:
            L = np.linalg.cholesky(a)
            return L, ok & (L.diagonal(0, -2, -1).min(-1) ** 2 > floor)
        except np.linalg.LinAlgError:
            pass
    if a.ndim == 2:
        return a, np.False_
    # one refused matrix fails a stack as a whole: factor them one by one
    parts = [_factor(m) for m in a.reshape(-1, n, n)]
    return (np.stack([f for f, _ in parts]).reshape(a.shape),
            np.array([flag for _, flag in parts]).reshape(ok.shape))


def is_positive_definite(m):
    """True iff the Cholesky factorization succeeds with every pivot above
    the relative tolerance 1e-12 * trace / dim (finite entries only). For a
    (..., n, n) stack, the boolean array of that test per matrix."""
    ok = _factor(symmetrize(m))[1]
    return bool(ok) if ok.ndim == 0 else ok


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^t == M, or NotPositiveDefinite."""
    L, ok = _factor(symmetrize(m))
    if not ok:
        raise NotPositiveDefinite("Cholesky pivot at or below tolerance")
    return L


def solve_spd(m, rhs) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M via Cholesky."""
    L = cholesky(m)
    return np.linalg.solve(L.T, np.linalg.solve(L, np.asarray(rhs, dtype=float)))


def inverse_spd(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, via Cholesky solves
    against the identity. The result is re-symmetrized."""
    a = symmetrize(m)
    return symmetrize(solve_spd(a, np.eye(a.shape[0])))
