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
    """Return (M + M^t)/2 as a float array. Downstream code assumes exact
    symmetry, so every external matrix passes through here once.

    Where the sum of two finite entries overflows, the entry is
    M/2 + M^t/2 instead; halving first everywhere would round odd
    subnormals, so every other entry keeps the bits of (M + M^t)/2.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a).max(initial=0.0) <= _HALF_MAX:  # False on a NaN
        return (a + a.T) / 2.0
    with np.errstate(over="ignore"):
        s = (a + a.T) / 2.0
    over = np.isinf(s) & np.isfinite(a) & np.isfinite(a.T)
    s[over] = (a / 2.0 + a.T / 2.0)[over]
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
    basis.
    """

    lambda1: float
    lambda2: float
    v1: np.ndarray
    v2: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack([self.v1, self.v2])


def eigen2(m) -> EigenPair2:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    The closed form runs on the matrix scaled by the power of two that puts
    its largest |entry| in [0.5, 1): b*b cannot overflow, subnormals keep
    their bits, and normal-range results are bit-identical to no scaling.
    An off-diagonal entry that would be subnormal after scaling counts as 0.
    """
    (a, b), (_, c) = np.asarray(m, dtype=float).tolist()
    _, e = math.frexp(max(abs(a), abs(b), abs(c)))
    if math.ldexp(abs(b), -e) <= sys.float_info.min:
        if a >= c:
            # includes the identity-multiple case a == c: v1 = (1, 0)
            return EigenPair2(np.float64(a), np.float64(c),
                              np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        return EigenPair2(np.float64(c), np.float64(a),
                          np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    h = 0.5 * (a - c)
    r = math.hypot(h, b)
    mid = 0.5 * (a + c)
    # numpy scalars, as for the unscaled entries: callers take lambda ** -0.5,
    # which is nan for a roundoff-negative numpy value but complex for a float
    lam1, lam2 = np.float64(math.ldexp(mid + r, e)), np.float64(math.ldexp(mid - r, e))
    # v1 is parallel to (lam1 - c, b); the first component is computed in a
    # cancellation-free form, positive whenever b != 0
    x = h + r if h >= 0 else b * b / (r - h)
    nrm = math.hypot(x, b)
    x, y = x / nrm, b / nrm
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return EigenPair2(lam1, lam2, np.array([x, y]), np.array([-y, x]))


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
    eigen_sym(m)[0][0] without the eigenvector ordering and sign work.
    A non-finite entry raises NonFiniteResult."""
    a = symmetrize(m)
    if not np.isfinite(a).all():
        raise NonFiniteResult("top_eigenvalue: the matrix has a non-finite entry")
    return np.linalg.eigh(a)[0][-1]


def _factor(a: np.ndarray) -> np.ndarray | None:
    """Cholesky factor L of the symmetric array a, or None when a is not
    positive definite: a non-finite entry, trace <= 0, a failed LAPACK
    factorization, or a pivot L_jj^2 at or below 1e-12 * trace / dim.

    Where the trace of finite entries overflows, the threshold is taken
    as 1e-12 * sum(diag / dim); a finite trace keeps its bits."""
    if not np.isfinite(a).all():
        return None
    n = a.shape[0]
    with np.errstate(over="ignore"):
        trace = np.trace(a)
    if trace <= 0.0:
        return None
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    floor = 1e-12 * trace / n if np.isfinite(trace) else 1e-12 * (np.diag(a) / n).sum()
    if np.diag(L).min() ** 2 <= floor:
        return None
    return L


def is_positive_definite(m) -> bool:
    """True iff the Cholesky factorization succeeds with every pivot above
    the relative tolerance 1e-12 * trace / dim (finite entries only)."""
    return _factor(symmetrize(m)) is not None


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^t == M, or NotPositiveDefinite."""
    L = _factor(symmetrize(m))
    if L is None:
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
