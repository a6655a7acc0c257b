"""Dense symmetric matrix kernels.

Everything in here operates on small matrices (nothing bigger than 8x8 in
practice) and favors exactness of conventions over speed:

* the general eigensolver is a cyclic Jacobi iteration, which delivers
  eigenvector orthogonality to machine precision,
* the 2x2 eigenproblem has a dedicated closed form so that tie conventions
  (identity multiples, sign of the leading eigenvector) are honored exactly,
* Cholesky is written out explicitly so the positive-definiteness test has a
  well-defined pivot tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite


def symmetrize(m) -> np.ndarray:
    """Return (M + M^t)/2 as a float array. Downstream code assumes exact
    symmetry, so every external matrix passes through here once."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


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


def eigen_sym(m, tol: float = 1e-14, max_sweeps: int = 64):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, V orthogonal with matching columns).
    Reconstruction satisfies max|V^t M V - diag(lam)| <= 1e-10 * max|M|.
    Eigenvector columns are sign-normalized: largest-magnitude entry positive.
    """
    a = symmetrize(m)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        # convergence is measured on the off-diagonal entries directly;
        # a Frobenius-difference test would floor at sqrt(eps)*scale
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                # negligible couplings are zeroed, not rotated on, otherwise
                # tau overflows and the sweep stalls
                if abs(apq) <= 1e-36 * scale:
                    a[p, q] = a[q, p] = 0.0
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    else:
        raise RuntimeError("Jacobi iteration did not converge (internal error)")
    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = v[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return lam, v


def _cholesky_pivots(m: np.ndarray):
    """Run the Cholesky recursion, returning (L, ok). ok is False as soon as a
    pivot falls at or below 1e-12 * trace / dim."""
    n = m.shape[0]
    tol = 1e-12 * np.trace(m) / n
    L = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - (L[j, :j] ** 2).sum()
        if d <= tol:
            return L, False
        L[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            L[i, j] = (m[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return L, True


def is_positive_definite(m) -> bool:
    """True iff the Cholesky recursion succeeds with every pivot above the
    relative tolerance 1e-12 * trace / dim."""
    a = symmetrize(m)
    if np.trace(a) <= 0.0:
        return False
    _, ok = _cholesky_pivots(a)
    return ok


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^t == M, or NotPositiveDefinite."""
    a = symmetrize(m)
    L, ok = _cholesky_pivots(a)
    if not ok or np.trace(a) <= 0.0:
        raise NotPositiveDefinite("Cholesky pivot at or below tolerance")
    return L


def solve_spd(m, rhs) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M via Cholesky."""
    L = cholesky(m)
    n = L.shape[0]
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    y = np.zeros_like(b)
    for i in range(n):
        y[i] = (b[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x[:, 0] if squeeze else x


def inverse_spd(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, via Cholesky solves
    against the identity. The result is re-symmetrized."""
    a = symmetrize(m)
    inv = solve_spd(a, np.eye(a.shape[0]))
    return symmetrize(inv)
