"""Decidable sufficient (and falsifiable) conditions for infinite
divisibility of a pair of Gaussian quadratic norms.

The common geometry: conjugate a positive definite block matrix A by a
block-diagonal orthogonal matrix diag(U1, U2) (a "signature matrix") and ask
for sign structure of the result. Three checks are implemented:

* sign-flip balance check on the inverse covariance (Griffiths-Bapat,
  all-coordinate joint divisibility),
* nonnegative-entry signature conjugation of the 2+2 tilt matrix, decided by
  a scalar inequality on the rotated off-diagonal block and made constructive
  (word positivity),
* nonpositive-off-diagonal signature conjugation of the 2+2 inverse
  covariance, decided by the companion inequality (precision criterion).

The scalar inequalities live on the canonical rotation: both diagonal blocks
are diagonalized with descending diagonals. When a diagonal block is (close
to) a multiple of the identity the rotation is not unique; the free angle is
then searched so the inequality is given its best chance, which matches the
convention that ties are always resolvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    NotPositiveDefinite,
    PreconditionViolated,
    ShapeError,
)
from .model import BlockMatrix, CovarianceModel, invert_blocks, tilt_matrix

# relative tie band on rotated block diagonals
TIE_REL = 1e-10
# roundoff allowance when classifying the scalar inequality at the boundary
QUANTITY_TOL = 1e-12
# entrywise allowance for constructed witnesses
WITNESS_TOL = 1e-10
GB_TOL = 1e-12
SHANBHAG_M_CAP = 8


@dataclass(frozen=True)
class SignatureMatrix:
    """Block-diagonal orthogonal matrix diag(u1, u2)."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        for u in (self.u1, self.u2):
            gram_err = np.abs(u.T @ u - np.eye(u.shape[0])).max()
            if gram_err > 1e-10:
                raise ValueError(f"block is not orthogonal (gram error {gram_err:.2e})")

    @property
    def full(self) -> np.ndarray:
        n1, n2 = self.u1.shape[0], self.u2.shape[0]
        w = np.zeros((n1 + n2, n1 + n2))
        w[:n1, :n1] = self.u1
        w[n1:, n1:] = self.u2
        return w

    def conjugate(self, a: BlockMatrix) -> BlockMatrix:
        w = self.full
        return BlockMatrix.from_array(w.T @ a.full @ w, a.n1)

    def to_json(self) -> dict:
        return {
            "u1": [[float(x) for x in row] for row in self.u1],
            "u2": [[float(x) for x in row] for row in self.u2],
        }


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    holds: bool
    witness: object  # SignatureMatrix, sign vector, or None
    detail: dict

    def to_json(self) -> dict:
        if isinstance(self.witness, SignatureMatrix):
            w = self.witness.to_json()
        elif self.witness is None:
            w = None
        else:
            w = [float(x) for x in np.asarray(self.witness).ravel()]
        return {
            "criterion": self.criterion,
            "holds": bool(self.holds),
            "witness": w,
            "detail": {k: v for k, v in self.detail.items()},
        }


def _block_eigen(block: np.ndarray):
    """Descending eigendecomposition of one diagonal block; the 2x2 closed
    form is used where tie conventions matter."""
    if block.shape[0] == 2:
        pair = matcore.eigen2(block)
        return np.array([pair.lambda1, pair.lambda2]), pair.matrix
    return matcore.eigen_sym(block)


def block_diagonalize(a: BlockMatrix):
    """Rotate so both diagonal blocks are diagonal with descending entries.

    Returns (w, rotated) with rotated == w.conjugate(a). Requires a positive
    definite input; the rotated diagonal is then strictly positive.
    """
    if not matcore.is_positive_definite(a.full):
        raise NotPositiveDefinite("block_diagonalize requires a positive definite input")
    _, w1 = _block_eigen(a.b11)
    _, w2 = _block_eigen(a.b22)
    w = SignatureMatrix(u1=w1, u2=w2)
    return w, w.conjugate(a)


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _quantity(rot: BlockMatrix, target: str) -> float:
    """The decisive scalar on a canonically rotated 2+2 matrix.

    target "word": v11*b13*(v11*b13 + v21*b23) with v the top eigenvector of
    B B^t, B the off-diagonal block. target "offdiag": the companion
    v21*b24*(v21*b24 + v11*b14). Both are invariant under v -> -v.
    """
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    v1 = pair.v1
    if target == "word":
        return float(v1[0] * b[0, 0] * (v1[0] * b[0, 0] + v1[1] * b[1, 0]))
    if target == "offdiag":
        return float(v1[1] * b[1, 1] * (v1[1] * b[1, 1] + v1[0] * b[0, 1]))
    raise ValueError(f"unknown target {target!r}")


def canonical_rotation(a: BlockMatrix, target: str):
    """Canonical form for the scalar inequality: returns (w, rotated, value).

    Away from ties this is block_diagonalize plus the quantity. Within the
    tie band (either rotated diagonal block has equal entries to TIE_REL
    relative) the rotation angle of the tied block is a free parameter; it is
    searched over a fine grid plus the explicit zeroing angles so the
    inequality is satisfied whenever possible.
    """
    if a.n1 != 2 or a.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {a.n1}+{a.n2}")
    w, rot = block_diagonalize(a)
    d1 = np.diag(rot.b11)
    d2 = np.diag(rot.b22)
    tie1 = abs(d1[0] - d1[1]) <= TIE_REL * max(abs(d1[0]), abs(d1[1]))
    tie2 = abs(d2[0] - d2[1]) <= TIE_REL * max(abs(d2[0]), abs(d2[1]))
    if not (tie1 or tie2):
        return w, rot, _quantity(rot, target)
    b = rot.b12
    cands = list(np.linspace(0.0, 2 * math.pi, 720, endpoint=False))
    # angles that zero the coordinate the quantity squares on
    if tie1:
        if target == "word":
            cands.append(math.atan2(b[1, 0], b[0, 0]))
        else:
            cands.append(math.atan2(-b[0, 1], b[1, 1]))
    else:
        if target == "word":
            cands.append(math.atan2(-b[1, 0], b[1, 1]))
        else:
            cands.append(math.atan2(b[0, 1], b[0, 0]))
    best = None
    for theta in cands:
        r = _rot2(theta)
        if tie1:
            cand = SignatureMatrix(u1=w.u1 @ r, u2=w.u2)
        else:
            cand = SignatureMatrix(u1=w.u1, u2=w.u2 @ r)
        rc = cand.conjugate(a)
        qv = _quantity(rc, target)
        if best is None or qv > best[2]:
            best = (cand, rc, qv)
    return best


def _polar_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix to a nearly orthogonal 2x2: M (M^t M)^(-1/2)."""
    pair = matcore.eigen2(matcore.symmetrize(m.T @ m))
    v = pair.matrix
    inv_root = v @ np.diag([pair.lambda1 ** -0.5, pair.lambda2 ** -0.5]) @ v.T
    return m @ inv_root


def _construct_core(rot: BlockMatrix):
    """Witness construction on a canonically rotated matrix whose word
    inequality holds: returns (u1, u2) with u^t rot u entrywise >= -WITNESS_TOL.

    Fast path: a pure sign flip fixes the off-diagonal block. Otherwise the
    signs are first flipped to the reduced pattern [[a13, a14], [a23, -a24]]
    with all four values positive, then either the explicit two-column
    construction (a13*a23 >= a14*a24) or the eigenbasis of B B^t with its
    induced second factor applies.
    """
    b = rot.b12
    for s1 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        for s2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            d1, d2 = np.diag(s1), np.diag(s2)
            if (d1 @ b @ d2 >= -WITNESS_TOL).all():
                return d1, d2
    # no pure sign flip works: all entries nonzero with an odd sign pattern
    c1 = math.copysign(1.0, b[0, 0])
    c2 = math.copysign(1.0, b[0, 1])
    r2 = c1 * math.copysign(1.0, b[1, 0])
    d1, d2 = np.diag([1.0, r2]), np.diag([c1, c2])
    bb = d1 @ b @ d2
    a13, a14, a23, a24 = bb[0, 0], bb[0, 1], bb[1, 0], -bb[1, 1]
    if a13 * a23 - a14 * a24 >= 0:
        col1 = np.array([a14 * a24 / a23, a14])
        col2 = np.array([a23, -a24])
        u2 = np.column_stack(
            [col1 / np.linalg.norm(col1), col2 / np.linalg.norm(col2)]
        )
        u1 = np.eye(2)
    else:
        pair = matcore.eigen2(bb @ bb.T)
        v = pair.matrix.copy()
        # both first-row entries nonnegative so the image columns line up
        if v[0, 0] < 0:
            v[:, 0] = -v[:, 0]
        if v[0, 1] < 0:
            v[:, 1] = -v[:, 1]
        u2 = bb.T @ v @ np.diag([pair.lambda1 ** -0.5, pair.lambda2 ** -0.5])
        u2 = _polar_orthonormalize(u2)
        u1 = v
    return d1 @ u1, d2 @ u2


def _word_report(a: BlockMatrix, criterion: str) -> CriterionReport:
    w, rot, qv = canonical_rotation(a, "word")
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    holds = qv >= -QUANTITY_TOL
    return CriterionReport(
        criterion=criterion,
        holds=holds,
        witness=None,
        detail={
            "quantity": float(qv),
            "v11": float(pair.v1[0]),
            "v21": float(pair.v1[1]),
            "b13": float(b[0, 0]),
            "b23": float(b[1, 0]),
        },
    )


def nonneg_signature_check(a: BlockMatrix) -> CriterionReport:
    """Does some signature conjugation of A have all entries nonnegative?

    Decided by the word-quantity inequality on the canonical rotation; when it
    holds the witness is attached (the construction below).
    """
    report = _word_report(a, "signature-nonneg")
    if not report.holds:
        return report
    witness = construct_nonneg_signature(a)
    return CriterionReport(
        criterion=report.criterion,
        holds=True,
        witness=witness,
        detail=report.detail,
    )


def word_positivity_check(t: BlockMatrix) -> CriterionReport:
    """The same inequality evaluated on a tilt matrix: holding means every
    word trace in the first family is nonnegative for this matrix (hence the
    whole sum, every (k, m)). This is per tilt parameter; certifying the
    underlying vector needs it for all large tilt parameters."""
    return _word_report(t, "word-positivity")


def construct_nonneg_signature(a: BlockMatrix) -> SignatureMatrix:
    """Signature matrix U with U^t A U entrywise >= -WITNESS_TOL.

    Raises PreconditionViolated when the word inequality fails; no witness
    exists then.
    """
    w, rot, qv = canonical_rotation(a, "word")
    if qv < -QUANTITY_TOL:
        raise PreconditionViolated(f"word inequality fails (quantity {qv:.3e})")
    u1, u2 = _construct_core(rot)
    return SignatureMatrix(
        u1=_polar_orthonormalize(w.u1 @ u1),
        u2=_polar_orthonormalize(w.u2 @ u2),
    )


_P1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def construct_nonpos_offdiag(a: BlockMatrix):
    """Signature matrix U with U^t A U having off-diagonal entries
    <= WITNESS_TOL, or None when the companion inequality fails.

    Reduction: conjugating the canonical form by the swap P on both sides of
    the off-diagonal block turns the off-diagonal target into the entrywise
    target, at the price of a sign on the first factor.
    """
    w, rot, qv = canonical_rotation(a, "offdiag")
    if qv < -QUANTITY_TOL:
        return None
    flipped = rot.full.copy()
    flipped[:2, 2:] = _P1 @ rot.b12 @ _P1
    flipped[2:, :2] = flipped[:2, 2:].T
    u1, u2 = _construct_core(BlockMatrix.from_array(flipped, 2))
    return SignatureMatrix(
        u1=_polar_orthonormalize(-w.u1 @ _P1 @ u1),
        u2=_polar_orthonormalize(w.u2 @ _P1 @ u2),
    )


def precision_signature_check(model: CovarianceModel) -> CriterionReport:
    """Certifying criterion on the inverse covariance of a 2+2 model: some
    signature conjugation of Sigma^(-1) has nonpositive off-diagonals.

    holds implies the pair of squared norms is infinitely divisible; the
    witness exhibits the conjugation.
    """
    if model.n1 != 2 or model.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {model.n1}+{model.n2}")
    prec = invert_blocks(model)
    _, rot, qv = canonical_rotation(prec, "offdiag")
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    holds = qv >= -QUANTITY_TOL
    witness = construct_nonpos_offdiag(prec) if holds else None
    return CriterionReport(
        criterion="precision-offdiag",
        holds=holds,
        witness=witness,
        detail={
            "quantity": float(qv),
            "v11": float(pair.v1[0]),
            "v21": float(pair.v1[1]),
            "b14": float(b[0, 1]),
            "b24": float(b[1, 1]),
        },
    )


def griffiths_bapat_check(sigma, tol: float = GB_TOL) -> CriterionReport:
    """Is D Sigma^(-1) D off-diagonally <= tol for some D = diag(+-1)?

    Entry p = Sigma^(-1)[i, j] allows s_i s_j = +1 iff p <= tol and
    s_i s_j = -1 iff -p <= tol. A non-finite p, or a pair allowing neither
    product, fails the check (it is never free); pairs allowing exactly one
    product are the edges of a signed graph. A sign
    vector exists iff that graph is balanced (Harary, Michigan Math. J. 2,
    1953), which a breadth-first 2-colouring decides in O(n^2).

    The witness has s_0 = +1 (the conjugation symmetry) and every other
    component oriented so its highest index is +1: the lowest valid vector
    when s_1 .. s_(n-1) are read as binary digits, -1 a set bit and
    s_(n-1) the most significant.
    """
    s = sigma.entries if isinstance(sigma, matcore.SymMatrix) else matcore.symmetrize(sigma)
    n = s.shape[0]
    inv = matcore.inverse_spd(s)
    fails = CriterionReport(criterion="griffiths-bapat", holds=False, witness=None, detail={})
    equal_ok = inv <= tol
    opposite_ok = -inv <= tol
    off_mask = ~np.eye(n, dtype=bool)
    if not ((equal_ok | opposite_ok) & np.isfinite(inv))[off_mask].all():
        return fails
    edges = (equal_ok != opposite_ok) & off_mask
    adjacency = [np.flatnonzero(row).tolist() for row in edges]
    # on an edge, opposite_ok says the pair must take opposite signs
    flip = opposite_ok.tolist()
    negative = [None] * n
    for root in (0, *range(n - 1, 0, -1)):
        if negative[root] is not None:
            continue
        negative[root] = False
        queue = [root]
        for i in queue:
            for j in adjacency[i]:
                want = negative[i] != flip[i][j]
                if negative[j] is None:
                    negative[j] = want
                    queue.append(j)
                elif negative[j] != want:
                    return fails
    witness = np.where(negative, -1.0, 1.0)
    conj = np.outer(witness, witness) * inv
    return CriterionReport(
        criterion="griffiths-bapat",
        holds=True,
        witness=witness,
        detail={"max_offdiag": float(conj[off_mask].max())},
    )


def scalar_bridge_report(t: BlockMatrix) -> CriterionReport:
    """Certify a 1 + n2 split directly on a tilt-like matrix.

    With a scalar first block every word in the first family is a product of
    positive scalars t11^{k_i} and scalar bridges t12 T22^m t21 = u^t T22^m u
    >= 0, so the sum is termwise nonnegative for any positive definite T.
    The detail section verifies the bridges numerically up to a small cap.
    """
    if t.n1 != 1:
        raise ShapeError(f"requires n1 == 1, got n1 = {t.n1}")
    scalars = []
    pow22 = np.eye(t.n2)
    for _ in range(SHANBHAG_M_CAP + 1):
        scalars.append(float((t.b12 @ pow22 @ t.b21).item()))
        pow22 = pow22 @ t.b22
    return CriterionReport(
        criterion="shanbhag",
        holds=True,
        witness=None,
        detail={"t11": float(t.b11[0, 0]), "min_scalar": min(scalars)},
    )


def shanbhag_check(model: CovarianceModel) -> CriterionReport:
    """n1 == 1: the pair is always infinitely divisible."""
    if model.n1 != 1:
        raise ShapeError(f"requires n1 == 1, got n1 = {model.n1}")
    return scalar_bridge_report(tilt_matrix(model))


@dataclass(frozen=True)
class FalsifyResult:
    """A strictly negative word trace found by the limiting-word search.

    The word is T11^K T12 T22^K T21 (T12 T21)^K, a first-family term of the
    sum at (k, m) = (2K+1, 2K+1). value is the trace normalized by
    (t11 * t33 * l1)^K with l1 the top eigenvalue of B B^t; the normalizer is
    positive, so the sign is the sign of the raw trace, whose log-magnitude
    offset is log_normalizer.
    """

    big_k: int
    value: float
    k: int
    m: int
    log_normalizer: float


def falsify_word_positivity(a: BlockMatrix, kcap: int = 200):
    """When the word inequality fails, hunt the negative word trace whose
    existence the failure implies.

    The normalized trace converges geometrically (ratio terms (t22/t11)^K,
    (t44/t33)^K, (l2/l1)^K die out) to the failing quantity, so the search
    exits early once the sign stabilizes over 3 consecutive K. Returns a
    FalsifyResult or None if the sign never stabilized below zero by kcap.
    """
    _, rot, _ = canonical_rotation(a, "word")
    d1 = np.diag(rot.b11)
    d2 = np.diag(rot.b22)
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    l1, l2 = pair.lambda1, pair.lambda2
    if l1 <= 0:
        return None
    v = pair.matrix
    history = []
    for big_k in range(1, kcap + 1):
        scale1 = np.diag([1.0, (d1[1] / d1[0]) ** big_k])
        scale2 = np.diag([1.0, (d2[1] / d2[0]) ** big_k])
        pk = v @ np.diag([1.0, (l2 / l1) ** big_k]) @ v.T
        val = float(np.trace(scale1 @ b @ scale2 @ b.T @ pk))
        history.append(val)
        if len(history) >= 3 and all(h < 0 for h in history[-3:]):
            log_norm = big_k * (math.log(d1[0]) + math.log(d2[0]) + math.log(l1))
            return FalsifyResult(
                big_k=big_k,
                value=val,
                k=2 * big_k + 1,
                m=2 * big_k + 1,
                log_normalizer=log_norm,
            )
    return None
