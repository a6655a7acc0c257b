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
to) a multiple of the identity its rotation angle is free; the quantity's
maximum over that angle has a closed form that is never negative, so every
tied input satisfies both inequalities. Every tolerance is relative to the
scale of the matrix it is applied to: a decision on A is the one on 2^k A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import (
    NotPositiveDefinite,
    PreconditionViolated,
    ShapeError,
)
from .model import BlockMatrix, CovarianceModel, invert_blocks, tilt_matrix

# relative tie band on rotated block diagonals and on the spectrum of B B^t
TIE_REL = 1e-10
# roundoff allowance when classifying the scalar inequality at the boundary,
# relative to max|A|^2 (the quantity is quadratic in the entries)
QUANTITY_TOL = 1e-12
# entrywise allowance for constructed witnesses, relative to max|A|
WITNESS_TOL = 1e-10
# allowance on the entries of Sigma^(-1), relative to max|Sigma^(-1)|
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


class CanonicalForm(NamedTuple):
    """canonical_rotation's result: signature matrix, rotated matrix w^t A w,
    decisive quantity, and the eigenpair of B B^t (B = rotated.b12)."""

    w: SignatureMatrix
    rotated: BlockMatrix
    quantity: float
    pair: matcore.EigenPair2


def quantity_holds(qv: float, a: BlockMatrix) -> bool:
    """qv >= 0 up to the roundoff allowance QUANTITY_TOL * max|A|^2."""
    s = float(np.abs(a.full).max())
    return qv / s / s >= -QUANTITY_TOL


def canonical_rotation(a: BlockMatrix, target: str) -> CanonicalForm:
    """Canonical form for the scalar inequality of `target`: "word" (decisive
    index j = 0) or "offdiag" (j = 1).

    The quantity is v_j b_jj (v^t B e_j), with B the rotated off-diagonal
    block and v the top eigenvector of B B^t: v11*b13*(v11*b13 + v21*b23)
    for "word" and v21*b24*(v21*b24 + v11*b14) for "offdiag", invariant
    under v -> -v.

    Away from ties this is block_diagonalize plus the quantity. When a
    rotated diagonal block has equal entries to TIE_REL relative (block 1
    wins if both do), its rotation R is free and the quantity at R is
    (r.x)(r.y) with r = R e_j. Block 1 tied: B -> R^t B and v -> R^t v leave
    c = v^t B e_j invariant, so x = c v and y = B e_j. Block 2 tied: B -> B R
    leaves v invariant, so x = v_j B[j, :] and y = B^t v. The maximum over R
    is (|x||y| + x.y)/2 at r along x/|x| + y/|y| (r orthogonal to x when
    that is 0; R = I when x or y is 0); computed as |x||y| |x/|x| + y/|y||^2
    / 4 it is never negative in floats, so every tied input satisfies both
    inequalities. The form at that R is returned with that maximum.

    When B B^t is within TIE_REL of a multiple of I, v is free as well and
    v -> R^t v fails. R then turns column j (block 1 tied) or row j (block 2
    tied) of B onto axis j, which makes the quantity v_j^2 |B e_j|^2
    (|B[j, :]|^2) >= 0 whatever eigenvector the rotated B B^t gets.
    """
    if a.n1 != 2 or a.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {a.n1}+{a.n2}")
    if target not in ("word", "offdiag"):
        raise ValueError(f"unknown target {target!r}")
    j = int(target == "offdiag")
    w, rot = block_diagonalize(a)
    d1 = np.diag(rot.b11)
    d2 = np.diag(rot.b22)
    tie1 = abs(d1[0] - d1[1]) <= TIE_REL * max(abs(d1[0]), abs(d1[1]))
    tie2 = abs(d2[0] - d2[1]) <= TIE_REL * max(abs(d2[0]), abs(d2[1]))
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    v = pair.v1
    if not (tie1 or tie2):
        qv = float(v[j] * b[j, j] * (v[j] * b[j, j] + v[1 - j] * b[1 - j, j]))
        return CanonicalForm(w, rot, qv, pair)
    free_v = pair.lambda1 - pair.lambda2 <= TIE_REL * pair.lambda1
    if free_v:
        x = y = b[:, j] if tie1 else b[j, :]
    elif tie1:
        x, y = (v @ b[:, j]) * v, b[:, j]
    else:
        x, y = v[j] * b[j, :], b.T @ v
    nx, ny = math.hypot(*x), math.hypot(*y)
    if nx == 0.0 or ny == 0.0:
        return CanonicalForm(w, rot, 0.0, pair)
    s = x / nx + y / ny
    ns = math.hypot(*s)
    r = s / ns if ns > 0.0 else np.array([-x[1], x[0]]) / nx
    qv = nx * ny * ns * ns / 4.0
    # the rotation whose column j is r
    rmat = np.array([[r[0], -r[1]], [r[1], r[0]]] if j == 0 else [[r[1], r[0]], [-r[0], r[1]]])
    w = SignatureMatrix(*((w.u1 @ rmat, w.u2) if tie1 else (w.u1, w.u2 @ rmat)))
    rot = w.conjugate(a)
    b = rot.b12
    pair = matcore.eigen2(b @ b.T)
    if free_v:
        qv *= float(pair.v1[j]) ** 2
    return CanonicalForm(w, rot, qv, pair)


def _polar_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix to a nearly orthogonal 2x2: M (M^t M)^(-1/2)."""
    pair = matcore.eigen2(matcore.symmetrize(m.T @ m))
    v = pair.matrix
    inv_root = v @ np.diag([pair.lambda1 ** -0.5, pair.lambda2 ** -0.5]) @ v.T
    return m @ inv_root


def _construct_core(rot: BlockMatrix):
    """Witness construction on a canonically rotated matrix whose word
    inequality holds: returns (u1, u2) with u^t rot u entrywise
    >= -WITNESS_TOL * max|rot|.

    Fast path: a pure sign flip fixes the off-diagonal block. Otherwise the
    signs are first flipped to the reduced pattern [[a13, a14], [a23, -a24]]
    with all four values positive, then either the explicit two-column
    construction (a13*a23 >= a14*a24) or the eigenbasis of B B^t with its
    induced second factor applies.
    """
    b = rot.b12
    tol = WITNESS_TOL * np.abs(rot.full).max()
    for s1 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        for s2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            d1, d2 = np.diag(s1), np.diag(s2)
            if (d1 @ b @ d2 >= -tol).all():
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


def _signature_report(criterion: str, a: BlockMatrix, target: str,
                      witness_of=None) -> CriterionReport:
    """Decide the scalar inequality of `target` on one canonical rotation of
    a; when it holds and witness_of is given, witness_of(form) is attached."""
    form = canonical_rotation(a, target)
    holds = quantity_holds(form.quantity, a)
    v, b, j = form.pair.v1, form.rotated.b12, int(target == "offdiag")
    detail = {"quantity": float(form.quantity), "v11": float(v[0]), "v21": float(v[1]),
              f"b1{3 + j}": float(b[0, j]), f"b2{3 + j}": float(b[1, j])}
    witness = witness_of(form) if holds and witness_of is not None else None
    return CriterionReport(criterion=criterion, holds=holds, witness=witness, detail=detail)


def nonneg_signature_check(a: BlockMatrix) -> CriterionReport:
    """Does some signature conjugation of A have all entries nonnegative?

    Decided by the word-quantity inequality on the canonical rotation; when it
    holds the witness is attached (the construction below).
    """
    return _signature_report("signature-nonneg", a, "word", _nonneg_witness)


def word_positivity_check(t: BlockMatrix) -> CriterionReport:
    """The same inequality evaluated on a tilt matrix: holding means every
    word trace in the first family is nonnegative for this matrix (hence the
    whole sum, every (k, m)). This is per tilt parameter; certifying the
    underlying vector needs it for all large tilt parameters."""
    return _signature_report("word-positivity", t, "word")


def _nonneg_witness(form: CanonicalForm) -> SignatureMatrix:
    u1, u2 = _construct_core(form.rotated)
    return SignatureMatrix(_polar_orthonormalize(form.w.u1 @ u1),
                           _polar_orthonormalize(form.w.u2 @ u2))


def construct_nonneg_signature(a: BlockMatrix) -> SignatureMatrix:
    """Signature matrix U with U^t A U entrywise >= -WITNESS_TOL * max|A|.

    Raises PreconditionViolated when the word inequality fails; no witness
    exists then.
    """
    form = canonical_rotation(a, "word")
    if not quantity_holds(form.quantity, a):
        raise PreconditionViolated(f"word inequality fails (quantity {form.quantity:.3e})")
    return _nonneg_witness(form)


_P1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _nonpos_offdiag_witness(form: CanonicalForm) -> SignatureMatrix:
    rot = form.rotated
    flipped = rot.full.copy()
    flipped[:2, 2:] = _P1 @ rot.b12 @ _P1
    flipped[2:, :2] = flipped[:2, 2:].T
    u1, u2 = _construct_core(BlockMatrix.from_array(flipped, 2))
    return SignatureMatrix(_polar_orthonormalize(-form.w.u1 @ _P1 @ u1),
                           _polar_orthonormalize(form.w.u2 @ _P1 @ u2))


def construct_nonpos_offdiag(a: BlockMatrix):
    """Signature matrix U with U^t A U having off-diagonal entries
    <= WITNESS_TOL * max|A|, or None when the companion inequality fails.

    Reduction: conjugating the canonical form by the swap P on both sides of
    the off-diagonal block turns the off-diagonal target into the entrywise
    target, at the price of a sign on the first factor.
    """
    form = canonical_rotation(a, "offdiag")
    return _nonpos_offdiag_witness(form) if quantity_holds(form.quantity, a) else None


def precision_signature_check(model: CovarianceModel) -> CriterionReport:
    """Certifying criterion on the inverse covariance of a 2+2 model: some
    signature conjugation of Sigma^(-1) has nonpositive off-diagonals.

    holds implies the pair of squared norms is infinitely divisible; the
    witness exhibits the conjugation.
    """
    if model.n1 != 2 or model.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {model.n1}+{model.n2}")
    return _signature_report("precision-offdiag", invert_blocks(model), "offdiag",
                             _nonpos_offdiag_witness)


def griffiths_bapat_check(sigma, tol: float = GB_TOL) -> CriterionReport:
    """Is D Sigma^(-1) D off-diagonally <= tol * max|Sigma^(-1)| for some
    D = diag(+-1)?

    With e = tol * max|Sigma^(-1)|, entry p = Sigma^(-1)[i, j] allows
    s_i s_j = +1 iff p <= e and s_i s_j = -1 iff -p <= e. A non-finite entry
    of Sigma^(-1), or a pair allowing neither product, fails the check (it is
    never free); pairs allowing exactly one product are the edges of a signed
    graph. A sign vector exists iff that graph is balanced (Harary, Michigan
    Math. J. 2, 1953), which a breadth-first 2-colouring decides in O(n^2).

    The witness has s_0 = +1 (the conjugation symmetry) and every other
    component oriented so its highest index is +1: the lowest valid vector
    when s_1 .. s_(n-1) are read as binary digits, -1 a set bit and
    s_(n-1) the most significant.
    """
    s = sigma.entries if isinstance(sigma, matcore.SymMatrix) else matcore.symmetrize(sigma)
    n = s.shape[0]
    inv = matcore.inverse_spd(s)
    fails = CriterionReport(criterion="griffiths-bapat", holds=False, witness=None, detail={})
    if not np.isfinite(inv).all():
        return fails
    tol = tol * np.abs(inv).max()
    equal_ok = inv <= tol
    opposite_ok = -inv <= tol
    off_mask = ~np.eye(n, dtype=bool)
    if not (equal_ok | opposite_ok)[off_mask].all():
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
    _, rot, _, pair = canonical_rotation(a, "word")
    d1 = np.diag(rot.b11)
    d2 = np.diag(rot.b22)
    b = rot.b12
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
