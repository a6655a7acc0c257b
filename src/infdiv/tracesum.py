"""Block word-trace sums evaluated by two independent algorithms.

For a symmetric matrix T partitioned into blocks (T11, T12; T21, T22) and
nonnegative integers (k, m), the quantity of interest is the sum of traces of
all block words containing k block-1 letters and m block-2 letters, in the two
families

    T11^{k_1} T12 T22^{m_1} T21 T11^{k_2} ... T11^{k_{d+1}}   (starts/ends in block 1)
    T22^{m_1} T21 T11^{k_1} T12 T22^{m_2} ... T22^{m_{d+1}}   (starts/ends in block 2)

with k_1 + ... + k_{d+1} + d = k and m_1 + ... + m_d + d = m in the first
family (symmetrically in the second), summed over all d >= 0 and all
compositions.  Equivalently: the coefficient of s1^k s2^m in
trace{(T S)^{k+m}} with S = diag(s1*I_{n1}, s2*I_{n2}).

Two evaluators are provided.  trace_sum_enum enumerates every word (cost grows
exponentially, capped); trace_sum_dp extracts the coefficient by a polynomial
recurrence and is the production path.  Their mandatory agreement is the
module's central correctness argument, so neither may be expressed in terms of
the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ShapeError
from .model import BlockMatrix

ENUM_CAP = 12
DP_CAP = 400


@dataclass(frozen=True)
class TraceSumResult:
    value: float
    term_count: int
    min_term: float | None
    algorithm: str  # "enumeration" or "dp"


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class _PowCache:
    """Memoized matrix powers by repeated squaring; the same exponents recur
    across compositions."""

    def __init__(self, m: np.ndarray):
        self._cache = {0: np.eye(m.shape[0]), 1: np.asarray(m, dtype=float)}

    def get(self, e: int) -> np.ndarray:
        if e not in self._cache:
            half = e // 2
            self._cache[e] = self.get(half) @ self.get(e - half)
        return self._cache[e]


def _family_terms(p_diag: _PowCache, bridge_of, k: int, m: int):
    """Trace of every word starting and ending in the diagonal block whose
    powers p_diag holds: d bridges, exponents k_1..k_{d+1} (diagonal block)
    and m_1..m_d (inside the bridges)."""
    for d in range(0, min(k, m) + 1):
        if d == 0:
            # a bridgeless word exists only when there is nothing to spend
            # on the other block
            if m == 0:
                yield float(np.trace(p_diag.get(k)))
            continue
        for ks in compositions(k - d, d + 1):
            for ms in compositions(m - d, d):
                w = p_diag.get(ks[0])
                for i in range(d):
                    w = w @ bridge_of(ms[i]) @ p_diag.get(ks[i + 1])
                yield float(np.trace(w))


def trace_sum_enum(t: BlockMatrix, k: int, m: int, cap: int = ENUM_CAP) -> TraceSumResult:
    """Full enumeration of both word families; exponential, test-grade.

    Accumulation uses compensated summation since terms can span many orders
    of magnitude. Enumeration order is deterministic (family 1 then family 2;
    within a family d ascending, then lexicographic compositions), so
    min_term is reproducible.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if k + m > cap:
        raise CapExceeded(f"k + m = {k + m} exceeds enumeration cap {cap}")
    p11 = _PowCache(t.b11)
    p22 = _PowCache(t.b22)
    b12, b21 = t.b12, t.b21

    bridges1: dict[int, np.ndarray] = {}
    bridges2: dict[int, np.ndarray] = {}

    def bridge1(mm: int) -> np.ndarray:
        if mm not in bridges1:
            bridges1[mm] = b12 @ p22.get(mm) @ b21
        return bridges1[mm]

    def bridge2(kk: int) -> np.ndarray:
        if kk not in bridges2:
            bridges2[kk] = b21 @ p11.get(kk) @ b12
        return bridges2[kk]

    terms = list(_family_terms(p11, bridge1, k, m))
    terms += list(_family_terms(p22, bridge2, m, k))
    value = math.fsum(terms)
    return TraceSumResult(
        value=value,
        term_count=len(terms),
        min_term=min(terms) if terms else None,
        algorithm="enumeration",
    )


def _advance(coeff: np.ndarray, t: np.ndarray, n1: int) -> np.ndarray:
    """One multiplication by T S: block-1 columns raise the s1-degree,
    block-2 columns raise the s2-degree."""
    deg1, n, _ = coeff.shape
    prod = coeff @ t
    new = np.zeros((deg1 + 1, n, n))
    new[1:, :, :n1] = prod[:, :, :n1]
    new[:-1, :, n1:] = prod[:, :, n1:]
    return new


def trace_sum_dp(t: BlockMatrix, k: int, m: int, cap: int = DP_CAP) -> TraceSumResult:
    """Coefficient of s1^k s2^m in trace{(T S)^(k+m)} via the column-degree
    recurrence; polynomial cost, production path."""
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if k + m > cap:
        raise CapExceeded(f"k + m = {k + m} exceeds dp cap {cap}")
    if k == m == 0:
        return TraceSumResult(float(t.dim), 0, None, "dp")
    value = float(dp_grid(t, k, m)[k, m])
    return TraceSumResult(value=value, term_count=0, min_term=None, algorithm="dp")


def dp_grid(t: BlockMatrix, kmax: int, mmax: int) -> np.ndarray:
    """All sums for 0 <= k <= kmax, 0 <= m <= mmax in one recurrence pass.

    The s1^c coefficient of (T S)^deg feeds only cells with k >= c and
    m >= deg - c, so each degree keeps just the window
    max(0, deg - mmax) <= c <= min(kmax, deg): (kmax+1)(mmax+1) - 1 n x n
    products in all, against (kmax+mmax)(kmax+mmax+1)/2 for the full
    table of coefficients, and every kept coefficient has the full table's
    exact bits.

    The (0, 0) cell is the trivial empty word, trace(I) = n; it is included
    so grid consumers get a full rectangle.
    """
    if kmax < 0 or mmax < 0:
        raise ValueError("kmax and mmax must be nonnegative")
    if kmax + mmax > DP_CAP:
        raise CapExceeded(f"kmax + mmax = {kmax + mmax} exceeds dp cap {DP_CAP}")
    # sums[deg, c] is the trace of the s1^c coefficient of (T S)^deg
    sums = np.zeros((kmax + mmax + 1, kmax + 1))
    coeff = np.eye(t.dim)[None, :, :]
    lo = 0  # coeff[i] is the s1^(lo + i) coefficient at the current degree
    for deg in range(0, kmax + mmax + 1):
        sums[deg, lo:lo + coeff.shape[0]] = coeff.trace(axis1=1, axis2=2)
        if deg < kmax + mmax:
            # new[i] is the s1^(lo + i) coefficient; a window that moves up
            # drops new[0], whose block-1 columns needed coeff[lo - 1]
            new_lo = max(0, deg + 1 - mmax)
            coeff = _advance(coeff, t.full, t.n1)[new_lo - lo:min(kmax, deg + 1) - lo + 1]
            lo = new_lo
    k, m = np.indices((kmax + 1, mmax + 1))
    return sums[k + m, k]


# ---------------------------------------------------------------------------
# closed forms for 2+2 blocks with diagonal T11, T22
# ---------------------------------------------------------------------------

def _diag_blocks_2x2(t: BlockMatrix):
    if t.n1 != 2 or t.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {t.n1}+{t.n2}")
    b11, b22 = t.b11, t.b22
    scale = max(1.0, float(np.abs(t.full).max()))
    if abs(b11[0, 1]) > 1e-12 * scale or abs(b22[0, 1]) > 1e-12 * scale:
        raise ShapeError("diagonal blocks must be diagonal (pre-rotate first)")
    lam = (b11[0, 0], b11[1, 1], b22[0, 0], b22[1, 1])
    return lam, t.b12


def single_bridge_trace(t: BlockMatrix, k: int, m: int) -> float:
    """trace(T11^k T12 T22^m T21) for diagonal T11 = diag(l1, l2) and
    T22 = diag(l3, l4): sum of li^k lj^m * T12[i,j]^2."""
    (l1, l2, l3, l4), b = _diag_blocks_2x2(t)
    return float(
        l1 ** k * l3 ** m * b[0, 0] ** 2
        + l1 ** k * l4 ** m * b[0, 1] ** 2
        + l2 ** k * l3 ** m * b[1, 0] ** 2
        + l2 ** k * l4 ** m * b[1, 1] ** 2
    )


def double_bridge_trace(t: BlockMatrix, k1: int, k2: int, m1: int, m2: int) -> float:
    """trace(T11^k1 T12 T22^m1 T21 T11^k2 T12 T22^m2 T21) for diagonal
    T11, T22, written out monomial by monomial.

    The variables follow the sign convention of the reduced form in which the
    off-diagonal block is [[q13, q14], [q23, -q24]]; the expansion is an
    algebraic identity in the entries, so it holds for arbitrary signs.
    """
    (l1, l2, l3, l4), b = _diag_blocks_2x2(t)
    q13, q14, q23, q24 = b[0, 0], b[0, 1], b[1, 0], -b[1, 1]
    kk = (l1 ** k1 * l2 ** k2 + l1 ** k2 * l2 ** k1)
    mm = (l3 ** m1 * l4 ** m2 + l3 ** m2 * l4 ** m1)
    return float(
        l1 ** (k1 + k2) * l3 ** (m1 + m2) * q13 ** 4
        + l1 ** (k1 + k2) * l4 ** (m1 + m2) * q14 ** 4
        + l2 ** (k1 + k2) * l3 ** (m1 + m2) * q23 ** 4
        + l2 ** (k1 + k2) * l4 ** (m1 + m2) * q24 ** 4
        + l1 ** (k1 + k2) * mm * q13 ** 2 * q14 ** 2
        + l2 ** (k1 + k2) * mm * q23 ** 2 * q24 ** 2
        + l3 ** (m1 + m2) * kk * q13 ** 2 * q23 ** 2
        + l4 ** (m1 + m2) * kk * q14 ** 2 * q24 ** 2
        - kk * mm * q13 * q23 * q14 * q24
    )


def _require_2x2(t: BlockMatrix):
    if t.n1 != 2 or t.n2 != 2:
        raise ShapeError(f"need 2+2 blocks, got {t.n1}+{t.n2}")


def closed_sum_33(t: BlockMatrix) -> float:
    """The (k, m) = (3, 3) sum collapsed by cyclicity: three distinct traces
    with multiplicities 6, 12, and 2."""
    _require_2x2(t)
    b11, b12, b21, b22 = t.b11, t.b12, t.b21, t.b22
    t1 = np.trace(b11 @ b11 @ b12 @ b22 @ b22 @ b21)
    t2 = np.trace(b11 @ b12 @ b21 @ b12 @ b22 @ b21)
    p = b12 @ b21
    t3 = np.trace(p @ p @ p)
    return float(6.0 * t1 + 12.0 * t2 + 2.0 * t3)


def closed_sum_34(t: BlockMatrix) -> float:
    """The (k, m) = (3, 4) sum collapsed by cyclicity: four distinct traces
    with multiplicities 14, 7, 7, 7. The (4, 3) value follows by swapping the
    blocks."""
    _require_2x2(t)
    b11, b12, b21, b22 = t.b11, t.b12, t.b21, t.b22
    t1 = np.trace(b11 @ b12 @ b21 @ b12 @ b22 @ b22 @ b21)
    t2 = np.trace(b11 @ b11 @ b12 @ b22 @ b22 @ b22 @ b21)
    c = b12 @ b22 @ b21
    t3 = np.trace(b11 @ c @ c)
    t4 = np.trace(c @ b12 @ b21 @ b12 @ b21)
    return float(14.0 * t1 + 7.0 * t2 + 7.0 * t3 + 7.0 * t4)


def swap_blocks(t: BlockMatrix) -> BlockMatrix:
    """Exchange the roles of the two blocks; maps the (k, m) sum to (m, k)."""
    full = np.block([[t.b22, t.b21], [t.b12, t.b11]])
    return BlockMatrix.from_array(full, t.n2)
