"""Joint Laplace transform of the two squared block norms, three ways.

For X ~ N(0, Sigma) split into blocks of sizes (n1, n2) and a tilt parameter
a > 0, the object is

    P(s1, s2) = E exp{-(a/2) [(1-s1) |X_1|^2 + (1-s2) |X_2|^2]}
              = det(I + a Sigma (I - S))^(-1/2),      S = diag(s1 I, s2 I),

for (s1, s2) in [0,1)^2. Three independent evaluations are provided: the
closed determinant form, the log-series through the tilt matrix T,

    2 log P = log det(I - T) + sum_{n>=1} trace{(T S)^n} / n,

and a seeded Monte Carlo estimate. Their agreement ties the word-trace sums
to the transform: the (k, m) Taylor coefficient of the series part is exactly
trace_sum(k, m)/(k+m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import CapExceeded
from .model import BlockMatrix, CovarianceModel, tilt_matrix

NMAX_CAP = 10_000
MC_SHARD = 250_000
# a shard is drawn and transformed this many rows at a time, so the working
# arrays stay in cache; the normals and products are those of one big draw
_MC_ROWS = 4096
# series powers are computed this many at a time into one preallocated buffer
_SERIES_CHUNK = 256


@dataclass(frozen=True)
class DualPoint:
    s1: float
    s2: float

    def __post_init__(self):
        for name, v in (("s1", self.s1), ("s2", self.s2)):
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")


def _svec(n1: int, n2: int, p: DualPoint) -> np.ndarray:
    return np.concatenate([np.full(n1, p.s1), np.full(n2, p.s2)])


def laplace_closed(model: CovarianceModel, p: DualPoint) -> float:
    """det(I + a Sigma (I-S))^(-1/2) via Cholesky log-determinant.

    The determinant argument is not symmetric as written; it shares its
    spectrum with the symmetric I + a D^(1/2) Sigma D^(1/2), D = I - S, which
    is what gets factored.
    """
    n = model.sigma.dim
    dvec = 1.0 - _svec(model.n1, model.n2, p)
    root = np.sqrt(dvec)
    sym = np.eye(n) + model.a * (root[:, None] * model.sigma.entries * root[None, :])
    L = matcore.cholesky(sym)
    logdet = 2.0 * math.fsum(math.log(x) for x in np.diag(L))
    return math.exp(-0.5 * logdet)


def auto_nmax(rho: float, tol: float = 1e-10) -> int:
    """Smallest n with rho^(n+1)/((n+1)(1-rho)) < tol, capped at NMAX_CAP.

    rho is the spectral radius bound of T S; the expression bounds the
    dropped series tail. For 0 < rho < 1 it decreases in n, so the answer
    is found by bisection. n = 1 is tried first: for tol > 0 that settles
    every rho >= 1 (and a NaN rho or tol) before a large power could
    overflow.
    """
    def too_big(n):
        return rho ** (n + 1) / ((n + 1) * (1.0 - rho)) >= tol

    if rho <= 0.0 or not too_big(1):
        return 1
    lo, hi = 2, NMAX_CAP  # the answer lies in [lo, hi]; too_big(hi) is never asked
    while lo < hi:
        mid = (lo + hi) // 2
        if too_big(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class SeriesResult:
    value: float
    nmax: int
    rho: float
    tail_bound: float


def laplace_series(model: CovarianceModel, p: DualPoint, nmax: int | None = None) -> SeriesResult:
    """Truncated log-series evaluation of the transform.

    nmax is auto-chosen from the spectral radius when not given; an explicit
    nmax beyond NMAX_CAP raises CapExceeded and a negative one ValueError.
    The dropped tail is bounded by rho^(nmax+1)/((nmax+1)(1-rho)), reported
    as tail_bound.

    The powers (T S)^i are formed one product at a time, as
    (T S)^(i-1) @ (T S), into a buffer of _SERIES_CHUNK matrices whose
    traces are read in one batched call; the terms trace/i are summed once
    with math.fsum, so the result does not depend on the chunk size. Every
    term has the bits of float(trace((T S)^(i-1) @ (T S))) / i.
    """
    if nmax is not None and nmax > NMAX_CAP:
        raise CapExceeded(f"nmax {nmax} exceeds cap {NMAX_CAP}")
    if nmax is not None and nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    t = tilt_matrix(model)
    lam_top = matcore.top_eigenvalue(t.full)
    rho = lam_top * max(p.s1, p.s2)
    if nmax is None:
        nmax = auto_nmax(rho)
    # log det(I - T) = -log det(I + a Sigma)
    n = model.sigma.dim
    L = matcore.cholesky(np.eye(n) + model.a * model.sigma.entries)
    logdet_i_minus_t = -2.0 * math.fsum(math.log(x) for x in np.diag(L))
    svec = _svec(model.n1, model.n2, p)
    ts = t.full * svec[None, :]
    terms = np.empty(nmax)  # terms[i - 1] = trace((T S)^i) / i
    buf = np.empty((_SERIES_CHUNK + 1, n, n))
    buf[0] = np.eye(n)
    mats = list(buf)  # views of buf; a list lookup is cheaper than buf[j]
    for start in range(1, nmax + 1, _SERIES_CHUNK):
        c = min(_SERIES_CHUNK, nmax + 1 - start)
        for j in range(c):
            np.dot(mats[j], ts, out=mats[j + 1])
        terms[start - 1:start - 1 + c] = (
            buf[1:c + 1].trace(axis1=1, axis2=2) / np.arange(start, start + c))
        buf[0] = buf[c]
    total = logdet_i_minus_t + math.fsum(terms)
    tail = rho ** (nmax + 1) / ((nmax + 1) * (1.0 - rho)) if rho > 0 else 0.0
    return SeriesResult(value=math.exp(0.5 * total), nmax=nmax, rho=rho, tail_bound=tail)


def _merge_moments(sa, sb):
    """Combine (count, mean, M2) pairs; order-independent up to roundoff."""
    na, ma, m2a = sa
    nb, mb, m2b = sb
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return (n, mean, m2)


def _sum_squares(cols: np.ndarray) -> np.ndarray:
    """Row sums of squares of a (rows, k >= 1) array, added column by column
    in index order, without forming the squared array."""
    q = cols[:, 0] * cols[:, 0]
    for j in range(1, cols.shape[1]):
        q += cols[:, j] * cols[:, j]
    return q


def monte_carlo(model: CovarianceModel, p: DualPoint, samples: int, seed: int):
    """Estimate the transform by simulation; returns (estimate, stderr).

    Sampling is sharded; each shard draws from its own generator spawned off
    the seed, and shard moments are merged pairwise, so the result is
    reproducible for a fixed (seed, samples) pair regardless of merge order.
    Fewer than 1000 samples or a negative seed raise ValueError.

    Each shard's normals are drawn _MC_ROWS rows at a time into one buffer,
    which yields the same stream as a single draw. The block quadratic forms
    |X_1|^2 and |X_2|^2 are accumulated column by column, x_0^2 + x_1^2 +
    ..., in index order. For blocks of at most 7 coordinates this is the
    order numpy's row sum uses; for blocks of 8 or more numpy sums pairwise,
    so against that sum a row can differ in the last bits (the sum itself
    is as accurate).
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    L = matcore.cholesky(model.sigma.entries)
    n1 = model.n1
    c1 = model.a * (1.0 - p.s1)
    c2 = model.a * (1.0 - p.s2)
    counts = [MC_SHARD] * (samples // MC_SHARD)
    if samples % MC_SHARD:
        counts.append(samples % MC_SHARD)
    children = np.random.SeedSequence(seed).spawn(len(counts))
    stats = []
    z = np.empty((min(_MC_ROWS, max(counts)), model.sigma.dim))
    for child, cnt in zip(children, counts):
        gen = np.random.default_rng(child)
        e = np.empty(cnt)
        for lo in range(0, cnt, _MC_ROWS):
            # z[:cnt - lo] is all of z, or the shard's last, shorter block
            x = gen.standard_normal(out=z[:cnt - lo]) @ L.T
            e[lo:lo + len(x)] = -0.5 * (c1 * _sum_squares(x[:, :n1])
                                        + c2 * _sum_squares(x[:, n1:]))
        np.exp(e, out=e)
        mean = float(e.mean())
        stats.append((cnt, mean, float(((e - mean) ** 2).sum())))
    while len(stats) > 1:
        merged = [
            _merge_moments(stats[i], stats[i + 1]) if i + 1 < len(stats) else stats[i]
            for i in range(0, len(stats), 2)
        ]
        stats = merged
    count, mean, m2 = stats[0]
    var = m2 / (count - 1)
    return mean, math.sqrt(var / count)


def log_transform_coefficients(
    t: BlockMatrix, kmax: int, mmax: int, radius: float | None = None, npts: int = 64
) -> np.ndarray:
    """Taylor coefficients of g(s1, s2) = -log det(I - T S) around 0.

    Returns out[k, m] = coefficient of s1^k s2^m; for k + m >= 1 this equals
    the (k, m) word-trace sum divided by (k + m), which makes the function an
    independent test bridge to the dp evaluator.

    Coefficients are read off by sampling g on a complex polydisc of the
    given radius and applying a 2-d FFT; real-axis stencils are hopeless at
    order 10 in double precision, the circle is exact up to aliasing. The
    default radius backs away from the singularity at spectral radius 1 of
    T S. g is evaluated through the eigenvalues of T S with principal logs;
    branch issues cannot occur since every |eigenvalue| < 1 on the disc.
    """
    if max(kmax, mmax) >= npts:
        raise ValueError("npts must exceed the requested degrees")
    lam_top = matcore.top_eigenvalue(t.full)
    if radius is None:
        radius = min(0.85, 0.6 / lam_top)
    n1 = t.n1
    zs = radius * np.exp(2j * math.pi * np.arange(npts) / npts)
    grid = np.empty((npts, npts), dtype=complex)
    for i, z1 in enumerate(zs):
        svec = np.concatenate([np.full(t.n1, z1), np.empty(t.n2, dtype=complex)])
        for j, z2 in enumerate(zs):
            svec[n1:] = z2
            mu = np.linalg.eigvals(t.full * svec[None, :])
            grid[i, j] = -np.log1p(-mu).sum()
    c = np.fft.fft2(grid) / npts ** 2
    out = np.empty((kmax + 1, mmax + 1))
    for k in range(kmax + 1):
        for m in range(mmax + 1):
            out[k, m] = c[k, m].real / radius ** (k + m)
    return out
