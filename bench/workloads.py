"""Seeded input generators for the four benchmark workloads.

Every generator uses numpy alone and never `infdiv.sampling`, so a change to
the program's samplers cannot change what the benchmark feeds it. The program
sees only the argv of each op and the JSON files written here.

Ops are laid out in blocks; each block holds every category of its workload in
fixed proportions, shuffled inside the block, so any prefix of whole blocks
has the designed mix. Continuous parameters (spectral radius, witness rank,
tilt parameter, distance of (s1, s2) from 1) follow a low-discrepancy
sequence per category with a seeded offset, so every prefix of a run covers
their range evenly and the spread of op costs is nearly the same for every
seed.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, a category label and what the check needs."""

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"argv": self.argv, "kind": self.kind, "expect": self.expect}


# the calibration kernel (calib.py) doing the same kind of work as the
# workload's ops: 8x8 eigen/dp code for hunt and scan, multi-MB array passes
# for the sign-search chunks, both for Monte Carlo draws plus the series loop
CALIBRATION = {"hunt": "small", "scan": "small", "signsearch": "stream",
               "transform": "mixed"}

# argv of each workload's ops, with the generated parts in braces
TEMPLATES = {
    "hunt": "search --kmax 30 --mmax 30 --seed {derived}",
    "scan": "check --sigma {model.json} --format json | "
            "check --q {tilt.json} --format json",
    "signsearch": "check --sigma {model.json} --format json",
    "transform": "laplace --sigma {model.json} --s1 {s1} --s2 {s2} "
                 "--seed {derived}",
}

# ops generated per workload; runs longer than the pool cycle through it
POOL_BLOCKS = {"hunt": 600, "scan": 60, "signsearch": 40, "transform": 250}


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def low_discrepancy(rng: np.random.Generator, count: int, dims: int = 1) -> np.ndarray:
    """`count` points in [0, 1)^dims of the additive recurrence k * alpha
    (Roberts' R_d; the golden ratio for dims = 1) from a random offset.
    Every prefix covers the cube evenly. Shape (count, dims)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1.0, dims + 1)
    k = np.arange(1, count + 1)[:, None]
    return (rng.random(dims) + k * alpha) % 1.0


def _write(outdir: str, name: str, obj: dict) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _model_json(sigma: np.ndarray, n1: int, a: float | None = None) -> dict:
    n = sigma.shape[0]
    out = {"sigma": {"dim": n, "entries": [float(x) for x in sigma.ravel()]},
           "n1": n1, "n2": n - n1}
    if a is not None:
        out["a"] = float(a)
    return out


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def random_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Wishart-like G^t G / n plus a small ridge; positive definite."""
    g = rng.standard_normal((n, n))
    return _sym(g.T @ g / n + 0.05 * np.eye(n))


def rotated_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q diag(lam) Q^t with a random orthogonal Q and a fixed spectrum
    spanning what random_covariance gives (about 0.05 to 3): the
    transform's series length depends on the largest eigenvalue, which then
    no longer varies from input to input."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))[None, :]
    lam = np.geomspace(0.05, 3.0, n)
    return _sym(q @ np.diag(lam) @ q.T)


def gb_true_covariance(rng: np.random.Generator, n: int, rank: int):
    """Covariance whose precision is D M D with M a dense, strictly
    diagonally dominant matrix with off-diagonals in [-1, -0.05].

    The sign vector w = D (w[0] = +1) is then the only Griffiths-Bapat
    witness up to a global sign, and its rank in the program's index-order
    search is `rank`: bit i of rank set means w[i + 1] = -1.
    """
    w = np.ones(n)
    for i in range(n - 1):
        if (rank >> i) & 1:
            w[i + 1] = -1.0
    m = -rng.uniform(0.05, 1.0, (n, n))
    m = _sym(m)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1) + rng.uniform(0.1, 1.0, n))
    prec = w[:, None] * m * w[None, :]
    return _sym(np.linalg.inv(prec)), w


def gb_balanced(inv: np.ndarray, tol: float = 1e-12):
    """Does some D = diag(+-1) make D inv D off-diagonally <= tol?

    Signed-graph balance (Harary): an entry above tol forces opposite signs
    on its pair, one below -tol forces equal signs, |entry| <= tol leaves the
    pair free. Two-colouring by breadth-first search decides it in O(n^2).
    Returns the sign vector with w[0] = +1, or None when no D exists.
    """
    n = inv.shape[0]
    sign = [0] * n
    for root in range(n):
        if sign[root]:
            continue
        sign[root] = 1
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j == i or abs(inv[i, j]) <= tol:
                    continue
                want = -sign[i] if inv[i, j] > tol else sign[i]
                if sign[j] == 0:
                    sign[j] = want
                    queue.append(j)
                elif sign[j] != want:
                    return None
    w = np.array(sign, dtype=float)
    return w * w[0]


def tilt_like(rng: np.random.Generator, radius: float, tie: int) -> np.ndarray:
    """2+2 positive definite matrix with spectral radius `radius`.

    tie 1 (or 2) makes the first (second) diagonal block an exact multiple of
    the identity, which puts canonical_rotation on its tie path.
    """
    b = 0.6 * rng.standard_normal((2, 2))
    d = random_covariance(rng, 2) + 0.2 * np.eye(2)
    need = np.linalg.eigvalsh(b @ np.linalg.inv(d) @ b.T).max()
    if tie:
        a = (need * rng.uniform(1.2, 2.0) + 0.05) * np.eye(2)
    else:
        a = random_covariance(rng, 2) + (need * 1.2 + 0.05) * np.eye(2)
    q = np.block([[a, b], [b.T, d]])
    if tie == 2:
        q = q[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
    # scaling keeps an exact c*I block exact: both entries are the same float
    return q * (radius / np.linalg.eigvalsh(q).max())


def gen_hunt(rng, outdir):
    """The counterexample hunt at its documented depth. Each call samples 100
    tilt-like matrices (two Jacobi eigen_sym calls each), filters them by
    word positivity and dp-scans the few that fail it, so sampling and
    matcore.eigen_sym dominate."""
    seeds = rng.integers(0, 2**31 - 1, size=POOL_BLOCKS["hunt"])
    return [Op(["search", "--kmax", "30", "--mmax", "30", "--seed", str(int(s))], "search")
            for s in seeds]


# per block: (kind, count)
SCAN_BLOCK = (("sigma2+2", 6), ("sigma3+3", 4), ("sigma4+4", 4), ("sigma1+3", 1),
              ("q", 3), ("q-tied", 2))


def gen_scan(rng, outdir):
    """The decision pipeline at the default a-grid and kmax = mmax = 40.
    Random covariances fall through to five dp scans, so tracesum.dp_grid and
    cli.find_negative_cells dominate; the scalar-block models reach
    shanbhag_check, the 2+2 ones the precision and word criteria, and the
    tied tilt-like matrices canonical_rotation's 720-angle tie path."""
    blocks = POOL_BLOCKS["scan"]
    n_q = blocks * (3 + 2)
    radius = 0.5 * 10.0 ** low_discrepancy(rng, n_q)[:, 0]  # log-uniform in [0.5, 5)
    ops, qi = [], 0
    for b in range(blocks):
        block = []
        for kind, count in SCAN_BLOCK:
            for j in range(count):
                name = f"scan-{b}-{kind}-{j}.json"
                if kind.startswith("sigma"):
                    n1, n2 = (int(x) for x in kind[5:].split("+"))
                    sigma = random_covariance(rng, n1 + n2)
                    path = _write(outdir, name, _model_json(sigma, n1))
                    block.append(Op(["check", "--sigma", path, "--format", "json"],
                                    kind, {"mode": "sigma", "path": path}))
                else:
                    tie = (1 + j % 2) if kind == "q-tied" else 0
                    q = tilt_like(rng, float(radius[qi]), tie)
                    qi += 1
                    path = _write(outdir, name, {"dim": 4, "n1": 2,
                                                 "entries": [float(x) for x in q.ravel()]})
                    block.append(Op(["check", "--q", path, "--format", "json"],
                                    kind, {"mode": "q", "path": path}))
        ops += [block[i] for i in rng.permutation(len(block))]
    return ops


# per block of 20: (kind, n, count). Sign-search cost steps with the number
# of 4096-vector chunks scanned, so op costs form clusters; the counts put the
# median inside the one-chunk n=10/12 cluster and the 90th percentile inside
# the GB-false n=16 cluster (full search, then dp scans), so neither sits on a
# cluster edge. The sign search still takes most of the time.
SIGN_BLOCK = (("gb-true", 10, 6), ("gb-true", 12, 7), ("gb-true", 14, 1),
              ("gb-true", 16, 2), ("gb-false", 10, 1), ("gb-false", 16, 3))


def gen_signsearch(rng, outdir):
    """Wide models where the Griffiths-Bapat search over 2^(n-1) sign vectors
    decides: GB-true ones stop at the witness, GB-false ones search to the end
    and fall through to dp scans of 10- and 16-dim tilt matrices."""
    blocks = POOL_BLOCKS["signsearch"]
    rank_u = {(kind, n): low_discrepancy(rng, blocks * count)[:, 0]
              for kind, n, count in SIGN_BLOCK if kind == "gb-true"}
    ops = []
    for b in range(blocks):
        block = []
        for kind, n, count in SIGN_BLOCK:
            for j in range(count):
                name = f"sign-{b}-{kind}-{n}-{j}.json"
                if kind == "gb-true":
                    rank = int(rank_u[kind, n][b * count + j] * 2 ** (n - 1))
                    sigma, w = gb_true_covariance(rng, n, rank)
                    expect = {"gb_true": True, "witness": w.tolist(), "rank": rank}
                else:
                    sigma = random_covariance(rng, n)
                    while gb_balanced(np.linalg.inv(sigma)) is not None:
                        sigma = random_covariance(rng, n)
                    expect = {"gb_true": False}
                path = _write(outdir, name, _model_json(sigma, n // 2))
                block.append(Op(["check", "--sigma", path, "--format", "json"],
                                f"{kind}-{n}", {"mode": "sigma", "path": path, **expect}))
        ops += [block[i] for i in rng.permutation(len(block))]
    return ops


TRANSFORM_DIMS = (4, 6, 8)


def gen_transform(rng, outdir):
    """The joint Laplace transform three ways: 100000 Monte Carlo draws, the
    log-series (thousands of terms, up to NMAX_CAP, as s nears 1) and the
    Cholesky log-determinant. No other workload reaches the laplace layer."""
    blocks = POOL_BLOCKS["transform"]
    # per dimension: log10(a) in [0, 3), -log10(1 - s) in [0.3, 3) for s1, s2
    params = {n: low_discrepancy(rng, blocks, dims=3) for n in TRANSFORM_DIMS}
    ops = []
    for b in range(blocks):
        block = []
        for n in TRANSFORM_DIMS:
            u = params[n][b]
            a = 10.0 ** (3.0 * u[0])
            s1, s2 = (1.0 - 10.0 ** -(0.3 + 2.7 * x) for x in u[1:])
            sigma = rotated_covariance(rng, n)
            path = _write(outdir, f"transform-{b}-{n}.json", _model_json(sigma, n // 2, a))
            seed = int(rng.integers(0, 2**31 - 1))
            block.append(Op(["laplace", "--sigma", path, "--s1", repr(float(s1)),
                             "--s2", repr(float(s2)), "--seed", str(seed)],
                            f"laplace-{n}", {"path": path}))
        ops += [block[k] for k in rng.permutation(len(block))]
    return ops


GENERATORS = {
    "hunt": gen_hunt,
    "scan": gen_scan,
    "signsearch": gen_signsearch,
    "transform": gen_transform,
}


def generate(name: str, seed: int, outdir: str) -> list:
    """Write the workload's input files into outdir and return its ops."""
    return GENERATORS[name](rng_for(name, seed), outdir)
