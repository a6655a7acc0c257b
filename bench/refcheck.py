"""Per-op correctness checks against independent numpy references.

Nothing here imports infdiv. Each check takes the op, its exit code and its
captured stdout, and returns (problems, scanned): a list of what is wrong
(empty when the op is correct) and the number of open-regime trials the op
dp-scanned (search ops only, else 0).
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import gb_balanced

# the CLI's documented exit codes per verdict
EXIT_OF_STATUS = {"CertifiedID": 0, "Undetermined": 2, "NotIDWitness": 3}
SCAN_REL = 1e-9
GB_TOL = 1e-12
SIGNATURE_TOL = 1e-10
CLOSED_TOL = 1e-12
MC_MISS_PROB = 2e-9  # the two-sided normal tail beyond 6 sigma


def dp_grid_ref(t: np.ndarray, n1: int, kmax: int, mmax: int) -> np.ndarray:
    """out[k, m] = coefficient of s1^k s2^m in trace((T S)^(k+m)),
    S = diag(s1 I_n1, s2 I_n2): the matrix coefficients of (T S)^N are
    advanced one factor at a time, block-1 columns raising the s1 degree."""
    n = t.shape[0]
    out = np.empty((kmax + 1, mmax + 1))
    coeff = np.eye(n)[None, :, :]
    for deg in range(kmax + mmax + 1):
        ks = np.arange(max(0, deg - mmax), min(kmax, deg) + 1)
        out[ks, deg - ks] = np.einsum("kii->k", coeff[ks])
        if deg < kmax + mmax:
            prod = coeff @ t
            nxt = np.zeros((deg + 2, n, n))
            nxt[1:, :, :n1] = prod[:, :, :n1]
            nxt[:-1, :, n1:] = prod[:, :, n1:]
            coeff = nxt
    return out


def tilt_ref(sigma: np.ndarray, a: float) -> np.ndarray:
    n = sigma.shape[0]
    t = np.eye(n) - np.linalg.inv(np.eye(n) + a * sigma)
    return (t + t.T) / 2.0


def _log_transform(sigma: np.ndarray, d: np.ndarray):
    """log E exp(-x^t diag(d) x / 2) = -log det(I + Sigma diag(d)) / 2 for
    x ~ N(0, Sigma), or None when the determinant is not positive."""
    sign, logdet = np.linalg.slogdet(np.eye(sigma.shape[0]) + sigma * d[None, :])
    return -0.5 * logdet if sign > 0 else None


def mc_tolerance(log_first: float, log_second: float, samples: int) -> float:
    """Half-width eps with P(|mean - E e| > eps) <= MC_MISS_PROB for the plain
    mean of `samples` independent draws of e = exp(-q/2), which lies in [0, 1].

    Bernstein's inequality with the exact variance of e, from the logs of E e
    and E e^2 (the transform at d and at 2d). The estimate's own sample stderr
    is not the yardstick: when a (1 - s) is large, e is heavy-tailed, 1e5 draws
    rarely reach the region that carries the mean, and the sample stderr falls
    short of the true error by orders of magnitude, so a correct plain Monte
    Carlo would fail a check built on it. Nor is a fixed multiple of the exact
    stderr: there a single draw near x = 0 can move the mean by many of them.
    Where the draws resolve the mean, eps is about 6.4 stderr.
    """
    var = math.exp(2.0 * log_first) * max(math.expm1(log_second - 2.0 * log_first), 0.0)
    level = math.log(2.0 / MC_MISS_PROB)
    b = level / (3.0 * samples)
    return b + math.sqrt(b * b + 2.0 * level * var / samples)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _matrix(obj: dict) -> np.ndarray:
    n = int(obj["dim"])
    m = np.asarray(obj["entries"], dtype=float).reshape(n, n)
    return (m + m.T) / 2.0


def _max_offdiag(m: np.ndarray) -> float:
    return float(m[~np.eye(m.shape[0], dtype=bool)].max())


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _check_scan_entry(entry: dict, t: np.ndarray, n1: int, kmax: int, mmax: int,
                      problems: list) -> np.ndarray:
    grid = dp_grid_ref(t, n1, kmax, mmax)
    where = f"scan at a={entry['a']}"
    if not _close(entry["value"], float(grid.min()), SCAN_REL):
        problems.append(f"{where}: minimum {entry['value']!r} != reference "
                        f"{float(grid.min())!r}")
    if not _close(entry["value"], float(grid[entry["k"], entry["m"]]), SCAN_REL):
        problems.append(f"{where}: cell ({entry['k']}, {entry['m']}) reads "
                        f"{float(grid[entry['k'], entry['m']])!r} in the reference")
    return grid


def check_check(op, rc: int, stdout: str):
    """`check --sigma` / `check --q` with --format json."""
    problems: list = []
    payload = json.loads(stdout)
    verdict = payload["verdict"]
    status = verdict["status"]
    if EXIT_OF_STATUS.get(status) != rc:
        problems.append(f"exit code {rc} does not match verdict {status}")
    raw = _load(op.expect["path"])
    kmax, mmax = payload["kmax"], payload["mmax"]
    reasons = verdict["reasons"]
    if op.expect["mode"] == "sigma":
        sigma = _matrix(raw["sigma"])
        n1 = int(raw["n1"])
        inv = np.linalg.inv(sigma)
        for r in reasons:
            if r["criterion"] == "griffiths-bapat":
                if r["holds"]:
                    w = np.asarray(r["witness"])
                    worst = _max_offdiag(w[:, None] * inv * w[None, :])
                    if not worst <= GB_TOL:
                        problems.append(f"sign witness leaves off-diagonal {worst!r}")
                elif gb_balanced(inv, GB_TOL) is not None:
                    problems.append("sign search failed but a sign witness exists")
            if r["criterion"] == "precision-offdiag" and r["holds"]:
                u = np.zeros_like(inv)
                u[:2, :2] = np.asarray(r["witness"]["u1"])
                u[2:, 2:] = np.asarray(r["witness"]["u2"])
                worst = _max_offdiag(u.T @ inv @ u)
                if not worst <= SIGNATURE_TOL:
                    problems.append(f"signature witness leaves off-diagonal {worst!r}")
        if "gb_true" in op.expect:
            gb = [r for r in reasons if r["criterion"] == "griffiths-bapat"]
            if not gb or gb[0]["holds"] != op.expect["gb_true"]:
                problems.append(f"sign search verdict differs from construction "
                                f"(gb_true={op.expect['gb_true']})")
            if op.expect["gb_true"] and status != "CertifiedID":
                problems.append(f"constructed GB-true model came back {status}")
        if status == "CertifiedID" and not any(r["holds"] for r in reasons):
            problems.append("certified without a criterion that holds")
        if status == "CertifiedID" and any(r["criterion"] == "shanbhag" for r in reasons):
            if min(n1, sigma.shape[0] - n1) != 1:
                problems.append("scalar-block certificate on a model without a scalar block")
        grids = {}
        for entry in payload["scan"]:
            grids[entry["a"]] = _check_scan_entry(
                entry, tilt_ref(sigma, entry["a"]), n1, kmax, mmax, problems)
        if status == "Undetermined" and len(payload["scan"]) != len(payload["a_grid"]):
            problems.append("undetermined before every tilt parameter was scanned")
    else:
        t = _matrix(raw)
        grids = {None: _check_scan_entry(payload["scan"][0], t, int(raw["n1"]),
                                         kmax, mmax, problems)}
    cell = verdict.get("negative_cell")
    if status == "NotIDWitness":
        if cell is None or not grids[cell["a"]][cell["k"], cell["m"]] < 0:
            problems.append(f"negative cell {cell} is not negative in the reference")
    return problems, 0


def check_search(op, rc: int, stdout: str):
    problems: list = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    report = json.loads(stdout)
    summary = report["summary"]
    trials = report["trials"]
    if summary["scanned"] + summary["skipped"] != summary["trials"]:
        problems.append("scanned + skipped != trials")
    if len(trials) != summary["trials"]:
        problems.append(f"{len(trials)} trial entries for {summary['trials']} trials")
    scanned = [t for t in trials if "min_cell" in t]
    if len(scanned) != summary["scanned"]:
        problems.append(f"{len(scanned)} scanned entries, summary says {summary['scanned']}")
    for t in scanned:
        if not t["quantity"] < 0:
            problems.append(f"trial {t['trial']} scanned with quantity {t['quantity']!r}")
        if not math.isfinite(t["min_cell"]["value"]):
            problems.append(f"trial {t['trial']} has a non-finite min cell")
    if any(row["holds"] != row["expected"] for row in report["family_selftest"]):
        problems.append("family self-test rows disagree with the truth table")
    return problems, len(scanned)


def check_laplace(op, rc: int, stdout: str):
    problems: list = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    payload = json.loads(stdout)
    raw = _load(op.expect["path"])
    sigma = _matrix(raw["sigma"])
    n, n1 = sigma.shape[0], int(raw["n1"])
    s = np.concatenate([np.full(n1, payload["s1"]), np.full(n - n1, payload["s2"])])
    a = float(raw["a"])
    closed = payload["closed"]
    log1, log2 = (_log_transform(sigma, a * k * (1.0 - s)) for k in (1.0, 2.0))
    ref = None if log1 is None else math.exp(log1)
    if ref is None or not abs(closed - ref) <= CLOSED_TOL:
        problems.append(f"closed {closed!r} != slogdet reference {ref!r}")
    series = payload["series"]
    if not abs(series["value"] - closed) <= series["tail_bound"] + 1e-12:
        problems.append(f"series {series['value']!r} is {abs(series['value'] - closed):.3e} "
                        f"from closed, tail bound {series['tail_bound']:.3e}")
    mc = payload["monte_carlo"]
    if not (mc["stderr"] > 0 and math.isfinite(mc["stderr"])):
        problems.append(f"monte carlo stderr {mc['stderr']!r}")
    if ref is not None:
        eps = mc_tolerance(log1, log2, int(mc["samples"]))
        if not abs(mc["estimate"] - ref) <= eps:
            problems.append(f"monte carlo {mc['estimate']!r} misses {ref!r} by more than "
                            f"{eps!r}, which a correct estimate exceeds with probability "
                            f"at most {MC_MISS_PROB}")
    return problems, 0


CHECKS = {"check": check_check, "search": check_search, "laplace": check_laplace}


def check_op(op, rc, stdout: str):
    """Dispatch on the subcommand; a malformed output is a problem, not a crash."""
    try:
        return CHECKS[op.argv[0]](op, rc, stdout)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0
