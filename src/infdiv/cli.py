"""Command line interface.

Subcommands
-----------
check    run the decision pipeline on a covariance model or a tilt-like matrix
figure1  emit the built-in 61x61 trace-sum grid (values stay positive)
search   randomized hunt for negative cells in the open regime
verify   run the internal property suites and report a JSON summary
laplace  evaluate the joint transform three independent ways at one point

Matrices travel as JSON: {"dim": n, "entries": [row major floats], "n1": n1};
covariance models wrap one under a "sigma" key with "n1", "n2" and optional
"a". check exits 0 when a sufficient criterion certifies divisibility, 2 when
nothing was decided, 3 when a dual-confirmed negative cell disproves it, and
1 on bad input or a trace-sum grid with non-finite cells.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import criteria, laplace, matcore, model, sampling, tracesum, verify
from .errors import InfdivError, NonFiniteResult
from .model import A_GRID_DEFAULT, BlockMatrix, CovarianceModel
from .tracesum import ENUM_CAP

EXIT_CERTIFIED = 0
EXIT_INPUT_ERROR = 1
EXIT_UNDETERMINED = 2
EXIT_WITNESS = 3

CERTIFIED = "CertifiedID"
NOT_ID = "NotIDWitness"
UNDETERMINED = "Undetermined"

# a cell counts as negative only below this fraction of the largest magnitude
# on its own anti-diagonal; guards against cancellation noise at high k+m
NEG_CELL_REL = 1e-9

# the built-in demonstration matrix for figure1 (used as a direct tilt-like
# input; figure1 rescales it to unit spectral radius first)
FIGURE_MATRIX = np.array([
    [0.80, 0.00, 0.01, 0.01],
    [0.00, 0.30, 0.01, -0.20],
    [0.01, 0.01, 0.80, 0.00],
    [0.01, -0.20, 0.00, 0.30],
])


class InputError(Exception):
    """Bad file, bad JSON, or bad flag values. Exit code 1."""


@dataclasses.dataclass(frozen=True)
class ScanConfig:
    kmax: int = 30
    mmax: int = 30
    a_grid: tuple[float, ...] = A_GRID_DEFAULT
    seed: int = 0
    trials: int = 100
    output_path: str = ""

    def __post_init__(self):
        if self.kmax < 0 or self.mmax < 0:
            raise InputError("kmax and mmax must be >= 0")
        grid = list(self.a_grid)
        if not grid or any(not a > 0 for a in grid) or grid != sorted(grid):
            raise InputError("a_grid must be nonempty, positive, ascending")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")

    def to_json(self) -> dict:
        return {
            "kmax": self.kmax,
            "mmax": self.mmax,
            "a_grid": [float(a) for a in self.a_grid],
            "seed": self.seed,
            "trials": self.trials,
            "output_path": self.output_path,
        }


@dataclasses.dataclass(frozen=True)
class Verdict:
    status: str  # CertifiedID | NotIDWitness | Undetermined
    reasons: tuple[criteria.CriterionReport, ...]
    # (k, m, a, value); a is None when the input was a tilt-like matrix
    negative_cell: tuple[int, int, float | None, float] | None = None

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "reasons": [r.to_json() for r in self.reasons],
        }
        if self.negative_cell is not None:
            k, m, a, value = self.negative_cell
            out["negative_cell"] = {"k": k, "m": m, "a": a, "value": value}
        return out

    @property
    def exit_code(self) -> int:
        return {CERTIFIED: EXIT_CERTIFIED, NOT_ID: EXIT_WITNESS,
                UNDETERMINED: EXIT_UNDETERMINED}[self.status]


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object")
    return raw


def _block_from_json(raw: dict) -> BlockMatrix:
    try:
        sym = matcore.SymMatrix.from_json(raw)
        n1 = int(raw["n1"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad matrix JSON: {exc}")
    return BlockMatrix.from_array(sym.entries, n1)


def _resolve_a_grid(flag: str | None, raw: dict) -> tuple[float, ...]:
    """Flag beats the file's own "a", which beats the default grid."""
    if flag:
        try:
            grid = tuple(float(x) for x in flag.split(","))
        except ValueError as exc:
            raise InputError(f"bad --a-grid: {exc}")
    elif "a" in raw:
        grid = (float(raw["a"]),)
    else:
        grid = A_GRID_DEFAULT
    if not grid or any(not a > 0 for a in grid) or list(grid) != sorted(grid):
        raise InputError("a grid must be nonempty, positive, ascending")
    return grid


def find_negative_cells(grid: np.ndarray) -> list[tuple[int, int, float]]:
    """Cells below -NEG_CELL_REL times the largest magnitude on their
    anti-diagonal, ordered by (k+m, k), as plain Python ints and floats."""
    grid = np.asarray(grid, dtype=float)
    k, m = np.indices(grid.shape)
    # row s of skew is anti-diagonal s, skew[s, k] = grid[k, s - k]; its zero
    # padding can neither raise a row's maximum nor fall below a threshold
    skew = np.zeros((grid.shape[0] + grid.shape[1] - 1, grid.shape[0]))
    skew[k + m, k] = grid
    scale = np.abs(skew).max(axis=1, keepdims=True)
    ss, ks = np.nonzero(skew < -NEG_CELL_REL * scale)
    return list(zip(ks.tolist(), (ss - ks).tolist(), skew[ss, ks].tolist()))


def _confirm_negative(t: BlockMatrix, k: int, m: int, dp_value: float):
    """Dual confirmation of a candidate negative cell.

    Returns (confirmed, enum, note). Within the enumeration cap both
    evaluators must be negative and agree; beyond it enum is None, the dp
    value stands alone and the note says so.
    """
    if k + m <= ENUM_CAP:
        enum = tracesum.trace_sum_enum(t, k, m).value
        if enum < 0 and abs(enum - dp_value) <= 1e-6 * max(1.0, abs(enum)):
            return True, enum, "confirmed by independent enumeration"
        return False, enum, f"evaluators disagree at ({k},{m}): enum={enum!r} dp={dp_value!r}"
    return True, None, "beyond enumeration cap; dp evaluator only"


def _with_detail(rep: criteria.CriterionReport, **extra) -> criteria.CriterionReport:
    return criteria.CriterionReport(
        criterion=rep.criterion, holds=rep.holds, witness=rep.witness,
        detail={**rep.detail, **extra},
    )


def _swap_model(mdl: CovarianceModel) -> CovarianceModel:
    """Exchange the two blocks; the pair's divisibility is symmetric."""
    perm = list(range(mdl.n1, mdl.n1 + mdl.n2)) + list(range(mdl.n1))
    s = mdl.sigma.entries[np.ix_(perm, perm)]
    return CovarianceModel(matcore.SymMatrix.from_array(s), mdl.n2, mdl.n1, mdl.a)


def _finite_grid(t: BlockMatrix, kmax: int, mmax: int) -> np.ndarray:
    """dp_grid, refusing non-finite cells: a NaN compares False against the
    negative-cell threshold and would otherwise pass as Undetermined."""
    grid = tracesum.dp_grid(t, kmax, mmax)
    bad = grid.size - np.count_nonzero(np.isfinite(grid))
    if bad:
        raise NonFiniteResult(f"{bad} of {grid.size} trace-sum cells are not "
                              f"finite at kmax={kmax}, mmax={mmax}")
    return grid


def _scan_for_witness(t: BlockMatrix, kmax: int, mmax: int, a: float | None,
                      notes: list[str]):
    """DP-scan one tilt-like matrix; return a confirmed negative cell or the
    grid minimum. Result: (negative_cell | None, min_info dict)."""
    grid = _finite_grid(t, kmax, mmax)
    idx = np.unravel_index(int(np.argmin(grid)), grid.shape)
    min_info = {"k": int(idx[0]), "m": int(idx[1]), "value": float(grid[idx]),
                "a": a}
    for k, m, v in find_negative_cells(grid):
        confirmed, _, note = _confirm_negative(t, k, m, v)
        if confirmed:
            notes.append(f"negative cell at (k={k}, m={m}): {note}")
            return (k, m, a, v), min_info
        print(f"warning: {note}; cell not counted", file=sys.stderr)
        notes.append(f"discarded candidate at (k={k}, m={m}): {note}")
    return None, min_info


def _check_sigma(args) -> tuple[Verdict, dict]:
    raw = _load_json(args.sigma)
    try:
        mdl = CovarianceModel.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad model JSON: {exc}")
    a_grid = _resolve_a_grid(args.a_grid, raw)
    reasons: list[criteria.CriterionReport] = []
    notes: list[str] = []
    payload = {"mode": "sigma", "n1": mdl.n1, "n2": mdl.n2,
               "a_grid": [float(a) for a in a_grid],
               "kmax": args.kmax, "mmax": args.mmax, "notes": notes,
               "scan": []}

    def done(status, cell=None):
        verdict = Verdict(status, tuple(reasons), cell)
        payload["verdict"] = verdict.to_json()
        return verdict, payload

    # 1: a scalar block certifies unconditionally
    if mdl.n1 == 1 or mdl.n2 == 1:
        work = mdl if mdl.n1 == 1 else _swap_model(mdl)
        if mdl.n1 != 1:
            notes.append("blocks swapped for the scalar-block criterion")
        reasons.append(criteria.shanbhag_check(work))
        return done(CERTIFIED)

    # 2: sign-flip balance check on the inverse covariance
    rep = criteria.griffiths_bapat_check(mdl.sigma)
    reasons.append(rep)
    if rep.holds:
        return done(CERTIFIED)

    # 3: signature criterion on the inverse covariance blocks (2+2 only)
    if mdl.n1 == 2 and mdl.n2 == 2:
        rep = criteria.precision_signature_check(mdl)
        reasons.append(rep)
        if rep.holds:
            return done(CERTIFIED)

    # 4: word positivity per tilt parameter; informational, a finite grid
    # cannot speak for all sufficiently large a
    if mdl.n1 == 2 and mdl.n2 == 2:
        for a in a_grid:
            t = model.tilt_matrix(mdl.with_a(a))
            reasons.append(_with_detail(criteria.word_positivity_check(t), a=float(a)))
        notes.append("word positivity is per tilt parameter; it does not certify")

    # 5: dp scan per tilt parameter
    for a in a_grid:
        t = model.tilt_matrix(mdl.with_a(a))
        cell, min_info = _scan_for_witness(t, args.kmax, args.mmax, float(a), notes)
        payload["scan"].append(min_info)
        if cell is not None:
            return done(NOT_ID, cell)
    return done(UNDETERMINED)


def _check_q(args) -> tuple[Verdict, dict]:
    raw = _load_json(args.q)
    t = _block_from_json(raw)
    if args.a_grid:
        print("note: --a-grid is ignored for tilt-like input", file=sys.stderr)
    if not matcore.is_positive_definite(t.full):
        raise InputError("tilt-like matrix must be finite and positive definite")
    reasons: list[criteria.CriterionReport] = []
    notes: list[str] = []
    payload = {"mode": "q", "n1": t.n1, "n2": t.n2,
               "kmax": args.kmax, "mmax": args.mmax, "notes": notes,
               "scan": []}
    lam_top = float(matcore.top_eigenvalue(t.full))
    if lam_top > 1.0 + 1e-12:
        notes.append(f"spectral radius {lam_top:.6g} exceeds 1; "
                     "sums are still well defined")

    def done(status, cell=None):
        verdict = Verdict(status, tuple(reasons), cell)
        payload["verdict"] = verdict.to_json()
        return verdict, payload

    if t.n1 == 1 or t.n2 == 1:
        work = t if t.n1 == 1 else tracesum.swap_blocks(t)
        if t.n1 != 1:
            notes.append("blocks swapped for the scalar-block criterion")
        reasons.append(criteria.scalar_bridge_report(work))
        return done(CERTIFIED)

    if t.n1 == 2 and t.n2 == 2:
        reasons.append(criteria.word_positivity_check(t))
        notes.append("a single tilt-like matrix cannot certify the underlying "
                     "vector; scan decides negativity only")

    cell, min_info = _scan_for_witness(t, args.kmax, args.mmax, None, notes)
    payload["scan"].append(min_info)
    if cell is not None:
        return done(NOT_ID, cell)
    return done(UNDETERMINED)


def _emit(payload: dict, args, human: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        if human:
            print(human)
    elif args.format == "json":
        print(text)
    elif human is not None:
        print(human)
    else:
        print(text)


def _verdict_lines(payload: dict) -> str:
    lines = [f"mode: {payload['mode']} ({payload['n1']}+{payload['n2']} blocks)"]
    for r in payload["verdict"]["reasons"]:
        mark = "holds" if r["holds"] else "fails"
        bits = []
        if "a" in r["detail"]:
            bits.append(f"a={r['detail']['a']:g}")
        if "quantity" in r["detail"]:
            bits.append(f"quantity={r['detail']['quantity']:.3e}")
        suffix = f"  ({', '.join(bits)})" if bits else ""
        lines.append(f"  {r['criterion']:<20} {mark}{suffix}")
    for info in payload["scan"]:
        where = "" if info["a"] is None else f" at a={info['a']:g}"
        lines.append(f"  scan minimum{where}: (k={info['k']}, m={info['m']}) "
                     f"value={info['value']:.6e}")
    for note in payload["notes"]:
        lines.append(f"  note: {note}")
    cell = payload["verdict"].get("negative_cell")
    if cell:
        lines.append(f"  negative cell: k={cell['k']} m={cell['m']} "
                     f"a={cell['a']} value={cell['value']:.6e}")
    lines.append(f"verdict: {payload['verdict']['status']}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    if bool(args.sigma) == bool(args.q):
        raise InputError("exactly one of --sigma or --q is required")
    verdict, payload = _check_sigma(args) if args.sigma else _check_q(args)
    _emit(payload, args, human=_verdict_lines(payload))
    return verdict.exit_code


def cmd_figure1(args) -> int:
    q = model.scale_to_unit_spectral_radius(BlockMatrix.from_array(FIGURE_MATRIX, 2))
    grid = tracesum.dp_grid(q, 60, 60)
    bad = [(k, m, float(grid[k, m]))
           for k in range(61) for m in range(61) if not grid[k, m] > 0]
    if bad:
        # a nonpositive cell here would be a finding; dump everything and
        # refuse to write the artifact
        print("FATAL: nonpositive trace sums in the built-in grid", file=sys.stderr)
        print(f"matrix (row major): {q.full.ravel().tolist()!r}", file=sys.stderr)
        for k, m, v in bad:
            print(f"  cell k={k} m={m} value={v!r}", file=sys.stderr)
        return 1
    rows = [(k, m, float(grid[k, m]), math.log(float(grid[k, m])))
            for k in range(61) for m in range(61)]
    if args.format == "json":
        payload = {"rows": [{"k": k, "m": m, "value": v, "log_value": lv}
                            for k, m, v, lv in rows]}
        _emit(payload, args)
        return 0
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["k", "m", "value", "log_value"])
        for k, m, v, lv in rows:
            writer.writerow([k, m, repr(v), repr(lv)])
    finally:
        if args.output:
            out.close()
    return 0


def _family_selftest() -> tuple[bool, list[dict]]:
    """Known truth table: the tilt family holds exactly when delta <= epsilon.

    Run before any search so a broken criterion cannot quietly filter every
    trial (or none)."""
    rows = []
    ok = True
    for ratio in (0.5, 1.0, 2.0, 4.0):
        ep = 0.2
        de = ratio * ep
        fam = model.materialize(
            model.DeltaEpsilonFamily("tilt", (4.0, 2.5, 3.5, 2.2), de, ep))
        holds = criteria.nonneg_signature_check(fam).holds
        expected = de <= ep
        rows.append({"ratio": ratio, "delta": de, "epsilon": ep,
                     "holds": holds, "expected": expected})
        ok = ok and holds == expected
    return ok, rows


def cmd_search(args) -> int:
    fields = {}
    if args.config:
        raw = _load_json(args.config)
        unknown = set(raw) - {f.name for f in dataclasses.fields(ScanConfig)}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        fields.update(raw)
    for name in ("kmax", "mmax", "seed", "trials"):
        v = getattr(args, name)
        if v is not None:  # flags beat the config file only when given
            fields[name] = v
    if args.output:
        fields["output_path"] = args.output
    if "a_grid" in fields:
        fields["a_grid"] = tuple(float(a) for a in fields["a_grid"])
    cfg = ScanConfig(**fields)

    ok, selftest = _family_selftest()
    if not ok:
        print("FATAL: family self-test failed; refusing to search", file=sys.stderr)
        print(json.dumps(selftest, indent=2, sort_keys=True), file=sys.stderr)
        return 1

    gen = np.random.default_rng(cfg.seed)
    trials = []
    candidates = []
    scanned = 0
    for i in range(cfg.trials):
        t = BlockMatrix.from_array(sampling.random_tilt_like(gen), 2)
        rep = criteria.word_positivity_check(t)
        if rep.holds:
            trials.append({"trial": i, "skipped": "word positivity holds",
                           "quantity": rep.detail["quantity"]})
            continue
        scanned += 1
        grid = _finite_grid(t, cfg.kmax, cfg.mmax)
        idx = np.unravel_index(int(np.argmin(grid)), grid.shape)
        entry = {"trial": i, "quantity": rep.detail["quantity"],
                 "min_cell": {"k": int(idx[0]), "m": int(idx[1]),
                              "value": float(grid[idx])}}
        cells = []
        for k, m, v in find_negative_cells(grid):
            confirmed, enum, _ = _confirm_negative(t, k, m, v)
            # confirmed is None beyond the enumeration cap: dp only there
            cell = {"k": k, "m": m, "dp": v,
                    "confirmed": None if enum is None else confirmed}
            if enum is not None:
                cell["enumeration"] = enum
            cells.append(cell)
        entry["negative_cells"] = len(cells)
        trials.append(entry)
        if cells:
            candidates.append({"trial": i, "matrix": t.to_json(), "cells": cells})
    report = {
        "config": cfg.to_json(),
        "family_selftest": selftest,
        "trials": trials,
        "summary": {"trials": cfg.trials, "scanned": scanned,
                    "skipped": cfg.trials - scanned,
                    "candidates": candidates},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
        print(f"searched {cfg.trials} trials ({scanned} scanned); "
              f"{len(candidates)} candidate(s); report in {cfg.output_path}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    try:
        result = verify.run_suites(args.filter)
    except ValueError as exc:
        raise InputError(str(exc))
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        for suite in result["suites"]:
            mark = "ok" if suite["passed"] else "FAIL"
            print(f"{suite['suite']:<10} {mark}")
    else:
        print(text)
    return 0 if result["passed"] else 1


def cmd_laplace(args) -> int:
    raw = _load_json(args.sigma)
    try:
        mdl = CovarianceModel.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad model JSON: {exc}")
    try:
        p = laplace.DualPoint(args.s1, args.s2)
    except ValueError as exc:
        raise InputError(str(exc))
    seed = 0 if args.seed is None else args.seed
    closed = laplace.laplace_closed(mdl, p)
    try:  # ValueError: a negative nmax or seed, or too few samples
        series = laplace.laplace_series(mdl, p, nmax=args.nmax)
        est, se = laplace.monte_carlo(mdl, p, samples=args.samples, seed=seed)
    except ValueError as exc:
        raise InputError(str(exc))
    payload = {
        "s1": p.s1, "s2": p.s2, "a": mdl.a,
        "closed": closed,
        "series": {"value": series.value, "nmax": series.nmax,
                   "rho": series.rho, "tail_bound": series.tail_bound},
        "monte_carlo": {"estimate": est, "stderr": se,
                        "samples": args.samples, "seed": seed},
    }
    _emit(payload, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (default 0)")
    shared.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the artifact to this path")
    shared.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS, help="artifact format")

    ap = argparse.ArgumentParser(
        prog="infdiv",
        description="Decide (where possible) infinite divisibility of a pair "
                    "of squared Gaussian norms, and reproduce the trace-sum "
                    "experiments.")
    # None so an explicit --seed is distinguishable from the default
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--output", default=None)
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared],
                       help="run the decision pipeline on one input")
    p.add_argument("--sigma", help="covariance model JSON file")
    p.add_argument("--q", help="tilt-like matrix JSON file")
    p.add_argument("--a-grid", dest="a_grid",
                   help="comma separated tilt parameters (sigma mode)")
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--mmax", type=int, default=40)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("figure1", parents=[shared],
                       help="emit the built-in 61x61 grid as CSV")
    p.set_defaults(fn=cmd_figure1)

    p = sub.add_parser("search", parents=[shared],
                       help="randomized negative-cell search")
    p.add_argument("--config", help="JSON file with ScanConfig fields")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", parents=[shared],
                       help="run the internal property suites")
    p.add_argument("--filter", default=None,
                   help="run a single suite by name")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("laplace", parents=[shared],
                       help="closed form, series and Monte Carlo at one point")
    p.add_argument("--sigma", required=True, help="covariance model JSON file")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--nmax", type=int, default=None)
    p.set_defaults(fn=cmd_laplace)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InfdivError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
