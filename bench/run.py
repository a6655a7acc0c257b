"""The infdiv benchmark: seeded CLI workloads, timed in process.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src; nothing is
installed. One process, one client, closed loop: each op is one call of
`infdiv.cli.main(argv)`, started after the previous one returned, with stdout
and stderr captured. BLAS threads are pinned to 1 before numpy loads.

--trace 0 measures the end-to-end metrics untraced: set-up time (median of
several fresh interpreters importing infdiv.cli and loading the inputs), op
throughput and latency percentiles over `--seconds` of op time, and peak
resident memory. --trace 1 runs ops untraced for half of `--seconds`, then
the same ops again with every layer's public functions wrapped (spans.py),
and reports per-layer calls, self time and work counters, plus the tracing
overhead as the traced-to-untraced throughput ratio.

Every op's output is checked against an independent numpy reference
(refcheck.py); an op that raises or fails a check counts as failed. The last
stdout line is the result JSON; the line before it holds provenance, output
digests, sample counts and any failures, which are also written with the
spans under .bench_out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
WARMUP_OPS = 2
DIGEST_OPS = 32
# every run must end well inside three minutes, whatever the program's speed
WALL_CAP_S = 150.0

# prints the set-up seconds, then the seconds the import probe takes after it
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import infdiv.cli
with open(sys.argv[2]) as fh:
    ops = json.load(fh)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import importlib, calib
t2 = time.perf_counter()
for name in calib.IMPORT_PROBE:
    importlib.import_module(name)
print(repr(t1 - t0), repr(time.perf_counter() - t2))
"""

# functions whose calls and self time are reported; each should move the
# end-to-end metric named in the workloads' design (see CHANGES.md)
REPORTED = (
    "sampling.random_tilt_like", "matcore.eigen_sym", "matcore.eigen2",
    "matcore.cholesky", "matcore.inverse_spd", "matcore.is_positive_definite",
    "model.tilt_matrix", "model.invert_blocks",
    "criteria.word_positivity_check", "criteria.canonical_rotation",
    "criteria.griffiths_bapat_check", "criteria.precision_signature_check",
    "criteria.nonneg_signature_check", "criteria.shanbhag_check",
    "tracesum.dp_grid", "tracesum.trace_sum_enum",
    "laplace.monte_carlo", "laplace.laplace_series", "laplace.laplace_closed",
    "cli.main", "cli.build_parser", "cli.cmd_check", "cli.cmd_search",
    "cli.cmd_laplace", "cli.find_negative_cells",
)
COUNTERS = (
    ("tracesum.dp_grid.cells", "count", "lower"),
    ("tracesum.dp_grid.mflop_computed", "Mflop", "lower"),
    ("tracesum.trace_sum_enum.terms", "count", "lower"),
    ("criteria.griffiths_bapat_check.sign_vectors", "count", "lower"),
    ("cli.find_negative_cells.candidates", "count", "lower"),
    ("laplace.laplace_series.terms", "count", "lower"),
    ("laplace.monte_carlo.samples", "count", "lower"),
)
# (name, unit, better) of the per-layer metrics, in output order
PER_LAYER = (
    [(f"{f}.{kind}", unit, "lower") for f in REPORTED
     for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in spans.LAYERS]
    + list(COUNTERS)
    + [("criteria.griffiths_bapat_check.holds_frac", "ratio", "higher"),
       ("criteria.word_positivity_check.holds_frac", "ratio", "lower"),
       ("cli.cmd_search.scanned_per_s", "1/s", "higher"),
       ("trace.throughput_ratio", "ratio", "higher"),
       ("trace.ops", "count", "higher"),
       ("fail_frac", "ratio", "lower")]
)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class Pass:
    """One closed-loop pass over the ops: latencies, failures, digest.

    latencies are raw seconds; kernel_times the calibration kernel's timings
    between ops (calib.py); scaled the ops in calibrated seconds."""

    def __init__(self):
        self.latencies: list = []
        self.kernel_times: list = []
        self.scaled: list = []
        self.failures: list = []
        self.scanned = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        raised = None
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        rc, raised = None, exc
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, raised, out.getvalue(), err.getvalue()


def run_pass(cli, ops, kernel: str, seconds: float, deadline: float, limit=None,
             tracer=None) -> Pass:
    """Run ops in order (cycling) until `seconds` of op time, or `limit`
    ops, have been spent; check each op after it has been timed."""
    p = Pass()
    i = 0
    p.kernel_times.append(calib.kernel_seconds(kernel))
    while ((limit is None and p.busy < seconds) or (limit is not None and i < limit)) \
            and time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.current_op = i
        dt, rc, raised, out, err = run_op(cli, op)
        p.kernel_times.append(calib.kernel_seconds(kernel))
        p.latencies.append(dt)
        if raised is not None:
            problems, scanned = [f"raised {type(raised).__name__}: {raised}"], 0
        else:
            problems, scanned = refcheck.check_op(op, rc, out)
        p.scanned += scanned
        if problems:
            p.failures.append({"op": i, "argv": op.argv, "kind": op.kind,
                               "input": _input_of(op), "problems": problems,
                               "stderr": err[-2000:]})
        if p.digested < DIGEST_OPS:
            p.digest.update(json.dumps([i, rc, out]).encode())
            p.digested += 1
        i += 1
    p.scaled = calib.calibrated(p.latencies, p.kernel_times, kernel)
    return p


def _input_of(op):
    path = op.expect.get("path")
    if path is None:
        return None
    with open(path) as fh:
        return json.load(fh)


def measure_setup(manifest: Path):
    """Seconds from a fresh interpreter's first statement to ops loaded:
    (raw, calibrated by the import probe run in the same child)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(manifest),
                              str(Path(__file__).resolve().parent)],
                             cwd=ROOT, env=os.environ.copy(), capture_output=True,
                             text=True, timeout=60, check=True)
        setup, cal = (float(x) for x in res.stdout.split())
        raw.append(setup)
        scaled.append(setup * calib.NOMINAL_S["imports"] / cal)
    return raw, scaled


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "infdiv").glob("*.py")))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_scaled, p: Pass) -> dict:
    lat_ms = [x * 1e3 for x in p.scaled]
    values = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(p.scaled) / sum(p.scaled),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    st = tracer.self_times()
    c = tracer.counters
    values = {}
    for f in REPORTED:
        calls, secs = st.get(f, (0, 0.0))
        values[f"{f}.calls"] = calls
        values[f"{f}.self_ms"] = secs * 1e3
    for layer in spans.LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * sum(
            secs for name, (_, secs) in st.items() if name.split(".")[0] == layer)
    for name, _, _ in COUNTERS:
        values[name] = c.get(name, 0)
    for f in ("criteria.griffiths_bapat_check", "criteria.word_positivity_check"):
        calls = st.get(f, (0, 0.0))[0]
        values[f"{f}.holds_frac"] = c.get(f"{f}.holds", 0) / calls if calls else 0.0
    values["cli.cmd_search.scanned_per_s"] = untraced.scanned / sum(untraced.scaled)
    values["trace.throughput_ratio"] = sum(untraced.scaled) / sum(traced.scaled)
    values["trace.ops"] = len(traced.latencies)
    attempted = len(untraced.latencies) + len(traced.latencies)
    values["fail_frac"] = (len(untraced.failures) + len(traced.failures)) / attempted
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="infdiv benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "infdiv" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WALL_CAP_S
    sys.path.insert(0, str(SRC))
    import infdiv
    import infdiv.cli as cli
    if Path(infdiv.__file__).resolve().parent != SRC / "infdiv":
        print(f"error: imported infdiv from {infdiv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.generate(args.workload, args.seed, str(workdir))
        manifest = workdir / "ops.json"
        manifest.write_text(json.dumps([op.to_json() for op in ops]))
        setup_raw, setup_scaled = measure_setup(manifest) if args.trace == 0 else ([], [])
        kernel = workloads.CALIBRATION[args.workload]
        for op in ops[:WARMUP_OPS]:
            run_op(cli, op)
        gc.collect()
        if args.trace == 0:
            passes = [run_pass(cli, ops, kernel, args.seconds, deadline)]
            metrics = end_to_end(setup_scaled, passes[0])
        else:
            untraced = run_pass(cli, ops, kernel, args.seconds / 2, deadline)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, ops, kernel, 0.0, deadline,
                                  limit=len(untraced.latencies), tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
            metrics = per_layer(tracer, untraced, traced)
            tracer.write(str(OUT / f"spans-{args.workload}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    info = {
        "workload": args.workload,
        "argv_template": workloads.TEMPLATES[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_line_count(),
        "calibration": kernel,
        "ops_per_pass": [len(p.latencies) for p in passes],
        "raw_op_ms_p50": [statistics.median(p.latencies) * 1e3 for p in passes],
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "output_sha256": passes[0].digest.hexdigest(),
        "output_sha256_ops": passes[0].digested,
        "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    info["failures"] = info["failures"][:5]  # the full list is in the file
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
