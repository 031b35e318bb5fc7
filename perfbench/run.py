"""Seeded closed-loop benchmark of segre-kit.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One process drives ``segre_kit.cli.main``
in-process with one closed-loop client, one operation at a time.  Spec files
are generated from the seed and written under ``.perfbench/`` before timing
starts; every output is checked (``checks.py``).

``--trace 0`` measures the end-to-end metrics over a fixed number of
operations, S seconds' worth at the workload's nominal rate (at least
``MIN_OPS``, so that ten fall beyond p90); fixing the count makes every
count, failures included, repeat exactly for a seed.  Times are reported at
the host's reference speed (see ``host_kernel``).
``--trace 1`` runs a fixed number of operations twice, a traced pass and
then an untraced one, asserts both give byte-identical outputs, and reports
per-layer means per operation plus the tracing overhead.  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# BLAS pools held to one thread; set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Operations per second of --seconds: about the rate at the reference speed,
# so that a run lasts about --seconds; rounded up to whole cycles of the
# workload's stream (workloads.CYCLE).  The count is fixed, not the time, so
# that attempted and failed operations repeat exactly for a seed.
RATE = {"exact_specs": 70, "mass_tables": 6, "crosscheck_both": 18}
# Operations per pass of a traced run; fixed so every count repeats exactly.
TRACE_OPS = {"exact_specs": 300, "mass_tables": 40, "crosscheck_both": 120}
MIN_OPS = 100          # p90 needs at least ten samples beyond it
WALL_CAP_S = 150.0     # hard stop for the timed loop
SETUP_REPEATS = 5

# The host is shared, and its speed swings by up to 40% over tens of seconds
# with the neighbours' load; the program's times swing with it.  A fixed
# reference loop, the benchmark's own code and independent of the program,
# is timed before every operation, and every time reported is scaled to the
# loop's reference time: t * KERNEL_REF_S / (median loop time within
# WINDOW_S of t).  Each workload's loop spends its time where the workload's
# operations do, so that the two slow down alike: the interpreter for the
# exact engine, sympy and the imports of a set-up, scipy's Halton sequence
# for the mass tables.
KERNEL_REF_S = 1.5e-3
WINDOW_S = 1.0
MIN_WINDOW = 9         # loop samples behind one scale factor, at least


# ---------------------------------------------------------------------------
# driving the program
# ---------------------------------------------------------------------------

def import_program():
    sys.path.insert(0, str(SRC))
    from segre_kit import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"segre_kit imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, op, path):
    """One operation: returns (exit code or exception label, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([op.command, str(path)])
    except Exception as exc:  # counted as a failure, never aborts the run
        code = f"exception:{type(exc).__name__}"
    return code, out.getvalue(), time.perf_counter() - t0


def judge(workload, op, code, text):
    """Outcome label and parsed report: 'ok', 'check' (a wrong output),
    'own_check_failed', an exit code, or an exception label."""
    if code != 0:
        return str(code), None
    try:
        report = json.loads(text)
        problems = checks.CHECKERS[workload](op, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        report, problems = None, [f"malformed report: {exc!r}"]
    wrong = [p for p in problems if not p.startswith(checks.OWN_CHECK_FAILED)]
    for p in wrong[:3]:
        print(f"CHECK FAILED {op.kind}: {p}", file=sys.stderr)
    if wrong:
        return "check", report
    return ("own_check_failed" if problems else "ok"), report


def digest(code, text) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def write_specs(ops, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = directory / f"op{i:05d}.json"
        path.write_text(op.spec_text())
        paths.append(path)
    return paths


def probe_setup(op, path):
    """Seconds for a fresh interpreter to start, import segre_kit and finish
    one operation, lazy imports included, and the reference loop's time in
    that interpreter afterwards; the probe reports the time itself so that
    interpreter teardown is not counted."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), op.command,
           str(path), repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 4 or fields[0] != "done":
        raise SystemExit(f"set-up probe failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}")
    return float(fields[2]), float(fields[3])


def python_loop():
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return acc


def halton_draw():
    from scipy.stats import qmc

    return qmc.Halton(d=2, scramble=True, seed=1).random(4096)


REFERENCE = {"exact_specs": python_loop, "mass_tables": halton_draw,
             "crosscheck_both": python_loop}


def host_kernel(loop=python_loop) -> float:
    """Seconds for one pass of a reference loop."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def host_factors(at, kernel_at, kernel_s):
    """Scale factor to the reference speed for each instant in ``at``:
    KERNEL_REF_S over the median of the loop times taken within WINDOW_S of
    it (``kernel_at`` sorted), widened to the nearest MIN_WINDOW samples
    where that window holds fewer."""
    factors = []
    for t in at:
        lo = bisect.bisect_left(kernel_at, t - WINDOW_S)
        hi = bisect.bisect_right(kernel_at, t + WINDOW_S)
        if hi - lo < MIN_WINDOW:
            mid = bisect.bisect_left(kernel_at, t)
            hi = min(len(kernel_at), max(mid + MIN_WINDOW // 2, MIN_WINDOW))
            lo = max(0, hi - MIN_WINDOW)
        factors.append(KERNEL_REF_S / statistics.median(kernel_s[lo:hi]))
    return factors


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(workload, ops, paths):
    setups = []
    for _ in range(SETUP_REPEATS):
        raw, loop_s = probe_setup(ops[0], paths[0])
        setups.append((raw, KERNEL_REF_S / loop_s))
    cli = import_program()
    invoke(cli, ops[0], paths[0])  # warm-up: lazy imports, first-call costs
    loop = REFERENCE[workload]
    host_kernel(loop)

    raw_latencies, op_at, kernel_at, kernel_s = [], [], [], []
    outcomes, digests = Counter(), []
    wall0 = time.perf_counter()
    for op, path in zip(ops[1:], paths[1:]):
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break
        kernel_at.append(time.perf_counter())
        kernel_s.append(host_kernel(loop))
        start = time.perf_counter()
        code, text, dt = invoke(cli, op, path)
        op_at.append(start + dt / 2)
        raw_latencies.append(dt)
        outcomes[judge(workload, op, code, text)[0]] += 1
        digests.append(digest(code, text))
    factors = host_factors(op_at, kernel_at, kernel_s)
    latencies = [dt * f for dt, f in zip(raw_latencies, factors)]
    busy = sum(latencies)

    if workload == "exact_specs":
        # the report is byte-identical across runs of the same input
        step = max(1, len(digests) // 20)
        for i in range(0, len(digests), step):
            code, text, _dt = invoke(cli, ops[i + 1], paths[i + 1])
            if digest(code, text) != digests[i]:
                outcomes["nondeterministic"] += 1

    attempted = len(latencies)
    ok = outcomes["ok"]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "ops_per_s": (ok / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * deciles[8], "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "setup_s": (statistics.median(raw * f for raw, f in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    beyond = sum(1 for x in latencies if x > deciles[8])
    failed = attempted - ok
    raw_busy = sum(raw_latencies)
    raw_deciles = statistics.quantiles(raw_latencies, n=10)
    notes = [
        f"ops {attempted} ok {ok} busy_s {busy:.3f} (unscaled {raw_busy:.3f})",
        f"host scale factor min {min(factors):.3f} median "
        f"{statistics.median(factors):.3f} max {max(factors):.3f}",
        f"unscaled ops_per_s {ok / raw_busy:.6g} latency_p50_ms "
        f"{1e3 * statistics.median(raw_latencies):.6g} latency_p90_ms "
        f"{1e3 * raw_deciles[8]:.6g} setup_s "
        f"{statistics.median(raw for raw, _f in setups):.6g}",
        f"latency n={attempted}, {beyond} beyond p90",
        f"fail_ratio {failed / attempted:.6f} ratio ({failed}/{attempted}) "
        f"by outcome {json.dumps(dict(sorted((k, v) for k, v in outcomes.items() if k != 'ok')))}",
        f"setup_s samples {[round(raw * f, 4) for raw, f in setups]}",
    ]
    return metrics, attempted, failed, _correct(outcomes), notes


def traced_run(workload, ops, paths):
    from spans import SPAN_NAMES, QMC, RESULTANT, Tracer

    cli = import_program()
    invoke(cli, ops[0], paths[0])  # warm-up, untraced
    todo = list(zip(range(1, len(ops)), ops[1:], paths[1:]))

    # The traced pass runs first, so its counts see every input fresh; the
    # untraced repeat comes a whole pass later, after caches inside
    # dependencies (sympy's) have turned over.
    tracer = Tracer()
    tracer.install()
    try:
        traced, busy_traced = [], 0.0
        for i, op, path in todo:
            tracer.op = i
            code, text, dt = invoke(cli, op, path)
            busy_traced += dt
            traced.append((code, text))
    finally:
        tracer.uninstall()
    untraced, busy_plain = [], 0.0
    for _i, op, path in todo:
        code, text, dt = invoke(cli, op, path)
        busy_plain += dt
        untraced.append(digest(code, text))

    outcomes = Counter()
    terms_out = kept = tried = 0
    for (_i, op, _p), (code, text), plain in zip(todo, traced, untraced):
        label, report = judge(workload, op, code, text)
        outcomes[label] += 1
        if digest(code, text) != plain:
            outcomes["traced_output_differs"] += 1
        results = (report or {}).get("results", {})
        if "Mg" in results:
            terms_out += sum(len(c["terms"]) for c in results["Mg"]["M"])
        if "comparison" in results:
            kept += len(results["comparison"])
            tried += len(op.spec["points"]) * (len(op.spec["variables"]) + 1)

    n = len(todo)
    ok = outcomes["ok"]
    layers = tracer.per_name()
    metrics = {}
    for name in SPAN_NAMES:
        rec = layers[name]
        metrics[f"{name}.calls"] = (rec["calls"] / n, "count/op")
        metrics[f"{name}.self_ms"] = (1e3 * rec["self_s"] / n, "ms/op")
        metrics[f"{name}.errors"] = (rec["errors"] / n, "count/op")
    metrics.update({
        "poly.Polynomial.inits": (tracer.counts["poly.Polynomial.inits"] / n,
                                  "count/op"),
        "scalars.Scalar.inits": (tracer.counts["scalars.Scalar.inits"] / n,
                                 "count/op"),
        "numeric.qmc.draws": (layers[QMC]["calls"] / n, "count/op"),
        "numeric.qmc.points": (tracer.counts[f"{QMC}.points"] / n, "count/op"),
        "numeric.qmc.ms": (1e3 * layers[QMC]["self_s"] / n, "ms/op"),
        "numeric.resultant.calls": (layers[RESULTANT]["calls"] / n, "count/op"),
        "numeric.resultant.ms": (1e3 * layers[RESULTANT]["self_s"] / n,
                                 "ms/op"),
        "cycles.terms_out": (terms_out / n, "count/op"),
        "cli.comparison.kept_ratio": (kept / tried if tried else 0.0, "ratio"),
        "cli.comparison.attempted": (tried / n, "count/op"),
        "trace.overhead_ops_per_s": (ok / busy_traced - ok / busy_plain, "1/s"),
    })
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}.jsonl"
    tracer.write(spans_path)
    notes = [
        f"ops {n} ok {ok} traced_busy_s {busy_traced:.3f} "
        f"untraced_busy_s {busy_plain:.3f}",
        f"traced ops_per_s {ok / busy_traced:.3f} untraced ops_per_s "
        f"{ok / busy_plain:.3f}",
        f"outcomes {json.dumps(dict(sorted(outcomes.items())))}",
        f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, n, n - ok, _correct(outcomes), notes


def _correct(outcomes: Counter) -> bool:
    """Outputs are correct when no produced report failed its check, no run
    differed from another of the same input and nothing raised out of
    ``cli.main``; exit codes 1-4 are failures, not wrong outputs."""
    return not any(outcomes[k] for k in ("check", "nondeterministic",
                                         "traced_output_differs")) \
        and not any(k.startswith("exception:") for k in outcomes)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _versions() -> str:
    parts = [f"python {sys.version.split()[0]}"]
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            parts.append(f"{pkg} {version(pkg)}")
        except PackageNotFoundError:
            parts.append(f"{pkg} missing")
    parts.append(f"nproc {os.cpu_count()}")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segre_kit" / "__init__.py").is_file():
        print(f"no segre_kit source tree at {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        count = TRACE_OPS[args.workload]
    else:
        cycle = workloads.CYCLE[args.workload]
        wanted = max(MIN_OPS, args.seconds * RATE[args.workload])
        count = cycle * math.ceil(wanted / cycle)
    # op 0, the set-up and warm-up operation, comes from a stream of its own
    # so that the measured operations are whole cycles of their stream; it
    # is the workload's leading class whatever the seed
    ops = workloads.take(args.workload, args.seed, 1, stream=":setup") + \
        workloads.take(args.workload, args.seed, count)
    spec_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_specs(ops, spec_dir)
        if args.trace:
            metrics, attempted, failed, correct, notes = traced_run(
                args.workload, ops, paths)
        else:
            metrics, attempted, failed, correct, notes = timed_run(
                args.workload, ops, paths)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env {_versions()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
