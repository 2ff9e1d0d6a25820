"""Benchmark of the ``awarekit`` command line.

Run from the repository root:

    python3 bench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out bench/results/BENCH_baseline.json

One op is one ``awarekit.cli.main(argv)`` call, made in this process and
thread with stdout captured (a closed loop with one client); its exit code
and ``--format data`` verdict are checked against the known answer the
workload built with it.  Inputs come from ``--seed``; the workloads are in
``workloads.py``.  Set-up runs ``SETUP_REPEATS`` times, each in a fresh
process that imports the program and writes the inputs.

``--trace 0`` prints the end-to-end metrics.  The run passes over the
workload's ops again and again until ``--seconds`` have passed, and every op
is measured by its best latency in the run (``summarize``): other load on a
shared host slows whole stretches of a run by up to half again, and an op's
fastest run is the one it slowed least.

- ``ops_per_s``: checked ops per second of their best latencies;
- ``op_p50_ms`` and ``op_p90_ms``: nearest-rank percentiles of the best
  latencies; the info line gives their sample count and how often each op
  ran;
- ``peak_rss_mb``: ``ru_maxrss`` of this process (set-up runs elsewhere);
- ``setup_s``: the median set-up time, from process start to inputs written.

Failed ops are counted in the result's ``failed`` and printed as
``failed_op_share``.  ``--trace 1`` runs the ops untraced for half the time,
replays the same ops with every layer traced (``layertrace.py``), times the
baseline grid (``grid.py``) and prints the per-layer metrics.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload of
BENCHMARK.json both ways, each in its own process, and writes the results
with the revision and platform to ``--out``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import grid
import layertrace
import workloads

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "awarekit"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def import_program():
    """Import ``awarekit.cli`` from this checkout's ``src``, and nowhere else."""
    package = SRC / "awarekit"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no awarekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from awarekit import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: awarekit was imported from {cli.__file__}, not {package}")
    return cli


# -- set-up ------------------------------------------------------------------


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Set-up as a fresh process runs it: import, inputs, files, transforms."""
    import_program()
    ops = workloads.BUILDERS[workload](seed, workdir)
    elapsed = time.perf_counter() - STARTED
    (workdir / "ops.json").write_text(json.dumps({"setup_s": elapsed, "ops": ops}))


def _digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.name != "ops.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[float], list]:
    """Run set-up ``SETUP_REPEATS`` times; return the times and the ops.
    Every repeat must write the same files and ops."""
    times, seen = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-into", str(workdir)],
                       check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        data = json.loads((workdir / "ops.json").read_text())
        times.append(data["setup_s"])
        seen.add((_digest(workdir), json.dumps(data["ops"])))
    if len(seen) != 1:
        sys.exit(f"error: set-up of {workload} is not deterministic for seed {seed}")
    return times, data["ops"]


# -- ops ---------------------------------------------------------------------


def verdict_ok(op: dict, code: int, stdout: str) -> bool:
    """Exit code and reported verdict match the op's known answer."""
    if code != op["exit"]:
        return False
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False
    if code == 0:
        return report.get("passed") is True
    laws = {v.get("law") for v in report.get("violations", [])}
    return report.get("passed") is False and op["law"] in laws


def execute(main, op: dict) -> tuple[float, bool]:
    """Run one op; return its latency and whether its answer was right."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(op["argv"])
    except Exception:
        # An exception is a failed op; the run goes on and reports it.
        print(f"op {op['argv']} raised:", file=sys.stderr)
        traceback.print_exc()
        return time.perf_counter() - start, False
    latency = time.perf_counter() - start
    return latency, verdict_ok(op, code, out.getvalue())


def measure(main, ops: list, seconds: float, max_ops: int | None, tracer=None):
    """Pass over ``ops`` again and again until ``seconds`` have passed and
    every op has run (or run exactly ``max_ops`` ops); return each pass's op
    latencies and wall time, the number of failed ops and the ops run."""
    runs, failed, ran = [], 0, []
    start = time.perf_counter()

    def done() -> bool:
        return len(ran) == max_ops or (
            len(ran) >= len(ops) and time.perf_counter() - start >= seconds)

    while True:
        pass_start, latencies = time.perf_counter(), []
        for op in ops:
            latency, ok = execute(main, op)
            if tracer is not None:
                tracer.end_op()
            latencies.append(latency)
            failed += not ok
            ran.append(op)
            if done():
                break
        runs.append((latencies, time.perf_counter() - pass_start))
        if done():
            return runs, failed, ran


def summarize(runs: list) -> tuple[list[float], list[int]]:
    """Each op's best latency over the passes of ``measure``, and how many
    passes ran it (the last pass may stop early)."""
    best = [min(lat[j] for lat, _ in runs if j < len(lat)) for j in range(len(runs[0][0]))]
    passes = [sum(j < len(lat) for lat, _ in runs) for j in range(len(best))]
    return best, passes


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


# -- runs --------------------------------------------------------------------


def run_workload(args) -> dict:
    main = import_program().main
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, ops = set_up(args.workload, args.seed, workdir)
        seconds = args.seconds / 2 if args.trace else args.seconds
        runs, failed, ran = measure(main, ops, seconds, args.ops)
        attempted = len(ran)
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "ops": attempted,
            "setup_s": setup_times,
            "pass_latencies_ms": [[round(x * 1000, 3) for x in lat] for lat, _ in runs],
            "pass_walls_s": [wall for _, wall in runs],
        }
        if not args.trace:
            best, passes = summarize(runs)
            info.update(samples=len(best), op_passes=[min(passes), max(passes)])
            metrics = {
                "ops_per_s": (len(best) / sum(best), "ops/s"),
                "op_p50_ms": (statistics.median(best) * 1000, "ms"),
                "op_p90_ms": (percentile(best, 90) * 1000, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
        else:
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                traced_runs, traced_failed, _ = measure(main, ran, 0, len(ran), tracer)
            finally:
                tracer.uninstall()
            failed += traced_failed
            attempted += len(ran)
            untraced_s = sum(wall for _, wall in runs)
            traced_s = sum(wall for _, wall in traced_runs)
            metrics = tracer.metrics()
            traced_latency_s = sum(sum(lat) for lat, _ in traced_runs)
            metrics["trace.op_ms"] = (traced_latency_s * 1000 / len(ran), "ms/op")
            metrics["trace.overhead_pct"] = ((1 - untraced_s / traced_s) * 100, "%")
            metrics.update((name, (value, "ms")) for name, value in grid.time_grid(args.seed).items())
            info["module_self_share"] = module_shares(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update(failed=failed, failed_op_share=failed / attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_op_share = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print("# info " + json.dumps(info, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def module_shares(metrics: dict) -> dict[str, float]:
    """Each module's traced self time as a share of the traced op time."""
    op_ms = metrics["trace.op_ms"][0]
    shares: dict[str, float] = {}
    for name in layertrace.LAYERS:
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + metrics[f"{name}.self_ms"][0] / op_ms
    shares["outside traced layers"] = 1 - sum(shares.values())
    return {module: round(share, 4) for module, share in shares.items()}


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"revision": git_revision(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
           "seconds": args.seconds, "layer_map": layertrace.MOVES, "workloads": {}}
    for workload in spec["workloads"]:
        entry = {"why": workload["why"]}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True,
                                  timeout=CHILD_TIMEOUT_S + 10 * args.seconds)
            sys.stdout.write(f"## {workload['name']} trace={trace}\n{proc.stdout}")
            lines = proc.stdout.splitlines()
            info = json.loads(next(line for line in lines if line.startswith("# info "))[7:])
            result = json.loads(lines[-1])
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry["traced_run" if trace else "run"] = info
            entry["correct"] = entry.get("correct", True) and result["correct"]
        out["workloads"][workload["name"]] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead")
    parser.add_argument("--out", help="results file for --workload all")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_into:
        write_inputs(args.workload, args.seed, Path(args.setup_into))
    elif args.workload == "all":
        if not args.out:
            parser.error("--workload all needs --out")
        run_all(args)
    else:
        print(json.dumps(run_workload(args)))


if __name__ == "__main__":
    main()
