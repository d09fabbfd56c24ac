"""freshopt benchmark: one closed-loop client per workload, checked answers.

    python3 bench/run.py --workload cli-closed-form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The harness draws the workload's
scenario pool from ``--seed``, starts fresh worker interpreters
(``bench/worker.py``) to time set-up, lets the last one run the closed
loop, checks every response against ``bench/reference.py`` and prints
one line per metric, then the result as one JSON line.

``--trace 0`` measures the end-to-end metrics.  Their timings are scaled
to reference machine speed with calibration slices timed beside them
(``bench/calibrate.py``); the raw wall-clock figures are printed too and
kept in the record.  ``--trace 1`` instead
sends a fixed number of requests twice, untraced and traced, so exact
counts repeat from run to run, and adds the import layer: parsed
``python -X importtime`` output and cold ``python -m freshopt.cli``
starts.  Every run's full record, with provenance, is appended to
``.bench_run/results.jsonl`` (``--results``); ``bench/compare.py``
compares two such files.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import check  # noqa: E402
import scenarios  # noqa: E402
import workloads as wl  # noqa: E402

# Setups per pool.  The loop cycles over the pool; a pool larger than one
# run gets through is never repeated.
POOL_SIZE = {"cli-closed-form": 128, "cli-truncnorm": 64, "verify": 48}
# Worker starts per run; setup_s is their median.
SETUP_STARTS = 5
# Calibration slices timed before and again after each worker start;
# the mean of all of them scales that start.
SETUP_SLICES = 9
# Percentile behind latency_tail_ms: the highest of p90, p95, p99 and
# p99.9 with at least ten samples beyond it at the request count of a
# 30-second run (about 5300, 380 and 170 requests on the machine where
# the benchmark was defined).
TAIL_PERCENTILE = {"cli-closed-form": 99.0, "cli-truncnorm": 95.0, "verify": 90.0}
# Requests in a traced run: whole setups, the same on every run.
TRACE_REQUESTS = {"cli-closed-form": 16 * 7, "cli-truncnorm": 4 * 7, "verify": 3 * 4}
IMPORT_REPEATS = 3
IMPORT_MODULES = ("freshopt", "numpy", "scipy.special", "scipy.integrate", "scipy.optimize")
READY_TIMEOUT_S = 60.0
LIMITS = ("no CPU pinning", "no page-cache dropping", "shared machine: other tenants' load is not controlled",
          "one client process; harness and worker share the same cores",
          "timings scaled to reference speed by calibration slices (calibrate.py); "
          "raw wall clock in raw_wall_clock")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Worker:
    """One worker interpreter, from spawn until it reports ready."""

    def __init__(self, workload: str, pool_path: Path, workdir: Path, out_path: Path, seconds: int):
        self.out_path = out_path
        slices = [calibrate.slice_s() for _ in range(SETUP_SLICES)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(pool_path),
             str(workdir), str(out_path), str(seconds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
        try:
            self._expect("ready", READY_TIMEOUT_S)
        except BenchError:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        slices += [calibrate.slice_s() for _ in range(SETUP_SLICES)]
        self.slice_s = statistics.fmean(slices)

    def _expect(self, word: str, timeout: float) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().strip() if ready else "<timeout>"
        if line != word:
            raise BenchError(f"worker said {line!r} instead of {word!r} (exit code {self.proc.poll()})")

    def command(self, text: str, timeout: float) -> dict | None:
        """Send one command; for anything but "exit", wait for and load the responses."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text == "exit":
            self.proc.wait(timeout=timeout)
            return None
        self._expect("done", timeout)
        self.proc.wait(timeout=timeout)
        return json.loads(self.out_path.read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def timing_metrics(workload: str, setup_times: list[float], latencies_s: list[float]) -> dict:
    latencies_ms = [1e3 * s for s in latencies_s]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": len(latencies_ms) / sum(latencies_s),
        "latency_p50_ms": percentile(latencies_ms, 50.0),
        "latency_tail_ms": percentile(latencies_ms, TAIL_PERCENTILE[workload]),
    }


def end_to_end_metrics(workload: str, setups: list[tuple[float, float]], result: dict) -> dict:
    """Timings at reference machine speed (see calibrate.py), and peak memory."""
    scaled = calibrate.scale_requests(result["starts_s"], result["latencies_s"],
                                      result["calibration"])
    metrics = timing_metrics(workload, [calibrate.scale(s, cal) for s, cal in setups], scaled)
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return metrics


def per_layer_metrics(result: dict) -> dict:
    layers, counters, nested = result["layers"], result["counters"], result["nested"]

    def calls(name):
        return layers.get(name, [0, 0.0])[0]

    def self_ms(*names):
        return 1e3 * sum(layers.get(n, [0, 0.0])[1] for n in names)

    metrics = {}
    for fn in ("cdf", "quantile", "cdf_integral"):
        metrics[f"demand.{fn}.calls"] = calls(f"demand.{fn}")
        metrics[f"demand.{fn}.self_ms"] = self_ms(f"demand.{fn}")
    metrics["demand.cdf_integral.points"] = counters.get("demand.cdf_integral.points", 0)
    metrics["demand.sample.draws"] = counters.get("demand.sample.draws", 0)
    metrics["demand.sample.self_ms"] = self_ms("demand.sample")
    metrics["profit.realized.draws"] = counters.get("profit.realized.draws", 0)
    metrics["profit.realized.self_ms"] = self_ms(*(n for n in layers if n.startswith("profit.realized_")))
    for fn in ("mc_expected", "grid_search_plan"):
        metrics[f"oracle.{fn}.calls"] = calls(f"oracle.{fn}")
        metrics[f"oracle.{fn}.self_ms"] = self_ms(f"oracle.{fn}")
    metrics["oracle.grid_search_plan.cells"] = counters.get("oracle.grid_search_plan.cells", 0)
    for fn in ("optimal_plan", "check_feasibility", "coordinating_premium",
               "coordinating_exercise_price"):
        metrics[f"optimizer.{fn}.calls"] = calls(f"optimizer.{fn}")
        metrics[f"optimizer.{fn}.self_ms"] = self_ms(f"optimizer.{fn}")
    solves = calls("optimizer.coordinating_exercise_price")
    quantiles = nested.get("optimizer.coordinating_exercise_price>demand.quantile", 0)
    metrics["optimizer.quantiles_per_exercise_solve"] = quantiles / solves if solves else 0.0
    for party in ("retailer", "supplier", "chain"):
        metrics[f"profit.{party}_expected_profit.calls"] = calls(f"profit.{party}_expected_profit")
        metrics[f"profit.{party}_expected_profit.self_ms"] = self_ms(f"profit.{party}_expected_profit")
    metrics["sweep.run_sweep.calls"] = calls("sweep.run_sweep")
    metrics["sweep.run_sweep.self_ms"] = self_ms("sweep.run_sweep")
    rows = counters.get("sweep.rows", 0)
    metrics["sweep.rows"] = rows
    metrics["sweep.feasible_ratio"] = counters.get("sweep.feasible_rows", 0) / rows if rows else 0.0
    metrics["sweep.write_csv.self_ms"] = self_ms("sweep.write_csv")
    metrics["sweep.monotonicity_report.self_ms"] = self_ms("sweep.monotonicity_report")
    for name in ("cli.main", "config.load_config"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_ms"] = self_ms(name)
    metrics["trace.overhead_ratio"] = result["traced_s"] / result["untraced_s"]
    return metrics


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_layer() -> dict:
    """Cumulative import times of freshopt and the libraries it loads, from fresh interpreters."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    submodules = set()
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import freshopt"],
                              env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import freshopt failed: {proc.stderr.strip().splitlines()[-1:]}")
        cumulative = {}
        for match in _IMPORTTIME.finditer(proc.stderr):
            cumulative[match.group(4)] = int(match.group(2)) / 1e3
        for name in IMPORT_MODULES:
            samples[name].append(cumulative.get(name, 0.0))
        submodules = {m.split(".")[1] for m in cumulative
                      if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}
    metrics = {f"import.{name}_ms": statistics.median(v) for name, v in samples.items()}
    metrics["import.scipy_submodules"] = len(submodules)
    cold = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "freshopt.cli", "optimize"], env=worker_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        cold.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"cold CLI start failed with exit code {proc.returncode}")
    metrics["cli.cold_s"] = statistics.median(cold)
    return metrics


def provenance(args, pool_size: int, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(), "pool_size": pool_size,
        "clients": 1, "loop": "closed", "limits": list(LIMITS), **extra,
    }


def run(args) -> dict:
    if not (ROOT / "src" / "freshopt" / "__init__.py").is_file():
        raise BenchError(f"no freshopt sources under {ROOT / 'src'}")
    workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = scenarios.make_pool(args.workload, args.seed, POOL_SIZE[args.workload])
    pool_path = workdir / "pool.json"
    pool_path.write_text(json.dumps(pool), encoding="utf-8")
    out_path = workdir / "responses.json"
    keys = wl.request_keys(args.workload, len(pool))

    starts = 1 if args.trace else SETUP_STARTS
    setups = []
    worker = None
    try:
        for i in range(starts):
            worker = Worker(args.workload, pool_path, workdir / "configs", out_path, args.seconds)
            setups.append((worker.setup_s, worker.slice_s))
            if i + 1 < starts:
                worker.command("exit", 60)
        if args.trace:
            count = TRACE_REQUESTS[args.workload]
            result = worker.command(f"trace {count}", 170)
            keys = keys[:count]
        else:
            result = worker.command("go", args.seconds + 120)
    finally:
        if worker is not None:
            worker.stop()

    attempted, failed, reasons = check.check_all(args.workload, pool, keys, result["responses"])
    extra = {"setup_starts": starts, "requests": attempted}
    if args.trace:
        metrics = per_layer_metrics(result)
        metrics.update(import_layer())
        extra["traced_requests"] = TRACE_REQUESTS[args.workload]
        (workdir / "trace.json").write_text(json.dumps(result["trace"]), encoding="utf-8")
    else:
        metrics = end_to_end_metrics(args.workload, setups, result)
        raw = timing_metrics(args.workload, [s for s, _ in setups], result["latencies_s"])
        slices = [duration for _, duration in result["calibration"]]
        q = TAIL_PERCENTILE[args.workload]
        extra.update(tail_percentile=q,
                     samples_beyond_tail=int(sum(1 for s in result["latencies_s"]
                                                 if 1e3 * s > raw["latency_tail_ms"])),
                     setup_times_s=[s for s, _ in setups],
                     setup_slices_s=[cal for _, cal in setups],
                     calibration_slices=len(slices),
                     calibration_slice_median_s=statistics.median(slices),
                     reference_slice_s=calibrate.REFERENCE_SLICE_S,
                     raw_wall_clock=raw)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "error_ratio": failed / attempted, "metrics": metrics, "failures": reasons,
            "provenance": provenance(args, len(pool), extra)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_run" / "results.jsonl"),
                        help="JSON-lines file every run's full record is appended to")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(record["metrics"]):
        print(f"benchmark failed: metrics {sorted(set(units) ^ set(record['metrics']))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for reason in record["failures"][:20]:
        print(f"failed: {reason}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    for name, value in record["provenance"].get("raw_wall_clock", {}).items():
        print(f"raw wall clock, not scaled: {name} = {value:.6g} {units[name]}")
    print(f"error_ratio = {record['error_ratio']:.6g} ({record['failed']} failed "
          f"of {record['attempted']} attempted)")
    metrics = {}
    for name, value in record["metrics"].items():
        unit = units[name]
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
