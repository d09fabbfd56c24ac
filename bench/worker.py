"""Benchmark worker: the single closed-loop client of one workload.

run.py starts it as a fresh interpreter with the arguments
``WORKLOAD POOL_JSON WORKDIR OUT_JSON SECONDS``.  The worker imports freshopt
from the checkout's ``src/``, turns the harness's scenario pool into
requests (a scenario file per setup for the CLI workloads, library
objects for ``verify``), runs one untimed warm-up request and prints
``ready``.  It then reads one command from stdin:

* ``exit``: stop (a set-up-time measurement only);
* ``go``: send requests for SECONDS, cycling over the pool, each only
  after the previous one has returned, and stop at the first round
  boundary (``workloads.round_size``) after that.  Between requests, every
  ``calibrate.SPACING_S``, run one untimed calibration slice, so the
  harness can scale each latency to reference machine speed;
* ``trace N``: send the first N requests untraced, then the same N with
  the tracer installed.

Responses go to OUT_JSON for the harness to check.  Identical responses
to one pool request are stored once with a count, so memory stays
bounded however long the loop runs.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))
sys.path.insert(1, str(BENCH_DIR))

import freshopt  # noqa: E402
from freshopt import demand, optimizer, oracle, profit  # noqa: E402

import workloads as wl  # noqa: E402


def cli_request(argv: list[str]):
    from freshopt import cli

    def send():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return (code, out.getvalue())
    return send


def verify_request(name: str, setup: dict):
    # Library objects are built once per setup, as a caller holding them would.
    d = demand.make_distribution(setup["family"], **setup["params"])
    m = profit.MarketParams(**setup["market"])
    o = profit.OptionContract(**setup["contract"])
    k = setup["k"]
    if name == "grid":
        def send():
            spec = oracle.default_grid_spec(d, m, k, wl.GRID_STEP)
            grid = oracle.grid_search_plan(d, m, o, k, spec)
            closed = optimizer.optimal_plan(d, m, o, k)
            return (grid.q_spot, grid.q_option, closed.q_spot, closed.q_option)
        return send
    kind = name[len("mc-"):]

    def send():
        plan = optimizer.optimal_plan(d, m, o, k)
        if kind == "retailer":
            analytic = profit.retailer_expected_profit(d, m, o, k, plan).total
        elif kind == "supplier":
            analytic = profit.supplier_expected_profit(d, m, o, plan)
        else:
            analytic = profit.chain_expected_profit(d, m, plan.q_total)
        est = oracle.mc_expected(kind, d, m, o, k, plan, wl.MC_DRAWS, setup["mc_seed"])
        return (plan.q_spot, plan.q_option, analytic, est.mean, est.stderr)
    return send


def build_requests(workload: str, pool: list[dict], workdir: Path) -> list:
    senders = []
    config_paths = {}
    for i, name in wl.request_keys(workload, len(pool)):
        setup = pool[i]
        if workload == "verify":
            senders.append(verify_request(name, setup))
            continue
        if i not in config_paths:
            path = workdir / f"scenario-{i:03d}.json"
            path.write_text(json.dumps(wl.scenario_config(setup)), encoding="utf-8")
            config_paths[i] = str(path)
        senders.append(cli_request(wl.cli_argv(config_paths[i], name, setup)))
    return senders


def send_one(send):
    try:
        return send()
    except Exception as exc:  # an unexpected raise is a failed request, reported, not fatal
        return ("raised", f"{type(exc).__name__}: {exc}")


def record(store: dict, response) -> None:
    store[response] = store.get(response, 0) + 1


def timed_loop(senders: list, seconds: float, round_size: int) -> dict:
    import calibrate

    stores = [{} for _ in senders]
    starts, latencies, slices = [], [], []
    n = len(senders)

    def calibration_slice():
        t0 = time.perf_counter()
        duration = calibrate.slice_s()
        slices.append([t0 - start + duration / 2, duration])
        return t0 + duration

    start = time.perf_counter()
    last_slice = calibration_slice()
    deadline = start + seconds
    i = 0
    while True:
        send = senders[i % n]
        t0 = time.perf_counter()
        response = send_one(send)
        t1 = time.perf_counter()
        starts.append(t0 - start)
        latencies.append(t1 - t0)
        record(stores[i % n], response)
        i += 1
        if t1 >= deadline and i % round_size == 0:
            break
        if t1 - last_slice >= calibrate.SPACING_S:
            last_slice = calibration_slice()
    calibration_slice()
    return {"starts_s": starts, "latencies_s": latencies, "calibration": slices,
            "stores": stores}


def traced_pass(senders: list, count: int, keys: list) -> dict:
    import tracer as tr

    first = senders[:count]
    stores = [{} for _ in first]
    t0 = time.perf_counter()
    for send in first:
        send_one(send)
    untraced_s = time.perf_counter() - t0
    tracer = tr.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        for i, send in enumerate(first):
            tracer.begin_request(keys[i])
            record(stores[i], send_one(send))
            tracer.end_request()
        traced_s = time.perf_counter() - t0
    return {"untraced_s": untraced_s, "traced_s": traced_s, "stores": stores,
            "layers": tracer.totals, "counters": tracer.counters, "nested": tracer.nested_counts(),
            "trace": tracer.export()}


def main() -> int:
    # No argparse here: the CLI workloads must pay for its import inside freshopt.cli.
    workload, pool_path, workdir, out_path, seconds = sys.argv[1:6]

    if not Path(freshopt.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"worker: freshopt imported from {freshopt.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    pool = json.loads(Path(pool_path).read_text(encoding="utf-8"))
    Path(workdir).mkdir(parents=True, exist_ok=True)
    senders = build_requests(workload, pool, Path(workdir))
    send_one(senders[0])
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] == "exit":
        return 0
    keys = wl.request_keys(workload, len(pool))
    if command[0] == "go":
        result = timed_loop(senders, float(seconds), wl.round_size(workload))
    else:
        result = traced_pass(senders, int(command[1]), keys)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["responses"] = [[[list(resp), count] for resp, count in store.items()]
                           for store in result.pop("stores")]
    tmp = Path(out_path + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, out_path)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
