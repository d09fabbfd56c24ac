"""Compare two sets of benchmark results.  Reports only; gates nothing.

    python3 bench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records ``run.py`` appends (one JSON object per
run).  For every workload, trace mode and metric present on both sides
it prints each side's median and quartiles, the ratio head/base, and a
verdict:

* ``unresolved``: an end-to-end metric whose run-to-run spread (quartile
  distance over median) exceeds its bound on either side, unless every
  head run beats every base run;
* ``worse``: the head median is worse than the base median by more than
  the bound (per-layer metrics have no bound; their larger spread
  stands in for it);
* ``better``: the head median is better by more than the base's spread
  and the head wins at least nine in ten runs paired by seed;
* ``unchanged``: anything else.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """(workload, trace) -> metric -> [(seed, value), ...] in file order."""
    groups: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        prov = record["provenance"]
        group = groups.setdefault((prov["workload"], prov["trace"]), {})
        for name, value in record["metrics"].items():
            group.setdefault(name, []).append((prov["seed"], value))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def seed_pairs(base: list, head: list) -> list[tuple[float, float]]:
    """(head, base) values of runs with the same seed, the n-th run of a seed with the n-th."""
    by_seed: dict = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in head:
        if by_seed.get(seed):
            pairs.append((value, by_seed[seed].pop(0)))
    return pairs


def verdict(base: list, head: list, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, h = [v for _, v in base], [v for _, v in head]
    mb, mh = statistics.median(b), statistics.median(h)
    change = sign * (mh - mb) / (abs(mb) or 1.0)
    noise = max(spread(b), spread(h))
    every_run_better = all(sign * (x - y) > 0 for x in h for y in b)
    if bound is not None and noise > bound and not every_run_better:
        return "unresolved"
    if change < -(bound if bound is not None else noise):
        return "worse"
    pairs = seed_pairs(base, head)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    won = wins >= WIN_SHARE * len(pairs) if pairs else every_run_better
    if change > spread(b) and won and mh != mb:
        return "better"
    return "unchanged"


def _shown(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound")) for m in declared["end_to_end"] + declared["per_layer"]}
    base, head = load(argv[0]), load(argv[1])
    print(f"{'workload':16} {'trace':5} {'metric':42} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} {'head/base':>9}  verdict")
    for key in sorted(set(base) & set(head)):
        for name in sorted(set(base[key]) & set(head[key])):
            b, h = base[key][name], head[key][name]
            better, bound = rules.get(name, ("lower", None))
            bq, hq = quartiles([v for _, v in b]), quartiles([v for _, v in h])
            ratio = f"{hq[1] / bq[1]:.4f}" if bq[1] else "n/a"
            print(f"{key[0]:16} {key[1]:<5} {name:42} {_shown(bq):34} {_shown(hq):34} "
                  f"{ratio:>9}  {verdict(b, h, better, bound)}  (runs {len(b)}/{len(h)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
