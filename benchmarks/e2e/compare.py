"""Spread of one set of benchmark runs, or a change against a base set.

    python3 benchmarks/e2e/compare.py DIR            # spread of one set
    python3 benchmarks/e2e/compare.py BASE CHANGE    # change against base

Each directory holds result documents written by ``bench.py --out``, one
run per (workload, seed).  For one set the script prints, per workload and
end-to-end metric, the run count, the median, the quartiles, the spread
(the distance between the quartiles, ``statistics.quantiles(n=4)``, as a
share of the median) and the bound the set gives by the rule below.  Per
metric it then prints the bound to declare: the largest over the
workloads, capped at ``MAX_BOUND``.  ``BENCHMARK.json`` takes, per metric,
the larger of the values its calibration sets give (see README.md).

Bound rule: ``max(5 %, 2 × (max − min) / median)`` over the set's runs,
and at least the absolute floor: 0.05 s for a time, 5 % for
``peak_rss_mb`` and 1 % for ``cache_mb``.

For two sets it pairs runs by (workload, seed) and gives each metric a
verdict.  ``gain``: the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base's quartile
distance.  ``unresolved``: the base spread is wider than the bound or than
``STEADY``, and not every change run beats every base run.
``regression``: the change's median is worse than the base's by more than
the bound.  Otherwise ``no regression``.  The exit code is 1 when any
metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]

#: Absolute regression floor of a time metric, in seconds.
FLOOR_S = 0.05
#: Regression floors of the memory metrics, as shares of the median.
FLOOR_SHARE = {"peak_rss_mb": 0.05, "cache_mb": 0.01}
#: The largest bound the benchmark contract allows.
MAX_BOUND = 0.25
#: A metric whose spread in a set exceeds this is too unsteady for a
#: comparison of two sets to call it unchanged.
STEADY = 0.10


def load(directory: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the directory's results."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("trace"):
            continue
        for result in document["results"]:
            for metric, value in result["metrics"].items():
                values.setdefault((result["workload"], metric), {})[result["seed"]] = value
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    middle = median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle


def derived_bound(metric: str, values: list[float]) -> float:
    """The regression bound one set of runs gives ``metric`` (uncapped)."""
    middle = median(values)
    relative = max(0.05, 2 * (max(values) - min(values)) / middle)
    floor = FLOOR_S / middle if metric.endswith("_s") else FLOOR_SHARE.get(metric, 0.0)
    return max(relative, floor)


def verdict(base: dict[int, float], change: dict[int, float], bound: float, lower: bool) -> str:
    sign = 1.0 if lower else -1.0
    base_median, q1, q3, base_spread = spread(list(base.values()))
    change_median = median(change.values())
    pairs = [seed for seed in base if seed in change]
    wins = sum(sign * (change[s] - base[s]) < 0 for s in pairs)
    better = sign * (change_median - base_median) < 0
    if pairs and wins >= 0.9 * len(pairs) and better and abs(change_median - base_median) > q3 - q1:
        return "gain"
    if base_spread > min(bound, STEADY) and not all(
        sign * (c - b) < 0 for c in change.values() for b in base.values()
    ):
        return "unresolved"
    if sign * (change_median - base_median) > bound * base_median:
        return "regression"
    return "no regression"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    metrics = {m["name"]: m for m in declared}
    base = load(argv[0])
    if len(argv) == 1:
        print(f"{'workload':18} {'metric':12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"spread derived")
        needed: dict[str, float] = {}
        for (workload, metric), by_seed in sorted(base.items()):
            values = list(by_seed.values())
            middle, q1, q3, share = spread(values)
            bound = derived_bound(metric, values)
            needed[metric] = max(needed.get(metric, 0.0), bound)
            flag = "  unsteady" if share > STEADY else ""
            print(f"{workload:18} {metric:12} {len(values):3d} {middle:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {share:6.1%} {bound:7.1%}{flag}")
        print()
        for metric in metrics:
            if metric in needed:
                print(f"bound {metric:12} {min(needed[metric], MAX_BOUND):5.2f} "
                      f"(declared {metrics[metric]['bound']:.2f})")
        return 0
    change = load(argv[1])
    regressed = False
    print(f"{'workload':18} {'metric':12} {'base':>10} {'change':>10} {'delta':>7}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        declared_metric = metrics[metric]
        outcome = verdict(base[key], change[key], declared_metric["bound"],
                          declared_metric["better"] == "lower")
        regressed |= outcome == "regression"
        base_median, change_median = median(base[key].values()), median(change[key].values())
        print(f"{workload:18} {metric:12} {base_median:10.4g} {change_median:10.4g} "
              f"{change_median / base_median - 1:+7.1%}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
