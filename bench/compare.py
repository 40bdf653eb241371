"""Compare two recorded result sets metric by metric against BENCHMARK.json bounds.

Each set is a JSON-lines file written by ``run.py --record``. For every
workload and end-to-end metric the table gives each side's median and
quartiles, the ratio of the medians (after / before) and a verdict:

* ``worse``      -- the after median is worse than the before median by more
                    than the metric's bound;
* ``better``     -- the after median is better by more than the before side's
                    quartile distance and after wins at least nine tenths of
                    the seed-matched pairs (all pairs when no seed matches);
* ``unresolved`` -- either side's quartile distance exceeds the bound as a
                    share of its median, unless every after run beats every
                    before run;
* ``within``     -- none of the above.

Metrics recorded without a bound (``unbounded`` in a record) get the same
figures and the verdict ``no bound``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: [record, ...]} of the untraced records in a file."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record.get("trace") == 0:
                    runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, pairs, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0    # sign * change > 0 means after is better
    q1a, meda, q3a = quartiles(before)
    q1b, medb, q3b = quartiles(after)
    change = sign * (medb - meda)
    if (q3a - q1a) > bound * abs(meda) or (q3b - q1b) > bound * abs(medb):
        all_better = min(sign * v for v in after) > max(sign * v for v in before)
        return "better" if all_better else "unresolved"
    if change < -bound * abs(meda):
        return "worse"
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if change > (q3a - q1a) and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


def _values(runs, name) -> list[tuple[int, float]]:
    found = []
    for r in runs:
        metrics = {**r.get("unbounded", {}), **r["metrics"]}
        if name in metrics:
            found.append((r["seed"], metrics[name]["value"]))
    return found


def _pairs(a, b):
    """Seed-matched (before, after) pairs, or every pair when no seed matches."""
    pairs = [(x, y) for sa, x in a for sb, y in b if sa == sb]
    return pairs or [(x, y) for _, x in a for _, y in b]


def compare(before_path: str, after_path: str, spec: dict) -> str:
    before, after = load(before_path), load(after_path)
    lines = [f"{'workload':12s} {'metric':12s} {'before median [q1, q3] n':>38s}   "
             f"{'after median [q1, q3] n':>38s}   {'after/before':>12s}  verdict (bound)"]
    for workload in sorted(set(before) & set(after)):
        unbounded = sorted({k for r in before[workload] for k in r.get("unbounded", {})})
        for entry in spec["end_to_end"] + [{"name": k} for k in unbounded]:
            name = entry["name"]
            a, b = _values(before[workload], name), _values(after[workload], name)
            if not a or not b:
                continue
            a_vals, b_vals = [v for _, v in a], [v for _, v in b]
            if "bound" in entry:
                result = verdict(a_vals, b_vals, _pairs(a, b), entry["better"], entry["bound"])
                result += f" ({entry['bound']})"
            else:
                result = "no bound"
            cells = []
            for values in (a_vals, b_vals):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(values):2d}")
            ratio = quartiles(b_vals)[1] / quartiles(a_vals)[1]
            lines.append(f"{workload:12s} {name:12s} {cells[0]:>38s}   {cells[1]:>38s}   "
                         f"{ratio:12.4f}  {result}")
        for side, runs in (("before", before[workload]), ("after", after[workload])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            lines.append(f"{workload:12s} fail_ratio {side}: {failed}/{attempted}")
    return "\n".join(lines)
