"""Steadiness report over saved benchmark results.

    python3 perfbench/steadiness.py [RESULTS_DIR]

Reads the untraced result files ``run.py`` wrote (default
``.perfbench/results``) and prints, per workload and end-to-end
metric, the spread across runs and seeds: IQR / median and max / min,
both of the raw values and of the values at reference host speed. A
normalisation that works leaves the normalised spread no wider than
the raw one.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float]:
    """(IQR / median, max / min) of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), max(values) / min(values)


def load(directory: Path) -> dict:
    """workload -> metric -> {"raw": [...], "value": [...], "seeds": set}."""
    table: dict = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result["trace"] or not result["correct"]:
            continue
        for name, metric in result["metrics"].items():
            entry = table.setdefault(result["workload"], {}).setdefault(
                name, {"raw": [], "value": [], "seeds": set()})
            entry["raw"].append(metric["raw"])
            entry["value"].append(metric["value"])
            entry["seeds"].add(result["seed"])
    return table


def report(table: dict) -> str:
    lines = [f"{'workload':9} {'metric':13} {'runs':>4} {'seeds':>5} "
             f"{'raw IQR/med':>11} {'norm IQR/med':>12} "
             f"{'raw max/min':>11} {'norm max/min':>12}"]
    for workload, metrics in sorted(table.items()):
        for name, entry in metrics.items():
            if len(entry["raw"]) < 2:
                continue
            raw_iqr, raw_ratio = spread(entry["raw"])
            iqr, ratio = spread(entry["value"])
            lines.append(
                f"{workload:9} {name:13} {len(entry['raw']):4d} "
                f"{len(entry['seeds']):5d} {raw_iqr:11.3f} {iqr:12.3f} "
                f"{raw_ratio:11.3f} {ratio:12.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0] if argv else ".perfbench/results")
    table = load(directory)
    if not table:
        print(f"no untraced results in {directory}", file=sys.stderr)
        return 1
    print(report(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
