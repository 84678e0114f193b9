"""Compare two sets of benchmark records, refusing records from another host.

    python3 perfbench/compare.py BASELINE.jsonl CANDIDATE.jsonl

Each file holds records appended by ``run.py --out FILE``.  Every record
of both files must carry the same host fingerprint (CPU model, ``nproc``,
Python, numpy); otherwise the comparison is refused with exit code 2.
For every workload and end-to-end metric the table shows each side's
median and interquartile spread and the candidate's change, judged
against the metric's bound in ``BENCHMARK.json``: ``worse`` beyond the
bound, ``unresolved`` when the baseline's own spread exceeds the bound.
Exit code 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from host import HOST_KEYS, same_host

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _spread(values: List[float]) -> Tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def compare(baseline: List[Dict], candidate: List[Dict], spec: Dict) -> Tuple[int, List[str]]:
    """``(exit code, report lines)`` for two record sets."""
    records = baseline + candidate
    if not records:
        return 2, ["no records to compare"]
    host = records[0]["host"]
    strangers = [r for r in records if not same_host(host, r["host"])]
    if strangers:
        other = strangers[0]["host"]
        diff = {k: (host.get(k), other.get(k)) for k in HOST_KEYS if host.get(k) != other.get(k)}
        return 2, [f"refused: records come from different hosts {diff}"]
    lines = [f"host: {json.dumps({k: host.get(k) for k in HOST_KEYS})}"]
    code = 0
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in sorted({r["workload"] for r in records}):

            def values(side: List[Dict]) -> List[float]:
                return [
                    r["metrics"][name]["value"]
                    for r in side
                    if r["workload"] == workload and not r["trace"] and name in r["metrics"]
                ]

            base, cand = values(baseline), values(candidate)
            if not base or not cand:
                continue
            b_med, b_iqr = _spread(base)
            c_med, c_iqr = _spread(cand)
            change = (c_med - b_med) / abs(b_med) if b_med else 0.0
            worse = change > bound if lower else change < -bound
            verdict = "worse" if worse else "unresolved" if b_iqr > bound else "ok"
            code = max(code, int(worse))
            lines.append(
                f"{workload:14s} {name:22s} base {b_med:.6g} (iqr {b_iqr:.1%}) "
                f"cand {c_med:.6g} (iqr {c_iqr:.1%}) change {change:+.1%} "
                f"bound {bound:.0%} {verdict}"
            )
    return code, lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = compare(_load(Path(argv[0])), _load(Path(argv[1])), spec)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
