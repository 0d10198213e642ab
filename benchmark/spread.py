"""Run-to-run spread of the benchmark: several seeds per workload, one after another.

    python3 benchmark/spread.py --workloads mc-finite,cli-queries --seeds 1:10 --label a

Each run is ``benchmark/run.py --trace 0`` in a fresh process, at its
default run length.  For every end-to-end
metric it prints the median over runs, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, and the share of
failed operations; everything goes to ``.bench_results/spread-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="mc-finite,mc-zero-temp,cli-queries")
    ap.add_argument("--seeds", default="1:10", help="first:last, inclusive")
    ap.add_argument("--label", default="spread")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split(":"))

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            runs.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None, "values": values}
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary[workload] = {"runs": runs, "metrics": stats,
                             "correct": all(r["correct"] for r in runs),
                             "failed_shares": sorted(shares)}
    out = ROOT / ".bench_results" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"\n| workload | metric | median | q1 | q3 | spread | correct | failed share |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{100 * m['spread']:.1f} %"
            print(f"| {workload} | {name} | {m['median']:.4g} | {m['q1']:.4g} | "
                  f"{m['q3']:.4g} | {spread} | {s['correct']} | {s['failed_shares']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
