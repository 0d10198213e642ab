"""The benchmark's smoke mode: every workload at reduced size with every output
check on.  It guards the CLI contract the benchmark relies on: ``--out``,
``--format json`` on ``boundary``, and the exit codes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"mc-finite", "mc-zero-temp", "cli-queries"}
#: one line per workload, e.g. "cli-queries: ok; 102 operations, 0 failed [], 1.69 s"
REPORT = re.compile(r"^(\S+): (\w+); \d+ operations, (\d+) failed", re.MULTILINE)


def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = {name: (status, int(failed))
               for name, status, failed in REPORT.findall(proc.stdout)}
    assert set(reports) == WORKLOADS, proc.stdout
    assert all(r == ("ok", 0) for r in reports.values()), proc.stdout
