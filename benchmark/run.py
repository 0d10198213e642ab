"""Benchmark of the thermalent CLI: one named workload per run, in this process.

    python3 benchmark/run.py --workload mc-finite --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --smoke

Run it from the root of a source checkout; it imports the package from
``src/`` and exits 2 when there is none.  A run imports
``thermalent.cli`` here, makes one checked warm-up pass over the workload's
fixed list of CLI invocations, then repeats the list through
``thermalent.cli.dispatch`` for ``--seconds``.  Between invocations, at most
every ``KERNEL_EVERY_S``, it times a fixed kernel of its own that calls no
thermalent code; the mean kernel time measures how fast the host runs during
the run.  After a pass, at most every ``PROBE_EVERY_S``, it times
``import thermalent.cli`` in a fresh interpreter.  It reports the median
probe (``setup_s``) and the mean pass (``pass_s``), both scaled by
``KERNEL_REF_S`` over the mean kernel time, and the peak resident memory of
this process (``peak_rss_mb``).  With ``--trace 1`` it alternates untraced and
traced passes, probes with ``-X importtime``, reports the per-layer figures
instead, unscaled, and writes them all to ``.bench_results/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` runs every workload at reduced size with every check on.
"""

import os

# one thread everywhere; set before anything here imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: fewest import probes per run, and the least time between two of them
PROBES = 5
PROBE_EVERY_S = 2.0

#: the host's speed drifts by up to 1.6x for minutes at a time (README,
#: "Steadiness"); the timed figures are scaled to a host on which the kernel
#: below takes KERNEL_REF_S on average, about its mean on this host
KERNEL_REF_S = 0.025
#: least time between two kernel samples
KERNEL_EVERY_S = 0.1
_KERNEL_ROWS = np.random.default_rng(0).dirichlet(np.ones(4), 5_000)
_KERNEL_GAMMA = oracles.gibbs(1.0)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import thermalent.cli as c; "
                "print(time.perf_counter() - t, c.__file__)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_s(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported thermalent from {path}, not from {SRC}")
    return float(seconds)


def import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("thermalent.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported thermalent from {cli.__file__}, not from {SRC}")
    return cli


def kernel_s() -> float:
    """Seconds of one fixed computation of the benchmark's own, in three equal
    parts, since the host's slow stretches slow each kind of code by its own
    factor: a pure-Python loop, numpy calls on one 4-vector at a time, and
    the oracle's vectorized f* on 5,000 rows."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80_000):
        acc += (i % 7) * 0.5
    for row in _KERNEL_ROWS[:800]:
        r = np.sort(row)[::-1]
        acc += float(np.cumsum(r)[1]) + int(np.argsort(row)[0])
    for _ in range(3):
        acc += float(oracles.fstar(_KERNEL_ROWS, _KERNEL_GAMMA)[0])
    return time.perf_counter() - t0


class Run:
    """One workload in this process: warm-up and check, then timed passes."""

    def __init__(self, cli, workload):
        self.cli, self.wl = cli, workload
        self.attempted = 0
        self.failed = []
        self.errors = []
        self.reference = None
        self.first = None
        self.kernel = []
        self.kernel_at = -math.inf

    def one_pass(self):
        """Time one pass over the workload's invocations, kernel samples left out."""
        seconds, codes = 0.0, []
        for op in self.wl.ops:
            if time.perf_counter() - self.kernel_at >= KERNEL_EVERY_S:
                self.kernel.append(kernel_s())
                self.kernel_at = time.perf_counter()
            t0 = time.perf_counter()
            codes.append(self.cli.dispatch(list(op.argv)))
            seconds += time.perf_counter() - t0
        outputs, failed = self.wl.outcomes(codes)
        self.attempted += len(codes)
        self.failed += failed
        unexpected = sorted(set(failed) - set(workloads.FAULTS))
        if unexpected and f"unexpected failures: {unexpected}" not in self.errors:
            self.errors.append(f"unexpected failures: {unexpected}")
        payloads = {k: v.payload for k, v in outputs.items()}
        if self.reference is None:
            self.reference, self.first = payloads, outputs
        elif payloads != self.reference:
            changed = sorted(k for k in payloads.keys() | self.reference.keys()
                             if payloads.get(k) != self.reference.get(k))
            self.errors.append(f"result bytes changed between passes: {changed}")
        # every pass writes fresh files: ext4 flushes a file that is truncated
        # and rewritten when it is closed, and that wait was the noisiest part
        # of a cli-queries pass
        for path in self.wl.outdir.iterdir():
            path.unlink()
        return seconds, sum(v.size for v in outputs.values())


def measure(cli, workload, seconds: float, trace: bool, probe=None) -> tuple:
    """Warm-up pass with the output checks, then passes for ``seconds``; after
    a pass ``probe`` is called when ``PROBE_EVERY_S`` have gone by since its
    last call, and the passes go on until it has been called ``PROBES`` times."""
    run = Run(cli, workload)
    run.one_pass()
    run.kernel, run.kernel_at = [], -math.inf  # the warm-up's samples are cold
    plain, traced, per_layer, sizes, probes = [], [], [], set(), []
    tracer = layers.Tracer()
    start = time.perf_counter()
    probe_at = -math.inf
    while (time.perf_counter() - start < seconds or not plain or (trace and not traced)
           or (probe and len(probes) < PROBES)):
        if trace and len(traced) < len(plain):
            with tracer.installed():
                dt, size = run.one_pass()
            traced.append(dt)
            per_layer.append(tracer.metrics())
            sizes.add(size)
        else:
            plain.append(run.one_pass()[0])
        if probe and time.perf_counter() - probe_at >= PROBE_EVERY_S:
            probes.append(probe())
            probe_at = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.errors += workload.check(run.first)  # after the peak: checks use memory too
    if trace:
        counts = {k for k in per_layer[0] if not k.endswith("_s")}
        if len(sizes) != 1 or any(p[k] != per_layer[0][k] for p in per_layer for k in counts):
            run.errors.append("per-layer counts differ between traced passes")
        metrics = {k: per_layer[0][k] if k in counts else statistics.median(p[k] for p in per_layer)
                   for k in per_layer[0]}
        metrics["cli.output_bytes"] = sizes.pop()
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.untraced_pass_s"] = statistics.median(plain)
        metrics["host.kernel_s"] = statistics.mean(run.kernel)
        if probes:
            metrics.update({k: statistics.median(p[k] for p in probes) for k in probes[0]})
        detail = {"untraced_pass_s": plain, "traced_pass_s": traced, "per_layer": per_layer,
                  "imports": probes, "kernel_s": run.kernel}
    else:
        # means, not medians: the host flickers between its fast and slow
        # states within a second, so the median of short kernel samples jumps
        # between the two states where the mean follows the share of each
        scale = KERNEL_REF_S / statistics.mean(run.kernel)
        metrics = {"pass_s": statistics.mean(plain) * scale, "peak_rss_mb": peak_rss_mb}
        if probes:
            metrics["setup_s"] = statistics.median(probes) * scale
        print(f"unscaled: mean pass {statistics.mean(plain):.4f} s of {len(plain)}, "
              f"mean kernel {statistics.mean(run.kernel):.4f} s of {len(run.kernel)}, "
              f"median probe {statistics.median(probes) if probes else math.nan:.4f} s "
              f"of {len(probes)}", file=sys.stderr)
        detail = None
    return run, metrics, detail


def report(run, metrics: dict, units: dict) -> dict:
    return {"correct": not run.errors, "attempted": run.attempted,
            "failed": len(run.failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at reduced size, every check on")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "thermalent" / "cli.py").is_file():
        print(f"error: no thermalent sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    if args.trace:
        probe = lambda: layers.import_breakdown(env, ROOT)  # noqa: E731
    else:
        probe = lambda: cold_import_s(env)  # noqa: E731
    cli = import_cli()

    scratch = ROOT / ".bench_scratch"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.smoke:
            return smoke(cli, args.seed, outdir)
        wl = workloads.Workload(args.workload, args.seed, "full", outdir)
        run, metrics, detail = measure(cli, wl, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"failed operations: {sorted(set(run.failed))}", file=sys.stderr)
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        units = dict(layers.metric_names())
        RESULTS.mkdir(exist_ok=True)
        detail["metrics"] = metrics
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    else:
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps(report(run, metrics, units)))
    return 0


def smoke(cli, seed: int, outdir: Path) -> int:
    ok = True
    for name in workloads.NAMES:
        wl = workloads.Workload(name, seed, "smoke", outdir)
        t0 = time.perf_counter()
        run, _, _ = measure(cli, wl, 0.0, trace=True)
        ok &= not run.errors
        print(f"{name}: {'FAILED' if run.errors else 'ok'}; {run.attempted} operations, "
              f"{len(run.failed)} failed {sorted(set(run.failed))}, "
              f"{time.perf_counter() - t0:.2f} s")
        for err in run.errors:
            print(f"  {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
