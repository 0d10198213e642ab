"""Reference figures for the benchmark README, printed as markdown tables.

    python3 benchmark/reference.py

Measures, each as the median of three timings in this process: the
mc-finite pass at 1 thread and at ``nproc`` threads, the import breakdown of
``thermalent.cli``, and the ROADMAP baseline table.  Run from the root of a
source checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (the benchmark's own entry point, for its helpers)

REPEATS = 3


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    env = run.child_env()
    cold = statistics.median(run.cold_import_s(env) for _ in range(5))
    import layers
    parts = layers.import_breakdown(env, run.ROOT, 5)
    cli = run.import_cli()

    import numpy as np
    import workloads
    from thermalent import core, entangle, geometry, majorization

    nproc = os.cpu_count() or 1
    print(f"nproc {nproc}, numpy {np.__version__}, Python {sys.version.split()[0]}\n")
    print("| import | s |\n|---|---|")
    print(f"| `import thermalent.cli`, fresh interpreter | {cold:.3f} |")
    for k, v in parts.items():
        print(f"| {k} (own modules, -X importtime) | {v:.3f} |")

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        wl = workloads.Workload("mc-finite", 1, "full", Path(tmp))
        print("\n| mc-finite pass | s |\n|---|---|")
        for threads in sorted({1, nproc}):
            ops = [op.argv[:-4] + ("--threads", str(threads)) + op.argv[-2:] for op in wl.ops]
            secs = timed(lambda: [cli.dispatch(list(a)) for a in ops])
            print(f"| --threads {threads} | {secs:.3f} |")

    ctx0, ctx1, ctxi = (core.two_qubit_context(b) for b in (0.0, 1.0, math.inf))
    top = core.PopVector([0, 0, 0, 1])
    state = core.PopVector([0.4, 0.25, 0.33, 0.02])
    P = geometry.sample_simplex_array(4, 1_000_000, 7)
    rows = [
        ("volume_of E, beta 0, 1M, 1 thread", lambda: geometry.volume_of("E", ctx0, None, 1_000_000, 7)),
        ("volume_of TNE, beta 0, 1M, 1 thread", lambda: geometry.volume_of("TNE", ctx0, None, 1_000_000, 7)),
        (f"volume_of TNE, beta 0, 1M, {nproc} threads",
         lambda: geometry.volume_of("TNE", ctx0, None, 1_000_000, 7, threads=nproc)),
        ("sample_simplex_array 1M", lambda: geometry.sample_simplex_array(4, 1_000_000, 7)),
        ("batch_curves 1M", lambda: majorization.batch_curves(P, ctx0.gamma)),
        ("batch_tight_points 1M", lambda: majorization.batch_tight_points(P, ctx0.gamma, core.PI_STAR)),
        ("volume_of TNE, beta inf, 20k", lambda: geometry.volume_of("TNE", ctxi, None, 20_000, 7)),
        ("volume_of ENT_CONE, beta 1, 1M", lambda: geometry.volume_of("ENT_CONE", ctx1, top, 1_000_000, 7)),
        ("volume_of ENT_CONE, beta inf, 20k", lambda: geometry.volume_of("ENT_CONE", ctxi, top, 20_000, 7)),
        ("is_thermally_entanglable, one state", lambda: entangle.is_thermally_entanglable(state, ctx1)),
        ("future_cone, one state", lambda: majorization.future_cone(state, ctx1)),
        ("tne_boundary grid 24, iters 30", lambda: geometry.tne_boundary(ctx0, 24, 30)),
        ("cold `thermalent classify` process", lambda: subprocess.run(
            [sys.executable, "-m", "thermalent.cli", "classify", "--state", "0.4,0.25,0.33,0.02"],
            env=env, cwd=run.ROOT, capture_output=True, check=True)),
    ]
    print("\n| path | ms |\n|---|---|")
    for name, fn in rows:
        print(f"| {name} | {1e3 * timed(fn):.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
