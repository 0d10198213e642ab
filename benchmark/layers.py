"""Per-layer tracing from outside the program.

Each public function in ``LAYERS`` is wrapped in every thermalent module that
binds its name, so calls between modules are caught too.  A wrapper adds its
call's self time to the function's: the call's time less that of the
wrapped calls made inside it.  Nothing is kept per call,
so a pass of a million rows costs no memory here.  The import figures come
from ``python -X importtime``.
"""

from __future__ import annotations

import inspect
import subprocess
import sys
import time
from contextlib import contextmanager

# (module, function, what its count metric counts, the argument holding the rows)
LAYERS = (
    ("geometry", "volume_of", "samples", "n"),
    ("geometry", "membership_mask", "rows", "Q"),
    ("majorization", "batch_curves", "rows", "P"),
    ("majorization", "batch_eval", "rows", "X"),
    ("majorization", "batch_tight_points", "rows", "P"),
    ("majorization", "batch_majorizes", "rows", "Q"),
    ("entangle", "witness_batch", "rows", "Q"),
    ("entangle", "fstar_batch", "rows", "P"),
    ("core", "beta_order", "calls", None),
    ("majorization", "curve", "calls", None),
    ("majorization", "extreme_point", "calls", None),
    ("majorization", "thermo_majorizes", "calls", None),
    ("majorization", "future_cone", "calls", None),
    ("entangle", "max_negativity_over_cone", "calls", None),
    ("entangle", "is_thermally_entanglable", "calls", None),
    ("geometry", "tne_boundary", None, None),
    ("geometry", "convex_hull_export", None, None),
    ("entangle", "critical_temps_general", None, None),
    ("cli", "dispatch", "calls", None),
)

IMPORT_GROUPS = ("numpy", "scipy", "thermalent")


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"import.{g}_s", "s") for g in IMPORT_GROUPS]
    for mod, fn, count, _ in LAYERS:
        names.append((f"{mod}.{fn}.self_s", "s"))
        if count:
            names.append((f"{mod}.{fn}.{count}", "count"))
    names += [("cli.output_bytes", "bytes"), ("trace.pass_s", "s"),
              ("trace.untraced_pass_s", "s"), ("host.kernel_s", "s")]
    return names


class Tracer:
    """Installs the wrappers for the length of a ``with tracer.installed()``."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def _wrap(self, key, fn, rows_arg):
        sig = inspect.signature(fn) if rows_arg else None
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                s = self.stats[key]
                s["self_s"] += dt - child
                s["calls"] += 1
                if rows_arg:
                    arg = sig.bind(*args, **kwargs).arguments[rows_arg]
                    s["count"] += arg if isinstance(arg, int) else len(arg)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        self.stats = {f"{mod}.{fn}": {"self_s": 0.0, "calls": 0, "count": 0}
                      for mod, fn, _, _ in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "thermalent" or name.startswith("thermalent.")]
        patched = []
        for mod, fn_name, _, rows_arg in LAYERS:
            home = sys.modules.get(f"thermalent.{mod}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                print(f"trace: thermalent.{mod}.{fn_name} is gone; it reads 0",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(f"{mod}.{fn_name}", fn, rows_arg)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, fn))
        try:
            yield self
        finally:
            for m, attr, fn in patched:
                setattr(m, attr, fn)

    def metrics(self) -> dict:
        out = {}
        for mod, fn, count, _ in LAYERS:
            s = self.stats[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.self_s"] = s["self_s"]
            if count:
                out[f"{mod}.{fn}.{count}"] = s["calls"] if count == "calls" else s["count"]
        return out


def import_breakdown(env: dict, cwd) -> dict:
    """Seconds spent executing each package's own modules during one
    ``import thermalent.cli`` in a fresh interpreter, summed over the modules
    of the package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import thermalent.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          check=True, timeout=120)
    own = dict.fromkeys(IMPORT_GROUPS, 0)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in own:
            own[top] += self_us
    return {f"import.{g}_s": own[g] * 1e-6 for g in IMPORT_GROUPS}
