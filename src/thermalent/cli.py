"""Command-line entry point.

Every run emits a manifest (subcommand, resolved parameters, seed, version,
wall time) alongside the result; rerunning with the same parameters and
seed reproduces the result bytes exactly.  Floats are printed at 12
significant digits.  Exit codes: 0 success, 2 validation error, 1 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .core import PopVector, make_context, pop_vector, two_qubit_context
from .dynamics import (
    JCConfig,
    ThermalizationSchedule,
    jc_protocol,
    mtp_entangle_search,
    suggest_n_max,
    verify_catalysis,
)
from .entangle import (
    critical_temps_general,
    critical_temps_thermal,
    is_thermally_entanglable,
)
from .geometry import convex_hull_export, tne_boundary, volume_of
from .majorization import curve, future_cone

SEED_ENV = "THERMALENT_SEED"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _parse_state(text: str, renorm: bool) -> PopVector:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse state {text!r}: {exc}") from exc
    return pop_vector(values, renorm=renorm)


def _parse_beta(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_range(text: str, parts: int):
    bits = text.split(":")
    if len(bits) != parts:
        raise ValueError(f"expected {parts} colon-separated values, got {text!r}")
    return bits


def _context(args, dim_hint: int = 4):
    if getattr(args, "energies", None):
        energies = [float(x) for x in args.energies.split(",")]
        return make_context(energies, args.beta)
    if dim_hint != 4:
        raise ValueError("--energies is required for non-4-level states")
    return two_qubit_context(args.beta, args.gap)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _emit(args, manifest: dict, result, csv_rows=None, csv_header=None) -> None:
    """Write JSON (default) or CSV with the manifest as a comment line."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_rows is None:
        raise ValueError("this subcommand has no CSV representation")
    if fmt == "csv":
        lines = [f"# manifest: {json.dumps(_round12(manifest), sort_keys=False)}"]
        lines.append(",".join(csv_header))
        for row in csv_rows:
            lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"manifest": _round12(manifest), "result": _round12(result)},
                          indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest(name: str, params: dict, seed, t0: float) -> dict:
    return {
        "subcommand": name,
        "params": params,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_classify(args) -> int:
    t0 = time.perf_counter()
    p = _parse_state(args.state, args.renorm)
    ctx = two_qubit_context(args.beta, args.gap)
    rep = is_thermally_entanglable(p, ctx)
    result = {
        "f_value": rep.f_value,
        "f_star": rep.f_star,
        "in_E": rep.in_E,
        "in_TE": rep.in_TE,
        "max_negativity": rep.max_negativity,
        "optimal_theta": rep.optimal_theta,
        "pi_star_point": rep.pi_star_point.probs,
    }
    params = {"state": args.state, "beta": args.beta, "gap": args.gap,
              "renorm": args.renorm}
    _emit(args, _manifest("classify", params, None, t0), result)
    return 0


def _run_cone(args) -> int:
    t0 = time.perf_counter()
    p = _parse_state(args.state, args.renorm)
    ctx = _context(args, p.dim)
    cone = future_cone(p, ctx)
    extremes = [{"order": list(o.perm), "probs": v.probs} for o, v in cone.extremes]
    result = {"origin": p.probs, "beta": ("inf" if ctx.beta_is_infinite else ctx.beta),
              "extremes": extremes}
    rows = [tuple(o.perm) + tuple(v.probs) for o, v in cone.extremes]
    header = [f"order{i}" for i in range(1, p.dim + 1)] + [f"p{i}" for i in range(1, p.dim + 1)]
    params = {"state": args.state, "beta": args.beta, "gap": args.gap,
              "energies": args.energies}
    _emit(args, _manifest("cone", params, None, t0), result,
          csv_rows=[tuple(float(x) if isinstance(x, (float, np.floating)) else x for x in r)
                    for r in rows],
          csv_header=header)
    return 0


def _run_curve(args) -> int:
    t0 = time.perf_counter()
    p = _parse_state(args.state, args.renorm)
    ctx = _context(args, p.dim)
    c = curve(p, ctx)
    xs = list(map(float, c.xs))
    if args.points > 0:
        xs = sorted(set(xs) | {i / args.points for i in range(args.points + 1)})
    ys = [c.evaluate(x) for x in xs]
    params = {"state": args.state, "beta": args.beta, "gap": args.gap,
              "energies": args.energies, "points": args.points}
    result = {"x": xs, "y": ys}
    _emit(args, _manifest("curve", params, None, t0), result,
          csv_rows=list(zip(xs, ys)), csv_header=["x", "y"])
    return 0


def _run_volume(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    ctx = two_qubit_context(args.beta, args.gap)
    origin = _parse_state(args.state, args.renorm) if args.state else None
    threads = args.threads or os.cpu_count() or 1
    est = volume_of(args.set, ctx, origin, args.samples, seed, threads=threads)
    result = {"set": args.set, "fraction": est.fraction, "std_error": est.std_error,
              "n_samples": est.n_samples, "seed": est.seed}
    params = {"set": args.set, "beta": args.beta, "gap": args.gap,
              "state": args.state, "samples": args.samples}
    _emit(args, _manifest("volume", params, seed, t0), result)
    return 0


def _run_boundary(args) -> int:
    t0 = time.perf_counter()
    ctx = two_qubit_context(args.beta, args.gap)
    cloud = tne_boundary(ctx, args.grid, args.iters)
    if args.mesh_out:
        mesh = convex_hull_export(cloud)
        with open(args.mesh_out, "w", encoding="utf-8") as fh:
            fh.write(mesh.to_obj())
    params = {"beta": args.beta, "gap": args.gap, "grid": args.grid,
              "iters": args.iters, "mesh_out": args.mesh_out}
    result = {"n_points": int(cloud.points.shape[0]),
              "points": cloud.points}
    rows = [tuple(map(float, row)) for row in cloud.points]
    _emit(args, _manifest("boundary", params, None, t0), result,
          csv_rows=rows, csv_header=["p1", "p2", "p3", "p4"])
    return 0


def _run_critical_temp(args) -> int:
    t0 = time.perf_counter()
    if (args.beta_s is None) == (args.state is None):
        raise ValueError("give exactly one of --beta-s or --state")
    if args.beta_s is not None:
        ct = critical_temps_thermal(args.beta_s, args.gap)
        result = {"beta_c1": ct.beta_c1, "beta_c2": ct.beta_c2,
                  "approx_c1": ct.approx_c1, "approx_c2": ct.approx_c2}
    else:
        lo, hi = (float(x) for x in _parse_range(args.range, 2))
        p = _parse_state(args.state, args.renorm)
        roots = critical_temps_general(p, args.gap, (lo, hi), args.scan)
        result = {"crossings": roots}
    params = {"beta_s": args.beta_s, "state": args.state, "gap": args.gap,
              "range": args.range, "scan": args.scan}
    _emit(args, _manifest("critical-temp", params, None, t0), result)
    return 0


def _run_jc(args) -> int:
    t0 = time.perf_counter()
    if args.betaE_range:
        a, b, n = _parse_range(args.betaE_range, 3)
        grid = np.linspace(float(a), float(b), int(n))
    elif args.betaE is not None:
        grid = np.array([args.betaE])
    else:
        raise ValueError("give --betaE or --betaE-range a:b:n")
    if grid.min() < 0.2 and not args.allow_low_betae:
        raise ValueError("beta*E below 0.2 needs a very deep Fock truncation; "
                         "pass --allow-low-betae to override")
    rows = []
    for be in grid:
        nmax = args.nmax if args.nmax else suggest_n_max(float(be))
        res = jc_protocol(JCConfig(initial=args.initial, beta_E=float(be), n_max=nmax))
        rows.append((float(be), res.optimal_time, res.ground_pop, res.negativity))
    params = {"initial": args.initial, "betaE": args.betaE,
              "betaE_range": args.betaE_range, "nmax": args.nmax}
    result = [{"betaE": r[0], "optimal_time": r[1], "ground_pop": r[2],
               "negativity": r[3]} for r in rows]
    _emit(args, _manifest("jc", params, None, t0), result,
          csv_rows=rows, csv_header=["betaE", "optimal_time", "ground_pop", "negativity"])
    return 0


def _run_mtp(args) -> int:
    t0 = time.perf_counter()
    p = _parse_state(args.state, args.renorm)
    ctx = two_qubit_context(args.beta, args.gap)
    res = mtp_entangle_search(p, ctx, args.strategy, args.budget)
    result = {
        "best_f": res.best_f,
        "entangling": bool(res.best_f < 0),
        "schedule": [{"pair": list(pair), "lam": lam} for pair, lam in res.schedule.steps],
        "best_state": res.best_state.probs,
        "evaluations": res.evaluations,
    }
    params = {"state": args.state, "beta": args.beta, "gap": args.gap,
              "strategy": args.strategy, "budget": args.budget}
    _emit(args, _manifest("mtp", params, None, t0), result)
    return 0


def _run_catalysis_demo(args) -> int:
    t0 = time.perf_counter()
    rep = verify_catalysis(strict=False)
    result = {
        "status": "PASS" if rep.passed else "FAIL",
        "unitary_commutes": rep.unitary_commutes,
        "catalyst_restored": rep.catalyst_restored,
        "system_matches": rep.system_matches,
        "initial_in_tne": rep.initial_in_tne,
        "final_in_te": rep.final_in_te,
        "system_final": [str(x) for x in rep.system_final],
        "catalyst_final": [str(x) for x in rep.catalyst_final],
    }
    _emit(args, _manifest("catalysis-demo", {}, None, t0), result)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, state=False, beta=True, seed=False):
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write output to a file")
    sp.add_argument("--renorm", action="store_true",
                    help="renormalize --state instead of rejecting it")
    if state:
        sp.add_argument("--state", required=True,
                        help="comma-separated populations, e.g. 0.4,0.25,0.33,0.02")
    if beta:
        sp.add_argument("--beta", type=_parse_beta, default=0.0,
                        help="ambient inverse temperature (number or 'inf')")
        sp.add_argument("--gap", type=float, default=1.0, help="qubit energy gap E")
    if seed:
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (falls back to ${SEED_ENV}, then 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thermalent",
                                 description="Thermal-operation entanglability toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("classify", help="entanglability verdicts for one state")
    _add_common(sp, state=True)
    sp.set_defaults(run=_run_classify)

    sp = sub.add_parser("cone", help="extreme points of the future thermal cone")
    _add_common(sp, state=True)
    sp.add_argument("--energies", default=None, help="comma-separated level energies")
    sp.set_defaults(run=_run_cone)

    sp = sub.add_parser("curve", help="thermomajorization curve samples")
    _add_common(sp, state=True)
    sp.add_argument("--energies", default=None, help="comma-separated level energies")
    sp.add_argument("--points", type=int, default=0, help="extra uniform sample points")
    sp.set_defaults(run=_run_curve, format="csv")

    sp = sub.add_parser("volume", help="Monte Carlo volume of an entanglability set")
    _add_common(sp, seed=True)
    sp.add_argument("--set", required=True, choices=("E", "NE", "TNE", "ENT_CONE"))
    sp.add_argument("--state", default=None, help="origin state (ENT_CONE only)")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--threads", type=int, default=None,
                    help="worker threads (default: all cores; result unchanged)")
    sp.set_defaults(run=_run_volume)

    sp = sub.add_parser("boundary", help="bisection cloud on the TNE boundary")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=24, help="facet grid resolution")
    sp.add_argument("--iters", type=int, default=30, help="bisection steps")
    sp.add_argument("--mesh-out", default=None, help="write an OBJ mesh of the hull")
    sp.set_defaults(run=_run_boundary, format="csv")

    sp = sub.add_parser("critical-temp", help="critical ambient temperatures")
    _add_common(sp)
    sp.add_argument("--beta-s", type=float, default=None,
                    help="inverse temperature of a thermal initial state")
    sp.add_argument("--state", default=None, help="general initial state to scan")
    sp.add_argument("--range", default="0:5", help="beta scan range a:b")
    sp.add_argument("--scan", type=int, default=400, help="scan grid size")
    sp.set_defaults(run=_run_critical_temp)

    sp = sub.add_parser("jc", help="cavity preconditioning protocol")
    _add_common(sp, beta=False)
    sp.add_argument("--initial", choices=("00", "11"), required=True)
    sp.add_argument("--betaE", type=float, default=None)
    sp.add_argument("--betaE-range", default=None, help="sweep a:b:n")
    sp.add_argument("--nmax", type=int, default=None,
                    help="Fock truncation (default: from the tail bound)")
    sp.add_argument("--allow-low-betae", action="store_true")
    sp.set_defaults(run=_run_jc, format="csv")

    sp = sub.add_parser("mtp", help="schedule search under partial thermalizations")
    _add_common(sp, state=True)
    sp.add_argument("--strategy", choices=("greedy", "beam"), default="greedy")
    sp.add_argument("--budget", type=int, default=10_000)
    sp.set_defaults(run=_run_mtp)

    sp = sub.add_parser("catalysis-demo", help="exact catalytic activation check")
    _add_common(sp, beta=False)
    sp.set_defaults(run=_run_catalysis_demo)

    return ap


def dispatch(argv) -> int:
    """Parse and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
