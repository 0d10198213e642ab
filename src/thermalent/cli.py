"""Command-line entry point.

Every run emits a manifest (subcommand, the parsed arguments as params, the
resolved seed, version, wall time) alongside the result; rerunning with the
same parameters and seed reproduces the result bytes exactly.  JSON is
indented by two spaces; a float prints as ``repr`` of its 12-significant-digit
value, or as json's ``NaN`` and ``Infinity``; CSV and OBJ numbers use
``%.12g``.  Arrays and tables are formatted CHUNK rows at a time and the
text is written in pieces, which changes no byte.  Exit codes: 0 success, 2
validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import numbers
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .core import PopVector, make_context, pop_vector, row_blocks, two_qubit_context
from .entangle import (MAX_SCAN, _margin, critical_temps_general, critical_temps_thermal,
                       is_thermally_entanglable)
from .geometry import MAX_ITERS, MAX_THREADS, convex_hull_export, tne_boundary, volume_of
from .majorization import curve, future_cone

SEED_ENV = "THERMALENT_SEED"

#: most extra sample points of ``curve --points``: about 2 MB of output at the
#: cap; the curve is read at them CHUNK at a time
MAX_POINTS = 100_000

#: most levels of a ``curve --state``: its ordering compares every pair
MAX_CURVE_LEVELS = 256

#: most points of a ``jc --betaE-range`` sweep: each runs the protocol once,
#: a few ms at beta*E >= 0.2
MAX_SWEEP = 1000


def _fields(obj) -> dict:
    """A dataclass's fields by name, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


#: an array of at least this many entries is written in row blocks, each
#: checked by one vectorized test (``_needs_repr``); a smaller one, such as
#: a classify result's, is written as its lists, which costs less there (the
#: two cost the same at about 20 entries)
BULK = 32

#: repr of the non-finite floats, as json spells them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _needs_repr(x: np.ndarray) -> np.ndarray:
    """Where the %.12g token of a float may differ from the repr of the
    double it spells: not finite, 0 < |x| < 1e-300 (near the subnormals),
    or within 1e-11 |x| of an integer, zero included.  The last is where the
    token may lack the point that repr writes, as rounding to 12 digits
    moves x by at most 5e-12 |x|; it holds for every |x| >= 5e10, and with
    it where %g turns to an exponent and repr does not (from 1e12).
    Elsewhere the token reads back as itself (``_floats``), and both write
    an exponent below 1e-4 alike."""
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(x) | ((a > 0.0) & (a < 1e-300)) | (np.abs(x - np.rint(x)) <= 1e-11 * a)


def _repr(token: str) -> str:
    """JSON text of the float a %.12g token spells: its repr, or NaN and Infinity."""
    r = float.__repr__(float(token))
    return _NON_FINITE.get(r, r)


def _floats(values: list) -> list:
    """JSON text of each float of a run, from one %.12g pass.  A token with
    a point and no exponent is kept as it is: %g writes it for a value of at
    least 1e-4, which a normal double holds, and a decimal of at most 15
    significant digits survives a round trip through a normal double
    (Goldberg, ACM Comput. Surv. 23(1), 1991), so repr writes the same
    digits in the same fixed-point form.  Any other token (an integer, an exponent, nan or inf) is read
    back through ``_repr``."""
    return [t if "." in t and "e" not in t else _repr(t)
            for t in (("%.12g " * len(values)) % tuple(values)).split()]


def _items(values, indent, nl) -> list:
    """JSON text of each value; a run of ints, or of floats, in one call."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        return _floats(values)
    return [_json(v, indent, nl) for v in values]


def _layout(indent, nl) -> tuple:
    """The layout of a container whose own line starts with ``nl`` (a newline
    and its indentation), as ``json.dumps`` with this indent writes it: what
    follows the opening bracket (``nl`` indented once more, which starts the
    line of every item), what parts two items, and what precedes the closing
    bracket.  With no indent, ``nl`` is not read."""
    if indent is None:
        return "", ", ", ""
    return nl + indent, "," + nl + indent, nl


def _nest(shape: tuple, indent, nl) -> str:
    """%-template of a nested list of this shape, one ``%s`` per entry."""
    if not shape:
        return "%s"
    head, sep, tail = _layout(indent, nl)
    return "[" + head + sep.join([_nest(shape[1:], indent, head)] * shape[0]) + tail + "]"


def _put_array(a: np.ndarray, out: list, indent, nl) -> None:
    """Append the JSON text of an array, as its nested lists, to ``out``.
    One of fewer than BULK entries is written as its lists; a larger one
    CHUNK rows at a time into a template of its rows, and a float block whose
    tokens all read back as themselves (``_needs_repr``) is formatted
    straight into it."""
    if a.size < BULK:
        return _put(a.tolist(), out, indent, nl)
    head, sep, tail = _layout(indent, nl)
    row = _nest(a.shape[1:], indent, head)
    direct = row.replace("%s", "%.12g") if a.dtype == np.float64 else None
    out.append("[" + head)
    for b, values in row_blocks(a):
        if direct is not None and not _needs_repr(b).any():
            out.append(sep.join([direct] * len(b)) % tuple(values))
        else:
            out.append(sep.join([row] * len(b)) % tuple(_items(values, indent, head)))
        out.append(sep)
    out[-1] = tail + "]"


def _put(obj, out: list, indent, nl) -> None:
    """Append the JSON text of a result to ``out`` in pieces, laid out as
    ``json.dumps(obj, indent=indent)``: floats (numpy's too) at 12
    significant digits, a ``PopVector`` as its populations, a ``Fraction``
    (any ``numbers.Rational`` that is not an integer, so that ``fractions``
    need not be imported) as its str, a dataclass as its fields, an array as
    nested lists; dict keys must be str.  ``nl`` starts the line of ``obj``,
    a newline and its indentation."""
    kind = type(obj)  # the exact types first: nearly every node is one of them
    if kind is float:
        return out.append(_floats([obj])[0])
    if kind is int:
        return out.append(int.__repr__(obj))
    if kind is str:
        return out.append(encode_basestring_ascii(obj))
    if kind is not dict and kind is not list:
        if isinstance(obj, str):
            return out.append(encode_basestring_ascii(obj))
        if obj is None or obj is True or obj is False:
            return out.append({None: "null", True: "true", False: "false"}[obj])
        if isinstance(obj, (float, np.floating)):
            return out.append(_floats([float(obj)])[0])
        if isinstance(obj, (int, np.integer)):
            return out.append(int.__repr__(int(obj)))
        if isinstance(obj, numbers.Rational) and not isinstance(obj, numbers.Integral):
            return out.append(encode_basestring_ascii(str(obj)))
        if isinstance(obj, PopVector):
            obj = obj.probs
        elif dataclasses.is_dataclass(obj):
            obj = _fields(obj)
        if isinstance(obj, np.ndarray):
            return _put_array(obj, out, indent, nl)
        if not isinstance(obj, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    is_dict = isinstance(obj, dict)
    if not obj:
        return out.append("{}" if is_dict else "[]")
    head, sep, tail = _layout(indent, nl)
    if is_dict:
        out.append("{" + head)
        for k, v in obj.items():
            out.append(encode_basestring_ascii(k) + ": ")
            _put(v, out, indent, head)
            out.append(sep)
        out[-1] = tail + "}"
        return
    kinds = set(map(type, obj))
    if kinds == {float}:
        return out.append("[" + head + sep.join(_floats(obj)) + tail + "]")
    if kinds == {int}:
        return out.append("[" + head + sep.join(map(int.__repr__, obj)) + tail + "]")
    out.append("[" + head)
    for v in obj:
        _put(v, out, indent, head)
        out.append(sep)
    out[-1] = tail + "]"


def _json(obj, indent="  ", nl="\n") -> str:
    """JSON text of a result (``_put``)."""
    out = []
    _put(obj, out, indent, nl)
    return "".join(out)


def _parse_state(text: str, renorm: bool) -> PopVector:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse state {text!r}: {exc}") from exc
    return pop_vector(values, renorm=renorm)


def _parse_range(text: str, parts: int):
    bits = text.split(":")
    if len(bits) != parts:
        raise ValueError(f"expected {parts} colon-separated values, got {text!r}")
    return bits


def _context(args, dim_hint: int = 4):
    if args.energies is not None:
        return make_context([float(x) for x in args.energies.split(",")], args.beta)
    if dim_hint != 4:
        raise ValueError("--energies is required for non-4-level states")
    return two_qubit_context(args.beta, args.gap)


def _emit(args, manifest: dict, result, table) -> None:
    """Write JSON, or CSV with the manifest as a comment line, in pieces that
    are never joined into one string."""
    if args.format == "csv":
        header, rows = table
        cells = ["%.12g" if isinstance(v, float) else "%s" for v in rows[0]] if len(rows) else []
        line = ",".join(cells) + "\n"
        parts = [f"# manifest: {_json(manifest, None)}\n", ",".join(header) + "\n",
                 *(line * len(b) % tuple(values) for b, values in row_blocks(rows))]
    else:
        parts = []
        _put({"manifest": manifest, "result": result}, parts, "  ", "\n")
        parts.append("\n")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


# ---------------------------------------------------------------------------
# subcommand runners: each returns (result, table): what ``_put`` writes, and
# (header, rows) with every row typed as the first, or None where there is no CSV
# ---------------------------------------------------------------------------

def _run_classify(args):
    p = _parse_state(args.state, args.renorm)
    ctx = two_qubit_context(args.beta, args.gap)
    return is_thermally_entanglable(p, ctx), None


def _run_cone(args):
    p = _parse_state(args.state, args.renorm)
    ctx = _context(args, p.dim)
    cone = future_cone(p, ctx)
    orders, points = cone.orders.tolist(), cone.points.tolist()
    result = {"origin": p.probs, "beta": ("inf" if ctx.beta_is_infinite else ctx.beta),
              "extremes": [{"order": o, "probs": v} for o, v in zip(orders, points)]}
    rows = [o + v for o, v in zip(orders, points)]
    header = [f"order{i}" for i in range(1, p.dim + 1)] + [f"p{i}" for i in range(1, p.dim + 1)]
    return result, (header, rows)


def _run_curve(args):
    p = _parse_state(args.state, args.renorm)
    if p.dim > MAX_CURVE_LEVELS:
        raise ValueError(f"--state may have at most {MAX_CURVE_LEVELS} levels, got {p.dim}")
    ctx = _context(args, p.dim)
    if not 0 <= args.points <= MAX_POINTS:
        raise ValueError(f"--points must lie in 0..{MAX_POINTS}, got {args.points}")
    c = curve(p, ctx)
    xs = list(map(float, c.xs))
    if args.points > 0:
        xs = sorted(set(xs) | {i / args.points for i in range(args.points + 1)})
    ys = c.evaluate(xs).tolist()
    return {"x": xs, "y": ys}, (["x", "y"], list(zip(xs, ys)))


def _run_volume(args):
    if args.seed is None:
        args.seed = int(os.environ.get(SEED_ENV) or 0)
    ctx = two_qubit_context(args.beta, args.gap)
    if args.renorm and args.state is None:
        raise ValueError("--renorm renormalizes --state, which is not given")
    origin = _parse_state(args.state, args.renorm) if args.state is not None else None
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    est = volume_of(args.set, ctx, origin, args.samples, args.seed, threads=threads)
    return {"set": args.set, **_fields(est)}, None


def _run_boundary(args):
    ctx = two_qubit_context(args.beta, args.gap)
    cloud = tne_boundary(ctx, args.grid, args.iters)
    if args.mesh_out is not None:
        mesh = convex_hull_export(cloud)
        with open(args.mesh_out, "w", encoding="utf-8") as fh:
            fh.write(mesh.to_obj())
    header = ["p1", "p2", "p3", "p4"]
    return {"n_points": len(cloud.points), "points": cloud.points}, (header, cloud.points)


def _run_critical_temp(args):
    if args.beta_s is not None:
        if args.renorm or args.range is not None or args.scan is not None:
            raise ValueError("--renorm, --range and --scan go with --state, not --beta-s")
        return critical_temps_thermal(args.beta_s, args.gap), None
    # the defaults of the scan, written back so that the manifest shows them
    args.range = "0:5" if args.range is None else args.range
    args.scan = 400 if args.scan is None else args.scan
    lo, hi = (float(x) for x in _parse_range(args.range, 2))
    p = _parse_state(args.state, args.renorm)
    return {"crossings": critical_temps_general(p, args.gap, (lo, hi), args.scan)}, None


def _run_jc(args):
    from .dynamics import MIN_BETA_E, JCConfig, jc_protocol, suggest_n_max

    if args.betaE_range is not None:
        a, b, n = _parse_range(args.betaE_range, 3)
        a, b, n = float(a), float(b), int(n)
        if not 1 <= n <= MAX_SWEEP:
            raise ValueError(f"sweep size n must lie in 1..{MAX_SWEEP}, got {n}")
        if not np.isfinite(b - a):
            raise ValueError(f"sweep ends and their spread must be finite, got {a:g}:{b:g}")
        grid = np.linspace(a, b, n)
    else:
        grid = np.array([args.betaE])
    if grid.min() < MIN_BETA_E and not args.allow_low_betae:
        raise ValueError(f"beta*E below {MIN_BETA_E:g} needs a very deep Fock truncation; "
                         "pass --allow-low-betae to override")
    rows = []
    for be in grid:
        nmax = args.nmax if args.nmax is not None else suggest_n_max(float(be))
        res = jc_protocol(JCConfig(initial=args.initial, beta_E=float(be), n_max=nmax))
        rows.append((float(be), res.optimal_time, res.ground_pop, res.negativity))
    header = ["betaE", "optimal_time", "ground_pop", "negativity"]
    return [dict(zip(header, r)) for r in rows], (header, rows)


def _run_mtp(args):
    from .dynamics import mtp_entangle_search

    p = _parse_state(args.state, args.renorm)
    ctx = two_qubit_context(args.beta, args.gap)
    res = mtp_entangle_search(p, ctx, args.strategy, args.budget)
    result = {
        "best_f": res.best_f,
        "entangling": bool(_margin(res.best_f) < 0.0),
        "schedule": [{"pair": list(pair), "lam": lam} for pair, lam in res.schedule.steps],
        "best_state": res.best_state,
        "evaluations": res.evaluations,
    }
    return result, None


def _run_catalysis_demo(args):
    from .dynamics import verify_catalysis

    checks = _fields(verify_catalysis(strict=False))
    return {"status": "PASS" if checks.pop("passed") else "FAIL", **checks}, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_subcommand(sub, name, run, help, formats=("json",), beta=True, gap=True):
    """A subcommand's parser with --format (the first of ``formats`` is the
    default), --out, and --beta and --gap where the subcommand reads them.
    Options must be spelled out: an abbreviation would let --beta stand for
    --beta-s on critical-temp."""
    sp = sub.add_parser(name, help=help, allow_abbrev=False)
    sp.set_defaults(run=run)
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", default=None, help="write output to a file")
    if beta:
        sp.add_argument("--beta", type=float, default=0.0,
                        help="ambient inverse temperature (number or 'inf')")
    if gap:
        sp.add_argument("--gap", type=float, default=1.0, help="qubit energy gap E")
    return sp


def _add_state(sp, required=True,
               help="comma-separated populations, e.g. 0.4,0.25,0.33,0.02", group=None):
    """--state, in ``group`` when one is given, then --renorm."""
    (group or sp).add_argument("--state", required=required, help=help)
    sp.add_argument("--renorm", action="store_true",
                    help="renormalize --state instead of rejecting it")


def _add_levels(sp):
    """--gap, --state and --renorm, then --energies, which replaces --gap."""
    levels = sp.add_mutually_exclusive_group()
    levels.add_argument("--gap", type=float, default=1.0, help="qubit energy gap E")
    _add_state(sp)
    levels.add_argument("--energies", default=None, help="comma-separated level energies")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thermalent",
                                 description="Thermal-operation entanglability toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = _add_subcommand(sub, "classify", _run_classify, "entanglability verdicts for one state")
    _add_state(sp)

    sp = _add_subcommand(sub, "cone", _run_cone, "extreme points of the future thermal cone",
                         formats=("json", "csv"), gap=False)
    _add_levels(sp)

    sp = _add_subcommand(sub, "curve", _run_curve, "thermomajorization curve samples",
                         formats=("csv", "json"), gap=False)
    _add_levels(sp)
    sp.add_argument("--points", type=int, default=0,
                    help=f"extra uniform sample points, at most {MAX_POINTS}")

    sp = _add_subcommand(sub, "volume", _run_volume, "Monte Carlo volume of an entanglability set")
    sp.add_argument("--set", required=True, choices=("E", "NE", "TNE", "ENT_CONE"))
    _add_state(sp, required=False, help="origin state (ENT_CONE only)")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed (falls back to ${SEED_ENV}, then 0)")
    sp.add_argument("--threads", type=int, default=None,
                    help=f"worker threads, at least 1; {MAX_THREADS} run at most (default: cores)")

    sp = _add_subcommand(sub, "boundary", _run_boundary,
                         "TNE boundary cloud, one closed-form root per ray",
                         formats=("csv", "json"))
    sp.add_argument("--grid", type=int, default=24, help="facet grid resolution")
    sp.add_argument("--iters", type=int, default=30,
                    help=f"bracket width 2^-iters along each ray, at most {MAX_ITERS}")
    sp.add_argument("--mesh-out", default=None, help="write an OBJ mesh of the hull")

    sp = _add_subcommand(sub, "critical-temp", _run_critical_temp,
                         "critical ambient temperatures", beta=False)
    initial = sp.add_mutually_exclusive_group(required=True)
    initial.add_argument("--beta-s", type=float, default=None,
                         help="inverse temperature of a thermal initial state")
    _add_state(sp, required=False, help="general initial state to scan", group=initial)
    sp.add_argument("--range", default=None, help="beta scan range a:b (default 0:5)")
    sp.add_argument("--scan", type=int, default=None,
                    help=f"scan grid size, 2..{MAX_SCAN} (default 400)")

    sp = _add_subcommand(sub, "jc", _run_jc, "cavity preconditioning protocol",
                         formats=("csv", "json"), beta=False, gap=False)
    sp.add_argument("--initial", choices=("00", "11"), required=True)
    beta_e = sp.add_mutually_exclusive_group(required=True)
    beta_e.add_argument("--betaE", type=float, default=None)
    beta_e.add_argument("--betaE-range", default=None,
                        help=f"sweep a:b:n with n at most {MAX_SWEEP}")
    sp.add_argument("--nmax", type=int, default=None,
                    help="Fock truncation (default: from the tail bound)")
    sp.add_argument("--allow-low-betae", action="store_true")

    sp = _add_subcommand(sub, "mtp", _run_mtp, "schedule search under partial thermalizations")
    _add_state(sp)
    sp.add_argument("--strategy", choices=("greedy", "beam"), default="greedy")
    sp.add_argument("--budget", type=int, default=10_000)

    _add_subcommand(sub, "catalysis-demo", _run_catalysis_demo,
                    "exact catalytic activation check", beta=False, gap=False)

    return ap


#: parsed arguments that are not run parameters; the seed has its own field
NOT_PARAMS = ("subcommand", "run", "format", "out", "seed")

#: the parser, built by the first ``dispatch`` so that importing stays cheap
_PARSER = None


def dispatch(argv) -> int:
    """Parse, run, and write the result with its manifest; returns the exit
    code.  A FAIL report (catalysis-demo) is written, then exits 1."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        result, table = args.run(args)
        manifest = {
            "subcommand": args.subcommand,
            "params": {k: v for k, v in vars(args).items() if k not in NOT_PARAMS},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "wall_time_s": time.perf_counter() - t0,
        }
        _emit(args, manifest, result, table)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 1 if isinstance(result, dict) and result.get("status") == "FAIL" else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
