"""The workloads: fixed lists of thermalent CLI invocations built from a seed,
and the checks of their outputs against independent computations.

Every invocation writes its output with ``--out`` into a scratch directory.
An operation fails when it does not exit as it must; the three ``fault-*``
operations fail today because of known faults in the program, on inputs that
do not depend on the seed, so every pass fails the same share of operations.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

NAMES = ("mc-finite", "mc-zero-temp", "cli-queries")

#: samples per volume, and the cli-queries sizes, at full and at smoke scale
SIZES = {
    "full": {"mc-finite": 1_000_000, "mc-zero-temp": 4_000,
             "random_states": 4, "grid": 24, "scan": 400},
    "smoke": {"mc-finite": 2 * oracles.BLOCK, "mc-zero-temp": 400,
              "random_states": 1, "grid": 8, "scan": 100},
}

# (label, set, beta, origin, how the hit count is checked)
MC_FINITE = (
    ("E-b0", "E", "0", None, "third"),
    ("TNE-b0", "TNE", "0", None, "perm-witness"),
    ("TNE-b1", "TNE", "1", None, "fstar"),
    ("ENT_CONE-b1-top", "ENT_CONE", "1", "0,0,0,1", "witness"),
    ("ENT_CONE-b0-tne", "ENT_CONE", "0", "0.4,0.25,0.33,0.02", "zero"),
)
MC_ZERO_TEMP = (
    ("TNE-binf", "TNE", "inf", None, "zero"),
    ("ENT_CONE-binf-top", "ENT_CONE", "inf", "0,0,0,1", "witness"),
)

#: the seeded states' verdicts at beta 0 and at beta 1 (True: entanglable).
#: The negativity optimiser runs only on entanglable states and costs several
#: times a verdict of "not entanglable", so every seed gets the same mix
SEEDED_VERDICTS = ((True, True), (True, True), (False, True), (False, False))

#: classify/cone states besides the seeded ones: a non-entanglable state,
#: the top state and the ground state
FIXED_STATES = ("0.4,0.25,0.33,0.02", "0,0,0,1", "1,0,0,0")
QUERY_BETAS = ("0", "1", "inf")
GROUND = (1.0, 0.0, 0.0, 0.0)
#: gap-1 Gibbs weights of this state underflow to 0 near beta = 800
UNDERFLOW_STATE = "0.1,0.2,0.3,0.4"

FAULTS = ("fault-nan-state", "fault-boundary-json", "fault-beta-800")

#: critical-temp inputs: the thermal state's beta_s, and the general state
#: with its scan range; the oracle scans f* on SCAN_POINTS inverse temperatures
#: from 0 to 2 beta_s, and over the general state's range
BETA_S = 5.0
CRITICAL_STATE, CRITICAL_RANGE = "0.12,0.38,0.12,0.38", (0.0, 2.0)
SCAN_POINTS = 2001

_WALL_TIME = re.compile(rb'"wall_time_s": ([-+0-9.eE]+|null)')


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    out: Path
    mesh: Path | None = None


@dataclass
class Output:
    """What one successful invocation wrote."""

    result: object      # the JSON ``result``, or the CSV rows as float lists
    payload: bytes      # result bytes that must repeat from pass to pass
    size: int           # bytes written, less the manifest's wall time and scratch paths
    mesh: str | None    # the OBJ file of --mesh-out


class Workload:
    def __init__(self, name: str, seed: int, scale: str, outdir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
        self.name, self.seed, self.sizes = name, seed, SIZES[scale]
        self.outdir = outdir
        if name == "cli-queries":
            self.ops = self._query_ops()
        else:
            specs = MC_FINITE if name == "mc-finite" else MC_ZERO_TEMP
            self.specs = {s[0]: s for s in specs}
            self.n = self.sizes[name]
            self.ops = [self._op(label, "volume", "--set", set_id, "--beta", beta,
                                 *(("--state", origin) if origin else ()),
                                 "--samples", str(self.n), "--seed", str(seed),
                                 "--threads", "1")
                        for label, set_id, beta, origin, _ in specs]

    def _op(self, label, *argv, mesh=False):
        out = self.outdir / f"{label}.out"
        mesh_path = self.outdir / f"{label}.obj" if mesh else None
        extra = ("--mesh-out", str(mesh_path)) if mesh else ()
        return Op(label, tuple(argv) + extra + ("--out", str(out)), out, mesh_path)

    # -- cli-queries -------------------------------------------------------

    def _query_ops(self):
        seeded = seeded_states(self.seed, SEEDED_VERDICTS[:self.sizes["random_states"]])
        self.states = list(FIXED_STATES) + [",".join(repr(float(x)) for x in row)
                                            for row in seeded]
        grid, scan = str(self.sizes["grid"]), str(self.sizes["scan"])
        ops = []
        for i, state in enumerate(self.states):
            for beta in QUERY_BETAS:
                ops.append(self._op(f"classify-s{i}-b{beta}", "classify",
                                    "--state", state, "--beta", beta))
                ops.append(self._op(f"cone-s{i}-b{beta}", "cone",
                                    "--state", state, "--beta", beta))
        for beta in ("0", "1"):
            ops.append(self._op(f"boundary-b{beta}", "boundary", "--beta", beta,
                                "--grid", grid, "--iters", "30", mesh=True))
        ops += [
            self._op("critical-thermal", "critical-temp", "--beta-s", repr(BETA_S)),
            self._op("critical-state", "critical-temp", "--state", CRITICAL_STATE,
                     "--range", "{:g}:{:g}".format(*CRITICAL_RANGE), "--scan", scan),
            self._op("curve-qutrit", "curve", "--state", "0.7,0.2,0.1",
                     "--energies", "0,1,2", "--beta", "0.5", "--points", "50"),
            self._op("curve-seeded", "curve", "--state", self.states[-1],
                     "--beta", "1", "--points", "50"),
            self._op("classify-b200", "classify", "--state", UNDERFLOW_STATE,
                     "--beta", "200"),
            self._op("fault-nan-state", "classify", "--state", "nan,0.5,0.5,0"),
            self._op("fault-boundary-json", "boundary", "--format", "json",
                     "--grid", grid),
            self._op("fault-beta-800", "classify", "--state", UNDERFLOW_STATE,
                     "--beta", "800"),
        ]
        return ops

    # -- outcomes ----------------------------------------------------------

    def outcomes(self, codes) -> tuple[dict, list]:
        """Read the outputs of one pass; returns (outputs by label, failed labels).

        An operation fails when its exit code is not 0; ``fault-nan-state``
        must exit 2, and ``fault-beta-800`` must exit 2 or give the same f*
        as at beta = 200, where the Gibbs weights have not yet underflowed.
        """
        outputs, failed = {}, []
        for op, code in zip(self.ops, codes):
            if code == 0:
                outputs[op.label] = read_output(op)
            if op.label == "fault-nan-state":
                ok = code == 2
            elif op.label == "fault-beta-800":
                ref = outputs.get("classify-b200")
                ok = code == 2 or (code == 0 and ref is not None and abs(
                    outputs[op.label].result["f_star"] - ref.result["f_star"]) <= oracles.BAND)
            else:
                ok = code == 0
            if not ok:
                failed.append(op.label)
        return outputs, failed

    # -- checks ------------------------------------------------------------

    def check(self, outputs: dict) -> list:
        """Errors found in one pass's outputs; empty when all are right."""
        if self.name == "cli-queries":
            return self._check_queries(outputs)
        errors = []
        for label, out in outputs.items():
            _, set_id, beta, _, how = self.specs[label]
            hits = round(out.result["fraction"] * self.n)
            err = self._check_volume(how, float(beta), hits, out.result["fraction"])
            if err:
                errors.append(f"{label}: {err}")
        return errors

    def _check_volume(self, how, beta, hits, fraction):
        n, seed = self.n, self.seed
        if how == "third":
            sigma = math.sqrt((1 / 3) * (2 / 3) / n)
            ok = abs(fraction - 1 / 3) <= 4 * sigma
            return None if ok else f"fraction {fraction} is beyond 4 sigma of 1/3"
        if how == "zero":
            return None if hits == 0 else f"{hits} hits where none can be"
        expect = band = 0
        for Q in oracles.simplex_blocks(seed, n):
            if how == "witness":
                expect += int((oracles.witness(Q) < -oracles.TAU_F).sum())
                continue
            fs = oracles.fstar(Q, oracles.gibbs(beta))
            tne = oracles.min_witness_over_perms(Q) if how == "perm-witness" else fs
            expect += int((tne >= -oracles.TAU_F).sum())
            band += int((np.abs(fs) < oracles.BAND).sum())
        if abs(hits - expect) > band:
            return f"{hits} hits, oracle {expect} (rows in the band: {band})"
        return None

    def _check_queries(self, outputs):
        from thermalent.core import PopVector, two_qubit_context
        from thermalent.entangle import tne_bruteforce

        errors = []
        for i, state in enumerate(self.states):
            p = np.array([float(x) for x in state.split(",")])
            for beta in QUERY_BETAS:
                cls = outputs.get(f"classify-s{i}-b{beta}")
                cone = outputs.get(f"cone-s{i}-b{beta}")
                where = f"state {state} beta {beta}"
                if cone is not None:
                    V = np.array([v["probs"] for v in cone.result["extremes"]])
                    if np.abs(V.sum(axis=1) - 1).max() > oracles.BAND or V.min() < 0:
                        errors.append(f"cone {where}: a vertex is not a distribution")
                if cls is None:
                    continue
                res = cls.result
                f = None if beta == "inf" else oracles.fstar(
                    p[None, :], oracles.gibbs(float(beta)))[0]
                if beta == "0":
                    f_perm = oracles.min_witness_over_perms(p[None, :])[0]
                    want = None if abs(f) < oracles.BAND else f_perm < -oracles.TAU_F
                elif beta == "1":
                    want = not tne_bruteforce(PopVector(p), two_qubit_context(1.0))
                else:
                    want = tuple(p) != GROUND
                if want is not None and res["in_TE"] != want:
                    errors.append(f"classify {where}: in_TE {res['in_TE']}, oracle {want}")
                if f is not None:
                    if abs(res["f_star"] - f) > oracles.BAND:
                        errors.append(f"classify {where}: f* {res['f_star']}, oracle {f}")
                if cone is not None:
                    vmax = oracles.vertex_max_negativity(V)
                    if abs(res["max_negativity"] - vmax) > oracles.BAND:
                        errors.append(f"classify {where}: max_negativity "
                                      f"{res['max_negativity']}, vertex maximum {vmax}")
        errors += self._check_critical(outputs)
        errors += self._check_curves(outputs)
        errors += self._check_boundaries(outputs)
        return errors

    def _check_critical(self, outputs):
        """Every reported root flips the verdict, and there are as many roots
        as the oracle's own scan of f* finds sign changes."""
        errors = []
        cases = {
            "critical-thermal": (oracles.thermal_state(BETA_S), (0.0, 2.0 * BETA_S),
                                 lambda r: [r[k] for k in ("beta_c1", "beta_c2")
                                            if r[k] is not None]),
            "critical-state": (np.array([float(x) for x in CRITICAL_STATE.split(",")]),
                               CRITICAL_RANGE, lambda r: r["crossings"]),
        }
        for label, (p, (lo, hi), roots_of) in cases.items():
            out = outputs.get(label)
            if out is None:
                continue
            roots = roots_of(out.result)
            want = oracles.sign_changes(p, lo, hi, SCAN_POINTS)
            if len(roots) != want:
                errors.append(f"{label}: {len(roots)} roots {roots}, the oracle's "
                              f"scan of [{lo:g}, {hi:g}] finds {want} sign changes")
            for root in roots:
                if not lo <= root <= hi or not oracles.sign_flips_at(p, root):
                    errors.append(f"{label}: no verdict flip at {root} in [{lo:g}, {hi:g}]")
        return errors

    def _check_curves(self, outputs):
        errors = []
        cases = {"curve-qutrit": ("0.7,0.2,0.1", 0.5, (0.0, 1.0, 2.0)),
                 "curve-seeded": (self.states[-1], 1.0, (0.0, 1.0, 1.0, 2.0))}
        for label, (state, beta, energies) in cases.items():
            out = outputs.get(label)
            if out is None:
                continue
            p = np.array([[float(x) for x in state.split(",")]])
            xy = np.array(out.result)
            want = oracles.curve_at(p, oracles.gibbs(beta, energies), xy[:, 0])[0]
            if np.abs(xy[:, 1] - want).max() > oracles.BAND:
                errors.append(f"{label}: curve off the oracle by "
                              f"{np.abs(xy[:, 1] - want).max():.3g}")
        return errors

    def _check_boundaries(self, outputs):
        errors = []
        for beta in ("0", "1"):
            label = f"boundary-b{beta}"
            out = outputs.get(label)
            if out is None:
                continue
            pts = np.array(out.result)
            fs = np.abs(oracles.fstar(pts, oracles.gibbs(float(beta))))
            if len(pts) == 0 or fs.max() > 1e-8 or np.abs(pts.sum(axis=1) - 1).max() > 1e-9:
                errors.append(f"{label}: points off the f* = 0 surface")
            lines = out.mesh.splitlines()
            nv = sum(1 for ln in lines if ln.startswith("v "))
            faces = [int(t) for ln in lines if ln.startswith("f ") for t in ln.split()[1:]]
            if nv < 4 or not faces or min(faces) < 1 or max(faces) > nv:
                errors.append(f"{label}: malformed hull mesh")
        return errors


def seeded_states(seed: int, verdicts) -> list:
    """Uniform draws from the simplex, ``numpy.random.default_rng(seed)``'s
    Dirichlet(1, 1, 1, 1), each kept when the oracle's verdicts at beta 0 and
    beta 1 are the ones asked for and its f* lies outside the band at both."""
    rng = np.random.default_rng(seed)
    gammas = (oracles.gibbs(0.0), oracles.gibbs(1.0))
    states = []
    for want in verdicts:
        while True:
            p = rng.dirichlet(np.ones(4))
            fs = [oracles.fstar(p[None, :], g)[0] for g in gammas]
            if (all(abs(f) >= oracles.BAND for f in fs)
                    and tuple(f < -oracles.TAU_F for f in fs) == want):
                break
        states.append(p)
    return states


def read_output(op: Op) -> Output:
    data = op.out.read_bytes()
    size = len(data)
    m = _WALL_TIME.search(data)
    if m:
        size -= len(m.group(1))
    # the scratch directory's path depends on where the checkout lies
    scratch = str(op.out.parent).encode()
    size -= data.count(scratch) * len(scratch)
    mesh = None
    if op.mesh is not None:
        mesh = op.mesh.read_text(encoding="utf-8")
        size += len(mesh.encode())
    text = data.decode("utf-8")
    if text.startswith("{"):
        result = json.loads(text)["result"]
        payload = json.dumps(result, sort_keys=True).encode()
    else:
        rows = text.splitlines()[2:]  # manifest comment, header
        result = [[float(v) for v in row.split(",")] for row in rows]
        payload = "\n".join(rows).encode()
    return Output(result=result, payload=payload, size=size, mesh=mesh)
