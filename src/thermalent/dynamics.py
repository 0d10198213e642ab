"""Density-matrix level protocols: cavity preconditioning, two-level
partial thermalizations, and the catalytic activation example.

The cavity protocol couples one qubit resonantly to a thermal bosonic mode
(truncated at ``n_max`` photons), picks the interaction time that maximizes
population transfer into the degenerate energy subspace, then applies the
optimal subspace rotation and reports the negativity of the resulting state.
Everything is evolved exactly inside the excitation-conserving 2x2 blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import GibbsContext, PopVector, two_qubit_context
from .entangle import _as_probs, is_thermally_entanglable, max_negativity, witness_batch, witness_f
from .majorization import thermo_majorizes

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
POS_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive."""

    dim: int
    entries: np.ndarray = field(compare=False)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.abs(m - m.conj().T).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, not 1")
        if np.linalg.eigvalsh(m).min() < -POS_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "entries", m)

    def populations(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()


def partial_transpose(entries: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit matrix over its first qubit."""
    m = np.asarray(entries, dtype=complex).reshape(2, 2, 2, 2)
    return m.transpose(2, 1, 0, 3).reshape(4, 4)


def negativity(entries: np.ndarray) -> float:
    """Sum of the absolute values of negative partial-transpose eigenvalues."""
    eig = np.linalg.eigvalsh(partial_transpose(entries))
    return float(-eig[eig < 0].sum())


def apply_subspace_rotation(q, theta: float, phi: float = 0.0) -> DensityMatrix:
    """Rotate the degenerate middle block of diagonal populations ``q``.

    Produces the explicit 4x4 matrix with coherence only between |01> and
    |10>; the phase ``phi`` never affects spectra.
    """
    a = _as_probs(q)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    coh = 0.5 * (a[2] - a[1]) * math.sin(2.0 * theta) * np.exp(1j * phi)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = a[0]
    m[1, 1] = a[1] * c2 + a[2] * s2
    m[2, 2] = a[1] * s2 + a[2] * c2
    m[1, 2] = coh
    m[2, 1] = np.conj(coh)
    m[3, 3] = a[3]
    return DensityMatrix(m)


# ---------------------------------------------------------------------------
# Cavity preconditioning protocol
# ---------------------------------------------------------------------------

#: lowest product beta*E the truncated mode supports by default
MIN_BETA_E = 0.2

TAIL_TOL = 1e-8

#: interaction times scanned on [0, T_MAX], in units of the inverse coupling
TIME_GRID = 2048
T_MAX = 20.0 * math.pi

#: largest Fock truncation: the transfer scan holds TIME_GRID x (n_max + 1)
#: doubles, at most 2**24 (128 MB)
MAX_N_MAX = 2**24 // TIME_GRID - 1


@dataclass(frozen=True)
class JCConfig:
    """Configuration of the two-step cavity protocol."""

    initial: str            # "00" (both ground) or "11" (both excited)
    beta_E: float           # product of inverse temperature and gap
    n_max: int = 20         # Fock-space truncation

    def __post_init__(self):
        if self.initial not in ("00", "11"):
            raise ValueError("initial must be '00' or '11'")
        if not self.beta_E > 0:
            raise ValueError(f"beta_E must be positive, got {self.beta_E}")
        if self.beta_E == math.inf:
            raise ValueError("beta_E must be finite, got inf")
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must lie in 1..{MAX_N_MAX}, got {self.n_max}; the "
                             f"default truncation passes the cap for beta_E below about "
                             f"{-math.log(TAIL_TOL) / MAX_N_MAX:.2g}")


def suggest_n_max(beta_E: float) -> int:
    """Smallest truncation whose thermal tail mass stays below TAIL_TOL."""
    if not beta_E > 0:
        raise ValueError(f"beta_E must be positive, got {beta_E}")
    if beta_E == math.inf:
        raise ValueError("beta_E must be finite, got inf")
    n = math.log(TAIL_TOL) / -beta_E
    if math.isinf(n):
        raise ValueError(f"beta_E = {beta_E:g} needs an unbounded Fock truncation; "
                         f"n_max is capped at {MAX_N_MAX}")
    return math.ceil(n) + 1


def thermal_mode_weights(beta_E: float, n_max: int) -> np.ndarray:
    """Truncated geometric photon-number distribution of the thermal mode."""
    delta = math.exp(-beta_E)
    tail = delta ** (n_max + 1)
    if tail >= TAIL_TOL:
        raise ValueError(
            f"truncated tail mass {tail:.2e} >= {TAIL_TOL}; "
            f"increase n_max to at least {suggest_n_max(beta_E)}")
    w = delta ** np.arange(n_max + 1)
    return w / w.sum()


def _transfer_prob(t, weights: np.ndarray, initial: str):
    """Probability that the coupled qubit flips after interacting for ``t``.

    From |0>: sum_n w_n sin^2(sqrt(n) t) over occupied levels; from |1>:
    sum_n w_n sin^2(sqrt(n+1) t), with t in units of the inverse coupling.
    Exact within each excitation block.
    """
    n = np.arange(weights.size)
    freq = np.sqrt(n) if initial == "00" else np.sqrt(n + 1)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.sin(np.outer(t, freq)) ** 2
    out = s @ weights
    return out if out.size > 1 else float(out[0])


def _golden_max(fn, a: float, b: float, tol: float = 1e-10) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class JCResult:
    optimal_time: float
    ground_pop: float      # residual population of the initial product state
    negativity: float


def jc_protocol(cfg: JCConfig) -> JCResult:
    """Optimal-time cavity preconditioning followed by the entangling rotation.

    Scans the interaction time, refines the best grid point by golden
    section, and reports the negativity of the rotated final state.
    """
    weights = thermal_mode_weights(cfg.beta_E, cfg.n_max)
    ts = np.linspace(0.0, T_MAX, TIME_GRID)
    vals = _transfer_prob(ts, weights, cfg.initial)
    k = int(np.argmax(vals))
    dt = ts[1] - ts[0]
    lo = max(0.0, ts[k] - dt)
    hi = min(T_MAX, ts[k] + dt)
    t_opt = _golden_max(lambda t: _transfer_prob(t, weights, cfg.initial), lo, hi)
    transfer = _transfer_prob(t_opt, weights, cfg.initial)

    residual = 1.0 - transfer
    if cfg.initial == "00":
        pops = PopVector([residual, transfer, 0.0, 0.0])
    else:
        pops = PopVector([0.0, 0.0, transfer, residual])
    return JCResult(optimal_time=float(t_opt), ground_pop=float(residual),
                    negativity=max_negativity(pops))


def jc_joint_evolution(initial_qubit: int, beta_E: float, n_max: int,
                       t: float) -> DensityMatrix:
    """Exact joint qubit+mode state after interacting for time ``t`` (in units
    of the inverse coupling).

    Basis |q, n> with index q*(n_max+1) + n.  Used to cross-check the
    block-wise transfer probabilities and the excitation-conserving block
    structure.
    """
    if initial_qubit not in (0, 1):
        raise ValueError("initial_qubit must be 0 or 1")
    weights = thermal_mode_weights(beta_E, n_max)
    nm = n_max + 1
    u = np.eye(2 * nm, dtype=complex)
    for n in range(n_max):
        th = math.sqrt(n + 1) * t
        i, j = nm + n, n + 1          # |1, n> and |0, n+1>
        u[i, i] = u[j, j] = math.cos(th)
        u[i, j] = u[j, i] = -1j * math.sin(th)
    rho0 = np.zeros((2 * nm, 2 * nm), dtype=complex)
    off = initial_qubit * nm
    rho0[off:off + nm, off:off + nm] = np.diag(weights)
    return DensityMatrix(u @ rho0 @ u.conj().T)


# ---------------------------------------------------------------------------
# Two-level partial thermalizations (Markovian building blocks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalizationSchedule:
    """Sequence of ((i, j), strength) two-level partial thermalizations.

    Level pairs are 1-based; each strength lambda in [0, 1] corresponds to
    evolving the detailed-balanced pair generator for time -log(1-lambda)/r.
    """

    steps: tuple

    def __init__(self, steps):
        norm = []
        for pair, lam in steps:
            i, j = int(pair[0]), int(pair[1])
            lam = float(lam)
            if i == j:
                raise ValueError(f"pair ({i}, {j}) must couple two distinct levels")
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"strength {lam} outside [0, 1]")
            norm.append(((i, j), lam))
        object.__setattr__(self, "steps", tuple(norm))

    def __len__(self):
        return len(self.steps)


def _step_table(ctx: GibbsContext, steps) -> tuple:
    """Zero-based level pairs, strengths and equilibrium shares of the pair's
    first level for ``((i, j), lam)`` steps: arrays with one entry per step."""
    rows = []
    for (i, j), lam in steps:
        if not (1 <= i <= ctx.dim and 1 <= j <= ctx.dim):
            raise ValueError(f"pair {(i, j)} outside 1..{ctx.dim}")
        de = ctx.energies[j - 1] - ctx.energies[i - 1]
        if ctx.beta_is_infinite:
            share = 0.5 if de == 0 else (1.0 if de > 0 else 0.0)
        elif de >= 0:
            share = 1.0 / (1.0 + math.exp(-ctx.beta * de))
        else:
            # the same logistic with an exponent <= 0, so it cannot overflow
            e = math.exp(ctx.beta * de)
            share = e / (1.0 + e)
        rows.append((i - 1, j - 1, lam, share))
    i0, j0, lam, share = np.array(rows, dtype=float).reshape(-1, 4).T
    return i0.astype(int), j0.astype(int), lam, share


def _apply_step(p: np.ndarray, table: tuple) -> np.ndarray:
    """``p`` after each step of a ``_step_table`` applied alone: one row per step."""
    i0, j0, lam, share = table
    s = p[i0] + p[j0]
    out = np.tile(p, (lam.size, 1))
    rows = np.arange(lam.size)
    out[rows, i0] = (1.0 - lam) * p[i0] + lam * share * s
    out[rows, j0] = (1.0 - lam) * p[j0] + lam * (1.0 - share) * s
    return out


def apply_schedule(p: PopVector, ctx: GibbsContext,
                   schedule: ThermalizationSchedule) -> list:
    """Run a schedule of partial thermalizations; returns the trajectory
    (initial state included)."""
    if p.dim != ctx.dim:
        raise ValueError("dimension mismatch")
    traj, cur = [p], p.probs
    for step in schedule.steps:
        cur = _apply_step(cur, _step_table(ctx, [step]))[0]
        traj.append(PopVector(cur))
    return traj


@dataclass(frozen=True)
class MtpSearchResult:
    best_f: float
    schedule: ThermalizationSchedule
    best_state: PopVector
    evaluations: int


def mtp_entangle_search(p: PopVector, ctx: GibbsContext, strategy: str = "greedy",
                        budget: int = 10_000) -> MtpSearchResult:
    """Search partial-thermalization schedules that minimize the witness.

    An explicit under-approximation of Markovian reachability: moves are
    restricted to two-level partial thermalizations with discretized
    strengths.  ``budget`` caps the number of candidate evaluations.
    """
    if p.dim != 4 or ctx.dim != 4:
        raise ValueError("search is defined for 4-level systems")
    if budget < 1:
        raise ValueError("budget must be positive")
    if strategy not in ("greedy", "beam"):
        raise ValueError("strategy must be 'greedy' or 'beam'")
    actions = [((i, j), k / 10.0) for i in range(1, 5) for j in range(i + 1, 5)
               for k in range(1, 11)]
    table, n = _step_table(ctx, actions), len(actions)
    width = 1 if strategy == "greedy" else 8

    best_f, best_sched, best_state = witness_f(p), (), p.probs
    beams = [(best_f, p.probs, ())]
    evals = 0
    while evals < budget:
        scored = []
        for _, state, sched in beams:
            nxt = _apply_step(state, table)[:budget - evals]
            f = witness_batch(nxt)
            evals += f.size
            # in candidate order, the best moves only on a strict improvement
            for k in np.flatnonzero(f < best_f - 1e-15).tolist():
                if f[k] < best_f - 1e-15:
                    best_f, best_state, best_sched = float(f[k]), nxt[k], sched + (actions[k],)
            scored.append((f, nxt))
            if evals >= budget:
                break
        f, nxt = (np.concatenate(a) for a in zip(*scored))
        top = np.argsort(f, kind="stable")[:width]
        if f[top[0]] >= beams[0][0] - 1e-15:
            break  # converged: no strict improvement available
        beams = [(f[c], nxt[c], beams[c // n][2] + (actions[c % n],)) for c in top]
    return MtpSearchResult(best_f=best_f,
                           schedule=ThermalizationSchedule(best_sched),
                           best_state=PopVector(best_state),
                           evaluations=evals)


# ---------------------------------------------------------------------------
# Catalytic activation, verified in exact arithmetic
# ---------------------------------------------------------------------------

class CatalysisError(AssertionError):
    """A regression in the exact catalysis bookkeeping."""


#: two-qubit system populations (|00>, |01>, |10>, |11>)
CATALYSIS_SYSTEM = (Fraction(2, 5), Fraction(1, 4), Fraction(33, 100), Fraction(1, 50))

#: qubit catalyst populations (|0>, |1>)
CATALYSIS_CATALYST = (Fraction(73, 100), Fraction(27, 100))

#: expected system populations after the catalytic cycle
CATALYSIS_EXPECTED = (Fraction(949, 2000), Fraction(613, 5000),
                      Fraction(771, 2500), Fraction(189, 2000))

#: the catalytic unitary as the target of each basis state |abc> (system ab,
#: catalyst c, index 4a + 2b + c): |001> <-> |010>, |011> -> |101> -> |110> -> |011>
CATALYSIS_TARGET = (0, 2, 1, 5, 4, 6, 3, 7)


@dataclass(frozen=True)
class CatalysisReport:
    passed: bool
    unitary_commutes: bool
    catalyst_restored: bool
    system_matches: bool
    initial_in_tne: bool
    final_in_te: bool
    system_final: tuple
    catalyst_final: tuple


def verify_catalysis(strict: bool = True) -> CatalysisReport:
    """Replay the catalytic activation in exact rational arithmetic.

    Relabels the populations of system x catalyst by the unitary, traces out
    the catalyst, and checks: the catalyst returns exactly, the system lands
    exactly on the published populations, the unitary commutes with the
    joint Hamiltonian (it keeps each state's excitation number a + b + c), and
    the infinite-temperature verdict flips from non-entanglable to entanglable.
    """
    rho, omega = CATALYSIS_SYSTEM, CATALYSIS_CATALYST
    sigma = [Fraction(0)] * 8
    for s, t in enumerate(CATALYSIS_TARGET):
        sigma[t] += rho[s >> 1] * omega[s & 1]
    commutes = (sorted(CATALYSIS_TARGET) == list(range(8))
                and all(bin(s).count("1") == bin(t).count("1")
                        for s, t in enumerate(CATALYSIS_TARGET)))
    sys_final = tuple(sigma[2 * ab] + sigma[2 * ab + 1] for ab in range(4))
    cat_final = tuple(sum(sigma[c::2]) for c in range(2))

    catalyst_restored = cat_final == omega
    system_matches = sys_final == CATALYSIS_EXPECTED

    ctx0 = two_qubit_context(0.0)
    initial_in_tne = not is_thermally_entanglable(
        PopVector([float(x) for x in rho]), ctx0).in_TE
    final_in_te = is_thermally_entanglable(
        PopVector([float(x) for x in sys_final]), ctx0).in_TE

    passed = commutes and catalyst_restored and system_matches and initial_in_tne and final_in_te
    report = CatalysisReport(
        passed=passed, unitary_commutes=commutes, catalyst_restored=catalyst_restored,
        system_matches=system_matches, initial_in_tne=initial_in_tne,
        final_in_te=final_in_te, system_final=sys_final, catalyst_final=cat_final)
    if strict and not passed:
        raise CatalysisError(f"catalysis regression: {report}")
    return report


def trajectory_in_cone(p: PopVector, ctx: GibbsContext, trajectory) -> bool:
    """Oracle: every trajectory state is reachable from ``p`` (curve test)."""
    return all(thermo_majorizes(p, q, ctx) for q in trajectory)
