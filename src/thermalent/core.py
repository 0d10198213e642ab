"""States, Gibbs contexts and level orderings for energy-incoherent systems.

Everything here is immutable after construction and safe to share between
workers.  Level indices in public interfaces are 1-based, matching the usual
physics convention for labelling energy levels; internal numpy work is
0-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

#: normalization tolerance for probability vectors
TAU_NORM = 1e-10

#: smallest Gibbs weight usable at finite beta: the smallest normal double,
#: so that population-to-weight ratios cannot overflow
_SMALLEST_WEIGHT = np.finfo(float).tiny


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def deg_tolerance(energies) -> float:
    """Absolute tolerance used to group nearly-equal energy values."""
    emax = max((abs(e) for e in energies), default=0.0)
    return 1e-9 * emax if emax > 0 else 1e-12


@dataclass(frozen=True)
class GibbsContext:
    """Energy spectrum plus an ambient inverse temperature.

    ``gamma`` holds the equilibrium populations exp(-beta*E_i)/Z.  ``beta``
    may be ``math.inf``, in which case ``gamma`` is uniform over the
    minimal-energy levels and exactly zero elsewhere.
    """

    energies: tuple
    beta: float
    gamma: np.ndarray = field(compare=False)

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def beta_is_infinite(self) -> bool:
        return math.isinf(self.beta)

    def checked_gamma(self) -> np.ndarray:
        """``gamma`` for the curve kernel, which reads a zero weight as beta = inf.

        Raises ValueError when a finite beta has weights that underflowed to
        zero or to subnormals (whose ratios overflow), or that are NaN, rather
        than silently switching to zero-temperature semantics.
        """
        if not self.beta_is_infinite and not self.gamma.min() >= _SMALLEST_WEIGHT:
            raise ValueError(
                f"Gibbs weights underflow at beta={self.beta:g} (smallest "
                f"{self.gamma.min():.3g}); pass beta=inf for the zero-temperature limit")
        return self.gamma


def make_context(energies, beta) -> GibbsContext:
    """Build a Gibbs context from level energies and inverse temperature.

    Weights are exp(-beta*(E - E_min)), so none overflows, and one whose
    exponent overflows is zero (``checked_gamma`` rejects it).  ``beta=inf``
    selects the zero-temperature limit: uniform weight on the ground levels.
    """
    energies = tuple(float(e) for e in energies)
    if not energies:
        raise ValueError("energies must be non-empty")
    if not (all(map(math.isfinite, energies)) and math.isfinite(max(energies) - min(energies))):
        raise ValueError("energies and their spread must be finite")
    beta = float(beta)
    if math.isnan(beta) or beta < 0:
        raise ValueError(f"beta must be >= 0 or inf, got {beta}")

    e = np.array(energies)
    if math.isinf(beta):
        tol = deg_tolerance(energies)
        ground = np.abs(e - e.min()) <= tol
        gamma = ground / ground.sum()
    else:
        gamma = _gibbs_rows(e, beta)
    return GibbsContext(energies=energies, beta=beta, gamma=_readonly(gamma))


def _gibbs_rows(e: np.ndarray, betas) -> np.ndarray:
    """Gibbs weights exp(-beta*(E - E_min)) / Z of the levels ``e`` for a
    finite beta, or one row per beta of an array; unchecked, so a weight
    whose exponent overflows is zero."""
    with np.errstate(over="ignore"):
        w = np.multiply.outer(-np.asarray(betas), e - e.min())
        np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def two_qubit_context(beta, gap: float = 1.0) -> GibbsContext:
    """Context of two non-interacting qubits with a common gap: (0, E, E, 2E)."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    return make_context((0.0, gap, gap, 2.0 * gap), beta)


def is_two_qubit_context(ctx: GibbsContext) -> bool:
    """True when the spectrum has the (c, c+E, c+E, c+2E) two-qubit shape."""
    if ctx.dim != 4:
        return False
    e = np.array(ctx.energies) - ctx.energies[0]
    gap = e[1]
    if gap <= 0:
        return False
    tol = deg_tolerance(ctx.energies) + 1e-12
    return bool(abs(e[2] - gap) <= tol and abs(e[3] - 2 * gap) <= tol)


@dataclass(frozen=True)
class PopVector:
    """A point of the probability simplex: populations of energy levels."""

    probs: np.ndarray

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < -TAU_NORM:
            raise ValueError(f"negative probability {p.min()}")
        p = np.clip(p, 0.0, None)
        with np.errstate(over="ignore"):  # a sum that overflows is inf, and rejected
            total = p.sum()
        if abs(total - 1.0) > TAU_NORM:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def dim(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, PopVector) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


def pop_vector(probs, renorm: bool = False) -> PopVector:
    """Validate (optionally renormalize) raw numbers into a ``PopVector``.
    Renormalizing clips negative entries to 0 and divides by the sum, after
    scaling by the largest entry only if the sum overflows."""
    if renorm:
        p = np.array(probs, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        p = np.clip(p, 0.0, None)
        with np.errstate(over="ignore"):
            if p.sum() == np.inf:
                p /= p.max()
        s = p.sum()
        if s <= 0:
            raise ValueError("cannot renormalize an all-zero vector")
        return PopVector(p / s)
    return PopVector(probs)


@dataclass(frozen=True)
class BetaOrdering:
    """Permutation (pi(1), ..., pi(d)) listing levels by non-increasing p/gamma."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        d = len(perm)
        if sorted(perm) != list(range(1, d + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{d}")
        object.__setattr__(self, "perm", perm)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def zero_based(self) -> np.ndarray:
        return np.array(self.perm, dtype=int) - 1


PI_STAR = BetaOrdering((2, 1, 3, 4))


#: columns per tile of the batch calls and of a volume's sample stream.  A
#: tile is level-major, one contiguous row per level.  Its steps allocate as
#: numpy does, and only the sampler refills its buffers, so a volume stream
#: holds a few (levels, CHUNK) arrays, under 2 MB.  A tile also costs some
#: 50 numpy calls whatever its size, so larger tiles run faster
CHUNK = 8192


def row_blocks(rows):
    """``rows`` (a 2-D array, or a list of rows) in slices of CHUNK rows, each
    with its entries in row order as Python objects.  The text writers fill a
    %-template a block at a time, so that only one block's entries are Python
    objects at once."""
    for lo in range(0, len(rows), CHUNK):
        block = rows[lo:lo + CHUNK]
        yield block, (block.ravel().tolist() if isinstance(block, np.ndarray)
                      else [v for row in block for v in row])


#: largest dimension whose orderings are read from a table of every pair
#: code (2^(d(d-1)/2) entries: 64 at four levels, 32,768 at six); it covers
#: every spectrum the package defines
MAX_DENSE_DIM = 6


@functools.cache
def _pairs(d: int) -> tuple:
    """The pairs of levels i < j of d levels, as index arrays (I, J), and
    the bit of each pair in a pair code, as a column."""
    I, J = np.triu_indices(d, 1)
    bit = np.arange(I.size, dtype=np.uint16)[:, None]
    for a in (I, J, bit):
        a.setflags(write=False)
    return I, J, bit


def _pair_bits(P: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """For each pair of levels i < j, in the order of ``_pairs``, whether
    level i goes before level j in each column of the level-major (d, n) tile
    P: a (d(d-1)/2, n) bool array.  ``gammas`` is one (d,) Gibbs vector
    shared by every column, or a positive (d, n) tile, one per column.

    Level i goes first when its population-to-Gibbs ratio is >= level j's,
    so ties go to the lower index.  A zero weight of a shared vector
    (infinite beta) has no finite ratio: a populated zero-weight level goes
    before every weighted one and an unpopulated one after, and two
    zero-weight levels compare by population, the larger first.  So each
    pair takes one comparison: of the ratios when both weights are positive,
    of the populations when both are zero, and otherwise whether the
    zero-weight level is populated.
    """
    d, n = P.shape
    I, J, _ = _pairs(d)
    R, B = np.empty((d, n)), np.empty((len(I), n), bool)
    weighted = (gammas > 0).tolist() if gammas.ndim == 1 else [bool((gammas > 0).all())] * d
    if all(weighted):
        np.divide(P, gammas if gammas.ndim == 2 else gammas[:, None], out=R)
    elif gammas.ndim == 2:
        raise ValueError("per-row Gibbs weights must be positive; share one vector at beta = inf")
    else:
        for i in np.flatnonzero(gammas):
            np.divide(P[i], gammas[i], out=R[i])
    for k, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
        if weighted[i] and weighted[j]:
            np.greater_equal(R[i], R[j], out=B[k])
        elif not (weighted[i] or weighted[j]):
            np.greater_equal(P[i], P[j], out=B[k])
        elif weighted[j]:
            np.greater(P[i], 0.0, out=B[k])
        else:
            np.less_equal(P[j], 0.0, out=B[k])
    return B


def _orders_from_bits(bits: np.ndarray, d: int) -> np.ndarray:
    """Level-major orderings from pair bits, column r listing row r's levels
    by rank: a level's rank is the number of levels that go before it."""
    n = bits.shape[1]
    rank = np.zeros((d, n), dtype=np.intp)
    I, J, _ = _pairs(d)
    for i, j, first in zip(I, J, bits):
        rank[j] += first
        rank[i] += ~first
    levels = np.zeros((d, n), dtype=np.intp)
    np.put_along_axis(levels, rank, np.arange(d)[:, None], axis=0)
    return levels


def ordering_codes(P: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Pair code of every column of a level-major tile, for up to
    MAX_DENSE_DIM levels (at most 15 pairs, so a code fits in 16 bits): bit
    k is row k of ``_pair_bits``, in an intp array.

    Each byte of the code is packed in place in the top row of its eight
    bits, read as bytes, by Horner's rule from its highest bit: adding a
    byte to itself shifts it by one, and numpy adds bytes several times
    faster than it shifts them.  The bits are spent."""
    bits = _pair_bits(P, gammas).view(np.uint8)
    code = np.empty(bits.shape[1:], np.intp)
    for lo in range(0, len(bits), 8)[::-1]:
        group = bits[lo:lo + 8]
        byte = group[-1]
        for row in group[-2::-1]:
            byte += byte
            byte |= row
        if lo + 8 < len(bits):
            code <<= 8
            code |= byte
        else:
            np.copyto(code, byte)
    return code


@functools.cache
def orderings(d: int) -> np.ndarray:
    """The d! zero-based orderings of d levels in lexicographic order, one
    per row (read-only).  An ordering's row is its class."""
    return _readonly(np.array(list(itertools.permutations(range(d))), np.intp).reshape(-1, d))


@functools.cache
def _code_tables(d: int) -> tuple:
    """``(levels, classes)``, indexed by the pair codes of d <= MAX_DENSE_DIM
    levels: column c of the (d, codes) ``levels`` lists by rank the levels of
    the ordering whose code is c, and ``classes[c]`` is its class (both
    read-only).  Codes that no ordering produces are never read."""
    orders, (I, J, bit) = orderings(d), _pairs(d)
    rank = np.empty_like(orders)
    np.put_along_axis(rank, orders, np.arange(d), axis=1)
    codes = ((rank[:, I] < rank[:, J]).astype(np.intp) << bit.astype(np.intp).T).sum(axis=1)
    levels, classes = np.zeros((d, 2 ** len(I)), np.intp), np.zeros(2 ** len(I), np.intp)
    levels[:, codes], classes[codes] = orders.T, np.arange(len(orders))
    return _readonly(levels), _readonly(classes)


def _tile_levels(P: np.ndarray, gammas: np.ndarray) -> tuple:
    """``(levels, cls)`` of the level-major (d, n) tile P, ``gammas`` as for
    ``_pair_bits``: each column's ordering by non-increasing
    population-to-Gibbs ratio, as a (d, n) intp array whose row k holds the
    level of rank k, and up to MAX_DENSE_DIM levels its class (None above).
    Each ordering is fixed by the pairwise comparisons of ``_pair_bits``.  Up
    to MAX_DENSE_DIM levels they are packed into a pair code, which indexes
    ``_code_tables``; above, each level's rank is counted from them."""
    d = len(P)
    if d > MAX_DENSE_DIM:
        return _orders_from_bits(_pair_bits(P, gammas), d), None
    code, (levels, classes) = ordering_codes(P, gammas), _code_tables(d)
    return np.take(levels, code, axis=1, mode="clip"), np.take(classes, code, mode="clip")
