"""Truth tables and structural analysis of Boolean functions.

A function f on n variables is stored as an integer bitmask: bit m of
``bits`` holds f(m), where bit (i-1) of the input code m is the value of
variable x_i (so x_1 is the least-significant bit of the code).
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruthTable",
    "NpnTransform",
    "MultilinearPoly",
    "MonotoneNormalForm",
    "parse_function",
    "table_and",
    "table_or",
    "table_parity",
    "table_nae",
    "table_exact",
    "table_threshold",
    "DEPTH_MAX_ARITY",
    "MULTILINEAR_MAX_ARITY",
    "NPN_MAX_ARITY",
]

DEPTH_MAX_ARITY = 12
MULTILINEAR_MAX_ARITY = 20
NPN_MAX_ARITY = 6


# ---------------------------------------------------------------------------
# cached per-arity bit masks


@functools.cache
def _var_masks(n: int) -> list[int]:
    """masks[p] has bit m set iff bit p of m is 1, over all m < 2**n."""
    size = 1 << n
    masks = []
    for p in range(n):
        blk = 1 << p
        seg = ((1 << blk) - 1) << blk  # one block of ones per period 2*blk
        period = blk << 1
        while period < size:
            seg |= seg << period
            period <<= 1
        masks.append(seg)
    return masks


@functools.cache
def _swap_masks(n: int) -> list[tuple[int, int, int, int]]:
    """For q = 2..n: (mask, shift) pairs testing x_1 <-> x_q and
    x_1 <-> not x_q.

    Swapping x_1 with x_q moves the codes with x_1 = 1, x_q = 0 up by
    2**(q-1) - 1; swapping x_1 with not x_q moves the codes with
    x_1 = x_q = 0 up by 2**(q-1) + 1. Every other code is fixed.
    """
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    got = []
    for p in range(1, n):
        blk = 1 << p
        got.append((masks[0] & ~masks[p], blk - 1,
                    full ^ (masks[0] | masks[p]), blk + 1))
    return got


@functools.cache
def _popcnt(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.uint8)


@functools.cache
def _weight_masks(n: int) -> list[int]:
    pc = _popcnt(n)
    return [_pack_values((pc == w).astype(np.uint8)) for w in range(n + 1)]


def _unpack_values(bits: int, n: int) -> np.ndarray:
    """Table bits -> uint8 array of length 2**n."""
    size = 1 << n
    nbytes = max(1, size >> 3)
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size]


def _pack_values(values: np.ndarray) -> int:
    raw = np.packbits(values.astype(np.uint8), bitorder="little").tobytes()
    return int.from_bytes(raw, "little")


@functools.cache
def _compaction_masks(n: int) -> list[tuple[int, int, int]]:
    """Entry p is (a, s, a << s), with s = 2**p and a the codes m < 2**n
    whose bits p and p + 1 are both 0: the block-pair merge that moves
    bit p + 1 of the code down to bit p."""
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    got = []
    for p in range(n - 1):
        a = ~masks[p] & ~masks[p + 1] & full
        got.append((a, 1 << p, a << (1 << p)))
    return got


def _restrict_bits(bits: int, n: int, p: int, b: int) -> int:
    """Fix bit position p of the input code to b and compact to arity n-1."""
    if b:
        bits >>= 1 << p
    # entries now sit where bit p of the code is 0; merge block pairs upward
    for a, s, high in _compaction_masks(n)[p:]:
        bits = (bits & a) | ((bits >> s) & high)
    return bits & ((1 << (1 << (n - 1))) - 1)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NpnTransform:
    """Variable permutation + input negations + optional output negation.

    Applying t to f yields g with g(x) = out ^ f(y), where old variable j
    (0-based) reads y_j = x[perm[j]] ^ bit j of flips.
    """

    perm: tuple[int, ...]
    flips: int = 0
    negate_output: int = 0

    @classmethod
    def identity(cls, n: int) -> "NpnTransform":
        return cls(tuple(range(n)), 0, 0)

    def input_code(self, m: int) -> int:
        c = 0
        for j, src in enumerate(self.perm):
            c |= (((m >> src) & 1) << j)
        return c ^ self.flips

    def apply(self, f: "TruthTable") -> "TruthTable":
        n = f.arity
        if len(self.perm) != n:
            raise ValueError("transform arity %d does not match table arity %d"
                             % (len(self.perm), n))
        out = 0
        for m in range(1 << n):
            v = f.value(self.input_code(m)) ^ self.negate_output
            out |= v << m
        return TruthTable(n, out)

    def compose(self, first: "NpnTransform") -> "NpnTransform":
        """Transform equal to applying `first`, then self."""
        if len(self.perm) != len(first.perm):
            raise ValueError("cannot compose transforms of different arity")
        perm = tuple(self.perm[first.perm[j]] for j in range(len(first.perm)))
        flips = 0
        for j in range(len(first.perm)):
            fj = ((first.flips >> j) & 1) ^ ((self.flips >> first.perm[j]) & 1)
            flips |= fj << j
        return NpnTransform(perm, flips,
                            self.negate_output ^ first.negate_output)

    def inverse(self) -> "NpnTransform":
        n = len(self.perm)
        inv = [0] * n
        for j, src in enumerate(self.perm):
            inv[src] = j
        flips = 0
        for k in range(n):
            flips |= ((self.flips >> inv[k]) & 1) << k
        return NpnTransform(tuple(inv), flips, self.negate_output)


@functools.cache
def _perm_codes(n: int):
    """All n! permutations with their code-permutation arrays."""
    size = 1 << n
    bm = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    pows = (1 << np.arange(n)).astype(np.int64)
    perms = list(itertools.permutations(range(n)))
    codes = np.empty((len(perms), size), dtype=np.int64)
    for t, perm in enumerate(perms):
        codes[t] = bm[:, list(perm)] @ pows
    return perms, codes


def _pack_msb_first(values: np.ndarray) -> np.ndarray:
    """0/1 tables along the last axis -> uint64 keys, code 0 the most
    significant bit, so that comparing keys compares tables
    lexicographically from code 0 up. Tables have at most 64 entries."""
    size = values.shape[-1]
    packed = np.packbits(values, axis=-1)
    nbytes = packed.shape[-1]
    buf = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
    buf[..., 8 - nbytes:] = packed
    keys = buf.view(">u8")[..., 0].astype(np.uint64)
    return keys >> np.uint64(8 * nbytes - size)


def _flip_images(keys: np.ndarray, n: int) -> np.ndarray:
    """Stack 2**n copies of `keys` along a new first axis: copy F is the
    key of the table with the input bits in F negated.

    In a key from `_pack_msb_first`, code m sits at bit position
    (2**n - 1) ^ m, so negating input bit p swaps the key's bit-p-clear
    and bit-p-set positions: one delta swap, which doubles the copies.
    """
    out = np.empty((1 << n,) + keys.shape, dtype=keys.dtype)
    out[0] = keys
    word = keys.dtype.type
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    for p in range(n):
        half = 1 << p
        low, shift = word(~masks[p] & full), word(half)
        src, dst = out[:half], out[half:2 * half]
        np.right_shift(src, shift, out=dst)
        dst &= low
        dst |= (src & low) << shift
    return out


def _npn_canonical(f: "TruthTable") -> tuple["TruthTable", NpnTransform]:
    n = f.arity
    if n > NPN_MAX_ARITY:
        raise ValueError("npn canonicalization supports arity <= %d, got %d"
                         % (NPN_MAX_ARITY, n))
    size = 1 << n
    perms, codes = _perm_codes(n)
    count = len(perms)
    images = _flip_images(_pack_msb_first(_unpack_values(f.bits, n)[codes]), n)
    full = (1 << size) - 1
    best = min(int(images.min()), full ^ int(images.max()))
    plain = np.flatnonzero(images == np.uint64(best))
    negated = np.flatnonzero(images == np.uint64(full ^ best))
    # images[F, t] is the transform (perms[t], flips=codes[t, F]): codes[t]
    # maps code bits linearly, so negating the bits F after the permutation
    # negates the bits codes[t, F] before it
    flipped, pidx = np.divmod(np.concatenate((plain, negated)), count)
    neg = np.arange(pidx.size) >= plain.size
    # the first minimum in (flips, neg, perm index) order wins
    order = int(((codes[pidx, flipped] * 2 + neg) * count + pidx).min())
    rest, t = divmod(order, count)
    transform = NpnTransform(perms[t], rest >> 1, rest & 1)
    # the key lists the canonical table from code 0 down; reverse it
    canon = int(format(best, "0%db" % size)[::-1], 2)
    return TruthTable(n, canon), transform


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultilinearPoly:
    """The unique multilinear polynomial agreeing with f on {0,1}^n.

    coeffs maps a variable-set bitmask to its exact integer coefficient;
    zero coefficients are omitted.
    """

    arity: int
    coeffs: dict[int, int]

    def coeff(self, mask: int) -> int:
        return self.coeffs.get(mask, 0)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(s.bit_count() for s in self.coeffs)

    def evaluate(self, m: int) -> int:
        # a monomial contributes iff all its variables are set in m
        return sum(c for s, c in self.coeffs.items() if s & ~m == 0)


@dataclass(frozen=True)
class MonotoneNormalForm:
    """Prime DNF terms and prime CNF clauses of a monotone function.

    Terms and clauses are frozensets of 1-based variable indices; both
    collections are antichains, sorted for deterministic output.
    """

    arity: int
    dnf_terms: tuple[frozenset[int], ...]
    cnf_clauses: tuple[frozenset[int], ...]


# ---------------------------------------------------------------------------


class TruthTable:
    """Immutable truth table of a Boolean function on `arity` variables."""

    __slots__ = ("arity", "bits")

    def __init__(self, arity: int, bits: int):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        if bits < 0 or bits >> (1 << arity):
            raise ValueError("table bits out of range for arity %d" % arity)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("TruthTable is immutable")

    def __eq__(self, other):
        return (isinstance(other, TruthTable)
                and other.arity == self.arity and other.bits == self.bits)

    def __hash__(self):
        return hash((self.arity, self.bits))

    def __repr__(self):
        return "TruthTable(%d, 0x%x)" % (self.arity, self.bits)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_values(cls, values) -> "TruthTable":
        values = list(values)
        n = (len(values) - 1).bit_length()
        if len(values) != 1 << n:
            raise ValueError("value list length must be a power of two")
        bits = 0
        for m, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError("table entries must be 0 or 1")
            bits |= v << m
        return cls(n, bits)

    @classmethod
    def from_profile(cls, profile) -> "TruthTable":
        """Build the symmetric function with value profile (b_0, ..., b_n)."""
        profile = tuple(profile)
        n = len(profile) - 1
        if n < 0 or any(b not in (0, 1) for b in profile):
            raise ValueError("profile must be a nonempty 0/1 vector")
        arr = np.asarray(profile, dtype=np.uint8)[_popcnt(n)]
        return cls(n, _pack_values(arr))

    # -- basics -------------------------------------------------------------

    def value(self, m: int) -> int:
        if m < 0 or m >> self.arity:
            raise ValueError("input code %d out of range for arity %d"
                             % (m, self.arity))
        return (self.bits >> m) & 1

    @property
    def size(self) -> int:
        return 1 << self.arity

    def popcount(self) -> int:
        return self.bits.bit_count()

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.size) - 1

    def complement(self) -> "TruthTable":
        return TruthTable(self.arity, self.bits ^ ((1 << self.size) - 1))

    def values(self) -> np.ndarray:
        return _unpack_values(self.bits, self.arity)

    # -- restrictions -------------------------------------------------------

    def _check_var(self, i: int):
        if not 1 <= i <= self.arity:
            raise ValueError("variable index %d out of range 1..%d"
                             % (i, self.arity))

    def restrict(self, i: int, b: int) -> "TruthTable":
        """Fix x_i = b; remaining variables keep their relative order."""
        self._check_var(i)
        if b not in (0, 1):
            raise ValueError("restriction value must be 0 or 1")
        return TruthTable(self.arity - 1,
                          _restrict_bits(self.bits, self.arity, i - 1, b))

    def substitute_xor(self, i: int, j: int, c: int) -> "TruthTable":
        """Impose x_j = x_i xor c (i < j after swap); drops variable j."""
        if i == j:
            raise ValueError("xor substitution needs two distinct variables")
        if i > j:
            i, j = j, i
        self._check_var(i)
        self._check_var(j)
        if c not in (0, 1):
            raise ValueError("xor value must be 0 or 1")
        n = self.arity
        r0 = _restrict_bits(self.bits, n, j - 1, c)       # where x_i = 0
        r1 = _restrict_bits(self.bits, n, j - 1, 1 ^ c)   # where x_i = 1
        m1 = _var_masks(n - 1)[i - 1]
        full = (1 << (1 << (n - 1))) - 1
        return TruthTable(n - 1, (r0 & ~m1 & full) | (r1 & m1))

    def negate_var(self, i: int) -> "TruthTable":
        """Negate input x_i: result(x) = f(x with x_i flipped)."""
        self._check_var(i)
        blk = 1 << (i - 1)
        m1 = _var_masks(self.arity)[i - 1]
        full = (1 << self.size) - 1
        m0 = ~m1 & full
        return TruthTable(self.arity,
                          ((self.bits >> blk) & m0) | ((self.bits << blk) & m1))

    def is_dead(self, i: int) -> bool:
        self._check_var(i)
        blk = 1 << (i - 1)
        mask0 = ~_var_masks(self.arity)[i - 1] & ((1 << self.size) - 1)
        return (((self.bits >> blk) ^ self.bits) & mask0) == 0

    def support(self) -> tuple[int, ...]:
        """Live variables in one pass: x_i is live when some code with bit
        i-1 set reads a value other than the code 2**(i-1) below it."""
        bits = self.bits
        return tuple([p + 1 for p, mask in enumerate(_var_masks(self.arity))
                      if ((bits << (1 << p)) ^ bits) & mask])

    def drop_dead(self) -> tuple["TruthTable", tuple[int, ...]]:
        """Remove dead variables; returns (table, kept original indices)."""
        kept = self.support()
        t = self
        for i in range(self.arity, 0, -1):
            if i not in kept:
                t = t.restrict(i, 0)
        return t, kept

    # -- structure ----------------------------------------------------------

    def symmetric_profile(self):
        """Profile (b_0, ..., b_n) if f is symmetric, else None."""
        masks = _weight_masks(self.arity)
        profile = []
        for wm in masks:
            sect = self.bits & wm
            if sect == 0:
                profile.append(0)
            elif sect == wm:
                profile.append(1)
            else:
                return None
        return tuple(profile)

    def symmetric_orbit(self):
        """(profile, flips) if negating the inputs in `flips` makes f
        symmetric with that profile, else None.

        Bit i-1 of flips stands for x_i, and x_1 is never negated. The
        transpositions (x_1 x_q) generate every permutation, so f is
        symmetric up to input negations iff, for each q, it is invariant
        under swapping x_1 with x_q or with not x_q; the latter marks x_q
        for negation. That is O(n) table operations. If both swaps hold
        for some q, f depends only on the parity of the input weight, and
        either choice leaves a symmetric table.
        """
        bits = self.bits
        flips = 0
        for p, (plain, ps, crossed, cs) in enumerate(_swap_masks(self.arity), 1):
            if (bits >> ps) & plain != bits & plain:
                if (bits >> cs) & crossed != bits & crossed:
                    return None
                flips |= 1 << p
        g = self
        for p in range(1, self.arity):
            if (flips >> p) & 1:
                g = g.negate_var(p + 1)
        return g.symmetric_profile(), flips

    def is_monotone(self) -> bool:
        masks = _var_masks(self.arity)
        full = (1 << self.size) - 1
        for p in range(self.arity):
            blk = 1 << p
            lowpos = ~masks[p] & full
            if self.bits & ~(self.bits >> blk) & lowpos:
                return False
        return True

    def prime_normal_forms(self) -> MonotoneNormalForm:
        """Prime DNF/CNF of a monotone, non-constant function."""
        if self.is_constant():
            raise ValueError("normal forms are defined for non-constant input")
        if not self.is_monotone():
            raise ValueError("normal forms require a monotone function")
        n = self.arity
        masks = _var_masks(n)
        full = (1 << self.size) - 1
        ones = self.bits
        zeros = ~self.bits & full
        minimal = ones
        maximal = zeros
        for p in range(n):
            blk = 1 << p
            # drop 1-points whose predecessor (bit p cleared) is also 1
            minimal &= ~((ones << blk) & masks[p])
            # drop 0-points whose successor (bit p set) is also 0
            maximal &= ~((zeros >> blk) & (~masks[p] & full))
        terms = []
        rest = minimal
        while rest:
            low = rest & -rest
            m = low.bit_length() - 1
            terms.append(frozenset(i + 1 for i in range(n) if (m >> i) & 1))
            rest ^= low
        clauses = []
        rest = maximal & full
        while rest:
            low = rest & -rest
            m = low.bit_length() - 1
            clauses.append(frozenset(i + 1 for i in range(n)
                                     if not (m >> i) & 1))
            rest ^= low
        key = lambda s: tuple(sorted(s))
        return MonotoneNormalForm(n, tuple(sorted(terms, key=key)),
                                  tuple(sorted(clauses, key=key)))

    # -- polynomial ---------------------------------------------------------

    def _check_multilinear(self):
        if self.arity > MULTILINEAR_MAX_ARITY:
            raise ValueError("multilinear transform supports arity <= %d"
                             % MULTILINEAR_MAX_ARITY)

    def multilinear(self) -> MultilinearPoly:
        self._check_multilinear()
        arr = _moebius(self.values())
        nz = np.nonzero(arr)[0]
        return MultilinearPoly(self.arity,
                               {int(s): int(arr[s]) for s in nz})

    def degree(self) -> int:
        self._check_multilinear()
        return _table_degree(self.bits, self.arity)

    def decision_tree_depth(self) -> int:
        """Minimum depth of a classical decision tree computing f exactly."""
        if self.arity > DEPTH_MAX_ARITY:
            raise ValueError("decision tree depth supports arity <= %d, got %d"
                             % (DEPTH_MAX_ARITY, self.arity))
        return _depth(self.bits, self.arity)

    # -- isomorphism --------------------------------------------------------

    def npn_canonical(self) -> tuple["TruthTable", NpnTransform]:
        """Lexicographically smallest table over the NPN orbit of f."""
        return _npn_canonical(self)

    def is_and_isomorphic(self) -> bool:
        """True iff f is AND with some inputs/output negated (single 1 or 0)."""
        if self.arity == 0:
            return False
        pc = self.popcount()
        return pc == 1 or pc == self.size - 1

    # -- text ---------------------------------------------------------------

    def to_bin_text(self) -> str:
        return "bin:" + "".join(str(self.value(m)) for m in range(self.size))

    def to_hex_text(self) -> str:
        if self.arity < 2:
            return self.to_bin_text()
        width = self.size // 4
        return "hex:%0*x" % (width, self.bits)


# ---------------------------------------------------------------------------
# decision tree depth with an exact-value search

_depth_memo: dict[tuple[int, int], int] = {}


def _moebius(values: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Moebius transform along the first axis (length 2**n) of 0/1 tables:
    entry S of the result is the coefficient of the monomial prod_{i in S}
    x_i in the table's multilinear polynomial."""
    arr = values.astype(dtype)
    for i in range(arr.shape[0].bit_length() - 1):
        a = arr.reshape((-1, 2, 1 << i) + arr.shape[1:])
        a[:, 1] -= a[:, 0]
    return arr


# arities whose degrees come from a table of all 2**(2**n) functions
_DEGREE_TABLE_MAX_ARITY = 4


@functools.cache
def _degree_table(n: int) -> bytes:
    """Byte t is the degree of the arity-n table with bits t."""
    size = 1 << n
    tables = np.arange(1 << size, dtype=np.uint32)
    values = np.empty((size, tables.size), dtype=np.int8)
    for m in range(size):
        values[m] = (tables >> m) & 1
    degrees = np.zeros(tables.size, dtype=np.uint8)
    # coefficients lie in [-2**(n-1), 2**(n-1)]
    for s, row in enumerate(_moebius(values, np.int8)):
        np.maximum(degrees, (row != 0) * np.uint8(s.bit_count()), out=degrees)
    return degrees.tobytes()


def _table_degree(bits: int, n: int) -> int:
    """Degree of the multilinear polynomial of the arity-n table `bits`."""
    if n <= _DEGREE_TABLE_MAX_ARITY:
        return _degree_table(n)[bits]
    weights = _popcnt(n)[_moebius(_unpack_values(bits, n)) != 0]
    return int(weights.max()) if weights.size else 0


def _depth(bits: int, n: int) -> int:
    full = (1 << (1 << n)) - 1
    if bits == 0 or bits == full:
        return 0
    # odd popcount makes the top polynomial coefficient odd, hence degree n,
    # and no tree can be shallower than the degree
    if bits.bit_count() & 1:
        return n
    key = (n, bits)
    got = _depth_memo.get(key)
    if got is not None:
        return got
    # degree <= depth <= n, and querying every variable meets n
    lb = _table_degree(bits, n)
    if lb == n:
        return n
    lb = max(1, lb)
    best = n
    for p in range(n):
        d0 = _depth(_restrict_bits(bits, n, p, 0), n - 1)
        if 1 + d0 >= best:
            continue
        d1 = _depth(_restrict_bits(bits, n, p, 1), n - 1)
        cand = 1 + max(d0, d1)
        if cand < best:
            best = cand
            if best == lb:
                break
    _depth_memo[key] = best
    return best


# ---------------------------------------------------------------------------
# named families

def symmetric_decision_depth(profile) -> int:
    """Exact decision tree depth for the symmetric function with the given
    weight profile (b_0, ..., b_n).

    Any query maps a symmetric function to the two symmetric functions
    with the prefix and suffix profiles, and by symmetry the choice of
    variable cannot matter, so the optimum satisfies
    d(b) = 1 + max(d(prefix), d(suffix)).
    """
    profile = tuple(profile)
    if any(b not in (0, 1) for b in profile) or not profile:
        raise ValueError("profile must be a nonempty 0/1 vector")
    return _window_depth(profile)


@functools.cache
def _window_depth(win: tuple) -> int:
    if min(win) == max(win):
        return 0
    return 1 + max(_window_depth(win[:-1]), _window_depth(win[1:]))


def table_and(n: int) -> TruthTable:
    return TruthTable.from_profile([0] * n + [1])


def table_or(n: int) -> TruthTable:
    return TruthTable.from_profile([0] + [1] * n)


@functools.cache
def table_parity(n: int) -> TruthTable:
    return TruthTable.from_profile([w & 1 for w in range(n + 1)])


def table_nae(n: int) -> TruthTable:
    if n < 2:
        raise ValueError("not-all-equal needs arity >= 2")
    return TruthTable.from_profile([0] + [1] * (n - 1) + [0])


def table_exact(n: int, k: int) -> TruthTable:
    if not 0 <= k <= n:
        raise ValueError("exact-k threshold out of range")
    return TruthTable.from_profile([1 if w == k else 0 for w in range(n + 1)])


def table_threshold(n: int, k: int) -> TruthTable:
    if not 1 <= k <= n:
        raise ValueError("threshold out of range")
    return TruthTable.from_profile([1 if w >= k else 0 for w in range(n + 1)])


# ---------------------------------------------------------------------------
# textual function formats

def parse_function(text: str) -> TruthTable:
    """Parse bin:/hex:/profile:/formula: function descriptions."""
    if not isinstance(text, str):
        raise ValueError("function must be a string, got %s"
                         % type(text).__name__)
    if ":" not in text:
        raise ValueError(
            "function must use one of the prefixes bin:, hex:, profile:, formula:")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    body = body.strip()
    if kind == "bin":
        if not body or body.strip("01"):
            raise ValueError("bin: expects a string of 0/1 characters")
        n = (len(body) - 1).bit_length()
        if len(body) != 1 << n or len(body) < 2:
            raise ValueError("bin: length must be 2**n for some n >= 1")
        return TruthTable(n, int(body[::-1], 2))
    if kind == "hex":
        # int() alone would take 0x, _, signs and inner spaces
        if not body or body.strip(string.hexdigits):
            raise ValueError("hex: expects hexadecimal digits")
        bits = int(body, 16)
        nbits = 4 * len(body)
        n = (nbits - 1).bit_length()
        if nbits != 1 << n:
            raise ValueError("hex: digit count must be a power of two")
        return TruthTable(n, bits)
    if kind == "profile":
        parts = [p.strip() for p in body.split(",")]
        if not all(p in ("0", "1") for p in parts):
            raise ValueError("profile: expects comma-separated 0/1 entries")
        if len(parts) > MULTILINEAR_MAX_ARITY + 1:
            raise ValueError("profile: at most %d entries (arity %d)"
                             % (MULTILINEAR_MAX_ARITY + 1,
                                MULTILINEAR_MAX_ARITY))
        return TruthTable.from_profile(int(p) for p in parts)
    if kind == "formula":
        from . import formula
        return formula.to_table(formula.parse_formula(body))
    raise ValueError("unknown function format %r" % kind)
