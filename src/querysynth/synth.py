"""Certified synthesis of exact quantum query programs.

The search space is adaptive: at every step the program may query one
variable classically or spend one query on x_i xor x_j, then continue on
the restricted function. On top of that sit literature-backed leaves for
function classes whose exact quantum query complexity is known to beat
this space (EXACT/threshold counting classes and the two-query
three-variable and-or function). One pricer costs every route of a batch
of tables up to arity 7 at once, working on table codes: byte-sliced
tables give the residual codes of a batch, and a large batch prices each
distinct residual once. One closed-form rule (parity, the counting
classes, NAE, the 3-bit two-query family) sets or caps the route
minimum. It fills the cost tables up to arity 4 and prices wider tables on
demand, above arity 7 route by route over a memo. Tables and search keep
the first route that reached each cost, and the program builder replays
it instead of choosing one.

A synthesized certificate carries the program, its claimed query count,
the rules that produced it, and enough structure for an independent
checker (`verify_certificate`) to validate the claim by simulation or,
when literature leaves are present, by auditing the program over input
sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .boolfun import (NpnTransform, TruthTable, _flip_images, _restrict_bits,
                      table_nae, table_parity)
from .formula import _split, _unate
from .qprogram import (AxiomLeaf, ClassicalQuery, Output, XorQuery,
                       axiom_citation, axiom_queries, axiom_rep_table,
                       collect_axioms, _branches, _json_int, _shape,
                       nae_program, parity_program, program_from_json,
                       program_to_json, query_cost, simulate, CITE_AND_OR,
                       CITE_THREE_BIT)

__all__ = [
    "ENGINE_ARRAY_MAX",
    "ENGINE_MAX_ARITY",
    "RuleUse",
    "Certificate",
    "VerificationReport",
    "query_complexity",
    "synthesize",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
]

ENGINE_ARRAY_MAX = 4
ENGINE_MAX_ARITY = 12
# the widest residual priced in one batch, and so the widest
# table the engine prices without `_cost_memo`
_BATCH_MAX = 6

CITE_XOR_GADGET = ("Cleve, Ekert, Macchiavello and Mosca 1998: one exact "
                   "query evaluates x_i xor x_j")


# ---------------------------------------------------------------------------
# axiom classes


def _symmetric_axiom(f: TruthTable):
    """(class_id, k, queries) when f, after the input negations that make
    it symmetric, matches a counting class directly or after
    complementing the output; works at any arity. k is the least in the
    class's NPN orbit, which also holds exact(n, n-k) and
    threshold(n, n+1-k)."""
    orbit = f.symmetric_orbit()
    if orbit is None:
        return None
    n = f.arity
    for neg in (0, 1):
        ones = [w for w, b in enumerate(orbit[0]) if b ^ neg]
        if len(ones) == 1:
            k = min(ones[0], n - ones[0])
            return ("exact", k, axiom_queries("exact", n, k))
        if ones and ones[0] >= 1 and ones == list(range(ones[0], n + 1)):
            k = min(ones[0], n + 1 - ones[0])
            return ("threshold", k, axiom_queries("threshold", n, k))
    return None


def _axiom_class_of(f: TruthTable):
    """(class_id, k, queries) of the catalogued class holding f, or None.
    AND-isomorphic tables read as exact or threshold."""
    if f.arity == 3 and _in_class_orbit(f, "and_or_3", 3, None):
        return ("and_or_3", None, 2)
    return _symmetric_axiom(f)


# ---------------------------------------------------------------------------
# cost engine


def _insert_zero(ms: np.ndarray, pos: int) -> np.ndarray:
    """Insert a 0 bit at `pos` (0-based) into every code."""
    low = ms & ((1 << pos) - 1)
    return ((ms >> pos) << (pos + 1)) | low


@functools.cache
def _queries_in_order(n: int) -> tuple:
    """Shared candidate order: xor pairs first, then single variables."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return (tuple(("xor", i, j) for i, j in pairs)
            + tuple(("cq", p) for p in range(1, n + 1)))


@functools.cache
def _route_index(n: int) -> np.ndarray:
    """Entry [r, b, m] is the code of f that residual b of route r (in
    `_queries_in_order(n)` order) reads at its own code m: the residual
    after x_p = b, or after x_i xor x_j = b with x_j dropped, is
    `f.values()[_route_index(n)[r, b]]`."""
    sub = np.arange(1 << (n - 1), dtype=np.intp)
    rows = []
    for kind, *args in _queries_in_order(n):
        if kind == "cq":
            p = args[0]
            ins = _insert_zero(sub, p - 1)
            rows.append((ins, ins | (1 << (p - 1))))
        else:
            i, j = args
            ins = _insert_zero(sub, j - 1)
            bi = (ins >> (i - 1)) & 1
            rows.append((ins | (bi << (j - 1)), ins | ((bi ^ 1) << (j - 1))))
    index = np.array(rows, dtype=np.intp)
    index.flags.writeable = False
    return index


def _gather(t: TruthTable, index: np.ndarray) -> np.ndarray:
    """The residuals of t that `index`, a part of `_route_index(t.arity)`,
    selects, each packed into little-endian bytes along the last axis."""
    return np.packbits(t.values()[index], axis=-1, bitorder="little")


# (arity, bits) -> (cost, witness) of tables wider than _BATCH_MAX: the
# witness is the index in _queries_in_order of the first route reaching
# the cost, None when a closed form set it
_cost_memo: dict[tuple[int, int], tuple[int, int | None]] = {}

# witness entry of a table whose cost only a closed form reaches
_NO_ROUTE = 255


def _parity_pattern(f: TruthTable):
    """0/1 inversion flag when f is parity or its complement, else None."""
    return {0: 0, (1 << f.size) - 1: 1}.get(f.bits ^ table_parity(f.arity).bits)


def _nae_pattern(f: TruthTable):
    """(anchor, match_output) for functions constant exactly on one
    complementary input pair {c, ~c}: the all-equal test up to negations."""
    n = f.arity
    if n < 2:
        return None
    full = (1 << f.size) - 1
    for ones, match in ((f.bits, 1), (f.bits ^ full, 0)):
        if ones.bit_count() == 2:
            m1 = (ones & -ones).bit_length() - 1
            m2 = (ones ^ (1 << m1)).bit_length() - 1
            if m1 ^ m2 == (1 << n) - 1:
                return (m1, match)
    return None


def _closed_form(t: TruthTable):
    """(cost, sets) of the closed form that prices t, or None. Parity and
    the counting classes set the cost (sets is True); an NAE pattern caps
    the routes at n - 1, and at arity 3 any table with 2..6 ones is capped
    at 2, the 3-bit two-query family."""
    n = t.arity
    if _parity_pattern(t) is not None:
        return (n + 1) // 2, True
    info = _symmetric_axiom(t)
    if info is not None:
        return info[2], True
    if _nae_pattern(t) is not None:
        return n - 1, False
    if n == 3 and 2 <= t.popcount() <= 6:
        return 2, False
    return None


def _cost_of(f: TruthTable) -> int:
    # the tables already charge nothing for dead variables
    if f.arity > ENGINE_ARRAY_MAX:
        f, _ = f.drop_dead()
    return _price(f)[0]


def _price(t: TruthTable) -> tuple[int, int | None]:
    """(cost, witness), as `_cost_memo` holds them, of a table of arity
    <= ENGINE_ARRAY_MAX or of a full-support table above it."""
    n = t.arity
    if n <= ENGINE_ARRAY_MAX:
        cost, witness = _cost_table(n)
        w = int(witness[t.bits])
        return int(cost[t.bits]), (None if w == _NO_ROUTE else w)
    key = (n, t.bits)
    got = _cost_memo.get(key)
    if got is not None:
        return got
    form = _closed_form(t)
    if form is not None and form[1]:
        # a set cost keeps no witness: a route may tie it
        got = (form[0], None)
    else:
        got = _route_search(t, n if form is None else form[0])
    if n > _BATCH_MAX:
        _cost_memo[key] = got
    return got


@functools.cache
def _cost_table(n: int) -> tuple:
    """(cost, witness) arrays over every arity-n table, n <=
    ENGINE_ARRAY_MAX: the cost is the route minimum under the closed
    forms, as `_price` takes it above; the witness is the index in
    `_queries_in_order(n)` of the first route whose cost equals the
    table's, or _NO_ROUTE."""
    codes = np.arange(1 << (1 << n), dtype=_CODE_DTYPE[1 << n])
    cost = np.zeros(len(codes), dtype=np.uint8)
    witness = np.full(len(codes), _NO_ROUTE, dtype=np.uint8)
    # the constants of arity 0 have no route; above it, slices of 4,096
    # tables bound the residual arrays of one batch
    for lo in range(0, len(codes) if n else 0, 4096):
        part = slice(lo, lo + 4096)
        routes = _route_costs(_residual_codes(codes[part], n), n)
        best = cost[part] = _with_closed_forms(routes.min(axis=0),
                                               codes[part], n)
        hits = routes == best
        witness[part] = np.where(hits.any(axis=0), hits.argmax(axis=0),
                                 _NO_ROUTE)
    return cost, witness


# byte order and width of the code of a 2**m-entry table, m = 0..6; a
# table narrower than a byte still takes a whole one
_CODE_DTYPE = {1: "u1", 2: "u1", 4: "u1", 8: "u1",
               16: "<u2", 32: "<u4", 64: "<u8"}


@functools.cache
def _route_slices(m: int) -> np.ndarray:
    """Entry [j, v] holds the residual codes, laid out as
    `_route_index(m)`, of the arity-m table (1 <= m <= _BATCH_MAX + 1)
    whose code is v << 8j. A residual reads single bits of f, so the
    residual codes of any table are the OR of these entries over the
    bytes of its code."""
    index, size = _route_index(m), 1 << m
    # unit[i] holds the bits that bit i of f sets in each residual; they
    # are disjoint, so a sum over the bits of a byte is their OR
    unit = np.zeros((max(8, size), *index.shape[:2]), dtype=np.uint64)
    r, b = np.ogrid[:index.shape[0], :2]
    unit[index, r[..., None], b[..., None]] = (
        np.uint64(1) << np.arange(size >> 1, dtype=np.uint64))
    octets = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(np.uint64)
    slices = octets @ unit.reshape(-1, 8, 2 * len(index))
    slices = slices.reshape(-1, 256, *index.shape[:2]).astype(
        _CODE_DTYPE[size >> 1])
    slices.flags.writeable = False
    return slices


def _residual_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Codes of the residuals of every arity-m table (m <= _BATCH_MAX)
    whose code `codes` holds, along two new leading axes (route, b): each
    route's costs are then contiguous, which the route minimum wants."""
    slices = _route_slices(m)
    octets = codes[..., None].view(np.uint8)
    kids = slices[0].take(octets[..., 0], axis=0)
    for j in range(1, len(slices)):
        kids |= slices[j].take(octets[..., j], axis=0)
    # (batch..., route, b) -> (route, b, batch...)
    return kids.reshape(codes.size, -1).T.copy().reshape(-1, 2, *codes.shape)


@functools.cache
def _closed_forms(m: int) -> tuple:
    """(codes, costs, sets) of the arity-m tables `_closed_form` prices,
    codes sorted. The candidates are every table up to arity 3, and above
    it the flip images of the parity, NAE and counting-class
    representatives and their complements, which make up their whole NPN
    orbits."""
    full = (1 << (1 << m)) - 1
    if m <= 3:
        cands = range(full + 1)
    else:
        reps = [table_parity(m), table_nae(m)]
        reps += [axiom_rep_table(class_id, m, k)
                 for class_id, ks in (("exact", range(m + 1)),
                                      ("threshold", range(1, m + 1)))
                 for k in ks]
        imgs = _flip_images(np.array([r.bits for r in reps], dtype=np.uint64),
                            m)
        cands = sorted({c ^ neg for c in map(int, imgs.ravel())
                        for neg in (0, full)})
    entries = [(code, *form) for code in cands
               if (form := _closed_form(TruthTable(m, code))) is not None]
    codes, costs, sets = zip(*entries)
    return (np.array(codes, dtype=_CODE_DTYPE[1 << m]),
            np.array(costs, dtype=np.uint8), np.array(sets))


def _with_closed_forms(best: np.ndarray, codes: np.ndarray,
                       m: int) -> np.ndarray:
    """`best`, the route minima of the arity-m tables whose codes `codes`
    holds, under `_closed_forms(m)`: a set cost replaces the minimum, a cap
    bounds it."""
    keys, costs, sets = _closed_forms(m)
    at = np.searchsorted(keys, codes)
    hit = keys.take(at, mode="clip") == codes
    if hit.any():
        c, s = costs.take(at, mode="clip"), sets.take(at, mode="clip")
        best = np.where(hit, np.where(s, c, np.minimum(best, c)), best)
    return best


# a batch of at least this many arity > ENGINE_ARRAY_MAX codes is priced
# once per distinct code: below it np.unique costs more than the
# repeats it saves
_UNIQUE_MIN = 256


def _route_costs(kids: np.ndarray, m: int) -> np.ndarray:
    """Cost of every route of arity-m tables (1 <= m <= _BATCH_MAX + 1),
    given the codes of their residuals along the first two axes of `kids`
    (route in `_queries_in_order(m)` order, b), with the route axis first.
    A classical route on a dead variable costs its residual, not one query
    more."""
    s = _price_rows(kids, m - 1)
    cost = 1 + np.maximum(s[:, 0], s[:, 1])
    # a classical route on a dead variable reads one residual twice
    cost[-m:] -= kids[-m:, 0] == kids[-m:, 1]
    return cost


def _price_rows(codes: np.ndarray, m: int) -> np.ndarray:
    """`_cost_of` of every arity-m table (m <= _BATCH_MAX) whose code
    `codes` holds: read from `_cost_table(m)` up to ENGINE_ARRAY_MAX,
    above it the route minimum under the closed forms, one price per
    distinct code in a batch of _UNIQUE_MIN codes or more."""
    if m <= ENGINE_ARRAY_MAX:
        return _cost_table(m)[0].take(codes)
    keys, inv = codes, None
    if codes.size >= _UNIQUE_MIN:
        keys, inv = np.unique(codes, return_inverse=True)
    best = _route_costs(_residual_codes(keys, m), m).min(axis=0)
    best = _with_closed_forms(best, keys, m)
    return best if inv is None else best[inv].reshape(codes.shape)


def _route_search(t: TruthTable, best: int,
                  lb: int | None = None) -> tuple[int, int | None]:
    """(cost, witness) of the first cheapest route of a full-support table
    of arity > ENGINE_ARRAY_MAX that costs less than `best`, else (best,
    None).

    Up to arity _BATCH_MAX + 1 every route is priced at once; no route
    beats ceil(deg/2) or an axiom count, so the first cheapest route is
    the one a search stopping there would keep. Above it the routes are
    priced in order, each residual by `_cost_of`, stopping at the first
    route reaching `lb`, by default ceil(deg/2)."""
    n = t.arity
    if n <= _BATCH_MAX + 1:
        kids = _gather(t, _route_index(n)).view(_CODE_DTYPE[1 << (n - 1)])
        cost = _route_costs(kids[..., 0], n)
        r = int(cost.argmin())
        return (int(cost[r]), r) if cost[r] < best else (best, None)
    if lb is None:
        lb = max(1, (t.degree() + 1) // 2)
    witness = None
    if best > lb:
        packed = _gather(t, _route_index(n))
        raw, nbytes = packed.tobytes(), packed.shape[-1]

        def cost(k: int) -> int:
            """Cost of residual k % 2 of route k // 2."""
            code = int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little")
            return _cost_of(TruthTable(n - 1, code))

        for idx in range(len(packed)):
            s0 = cost(2 * idx)
            if 1 + s0 >= best:
                continue
            cand = 1 + max(s0, cost(2 * idx + 1))
            if cand < best:
                best, witness = cand, idx
                if best <= lb:
                    break
    return best, witness


def query_complexity(f: TruthTable) -> int:
    """Worst-case query count of the best program the engine can certify."""
    if f.arity > ENGINE_MAX_ARITY:
        raise ValueError("synthesis supports arity <= %d, got %d"
                         % (ENGINE_MAX_ARITY, f.arity))
    return _cost_of(f)


# ---------------------------------------------------------------------------
# program construction


@dataclass(frozen=True)
class RuleUse:
    rule: str
    detail: str
    citation: str | None = None


# the names argument of `_remap` that keeps every variable's name
_SAME_NAMES = range(1, ENGINE_MAX_ARITY + 1)


def _remap(node, names, flips: int, outputs=None):
    """Rename x_v to x_{names[v - 1]}, absorb the negation of each renamed
    input x_w with bit w - 1 set in `flips` into branch swaps, and replace
    each Output(b) by outputs[b] when `outputs` is given."""
    if isinstance(node, Output):
        return node if outputs is None else outputs[node.bit]
    if isinstance(node, ClassicalQuery):
        v = names[node.var - 1]
        c0 = _remap(node.child0, names, flips, outputs)
        c1 = _remap(node.child1, names, flips, outputs)
        if (flips >> (v - 1)) & 1:
            c0, c1 = c1, c0
        return ClassicalQuery(v, c0, c1)
    if isinstance(node, XorQuery):
        i, j = names[node.i - 1], names[node.j - 1]
        if i > j:
            i, j = j, i
        c0 = _remap(node.child0, names, flips, outputs)
        c1 = _remap(node.child1, names, flips, outputs)
        if (((flips >> (i - 1)) ^ (flips >> (j - 1))) & 1):
            c0, c1 = c1, c0
        return XorQuery(i, j, c0, c1)
    if isinstance(node, AxiomLeaf) and outputs is None:
        return AxiomLeaf(node.class_id,
                         tuple(sorted(names[v - 1] for v in node.variables)),
                         node.queries, node.citation, node.k)
    raise RuntimeError("cannot remap node %r" % type(node).__name__)


def _and_iso_chain(f: TruthTable, names: tuple) -> ClassicalQuery:
    n = f.arity
    if f.popcount() == 1:
        point = f.bits.bit_length() - 1
        node, stop = Output(1), Output(0)
    else:
        point = ((f.bits ^ ((1 << f.size) - 1)).bit_length()) - 1
        node, stop = Output(0), Output(1)
    for i in range(n, 0, -1):
        want = (point >> (i - 1)) & 1
        node = ClassicalQuery(names[i - 1], node if want == 0 else stop,
                              node if want == 1 else stop)
    return node


@functools.cache
def _class_ties(class_id: str, n: int, k: int) -> bool:
    """Whether a route of an arity-n counting class ties its count. NPN
    transforms map routes to routes and keep the engine's cost, so the
    class representative answers for every image."""
    q = axiom_queries(class_id, n, k)
    rep = axiom_rep_table(class_id, n, k)
    return _route_search(rep, q + 1, q)[1] is not None


@functools.cache
def _build_small(n: int, bits: int) -> tuple:
    """(tree, rules) of an arity <= 3 table: small residuals recur across
    many functions."""
    rules: dict = {}
    tree = _build_impl(TruthTable(n, bits), tuple(range(1, n + 1)), rules)
    return tree, tuple(rules)


def _build(f: TruthTable, names: tuple, rules: dict, flips: int = 0,
           price=None):
    """Program for f that reads f's variable x_v as x_{names[v - 1]} (the
    names increase with v), each input x_w with bit w - 1 of `flips` set
    negated. `price`, when given, is `_price` of f without its dead
    variables."""
    if f.arity > 3:
        tree = _build_impl(f, names, rules, price)
        return _remap(tree, _SAME_NAMES, flips) if flips else tree
    tree, used = _build_small(f.arity, f.bits)
    rules.update(dict.fromkeys(used))
    # increasing names are the identity exactly when the last one is k
    if not flips and (not names or names[-1] == f.arity):
        return tree
    return _remap(tree, names, flips)


def _build_impl(f: TruthTable, names: tuple, rules: dict, price=None):
    n = f.arity
    if f.is_constant():
        rules[RuleUse("R0", "constant output")] = None
        return Output(1 if f.bits else 0)
    support = f.support()
    if len(support) < n:
        sub, kept = f.drop_dead()
        rules[RuleUse("R1", "dropped %d dead variable(s)"
                      % (n - len(kept)))] = None
        return _build(sub, tuple(names[v - 1] for v in kept), rules,
                      price=price)
    if f.is_and_isomorphic():
        rules[RuleUse("R2", "classical chain, optimal for functions with "
                      "a unique deciding input", CITE_AND_OR)] = None
        return _and_iso_chain(f, names)
    c, route = _price(f) if price is None else price
    inv = _parity_pattern(f)
    if inv is not None:
        assert c == (n + 1) // 2
        rules[RuleUse("R3", "paired xor queries for a parity pattern",
                      CITE_XOR_GADGET)] = None
        return _remap(parity_program(n, invert=bool(inv)), names, 0)
    nae = _nae_pattern(f)
    if nae is not None and c == n - 1:
        rules[RuleUse("R3", "neighbour xor chain for an "
                      "equality-to-pattern test", CITE_XOR_GADGET)] = None
        anchor, match = nae
        return _remap(nae_program(n, bool(match), anchor), names, 0)
    info = _axiom_class_of(f) if route is None else None
    if (info is not None and n > ENGINE_ARRAY_MAX
            and _class_ties(info[0], n, info[1])):
        # an axiom class, priced by its formula: f's first route that
        # ties its count is built instead of the leaf
        route = _route_search(f, c + 1, c)[1]
    if route is None:
        if info is not None and info[2] == c:
            class_id, k, q = info
            rule = "R4" if class_id == "and_or_3" else "R3"
            rules[RuleUse(rule, "known exact algorithm for the %s class"
                          % class_id, axiom_citation(class_id))] = None
            return AxiomLeaf(class_id, names, q, axiom_citation(class_id), k)
        if n == 3:
            # not in any catalogued orbit yet cheaper than every one-query
            # continuation: the 3-bit classification guarantees two queries
            assert c == 2
            rules[RuleUse("R4", "certified two-query family: 3-bit "
                          "functions not isomorphic to AND_3",
                          CITE_THREE_BIT)] = None
            return AxiomLeaf("three_bit", names, 2, CITE_THREE_BIT)
    unate = _unate(f)
    split = _split(unate[0]) if unate is not None else None
    if split is not None:
        op, parts = split
        flips = unate[1]
        part_rules: dict = {}
        trees = []
        for comp, sub in parts:
            negated = sum(1 << (names[v - 1] - 1) for v in comp
                          if (flips >> (v - 1)) & 1)
            trees.append(_build(sub, tuple(names[v - 1] for v in comp),
                                part_rules, negated))
        # a leaf is terminal, so only the last factor may carry one
        if not any(collect_axioms(tr) for tr in trees[:-1]):
            composed = trees[-1]  # outputs that do not settle `op` run on
            for tr in reversed(trees[:-1]):
                outputs = ((Output(0), composed) if op == "and"
                           else (composed, Output(1)))
                composed = _remap(tr, _SAME_NAMES, 0, outputs)
            if query_cost(composed) == c:
                rules.update(part_rules)
                rules[RuleUse("R5", "sequential composition of "
                              "variable-disjoint factors")] = None
                return composed
    if route is None:
        raise RuntimeError("internal: no construction achieves cost %d for %s"
                           % (c, f.to_hex_text()))
    r0, r1 = (TruthTable(n - 1, int.from_bytes(row.tobytes(), "little"))
              for row in _gather(f, _route_index(n)[route]))
    kind, *args = _queries_in_order(n)[route]
    gone = args[-1]  # the variable the residuals no longer read
    rest = names[:gone - 1] + names[gone:]
    t0 = _build(r0, rest, rules)
    t1 = _build(r1, rest, rules)
    if kind == "cq":
        rules[RuleUse("R6", "adaptive search, classical branch")] = None
        return ClassicalQuery(names[gone - 1], t0, t1)
    rules[RuleUse("R6", "adaptive search, xor branch",
                  CITE_XOR_GADGET)] = None
    return XorQuery(names[args[0] - 1], names[gone - 1], t0, t1)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    function: TruthTable
    program: object
    claimed_queries: int
    level: str
    rules_used: tuple
    optimal: bool


def _known_lower_bound(f: TruthTable) -> int:
    if f.is_constant():
        return 0
    t, _ = f.drop_dead()
    lb = max(1, (t.degree() + 1) // 2)
    # AND-isomorphic tables fall in exact(n, 0), which costs n
    info = _axiom_class_of(t)
    if info is not None:
        lb = max(lb, info[2])
    return lb


def _meets_lower_bound(t: TruthTable, claimed: int) -> bool:
    """claimed == _known_lower_bound(t) for a table t without dead
    variables. Its degree is at most its arity, so above half of it only
    an axiom class count can meet the claim, and the degree is skipped."""
    if claimed > (t.arity + 1) // 2:
        info = _axiom_class_of(t)
        return info is not None and info[2] == claimed
    return claimed == _known_lower_bound(t)


def synthesize(f: TruthTable) -> Certificate:
    """Build a certified program for f with the fewest queries the engine
    can realize."""
    if f.arity > ENGINE_MAX_ARITY:
        raise ValueError("synthesis supports arity <= %d, got %d"
                         % (ENGINE_MAX_ARITY, f.arity))
    rules: dict = {}
    t, _ = f.drop_dead()
    price = _price(t)
    tree = _build(f, tuple(range(1, f.arity + 1)), rules, price=price)
    shape = _shape(tree)
    claimed = shape.queries
    if claimed != price[0]:
        raise RuntimeError("internal: built %d-query program, engine "
                           "promised %d" % (claimed, price[0]))
    return Certificate(f, tree, claimed, shape.level, tuple(rules),
                       _meets_lower_bound(t, claimed))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    level: str
    failures: tuple
    simulation: object = None

    def to_json(self) -> dict:
        out = {"ok": self.ok, "level": self.level,
               "failures": list(self.failures)}
        if self.simulation is not None:
            out["simulation"] = self.simulation.to_json()
        return out


def _audit_leaf(node: AxiomLeaf, inputs: int, f: TruthTable, path: str,
                failures: list):
    """Project f's ones and zeros on `inputs` onto the leaf's variables:
    they must be disjoint and cover every pattern, and the ones are the
    residual the leaf computes."""
    leaf_vars = set(node.variables)
    parts, m = (inputs & f.bits, inputs & ~f.bits), f.arity
    for v in range(f.arity, 0, -1):  # highest first: x_v is at bit v - 1
        if v not in leaf_vars:  # fold x_v = 1 onto x_v = 0, then drop x_v
            parts = tuple(_restrict_bits(t | t >> (1 << (v - 1)), m, v - 1, 0)
                          for t in parts)
            m -= 1
    ones, zeros = parts
    k = len(leaf_vars)
    if ones | zeros != (1 << (1 << k)) - 1:
        failures.append("axiom leaf at %s uses variables the path fixed or "
                        "tied" % path)
        return
    if ones & zeros:
        failures.append("residual at %s depends on variables outside the "
                        "axiom leaf" % path)
        return
    try:
        expect = axiom_queries(node.class_id, k, node.k)
        cite = axiom_citation(node.class_id)
    except ValueError as e:
        failures.append("axiom leaf at %s: %s" % (path, e))
        return
    if node.queries != expect:
        failures.append("axiom leaf at %s claims %d queries, class "
                        "formula gives %d" % (path, node.queries, expect))
    if node.citation != cite:
        failures.append("axiom leaf at %s carries a mismatched citation"
                        % path)
    if node.class_id == "three_bit":  # a family: k = 3 and 2..6 ones
        if not 2 <= ones.bit_count() <= 6:
            failures.append("residual at %s falls outside the certified "
                            "two-query family" % path)
    elif not _in_class_orbit(TruthTable(k, ones), node.class_id, k, node.k):
        failures.append("residual at %s is not isomorphic to the %s "
                        "class representative" % (path, node.class_id))


@functools.cache
def _class_images(class_id: str, n: int, k):
    """(by_profile, images) for one catalogued class.

    For a symmetric representative, images holds its profile, the
    reversal and the complement of either: the flip-normalised profiles
    of its NPN orbit. Otherwise it holds the table bits of every NPN
    image, built from all 2 * 2**n * n! transforms; and_or_3 is the only
    such class, at n = 3.
    """
    rep = axiom_rep_table(class_id, n, k)
    profile = rep.symmetric_profile()
    if profile is None:
        images = frozenset(NpnTransform(perm, flips, neg).apply(rep).bits
                           for perm in itertools.permutations(range(n))
                           for flips in range(1 << n) for neg in (0, 1))
    else:
        images = frozenset(tuple(b ^ neg for b in p)
                           for p in (profile, profile[::-1])
                           for neg in (0, 1))
    return profile is not None, images


def _in_class_orbit(g: TruthTable, class_id: str, n: int, k) -> bool:
    """True iff g is an NPN image of the class representative."""
    by_profile, images = _class_images(class_id, n, k)
    if not by_profile:
        return g.bits in images
    orbit = g.symmetric_orbit()
    return orbit is not None and orbit[0] in images


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Independent check of a certificate; never trusts the synthesizer.
    One static fold checks every node, reached or not; one walk over
    input sets then simulates the program or audits its outputs and
    leaves."""
    prog, f = cert.program, cert.function
    try:
        shape = _shape(prog)
    except (TypeError, ValueError, RuntimeError) as e:
        return VerificationReport(False, cert.level, ("malformed program: %s"
                                                      % e,))
    failures = list(shape.errors)
    if shape.queries != cert.claimed_queries:
        failures.append("program worst case is %d queries, certificate "
                        "claims %d" % (shape.queries, cert.claimed_queries))
    if shape.max_var > f.arity:
        failures.append("unbound variable x%d for arity %d"
                        % (shape.max_var, f.arity))
    level = shape.level
    if level != cert.level:
        failures.append("program is %s, certificate says %s"
                        % (level, cert.level))
    if level == "CountCertified" and shape.block is not None:
        failures.append("not auditable: unitary block at %s inside a "
                        "count-certified program" % shape.block)
    if cert.optimal:
        try:
            lb = _known_lower_bound(f)
        except ValueError as e:  # the degree is computed up to arity 20
            failures.append("cannot check the optimality claim: %s" % e)
        else:
            if cert.claimed_queries > lb:
                failures.append("certificate claims optimality, but %d "
                                "queries exceed the known lower bound %d"
                                % (cert.claimed_queries, lb))
    if failures:
        return VerificationReport(False, level, tuple(failures))
    if level != "CountCertified":
        sim = simulate(prog, f)
        if not sim.exact:
            failures.append("wrong-answer amplitude %.3g exceeds tolerance"
                            % sim.worst_wrong_amplitude)
        if sim.queries_worst_case != cert.claimed_queries:
            failures.append("simulated worst case used %d queries, "
                            "certificate claims %d"
                            % (sim.queries_worst_case, cert.claimed_queries))
        return VerificationReport(not failures, level, tuple(failures), sim)
    # the audit: each output agrees with f on every input reaching it
    for inputs, _, node, path, _ in _branches(prog, f):
        if isinstance(node, AxiomLeaf):
            _audit_leaf(node, inputs, f, path, failures)
        elif inputs & (~f.bits if node.bit else f.bits):
            failures.append("output %d at %s disagrees with the function"
                            % (node.bit, path))
    return VerificationReport(not failures, level, tuple(failures))


# ---------------------------------------------------------------------------
# serialization


def _table_to_json(f: TruthTable) -> dict:
    return {"arity": f.arity, "table": f.to_hex_text()}


def _table_from_json(obj) -> TruthTable:
    from .boolfun import parse_function
    f = parse_function(obj["table"])
    n = _json_int(obj["arity"], "function arity")
    if f.arity != n:
        raise ValueError("table %s than declared arity"
                         % ("wider" if f.arity > n else "narrower"))
    return f


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": 1,
        "kind": "certificate",
        "function": _table_to_json(cert.function),
        "claimedQueries": cert.claimed_queries,
        "level": cert.level,
        "optimal": cert.optimal,
        "rulesUsed": [
            {"rule": r.rule, "detail": r.detail, "citation": r.citation}
            for r in cert.rules_used
        ],
        "program": program_to_json(cert.program),
    }


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict) or obj.get("kind") != "certificate":
        raise ValueError("not a certificate document")
    used, level = obj.get("rulesUsed", []), obj["level"]
    optimal = obj.get("optimal", False)
    if not isinstance(used, list) or not all(
            isinstance(r, dict) and isinstance(r.get("rule"), str)
            for r in used):
        raise ValueError("rulesUsed must list objects with a string rule")
    if not isinstance(level, str):
        raise ValueError("level must be a string, got %r" % (level,))
    if not isinstance(optimal, bool):
        raise ValueError("optimal must be true or false, got %r" % (optimal,))
    rules = tuple(RuleUse(r["rule"], r.get("detail", ""), r.get("citation"))
                  for r in used)
    for r in rules:
        if not isinstance(r.detail, str):
            raise ValueError("rulesUsed detail must be a string, got %r"
                             % (r.detail,))
        if r.citation is not None and not isinstance(r.citation, str):
            raise ValueError("rulesUsed citation must be a string or null, "
                             "got %r" % (r.citation,))
    return Certificate(_table_from_json(obj["function"]),
                       program_from_json(obj["program"]),
                       _json_int(obj["claimedQueries"], "claimedQueries"),
                       level, rules, optimal)
