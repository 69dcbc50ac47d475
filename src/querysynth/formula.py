"""Formulas over and/or/not with negations at the leaves.

Used both as a textual input format for functions (variables may repeat)
and as the output language of the read-once recognizer (each variable
exactly once).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import comb

from .boolfun import TruthTable, _restrict_bits, _var_masks

__all__ = [
    "Leaf",
    "Gate",
    "FormulaError",
    "parse_formula",
    "to_text",
    "to_table",
    "variables",
    "leaf_count",
    "is_read_once",
    "recognize_read_once",
    "random_read_once",
    "READ_ONCE_MAX_ARITY",
    "FORMULA_MAX_ARITY",
]

READ_ONCE_MAX_ARITY = 12
FORMULA_MAX_ARITY = 20


@dataclass(frozen=True)
class Leaf:
    var: int
    negated: bool = False


@dataclass(frozen=True)
class Gate:
    op: str  # "and" | "or"
    children: tuple

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise ValueError("gate op must be 'and' or 'or'")
        if len(self.children) < 2:
            raise ValueError("gate needs at least two children")


def variables(node) -> tuple[int, ...]:
    """Sorted distinct variable indices mentioned in the formula."""
    if isinstance(node, Leaf):
        return (node.var,)
    return tuple(sorted({v for ch in node.children for v in variables(ch)}))


def leaf_count(node) -> int:
    if isinstance(node, Leaf):
        return 1
    return sum(leaf_count(ch) for ch in node.children)


def is_read_once(node) -> bool:
    return leaf_count(node) == len(variables(node))


def _min_var(node) -> int:
    """Least variable of a normalized formula: its first leaf's."""
    while isinstance(node, Gate):
        node = node.children[0]
    return node.var


def normalize(node):
    """Flatten nested same-op gates and sort children deterministically."""
    if isinstance(node, Leaf):
        return node
    kids = []
    for ch in node.children:
        ch = normalize(ch)
        if isinstance(ch, Gate) and ch.op == node.op:
            kids.extend(ch.children)
        else:
            kids.append(ch)
    kids.sort(key=_min_var)
    # children of a read-once formula never share a least variable; only
    # repeated variables need the text to break ties
    if len({_min_var(c) for c in kids}) < len(kids):
        kids.sort(key=lambda c: (_min_var(c), to_text(c)))
    return Gate(node.op, tuple(kids))


def to_text(node) -> str:
    if isinstance(node, Leaf):
        return ("~x%d" if node.negated else "x%d") % node.var
    sep = " & " if node.op == "and" else " | "
    return "(" + sep.join(to_text(ch) for ch in node.children) + ")"


def to_table(node, arity: int | None = None) -> TruthTable:
    """Evaluate the formula into a truth table.

    The arity defaults to the highest variable index mentioned; lower
    indices that never occur end up as dead variables.
    """
    mv = max(variables(node))
    n = mv if arity is None else arity
    if n < mv:
        raise ValueError("arity %d below highest variable x%d" % (n, mv))
    if n > FORMULA_MAX_ARITY:
        raise ValueError("formula evaluation supports arity <= %d"
                         % FORMULA_MAX_ARITY)
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1

    def ev(nd) -> int:
        if isinstance(nd, Leaf):
            m = masks[nd.var - 1]
            return (~m & full) if nd.negated else m
        acc = ev(nd.children[0])
        if nd.op == "and":
            for ch in nd.children[1:]:
                acc &= ev(ch)
        else:
            for ch in nd.children[1:]:
                acc |= ev(ch)
        return acc

    return TruthTable(n, ev(node))


# ---------------------------------------------------------------------------
# parser: expr := term ('|' term)*, term := factor ('&' factor)*,
#         factor := '~' factor | '(' expr ')' | x<digits>


class FormulaError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def parse_formula(text: str):
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expr():
        nonlocal pos
        node = term()
        while True:
            skip()
            if pos < len(text) and text[pos] == "|":
                pos += 1
                node = ("or", node, term())
            else:
                return node

    def term():
        nonlocal pos
        node = factor()
        while True:
            skip()
            if pos < len(text) and text[pos] == "&":
                pos += 1
                node = ("and", node, factor())
            else:
                return node

    def factor():
        nonlocal pos
        skip()
        if pos >= len(text):
            raise FormulaError("unexpected end of formula", pos)
        ch = text[pos]
        if ch == "~":
            pos += 1
            return ("not", factor())
        if ch == "(":
            pos += 1
            node = expr()
            skip()
            if pos >= len(text) or text[pos] != ")":
                raise FormulaError("expected ')'", pos)
            pos += 1
            return node
        if ch == "x":
            start = pos
            pos += 1
            d0 = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == d0:
                raise FormulaError("expected variable index after 'x'", pos)
            var = int(text[d0:pos])
            if var < 1:
                raise FormulaError("variable index must be >= 1", start)
            return ("var", var)
        raise FormulaError("unexpected character %r" % ch, pos)

    raw = expr()
    skip()
    if pos != len(text):
        raise FormulaError("unexpected character %r" % text[pos], pos)
    return normalize(_push_not(raw, False))


def _push_not(raw, neg: bool):
    kind = raw[0]
    if kind == "var":
        return Leaf(raw[1], neg)
    if kind == "not":
        return _push_not(raw[1], not neg)
    op = kind
    if neg:
        op = "or" if op == "and" else "and"
    return Gate(op, (_push_not(raw[1], neg), _push_not(raw[2], neg)))


# ---------------------------------------------------------------------------
# read-once recognition: unate orientation, then alternating decomposition
# along connected components of the prime-form co-occurrence graphs


def recognize_read_once(f: TruthTable):
    """Return a read-once formula for f, or None if none exists.

    f must depend on every one of its variables.
    """
    n = f.arity
    if n > READ_ONCE_MAX_ARITY:
        raise ValueError("read-once recognition supports arity <= %d"
                         % READ_ONCE_MAX_ARITY)
    if n < 1:
        raise ValueError("read-once recognition needs arity >= 1")
    for i in range(1, n + 1):
        if f.is_dead(i):
            raise ValueError("dead variable x%d" % i)
    unate = _unate(f)
    if unate is None:
        return None  # not unate, so not read-once
    g, flips = unate
    ast = _decompose(g, tuple(range(1, n + 1)))
    return None if ast is None else normalize(_apply_flips(ast, flips))


def _unate(f: TruthTable):
    """(g, flips) when f is unate, else None: negating the inputs in flips
    (bit i-1 for x_i) makes g increasing in every variable."""
    n = f.arity
    flips = 0
    for i in range(n):
        f0 = _restrict_bits(f.bits, n, i, 0)
        f1 = _restrict_bits(f.bits, n, i, 1)
        if f0 & ~f1 == 0:
            continue  # increasing in x_i
        if f1 & ~f0 == 0:
            flips |= 1 << i
        else:
            return None
    g = f
    for i in range(1, n + 1):
        if (flips >> (i - 1)) & 1:
            g = g.negate_var(i)
    return g, flips


def _apply_flips(node, flips: int):
    if isinstance(node, Leaf):
        return Leaf(node.var, bool((flips >> (node.var - 1)) & 1))
    return Gate(node.op, tuple(_apply_flips(ch, flips) for ch in node.children))


def _components(groups, arity: int):
    parent = list(range(arity + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for grp in groups:
        it = iter(grp)
        first = find(next(it))
        for v in it:
            parent[find(v)] = first
    comps: dict[int, set[int]] = {}
    for v in range(1, arity + 1):
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=min)


def _split(t: TruthTable):
    """(op, [(component, factor)]) when t, increasing in every variable,
    is the OR (prime DNF terms in several components) or else the AND
    (prime CNF clauses likewise) of factors on disjoint variable tuples;
    each factor is t with the other variables fixed to the op's identity."""
    nf = t.prime_normal_forms()
    comps = _components(nf.dnf_terms, t.arity)
    if len(comps) > 1:
        op, fill = "or", 0
    else:
        comps = _components(nf.cnf_clauses, t.arity)
        if len(comps) > 1:
            op, fill = "and", 1
        else:
            return None
    parts = []
    for comp in comps:
        sub = t
        for i in range(t.arity, 0, -1):
            if i not in comp:
                sub = sub.restrict(i, fill)
        parts.append((tuple(sorted(comp)), sub))
    return op, parts


def _decompose(t: TruthTable, var_map: tuple[int, ...]):
    if t.arity == 1:
        return Leaf(var_map[0])
    split = _split(t)
    if split is None:
        return None
    op, parts = split
    children = []
    for comp, sub in parts:
        child = _decompose(sub, tuple(var_map[i - 1] for i in comp))
        if child is None:
            return None
        children.append(child)
    return Gate(op, tuple(children))


# ---------------------------------------------------------------------------


@functools.cache
def _split_weights(k: int) -> tuple:
    """Cumulative counts of the binary trees with k leaves by the leaf
    count 1..k-1 of the left subtree."""
    shapes = [comb(2 * (l - 1), l - 1) // l for l in range(1, k)]
    return tuple(itertools.accumulate(
        a * b for a, b in zip(shapes, reversed(shapes))))


def random_read_once(n: int, seed: int):
    """Random read-once formula: uniformly-shaped binary tree over a random
    variable permutation, random gate labels and leaf negations."""
    if not 1 <= n <= READ_ONCE_MAX_ARITY:
        raise ValueError("arity must be in 1..%d" % READ_ONCE_MAX_ARITY)
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    feed = iter(order)

    def build(k: int):
        if k == 1:
            return Leaf(next(feed), rng.random() < 0.5)
        l = rng.choices(range(1, k), cum_weights=_split_weights(k))[0]
        op = "and" if rng.random() < 0.5 else "or"
        return Gate(op, (build(l), build(k - l)))

    return normalize(build(n))
