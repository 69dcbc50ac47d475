"""Hybrid classical/quantum query programs and their exact simulation.

A program is a tree. Classical queries and xor gadgets branch on one
oracle call; a unitary block runs U_1, Q, U_2, ..., Q, U_{t+1} on its
own small register and branches on the standard-basis measurement
outcome. Phase oracle convention: Q negates the amplitude of basis
state s iff x_{label(s)} = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .boolfun import (TruthTable, _var_masks, table_and, table_exact,
                      table_or, table_threshold)

__all__ = [
    "EPSILON",
    "Output",
    "ClassicalQuery",
    "XorQuery",
    "UnitaryBlock",
    "AxiomLeaf",
    "Matrix",
    "SimulationReport",
    "query_cost",
    "classify_level",
    "collect_axioms",
    "apply_oracle",
    "simulate",
    "xor_gadget",
    "elaborate_xor",
    "parity_program",
    "nae_program",
    "axiom_queries",
    "axiom_rep_table",
    "axiom_citation",
    "program_to_json",
    "program_from_json",
]

EPSILON = 1e-9

CITE_EXACT_THRESHOLD = ("Ambainis, Iraids and Smotrovs 2013: exact quantum "
                        "query complexity of EXACT and threshold functions")
CITE_AND_OR = ("Beals, Buhrman, Cleve, Mosca and de Wolf 2001: n queries are "
               "necessary and sufficient for AND_n / OR_n")
CITE_THREE_BIT = ("Montanaro, Jozsa and Mitchison 2011: every 3-bit function "
                  "not isomorphic to AND_3 has exact quantum query complexity "
                  "at most two")
CITE_AND_OR_3 = ("Montanaro, Jozsa and Mitchison 2011: two exact queries "
                 "suffice for x1 AND (x2 OR x3)")


@dataclass(frozen=True, eq=False)
class Matrix:
    """Exact dyadic matrix: entries divided by sqrt(2)**norm_exp."""

    rows: tuple
    norm_exp: int = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def scale(self) -> float:
        return 2.0 ** (-self.norm_exp / 2.0)

    def apply(self, state):
        s = self.scale()
        return tuple(sum(r[c] * state[c] for c in range(len(state))) * s
                     for r in self.rows)

    def is_unitary(self, tol: float = EPSILON) -> bool:
        n = self.dim
        if any(len(r) != n for r in self.rows):
            return False
        try:
            s2 = 2.0 ** (-self.norm_exp)
        except OverflowError:
            return False  # a scale beyond float range cannot be checked
        for a in range(n):
            for b in range(n):
                dot = sum(self.rows[a][c] * complex(self.rows[b][c]).conjugate()
                          for c in range(n)) * s2
                want = 1.0 if a == b else 0.0
                # written so that a NaN dot product fails the test
                if not abs(dot - want) <= tol:
                    return False
        return True


@dataclass(frozen=True, eq=False)
class Output:
    bit: int


@dataclass(frozen=True, eq=False)
class ClassicalQuery:
    var: int
    child0: object
    child1: object


@dataclass(frozen=True, eq=False)
class XorQuery:
    """One-query gadget branching on x_i xor x_j."""

    i: int
    j: int
    child0: object
    child1: object


@dataclass(frozen=True, eq=False)
class UnitaryBlock:
    """labels[s] is the variable queried by basis state s (None: untouched).

    len(matrices) = t + 1 for t oracle calls; children[s] continues after
    measuring outcome s.
    """

    labels: tuple
    matrices: tuple
    children: tuple


@dataclass(frozen=True, eq=False)
class AxiomLeaf:
    """Literature-backed leaf: the residual function on `variables` is
    promised computable in `queries` exact queries."""

    class_id: str
    variables: tuple
    queries: int
    citation: str
    k: int | None = None

    @property
    def arity(self) -> int:
        return len(self.variables)


class _Shape:
    """What one static pass over every node of a program finds, reached
    or not: the worst-case query count, the largest variable, the axiom
    leaves with their paths, the path of the first unitary block, whether
    any node is quantum, and the message of each malformed node."""

    def __init__(self):
        self.queries = self.max_var = 0
        self.leaves, self.errors = [], []
        self.block, self.quantum = None, False

    @property
    def level(self) -> str:
        if self.leaves:
            return "CountCertified"
        return "FullySimulated" if self.quantum else "ClassicalOnly"


@functools.lru_cache(maxsize=1)
def _shape(program, path: str = "program") -> _Shape:
    """The fold of `program`, its root at `path`. Programs are immutable,
    so the shape of the last program folded is kept: the static reads,
    `simulate` and the certificate checker share one pass, and none of
    them changes it."""
    shape = _Shape()
    shape.queries = _fold(program, path, shape)
    return shape


def _fold(node, path: str, shape: _Shape) -> int:
    """Record `node` and everything below it in `shape`; return the
    worst-case number of oracle calls from `node` on."""
    errors = shape.errors
    if isinstance(node, ClassicalQuery):
        if node.var < 1:
            errors.append("classical query at %s reads x%d; variables start "
                          "at x1" % (path, node.var))
        shape.max_var = max(shape.max_var, node.var)
    elif isinstance(node, Output):
        if node.bit not in (0, 1):
            errors.append("output at %s must be 0 or 1" % path)
        return 0
    elif isinstance(node, XorQuery):
        if node.i == node.j or node.i < 1 or node.j < 1:
            errors.append("xor gadget at %s needs two distinct variables"
                          % path)
        shape.quantum = True
        shape.max_var = max(shape.max_var, node.i, node.j)
    elif isinstance(node, AxiomLeaf):
        shape.leaves.append((path, node))
        vs = node.variables
        shape.max_var = max(shape.max_var, *vs, 0)
        if not vs:
            errors.append("axiom leaf at %s reads no variables" % path)
        elif len(set(vs)) != len(vs):
            errors.append("axiom leaf at %s repeats variables" % path)
        elif min(vs) < 1:
            errors.append("axiom leaf at %s reads x%d; variables start at x1"
                          % (path, min(vs)))
        return node.queries
    elif isinstance(node, UnitaryBlock):
        labels, children = node.labels, node.children
        shape.quantum, shape.block = True, shape.block or path
        shape.max_var = max(shape.max_var, 0,
                            *(v for v in labels if v is not None))
        dim, t = len(labels), len(node.matrices) - 1
        if dim == 0:
            errors.append("unitary block at %s has no basis states" % path)
        elif any(v is not None and v < 1 for v in labels):
            errors.append("unitary block at %s labels a variable below x1"
                          % path)
        elif len(children) != dim:
            errors.append("dimension mismatch at %s: %d children for "
                          "dimension %d" % (path, len(children), dim))
        elif t < 0:
            errors.append("unitary block at %s has no matrices" % path)
        elif not all(m.dim == dim and m.is_unitary() for m in node.matrices):
            errors.append("non-unitary block at %s" % path)
        worst = 0
        for s, child in enumerate(children):
            worst = max(worst, _fold(child, "%s.m%d" % (path, s), shape))
        return t + worst
    else:
        raise TypeError("not a program node: %r" % (node,))
    q0 = _fold(node.child0, path + ".child0", shape)
    q1 = _fold(node.child1, path + ".child1", shape)
    return 1 + (q0 if q0 > q1 else q1)


def query_cost(node) -> int:
    """Worst-case number of oracle calls along any path."""
    return _shape(node).queries


def classify_level(node) -> str:
    return _shape(node).level


def collect_axioms(node, path: str = "program"):
    """All (path, AxiomLeaf) pairs in the tree."""
    return list(_shape(node, path).leaves)


def max_var(node) -> int:
    return _shape(node).max_var


# ---------------------------------------------------------------------------
# gadgets and builders


def apply_oracle(state, labels, m: int):
    """Phase oracle: negate amplitude of basis s iff x_{labels[s]} = 1."""
    out = []
    for s, amp in enumerate(state):
        v = labels[s]
        if v is not None and (m >> (v - 1)) & 1:
            amp = -amp
        out.append(amp)
    return tuple(out)


_H_IN = Matrix(((1, 1), (-1, 1)), 1)    # maps |0> to (|0> - |1>)/sqrt(2)
_H_OUT = Matrix(((1, -1), (1, 1)), 1)   # sends (|0> -|1>)/sqrt(2) back to |0>


def xor_gadget(i: int, j: int, child0, child1) -> XorQuery:
    """One oracle call deciding x_i xor x_j exactly."""
    if i == j or i < 1 or j < 1:
        raise ValueError("xor gadget needs two distinct variables")
    return XorQuery(i, j, child0, child1)


def elaborate_xor(node: XorQuery) -> UnitaryBlock:
    """The unitary realization: prepare (|i> - |j>)/sqrt(2), query once,
    rotate back; outcome 0 means x_i = x_j."""
    return UnitaryBlock((node.i, node.j), (_H_IN, _H_OUT),
                        (node.child0, node.child1))


def parity_program(n: int, invert: bool = False):
    """Exact parity of n bits with ceil(n/2) queries (xor gadget per pair)."""
    if n < 1:
        raise ValueError("parity needs arity >= 1")
    memo: dict = {}

    def fold(idx: int, acc: int):
        key = (idx, acc)
        got = memo.get(key)
        if got is not None:
            return got
        if idx > n:
            node = Output(acc ^ (1 if invert else 0))
        elif idx == n:
            node = ClassicalQuery(idx, fold(idx + 1, acc), fold(idx + 1, acc ^ 1))
        else:
            node = XorQuery(idx, idx + 1,
                            fold(idx + 2, acc), fold(idx + 2, acc ^ 1))
        memo[key] = node
        return node

    return fold(1, 0)


def nae_program(n: int, invert: bool = False, anchor: int = 0):
    """Not-all-equal via the chain of neighbour xors, n-1 queries: 0 on
    the input code `anchor` and its complement, 1 elsewhere (the other
    way round with `invert`)."""
    if n < 2:
        raise ValueError("not-all-equal needs arity >= 2")
    if not 0 <= anchor < 1 << n:
        raise ValueError("anchor %d out of range for arity %d" % (anchor, n))
    hit = Output(0 if invert else 1)
    node = Output(1 if invert else 0)
    for t in range(n - 1, 0, -1):
        # the chain continues while x_t xor x_(t+1) matches the anchor
        if ((anchor >> (t - 1)) ^ (anchor >> t)) & 1:
            node = XorQuery(t, t + 1, hit, node)
        else:
            node = XorQuery(t, t + 1, node, hit)
    return node


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimulationReport:
    """What `simulate` found. Bit m of `ones` is set iff input code m's
    outcome is 1, for the `size` inputs of the function; the {input: bit}
    map `outcomes` is built from it when first read."""

    exact: bool
    worst_wrong_amplitude: float
    queries_worst_case: int
    ones: int
    size: int

    @functools.cached_property
    def outcomes(self) -> dict:
        bits = format(self.ones, "0%db" % self.size)[::-1]
        return {m: int(c) for m, c in enumerate(bits)}

    def to_json(self) -> dict:
        return {
            "exact": self.exact,
            "worstWrongAmplitude": self.worst_wrong_amplitude,
            "queriesWorstCase": self.queries_worst_case,
            "outcomes": {str(m): b for m, b in self.outcomes.items()},
        }


def _patterns(labels, inputs: int, masks):
    """Split the input set by the values of the labelled variables:
    (subset, m) pairs, m an input code with the subset's values there."""
    parts = [(inputs, 0)]
    for v in sorted({v for v in labels if v is not None}):
        mask, bit = masks[v - 1], 1 << (v - 1)
        split = []
        for sub, m in parts:
            hi = sub & mask
            if hi:
                split.append((hi, m | bit))
            if sub ^ hi:
                split.append((sub ^ hi, m))
        parts = split
    return parts


def _branches(program, f: TruthTable) -> list:
    """Every terminal branch of `program` over f's inputs, in walk order:
    (inputs reaching it, amplitude magnitude, terminal node, its path,
    queries used along it). An input set holds input code m as bit m;
    outputs and axiom leaves are the terminals. For any one input, its
    branches keep the order and amplitudes of a walk of that input
    alone."""
    out: list = []
    _walk(program, (1 << f.size) - 1, 1.0, 0, "program",
          _var_masks(f.arity), out)
    return out


def _walk(node, inputs: int, amp: float, queries: int, path: str, masks,
          out: list) -> None:
    if isinstance(node, ClassicalQuery):
        hi = inputs & masks[node.var - 1]
        if inputs ^ hi:
            _walk(node.child0, inputs ^ hi, amp, queries + 1,
                  path + ".child0", masks, out)
        if hi:
            _walk(node.child1, hi, amp, queries + 1, path + ".child1", masks,
                  out)
        return
    if isinstance(node, XorQuery):
        differ = inputs & (masks[node.i - 1] ^ masks[node.j - 1])
        parts = (inputs ^ differ, differ)
        for s, by_xor in enumerate(_xor_magnitudes()):
            for mag, d in by_xor:
                if parts[d]:
                    _walk((node.child0, node.child1)[s], parts[d], amp * mag,
                          queries + 1, "%s.child%d" % (path, s), masks, out)
        return
    if not isinstance(node, UnitaryBlock):
        out.append((inputs, amp, node, path, queries))
        return
    # a block's state depends only on its labelled variables, so take the
    # outcome magnitudes once per pattern and send each outcome's inputs
    # on, grouped by the magnitude they reach it with
    groups = [{} for _ in node.children]  # outcome -> {magnitude: inputs}
    for sub, m in _patterns(node.labels, inputs, masks):
        for s, mag in enumerate(_magnitudes(node, m)):
            # a zero magnitude is a branch taken with probability exactly
            # zero; skipping it cannot change the report
            if mag != 0.0:
                groups[s][mag] = groups[s].get(mag, 0) | sub
    t = len(node.matrices) - 1
    for s, by_mag in enumerate(groups):
        for mag, sub in by_mag.items():
            _walk(node.children[s], sub, amp * mag, queries + t,
                  "%s.m%d" % (path, s), masks, out)


def _magnitudes(block: UnitaryBlock, m: int) -> tuple:
    """|amplitude| of each measurement outcome of `block` on input code m."""
    state = tuple(1.0 + 0.0j if s == 0 else 0.0j
                  for s in range(len(block.labels)))
    state = block.matrices[0].apply(state)
    for mat in block.matrices[1:]:
        state = mat.apply(apply_oracle(state, block.labels, m))
    return tuple(abs(amp) for amp in state)


@functools.cache
def _xor_magnitudes() -> tuple:
    """Per outcome of the xor gadget, its nonzero magnitudes as
    (magnitude, x_i xor x_j) pairs: elaborate_xor's block, simulated once
    per process. The patterns (1, 1) and (0, 1) differ from (0, 0) and
    (1, 0) by a global sign, so the magnitudes depend on the xor alone."""
    block = elaborate_xor(XorQuery(1, 2, Output(0), Output(1)))
    by_xor = [_magnitudes(block, m) for m in (0b00, 0b01)]
    return tuple(tuple((mags[s], d) for d, mags in enumerate(by_xor)
                       if mags[s] != 0.0) for s in range(2))


def simulate(program, f: TruthTable) -> SimulationReport:
    """Run the program on every input of f; exact iff every measurement
    branch of weight above EPSILON yields f(x)."""
    shape = _shape(program)
    if shape.max_var > f.arity:
        raise ValueError("unbound variable x%d for arity %d"
                         % (shape.max_var, f.arity))
    if shape.errors:
        raise ValueError(shape.errors[0])
    if shape.leaves:
        raise ValueError("not simulatable: axiom leaf at %s"
                         % shape.leaves[0][0])
    everything = (1 << f.size) - 1
    branches = _branches(program, f)
    worst_wrong = 0.0
    worst_queries = 0
    for inputs, amp, node, _, q in branches:
        wrong = inputs & (everything ^ f.bits if node.bit else f.bits)
        if wrong and amp > worst_wrong:
            worst_wrong = amp
        if amp > EPSILON and q > worst_queries:
            worst_queries = q
    # each input's outcome is its first branch of largest amplitude in walk
    # order: a stable sort keeps walk order among equal amplitudes
    decided = ones = 0
    for inputs, amp, node, _, q in sorted(branches, key=lambda br: -br[1]):
        new = inputs & ~decided
        decided |= new
        if node.bit:
            ones |= new
    return SimulationReport(worst_wrong <= EPSILON, worst_wrong,
                            worst_queries, ones, f.size)


# ---------------------------------------------------------------------------
# axiom classes: the closed list of literature-backed leaves


def axiom_queries(class_id: str, n: int, k: int | None = None) -> int:
    if class_id == "exact":
        if k is None or not 0 <= k <= n:
            raise ValueError("exact-k needs 0 <= k <= n")
        return max(k, n - k)
    if class_id == "threshold":
        if k is None or not 1 <= k <= n:
            raise ValueError("threshold needs 1 <= k <= n")
        return max(k, n - k + 1)
    if class_id in ("and", "or"):
        return n
    if class_id == "and_or_3":
        if n != 3:
            raise ValueError("and_or_3 is a 3-variable class")
        return 2
    if class_id == "three_bit":
        if n != 3:
            raise ValueError("three_bit is a 3-variable class")
        return 2
    raise ValueError("unknown axiom class %r" % class_id)


def axiom_rep_table(class_id: str, n: int, k: int | None = None) -> TruthTable:
    if class_id == "exact":
        return table_exact(n, k)
    if class_id == "threshold":
        return table_threshold(n, k)
    if class_id == "and":
        return table_and(n)
    if class_id == "or":
        return table_or(n)
    if class_id == "and_or_3":
        return TruthTable(3, 0b10101000)
    if class_id == "three_bit":
        raise ValueError("three_bit is a family, not a single class "
                         "representative")
    raise ValueError("unknown axiom class %r" % class_id)


def axiom_citation(class_id: str) -> str:
    if class_id in ("exact", "threshold"):
        return CITE_EXACT_THRESHOLD
    if class_id in ("and", "or"):
        return CITE_AND_OR
    if class_id == "and_or_3":
        return CITE_AND_OR_3
    if class_id == "three_bit":
        return CITE_THREE_BIT
    raise ValueError("unknown axiom class %r" % class_id)


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(mat: Matrix) -> dict:
    return {
        "normExp": mat.norm_exp,
        "rows": [[[complex(e).real, complex(e).imag] for e in row]
                 for row in mat.rows],
    }


def _json_int(value, name: str) -> int:
    """`value` if it is a JSON integer; floats, strings and booleans are
    refused rather than converted, so that 1.9 cannot stand for 1."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def _matrix_entry(pair):
    """An [re, im] pair of JSON numbers; integral real entries stay int."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or any(type(v) not in (int, float) for v in pair)):
        raise ValueError("matrix entries must be [re, im] number pairs")
    re, im = pair
    try:
        return (complex(re, im) if im else
                int(re) if float(re).is_integer() else re)
    except OverflowError:
        raise ValueError("matrix entry beyond floating-point range") from None


def _matrix_from_json(obj) -> Matrix:
    rows = tuple(tuple(_matrix_entry(pair) for pair in row)
                 for row in obj["rows"])
    return Matrix(rows, _json_int(obj["normExp"], "normExp"))


def program_to_json(node) -> dict:
    if isinstance(node, Output):
        return {"kind": "output", "bit": node.bit}
    if isinstance(node, ClassicalQuery):
        return {"kind": "cq", "var": node.var,
                "child0": program_to_json(node.child0),
                "child1": program_to_json(node.child1)}
    if isinstance(node, XorQuery):
        return {"kind": "xq", "i": node.i, "j": node.j,
                "child0": program_to_json(node.child0),
                "child1": program_to_json(node.child1)}
    if isinstance(node, UnitaryBlock):
        return {"kind": "ub",
                "labels": list(node.labels),
                "matrices": [_matrix_to_json(m) for m in node.matrices],
                "children": [program_to_json(ch) for ch in node.children]}
    if isinstance(node, AxiomLeaf):
        out = {"kind": "axiom", "class": node.class_id,
               "vars": list(node.variables), "queries": node.queries,
               "citation": node.citation}
        if node.k is not None:
            out["k"] = node.k
        return out
    raise TypeError("not a program node: %r" % (node,))


def program_from_json(obj) -> object:
    if not isinstance(obj, dict):
        raise ValueError("program node must be a JSON object")
    kind = obj.get("kind")
    if kind == "output":
        bit = _json_int(obj["bit"], "output bit")
        if bit not in (0, 1):
            raise ValueError("output bit must be 0 or 1")
        return Output(bit)
    if kind == "cq":
        var = _json_int(obj["var"], "cq var")
        if var < 1:
            raise ValueError("cq var must be at least 1")
        return ClassicalQuery(var,
                              program_from_json(obj["child0"]),
                              program_from_json(obj["child1"]))
    if kind == "xq":
        i, j = _json_int(obj["i"], "xq i"), _json_int(obj["j"], "xq j")
        if i == j or i < 1 or j < 1:
            raise ValueError("xq needs two distinct variables")
        return XorQuery(i, j,
                        program_from_json(obj["child0"]),
                        program_from_json(obj["child1"]))
    if kind == "ub":
        labels = tuple(None if v is None else _json_int(v, "ub label")
                       for v in obj["labels"])
        if any(v is not None and v < 1 for v in labels):
            raise ValueError("ub labels must be null or at least 1")
        mats = tuple(_matrix_from_json(m) for m in obj["matrices"])
        children = tuple(program_from_json(ch) for ch in obj["children"])
        return UnitaryBlock(labels, mats, children)
    if kind == "axiom":
        k = obj.get("k")
        if k is not None:
            k = _json_int(k, "axiom k")
        return AxiomLeaf(obj["class"],
                         tuple(_json_int(v, "axiom var") for v in obj["vars"]),
                         _json_int(obj["queries"], "axiom queries"),
                         obj["citation"], k)
    raise ValueError("unknown program node kind %r" % kind)
