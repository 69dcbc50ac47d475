"""Program trees, the xor gadget, and the amplitude-level simulator."""

import json
import random

import pytest

from querysynth.boolfun import (TruthTable, table_and, table_exact, table_nae,
                               table_parity)
from querysynth.qprogram import (
    CITE_AND_OR,
    CITE_AND_OR_3,
    CITE_EXACT_THRESHOLD,
    CITE_THREE_BIT,
    EPSILON,
    AxiomLeaf,
    ClassicalQuery,
    Matrix,
    Output,
    UnitaryBlock,
    XorQuery,
    apply_oracle,
    axiom_citation,
    axiom_queries,
    axiom_rep_table,
    classify_level,
    collect_axioms,
    elaborate_xor,
    max_var,
    nae_program,
    parity_program,
    program_from_json,
    program_to_json,
    query_cost,
    simulate,
    xor_gadget,
)
from querysynth.synth import (Certificate, certificate_from_json,
                              certificate_to_json, synthesize,
                              verify_certificate)

H = Matrix(((1, 1), (1, -1)), 1)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_unitarity():
    assert H.is_unitary()
    assert Matrix(((0, 1), (1, 0))).is_unitary()
    assert Matrix(((1j, 0), (0, 1)), 0).is_unitary()
    assert not Matrix(((1, 1), (1, 1)), 1).is_unitary()
    assert not Matrix(((1, 0), (0, 2))).is_unitary()
    assert not Matrix(((1, 0, 0), (0, 1, 0))).is_unitary()
    # a NaN entry, or an overflow times an underflow, makes a NaN dot product
    assert not Matrix(((float("nan"), 0), (0, 1))).is_unitary()
    assert not Matrix(((1e200, 0), (0, 1e200)), 2000).is_unitary()


def test_matrix_apply_scales():
    out = H.apply((1.0, 0.0))
    assert out == pytest.approx((2 ** -0.5, 2 ** -0.5))


# ---------------------------------------------------------------------------
# tree accessors


def _parity2_tree():
    return XorQuery(1, 2, Output(0), Output(1))


def test_query_cost_shapes():
    assert query_cost(Output(1)) == 0
    assert query_cost(ClassicalQuery(1, Output(0), Output(1))) == 1
    assert query_cost(_parity2_tree()) == 1
    nested = ClassicalQuery(3, _parity2_tree(), Output(0))
    assert query_cost(nested) == 2
    leaf = AxiomLeaf("and", (1, 2, 3), 3, CITE_AND_OR)
    assert query_cost(ClassicalQuery(4, leaf, Output(1))) == 4
    blk = elaborate_xor(_parity2_tree())
    assert query_cost(blk) == 1  # two matrices, one oracle call


def test_classify_level():
    assert classify_level(Output(0)) == "ClassicalOnly"
    assert classify_level(ClassicalQuery(1, Output(0), Output(1))) == \
        "ClassicalOnly"
    assert classify_level(_parity2_tree()) == "FullySimulated"
    assert classify_level(elaborate_xor(_parity2_tree())) == "FullySimulated"
    leaf = AxiomLeaf("or", (1, 2), 2, CITE_AND_OR)
    assert classify_level(ClassicalQuery(3, leaf, Output(0))) == \
        "CountCertified"
    # an axiom anywhere dominates quantum blocks elsewhere
    assert classify_level(XorQuery(1, 2, leaf, Output(1))) == "CountCertified"


def test_collect_axioms_paths():
    leaf = AxiomLeaf("and", (1, 2), 2, CITE_AND_OR)
    tree = ClassicalQuery(3, XorQuery(1, 2, Output(0), leaf), leaf)
    got = collect_axioms(tree)
    assert [p for p, _ in got] == ["program.child0.child1", "program.child1"]
    assert all(l is leaf for _, l in got)
    assert collect_axioms(Output(1)) == []


def test_max_var():
    assert max_var(Output(0)) == 0
    assert max_var(_parity2_tree()) == 2
    assert max_var(ClassicalQuery(5, Output(0), Output(1))) == 5
    assert max_var(elaborate_xor(XorQuery(2, 7, Output(0), Output(1)))) == 7
    assert max_var(AxiomLeaf("and", (2, 4), 2, CITE_AND_OR)) == 4


def test_apply_oracle_flips_labelled_phases():
    # x1 = 1, x2 = 0: only the basis state labelled with variable 1 flips
    assert apply_oracle((1.0, 2.0, 3.0), (1, None, 2), 0b01) == \
        (-1.0, 2.0, 3.0)
    assert apply_oracle((1.0, 2.0, 3.0), (1, None, 2), 0b10) == \
        (1.0, 2.0, -3.0)
    assert apply_oracle((1.0, 2.0), (None, None), 0b11) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# gadget and builders


def test_xor_gadget_exhaustive_small():
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for b0 in (0, 1):
                    for b1 in (0, 1):
                        g = xor_gadget(i, j, Output(b0), Output(b1))
                        vals = [b1 if ((m >> (i - 1)) ^ (m >> (j - 1))) & 1
                                else b0 for m in range(1 << n)]
                        rep = simulate(g, TruthTable.from_values(vals))
                        assert rep.exact
                        assert rep.queries_worst_case == 1


def test_xor_gadget_rejects_degenerate():
    with pytest.raises(ValueError):
        xor_gadget(2, 2, Output(0), Output(1))
    with pytest.raises(ValueError):
        xor_gadget(0, 1, Output(0), Output(1))


def test_elaborated_gadget_passes_validation():
    blk = elaborate_xor(XorQuery(1, 3, Output(0), Output(1)))
    assert isinstance(blk, UnitaryBlock)
    assert blk.labels == (1, 3)
    vals = [((m >> 0) ^ (m >> 2)) & 1 for m in range(8)]
    assert simulate(blk, TruthTable.from_values(vals)).exact


def test_parity_program_costs_and_exactness():
    for n in range(1, 9):
        prog = parity_program(n)
        assert query_cost(prog) == (n + 1) // 2
        assert simulate(prog, table_parity(n)).exact
    inv = parity_program(3, invert=True)
    assert simulate(inv, table_parity(3).complement()).exact


def test_parity_program_single_query_pair():
    # two bits, one query: the Deutsch-style gadget
    rep = simulate(parity_program(2), table_parity(2))
    assert rep.exact and rep.queries_worst_case == 1


def test_nae_program_costs_and_exactness():
    for n in range(2, 9):
        prog = nae_program(n)
        assert query_cost(prog) == n - 1
        assert simulate(prog, table_nae(n)).exact
    inv = nae_program(4, invert=True)
    assert simulate(inv, table_nae(4).complement()).exact


def test_nae_program_anchored_chain():
    for n in range(2, 7):
        full = (1 << (1 << n)) - 1
        for c in range(1 << n):
            pair = (1 << c) | (1 << (c ^ ((1 << n) - 1)))
            for invert in (False, True):
                prog = nae_program(n, invert, c)
                rep = simulate(prog, TruthTable(n, pair if invert
                                                else full ^ pair))
                assert rep.exact and rep.queries_worst_case == n - 1, (n, c)
                assert query_cost(prog) == n - 1


def test_builder_guards():
    with pytest.raises(ValueError):
        parity_program(0)
    with pytest.raises(ValueError):
        nae_program(1)
    for anchor in (-1, 8):
        with pytest.raises(ValueError):
            nae_program(3, anchor=anchor)


# ---------------------------------------------------------------------------
# simulation behavior


def test_simulate_reports_wrong_branch_amplitude():
    tree = XorQuery(1, 2, Output(1), Output(1))  # claims constant 1
    rep = simulate(tree, table_parity(2))
    assert not rep.exact
    assert rep.worst_wrong_amplitude == pytest.approx(1.0)
    assert rep.outcomes == {0: 1, 1: 1, 2: 1, 3: 1}


def test_simulate_partial_amplitude_error():
    # Hadamard then measure, no oracle call: half the weight is wrong
    blk = UnitaryBlock((None, None), (H,), (Output(0), Output(1)))
    rep = simulate(blk, TruthTable(1, 0b00))
    assert not rep.exact
    assert rep.worst_wrong_amplitude == pytest.approx(2 ** -0.5)
    assert rep.queries_worst_case == 0


def test_simulate_rejects_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable x3"):
        simulate(ClassicalQuery(3, Output(0), Output(1)), table_parity(2))


def test_simulate_rejects_axiom_leaves():
    leaf = AxiomLeaf("and", (1, 2), 2, CITE_AND_OR)
    prog = ClassicalQuery(1, leaf, Output(1))
    with pytest.raises(ValueError,
                       match=r"not simulatable: axiom leaf at program.child0"):
        simulate(prog, TruthTable(2, 0b1000))


def test_simulate_rejects_bad_blocks():
    bad = UnitaryBlock((1, 2), (Matrix(((1, 1), (1, 1)), 1), H),
                       (Output(0), Output(1)))
    with pytest.raises(ValueError, match="non-unitary"):
        simulate(bad, table_parity(2))
    short = UnitaryBlock((1, 2), (H, H), (Output(0),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        simulate(short, table_parity(2))


def test_verify_rejects_nan_matrix():
    # JSON admits NaN; such a block must not pass as an exact 0-query program
    nan_block = {"kind": "ub", "labels": [None, None],
                 "matrices": [{"normExp": 0,
                               "rows": [[["NaN", 0], [0, 0]],
                                        [[0, 0], ["NaN", 0]]]}],
                 "children": [{"kind": "output", "bit": 0},
                              {"kind": "output", "bit": 1}]}
    text = json.dumps({"schema": 1, "kind": "certificate",
                       "function": {"arity": 3, "table": "hex:96"},
                       "claimedQueries": 0, "level": "FullySimulated",
                       "rulesUsed": [], "program": nan_block})
    text = text.replace('"NaN"', "NaN")
    report = verify_certificate(certificate_from_json(json.loads(text)))
    assert not report.ok
    assert any("non-unitary" in msg for msg in report.failures)


def test_simulation_report_json_keys():
    rep = simulate(parity_program(2), table_parity(2))
    obj = rep.to_json()
    assert set(obj) == {"exact", "worstWrongAmplitude", "queriesWorstCase",
                        "outcomes"}
    assert obj["outcomes"] == {"0": 0, "1": 1, "2": 1, "3": 0}


# ---------------------------------------------------------------------------
# differential test against a per-input reference walker


def _reference_run(node, m):
    """Every measurement branch for input m alone: (amplitude magnitude,
    output bit, queries), in walk order, amplitudes multiplied bottom-up."""
    if isinstance(node, Output):
        return ((1.0, node.bit, 0),)
    if isinstance(node, ClassicalQuery):
        child = node.child1 if (m >> (node.var - 1)) & 1 else node.child0
        return tuple((a, o, q + 1) for a, o, q in _reference_run(child, m))
    if isinstance(node, XorQuery):
        node = elaborate_xor(node)
    state = tuple(1.0 + 0.0j if s == 0 else 0.0j
                  for s in range(len(node.labels)))
    state = node.matrices[0].apply(state)
    for mat in node.matrices[1:]:
        state = mat.apply(apply_oracle(state, node.labels, m))
    t = len(node.matrices) - 1
    out = []
    for s, amp in enumerate(state):
        mag = abs(amp)
        if mag == 0.0:
            continue
        for a, o, q in _reference_run(node.children[s], m):
            out.append((mag * a, o, q + t))
    return tuple(out)


def _reference_simulate(program, f):
    """Input by input: the first branch of largest amplitude gives the
    outcome; wrong branches and branches above EPSILON set the worst
    cases."""
    worst_wrong = 0.0
    worst_queries = 0
    outcomes = {}
    for m in range(f.size):
        want = f.value(m)
        best_amp, best_out = -1.0, 0
        for amp, o, q in _reference_run(program, m):
            if o != want and amp > worst_wrong:
                worst_wrong = amp
            if amp > EPSILON and q > worst_queries:
                worst_queries = q
            if amp > best_amp:
                best_amp, best_out = amp, o
        outcomes[m] = best_out
    return worst_wrong <= EPSILON, worst_wrong, worst_queries, outcomes


def _assert_matches_reference(program, f):
    rep = simulate(program, f)
    exact, worst_wrong, queries, outcomes = _reference_simulate(program, f)
    assert rep.exact == exact
    assert rep.worst_wrong_amplitude == worst_wrong  # bit-identical floats
    assert rep.queries_worst_case == queries
    assert rep.outcomes == outcomes
    return rep


def _and_chain(n):
    node = Output(1)
    for i in range(n, 0, -1):
        node = ClassicalQuery(i, Output(0), node)
    return node


def _flip_one_bit(f, rng):
    return TruthTable(f.arity, f.bits ^ (1 << rng.randrange(f.size)))


def test_simulate_matches_reference_on_builders():
    rng = random.Random(11)
    for n in range(1, 11):
        cases = [(parity_program(n), table_parity(n)),
                 (parity_program(n, invert=True),
                  table_parity(n).complement()),
                 (_and_chain(n), table_and(n))]
        if n >= 2:
            cases.append((nae_program(n), table_nae(n)))
        for prog, f in cases:
            assert _assert_matches_reference(prog, f).exact
            assert not _assert_matches_reference(
                prog, _flip_one_bit(f, rng)).exact


def test_simulate_matches_reference_on_synthesized_certificates():
    rng = random.Random(2024)
    tables = [TruthTable(3, bits) for bits in range(256)]
    tables += [TruthTable(4, rng.getrandbits(16)) for _ in range(200)]
    checked = 0
    for f in tables:
        cert = synthesize(f)
        if cert.level == "CountCertified":
            continue
        checked += 1
        assert _assert_matches_reference(cert.program, f).exact
        assert not _assert_matches_reference(
            cert.program, _flip_one_bit(f, rng)).exact
    assert checked > 100


_PHASE = Matrix(((1, 0), (0, 1j)))
_SKEW = Matrix(((1, 1j), (1j, 1)), 1)
_H2 = Matrix(((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)), 2)
_PHASE4 = Matrix(((1, 0, 0, 0), (0, 1j, 0, 0), (0, 0, -1, 0),
                  (0, 0, 0, -1j)))


def _hand_built_blocks():
    """Blocks with untouched basis states, repeated labels, complex
    phases and no oracle call, nested under each other and under
    classical queries; most are not exact."""
    leaf01 = (Output(0), Output(1))
    leaf10 = (Output(1), Output(0))
    no_query = UnitaryBlock((None, None), (H,), leaf01)
    phases = UnitaryBlock((1, None), (_SKEW, _PHASE, H), leaf10)
    repeated = UnitaryBlock((2, 2, None, 1), (_H2, _PHASE4, _H2),
                            (Output(0), Output(1), Output(1), Output(0)))
    two_calls = UnitaryBlock((1, 3, 3, None), (_H2, _H2, _PHASE4, _H2),
                             (phases, Output(1), no_query, repeated))
    nested = UnitaryBlock((3, None), (_SKEW, H),
                          (ClassicalQuery(2, phases, no_query), two_calls))
    # outcome 0 has magnitude 1 for x1 = x2 = 0 and 1/2 otherwise
    uneven = UnitaryBlock((1, 2, None, None), (_H2, _H2),
                          (nested, Output(1), phases, Output(0)))
    return [no_query, phases, repeated, two_calls, nested, uneven,
            ClassicalQuery(1, repeated, XorQuery(2, 3, nested, phases)),
            XorQuery(1, 3, no_query, Output(1))]


def test_simulate_matches_reference_on_hand_built_blocks():
    rng = random.Random(5)
    for prog in _hand_built_blocks():
        n = max(max_var(prog), 1)
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(6)]
        tables += [TruthTable(n, 0), TruthTable(n, (1 << (1 << n)) - 1)]
        for f in tables:
            _assert_matches_reference(prog, f)
        # the wider arity leaves the extra variables unread
        _assert_matches_reference(prog, TruthTable(4, rng.getrandbits(16)))


def test_simulate_tie_goes_to_first_branch_in_walk_order():
    # a Hadamard without a query: both outcomes carry amplitude 1/sqrt(2)
    first_one = UnitaryBlock((None, None), (H,), (Output(1), Output(0)))
    first_zero = UnitaryBlock((None, None), (H,), (Output(0), Output(1)))
    assert simulate(first_one, TruthTable(1, 0b11)).outcomes == {0: 1, 1: 1}
    assert simulate(first_zero, TruthTable(1, 0b11)).outcomes == {0: 0, 1: 0}
    # the input sets split first; each input still takes its own first branch
    prog = ClassicalQuery(1, first_one, first_zero)
    rep = _assert_matches_reference(prog, TruthTable(1, 0b01))
    assert rep.outcomes == {0: 1, 1: 0}


# ---------------------------------------------------------------------------
# the xor gadget's cached magnitudes against its elaborated block


def _kids(node):
    if isinstance(node, UnitaryBlock):
        return node.children
    if isinstance(node, (ClassicalQuery, XorQuery)):
        return (node.child0, node.child1)
    return ()


def _elaborated(node, memo):
    """`node` with every xor gadget replaced by elaborate_xor's block;
    shared subtrees stay shared."""
    got = memo.get(id(node))
    if got is None:
        if isinstance(node, XorQuery):
            got = elaborate_xor(XorQuery(node.i, node.j,
                                         _elaborated(node.child0, memo),
                                         _elaborated(node.child1, memo)))
        elif isinstance(node, ClassicalQuery):
            got = ClassicalQuery(node.var, _elaborated(node.child0, memo),
                                 _elaborated(node.child1, memo))
        elif isinstance(node, UnitaryBlock):
            got = UnitaryBlock(node.labels, node.matrices,
                               tuple(_elaborated(ch, memo)
                                     for ch in node.children))
        else:
            got = node
        memo[id(node)] = got
    return got


def _assert_xor_path_matches_elaborated(prog, f, rng):
    """simulate reports the same, bit for bit, with and without the
    gadget's cached magnitudes: on f, f with one bit flipped and a
    random table."""
    slow_prog = _elaborated(prog, {})
    assert not any(isinstance(nd, XorQuery) for nd in _nodes(slow_prog))
    for g in (f, _flip_one_bit(f, rng),
              TruthTable(f.arity, rng.getrandbits(f.size))):
        fast, slow = simulate(prog, g), simulate(slow_prog, g)
        assert fast.exact == slow.exact
        assert (fast.worst_wrong_amplitude.hex()
                == slow.worst_wrong_amplitude.hex())
        assert fast.queries_worst_case == slow.queries_worst_case
        assert fast.outcomes == slow.outcomes


def _nodes(node):
    yield node
    for ch in _kids(node):
        yield from _nodes(ch)


def test_xor_path_matches_elaborated_blocks_on_builders():
    rng = random.Random(16)
    for n in range(2, 13):
        full = (1 << n) - 1
        anchor = rng.randrange(1 << n)
        anchored = TruthTable(n, ((1 << (1 << n)) - 1) ^ (1 << anchor)
                              ^ (1 << (full ^ anchor)))
        for prog, f in ((parity_program(n), table_parity(n)),
                        (parity_program(n, invert=True),
                         table_parity(n).complement()),
                        (nae_program(n, anchor=anchor), anchored)):
            assert simulate(prog, f).exact
            _assert_xor_path_matches_elaborated(prog, f, rng)


def _over_pair_xors(n, g):
    """g(x1^x2, x3^x4, ...), x_n alone at odd n: the shape xor gadgets
    fit, where random tables above arity 5 almost never come out
    FullySimulated."""
    def value(m):
        y = 0
        for k in range(0, n, 2):
            y |= ((m >> k ^ m >> (k + 1)) & 1 if k + 1 < n
                  else m >> k & 1) << (k // 2)
        return g >> y & 1
    return TruthTable.from_values(value(m) for m in range(1 << n))


def test_xor_path_matches_elaborated_blocks_on_synthesized_programs():
    rng = random.Random(61)
    checked = {4: 0, 5: 0, 6: 0}
    for n in checked:
        tables = [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(16)]
        tables += [_over_pair_xors(n, rng.getrandbits(1 << (n + 1) // 2))
                   for _ in range(8)]
        for f in tables:
            cert = synthesize(f)
            if cert.level != "FullySimulated":
                continue
            checked[n] += 1
            _assert_xor_path_matches_elaborated(cert.program, f, rng)
    assert min(checked.values()) >= 5, checked


def test_planted_gadget_fault_is_caught(monkeypatch):
    """The gadget's magnitudes are simulated from elaborate_xor's
    matrices, not written down: a sign flipped in its output matrix
    makes a parity certificate fail."""
    from querysynth import qprogram
    cert = synthesize(table_parity(4))
    assert cert.level == "FullySimulated" and verify_certificate(cert).ok
    flipped = Matrix(((1, -1), (1, -1)), 1)  # entry (1, 1) negated
    with monkeypatch.context() as mp:
        mp.setattr(qprogram, "_H_OUT", flipped)
        qprogram._xor_magnitudes.cache_clear()
        try:
            rep = verify_certificate(cert)
        finally:
            qprogram._xor_magnitudes.cache_clear()
    assert not rep.ok
    assert rep.simulation.worst_wrong_amplitude > 0.5
    assert verify_certificate(cert).ok


# ---------------------------------------------------------------------------
# variables out of range


def test_verify_rejects_variable_zero():
    # x0 does not exist; it must not be read as some other variable
    f = TruthTable(2, 0b1100)  # x2
    prog = ClassicalQuery(0, Output(0), Output(1))
    report = verify_certificate(Certificate(f, prog, 1, "ClassicalOnly", (),
                                            False))
    assert not report.ok
    assert any("variables start at x1" in msg for msg in report.failures)
    doc = {"schema": 1, "kind": "certificate",
           "function": {"arity": 2, "table": "hex:c"},
           "claimedQueries": 1, "level": "ClassicalOnly", "rulesUsed": [],
           "program": program_to_json(prog)}
    with pytest.raises(ValueError, match="cq var"):
        certificate_from_json(doc)


@pytest.mark.parametrize("node", [
    {"kind": "cq", "var": 0, "child0": {"kind": "output", "bit": 0},
     "child1": {"kind": "output", "bit": 1}},
    {"kind": "cq", "var": -2, "child0": {"kind": "output", "bit": 0},
     "child1": {"kind": "output", "bit": 1}},
    {"kind": "xq", "i": 0, "j": 1, "child0": {"kind": "output", "bit": 0},
     "child1": {"kind": "output", "bit": 1}},
    {"kind": "xq", "i": 2, "j": 0, "child0": {"kind": "output", "bit": 0},
     "child1": {"kind": "output", "bit": 1}},
    {"kind": "xq", "i": 2, "j": 2, "child0": {"kind": "output", "bit": 0},
     "child1": {"kind": "output", "bit": 1}},
    {"kind": "ub", "labels": [1, 0],
     "matrices": [{"normExp": 1, "rows": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]}],
     "children": [{"kind": "output", "bit": 0}, {"kind": "output", "bit": 1}]},
])
def test_program_json_rejects_out_of_range_variables(node):
    with pytest.raises(ValueError, match="cq var|xq needs|ub labels"):
        program_from_json(node)


def test_simulate_rejects_out_of_range_variables():
    f = TruthTable(2, 0b0110)
    bad = [ClassicalQuery(0, Output(0), Output(1)),
           XorQuery(1, 1, Output(0), Output(1)),
           XorQuery(0, 2, Output(0), Output(1)),
           UnitaryBlock((None, -1), (H,), (Output(0), Output(1))),
           ClassicalQuery(1, Output(0), Output(2))]
    for prog in bad:
        with pytest.raises(ValueError):
            simulate(prog, f)


# ---------------------------------------------------------------------------
# the static fold against per-question reference walks


def _reference_query_cost(node):
    if isinstance(node, Output):
        return 0
    if isinstance(node, (ClassicalQuery, XorQuery)):
        return 1 + max(_reference_query_cost(node.child0),
                       _reference_query_cost(node.child1))
    if isinstance(node, UnitaryBlock):
        t = len(node.matrices) - 1
        return t + max(_reference_query_cost(ch) for ch in node.children)
    return node.queries


def _reference_max_var(node):
    if isinstance(node, Output):
        return 0
    if isinstance(node, ClassicalQuery):
        return max(node.var, _reference_max_var(node.child0),
                   _reference_max_var(node.child1))
    if isinstance(node, XorQuery):
        return max(node.i, node.j, _reference_max_var(node.child0),
                   _reference_max_var(node.child1))
    if isinstance(node, UnitaryBlock):
        labeled = [v for v in node.labels if v is not None]
        return max([*labeled, 0]
                   + [_reference_max_var(ch) for ch in node.children])
    return max(node.variables)


def _reference_level(node):
    kinds = {type(nd) for nd in _nodes(node)}
    if AxiomLeaf in kinds:
        return "CountCertified"
    if kinds & {XorQuery, UnitaryBlock}:
        return "FullySimulated"
    return "ClassicalOnly"


def _reference_validate(node):
    """Raise ValueError on the first node, reached or not, that the
    simulator cannot run."""
    if isinstance(node, AxiomLeaf):
        raise ValueError("axiom leaf")
    if isinstance(node, Output) and node.bit not in (0, 1):
        raise ValueError("output bit")
    if isinstance(node, ClassicalQuery) and node.var < 1:
        raise ValueError("query variable")
    if isinstance(node, XorQuery) and (node.i == node.j or node.i < 1
                                       or node.j < 1):
        raise ValueError("xor variables")
    if isinstance(node, UnitaryBlock):
        dim = len(node.labels)
        if (dim == 0 or any(v is not None and v < 1 for v in node.labels)
                or len(node.children) != dim or not node.matrices):
            raise ValueError("block shape")
        for mat in node.matrices:
            if (mat.dim != dim or any(len(r) != dim for r in mat.rows)
                    or not mat.is_unitary()):
                raise ValueError("block matrix")
    for ch in _kids(node):
        _reference_validate(ch)


def _reference_rejects(prog, f):
    try:
        if _reference_max_var(prog) > f.arity:
            return True
        _reference_validate(prog)
    except ValueError:
        return True
    return False


def _malformed_programs():
    leaf = AxiomLeaf("and", (1, 2), 2, CITE_AND_OR)
    return [ClassicalQuery(3, Output(1), ClassicalQuery(0, Output(0), leaf)),
            XorQuery(1, 2, Output(0), XorQuery(2, 2, Output(1), Output(0))),
            ClassicalQuery(1, Output(0), Output(5)),
            UnitaryBlock((1, 2), (Matrix(((2, 0), (0, 2))), H),
                         (Output(0), Output(1))),
            UnitaryBlock((1, 2), (H, H), (Output(0),)),
            UnitaryBlock((1, 0), (H,), (Output(0), Output(1))),
            UnitaryBlock((), (Matrix(()),), ()),
            UnitaryBlock((1, 2), (), (Output(0), Output(1))),
            ClassicalQuery(2, elaborate_xor(_parity2_tree()), leaf)]


def _fold_population():
    """(program, arity) pairs: builders, synthesized certificates and
    mutants of their count-certified programs, hand-built and malformed
    blocks."""
    from test_synth import _mutants
    rng = random.Random(19)
    for n in range(1, 13):
        yield parity_program(n), n
        yield _and_chain(n), n
        if n >= 2:
            yield nae_program(n, anchor=rng.randrange(1 << n)), n
    for n in range(3, 8):
        for _ in range(4 if n < 7 else 2):
            cert = synthesize(TruthTable(n, rng.getrandbits(1 << n)))
            yield cert.program, n
            if cert.level == "CountCertified":
                for mutant in _mutants(cert.program, n, rng):
                    yield mutant, n
    for prog in _hand_built_blocks() + _malformed_programs():
        yield prog, 3


def test_fold_matches_reference_walks():
    rejected = accepted = 0
    for prog, n in _fold_population():
        try:
            want = (_reference_query_cost(prog), _reference_max_var(prog),
                    _reference_level(prog))
        except ValueError:  # the reference walks fail on an empty block
            want = None
        if want is not None:
            assert (query_cost(prog), max_var(prog),
                    classify_level(prog)) == want
        for f in (TruthTable(n, 0), TruthTable(n - 1, 0)):
            want = _reference_rejects(prog, f)
            try:
                simulate(prog, f)
            except ValueError:
                assert want, program_to_json(prog)
                rejected += 1
            else:
                assert not want, program_to_json(prog)
                accepted += 1
    assert rejected > 50 and accepted > 50, (rejected, accepted)


def test_checker_folds_once_and_walks_once(monkeypatch):
    from querysynth import qprogram, synth
    folds, walks = [], []
    fold, branches = qprogram._fold, qprogram._branches

    def counted_fold(node, path, shape):
        if path == "program":
            folds.append(node)
        return fold(node, path, shape)

    def counted_branches(program, f):
        walks.append(program)
        return branches(program, f)

    monkeypatch.setattr(qprogram, "_fold", counted_fold)
    for module in (qprogram, synth):
        monkeypatch.setattr(module, "_branches", counted_branches)
    rnd = random.Random(20141419)
    tables = [TruthTable(n, rnd.getrandbits(1 << n)) for n in (4, 5, 5, 6)]
    tables += [table_and(3), table_parity(5), table_exact(5, 2)]
    levels = set()
    for f in tables:
        folds.clear()
        walks.clear()
        cert = synthesize(f)
        assert folds.count(cert.program) == 1 and not walks, f
        levels.add(cert.level)
        # a loaded certificate is a new tree: nothing is folded yet
        loaded = certificate_from_json(certificate_to_json(cert))
        folds.clear()
        assert verify_certificate(loaded).ok
        assert folds == [loaded.program] and walks == [loaded.program], f
    assert levels == {"ClassicalOnly", "FullySimulated", "CountCertified"}


# ---------------------------------------------------------------------------
# axiom registry


def test_axiom_queries_formulas():
    assert axiom_queries("exact", 5, 2) == 3
    assert axiom_queries("exact", 4, 2) == 2
    assert axiom_queries("threshold", 5, 3) == 3
    assert axiom_queries("threshold", 4, 1) == 4
    assert axiom_queries("and", 6) == 6
    assert axiom_queries("or", 4) == 4
    assert axiom_queries("and_or_3", 3) == 2
    assert axiom_queries("three_bit", 3) == 2


def test_axiom_queries_guards():
    with pytest.raises(ValueError):
        axiom_queries("exact", 3)  # k required
    with pytest.raises(ValueError):
        axiom_queries("threshold", 3, 0)
    with pytest.raises(ValueError):
        axiom_queries("and_or_3", 4)
    with pytest.raises(ValueError):
        axiom_queries("three_bit", 4)
    with pytest.raises(ValueError):
        axiom_queries("mystery", 3)


def test_axiom_rep_tables():
    assert axiom_rep_table("and", 3).bits == 0x80
    assert axiom_rep_table("exact", 3, 1).bits == 0b00010110
    assert axiom_rep_table("and_or_3", 3).bits == 0b10101000
    with pytest.raises(ValueError):
        axiom_rep_table("three_bit", 3)  # a family, no single representative


def test_axiom_citations():
    # each class cites the paper that proves its query count
    assert axiom_citation("exact") == CITE_EXACT_THRESHOLD
    assert axiom_citation("threshold") == CITE_EXACT_THRESHOLD
    assert axiom_citation("and") == axiom_citation("or") == CITE_AND_OR
    assert axiom_citation("and_or_3") == CITE_AND_OR_3
    assert axiom_citation("three_bit") == CITE_THREE_BIT
    with pytest.raises(ValueError):
        axiom_citation("mystery")


# ---------------------------------------------------------------------------
# serialization


def _json_text(node):
    return json.dumps(program_to_json(node), sort_keys=True)


def test_program_json_round_trip():
    progs = [
        Output(1),
        parity_program(5),
        nae_program(4),
        elaborate_xor(XorQuery(1, 2, Output(0), Output(1))),
        ClassicalQuery(3, AxiomLeaf("exact", (1, 2), 1, "cite", 1), Output(0)),
    ]
    for prog in progs:
        back = program_from_json(program_to_json(prog))
        assert _json_text(back) == _json_text(prog)


def test_program_json_round_trip_preserves_behavior():
    rng = random.Random(7)
    for n in (3, 4, 5):
        prog = parity_program(n, invert=bool(rng.getrandbits(1)))
        back = program_from_json(json.loads(_json_text(prog)))
        rep_a = simulate(prog, table_parity(n))
        rep_b = simulate(back, table_parity(n))
        assert rep_a.to_json() == rep_b.to_json()


def test_program_json_rejects_garbage():
    with pytest.raises(ValueError):
        program_from_json({"kind": "output", "bit": 2})
    with pytest.raises(ValueError):
        program_from_json({"kind": "banana"})
