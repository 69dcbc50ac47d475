"""Synthesis engine and certificate verification.

For arity <= 3 the engine is compared against a closed-form oracle built
from first principles: constants are free, the two-ones/two-zeros family
needs two queries, the one-remaining-point family needs all three, and
the single-literal and xor-of-two-literals forms need one.
"""

import collections
import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysynth.boolfun import (
    NpnTransform,
    TruthTable,
    table_and,
    table_exact,
    table_nae,
    table_or,
    table_parity,
    table_threshold,
)
from querysynth import synth
from querysynth.qprogram import (AxiomLeaf, ClassicalQuery, Matrix, Output,
                                 UnitaryBlock, XorQuery, axiom_citation,
                                 axiom_queries,
                                 axiom_rep_table, classify_level,
                                 collect_axioms, nae_program, program_to_json,
                                 query_cost)
from querysynth.synth import (
    _in_class_orbit,
    Certificate,
    certificate_from_json,
    certificate_to_json,
    query_complexity,
    synthesize,
    verify_certificate,
)


# ---------------------------------------------------------------------------
# closed-form cost oracle, arities 1..3


def one_query_forms(n):
    """Tables equal to a literal or an xor of two literals."""
    full = (1 << (1 << n)) - 1
    out = set()
    for i in range(n):
        vm = 0
        for m in range(1 << n):
            if (m >> i) & 1:
                vm |= 1 << m
        out.add(vm)
        out.add(full ^ vm)
    for i in range(n):
        for j in range(i + 1, n):
            xm = 0
            for m in range(1 << n):
                if ((m >> i) ^ (m >> j)) & 1:
                    xm |= 1 << m
            out.add(xm)
            out.add(full ^ xm)
    return out


def cost_oracle_small(n, bits):
    size = 1 << n
    ones = bin(bits).count("1")
    if ones in (0, size):
        return 0
    if bits in one_query_forms(n):
        return 1
    if n <= 2:
        return 2
    if ones in (1, size - 1):
        return n  # isomorphic to AND: no savings possible
    return 2  # the general 3-bit family


def test_engine_matches_oracle_exhaustive_n_le_3():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            got = query_complexity(TruthTable(n, bits))
            assert got == cost_oracle_small(n, bits), (n, bits)


def test_one_query_census():
    # +/- dictators and +/- xor pairs: 2*(n + n*(n-1)/2) tables
    for n in (2, 3, 4):
        assert len(one_query_forms(n)) == 2 * (n + n * (n - 1) // 2)


def test_cost_distribution_n4_frozen():
    dist = collections.Counter(
        query_complexity(TruthTable(4, bits)) for bits in range(1 << 16))
    assert dict(dist) == {0: 2, 1: 20, 2: 1434, 3: 64048, 4: 32}


def test_four_query_tables_are_the_and_orbit():
    # at full cost: exactly one minority point (32 tables at arity 4)
    for bits in range(1 << 16):
        t = TruthTable(4, bits)
        full_cost = query_complexity(t) == 4
        assert full_cost == (t.popcount() in (1, 15)), bits


# ---------------------------------------------------------------------------
# catalogued families


def test_and_or_need_every_query():
    for n in range(1, 6):
        assert query_complexity(table_and(n)) == n
        assert query_complexity(table_or(n)) == n


def test_parity_halves_queries():
    for n in range(1, 8):
        assert query_complexity(table_parity(n)) == (n + 1) // 2


def test_exact_and_threshold_costs():
    cases = {
        ("exact", 3, 1): 2, ("exact", 4, 2): 2, ("exact", 4, 1): 3,
        ("exact", 4, 3): 3, ("exact", 5, 2): 3,
        ("threshold", 3, 2): 2, ("threshold", 4, 2): 3,
        ("threshold", 4, 3): 3, ("threshold", 5, 2): 4,
        ("threshold", 6, 3): 4,
    }
    for (fam, n, k), want in cases.items():
        t = table_exact(n, k) if fam == "exact" else table_threshold(n, k)
        assert query_complexity(t) == want, (fam, n, k)


def test_not_all_equal_saves_one_query():
    for n in (3, 4, 5):
        assert query_complexity(table_nae(n)) == n - 1


def test_three_bit_symmetric_catalogue():
    catalogue = {
        (0, 0, 0, 0): 0, (0, 0, 0, 1): 3, (0, 0, 1, 0): 2, (0, 0, 1, 1): 2,
        (0, 1, 0, 0): 2, (0, 1, 0, 1): 2, (0, 1, 1, 0): 2, (0, 1, 1, 1): 3,
        (1, 0, 0, 0): 3, (1, 0, 0, 1): 2, (1, 0, 1, 0): 2, (1, 0, 1, 1): 2,
        (1, 1, 0, 0): 2, (1, 1, 0, 1): 2, (1, 1, 1, 0): 3, (1, 1, 1, 1): 0,
    }
    for prof, want in catalogue.items():
        assert query_complexity(TruthTable.from_profile(prof)) == want, prof


def test_dead_variables_cost_nothing():
    f = TruthTable.from_values([m & 1 for m in range(8)])  # f = x1
    assert query_complexity(f) == 1
    g = TruthTable.from_values([table_nae(3).value(m & 7) for m in range(16)])
    assert query_complexity(g) == 2


def test_arity_guard():
    with pytest.raises(ValueError):
        query_complexity(TruthTable(13, 0))


def _random_npn(rnd, n):
    return NpnTransform(tuple(rnd.sample(range(n), n)), rnd.getrandbits(n),
                        rnd.getrandbits(1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=6, max_value=8), st.booleans(), st.randoms())
def test_counting_class_cost_is_npn_invariant(n, exact, rnd):
    class_id = "exact" if exact else "threshold"
    k = rnd.randint(0 if exact else 1, n)
    f = _random_npn(rnd, n).apply(axiom_rep_table(class_id, n, k))
    assert query_complexity(f) == axiom_queries(class_id, n, k)
    rep = verify_certificate(synthesize(f))
    assert rep.ok, rep.failures


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((5, 5, 6, 6, 7)), st.randoms())
def test_cost_is_npn_invariant(n, rnd):
    f = TruthTable(n, rnd.getrandbits(1 << n))
    assert query_complexity(f) == query_complexity(_random_npn(rnd, n).apply(f))


def _reference_residual(f, route, b):
    """f after the route's query answered b: x_p = b for ("cq", p),
    x_i xor x_j = b for ("xor", i, j)."""
    if route[0] == "cq":
        return f.restrict(route[1], b)
    return f.substitute_xor(route[1], route[2], b)


def test_route_index_gathers_the_residuals():
    rng = random.Random(11)
    for n in range(2, 10):
        index = synth._route_index(n)
        routes = synth._queries_in_order(n)
        assert index.shape == (len(routes), 2, 1 << (n - 1))
        for _ in range(2):
            f = TruthTable(n, rng.getrandbits(1 << n))
            vals = f.values()
            for r, route in enumerate(routes):
                for b in (0, 1):
                    got = TruthTable.from_values(vals[index[r, b]].tolist())
                    want = _reference_residual(f, route, b)
                    assert got == want, (f, route, b)
                    row = synth._gather(f, index[r, b]).tobytes()
                    assert TruthTable(n - 1, int.from_bytes(
                        row, "little")) == want, (f, route, b)
    # a residual reads single bits of f, so the residuals of the one-bit
    # tables give every entry of the byte-sliced residual codes
    for m in range(1, 8):
        routes = synth._queries_in_order(m)
        unit = np.zeros((max(8, 1 << m), len(routes), 2), dtype=np.uint64)
        for i in range(1 << m):
            unit[i] = [[_reference_residual(TruthTable(m, 1 << i), route,
                                            b).bits for b in (0, 1)]
                       for route in routes]
        unit = unit.reshape(-1, 8, len(routes), 2)
        want = np.zeros((len(unit), 256, len(routes), 2), dtype=np.uint64)
        for i in range(8):
            want[:, (np.arange(256) >> i) & 1 == 1] |= unit[:, i, None]
        assert np.array_equal(synth._route_slices(m), want), m


_REFERENCE_PRICES: dict = {}


def _reference_price(f):
    """(cost, witness) of f, table by table from first principles: drop
    dead variables; price each route by recursion down to arity 0, each
    residual made by `_reference_residual`; parity and the axiom class set
    the cost, and the NAE pattern and, at arity 3, any table with 2..6
    ones (the two-query family) cap the route minimum at n - 1 and 2. Up
    to arity 4 the witness is the first route whose cost equals the
    table's; above it a set cost keeps none, nor does a route that only
    ties a cap. The memo holds each table as given and without its dead
    variables."""
    raw = (f.arity, f.bits)
    if raw in _REFERENCE_PRICES:
        return _REFERENCE_PRICES[raw]
    f, _ = f.drop_dead()
    n = f.arity
    if n == 0:
        return 0, None
    key = (n, f.bits)
    if key in _REFERENCE_PRICES:
        _REFERENCE_PRICES[raw] = _REFERENCE_PRICES[key]
        return _REFERENCE_PRICES[key]
    info = synth._symmetric_axiom(f)
    if synth._parity_pattern(f) is not None:
        sets = (n + 1) // 2
    else:
        sets = None if info is None else info[2]
    if synth._nae_pattern(f) is not None:
        cap = n - 1
    elif n == 3 and 2 <= f.popcount() <= 6:
        cap = 2
    else:
        cap = n
    if sets is not None and n > synth.ENGINE_ARRAY_MAX:
        got = (sets, None)
    else:
        costs = [1 + max(_reference_price(_reference_residual(f, route, b))[0]
                         for b in (0, 1))
                 for route in synth._queries_in_order(n)]
        best = min(costs)
        if n <= synth.ENGINE_ARRAY_MAX:
            cost = min(best, cap) if sets is None else sets
            got = (cost, costs.index(cost) if cost in costs else None)
        else:
            got = (best, costs.index(best)) if best < cap else (cap, None)
    _REFERENCE_PRICES[key] = _REFERENCE_PRICES[raw] = got
    return got


def _reference_cost(f):
    return _reference_price(f)[0]


def _reference_route_search(t, best):
    """The route search as a loop over residuals: stop at ceil(deg/2),
    price s1 only when s0 fits, keep the first strict gain."""
    n = t.arity
    lb = max(1, (t.degree() + 1) // 2)
    witness = None
    if best > lb:
        for idx, route in enumerate(synth._queries_in_order(n)):
            s0 = _reference_cost(_reference_residual(t, route, 0))
            if 1 + s0 >= best:
                continue
            s1 = _reference_cost(_reference_residual(t, route, 1))
            cand = 1 + max(s0, s1)
            if cand < best:
                best, witness = cand, idx
                if best <= lb:
                    break
    return best, witness


def _two_xor_levels(rnd, n):
    """(x_a xor x_b) ? x_c xor x_d : x_e [xor x_f], variables shuffled:
    degree 4, cost 2, so the search stops at ceil(deg/2)."""
    v = rnd.sample(range(n), n)
    vals = []
    for m in range(1 << n):
        x = [(m >> i) & 1 for i in range(n)]
        if x[v[0]] ^ x[v[1]]:
            vals.append(x[v[2]] ^ x[v[3]])
        else:
            vals.append(x[v[4]] ^ (x[v[5]] if n > 5 else 0))
    return TruthTable.from_values(vals)


def _glued(rnd, n, parts):
    """x_n ? hi : lo, lo and hi two of `parts` read on random variables of
    n - 1, retried until every variable is live: their residuals repeat
    and carry dead variables."""
    while True:
        lo, hi = (_with_dead(rnd, rnd.choice(parts), n - 1) for _ in (0, 1))
        t = TruthTable(n, lo.bits | hi.bits << (1 << (n - 1)))
        if len(t.support()) == n:
            return t


def test_route_search_matches_the_reference_loop():
    rnd = random.Random(12)
    tables = [TruthTable(n, rnd.getrandbits(1 << n))
              for n, count in ((5, 60), (6, 12), (7, 3))
              for _ in range(count)]
    nae = [_random_npn(rnd, n).apply(table_nae(n))
           for n in (5, 6, 7) for _ in range(4 if n < 7 else 2)]
    low = [_two_xor_levels(rnd, n) for n in (5, 6) for _ in range(6)]
    parts = [table_parity(4), table_exact(4, 2), table_nae(4),
             table_threshold(4, 2), TruthTable(4, rnd.getrandbits(16))]
    tables += [_random_npn(rnd, 7).apply(table_exact(7, k)) for k in (1, 3)]
    tables += [_glued(rnd, 7, parts) for _ in range(4)]
    for t in tables + nae + low:
        assert t.support() == tuple(range(1, t.arity + 1))
        best = t.arity - 1 if synth._nae_pattern(t) is not None else t.arity
        assert (synth._route_search(t, best)
                == _reference_route_search(t, best)), t
    for t in nae:
        assert synth._route_search(t, t.arity - 1) == (t.arity - 1, None)
    for t in low:
        assert synth._route_search(t, t.arity)[0] == 2 == (t.degree() + 1) // 2


def _with_dead(rnd, g, n):
    """g read on n variables, the n - g.arity others dead."""
    keep = sorted(rnd.sample(range(n), g.arity))
    return TruthTable.from_values(
        [g.value(sum(((x >> v) & 1) << i for i, v in enumerate(keep)))
         for x in range(1 << n)])


def _pricer_population(rnd, m):
    """Arity-m tables: every flip image of the parity, NAE, EXACT and
    threshold representatives and their complements (every table a
    closed form prices), one-bit neighbours of EXACT images, tables with
    one or two dead variables, the constants and random tables."""
    full = (1 << (1 << m)) - 1
    reps = ([table_parity(m), table_nae(m)]
            + [table_exact(m, k) for k in range(m + 1)]
            + [table_threshold(m, k) for k in range(1, m + 1)])
    closed = {NpnTransform(tuple(range(m)), flips, 0).apply(r).bits ^ neg
              for r in reps for flips in range(1 << m) for neg in (0, full)}
    tables = [TruthTable(m, bits) for bits in sorted(closed)]
    for k in range(m + 1):
        for _ in range(3):
            img = _random_npn(rnd, m).apply(table_exact(m, k))
            point = rnd.randrange(1 << m)
            tables.append(TruthTable(m, img.bits ^ (1 << point)))
    for dead in (1, 2):
        for _ in range(15):
            g = TruthTable(m - dead, rnd.getrandbits(1 << (m - dead)))
            tables.append(_with_dead(rnd, g, m))
    tables += [TruthTable(m, 0), TruthTable(m, full)]
    tables += [TruthTable(m, rnd.getrandbits(1 << m))
               for _ in range(60 if m == 5 else 30)]
    return tables, closed


def test_batched_pricer_matches_reference():
    rnd = random.Random(13)
    for m in (3, 4, 5, 6):
        tables, closed = _pricer_population(rnd, m)
        codes = np.array([t.bits for t in tables],
                         dtype=synth._CODE_DTYPE[1 << m])
        got = synth._price_rows(codes, m)
        want = [_reference_cost(t) for t in tables]
        assert got.tolist() == want, m
        for t, cost in zip(tables, want):
            assert synth._cost_of(t) == cost, t
            if len(t.support()) == m:
                assert synth._price(t) == _reference_price(t), t
        # no route beats a closed form: overriding the routes with it is
        # taking the minimum, and the first cheapest route is the one a
        # search stopping at the closed form's count keeps
        is_closed = np.array([t.bits in closed for t in tables])
        routes = synth._route_costs(synth._residual_codes(codes, m),
                                    m).min(axis=0)
        assert (routes[is_closed] >= got[is_closed]).all(), m
        # at arity 3 the two-query family adds every table with 2..6 ones
        family = {bits for bits in range(256) if 2 <= bits.bit_count() <= 6}
        assert set(synth._closed_forms(m)[0].tolist()) == (
            closed | family if m == 3 else closed)


# sha256 of the (cost, witness) bytes of `_cost_table(n)` for n = 0..4,
# recorded before the route pricer built the tables
FROZEN_COST_TABLES_SHA256 = (
    "91d193e14b0bb85751e82eb34beb0e79b53e7d52b44c4f369b890ba5670c4d98")


def test_cost_tables_frozen():
    digest = hashlib.sha256()
    for n in range(synth.ENGINE_ARRAY_MAX + 1):
        cost, witness = synth._cost_table(n)
        digest.update(cost.tobytes() + witness.tobytes())
    assert digest.hexdigest() == FROZEN_COST_TABLES_SHA256


def _first_fit(f, c):
    """Reference first-fit scan: the first route whose residuals both cost
    less than c, or None."""
    for idx, route in enumerate(synth._queries_in_order(f.arity)):
        if all(_reference_cost(_reference_residual(f, route, b)) < c
               for b in (0, 1)):
            return idx
    return None


def test_table_witness_is_the_first_fitting_route():
    for n in (3, 4):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            if len(t.support()) == n:
                c, witness = synth._price(t)
                assert witness == _first_fit(t, c), t


def test_tie_query_is_the_first_fitting_route():
    # threshold(n,2), threshold(n,n-1) and exact(n,1) images tie their
    # class count with a route; exact(n,n//2) images beat every route
    found = set()
    for f in image_population():
        c = query_complexity(f)
        assert synth._price(f) == (c, None)
        witness = synth._route_search(f, c + 1, c)[1]
        assert witness == _first_fit(f, c), f
        found.add(witness is None)
    assert found == {False, True}


def _counting_classes(n):
    return ([("exact", n, k) for k in range(n + 1)]
            + [("threshold", n, k) for k in range(1, n + 1)])


def test_class_tie_answer_matches_image_search():
    # whether a route ties the class count is asked once per class; every
    # image, with or without output negation, must give the same answer
    rnd = random.Random(20141404)
    classes = [c for n in (5, 6, 7) for c in _counting_classes(n)]
    classes += [("exact", 8, 4), ("threshold", 8, 5)]
    answers = set()
    for class_id, n, k in classes:
        q = axiom_queries(class_id, n, k)
        ties = synth._class_ties(class_id, n, k)
        for neg in (0, 1):
            t = NpnTransform(tuple(rnd.sample(range(n), n)),
                             rnd.randrange(1 << n), neg)
            img = t.apply(axiom_rep_table(class_id, n, k))
            assert ((synth._route_search(img, q + 1, q)[1] is not None)
                    == ties), (class_id, n, k, neg)
        answers.add(ties)
    assert answers == {False, True}


def test_root_is_priced_once(monkeypatch):
    rnd = random.Random(20141405)
    tables = [TruthTable(n, rnd.getrandbits(1 << n))
              for n in (5, 5, 6, 6)]
    tables.append(_with_dead(rnd, tables[-1], 7))
    search = synth._route_search
    calls = []

    def counted(t, *args, **kwargs):
        calls.append(t)
        return search(t, *args, **kwargs)

    monkeypatch.setattr(synth, "_route_search", counted)
    for f in tables:
        calls.clear()
        synthesize(f)
        root = f.drop_dead()[0]
        assert root.arity in (5, 6)
        assert calls.count(root) == 1, f


def test_optimal_flag_matches_the_known_lower_bound():
    # above half the support only an axiom class count can meet the
    # claim, so the flag skips the degree there
    for bits in range(1 << 16):
        f = TruthTable(4, bits)
        t, _ = f.drop_dead()
        lb = synth._known_lower_bound(f)
        for count in range(5):
            assert synth._meets_lower_bound(t, count) == (count == lb), \
                (f, count)
    rnd = random.Random(20141406)
    tables = [TruthTable(n, bits) for n in range(9)
              for bits in (0, (1 << (1 << n)) - 1)]
    tables += [TruthTable(n, rnd.getrandbits(1 << n))
               for n, count in ((5, 20), (6, 6), (7, 2), (8, 1))
               for _ in range(count)]
    tables += [_random_npn(rnd, n).apply(axiom_rep_table(class_id, n, k))
               for n in (5, 6) for class_id, _, k in _counting_classes(n)]
    tables += [table_parity(n) for n in (5, 6, 7, 8)]
    tables += [_random_npn(rnd, 8).apply(table_and(8)),
               _with_dead(rnd, table_exact(6, 3), 8)]
    flags = set()
    for f in tables:
        cert = synthesize(f)
        want = cert.claimed_queries == synth._known_lower_bound(f)
        assert cert.optimal == want, f
        flags.add(want)
    assert flags == {False, True}


# ---------------------------------------------------------------------------
# certificates


def test_certificate_and4():
    c = synthesize(table_and(4))
    assert c.claimed_queries == 4
    assert c.level == "ClassicalOnly"
    assert c.optimal
    assert verify_certificate(c).ok


def test_certificate_majority3():
    c = synthesize(table_threshold(3, 2))
    assert c.claimed_queries == 2
    assert c.level == "FullySimulated"
    assert c.optimal
    assert verify_certificate(c).ok


def test_certificate_exact42_uses_axiom():
    c = synthesize(table_exact(4, 2))
    assert c.claimed_queries == 2
    assert c.level == "CountCertified"
    assert c.optimal
    rep = verify_certificate(c)
    assert rep.ok, rep.failures


def test_certificate_parity6():
    c = synthesize(table_parity(6))
    assert c.claimed_queries == 3
    assert c.level == "FullySimulated"
    assert c.optimal
    assert verify_certificate(c).ok


def test_certificate_nae5():
    c = synthesize(table_nae(5))
    assert c.claimed_queries == 4
    assert verify_certificate(c).ok


def test_certificate_anchored_nae_is_the_xor_chain():
    # the tables constant exactly off one complementary pair {c, ~c}; c and
    # ~c name the same table, so the anchors below 2**(n-1) cover them all
    for n in (5, 6, 7):
        full = (1 << (1 << n)) - 1
        for c in range(1 << (n - 1)):
            pair = (1 << c) | (1 << (c ^ ((1 << n) - 1)))
            for invert in (False, True):
                cert = synthesize(TruthTable(n, pair if invert
                                             else full ^ pair))
                assert verify_certificate(cert).ok
                assert program_to_json(cert.program) == \
                    program_to_json(nae_program(n, invert, c)), (n, c, invert)


def test_certificate_and_of_or_pair():
    c = synthesize(TruthTable(3, 0b10101000))  # x1 and (x2 or x3)
    assert c.claimed_queries == 2
    assert c.level == "CountCertified"
    assert c.optimal
    assert any(r.rule == "R4" for r in c.rules_used)
    assert verify_certificate(c).ok


def test_certificate_general_three_bit_family():
    # equal on all but one input pair; no split or gadget reaches cost 2,
    # so the certified two-query family has to carry it
    c = synthesize(TruthTable(3, 0x19))
    assert c.claimed_queries == 2
    assert c.level == "CountCertified"
    assert c.optimal
    leaves = collect_axioms(c.program)
    assert [l.class_id for _, l in leaves] == ["three_bit"]
    assert verify_certificate(c).ok


def test_certificate_three_bit_residual_behind_query():
    c = synthesize(TruthTable(4, 0x181))
    assert c.claimed_queries == 3
    assert c.level == "CountCertified"
    assert any(l.class_id == "three_bit" for _, l in
               collect_axioms(c.program))
    assert verify_certificate(c).ok


def test_certificate_dictator_rule():
    f = TruthTable.from_values([m & 1 for m in range(8)])
    c = synthesize(f)
    assert c.claimed_queries == 1
    assert any(r.rule == "R1" for r in c.rules_used)
    assert verify_certificate(c).ok


def test_certificate_composition_rule_fires():
    maj = table_threshold(3, 2)
    f = TruthTable.from_values([maj.value(m & 7) & (m >> 3) for m in range(16)])
    c = synthesize(f)
    assert c.claimed_queries == 3
    assert any(r.rule == "R5" for r in c.rules_used)
    assert verify_certificate(c).ok


def test_claimed_cost_matches_engine_everywhere_n3():
    for bits in range(256):
        f = TruthTable(3, bits)
        assert synthesize(f).claimed_queries == query_complexity(f)


# ---------------------------------------------------------------------------
# tampering


def test_tampered_claim_is_rejected():
    good = synthesize(table_exact(4, 2))
    bad = Certificate(good.function, good.program, 1, good.level,
                      good.rules_used, False)
    rep = verify_certificate(bad)
    assert not rep.ok


def test_false_optimal_claim_is_rejected():
    obj = certificate_to_json(synthesize(TruthTable(3, 0x18)))
    assert obj["claimedQueries"] == 2 and obj["optimal"] is False
    assert verify_certificate(certificate_from_json(obj)).ok
    obj["optimal"] = True  # degree 2 only bounds the count below by 1
    rep = verify_certificate(certificate_from_json(obj))
    assert not rep.ok
    assert any("lower bound 1" in x for x in rep.failures)
    # above arity 20 no lower bound is computed, so the claim fails
    wide = Certificate(TruthTable(21, 0b110), Output(1), 0, "ClassicalOnly",
                       (), True)
    rep = verify_certificate(wide)
    assert not rep.ok
    assert any("cannot check the optimality claim" in x for x in rep.failures)


def test_tampered_function_is_rejected():
    good = synthesize(table_exact(4, 2))
    flip = TruthTable(4, good.function.bits ^ 1)
    bad = Certificate(flip, good.program, good.claimed_queries, good.level,
                      good.rules_used, False)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("residual" in x or "output" in x for x in rep.failures)


def test_tampered_axiom_count_is_rejected():
    good = synthesize(table_exact(4, 2))
    leaf = AxiomLeaf("exact", (1, 2, 3, 4), 3, axiom_citation("exact"), 2)
    bad = Certificate(good.function, leaf, 3, "CountCertified", (), False)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("formula" in x for x in rep.failures)


def test_tampered_axiom_citation_is_rejected():
    leaf = AxiomLeaf("exact", (1, 2, 3, 4), 2, axiom_citation("and"), 2)
    bad = Certificate(table_exact(4, 2), leaf, 2, "CountCertified", (), False)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("mismatched citation" in x for x in rep.failures)


def test_certificate_exact73_verifies():
    # axiom leaves above arity 6 are checked without an NPN search
    c = synthesize(table_exact(7, 3))
    assert c.claimed_queries == 4 and c.level == "CountCertified"
    rep = verify_certificate(c)
    assert rep.ok, rep.failures


def test_symmetric_profiles_at_arity_eight():
    # best mode, synthesize then verify, on all 512 profiles at n = 8: only
    # the AND-isomorphic ones need n queries
    counts = collections.Counter()
    for prof in itertools.product((0, 1), repeat=9):
        f = TruthTable.from_profile(prof)
        cert = synthesize(f)
        rep = verify_certificate(cert)
        assert rep.ok, (prof, rep.failures)
        assert (cert.claimed_queries == 8) == f.is_and_isomorphic(), prof
        counts[cert.claimed_queries] += 1
    assert dict(counts) == {0: 2, 4: 4, 5: 8, 6: 82, 7: 412, 8: 4}


@pytest.mark.parametrize("n", [8, 9])
def test_random_table_certified_below_arity(n):
    f = TruthTable(n, random.Random(1800 + n).getrandbits(1 << n))
    assert len(f.support()) == n
    cert = synthesize(f)
    assert cert.claimed_queries == n - 1
    rep = verify_certificate(cert)
    assert rep.ok, rep.failures


def _catalogued_classes(n):
    classes = [("and", None), ("or", None)]
    classes += [("exact", k) for k in range(n + 1)]
    classes += [("threshold", k) for k in range(1, n + 1)]
    if n == 3:
        classes.append(("and_or_3", None))
    return classes


def test_leaf_membership_matches_orbits_exhaustive_small():
    # each orbit is enumerated here from every NPN transform
    for n in (1, 2, 3, 4):
        transforms = [NpnTransform(perm, flips, neg)
                      for perm in itertools.permutations(range(n))
                      for flips in range(1 << n) for neg in (0, 1)]
        orbits = {}
        for class_id, k in _catalogued_classes(n):
            rep = axiom_rep_table(class_id, n, k)
            orbits[class_id, k] = {t.apply(rep).bits for t in transforms}
        for bits in range(1 << (1 << n)):
            g = TruthTable(n, bits)
            accepted = {c for c in orbits if _in_class_orbit(g, c[0], n, c[1])}
            assert accepted == {c for c, orb in orbits.items() if bits in orb}


def _catalogue_by_canon(n):
    """NPN canonical form -> (class_id, least k, queries) for each
    catalogued class at arity n, read off the class representatives."""
    out = {}
    for class_id, k in _catalogued_classes(n):  # k ascending per class
        canon = axiom_rep_table(class_id, n, k).npn_canonical()[0].bits
        q = axiom_queries(class_id, n, k)
        assert out.setdefault(canon, (class_id, k, q))[2] == q
    return out


def _check_axiom_class(t, catalogue):
    want = catalogue.get(t.npn_canonical()[0].bits)
    got = synth._axiom_class_of(t)
    assert (got is None) == (want is None), (t, got, want)
    if want is not None:
        assert got[2] == want[2], (t, got, want)
        # the AND orbit also reads as exact(n, 0) or threshold(n, 1)
        if not t.is_and_isomorphic():
            assert got == want, (t, got, want)


def test_axiom_class_matches_canonical_form_oracle_exhaustive_small():
    for n in (1, 2, 3, 4):
        catalogue = _catalogue_by_canon(n)
        # NPN maps keep the number of ones up to complement, so only
        # tables of a representative's weight need a canonical form
        weights = {axiom_rep_table(c, n, k).popcount()
                   for c, k in _catalogued_classes(n)}
        weights |= {(1 << n) - w for w in weights}
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            if t.popcount() in weights:
                _check_axiom_class(t, catalogue)
            else:
                assert synth._axiom_class_of(t) is None, t


def test_axiom_class_matches_canonical_form_oracle_n5():
    rng = random.Random(1302)
    catalogue = _catalogue_by_canon(5)
    for class_id, k in _catalogued_classes(5):
        rep = axiom_rep_table(class_id, 5, k)
        for _ in range(4):
            img = _random_npn(rng, 5).apply(rep)
            _check_axiom_class(img, catalogue)
            near = TruthTable(5, img.bits ^ (1 << rng.randrange(32)))
            _check_axiom_class(near, catalogue)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=12), st.randoms())
def test_leaf_membership_of_npn_images(n, rnd):
    class_id, k = rnd.choice(_catalogued_classes(n))
    img = _random_npn(rnd, n).apply(axiom_rep_table(class_id, n, k))
    assert _in_class_orbit(img, class_id, n, k)
    flipped = TruthTable(n, img.bits ^ (1 << rnd.randrange(1 << n)))
    assert not _in_class_orbit(flipped, class_id, n, k)


def test_tampered_leaf_residual_is_rejected():
    leaf = AxiomLeaf("exact", tuple(range(1, 8)), 4, axiom_citation("exact"),
                     3)
    f = table_exact(7, 3).negate_var(2)
    good = Certificate(f, leaf, 4, "CountCertified", (), False)
    assert verify_certificate(good).ok
    bad = Certificate(TruthTable(7, f.bits ^ 1), leaf, 4, "CountCertified",
                      (), False)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("not isomorphic" in x for x in rep.failures)


def test_tampered_simulated_program_is_rejected():
    good = synthesize(table_parity(4))
    bad = Certificate(table_parity(4).complement(), good.program, 2,
                      "FullySimulated", (), False)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("amplitude" in x for x in rep.failures)


def test_tampered_three_bit_residual_is_rejected():
    good = synthesize(TruthTable(3, 0x19))
    # same program over the one function family membership cannot cover
    bad = Certificate(table_and(3), good.program, good.claimed_queries,
                      good.level, good.rules_used, False)
    rep = verify_certificate(bad)
    assert not rep.ok


def test_audit_rejects_malformed_nodes_like_the_simulator():
    # f = x4 ? and_or_3(x1, x2, x3) : 1
    rep3 = axiom_rep_table("and_or_3", 3)
    f = TruthTable.from_values([rep3.value(m & 7) if m >> 3 else 1
                                for m in range(16)])
    leaf = AxiomLeaf("and_or_3", (1, 2, 3), 2, axiom_citation("and_or_3"))

    def check(prog):
        return verify_certificate(Certificate(f, prog, query_cost(prog),
                                              "CountCertified", (), False))

    assert check(ClassicalQuery(4, Output(1), leaf)).ok
    for prog, message in (
            (ClassicalQuery(4, Output(2), leaf), "must be 0 or 1"),
            (ClassicalQuery(4, Output(7), leaf), "must be 0 or 1"),
            (ClassicalQuery(4, Output(1), XorQuery(2, 2, leaf, Output(0))),
             "needs two distinct variables"),
            # x0 must not read as the last variable, x4
            (ClassicalQuery(0, Output(1), leaf), "variables start at x1"),
            (ClassicalQuery(4, Output(1), AxiomLeaf(
                "and_or_3", (0, 1, 2), 2, axiom_citation("and_or_3"))),
             "variables start at x1")):
        rep = check(prog)
        assert not rep.ok
        assert [x for x in rep.failures if message in x], rep.failures
    # no input reaches x4 = 1 under x4 = 0, yet every node is checked
    non_unitary = UnitaryBlock((1, 2), (Matrix(((2, 0), (0, 2))),),
                               (Output(0), Output(1)))
    for unreached, message in (
            (Output(7), "must be 0 or 1"),
            (ClassicalQuery(0, Output(0), Output(1)),
             "variables start at x1"),
            (non_unitary, "non-unitary block")):
        prog = ClassicalQuery(4, ClassicalQuery(4, Output(1), unreached), leaf)
        rep = check(prog)
        assert not rep.ok
        assert [x for x in rep.failures if message in x], rep.failures
    doc = certificate_to_json(Certificate(f, prog, query_cost(prog),
                                          "CountCertified", (), False))
    rep = verify_certificate(certificate_from_json(doc))
    assert not rep.ok
    assert [x for x in rep.failures if "non-unitary block" in x], rep.failures


# ---------------------------------------------------------------------------
# differential test of the audit against a per-input reference


def _reference_leaf_ok(leaf, inputs, f):
    """f restricted to `inputs` is a function of the leaf's variables that
    takes every pattern of them, and lies in the leaf's class."""
    k = len(leaf.variables)
    residual = {}
    for m in inputs:
        pattern = sum(((m >> (v - 1)) & 1) << t
                      for t, v in enumerate(leaf.variables))
        if residual.setdefault(pattern, f.value(m)) != f.value(m):
            return False
    if len(residual) != 1 << k:
        return False
    try:
        if (leaf.queries != axiom_queries(leaf.class_id, k, leaf.k)
                or leaf.citation != axiom_citation(leaf.class_id)):
            return False
        g = TruthTable.from_values(residual[p] for p in range(1 << k))
        if leaf.class_id == "three_bit":
            return 2 <= g.popcount() <= 6
        rep = axiom_rep_table(leaf.class_id, k, leaf.k)
    except ValueError:
        return False
    return g.npn_canonical()[0] == rep.npn_canonical()[0]


def _reference_audit(prog, f):
    """Walk every input through the queries on its own, group the inputs
    by the node they reach, and check each output and leaf on its group."""
    groups = {}
    for m in range(f.size):
        node, path = prog, ()
        while isinstance(node, (ClassicalQuery, XorQuery)):
            if isinstance(node, ClassicalQuery):
                b = (m >> (node.var - 1)) & 1
            else:
                b = ((m >> (node.i - 1)) ^ (m >> (node.j - 1))) & 1
            node, path = (node.child1 if b else node.child0), path + (b,)
        groups.setdefault(path, (node, []))[1].append(m)
    for node, inputs in groups.values():
        if isinstance(node, AxiomLeaf):
            if not _reference_leaf_ok(node, inputs, f):
                return False
        elif node.bit not in (0, 1) or any(f.value(m) != node.bit
                                           for m in inputs):
            return False
    return True


def _subtrees(node, path=()):
    yield path, node
    if isinstance(node, (ClassicalQuery, XorQuery)):
        yield from _subtrees(node.child0, path + (0,))
        yield from _subtrees(node.child1, path + (1,))


def _replace(node, path, new):
    if not path:
        return new
    kids = [node.child0, node.child1]
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    if isinstance(node, ClassicalQuery):
        return ClassicalQuery(node.var, *kids)
    return XorQuery(node.i, node.j, *kids)


def _mutants(prog, n, rng):
    """One seeded mutant per kind that applies: child swap, other query
    variable, leaf variable dropped/added/repeated, a query on a leaf
    variable above the leaf, leaf k -+ 1, and an output bit outside 0/1."""
    nodes = list(_subtrees(prog))

    def pick(kind):
        found = [(p, nd) for p, nd in nodes if isinstance(nd, kind)]
        return rng.choice(found) if found else (None, None)

    def other(avoid):
        return rng.choice([v for v in range(1, n + 1) if v not in avoid])

    out = []
    path, q = pick((ClassicalQuery, XorQuery))
    if q is not None:
        if isinstance(q, ClassicalQuery):
            swap = ClassicalQuery(q.var, q.child1, q.child0)
            moved = ClassicalQuery(other({q.var}), q.child0, q.child1)
        else:
            swap = XorQuery(q.i, q.j, q.child1, q.child0)
            i, j = sorted((q.i, other({q.i, q.j})))
            moved = XorQuery(i, j, q.child0, q.child1)
        out += [_replace(prog, path, swap), _replace(prog, path, moved)]
    path, leaf = pick(AxiomLeaf)
    if leaf is not None:
        vs = leaf.variables
        variants = []
        if len(vs) > 1:
            variants.append(vs[:-1])
            variants.append(vs[:-1] + vs[:1])
        if len(vs) < n:
            variants.append(tuple(sorted(vs + (other(set(vs)),))))
        for new_vars in variants:
            out.append(_replace(prog, path, AxiomLeaf(
                leaf.class_id, new_vars, leaf.queries, leaf.citation,
                leaf.k)))
        # a query on a leaf variable just above the leaf fixes it
        guard = ClassicalQuery(rng.choice(vs), leaf, leaf)
        out.append(_replace(prog, path, guard))
        if leaf.k is not None:
            for dk in (-1, 1):
                out.append(_replace(prog, path, AxiomLeaf(
                    leaf.class_id, vs, leaf.queries, leaf.citation,
                    leaf.k + dk)))
    path, o = pick(Output)
    if o is not None:
        out.append(_replace(prog, path, Output(o.bit + 2)))
    return out


def _differential_population():
    """Count-certified certificates of every 3-bit table, 500 seeded 4-bit
    tables and a few at n=5, 6."""
    for bits in range(256):
        cert = synthesize(TruthTable(3, bits))
        if cert.level == "CountCertified":
            yield cert
    rng = random.Random(90210)
    for n, count in ((4, 500), (5, 30), (6, 6)):
        found = 0
        while found < count:
            cert = synthesize(TruthTable(n, rng.getrandbits(1 << n)))
            if cert.level == "CountCertified":
                found += 1
                yield cert


def test_audit_matches_per_input_reference():
    rng = random.Random(1404)
    verdicts = collections.Counter()
    for cert in _differential_population():
        f, n = cert.function, cert.function.arity
        flipped = TruthTable(n, f.bits ^ (1 << rng.randrange(f.size)))
        cases = [(f, cert.program), (flipped, cert.program)]
        cases += [(f, m) for m in _mutants(cert.program, n, rng)]
        for g, prog in cases:
            want = _reference_audit(prog, g)
            got = verify_certificate(Certificate(
                g, prog, query_cost(prog), classify_level(prog), (), False))
            assert got.ok == want, (g, program_to_json(prog), got.failures)
            verdicts[want] += 1
    # both verdicts are well represented
    assert verdicts[True] > 700 and verdicts[False] > 2000, verdicts


# ---------------------------------------------------------------------------
# serialization


def test_certificate_json_round_trip_byte_stable():
    for f in (table_and(4), table_exact(4, 2), table_parity(5),
              TruthTable(3, 0x19)):
        cert = synthesize(f)
        blob = json.dumps(certificate_to_json(cert), sort_keys=True)
        back = certificate_from_json(json.loads(blob))
        assert back.function == cert.function
        assert back.claimed_queries == cert.claimed_queries
        assert back.level == cert.level
        assert verify_certificate(back).ok
        assert json.dumps(certificate_to_json(back), sort_keys=True) == blob


def test_certificate_json_schema_markers():
    obj = certificate_to_json(synthesize(table_and(2)))
    assert obj["schema"] == 1
    assert obj["kind"] == "certificate"
    with pytest.raises(ValueError):
        certificate_from_json({"kind": "program"})


def test_table_json_guards():
    obj = certificate_to_json(synthesize(table_and(2)))
    obj["function"]["arity"] = 3
    with pytest.raises(ValueError):
        certificate_from_json(obj)


def frozen_population():
    """Every 3-bit table, then seeded random tables at n=4..7."""
    yield from (TruthTable(3, b) for b in range(256))
    rng = random.Random(20140611)
    for n, count in ((4, 200), (5, 30), (6, 8), (7, 2)):
        for _ in range(count):
            yield TruthTable(n, rng.getrandbits(1 << n))


# sha256 of the certificate JSON for frozen_population(), recorded before
# the builder replayed the engine's witness routes; any change to a
# program, a rule list or a claim changes it
FROZEN_CERTIFICATES_SHA256 = (
    "26be11738cde0418e69c0938fc6b9600e7f92fe17a1749fb5b6f2929426b88e5")


def _certificate_digest(certs) -> str:
    digest = hashlib.sha256()
    for cert in certs:
        blob = json.dumps(certificate_to_json(cert), sort_keys=True)
        digest.update(blob.encode() + b"\n")
    return digest.hexdigest()


def test_certificate_json_frozen():
    digest = _certificate_digest(synthesize(f) for f in frozen_population())
    assert digest == FROZEN_CERTIFICATES_SHA256


def image_population():
    """Seeded NPN images, one with and one without output negation, at
    n=5..7 of the counting classes where a route ties the class count
    (threshold(n,2), threshold(n,n-1), exact(n,1)) or loses to it
    (exact(n,n//2))."""
    rnd = random.Random(20140612)
    for n in (5, 6, 7):
        for table, k in ((table_threshold, 2), (table_threshold, n - 1),
                         (table_exact, 1), (table_exact, n // 2)):
            for neg in (0, 1):
                t = NpnTransform(tuple(rnd.sample(range(n), n)),
                                 rnd.randrange(1, 1 << n), neg)
                yield t.apply(table(n, k))


# sha256 of the certificate JSON for image_population(), then for every
# 4-bit table whose certificate uses sequential composition (R5), in
# table order; recorded before the builder stopped scanning routes
FROZEN_IMAGE_CERTIFICATES_SHA256 = (
    "d57e42b252da3d4c0cecab090b81a61b9b31bfcf3d61b947ad712f8d0f1e12f4")


def test_image_certificates_frozen():
    certs = [synthesize(f) for f in image_population()]
    four = (synthesize(TruthTable(4, bits)) for bits in range(1 << 16))
    certs += [cert for cert in four
              if any(use.rule == "R5" for use in cert.rules_used)]
    assert _certificate_digest(certs) == FROZEN_IMAGE_CERTIFICATES_SHA256


def test_synthesis_adds_no_engine_entries():
    rng = random.Random(5)
    for n, count in ((5, 20), (6, 6), (7, 2), (8, 1)):
        for _ in range(count):
            f = TruthTable(n, rng.getrandbits(1 << n))
            before = len(synth._cost_memo)
            query_complexity(f)
            if n < 7:  # below arity 7 the engine keeps no memo
                assert len(synth._cost_memo) == before, f
            before = len(synth._cost_memo)
            synthesize(f)
            assert len(synth._cost_memo) == before, f
    # no route ties these classes, and the class answers that once
    for class_id, k in (("exact", 4), ("threshold", 5)):
        rep = axiom_rep_table(class_id, 8, k)
        for second in (False, True):
            f = _random_npn(rng, 8).apply(rep)
            query_complexity(f)
            before = len(synth._cost_memo)
            synthesize(f)
            if second:
                assert len(synth._cost_memo) == before, f


# ---------------------------------------------------------------------------
# randomized end-to-end


def test_random_four_bit_synth_and_verify():
    rng = random.Random(7)
    for _ in range(200):
        f = TruthTable(4, rng.randrange(1 << 16))
        cert = synthesize(f)
        rep = verify_certificate(cert)
        assert rep.ok, (f, rep.failures)
        if f.is_and_isomorphic():
            assert cert.claimed_queries == 4, f
        else:
            assert cert.claimed_queries <= 3, f


def test_random_five_bit_synth_and_verify():
    rng = random.Random(8)
    for _ in range(25):
        f = TruthTable(5, rng.getrandbits(32))
        cert = synthesize(f)
        rep = verify_certificate(cert)
        assert rep.ok, (f, rep.failures)
        assert cert.claimed_queries <= 4
