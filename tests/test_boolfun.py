"""Truth-table mechanics checked against small independent oracles.

The oracles here recompute everything the slow way (value loops, double
subset sums, plain min-max recursion) so the fast paths in the package
have something genuinely separate to agree with.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysynth.boolfun import (
    DEPTH_MAX_ARITY,
    MULTILINEAR_MAX_ARITY,
    NpnTransform,
    TruthTable,
    parse_function,
    symmetric_decision_depth,
    table_and,
    table_exact,
    table_nae,
    table_or,
    table_parity,
    table_threshold,
)
from querysynth.boolfun import _perm_codes, _unpack_values


# ---------------------------------------------------------------------------
# oracles


def restrict_oracle(t, i, b):
    """Rebuild the restriction value by value."""
    vals = []
    for m in range(1 << (t.arity - 1)):
        low = m & ((1 << (i - 1)) - 1)
        full = low | (b << (i - 1)) | ((m >> (i - 1)) << i)
        vals.append(t.value(full))
    return vals


def xor_substitute_oracle(t, i, j, c):
    """Values of f with x_j set to x_i xor c, x_j dropped."""
    vals = []
    for m in range(1 << (t.arity - 1)):
        low = m & ((1 << (j - 1)) - 1)
        rest = (m >> (j - 1)) << j
        partial = low | rest
        xi = (partial >> (i - 1)) & 1
        vals.append(t.value(partial | ((xi ^ c) << (j - 1))))
    return vals


_depth_memo = {}


def depth_oracle(bits, n):
    """Plain min-max decision tree recursion, no shortcuts."""
    full = (1 << (1 << n)) - 1
    if bits == 0 or bits == full:
        return 0
    key = (n, bits)
    got = _depth_memo.get(key)
    if got is not None:
        return got
    t = TruthTable(n, bits)
    best = n
    for i in range(1, n + 1):
        d = 1 + max(depth_oracle(t.restrict(i, 0).bits, n - 1),
                    depth_oracle(t.restrict(i, 1).bits, n - 1))
        if d < best:
            best = d
    _depth_memo[key] = best
    return best


def moebius_oracle(t):
    """Coefficients by the double subset sum."""
    n = t.arity
    coeffs = {}
    for s in range(1 << n):
        acc = 0
        for sub in range(1 << n):
            if sub & ~s == 0:
                sign = -1 if (s ^ sub).bit_count() & 1 else 1
                acc += sign * t.value(sub)
        if acc:
            coeffs[s] = acc
    return coeffs


def npn_canonical_oracle(t):
    """The exhaustive search npn_canonical used to run: one pass per
    input-flip mask over all n! permuted tables, keys with code 0 as the
    most significant bit, and the first minimum in (flips, neg, perm
    index) order wins."""
    n = t.arity
    size = 1 << n
    perms, codes = _perm_codes(n)
    values = _unpack_values(t.bits, n)
    weights = np.left_shift(np.uint64(1),
                            np.arange(size - 1, -1, -1, dtype=np.uint64))
    fullkey = np.uint64((1 << size) - 1)
    best = None
    for flips in range(size):
        keys = values[codes ^ flips] @ weights
        negkeys = fullkey - keys
        i1 = int(np.argmin(keys))
        i2 = int(np.argmin(negkeys))
        for key, idx, neg in ((int(keys[i1]), i1, 0),
                              (int(negkeys[i2]), i2, 1)):
            if best is None or key < best[0]:
                best = (key, flips, idx, neg)
    _, flips, pidx, neg = best
    g = NpnTransform(perms[pidx], flips, neg)
    return g.apply(t), g


def monotone_oracle(t):
    for x in range(t.size):
        for i in range(t.arity):
            y = x | (1 << i)
            if t.value(x) > t.value(y):
                return False
    return True


# ---------------------------------------------------------------------------
# construction and core accessors


def test_value_bit_convention():
    # bit m of the table integer is f at input code m, x1 in the low bit
    t = TruthTable(2, 0b1000)
    assert [t.value(m) for m in range(4)] == [0, 0, 0, 1]
    assert t.value(0b01) == 0  # x1=1, x2=0


def test_from_values_round_trip():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            vals = [(bits >> m) & 1 for m in range(1 << n)]
            t = TruthTable.from_values(vals)
            assert t.arity == n and t.bits == bits


def test_from_profile_places_weights():
    t = TruthTable.from_profile([0, 1, 0, 0])
    assert t.arity == 3
    assert [t.value(m) for m in range(8)] == [0, 1, 1, 0, 1, 0, 0, 0]


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        TruthTable(2, 1 << 16)
    with pytest.raises(ValueError):
        TruthTable(-1, 0)
    with pytest.raises(ValueError):
        TruthTable.from_values([0, 1, 1])  # not a power of two
    with pytest.raises(ValueError):
        TruthTable.from_profile([0, 2])


def test_restrict_matches_oracle_exhaustive_small():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            for i in range(1, n + 1):
                for b in (0, 1):
                    r = t.restrict(i, b)
                    assert [r.value(m) for m in range(r.size)] == \
                        restrict_oracle(t, i, b)


def test_restrict_matches_oracle_sampled():
    rng = random.Random(5)
    for n in (4, 5, 6):
        for _ in range(40):
            t = TruthTable(n, rng.getrandbits(1 << n))
            i = rng.randint(1, n)
            b = rng.randint(0, 1)
            r = t.restrict(i, b)
            assert [r.value(m) for m in range(r.size)] == \
                restrict_oracle(t, i, b)


def test_substitute_xor_matches_oracle():
    rng = random.Random(6)
    for n in (2, 3, 4, 5):
        for _ in range(60):
            t = TruthTable(n, rng.getrandbits(1 << n))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            c = rng.randint(0, 1)
            r = t.substitute_xor(i, j, c)
            assert r.arity == n - 1
            assert [r.value(m) for m in range(r.size)] == \
                xor_substitute_oracle(t, i, j, c)


def test_substitute_xor_swaps_argument_order():
    t = TruthTable(3, 0b10010110)
    assert t.substitute_xor(3, 1, 1).bits == t.substitute_xor(1, 3, 1).bits


def test_negate_var_involution_and_values():
    rng = random.Random(7)
    for _ in range(50):
        t = TruthTable(4, rng.getrandbits(16))
        i = rng.randint(1, 4)
        g = t.negate_var(i)
        assert g.negate_var(i).bits == t.bits
        for m in range(16):
            assert g.value(m) == t.value(m ^ (1 << (i - 1)))


def test_support_and_drop_dead():
    # x2 and x4 dead: f = x1 and x3
    vals = [1 if (m & 1) and (m >> 2) & 1 else 0 for m in range(16)]
    t = TruthTable.from_values(vals)
    assert t.support() == (1, 3)
    assert t.is_dead(2) and t.is_dead(4)
    sub, kept = t.drop_dead()
    assert kept == (1, 3)
    assert sub.bits == table_and(2).bits


def test_support_matches_is_dead():
    rng = random.Random(3)
    for n in range(11):
        for _ in range(4):
            # a random table on a random subset of the variables
            kept = [i for i in range(n) if rng.random() < 0.7]
            lut = rng.getrandbits(1 << len(kept))
            vals = [(lut >> sum(((m >> v) & 1) << k
                                for k, v in enumerate(kept))) & 1
                    for m in range(1 << n)]
            t = TruthTable.from_values(vals)
            want = tuple(i for i in range(1, n + 1) if not t.is_dead(i))
            assert t.support() == want, t


def test_drop_dead_constant():
    sub, kept = TruthTable(3, 0).drop_dead()
    assert kept == () and sub.arity == 0 and sub.bits == 0


# ---------------------------------------------------------------------------
# invariants


def test_symmetric_profile_families():
    assert table_parity(4).symmetric_profile() == (0, 1, 0, 1, 0)
    assert table_nae(3).symmetric_profile() == (0, 1, 1, 0)
    assert table_threshold(5, 2).symmetric_profile() == (0, 0, 1, 1, 1, 1)
    assert TruthTable(3, 0b00000010).symmetric_profile() is None


def test_symmetric_profile_round_trip():
    for n in (1, 2, 3, 4):
        for prof in itertools.product((0, 1), repeat=n + 1):
            t = TruthTable.from_profile(list(prof))
            assert t.symmetric_profile() == prof


def _negate_inputs(t, flips):
    for i in range(1, t.arity + 1):
        if (flips >> (i - 1)) & 1:
            t = t.negate_var(i)
    return t


def _check_orbit_answer(t, got):
    """The flips must leave x1 alone and turn t into a symmetric table
    with the returned profile."""
    profile, flips = got
    assert flips & 1 == 0 and flips >> t.arity == 0
    assert _negate_inputs(t, flips) == TruthTable.from_profile(profile)


def test_symmetric_orbit_exhaustive_small():
    # oracle: a table is symmetric up to input negations iff it is some
    # symmetric table with some inputs negated
    for n in (0, 1, 2, 3, 4):
        images = {_negate_inputs(TruthTable.from_profile(prof), flips).bits
                  for prof in itertools.product((0, 1), repeat=n + 1)
                  for flips in range(1 << n)}
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            got = t.symmetric_orbit()
            assert (got is not None) == (bits in images), (n, bits)
            if got is not None:
                _check_orbit_answer(t, got)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=5, max_value=12), st.randoms())
def test_symmetric_orbit_of_npn_images(n, rnd):
    prof = tuple(rnd.getrandbits(1) for _ in range(n + 1))
    img = _random_transform(rnd, n).apply(TruthTable.from_profile(prof))
    got = img.symmetric_orbit()
    assert got is not None
    _check_orbit_answer(img, got)
    # permutations are invisible and negating every input reverses the
    # profile, so only these four can come back
    assert got[0] in {tuple(b ^ neg for b in p)
                      for p in (prof, prof[::-1]) for neg in (0, 1)}


def test_symmetric_orbit_rejects_asymmetric_tables():
    assert TruthTable(3, 0b10101000).symmetric_orbit() is None  # x1&(x2|x3)
    # no input negation repairs one changed point of weight 1
    rng = random.Random(17)
    for n in range(3, 13):
        t = table_exact(n, rng.randint(0, n))
        flipped = TruthTable(n, t.bits ^ (1 << (1 << rng.randrange(n))))
        assert flipped.symmetric_orbit() is None, n


def test_is_monotone_against_oracle():
    for bits in range(256):
        t = TruthTable(3, bits)
        assert t.is_monotone() == monotone_oracle(t)
    rng = random.Random(8)
    for _ in range(200):
        t = TruthTable(5, rng.getrandbits(32))
        assert t.is_monotone() == monotone_oracle(t)


def test_prime_normal_forms_evaluate_back():
    rng = random.Random(9)
    for _ in range(40):
        # random monotone function: OR of a few up-closures (non-constant)
        bits = 0
        for _ in range(rng.randint(1, 5)):
            seed_pt = rng.randint(1, 15)
            for m in range(16):
                if m & seed_pt == seed_pt:
                    bits |= 1 << m
        t = TruthTable(4, bits)
        nf = t.prime_normal_forms()
        for m in range(16):
            dnf = any(all((m >> (v - 1)) & 1 for v in term)
                      for term in nf.dnf_terms)
            cnf = all(any((m >> (v - 1)) & 1 for v in clause)
                      for clause in nf.cnf_clauses)
            assert dnf == cnf == bool(t.value(m))


def test_prime_normal_forms_reject_non_monotone():
    with pytest.raises(ValueError):
        table_parity(3).prime_normal_forms()


def test_multilinear_matches_moebius_oracle():
    for bits in range(256):
        t = TruthTable(3, bits)
        assert t.multilinear().coeffs == moebius_oracle(t)
    rng = random.Random(10)
    for n in (4, 5, 6):
        for _ in range(25):
            t = TruthTable(n, rng.getrandbits(1 << n))
            assert t.multilinear().coeffs == moebius_oracle(t)


def test_degree_matches_moebius_oracle():
    # arities up to 4 read a table of every function's degree
    def oracle_degree(t):
        return max((s.bit_count() for s in moebius_oracle(t)), default=0)

    for n in range(4):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert t.degree() == oracle_degree(t), t
    rng = random.Random(23)
    for n, count in ((4, 300), (5, 20), (6, 10)):
        for _ in range(count):
            t = TruthTable(n, rng.getrandbits(1 << n))
            assert t.degree() == oracle_degree(t), t
    for t in _structured_tables():
        assert t.degree() == oracle_degree(t), t


def test_multilinear_evaluates_to_function():
    rng = random.Random(11)
    for _ in range(30):
        t = TruthTable(4, rng.getrandbits(16))
        poly = t.multilinear()
        for m in range(16):
            assert poly.evaluate(m) == t.value(m)


def test_degree_known_families():
    assert table_parity(6).degree() == 6
    assert table_and(5).degree() == 5
    assert TruthTable(3, 0).degree() == 0
    # x1 xor x2 as a 3-variable table has degree 2
    vals = [((m & 1) ^ ((m >> 1) & 1)) for m in range(8)]
    assert TruthTable.from_values(vals).degree() == 2


# ---------------------------------------------------------------------------
# decision tree depth


def test_depth_against_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert t.decision_tree_depth() == depth_oracle(bits, n), bits


def test_depth_against_oracle_sampled():
    rng = random.Random(12)
    for n, count in ((5, 300), (6, 60)):
        for _ in range(count):
            bits = rng.getrandbits(1 << n)
            assert TruthTable(n, bits).decision_tree_depth() == \
                depth_oracle(bits, n)


def _low_degree_tables(rng, n, count):
    """Tables whose top multilinear coefficient vanishes: as many ones on
    even-weight inputs as on odd-weight ones."""
    even = [m for m in range(1 << n) if not m.bit_count() & 1]
    odd = [m for m in range(1 << n) if m.bit_count() & 1]
    for _ in range(count):
        k = rng.randrange(1, len(even))
        bits = 0
        for m in rng.sample(even, k) + rng.sample(odd, k):
            bits |= 1 << m
        yield TruthTable(n, bits)


def test_depth_against_oracle_below_full_degree():
    # depth returns n at once when the degree is n; these tables make it
    # search, and the ones with a dead variable have depth below n
    rng = random.Random(21)
    below = 0
    for n, count in ((5, 60), (6, 20), (7, 6)):
        tables = list(_low_degree_tables(rng, n, count))
        half = 1 << (n - 1)
        for _ in range(count // 2):
            low = rng.getrandbits(half)
            tables.append(TruthTable(n, low | (low << half)))
        for t in tables:
            assert t.degree() < n, t
            d = t.decision_tree_depth()
            assert d == depth_oracle(t.bits, n), t
            below += d < n
    assert below > 0


def test_depth_known_values():
    assert table_parity(7).decision_tree_depth() == 7
    assert table_and(6).decision_tree_depth() == 6
    assert table_nae(5).decision_tree_depth() == 5
    assert TruthTable(4, 0).decision_tree_depth() == 0
    # a dictator hides behind dead variables
    vals = [(m >> 2) & 1 for m in range(16)]
    assert TruthTable.from_values(vals).decision_tree_depth() == 1


def test_depth_arity_guard():
    with pytest.raises(ValueError):
        TruthTable(DEPTH_MAX_ARITY + 1, 0).decision_tree_depth()


def test_symmetric_decision_depth_matches_generic():
    for n in (1, 2, 3, 4):
        for prof in itertools.product((0, 1), repeat=n + 1):
            t = TruthTable.from_profile(list(prof))
            assert symmetric_decision_depth(prof) == t.decision_tree_depth()


def test_symmetric_decision_depth_validates():
    with pytest.raises(ValueError):
        symmetric_decision_depth([])
    with pytest.raises(ValueError):
        symmetric_decision_depth([0, 2, 1])


# ---------------------------------------------------------------------------
# NPN transforms and canonical forms


def _random_transform(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return NpnTransform(tuple(perm), rng.getrandbits(n), rng.getrandbits(1))


def test_transform_apply_matches_definition():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = TruthTable(n, rng.getrandbits(1 << n))
        g = _random_transform(rng, n)
        img = g.apply(t)
        for m in range(1 << n):
            assert img.value(m) == t.value(g.input_code(m)) ^ g.negate_output


def test_transform_inverse_round_trip():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 5)
        t = TruthTable(n, rng.getrandbits(1 << n))
        g = _random_transform(rng, n)
        assert g.inverse().apply(g.apply(t)).bits == t.bits


def test_transform_compose_is_sequential_application():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = TruthTable(n, rng.getrandbits(1 << n))
        g = _random_transform(rng, n)
        h = _random_transform(rng, n)
        assert h.compose(g).apply(t).bits == h.apply(g.apply(t)).bits


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.randoms())
def test_canonical_is_orbit_invariant(bits, rnd):
    t = TruthTable(3, bits)
    g = _random_transform(rnd, 3)
    assert t.npn_canonical()[0].bits == g.apply(t).npn_canonical()[0].bits


def test_canonical_transform_recreates_table():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 5)
        t = TruthTable(n, rng.getrandbits(1 << n))
        canon, g = t.npn_canonical()
        assert g.apply(t).bits == canon.bits


def test_canonical_matches_oracle_exhaustive_small():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert t.npn_canonical() == npn_canonical_oracle(t), t


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=6), st.randoms())
def test_canonical_matches_oracle_sampled(n, rnd):
    t = TruthTable(n, rnd.getrandbits(1 << n))
    assert t.npn_canonical() == npn_canonical_oracle(t)


def _structured_tables():
    rng = random.Random(22)
    for n in range(1, 7):
        size = 1 << n
        full = (1 << size) - 1
        yield TruthTable(n, 0)
        yield TruthTable(n, full)
        yield table_parity(n)
        yield table_parity(n).complement()
        # AND-isomorphic: one minority point
        points = range(size) if n <= 4 else rng.sample(range(size), 6)
        for m in points:
            yield TruthTable(n, 1 << m)
            yield TruthTable(n, full ^ (1 << m))
        profiles = list(itertools.product((0, 1), repeat=n + 1))
        if n == 6:
            profiles = rng.sample(profiles, 24)
        for prof in profiles:
            yield TruthTable.from_profile(prof)


def test_canonical_matches_oracle_structured():
    for t in _structured_tables():
        assert t.npn_canonical() == npn_canonical_oracle(t), t


def test_and_isomorphic_counts():
    for n, expect in ((3, 16), (4, 32)):
        got = sum(TruthTable(n, b).is_and_isomorphic()
                  for b in range(1 << (1 << n)))
        assert got == expect
    assert table_and(5).is_and_isomorphic()
    assert not table_nae(4).is_and_isomorphic()


# ---------------------------------------------------------------------------
# text formats and family builders


def test_parse_round_trips():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        t = TruthTable(n, rng.getrandbits(1 << n))
        assert parse_function(t.to_hex_text()).bits == t.bits
        assert parse_function(t.to_bin_text()).bits == t.bits


def test_parse_named_formats():
    assert parse_function("bin:0001").bits == table_and(2).bits
    assert parse_function("hex:8000").bits == table_and(4).bits
    assert parse_function("hex:FF") == parse_function("hex:ff")
    assert parse_function("profile:0,1,1,0").bits == table_nae(3).bits
    f = parse_function("formula:x1&(x2|x3)")
    assert f.bits == TruthTable(3, 0b10101000).bits


def test_parse_errors():
    for bad in ("nocolon", "oct:777", "bin:0a1", "bin:010",
                "profile:0,1,2", "hex:12345", "formula:x1&&",
                "hex:0x12", "hex:f_ff", "hex:+f", "hex:-f"):
        with pytest.raises(ValueError) as err:
            parse_function(bad)
        if bad.startswith("hex:") and bad != "hex:12345":
            assert "hexadecimal digits" in str(err.value)


@pytest.mark.parametrize("bad", [[":"], 5, None, b"hex:ff"],
                         ids=["list", "int", "None", "bytes"])
def test_parse_rejects_non_strings(bad):
    with pytest.raises(ValueError, match="must be a string"):
        parse_function(bad)


def test_parse_caps_profile_arity_before_allocating(monkeypatch):
    from querysynth import boolfun

    class PopcountTable(Exception):
        pass

    def no_popcount_table(n):
        raise PopcountTable(n)

    monkeypatch.setattr(boolfun, "_popcnt", no_popcount_table)

    def profile(entries):
        return "profile:" + ",".join("01"[w & 1] for w in range(entries))

    for entries in (MULTILINEAR_MAX_ARITY + 2, 30):
        with pytest.raises(ValueError, match="at most"):
            parse_function(profile(entries))
    # the largest accepted profile gets as far as the table build
    with pytest.raises(PopcountTable):
        parse_function(profile(MULTILINEAR_MAX_ARITY + 1))


def test_family_builders_frozen_tables():
    assert table_and(3).bits == 0x80
    assert table_or(3).bits == 0xfe
    assert table_parity(2).bits == 0b0110
    assert table_nae(2).bits == 0b0110
    assert table_exact(3, 1).bits == 0b00010110
    assert table_threshold(3, 2).bits == 0b11101000
    assert table_threshold(4, 4).bits == table_and(4).bits
    assert table_threshold(4, 1).bits == table_or(4).bits


def test_family_builder_guards():
    with pytest.raises(ValueError):
        table_nae(1)
    with pytest.raises(ValueError):
        table_exact(3, 4)
    with pytest.raises(ValueError):
        table_threshold(3, 0)
