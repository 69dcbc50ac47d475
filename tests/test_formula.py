"""Formula parsing and read-once recognition.

The recognizer is checked against a brute enumeration that builds every
signed binary read-once tree over the variable set and collects the truth
tables those trees produce.
"""

import random

import pytest

from querysynth.boolfun import TruthTable, table_parity, table_threshold
from querysynth.formula import (
    READ_ONCE_MAX_ARITY,
    FormulaError,
    Gate,
    Leaf,
    is_read_once,
    leaf_count,
    normalize,
    parse_formula,
    random_read_once,
    recognize_read_once,
    to_table,
    to_text,
    variables,
)


# ---------------------------------------------------------------------------
# oracle: every read-once table over exactly the variables 1..n


def read_once_tables(n):
    """Bitmask tables of all read-once formulas using each of x1..xn once."""
    full = (1 << (1 << n)) - 1
    var_mask = []
    for i in range(n):
        m = 0
        for code in range(1 << n):
            if (code >> i) & 1:
                m |= 1 << code
        var_mask.append(m)

    def gen(vs):
        if len(vs) == 1:
            vm = var_mask[vs[0]]
            yield vm
            yield full ^ vm
            return
        head, rest = vs[0], vs[1:]
        # unordered splits: the block containing the first variable
        for pick in range(1 << len(rest)):
            left = [head] + [v for k, v in enumerate(rest) if (pick >> k) & 1]
            right = [v for k, v in enumerate(rest) if not (pick >> k) & 1]
            if not right:
                continue
            for a in gen(tuple(left)):
                for b in gen(tuple(right)):
                    yield a & b
                    yield a | b

    return set(gen(tuple(range(n))))


def full_support(t):
    return t.support() == tuple(range(1, t.arity + 1))


# ---------------------------------------------------------------------------
# parsing


def test_parse_precedence_and_shape():
    node = parse_formula("x1 | x2 & x3")
    assert node == Gate("or", (Leaf(1), Gate("and", (Leaf(2), Leaf(3)))))


def test_parse_flattens_and_sorts():
    assert parse_formula("x1&(x2&x3)") == parse_formula("(x3&x1)&x2")
    assert parse_formula("x2|x1") == parse_formula("x1 | x2")
    # children that share a least variable sort by their text
    assert parse_formula("(x1|x3)&(x1|x2)") == parse_formula("(x1|x2)&(x1|x3)")
    assert to_text(parse_formula("~x1|x1")) == "(x1 | ~x1)"


def test_parse_pushes_negation_down():
    assert parse_formula("~(x1&x2)") == parse_formula("~x1|~x2")
    assert parse_formula("~~x1") == Leaf(1)
    assert parse_formula("~(x1|~x2)") == Gate("and", (Leaf(1, True), Leaf(2)))


def test_parse_error_positions():
    with pytest.raises(FormulaError) as exc:
        parse_formula("x1&&x2")
    assert exc.value.position == 3
    with pytest.raises(FormulaError) as exc:
        parse_formula("(x1|x2")
    assert exc.value.position == 6
    with pytest.raises(FormulaError) as exc:
        parse_formula("x0")
    assert exc.value.position == 0
    with pytest.raises(FormulaError):
        parse_formula("")
    with pytest.raises(FormulaError):
        parse_formula("x1 ^ x2")


def test_to_text_round_trip():
    for text in ("x1", "~x2", "(x1 & ~x3)", "((x1 | x2) & (x3 | ~x4))"):
        node = parse_formula(text)
        assert parse_formula(to_text(node)) == node


def test_to_table_known_values():
    assert to_table(parse_formula("x1&x2")).bits == 0b1000
    assert to_table(parse_formula("x1|x2")).bits == 0b1110
    assert to_table(parse_formula("~x1")).bits == 0b01
    # explicit arity widens the table with dead variables
    t = to_table(parse_formula("x1"), arity=3)
    assert t.arity == 3 and t.support() == (1,)


def test_to_table_rejects_too_small_arity():
    with pytest.raises(ValueError):
        to_table(parse_formula("x1&x3"), arity=2)


def test_structure_helpers():
    node = parse_formula("(x1|x2)&(x2|x3)")
    assert variables(node) == (1, 2, 3)
    assert leaf_count(node) == 4
    assert not is_read_once(node)
    assert is_read_once(parse_formula("x1&(x2|~x3)"))


def test_normalize_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        node = random_read_once(rng.randint(1, 8), rng.randrange(10 ** 6))
        assert normalize(node) == node


# ---------------------------------------------------------------------------
# read-once recognition


def test_recognizer_matches_enumeration_exhaustive():
    for n in (1, 2, 3):
        expected = read_once_tables(n)
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            if not full_support(t):
                continue
            ast = recognize_read_once(t)
            if bits in expected:
                assert ast is not None, bits
                assert is_read_once(ast)
                assert to_table(ast, n).bits == bits
            else:
                assert ast is None, bits


def test_recognizer_matches_enumeration_sampled_4():
    expected = read_once_tables(4)
    rng = random.Random(4)
    seen_yes = seen_no = 0
    for _ in range(2500):
        t = TruthTable(4, rng.getrandbits(16))
        if not full_support(t):
            continue
        ast = recognize_read_once(t)
        if t.bits in expected:
            seen_yes += 1
            assert ast is not None and to_table(ast, 4).bits == t.bits
        else:
            seen_no += 1
            assert ast is None
    # random 4-bit tables are mostly not read-once, but the oracle set
    # still needs to have been hit a few times for this to mean anything
    assert seen_no > 100
    for bits in sorted(expected)[::37]:
        ast = recognize_read_once(TruthTable(4, bits))
        assert ast is not None and to_table(ast, 4).bits == bits
        seen_yes += 1
    assert seen_yes > 10


def test_recognizer_round_trips_random_formulas():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 9)
        node = random_read_once(n, rng.randrange(10 ** 6))
        t = to_table(node, n)
        ast = recognize_read_once(t)
        assert ast is not None
        assert to_table(ast, n).bits == t.bits


def test_recognizer_rejects_known_negatives():
    assert recognize_read_once(table_parity(3)) is None
    assert recognize_read_once(table_threshold(3, 2)) is None  # majority


def test_recognizer_input_guards():
    dead = TruthTable.from_values([m & 1 for m in range(8)])  # x2, x3 dead
    with pytest.raises(ValueError):
        recognize_read_once(dead)
    with pytest.raises(ValueError, match="arity <= 12"):
        recognize_read_once(TruthTable(READ_ONCE_MAX_ARITY + 1, 0))


# ---------------------------------------------------------------------------
# random generation


def test_random_read_once_is_deterministic_per_seed():
    a = random_read_once(7, 123)
    b = random_read_once(7, 123)
    c = random_read_once(7, 124)
    assert a == b
    assert a != c


def test_random_read_once_uses_every_variable_once():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, READ_ONCE_MAX_ARITY)
        node = random_read_once(n, rng.randrange(10 ** 6))
        assert variables(node) == tuple(range(1, n + 1))
        assert leaf_count(node) == n
        assert full_support(to_table(node, n))


def test_random_read_once_guards():
    with pytest.raises(ValueError):
        random_read_once(0, 1)
    with pytest.raises(ValueError):
        random_read_once(READ_ONCE_MAX_ARITY + 1, 1)
