"""Verification campaigns over whole families of Boolean functions.

Each suite sweeps a population (exhaustive where that is feasible,
constructed or sampled where it is not) and re-checks one cluster of
claims end to end: synthesized programs verify, counts match closed
forms, structural invariants hold. Results come back as SuiteReport
records that serialize to JSON for the command line.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from . import synth
from .boolfun import (
    NpnTransform,
    TruthTable,
    _flip_images,
    _pack_msb_first,
    _perm_codes,
    _restrict_bits,
    symmetric_decision_depth,
    table_and,
    table_exact,
    table_nae,
    table_or,
    table_parity,
    table_threshold,
)
from .formula import random_read_once, to_table
from .qprogram import (
    Output,
    nae_program,
    parity_program,
    query_cost,
    simulate,
    xor_gadget,
)

FAILURE_CAP = 50


@dataclass
class SuiteReport:
    suite: str
    population: int
    checked: int
    passed: int
    failed: int
    failures: list
    wall_time: float
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "population": self.population,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
            "wallTime": round(self.wall_time, 3),
            "extras": self.extras,
        }


class _Recorder:
    """Counts checks and keeps the first FAILURE_CAP failure messages."""

    def __init__(self):
        self.checked = 0
        self.passed = 0
        self.failures: list = []

    def check(self, ok: bool, msg: str) -> bool:
        self.checked += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < FAILURE_CAP:
            self.failures.append(msg)
        return ok

    def merge(self, other: "_Recorder") -> None:
        """Add other's counts; failures stay first-come up to FAILURE_CAP."""
        self.checked += other.checked
        self.passed += other.passed
        self.failures += other.failures[:FAILURE_CAP - len(self.failures)]

    @property
    def failed(self) -> int:
        return self.checked - self.passed

    def report(self, suite, population, t0, extras=None) -> SuiteReport:
        return SuiteReport(suite, population, self.checked, self.passed,
                           self.failed, self.failures,
                           time.perf_counter() - t0, extras or {})


def _pool_map(fn, args, jobs):
    """[fn(a) for a in args], over `jobs` forked workers when jobs > 1."""
    if jobs <= 1:
        return [fn(a) for a in args]
    with get_context("fork").Pool(jobs) as pool:
        return pool.map(fn, args)


# ---------------------------------------------------------------------------
# AND-isomorphism orbits, computed by group closure rather than by the
# one-point criterion, so the two classifications can check each other


@functools.cache
def and_orbit(n: int) -> frozenset:
    """Table integers of every function NPN-equivalent to AND_n.

    Breadth-first closure under the group generators: adjacent variable
    swaps, single-input negations, output negation.
    """
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(NpnTransform(tuple(perm)))
    for i in range(n):
        gens.append(NpnTransform(tuple(range(n)), 1 << i))
    gens.append(NpnTransform(tuple(range(n)), 0, 1))
    seen = {table_and(n).bits}
    frontier = [table_and(n)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            img = g.apply(cur)
            if img.bits not in seen:
                seen.add(img.bits)
                frontier.append(img)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# symmetric-function suite


def _expected_symmetric_cost(profile):
    """Exact expected query count for catalogued profiles, else None.

    The catalogue values are published exact complexities: n for the
    four AND/OR patterns, ceil(n/2) for parity, max(k, n-k) for the
    exactly-k patterns and max(k, n-k+1) for thresholds (Ambainis,
    Iraids and Smotrovs 2013; Beals, Buhrman, Cleve, Mosca and de Wolf
    2001).
    """
    n = len(profile) - 1
    if min(profile) == max(profile):
        return 0
    par = tuple(w & 1 for w in range(n + 1))
    if profile == par or profile == tuple(1 - b for b in par):
        return (n + 1) // 2
    if sum(profile) == 1:
        return max(profile.index(1), n - profile.index(1))
    if sum(profile) == n:
        return max(profile.index(0), n - profile.index(0))
    for k in range(1, n + 1):
        th = tuple(1 if w >= k else 0 for w in range(n + 1))
        if profile == th or profile == tuple(1 - b for b in th):
            return max(k, n - k + 1)
    return None


def suite_symmetric(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Synthesize and verify every symmetric function up to max_n.

    Checks per profile: the certificate verifies, the count stays below
    n except on AND/OR-isomorphic profiles, catalogued profiles get
    their exact published value, and the 3-bit catalogue is reproduced
    in full (two queries for everything except constants and the four
    AND/OR patterns).
    """
    max_n = 6 if max_n is None else max_n
    t0 = time.perf_counter()
    rec = _Recorder()
    population = 0
    by_arity = {}
    for n in range(1, max_n + 1):
        iso = and_orbit(n)
        counts = {}
        for prof in itertools.product((0, 1), repeat=n + 1):
            population += 1
            t = TruthTable.from_profile(list(prof))
            name = "profile:" + "".join(str(b) for b in prof)
            cert = synth.synthesize(t)
            rep = synth.verify_certificate(cert)
            rec.check(rep.ok, "%s: certificate rejected: %s"
                      % (name, "; ".join(rep.failures)))
            c = cert.claimed_queries
            counts[c] = counts.get(c, 0) + 1
            if t.bits in iso:
                rec.check(c == n, "%s: AND-isomorphic but %d queries" % (name, c))
            elif min(prof) == max(prof):
                rec.check(c == 0, "%s: constant but %d queries" % (name, c))
            else:
                rec.check(c < n, "%s: %d queries, below-n bound missed" % (name, c))
            want = _expected_symmetric_cost(prof)
            if want is not None:
                rec.check(c == want, "%s: catalogued cost %d, got %d"
                          % (name, want, c))
            if n == 3:
                expect3 = 0 if min(prof) == max(prof) else (3 if t.bits in iso else 2)
                rec.check(c == expect3, "%s: 3-bit catalogue says %d, got %d"
                          % (name, expect3, c))
            if n >= 2 and prof in ((0,) + (1,) * (n - 1) + (0,),
                                   (1,) + (0,) * (n - 1) + (1,)):
                rec.check(c <= n - 1, "%s: not-all-equal above n-1 (%d)"
                          % (name, c))
        by_arity[str(n)] = {str(k): v for k, v in sorted(counts.items())}
    return rec.report("symmetric", population, t0, {"countsByArity": by_arity})


# ---------------------------------------------------------------------------
# primitive-program suite


def suite_primitives(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Exactness of the fixed program families on every input.

    The xor gadget is checked exhaustively over variable pairs and
    output wirings; parity and not-all-equal programs are simulated
    against their truth tables for every arity up to max_n.
    """
    max_n = 12 if max_n is None else max_n
    t0 = time.perf_counter()
    rec = _Recorder()
    population = 0
    for arity in range(2, 5):
        for i in range(1, arity + 1):
            for j in range(i + 1, arity + 1):
                for o0, o1 in ((0, 1), (1, 0)):
                    population += 1
                    prog = xor_gadget(i, j, Output(o0), Output(o1))
                    bits = 0
                    for m in range(1 << arity):
                        x = ((m >> (i - 1)) ^ (m >> (j - 1))) & 1
                        bits |= (o1 if x else o0) << m
                    rep = simulate(prog, TruthTable(arity, bits))
                    rec.check(rep.exact and rep.queries_worst_case == 1,
                              "gadget x%d^x%d -> (%d,%d): wrong amplitude %.2e"
                              % (i, j, o0, o1, rep.worst_wrong_amplitude))
    families = (("parity", parity_program, table_parity, 1,
                 lambda n: (n + 1) // 2),
                ("not-all-equal", nae_program, table_nae, 2, lambda n: n - 1))
    for name, program, table, lo, cost in families:
        for n in range(lo, max_n + 1):
            for invert in (False, True):
                population += 1
                prog = program(n, invert)
                f = table(n).complement() if invert else table(n)
                rep = simulate(prog, f)
                want, got = cost(n), query_cost(prog)
                rec.check(rep.exact and rep.queries_worst_case == want
                          and got == want,
                          "%s n=%d invert=%s: exact=%s worst=%d cost=%d"
                          % (name, n, invert, rep.exact,
                             rep.queries_worst_case, got))
    return rec.report("primitives", population, t0)


# ---------------------------------------------------------------------------
# decision-tree depth suite


_RANDOM_DEPTH_DRAWS = {1: 14000, 2: 14000, 3: 14000, 4: 14000, 5: 14000,
                       6: 14000, 7: 10000, 8: 4000, 9: 1500, 10: 500}


def suite_depth(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Decision-tree depth of symmetric and read-once functions is full.

    Three phases: every non-constant symmetric profile needs depth n
    (exhaustive through max_n, with the profile recursion cross-checked
    against the generic search at small n); random read-once formulas
    have degree n with a lone +-1 top coefficient and depth n; random
    tables never have depth below degree.
    """
    max_n = 12 if max_n is None else max_n
    t0 = time.perf_counter()
    rec = _Recorder()
    population = 0
    for n in range(1, max_n + 1):
        for prof in itertools.product((0, 1), repeat=n + 1):
            if min(prof) == max(prof):
                continue
            population += 1
            d = symmetric_decision_depth(prof)
            rec.check(d == n, "profile:%s depth %d != %d"
                      % ("".join(map(str, prof)), d, n))
            if n <= 5:
                g = TruthTable.from_profile(list(prof)).decision_tree_depth()
                rec.check(g == d, "profile:%s generic depth %d != profile %d"
                          % ("".join(map(str, prof)), g, d))
    per_arity = 1000
    for n in range(4, max_n + 1):
        # the top coefficient is the sum of (-1)**(n - |x|) f(x): the
        # inputs in `same` have weight of n's parity
        odd = table_parity(n).bits
        same = odd if n & 1 else odd ^ ((1 << (1 << n)) - 1)
        for i in range(per_arity):
            population += 1
            fml = random_read_once(n, seed=seed * 1000003 + n * 4096 + i)
            t = to_table(fml, n)
            top = (t.bits & same).bit_count() - (t.bits & ~same).bit_count()
            # top = +-1 gives degree n; its odd popcount lets the depth
            # search return n without a transform
            depth = t.decision_tree_depth()
            rec.check(top in (1, -1) and depth == n,
                      "read-once n=%d #%d: top %d depth %d"
                      % (n, i, top, depth))
    rng = random.Random(seed * 7 + 19)
    drawn = 0
    for n, draws in sorted(_RANDOM_DEPTH_DRAWS.items()):
        if n > max_n or n > 10:
            continue
        drawn += draws
        for _ in range(draws):
            population += 1
            t = TruthTable(n, rng.getrandbits(1 << n))
            d = t.decision_tree_depth()
            # no degree exceeds n, so only a depth below n needs one
            g = t.degree() if d < n else n
            rec.check(d >= g, "random n=%d %s: depth %d < degree %d"
                      % (n, t.to_hex_text(), d, g))
    return rec.report("depth", population, t0,
                      {"readOncePerArity": per_arity, "randomDraws": drawn})


# ---------------------------------------------------------------------------
# full 4-bit sweep


def _census4():
    """NPN class label of every 4-bit table: the least key over its
    orbit under variable permutation, input negation and output negation,
    computed for all 65,536 tables at once, one permutation at a time."""
    tables = np.arange(1 << 16, dtype=np.uint32)
    values = ((tables[:, None] >> np.arange(16, dtype=np.uint32))
              & 1).astype(np.uint8)
    best = None
    for perm_codes in _perm_codes(4)[1]:
        keys = _pack_msb_first(values[:, perm_codes]).astype(np.uint16)
        images = _flip_images(keys, 4)
        cand = np.minimum(images.min(axis=0), 0xffff ^ images.max(axis=0))
        best = cand if best is None else np.minimum(best, cand)
    return best


def _certify_chunk(args):
    """Synthesize and verify each n-bit table, one check per table.

    A table passes when its certificate verifies and it costs n queries
    exactly when it is AND-isomorphic. Returns the recorder with the
    tallies by query count and by level, the number of monotone tables
    and the monotone tables that cost n.
    """
    n, tables = args
    iso = and_orbit(n)
    rec = _Recorder()
    counts, levels = Counter(), Counter()
    mono, mono_full = 0, []
    for bits in tables:
        t = TruthTable(n, bits)
        try:
            cert = synth.synthesize(t)
            rep = synth.verify_certificate(cert)
        except Exception as e:  # noqa: BLE001 - a failure line, not a crash
            rec.check(False, "%s: synthesis raised %r" % (t.to_hex_text(), e))
            continue
        c = cert.claimed_queries
        counts[c] += 1
        levels[cert.level] += 1
        if t.is_monotone():
            mono += 1
            if c == n:
                mono_full.append(bits)
        msg = None
        if not rep.ok:
            msg = "%s: certificate rejected: %s" % (t.to_hex_text(),
                                                    "; ".join(rep.failures))
        elif (c == n) != (bits in iso):
            msg = "%s: %d queries but AND-isomorphic=%s" % (t.to_hex_text(),
                                                           c, bits in iso)
        rec.check(msg is None, msg)
    return rec, counts, levels, mono, mono_full


def suite_sweep4(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Certify all 65,536 4-bit functions and verify every certificate.

    Asserts the dichotomy (4 queries exactly on the 32 AND-isomorphic
    tables, at most 3 elsewhere), counts certificates by query count and
    level, takes an equivalence-class census, and checks that among
    monotone tables only AND_4 and OR_4 need 4 queries. Chunks merge
    associatively, so the numbers cannot depend on the job count.
    """
    t0 = time.perf_counter()
    synth._cost_table(4)
    and_orbit(4)
    chunks = [(4, range(lo, lo + 1024)) for lo in range(0, 65536, 1024)]
    rec = _Recorder()
    counts, levels = Counter(), Counter()
    mono, mono_four = 0, []
    for part, cc, lv, mc, mf in _pool_map(_certify_chunk, chunks, jobs):
        rec.merge(part)
        counts += cc
        levels += lv
        mono += mc
        mono_four += mf
    rec.check(counts[4] == 32, "expected 32 four-query tables, got %d"
              % counts[4])
    want_mono_four = sorted([table_and(4).bits, table_or(4).bits])
    rec.check(sorted(mono_four) == want_mono_four,
              "monotone four-query set %s != AND_4/OR_4" % mono_four)
    n_classes = int(np.unique(_census4()).size)
    extras = {
        "countsByQueries": {str(i): counts[i] for i in range(5)},
        "levels": dict(sorted(levels.items())),
        "npnClasses": n_classes,
        "monotone": {"count": mono,
                     "fourQueryTables": [TruthTable(4, b).to_hex_text()
                                         for b in sorted(mono_four)]},
    }
    return rec.report("sweep4", 65536, t0, extras)


# ---------------------------------------------------------------------------
# structural-invariant suite


def _restriction_pair(bits, n, p):
    return (_restrict_bits(bits, n, p, 0), _restrict_bits(bits, n, p, 1))


def _forcing_vectors(bits, n):
    """Vectors b such that every restriction f_{x_i=b_i} has exactly one
    1, or every restriction has exactly one 0."""
    half = 1 << (n - 1)
    subs = [_restriction_pair(bits, n, p) for p in range(n)]
    found = []
    for b in range(1 << n):
        picked = [subs[i][(b >> i) & 1] for i in range(n)]
        if all(r.bit_count() == 1 for r in picked):
            found.append(b)
        elif all(r.bit_count() == half - 1 for r in picked):
            found.append(b)
    return found


def _zero_points(bits, n):
    """If every f_{x_i=0} has exactly one 0, return those zero points as
    n-bit codes with bit i forced to 0; else None."""
    pts = []
    for p in range(n):
        r0 = _restrict_bits(bits, n, p, 0)
        zeros = r0 ^ ((1 << (1 << (n - 1))) - 1)
        if zeros.bit_count() != 1:
            return None
        z = zeros.bit_length() - 1
        low = z & ((1 << p) - 1)
        pts.append(low | ((z >> p) << (p + 1)))
    return pts


def _structural_checks(rec, bits, n, iso_set, cost=None, child_costs=None):
    """Run the restriction-shape invariants on one table.

    With cost and child_costs supplied, also checks that a variable
    whose both restrictions are cheap (below n-1) caps the whole cost
    below n.
    """
    name = TruthTable(n, bits).to_hex_text()
    size = 1 << n
    ones = bits.bit_count()
    if ones >= 2 and size - ones >= 2:
        rec.check(bits not in iso_set,
                  "%s: two ones and two zeros yet AND-isomorphic" % name)
    half = size >> 1
    subs = [_restriction_pair(bits, n, p) for p in range(n)]
    and_vars = {i for i, pair in enumerate(subs)
                if pair[0].bit_count() == 1 or pair[1].bit_count() == 1}
    or_vars = {i for i, pair in enumerate(subs)
               if pair[0].bit_count() == half - 1
               or pair[1].bit_count() == half - 1}
    if and_vars and or_vars:
        rec.check(len(and_vars | or_vars) == 1,
                  "%s: AND-like restriction on %s next to OR-like on %s"
                  % (name, sorted(and_vars), sorted(or_vars)))
    pts = _zero_points(bits, n)
    if pts is not None:
        for i in range(n):
            for j in range(i + 1, n):
                rec.check(((pts[i] >> j) & 1) == ((pts[j] >> i) & 1),
                          "%s: zero points disagree at (x%d,x%d)"
                          % (name, i + 1, j + 1))
    if cost is not None and child_costs is not None:
        cheap = any(max(child_costs[r0], child_costs[r1]) < n - 1
                    for r0, r1 in subs)
        if cheap:
            rec.check(cost < n,
                      "%s: a variable with two cheap halves yet %d queries"
                      % (name, cost))


def _glue_halves(g0, g1, half_arity):
    """Table of the function reading x1 to choose between g0 and g1."""
    bits = 0
    for rest in range(1 << half_arity):
        if (g0 >> rest) & 1:
            bits |= 1 << (rest << 1)
        if (g1 >> rest) & 1:
            bits |= 1 << ((rest << 1) | 1)
    return bits


def suite_structural(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Restriction-shape invariants behind the synthesis dichotomy.

    Exhaustive at n=4 and sampled plus premise-targeted at n=5:
    functions with two ones and two zeros are never AND-isomorphic; an
    AND-like restriction excludes OR-like restrictions on other
    variables; when every f_{x_i=0} has a unique zero, those zero
    points agree symmetrically; full-cost functions admit exactly one
    forcing vector; a variable with two cheap halves caps the cost; and
    gluing any two AND-isomorphic halves stays below full cost.
    """
    max_n = 5 if max_n is None else max_n
    t0 = time.perf_counter()
    rec = _Recorder()
    costs3, costs4 = synth._cost_table(3)[0], synth._cost_table(4)[0]
    population = 0

    iso4 = and_orbit(4)
    for bits in range(65536):
        population += 1
        _structural_checks(rec, bits, 4, iso4,
                           cost=int(costs4[bits]), child_costs=costs3)
    for bits in sorted(iso4):
        vecs = _forcing_vectors(bits, 4)
        rec.check(len(vecs) == 1,
                  "%s: %d forcing vectors on a full-cost table"
                  % (TruthTable(4, bits).to_hex_text(), len(vecs)))
    glue_counts = {}
    for g0, g1 in itertools.product(sorted(and_orbit(3)), repeat=2):
        population += 1
        bits = _glue_halves(g0, g1, 3)
        c = int(costs4[bits])
        glue_counts[c] = glue_counts.get(c, 0) + 1
        rec.check(c < 4, "glued 3-bit halves %s needs %d queries"
                  % (TruthTable(4, bits).to_hex_text(), c))
    extras = {"gluedCostCounts4": {str(k): v for k, v in
                                   sorted(glue_counts.items())}}

    if max_n >= 5:
        iso5 = and_orbit(5)
        rng = random.Random(seed * 911 + 5)
        samples = 100000
        for _ in range(samples):
            population += 1
            _structural_checks(rec, rng.getrandbits(32), 5, iso5)
        for bits in sorted(iso5):
            population += 1
            vecs = _forcing_vectors(bits, 5)
            rec.check(len(vecs) == 1,
                      "%s: %d forcing vectors on a full-cost table"
                      % (TruthTable(5, bits).to_hex_text(), len(vecs)))
            _structural_checks(rec, bits, 5, iso5, cost=5, child_costs=costs4)
        full5 = (1 << 32) - 1
        planted = [table_or(5), table_nae(5),
                   TruthTable(5, table_threshold(5, 4).bits ^ full5),
                   TruthTable(5, table_exact(5, 4).bits ^ full5)]
        perms = list(itertools.permutations(range(5)))
        rng2 = random.Random(seed * 13 + 1)
        for base in planted:
            for perm in rng2.sample(perms, 24):
                population += 1
                t = NpnTransform(tuple(perm)).apply(base)
                pts = _zero_points(t.bits, 5)
                rec.check(pts is not None,
                          "%s: planted table lost its unique-zero shape"
                          % t.to_hex_text())
                _structural_checks(rec, t.bits, 5, iso5)
        glue5 = {}
        for g0, g1 in itertools.product(sorted(iso4), repeat=2):
            population += 1
            bits = _glue_halves(g0, g1, 4)
            c = synth.query_complexity(TruthTable(5, bits))
            glue5[c] = glue5.get(c, 0) + 1
            rec.check(c < 5, "glued 4-bit halves %s needs %d queries"
                      % (TruthTable(5, bits).to_hex_text(), c))
        extras["gluedCostCounts5"] = {str(k): v for k, v in sorted(glue5.items())}
        extras["sampled5"] = samples
    return rec.report("structural", population, t0, extras)


# ---------------------------------------------------------------------------
# counting suite


def suite_counting(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """The AND-isomorphic population is 2^(n+1) for n in {3, 4, 5}.

    n=3 and n=4 count by full enumeration (one-point criterion checked
    against the orbit closure); n=5 checks the orbit closure against
    the explicit construction, one table per forced input point on each
    side of the output negation. Also ties the 4-bit count to the
    engine: exactly that many tables cost 4 queries.
    """
    t0 = time.perf_counter()
    rec = _Recorder()
    population = 0
    by_arity = {}
    for n in (3, 4, 5):
        orbit = and_orbit(n)
        by_arity[str(n)] = len(orbit)
        rec.check(len(orbit) == 1 << (n + 1),
                  "n=%d orbit size %d != %d" % (n, len(orbit), 1 << (n + 1)))
        size = 1 << n
        built = set()
        for p in range(size):
            built.add(1 << p)
            built.add((1 << p) ^ ((1 << size) - 1))
        rec.check(built == set(orbit),
                  "n=%d explicit one-point tables differ from orbit" % n)
        if n <= 4:
            population += 1 << size
            cnt = 0
            for bits in range(1 << size):
                ones = bits.bit_count()
                member = ones == 1 or ones == size - 1
                if member:
                    cnt += 1
                if member != (bits in orbit):
                    rec.check(False,
                              "n=%d %s: one-point criterion disagrees with "
                              "orbit" % (n, TruthTable(n, bits).to_hex_text()))
            rec.check(cnt == 1 << (n + 1),
                      "n=%d one-point count %d != %d" % (n, cnt, 1 << (n + 1)))
        else:
            population += len(orbit)
    four = int((synth._cost_table(4)[0] == 4).sum())
    rec.check(four == 32, "engine says %d tables cost 4, expected 32" % four)
    return rec.report("counting", population, t0,
                      {"populationByArity": by_arity})


# ---------------------------------------------------------------------------
# flagged 5-bit sample (stretch)


def suite_sample5(max_n=None, seed=0, jobs=1) -> SuiteReport:
    """Random 5-bit synthesis census; exploratory, findings not failures.

    Samples random 5-bit tables plus the full AND-isomorphic set,
    synthesizing and verifying each; anomalies land in extras under
    findings rather than in the failure count, because a complete
    class-by-class confirmation at n=5 is out of this runtime's reach
    and the sweep stays a flagged stretch check.
    """
    t0 = time.perf_counter()
    chunks = []
    for i in range(6):
        rng = random.Random(seed * 65537 + i)
        chunks.append((5, [rng.getrandbits(32) for _ in range(100)]))
    chunks.append((5, sorted(and_orbit(5))))
    rec = _Recorder()
    for part, *_ in _pool_map(_certify_chunk, chunks, jobs):
        rec.merge(part)
    return SuiteReport("sample5", rec.checked, rec.checked, rec.checked, 0,
                       [], time.perf_counter() - t0,
                       {"stretch": True, "findings": rec.failures})


SUITES = {
    "symmetric": suite_symmetric,
    "primitives": suite_primitives,
    "depth": suite_depth,
    "sweep4": suite_sweep4,
    "structural": suite_structural,
    "counting": suite_counting,
    "sample5": suite_sample5,
}


def run_suite(name: str, max_n=None, seed: int = 0, jobs: int = 1) -> SuiteReport:
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError("unknown suite %r (have: %s)"
                         % (name, ", ".join(sorted(SUITES))))
    return fn(max_n=max_n, seed=seed, jobs=jobs)
