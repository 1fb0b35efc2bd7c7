import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from deltamat.acceptance import valid_delta_matroids
from deltamat.deltamatroid import DeltaMatroid
from deltamat.ground import AdmissibleSet, GuardLimitError, enumerate_admissible, signed_ground
from deltamat.invariants import upoly_direct
from deltamat.matroid import (
    EnvelopeSearch,
    Gf2SymMatrix,
    Matroid,
    _nonsingular,
    _ranks,
    dm_from_gf2,
    dm_from_matroid,
    enveloping_check,
    enveloping_search,
    env_project,
    example15_rank,
    example15_upoly,
    rank_generating,
    upper_matroid,
    validate_matroid,
)
from deltamat.poly import MultiPoly, poly_u_v
from deltamat.randgen import _random_matroid
from deltamat.rankfn import AxiomReport, Violation, polytope_membership

from conftest import sset, symmetric_rows

U, V = poly_u_v()


def test_matroid_construction_and_validation():
    u12 = Matroid.uniform(1, 2)
    assert validate_matroid(u12).passed
    assert u12.rank == 1

    twisted = Matroid.signed(2, [[1, -2], [-1, 2]])
    rep = validate_matroid(twisted)
    assert not rep.passed

    four = Matroid.signed(2, [[1, -2], [-1, 2], [1, -1], [2, -2]])
    assert validate_matroid(four).passed

    with pytest.raises(ValueError):
        Matroid.plain(2, [])
    with pytest.raises(ValueError):
        Matroid.plain(2, [[1], [1, 2]])
    with pytest.raises(ValueError):
        Matroid.plain(2, [[3]])


def _exchange_oracle(m):
    """Basis exchange on frozensets, every ordered pair, x in element order."""
    out = []
    bases = set(m.bases)
    for b1 in m.bases:
        for b2 in m.bases:
            for x in sorted(b1 - b2, key=lambda e: (abs(e), 0 if e > 0 else 1)):
                if not any(((b1 - {x}) | {y}) in bases for y in b2 - b1):
                    out.append(Violation("basis-exchange", (b1, b2), x, 0))
    return out


def test_validate_matroid_matches_exchange_oracle():
    rng = random.Random(5150)
    candidates = [Matroid.uniform(2, 4), Matroid.pair_partition(3)]
    for _ in range(150):
        if rng.random() < 0.5:
            size = rng.randint(4, 5)
            ground, make = range(1, size + 1), Matroid.plain
        else:
            size = rng.randint(2, 3)
            ground, make = [i for k in range(1, size + 1) for i in (k, -k)], Matroid.signed
        subsets = list(combinations(ground, len(ground) // 2))
        candidates.append(make(size, rng.sample(subsets, rng.randint(1, len(subsets)))))
    verdicts = []
    for m in candidates:
        report = validate_matroid(m)
        assert list(report.violations) == _exchange_oracle(m), m
        verdicts.append(report.passed)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_rank_of():
    u12 = Matroid.uniform(1, 2)
    assert u12.rank_of([1, 2]) == 1
    assert u12.rank_of([]) == 0
    pairs = Matroid.pair_partition(2)
    assert pairs.rank_of([1, -1]) == 1
    with pytest.raises(ValueError):
        u12.rank_of([5])


def test_rank_generating_small():
    assert rank_generating(Matroid.uniform(1, 1)) == U + 1
    assert rank_generating(Matroid.uniform(0, 1)) == V + 1
    assert rank_generating(Matroid.uniform(1, 2)) == U + V + 2
    for r, n in ((0, 2), (1, 3), (2, 3)):
        p = rank_generating(Matroid.uniform(r, n))
        assert all(c > 0 for c in p.terms.values())
        bases = p.evaluate({"u": 0, "v": 0})
        assert bases == len(Matroid.uniform(r, n).bases)


def test_dm_from_matroid_examples(coloop1, free1):
    u11 = Matroid.uniform(1, 1)
    assert dm_from_matroid(u11, "bases") == coloop1
    assert dm_from_matroid(u11, "independents") == free1
    u12 = Matroid.uniform(1, 2)
    d = dm_from_matroid(u12, "bases")
    assert [b.render() for b in d.feasible_sets()] == ["1 -2", "-1 2"]
    with pytest.raises(ValueError):
        dm_from_matroid(u12, "circuits")
    with pytest.raises(ValueError):
        dm_from_matroid(Matroid.pair_partition(1), "bases")


def test_dm_from_matroid_always_valid():
    # every equal-size family on up to 4 elements that is a matroid
    checked = 0
    for m_size in range(1, 5):
        for r in range(m_size + 1):
            r_sets = list(combinations(range(1, m_size + 1), r))
            for k in range(1, len(r_sets) + 1):
                for fam in combinations(r_sets, k):
                    candidate = Matroid.plain(m_size, fam)
                    if not validate_matroid(candidate).passed:
                        continue
                    for mode in ("bases", "independents"):
                        d = dm_from_matroid(candidate, mode)
                        assert d.validate("exchange").ok, (fam, mode)
                    checked += 1
    assert checked >= 90  # 91 matroids by explicit basis families on <= 4 elements


def test_example15_rank_spot_values():
    u12 = Matroid.uniform(1, 2)
    assert example15_rank(u12, sset(2, 1, 2), "independents") == 0
    assert example15_rank(u12, sset(2, -1, -2), "bases") == 0
    assert example15_rank(u12, sset(2), "independents") == 0
    assert example15_rank(u12, sset(2), "bases") == 0


def test_example15_upoly_bases_matches_direct():
    for r, n in ((1, 1), (0, 1), (1, 2), (2, 3)):
        m = Matroid.uniform(r, n)
        assert example15_upoly(m, "bases") == upoly_direct(dm_from_matroid(m, "bases"))


def test_example15_upoly_independents_known_discrepancy():
    # the closed formula, transcribed as printed, overshoots the direct sum
    m = Matroid.uniform(1, 1)
    formula = example15_upoly(m, "independents")
    direct = upoly_direct(dm_from_matroid(m, "independents"))
    assert formula == U + 4
    assert direct == U + 2
    assert formula != direct
    m01 = Matroid.uniform(0, 1)
    assert example15_upoly(m01, "independents") != upoly_direct(
        dm_from_matroid(m01, "independents")
    )


def test_env_project():
    assert env_project((1, 0, 0, 1)) == (1, -1)
    assert env_project((1, 0, 1, 0)) == (0, 0)
    assert env_project((0, 0)) == (0,)
    with pytest.raises(ValueError):
        env_project((1, 0, 0))


def test_upper_matroid_examples(tripod, coloop1):
    m = upper_matroid(tripod, sset(3, 1, 2, 3))
    assert m.bases == (frozenset({1}), frozenset({2}), frozenset({3}))
    free = upper_matroid(coloop1, sset(1, 1))
    assert free.bases == (frozenset({1}),)
    zero = upper_matroid(coloop1, sset(1, -1))
    assert zero.rank == 0 and zero.ground == (-1,)
    with pytest.raises(ValueError):
        upper_matroid(tripod, sset(3, 1, 2))


def test_upper_matroid_rank_identity(tripod):
    for window_set in [sset(3, 1, 2, 3), sset(3, -1, 2, -3)]:
        m = upper_matroid(tripod, window_set)
        elems = window_set.elements()
        for k in range(4):
            for chosen in combinations(elems, k):
                t = sset(3, *chosen)
                assert 2 * m.rank_of(chosen) == tripod.g(t) + t.size


def test_enveloping_check_examples(free1, coloop1):
    assert enveloping_check(Matroid.pair_partition(1), free1).passed
    assert enveloping_check(Matroid.pair_partition(2), DeltaMatroid(2, range(4))).passed

    # both singletons as bases folds a point outside the coloop polytope
    u12_signed = Matroid.signed(1, [[1], [-1]])
    rep = enveloping_check(u12_signed, coloop1)
    assert not rep.passed
    assert any(v.axiom == "basis-folds-outside" for v in rep.violations)

    d = dm_from_matroid(Matroid.uniform(1, 2), "bases")
    envelope = Matroid.signed(2, [[1, -2], [-1, 2], [1, -1], [2, -2]])
    assert enveloping_check(envelope, d).passed

    with pytest.raises(ValueError):
        enveloping_check(Matroid.uniform(1, 2), d)  # plain ground, not the signed one
    with pytest.raises(ValueError):
        enveloping_check(Matroid.signed(2, [[1]]), d)  # rank 1 != 2
    not_envelope = enveloping_check(Matroid.signed(2, [[1, 2]]), d)
    assert not not_envelope.passed
    assert any(v.axiom == "feasible-not-basis" for v in not_envelope.violations)


def test_enveloping_search_examples(free1, coloop1):
    found = enveloping_search(free1)
    assert found.status == "found"
    assert found.matroid == Matroid.pair_partition(1)

    point = enveloping_search(coloop1)
    assert point.status == "found"
    assert point.matroid == Matroid.signed(1, [[1]])

    d = dm_from_matroid(Matroid.uniform(1, 2), "bases")
    res = enveloping_search(d)
    assert res.status == "found"
    assert enveloping_check(res.matroid, d).passed

    assert enveloping_search(d, limit=0).status == "inconclusive"
    with pytest.raises(GuardLimitError):
        enveloping_search(DeltaMatroid(4, range(16)))


def test_enveloping_search_finds_tripod_envelope(tripod):
    res = enveloping_search(tripod)
    assert res.status == "found"
    assert enveloping_check(res.matroid, tripod).passed


def test_envelopes_exist_and_imply_lorentzian_sampled():
    # wherever the search concludes with an envelope, the generating polynomial
    # must verify as Lorentzian and the binomial-normalized inequality must hold
    from deltamat.acceptance import valid_delta_matroids
    from deltamat.invariants import independence_fvector
    from deltamat.lorentzian import conjecture_check, indep_gen_poly, is_lorentzian, two_var_ulc_check

    instances = list(valid_delta_matroids(1)) + list(valid_delta_matroids(2))
    rng = random.Random(909)
    instances += rng.sample(list(valid_delta_matroids(3)), 24)
    for d in instances:
        res = enveloping_search(d, limit=20000)
        assert res.status in ("found", "none", "inconclusive")
        if res.status == "found":
            assert enveloping_check(res.matroid, d).passed
            assert is_lorentzian(indep_gen_poly(d)).passed, d
            assert conjecture_check(independence_fvector(d).counts, d.n).all_hold(inequality=2)
            rep = two_var_ulc_check(d)
            assert rep.log_concave and rep.matches_binomial_inequality


def _check_oracle(m, d):
    """enveloping_check on set objects: one polytope test per basis, frozenset independents."""
    n = d.n
    table = d.rank_table()
    out = []
    for b in d.feasible_sets():
        if frozenset(b.elements()) not in m.bases:
            out.append(Violation("feasible-not-basis", (b,), 0, 1))
    for basis in m.bases:
        indicator = [int(e in basis) for e in range(1, n + 1)] + [int(-e in basis) for e in range(1, n + 1)]
        if not polytope_membership(table, env_project(indicator)):
            out.append(Violation("basis-folds-outside", (basis,), 0, 1))
    if not out:
        dm_indep = set(d.independents())
        m_indep = {s for s in enumerate_admissible(n) if m.is_independent(s.elements())}
        for s in sorted(dm_indep ^ m_indep, key=AdmissibleSet.sort_key):
            out.append(Violation("independents-differ", (s,), int(s in m_indep), int(s in dm_indep)))
    return AxiomReport.from_violations(out)


def _search_oracle(d, limit):
    """enveloping_search on set objects: a Matroid and a full check for every family."""
    n = d.n
    required = [frozenset(b.elements()) for b in d.feasible_sets()]
    table = d.rank_table()
    pool = []
    for combo in combinations(signed_ground(n), n):
        indicator = [int(e in combo) for e in range(1, n + 1)] + [int(-e in combo) for e in range(1, n + 1)]
        if frozenset(combo) not in required and polytope_membership(table, env_project(indicator)):
            pool.append(frozenset(combo))
    allowed = set(required + pool)
    for b1 in required:
        for b2 in required:
            for x in b1 - b2:
                if not any(((b1 - {x}) | {y}) in allowed for y in b2 - b1):
                    return EnvelopeSearch("none", None, 0)
    examined = 0
    for k in range(len(pool) + 1):
        for extras in combinations(pool, k):
            if examined >= limit:
                return EnvelopeSearch("inconclusive", None, examined)
            examined += 1
            candidate = Matroid.signed(n, required + list(extras))
            if not _exchange_oracle(candidate) and _check_oracle(candidate, d).passed:
                return EnvelopeSearch("found", candidate, examined)
    return EnvelopeSearch("none", None, examined)


def test_enveloping_check_matches_set_oracle():
    # every valid d at n <= 3 against seeded candidates: the feasible sets (one
    # left out a quarter of the time) plus up to three other full-size subsets
    rng = random.Random(2718)
    verdicts = []
    for n in range(4):
        subsets = [frozenset(c) for c in combinations(signed_ground(n), n)]
        for d in valid_delta_matroids(n):
            required = [frozenset(b.elements()) for b in d.feasible_sets()]
            others = [s for s in subsets if s not in required]
            for _ in range(6):
                kept = required if rng.random() < 0.75 or len(required) == 1 else required[1:]
                m = Matroid.signed(n, kept + rng.sample(others, rng.randint(0, min(3, len(others)))))
                report = enveloping_check(m, d)
                assert report == _check_oracle(m, d), (d, m)
                verdicts.append(report.passed)
    assert len(verdicts) >= 1000
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300
    # at n <= 3 a basis folding inside P(D) adds no independent set, so
    # independents-differ needs n = 4: an extra {i, -i, j, -j} folds to 0
    axioms = []
    for _ in range(12):
        rows = [0] * 4
        for i, j in combinations_with_replacement(range(4), 2):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        d = dm_from_gf2(Gf2SymMatrix(4, tuple(rows)))
        for i, j in combinations(range(1, 5), 2):
            m = Matroid.signed(4, [b.elements() for b in d.feasible_sets()] + [(i, -i, j, -j)])
            report = enveloping_check(m, d)
            assert report == _check_oracle(m, d), (d, m)
            axioms += [v.axiom for v in report.violations[:1]]
    assert axioms.count("independents-differ") >= 5 and len(axioms) < 12 * 6  # and some pass
    # two extra bases add {1, -3} and {-1, 3}: listed in canonical order, which is not code order
    d = DeltaMatroid.from_signed_lists(4, [[1, 2, 3, 4], [1, -2, 3, -4], [-1, 2, -3, 4], [-1, -2, -3, -4]])
    m = Matroid.signed(4, [b.elements() for b in d.feasible_sets()] + [(1, -1, 2, 4), (1, -1, 3, -3)])
    report = enveloping_check(m, d)
    assert report == _check_oracle(m, d)
    assert [v.render() for v in report.violations] == [
        "independents-differ at {1 -3}: 1 < 0",
        "independents-differ at {-1 3}: 1 < 0",
    ]


def test_enveloping_search_matches_set_oracle():
    for fam in range(1, 16):  # every nonempty family at n = 2, valid or not
        d = DeltaMatroid(2, [m for m in range(4) if fam >> m & 1])
        assert enveloping_search(d) == _search_oracle(d, 200_000), d
    # every nonempty family at n <= 3 at limit 1: the pruned ones return
    # ("none", None, 0), the others stop at their first family
    for n in range(4):
        for k in range(1, (1 << n) + 1):
            for fam in combinations(range(1 << n), k):
                d = DeltaMatroid(n, fam)
                assert enveloping_search(d, limit=1) == _search_oracle(d, 1), d


def test_gf2_examples(free1, loop1):
    assert dm_from_gf2(Gf2SymMatrix.from_lists([[1]])) == free1
    assert dm_from_gf2(Gf2SymMatrix.from_lists([[0]])) == loop1
    swap = dm_from_gf2(Gf2SymMatrix.from_lists([[0, 1], [1, 0]]))
    assert [b.render() for b in swap.feasible_sets()] == ["1 2", "-1 -2"]
    with pytest.raises(ValueError):
        Gf2SymMatrix.from_lists([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        Gf2SymMatrix(2, (1,))


def test_gf2_outputs_valid_sampled_n4():
    rng = random.Random(17)
    for _ in range(40):
        rows = [0] * 4
        for i in range(4):
            for j in range(i, 4):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        d = dm_from_gf2(Gf2SymMatrix(4, tuple(rows)))
        assert d.validate("exchange").ok
        if all(not rows[i] >> i & 1 for i in range(4)):
            assert d.is_even()  # zero diagonal forces even principal ranks


def test_rank_generating_guard(monkeypatch):
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "3")
    with pytest.raises(GuardLimitError):
        rank_generating(Matroid.uniform(2, 4))


def _principal_nonsingular_by_elimination(a, indices):
    """Oracle: pack the principal submatrix on the 1-based indices and run Gauss-Jordan
    elimination over GF(2) with a row swap per column."""
    xs = sorted(indices)
    k = len(xs)
    sub = []
    for i in xs:
        packed = 0
        for col, j in enumerate(xs):
            if a.rows[i - 1] >> (j - 1) & 1:
                packed |= 1 << col
        sub.append(packed)
    for col in range(k):
        pivot = next((r for r in range(col, k) if sub[r] >> col & 1), None)
        if pivot is None:
            return False
        sub[col], sub[pivot] = sub[pivot], sub[col]
        for r in range(k):
            if r != col and sub[r] >> col & 1:
                sub[r] ^= sub[col]
    return True  # the empty matrix counts as nonsingular


def test_xor_basis_matches_packed_elimination():
    # every symmetric matrix at n <= 4, then 300 seeded ones at n = 5..9, on every principal minor
    rng = random.Random(404)
    matrices = [Gf2SymMatrix(n, symmetric_rows(n, bits)) for n in range(5) for bits in range(1 << n * (n + 1) // 2)]
    for _ in range(300):
        n = rng.randint(5, 9)
        matrices.append(Gf2SymMatrix(n, symmetric_rows(n, rng.getrandbits(n * (n + 1) // 2))))
    singular = 0
    for a in matrices:
        nonsingular = []
        for x in range(1 << a.n):
            indices = [i + 1 for i in range(a.n) if x >> i & 1]
            expected = _principal_nonsingular_by_elimination(a, indices)
            assert _nonsingular(a.rows, x) == expected, (a, indices)
            if expected:
                nonsingular.append(x)
            else:
                singular += 1
        assert dm_from_gf2(a) == DeltaMatroid(a.n, nonsingular)
    assert len(matrices) == 1399 and singular > 10_000


def _oracle_matroids():
    """Every matroid by explicit basis family on at most 4 elements, the uniform
    matroids on at most 6, and seeded valid plain matroids on 5 and 6 elements."""
    for size in range(5):
        for r in range(size + 1):
            r_sets = list(combinations(range(1, size + 1), r))
            for k in range(1, len(r_sets) + 1):
                for fam in combinations(r_sets, k):
                    candidate = Matroid.plain(size, fam)
                    if validate_matroid(candidate).passed:
                        yield candidate
    for size in range(7):
        for r in range(size + 1):
            yield Matroid.uniform(r, size)
    rng = random.Random(1505)
    count = 0
    while count < 90:
        m = _random_matroid(rng, rng.choice((5, 6)))
        if validate_matroid(m).passed:
            count += 1
            yield m


_POWERS = {}


def _power(p, k):
    """p ** k for the four bases below, computed once per exponent."""
    key = (str(p), k)
    if key not in _POWERS:
        _POWERS[key] = p**k
    return _POWERS[key]


def _rank_generating_by_subsets(m):
    """Oracle: u^(r - r(A)) v^(|A| - r(A)) summed over the subsets A, one MultiPoly sum each."""
    r = m.rank
    total = MultiPoly.zero(("u", "v"))
    for k in range(len(m.ground) + 1):
        for c in combinations(m.ground, k):
            rk = m.rank_of(c)
            total = total + _power(U, r - rk) * _power(V, k - rk)
    return total


def _example15_upoly_by_subsets(m, mode):
    """Oracle: the two closed formulas summed subset by subset, as printed at the source."""
    n, r = len(m.ground), m.rank
    total = MultiPoly.zero(("u", "v"))
    for k in range(n + 1):
        for s in combinations(m.ground, k):
            rk_s = m.rank_of(s)
            if mode == "independents":
                i, j = r - rk_s, k - rk_s
                total = total + _power(U + 3, i) * _power(2 * U + V + 2, j) * _power(U + 1, n - i - k)
                continue
            for k2 in range(k + 1):
                for t in combinations(s, k2):
                    total = total + _power(U, k - k2) * _power(V, r - rk_s + k2 - m.rank_of(t))
    return total


def test_ranks_by_mask_match_rank_of():
    matroids = list(_oracle_matroids()) + [Matroid.pair_partition(n) for n in range(4)]
    for m in matroids:
        subsets = [[e for k, e in enumerate(m.ground) if a >> k & 1] for a in range(1 << len(m.ground))]
        assert _ranks(m) == [m.rank_of(s) for s in subsets], m


def test_matroid_polynomials_match_subset_sums():
    checked = 0
    for m in _oracle_matroids():
        assert rank_generating(m) == _rank_generating_by_subsets(m), m
        for mode in ("bases", "independents"):
            assert example15_upoly(m, mode) == _example15_upoly_by_subsets(m, mode), (m, mode)
        checked += 1
    assert checked >= 200
    for n in range(4):
        m = Matroid.pair_partition(n)
        assert rank_generating(m) == _rank_generating_by_subsets(m)
