import random
from fractions import Fraction
from itertools import combinations

import pytest

from deltamat.deltamatroid import DeltaMatroid, RankTable
from deltamat.ground import combine, enumerate_admissible
from deltamat.matroid import Gf2SymMatrix, dm_from_gf2
from deltamat.rankfn import (
    H_SYSTEMS,
    _locally_ok,
    _pair_violations,
    check_g_axioms,
    check_h_axioms,
    delta_from_rank,
    diamond_positions,
    enumerate_h_tables,
    greedy_check,
    pair_positions,
    polytope_membership,
    step_positions,
)

from conftest import oracle_families, sset


def test_position_kernels_match_set_operations():
    for n in range(5):
        sets = enumerate_admissible(n)
        pairs = [(sets[i], sets[j], sets[m], sets[u], o) for i, j, m, u, o in pair_positions(n)]
        assert pairs == [
            (s, t, *combine(s, t), (s.pos & t.neg).bit_count() + (s.neg & t.pos).bit_count())
            for s in sets
            for t in sets
        ]
        steps = [(sets[i], k, sets[plus], sets[minus]) for i, k, plus, minus in step_positions(n)]
        assert steps == [
            (s, k, s.with_element(k), s.with_element(-k))
            for s in sets
            for k in range(1, n + 1)
            if k not in map(abs, s.elements())
        ]
        diamonds = [(sets[i], sets[j], sets[m], sets[u], o) for i, j, m, u, o in diamond_positions(n)]
        expected = []
        for s in sets:
            free = [k for k in range(1, n + 1) if k not in map(abs, s.elements())]
            for a, b in combinations(free, 2):
                for t in (s.with_element(a), s.with_element(-a)):
                    for u in (s.with_element(b), s.with_element(-b)):
                        assert combine(t, u) == (s, t.union(u))
                        expected.append((t, u, s, t.union(u), 0))
        assert diamonds == expected


def _random_tables(rng, n, count):
    return [RankTable(n, tuple(rng.randint(-n, n) for _ in range(3**n))) for _ in range(count)]


def _perturbed(rng, table):
    values = list(table.values)
    for _ in range(rng.randint(1, 2)):
        values[rng.randrange(len(values))] += rng.choice((-2, -1, 1, 2))
    return RankTable(table.n, tuple(values))


def test_local_axioms_match_pair_scan():
    # the local pairs decide each pair axiom exactly as the scan over all
    # 9^n ordered pairs does, on rank tables, near misses and noise
    rng = random.Random(2718)
    tables = []
    for d in oracle_families():
        if d.n > 4:
            break
        for table in (d.rank_table(), d.h_table()):
            tables += [table, _perturbed(rng, table)]
    for n in range(5):
        tables += _random_tables(rng, n, 10)
    passed = failed = 0
    for table in tables:
        for system in ("g",) + H_SYSTEMS:
            local = _locally_ok(table, system)
            assert local == (not _pair_violations(table, system)), (table, system)
            passed += local
            failed += not local
    assert passed > 1000 and failed > 1000


def _seeded_families(rng, n, count):
    # gf2 outputs are valid, dropping or adding a feasible set mostly spoils
    # them, and uniform families are mostly invalid
    out = []
    for _ in range(count):
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        d = dm_from_gf2(Gf2SymMatrix(n, tuple(rows)))
        out.append(d)
        spoiled = set(d.feasible) ^ {rng.randrange(1 << n)}
        out.append(DeltaMatroid(n, spoiled or d.feasible))
        out.append(DeltaMatroid(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))))
    return out


def test_rank_axioms_decide_validity():
    # the paper's theorem: F is a delta-matroid exactly when g_F passes the g axioms
    families = [d for d in oracle_families() if d.n <= 3]
    rng = random.Random(1618)
    for n, count in ((4, 6), (5, 3), (6, 1)):
        families += _seeded_families(rng, n, count)
    verdicts = set()
    for d in families:
        valid = d.validate("exchange").ok
        assert check_g_axioms(d.rank_table()).passed == valid, d
        verdicts.add((d.n, valid))
    # every family at n <= 2 is a delta-matroid
    assert {(n, v) for n in range(3, 7) for v in (True, False)} <= verdicts


def test_g_axioms_examples(free1):
    good = check_g_axioms(free1.rank_table())
    assert good.passed and good.violations == ()

    bounded = check_g_axioms(RankTable(1, (0, 2, 1)))
    assert not bounded.passed
    assert any(v.axiom == "boundedness" for v in bounded.violations)

    parity = check_g_axioms(RankTable(1, (0, 0, 1)))
    assert any(v.axiom == "parity" for v in parity.violations)

    normalization = check_g_axioms(RankTable(1, (1, 1, -1)))
    assert any(v.axiom == "normalization" for v in normalization.violations)

    with pytest.raises(ValueError):
        RankTable(1, (0, 1))


def test_even_criterion_flag(tripod, free1):
    # worked instance: g jumps by (1, 3) around {1, -2}, averaging to g = 2
    assert tripod.g(sset(3, 1, -2)) == 2
    assert tripod.g(sset(3, 1, -2, 3)) == 1
    assert tripod.g(sset(3, 1, -2, -3)) == 3
    assert check_g_axioms(tripod.rank_table()).even is True
    assert check_g_axioms(free1.rank_table()).even is False


def test_delta_from_rank_round_trip(tripod, coloop1, free1):
    for d in (tripod, coloop1, free1):
        assert delta_from_rank(d.rank_table()) == d
    with pytest.raises(ValueError):
        delta_from_rank(RankTable(1, (0, 2, 1)))


def test_h_axioms_examples(coloop1):
    h = coloop1.h_table()
    assert h.values == (0, 1, 0)
    for system in ("larson", "bouchet", "allys"):
        assert check_h_axioms(h, system).passed, system

    broken = RankTable(1, (0, 2, 0))
    for system in ("larson", "bouchet", "allys"):
        assert not check_h_axioms(broken, system).passed, system

    with pytest.raises(ValueError):
        check_h_axioms(h, "other")


def test_h_axiom_witnesses_identify_the_system():
    # h drops below h(empty) when adding an element: a unit-step violation
    drop = RankTable(1, (0, -1, 1))
    rep = check_h_axioms(drop, "bouchet")
    assert any(v.axiom == "bouchet-unit-step" for v in rep.violations)
    rep = check_h_axioms(drop, "allys")
    assert any(v.axiom == "allys-unit-step" for v in rep.violations)
    # flat on both signs of an index: violates the pair-step condition
    flat = RankTable(1, (0, 0, 0))
    rep = check_h_axioms(flat, "bouchet")
    assert any(v.axiom == "bouchet-pair-step" for v in rep.violations)


def test_polytope_membership(tripod, coloop1, free1):
    g_tripod = tripod.rank_table()
    assert polytope_membership(g_tripod, (1, -1, -1))
    assert polytope_membership(g_tripod, (Fraction(-1, 3),) * 3)
    g_co = coloop1.rank_table()
    assert not polytope_membership(g_co, (-1,))
    assert polytope_membership(free1.h_table(), (0,))
    with pytest.raises(ValueError):
        polytope_membership(g_co, (1, 1))


def test_membership_recovers_rank_at_vertices(tripod):
    # f(S) = max over feasible vertices of <e_S, x>
    table = dict(tripod.rank_table().items())
    vertices = [b.vector() for b in tripod.feasible_sets()]
    for s, g in table.items():
        if s.size == 0:
            continue
        best = max(
            sum(c * x for c, x in zip(s.vector(), v)) for v in vertices
        )
        assert best == g


def test_h_converse_exhaustive_up_to_n3():
    # every table passing the step-based systems is realized by a delta-matroid;
    # pruned enumeration makes the n = 3 space (naively ~10^12 tables) instant
    from deltamat.acceptance import valid_delta_matroids

    for n in (1, 2, 3):
        realized = {d.h_table().values for d in valid_delta_matroids(n)}
        for system in ("bouchet", "allys"):
            found = {t.values for t in enumerate_h_tables(n, system)}
            assert found == realized, (n, system)
    with pytest.raises(ValueError):
        enumerate_h_tables(2, "larson")


def test_enumerated_tables_all_pass_their_system():
    for system in ("bouchet", "allys"):
        for table in enumerate_h_tables(2, system):
            assert check_h_axioms(table, system).passed


def test_greedy_check(tripod, coloop1):
    assert greedy_check(tripod).passed
    assert greedy_check(coloop1).passed
    # worked instance: S = {-2} inside T = {-2, -3}
    feas = tripod.feasible_sets()
    s, t = sset(3, -2), sset(3, -2, -3)
    s_overlap = [len(set(s.elements()) & set(b.elements())) for b in feas]
    t_overlap = [len(set(t.elements()) & set(b.elements())) for b in feas]
    best_s = max(s_overlap)
    assert max(o for o, so in zip(t_overlap, s_overlap) if so == best_s) == max(t_overlap) == 2
