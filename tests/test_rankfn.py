from fractions import Fraction

import pytest

from deltamat.deltamatroid import RankTable
from deltamat.ground import combine, enumerate_admissible
from deltamat.rankfn import (
    check_g_axioms,
    check_h_axioms,
    delta_from_rank,
    enumerate_h_tables,
    greedy_check,
    pair_positions,
    polytope_membership,
    step_positions,
)

from conftest import sset


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
