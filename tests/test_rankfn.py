import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product

import pytest

from deltamat import cli, deltamatroid
from deltamat.acceptance import valid_delta_matroids
from deltamat.deltamatroid import DeltaMatroid, RankTable
from deltamat.formats import parse_document, serialize_value
from deltamat.ground import _tail_labels, _tails, combine, enumerate_admissible, set_of_code, walk_codes
from deltamat.invariants import (
    activity_expansion,
    activity_zero_complex,
    independence_fvector,
    interlace,
    upoly_direct,
    upoly_recursive,
)
from deltamat.lorentzian import efls_gen_poly, indep_gen_poly, is_lorentzian, two_var_ulc_check
from deltamat.matroid import Gf2SymMatrix, dm_from_gf2, enveloping_check, enveloping_search
from deltamat.randgen import random_valid
from deltamat.rankfn import (
    _PAIR_AXIOMS,
    _PAIR_STEP,
    H_SYSTEMS,
    LANE_VALUES,
    AxiomReport,
    Violation,
    _by_code,
    _lane_summary,
    _local_pairs,
    _local_summary,
    _pair_axiom_holds,
    _pair_sides,
    _pair_violations,
    _step_pairs,
    _unit_step,
    _witness,
    check_g_axioms,
    check_h_axioms,
    delta_from_rank,
    diamond_codes,
    enumerate_h_tables,
    g_axioms,
    greedy_check,
    h_axioms,
    pair_codes,
    polytope_membership,
    step_codes,
    table_by_code,
)

from conftest import canonical_codes, oracle_families, sset


def test_position_kernels_match_set_operations():
    # the code kernels, decoded, walk the sets in canonical order
    for n in range(5):
        sets = enumerate_admissible(n)
        dec = [set_of_code(n, c) for c in range(3**n)]
        pairs = [(dec[i], dec[j], dec[m], dec[u], o) for i, j, m, u, o in pair_codes(n)]
        assert pairs == [
            (s, t, *combine(s, t), (s.pos & t.neg).bit_count() + (s.neg & t.pos).bit_count())
            for s in sets
            for t in sets
        ]
        steps = [(dec[i], k, dec[plus], dec[minus]) for i, k, plus, minus in step_codes(n)]
        assert steps == [
            (s, k, s.with_element(k), s.with_element(-k))
            for s in sets
            for k in range(1, n + 1)
            if k not in map(abs, s.elements())
        ]
        diamonds = [(dec[i], dec[j], dec[m], dec[u], o) for i, j, m, u, o in diamond_codes(n)]
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


def _locally_ok(table, system):
    """Oracle: the pair axiom on each local pair, one tuple of codes per pair."""
    _, c, w, disjoint = _PAIR_AXIOMS[system]
    v = _by_code(table)
    sides = (_pair_sides(v, c, w, *pair) for pair in _local_pairs(table.n, disjoint))
    return all(lhs >= rhs for lhs, rhs in sides)


def test_local_axioms_match_pair_scan():
    # the local pairs decide each pair axiom exactly as the scan over all
    # 9^n ordered pairs does, on rank tables, near misses and noise, and the
    # marginals decide the local pairs
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
        v = _by_code(table)
        local_summary = _local_summary(table.n, v)
        for system in ("g",) + H_SYSTEMS:
            local = _locally_ok(table, system)
            assert local == (not _pair_violations(table.n, v, system)), (table, system)
            assert _pair_axiom_holds(local_summary, system) == local, (table, system)
            passed += local
            failed += not local
    assert passed > 1000 and failed > 1000


def _lane_tables(rng, n):
    """Seeded gf2 g and h tables at ground size n, shifted onto the lane bounds and past them, with entries
    spoiled by small steps, by values at and past the bounds, and by +-1000."""
    d = random_valid(rng, n, "gf2")
    for table in (d.rank_table(), d.h_table()):
        values = table.values
        tops, bottoms = (LANE_VALUES[-1], LANE_VALUES[-1] + 1), (LANE_VALUES[0], LANE_VALUES[0] - 1)
        shifts = (0, 0, 0, *(top - max(values) for top in tops), *(bottom - min(values) for bottom in bottoms))
        for shift in shifts:
            spoiled = [v + shift for v in values]
            for _ in range(rng.choice((0, 0, 1, 2))):
                k = rng.randrange(len(spoiled))
                spoiled[k] = rng.choice((spoiled[k] - 1, spoiled[k] + 1, -32, 31, -33, 32, -1000, 1000))
            yield RankTable(n, tuple(spoiled))


def test_lane_summary_matches_list_summary():
    # on every table a lane holds, the lane summary is the list one, and so are the reports; past the
    # lane bounds the table stays a list.  Reports are compared at n <= 4, as the list route scans a
    # failing table over all 9^n pairs.
    rng = random.Random(1729)
    kinds = {"lane passes": 0, "lane fails": 0, "list": 0}
    for n in [0, 1, 2, 3, 4] * 8 + [5, 6, 7]:
        for table in _lane_tables(rng, n):
            by_code, v = table_by_code(table), _by_code(table)
            if not isinstance(by_code, bytes):
                assert by_code == v and not set(table.values) <= set(LANE_VALUES)
                kinds["list"] += 1
                continue
            assert list(by_code) == [x - LANE_VALUES.start for x in v]
            assert _lane_summary(n, by_code) == _local_summary(n, v), table
            if n <= 4:
                reports = [g_axioms(n, by_code)] + [h_axioms(n, by_code, system) for system in H_SYSTEMS]
                lists = [g_axioms(n, v)] + [h_axioms(n, v, system) for system in H_SYSTEMS]
                assert list(map(_rendered, reports)) == list(map(_rendered, lists)), table
                kinds["lane passes" if any(r.passed for r in reports) else "lane fails"] += 1
    assert min(kinds.values()) >= 50, kinds


def _reference_g_report(g):
    """Oracle: check_g_axioms as per-set loops in canonical order, with the even flag read off the steps."""
    n, v = g.n, _by_code(g)
    out = []
    if v[0] != 0:
        out.append(Violation("normalization", _witness(n, 0), v[0], 0))
    for c in canonical_codes(n):
        size, value = set_of_code(n, c).size, v[c]
        if size == 1 and abs(value) > 1:
            out.append(Violation("boundedness", _witness(n, c), 1, abs(value)))
        if (value - size) % 2:
            out.append(Violation("parity", _witness(n, c), value, size))
    if not _locally_ok(g, "g"):
        out.extend(_pair_violations(n, v, "g"))
    even = all(
        2 * v[x] == v[plus] + v[minus] for x, _, plus, minus in step_codes(n) if set_of_code(n, x).size == n - 1
    )
    return AxiomReport.from_violations(out, even=even)


def _reference_h_report(h, system):
    """Oracle: check_h_axioms as per-set loops in canonical order."""
    n, v = h.n, _by_code(h)
    out = []
    if v[0] != 0:
        out.append(Violation(f"{system}-normalization", _witness(n, 0), v[0], 0))
    if system == "larson":
        for c in canonical_codes(n):
            if set_of_code(n, c).size == 1 and v[c] not in (0, 1):
                out.append(Violation("larson-boundedness", _witness(n, c), v[c], 0))
    else:
        for x, _, plus, minus in step_codes(n):
            for up in (plus, minus):
                if v[up] not in _unit_step(v, x):
                    out.append(Violation(f"{system}-unit-step", _witness(n, x, up), v[up], v[x]))
    if not _locally_ok(h, system):
        out.extend(_pair_violations(n, v, system))
    if system == "bouchet":
        for pair in _step_pairs(n):
            lhs, rhs = _pair_sides(v, *_PAIR_STEP, *pair)
            if lhs < rhs:
                out.append(Violation("bouchet-pair-step", _witness(n, pair[2]), lhs, rhs))
    return AxiomReport.from_violations(out)


def _rendered(report):
    return report.passed, [v.render() for v in report.violations], report.even


def test_axiom_reports_match_per_position_reference():
    # every table at n <= 1 with small values, the rank tables of all
    # delta-matroids at n = 2, 3 and of seeded gf2 ones at n = 4, 5, and
    # near misses of each; a large table goes only to its own checkers,
    # since a failing one is scanned over all 9^n pairs
    rng = random.Random(5772)
    small = [RankTable(0, (x,)) for x in range(-2, 3)]
    small += [RankTable(1, values) for values in product(range(-2, 3), repeat=3)]
    for n in (2, 3):
        for d in valid_delta_matroids(n):
            for table in (d.rank_table(), d.h_table()):
                small += [table, _perturbed(rng, table)]
    checks = [(table, system) for table in small for system in ("g",) + H_SYSTEMS]
    for n, count, spoiled in ((4, 100, 4), (5, 30, 1)):
        for k in range(count):
            d = _gf2_family(rng, n)
            g, h = d.rank_table(), d.h_table()
            g_tables, h_tables = [g], [h]
            if k < spoiled:
                g_tables.append(_perturbed(rng, g))
                h_tables.append(_perturbed(rng, h))
            checks += [(table, "g") for table in g_tables]
            checks += [(table, system) for table in h_tables for system in H_SYSTEMS]
    passed = failed = 0
    for table, system in checks:
        if system == "g":
            got, want = check_g_axioms(table), _reference_g_report(table)
        else:
            got, want = check_h_axioms(table, system), _reference_h_report(table, system)
        assert _rendered(got) == _rendered(want), (table, system)
        passed += got.passed
        failed += not got.passed
    assert passed >= 1000 and failed >= 1000


def _listing_lines():
    """passed, even and the rendered violations of spoiled g and h tables, then the
    enumerated h tables at n <= 3, as text lines."""
    rng = random.Random(1901)
    picks = {3: 0.1, 4: 0.5, 5: 0.5}
    for d in oracle_families():
        if d.n in picks and rng.random() < picks[d.n]:
            g, h = _perturbed(rng, d.rank_table()), _perturbed(rng, d.h_table())
            for report in [check_g_axioms(g)] + [check_h_axioms(h, system) for system in H_SYSTEMS]:
                yield f"{report.passed} {report.even}"
                yield from (v.render() for v in report.violations)
    for n in range(4):
        for system in ("bouchet", "allys"):
            yield from (repr(t.values) for t in enumerate_h_tables(n, system))


def test_violation_listings_are_pinned():
    # the listings in full, order included; unlike the oracles above, the
    # digest does not move with the checkers
    digest = hashlib.sha256("\n".join(_listing_lines()).encode()).hexdigest()
    assert digest == "a8f6369b5c3d754a003c35c47bf196db2ab2a8874acd54064af3e89e817cbce4"


def _gf2_family(rng, n):
    """The delta-matroid of a seeded symmetric GF(2) matrix: always valid."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return dm_from_gf2(Gf2SymMatrix(n, tuple(rows)))


def _seeded_families(rng, n, count):
    # gf2 outputs are valid, dropping or adding a feasible set mostly spoils
    # them, and uniform families are mostly invalid
    out = []
    for _ in range(count):
        d = _gf2_family(rng, n)
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


def test_table_paths_build_no_set_objects(tmp_path, built_sets):
    # set objects are for I/O and violation witnesses only; no table path builds them
    d = dm_from_gf2(Gf2SymMatrix(5, (0b00110, 0b01001, 0b10101, 0b10010, 0b11100)))
    g_file, h_file = tmp_path / "g.rt", tmp_path / "h.rt"
    g, h = d.rank_table(), d.h_table()
    upoly_direct(d)
    interlace(d)
    independence_fvector(d)
    two_var_ulc_check(d)
    assert d.lattice_point_test()
    assert check_g_axioms(g).passed
    assert all(check_h_axioms(h, system).passed for system in H_SYSTEMS)
    assert delta_from_rank(g) == d
    assert all(is_lorentzian(gen(d)).passed for gen in (indep_gen_poly, efls_gen_poly))
    g_file.write_text(serialize_value(g))
    h_file.write_text(serialize_value(h))
    for argv in [["axioms-g", str(g_file)]] + [["axioms-h", str(h_file), "--system", s] for s in H_SYSTEMS]:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().startswith("PASS\n"), argv
    assert built_sets == []


def test_mask_paths_build_only_witness_sets(built_sets, tripod):
    # parsing a delta-matroid, the greedy check and the envelope layer run on
    # masks and codes; a failing axiom check decodes only its witnesses
    assert parse_document("n 3\nfeasible 1 -2 -3\nfeasible -1 2 -3\nfeasible -1 -2 3\n").value == tripod
    assert greedy_check(tripod).passed
    search = enveloping_search(tripod)
    assert search.status == "found"
    assert enveloping_check(search.matroid, tripod).passed
    assert built_sets == []
    d = dm_from_gf2(Gf2SymMatrix(5, (0b00110, 0b01001, 0b10101, 0b10010, 0b11100)))
    g = list(d.rank_table().values)
    g[40] += 1
    report = check_g_axioms(RankTable(5, tuple(g)))
    assert not report.passed
    # the pair scan decodes each set once, however many failing pairs it is in
    assert built_sets == list(dict.fromkeys(s for v in report.violations for s in v.sets))


def test_enumerator_paths_read_no_rank_table(monkeypatch, built_sets):
    # the recursion runs on mask tuples, interlace on the 2^n cube, and the
    # direct enumerator, the f-vector, the activity counts, the activity-zero
    # complex and the Lorentzian counts on distance planes: none walks the
    # canonical order (so none builds its tails), a set object or a g table
    d = dm_from_gf2(Gf2SymMatrix(5, (0b00110, 0b01001, 0b10101, 0b10010, 0b11100)))

    def no_table(*args):
        raise AssertionError("rank table built")

    monkeypatch.setattr(deltamatroid, "h_lanes", no_table)
    monkeypatch.setattr(deltamatroid, "_distance_lanes", no_table)  # the d lanes of h_lanes and g_lanes
    _tails.cache_clear()
    interlace(d)
    upoly_recursive(d)
    upoly_direct(d)
    independence_fvector(d)
    two_var_ulc_check(d)
    activity_expansion(d)
    activity_zero_complex(d)
    indep_gen_poly(d)
    efls_gen_poly(d)
    assert built_sets == []
    assert _tails.cache_info().misses == 0


def test_code_paths_build_no_tail_labels():
    # the tables, the walk, the set enumeration and the checkers read codes: only the readers that print
    # labels or check them against a text build the tail labels
    d = dm_from_gf2(Gf2SymMatrix(5, (0b00110, 0b01001, 0b10101, 0b10010, 0b11100)))
    _tail_labels.cache_clear()
    g, h = d.rank_table(), d.h_table()
    assert len(list(walk_codes(5))) == len(enumerate_admissible(5)) == 3**5
    assert check_g_axioms(g).passed and all(check_h_axioms(h, system).passed for system in H_SYSTEMS)
    assert delta_from_rank(g) == d
    assert _tail_labels.cache_info().currsize == 0
    assert parse_document(serialize_value(g)).value == g
    assert _tail_labels.cache_info().currsize == 1


def test_table_paths_run_no_max_plus_transform(monkeypatch):
    # rank_table, h_table, g_lanes and the independent sets read
    # distance planes as byte lanes; the max-plus kernel (the tests' transform
    # oracle and the envelope and lattice tests) is never reached
    d = dm_from_gf2(Gf2SymMatrix(5, (0b00110, 0b01001, 0b10101, 0b10010, 0b11100)))
    sets = enumerate_admissible(5)
    g = tuple(d._g(s.pos, s.neg) for s in sets)
    independent = tuple(s for s in sets if d.is_independent(s))

    def no_transform(*args):
        raise AssertionError("max-plus transform run")

    monkeypatch.setattr(deltamatroid, "_signs", no_transform)
    monkeypatch.setattr(deltamatroid, "max_plus_dot", no_transform)
    assert d.rank_table().values == g
    assert d.h_table().values == tuple((gv + s.size) // 2 for gv, s in zip(g, sets))
    by_code = deltamatroid.g_lanes(5, d.feasible)
    assert tuple(map(by_code.__getitem__, canonical_codes(5))) == g
    assert d.independents() == independent


def test_g_axioms_examples(free1):
    good = check_g_axioms(free1.rank_table())
    assert good.passed and good.violations == ()

    bounded = check_g_axioms(RankTable(1, (0, 2, 1)))
    assert not bounded.passed
    assert any(v.axiom == "boundedness" for v in bounded.violations)
    # the last singleton breaks boundedness and nothing else
    assert [v.render() for v in check_g_axioms(RankTable(1, (0, 1, 3))).violations] == ["boundedness at {-1}: 1 < 3"]

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
