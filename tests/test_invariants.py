import random
from collections import Counter
from itertools import combinations

import pytest

from deltamat.deltamatroid import DeltaMatroid, all_full_size_masks
from deltamat.ground import AdmissibleSet, GuardLimitError, enumerate_admissible
from deltamat.invariants import (
    FVector,
    activity,
    activity_expansion,
    activity_zero_complex,
    independence_fvector,
    independent_activities,
    interlace,
    pure_o_inequalities,
    upoly,
    upoly_direct,
    upoly_recursive,
)
from deltamat.lorentzian import efls_gen_poly, indep_gen_poly
from deltamat.matroid import Gf2SymMatrix, dm_from_gf2
from deltamat.poly import MultiPoly, poly_u_v
from deltamat.randgen import random_delta_matroids, random_family, random_valid

from conftest import oracle_families, sset

U, V = poly_u_v()


def all_valid(n):
    out = []
    for k in range(1, (1 << n) + 1):
        for fam in combinations(all_full_size_masks(n), k):
            d = DeltaMatroid(n, fam)
            if d.validate("exchange").ok:
                out.append(d)
    return out


def test_upoly_frozen_values(tripod, coloop1, free1):
    assert upoly(coloop1) == U + V + 1
    assert upoly(free1) == U + 2
    expected = U**3 + 6 * U**2 + 9 * U + 3 * U * V + V**2 + 4 * V + 3
    assert upoly(tripod) == expected
    assert upoly(tripod, "recursive") == expected
    with pytest.raises(ValueError):
        upoly(tripod, "magic")


def _upoly_by_table(d):
    """Oracle: the enumerator from the (size, g) pairs of the rank table."""
    pairs = Counter(zip(_sizes(d.n), d.rank_table().values))
    return MultiPoly(("u", "v"), {(d.n - size, (size - g) // 2): c for (size, g), c in pairs.items()})


def _fvector_by_table(d):
    """Oracle: the sizes of the sets with g(S) = |S| in the rank table."""
    return FVector.from_sizes([size for size, g in zip(_sizes(d.n), d.rank_table().values) if g == size])


def _sizes(n):
    return [s.size for s in enumerate_admissible(n)]


def test_table_invariants_match_defining_sums():
    for d in oracle_families():
        n = d.n
        direct: dict[tuple[int, int], int] = {}
        for s in enumerate_admissible(n):
            key = (n - s.size, (s.size - d._g(s.pos, s.neg)) // 2)
            direct[key] = direct.get(key, 0) + 1
        assert upoly_direct(d) == MultiPoly(("u", "v"), direct) == _upoly_by_table(d), d
        slice_: dict[tuple[int], int] = {}
        for p in range(1 << n):
            key = ((n - d._g(p, ((1 << n) - 1) & ~p)) // 2,)
            slice_[key] = slice_.get(key, 0) + 1
        assert interlace(d) == MultiPoly(("v",), slice_), d
        independent_sizes = [s.size for s in enumerate_admissible(n) if d.is_independent(s)]
        assert independence_fvector(d) == FVector.from_sizes(independent_sizes) == _fvector_by_table(d), d
    # the planes against the table route and the recursion on seeded valid instances
    rng = random.Random(2718)
    for n in (8, 9, 10):
        for dist in ("gf2", "twist"):
            d = random_valid(rng, n, dist)
            assert upoly_direct(d) == _upoly_by_table(d) == upoly_recursive(d), (n, dist)
            assert independence_fvector(d) == _fvector_by_table(d), (n, dist)


def _upoly_recursive_by_minors(d, pivot):
    """Oracle: the three-way recursion through ``DeltaMatroid.minor`` and
    ``MultiPoly`` arithmetic, memoized on canonical minors."""
    u = MultiPoly(("u", "v"), {(1, 0): 1})
    uv1 = MultiPoly(("u", "v"), {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    memo = {}

    def rec(dm):
        if dm.n == 0:
            return MultiPoly.constant(1, ("u", "v"))
        key = (dm.n, dm.feasible)
        if key not in memo:
            i = 1 if pivot == "min" else dm.n
            loops, coloops = dm.loops_coloops()
            if i in loops or i in coloops:
                memo[key] = uv1 * rec(dm.minor(project=[i]))
            else:
                memo[key] = (
                    rec(dm.minor(contract=[i]))
                    + rec(dm.minor(delete=[i]))
                    + u * rec(dm.minor(project=[i]))
                )
        return memo[key]

    return rec(d)


def _interlace_by_table(d):
    """Oracle: the full-size sets close the canonical order, so the last 2^n
    rank-table values are their g."""
    full = Counter(d.rank_table().values[-(1 << d.n) :])
    return MultiPoly(("v",), {((d.n - g) // 2,): c for g, c in full.items()})


def _enumerator_families():
    """Every nonempty family at n <= 2, 2,100 seeded arbitrary families at
    n = 3..5 (valid or not, single sets included), seeded gf2 and twist
    instances at n = 1..9, and 76 seeded arbitrary families at n = 6..8,
    every other one sparse."""
    for n in range(3):
        for k in range(1, (1 << n) + 1):
            for fam in combinations(range(1 << n), k):
                yield DeltaMatroid(n, fam)
    rng = random.Random(1212)
    for n, count in ((3, 900), (4, 800), (5, 400)):
        for _ in range(count):
            yield random_family(rng, n)
        yield DeltaMatroid(n, [rng.randrange(1 << n)])
    for n in range(1, 10):
        for dist in ("gf2", "twist"):
            for _ in range(2):
                yield random_valid(rng, n, dist)
    for n, count in ((6, 40), (7, 24), (8, 12)):
        for k in range(count):
            yield random_family(rng, n, max_size=(1 << n) >> 3 if k % 2 else None)


def test_upoly_recursive_matches_minor_oracle():
    count = 0
    for d in _enumerator_families():
        assert upoly_recursive(d) == _upoly_recursive_by_minors(d, "min"), d
        count += 1
    assert count >= 2000


def test_upoly_recursion_depends_on_the_pivot_off_valid_families():
    # on an invalid family the three-way recursion is not an invariant
    d = DeltaMatroid(4, (1, 5, 8, 11, 12, 13, 14))
    assert not d.validate("exchange").ok
    low, high = upoly_recursive(d), _upoly_recursive_by_minors(d, "max")
    assert low == _upoly_recursive_by_minors(d, "min")
    assert low - high == U * V - U * V**2  # 9·u·v against 8·u·v + u·v^2


def test_interlace_matches_table_oracle():
    for d in _enumerator_families():
        assert interlace(d) == _interlace_by_table(d), d
    assert interlace(DeltaMatroid(0, [0])) == MultiPoly(("v",), {(0,): 1})


def test_upoly_pivot_invariance():
    rng = random.Random(23)
    sample = all_valid(2) + rng.sample(all_valid(3), 30)
    sample += [d for d, _ in random_delta_matroids(10, 4, seed=5150)]
    for d in sample:
        assert upoly_recursive(d) == _upoly_recursive_by_minors(d, "max")


def test_upoly_base_case():
    empty = DeltaMatroid(0, [0])
    assert upoly(empty) == MultiPoly.constant(1, ("u", "v"))


def test_interlace(tripod, coloop1):
    assert interlace(coloop1) == MultiPoly(("v",), {(1,): 1, (0,): 1})
    assert interlace(tripod) == MultiPoly(("v",), {(2,): 1, (1,): 4, (0,): 3})
    swap = dm_from_gf2(Gf2SymMatrix.from_lists([[0, 1], [1, 0]]))
    assert interlace(swap) == MultiPoly(("v",), {(1,): 2, (0,): 2})


def test_independence_fvector(tripod, coloop1, free1):
    assert independence_fvector(tripod).counts == (1, 6, 9, 3)
    assert independence_fvector(coloop1).counts == (1, 1)
    assert independence_fvector(free1).counts == (1, 2)
    assert independence_fvector(tripod).render() == "1 6 9 3"


def test_pure_o_inequalities():
    assert pure_o_inequalities(FVector((1, 6, 9, 3))).passed
    assert pure_o_inequalities(FVector((1, 1))).passed
    bad = pure_o_inequalities(FVector((2, 1, 1)))
    assert not bad.passed
    assert any(v.axiom == "monotone" for v in bad.violations)
    mirror = pure_o_inequalities(FVector((1, 2, 1, 1)))
    assert not mirror.passed
    assert any(v.axiom == "mirror" for v in mirror.violations)


def test_activity_examples(tripod):
    assert activity(tripod, sset(3, 1)).a == 0
    assert activity(tripod, sset(3, -2, -3)).a == 0
    feas = tripod.feasible_sets()
    by_render = {b.render(): b for b in feas}
    assert activity(tripod, by_render["1 -2 -3"]).active == (1,)
    assert activity(tripod, by_render["-1 2 -3"]).active == (1,)
    assert activity(tripod, by_render["-1 -2 3"]).active == (1, 2)
    with pytest.raises(ValueError):
        activity(tripod, sset(3, 1, 2))  # not independent


def test_activity_zero_faces_match_definitions(tripod):
    # applying the two-step definition by hand over the projections
    report = activity_zero_complex(tripod)
    rendered = {label for label, active in independent_activities(tripod) if not active}
    assert rendered == {"", "1", "-1", "2", "-2", "3", "-3",
                        "1 -2", "-1 -2", "2 -3", "-2 -3", "1 -3", "-1 -3"}
    assert report.fvector.counts == (1, 6, 6)
    assert not report.pure


def test_activity_zero_complex_small(coloop1, free1):
    rep = activity_zero_complex(coloop1)
    assert rep.fvector.counts == (1,) and rep.pure
    rep = activity_zero_complex(free1)
    # both singletons flip into each other, so neither is orientable
    assert rep.fvector.counts == (1, 2) and rep.pure


def _minor_activity(d, iset):
    """Oracle: the active indices read off the minor that projects away every
    index outside the support, one DeltaMatroid per set."""
    labels = [i for i in range(1, d.n + 1) if iset.underline >> (i - 1) & 1]
    dp = d.minor(project=[i for i in range(1, d.n + 1) if i not in labels])
    bpos = 0
    for k, orig in enumerate(labels, start=1):
        if iset.pos >> (orig - 1) & 1:
            bpos |= 1 << (k - 1)
    fam = set(dp.feasible)
    active = []
    for k in range(1, dp.n + 1):
        bit = 1 << (k - 1)
        if (bpos ^ bit) in fam:
            continue
        if any((bpos ^ bit ^ (1 << (j - 1))) in fam for j in range(1, k)):
            continue
        active.append(labels[k - 1])
    return tuple(active)


def _activity_families():
    """Every nonempty family at n <= 3 and seeded valid instances at n = 5, 6."""
    for n in range(4):
        for k in range(1, (1 << n) + 1):
            for fam in combinations(range(1 << n), k):
                yield DeltaMatroid(n, fam)
    yield from (d for d, _ in random_delta_matroids(9, 5, seed=606))
    yield from (d for d, _ in random_delta_matroids(6, 6, seed=607))


def _scan_complex(d):
    """Oracle: the activity-zero faces from the minor route, checked by the
    O(faces^2) scan: (pure, None), or (None, message) if not downward closed."""
    faces = [s for s in d.independents() if not _minor_activity(d, s)]
    keys = {(f.pos, f.neg) for f in faces}
    for f in faces:
        for e in f.elements():
            smaller = AdmissibleSet.from_elements(d.n, [x for x in f.elements() if x != e])
            if (smaller.pos, smaller.neg) not in keys:
                return None, "activity-zero sets are not downward closed at {%s}" % f.render()
    maximal = {f.size for f in faces if not any(g is not f and f.is_subset(g) for g in faces)}
    return len(maximal) <= 1, None


def test_activities_match_minor_oracle():
    sets_seen = 0
    for d in _activity_families():
        independents = d.independents()
        want = [_minor_activity(d, s) for s in independents]
        assert [activity(d, s).active for s in independents] == want, d
        kernel = list(independent_activities(d))
        assert [label for label, _ in kernel] == [s.render() for s in independents], d
        assert [active for _, active in kernel] == want, d
        expansion = {}
        for s, active in zip(independents, want):
            key = (d.n - s.size, len(active))
            expansion[key] = expansion.get(key, 0) + 1
        assert activity_expansion(d) == MultiPoly(("u", "v"), expansion), d
        sets_seen += len(independents)
    assert sets_seen > 5000


def test_complex_purity_matches_maximal_face_scan():
    outcomes = set()
    for d in _activity_families():
        pure, error = _scan_complex(d)
        if error is not None:
            with pytest.raises(RuntimeError) as info:
                activity_zero_complex(d)
            assert str(info.value) == error, d
        else:
            report = activity_zero_complex(d)
            assert report.pure == pure, d
            faces = [s for s in d.independents() if not _minor_activity(d, s)]
            assert [label for label, active in independent_activities(d) if not active] == [f.render() for f in faces], d
            assert report.fvector == FVector.from_sizes([f.size for f in faces]), d
        outcomes.add(pure)
    assert outcomes == {True, False}


def test_plane_readers_trip_the_guard_when_cached(tripod, monkeypatch):
    readers = (activity_expansion, activity_zero_complex, lambda d: list(independent_activities(d)),
               indep_gen_poly, efls_gen_poly, upoly_direct, independence_fvector, DeltaMatroid.independents,
               DeltaMatroid.lattice_point_test, upoly_recursive)
    for read in readers:
        read(tripod)  # every cache at n = 3 is warm
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "2")
    for read in readers:
        with pytest.raises(GuardLimitError):
            read(tripod)


def test_complex_reports_a_face_without_its_subfaces(tripod, monkeypatch):
    import deltamat.invariants as invariants

    real = invariants._active_planes

    def spoiled(d):
        # give the empty set (code 0) the active index 1: {1} is then a face without its subface {}
        independent, (first, *rest) = real(d)
        return independent, [first | 1, *rest]

    monkeypatch.setattr(invariants, "_active_planes", spoiled)
    with pytest.raises(RuntimeError, match=r"^activity-zero sets are not downward closed at \{1\}$"):
        activity_zero_complex(tripod)


def test_activity_expansion_examples(tripod, coloop1):
    assert activity_expansion(coloop1) == U + V
    expected = U**3 + 6 * U**2 + 6 * U + 3 * U * V + V**2 + 2 * V
    assert activity_expansion(tripod) == expected
    at_zero = expected.substitute("v", MultiPoly.constant(0, ("v",)))
    assert at_zero == U**3 + 6 * U**2 + 6 * U


def test_activity_expansion_matches_substitution_on_random():
    vm1 = MultiPoly(("v",), {(1,): 1, (0,): -1})
    for d, _ in random_delta_matroids(20, 4, seed=2718):
        assert activity_expansion(d) == upoly_direct(d).substitute("v", vm1)


def test_product_identity_spot(coloop1, free1):
    d = coloop1.product(free1)
    assert upoly_direct(d) == upoly_direct(coloop1) * upoly_direct(free1)


def test_fvector_from_sizes():
    fv = FVector.from_sizes([0, 1, 1, 2])
    assert fv.counts == (1, 2, 1)
    assert FVector.from_sizes([]).counts == (0,)
