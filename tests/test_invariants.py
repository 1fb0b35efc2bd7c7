import random
from itertools import combinations

import pytest

from deltamat.deltamatroid import DeltaMatroid, all_full_size_masks
from deltamat.ground import AdmissibleSet, enumerate_admissible
from deltamat.invariants import (
    FVector,
    activity,
    activity_expansion,
    activity_zero_complex,
    independence_fvector,
    interlace,
    pure_o_inequalities,
    upoly,
    upoly_direct,
    upoly_recursive,
)
from deltamat.matroid import Gf2SymMatrix, dm_from_gf2
from deltamat.poly import MultiPoly, poly_u_v
from deltamat.randgen import random_delta_matroids

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


def test_table_invariants_match_defining_sums():
    for d in oracle_families():
        n = d.n
        direct: dict[tuple[int, int], int] = {}
        for s in enumerate_admissible(n):
            key = (n - s.size, (s.size - d._g(s.pos, s.neg)) // 2)
            direct[key] = direct.get(key, 0) + 1
        assert upoly_direct(d) == MultiPoly(("u", "v"), direct), d
        slice_: dict[tuple[int], int] = {}
        for p in range(1 << n):
            key = ((n - d._g(p, ((1 << n) - 1) & ~p)) // 2,)
            slice_[key] = slice_.get(key, 0) + 1
        assert interlace(d) == MultiPoly(("v",), slice_), d
        independent_sizes = [s.size for s in enumerate_admissible(n) if d.is_independent(s)]
        assert independence_fvector(d) == FVector.from_sizes(independent_sizes), d


def test_upoly_pivot_invariance():
    rng = random.Random(23)
    sample = all_valid(2) + rng.sample(all_valid(3), 30)
    sample += [d for d, _ in random_delta_matroids(10, 4, seed=5150)]
    for d in sample:
        assert upoly_recursive(d, pivot="min") == upoly_recursive(d, pivot="max")


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
    rendered = {f.render() for f in report.faces}
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
