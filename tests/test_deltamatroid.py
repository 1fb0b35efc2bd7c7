import random
from collections import Counter
from itertools import chain, combinations, islice, permutations, product
from operator import add

import pytest

from deltamat import deltamatroid, lp
from deltamat.deltamatroid import (
    DeltaMatroid,
    ValidationReport,
    _mask_key,
    _uncertified_pairs,
    all_full_size_masks,
    distance_layers,
    g_lanes,
    h_lanes,
)
from deltamat.ground import (
    AdmissibleSet,
    GuardLimitError,
    SignedPermutation,
    code_masks,
    combine,
    digit_planes,
    dot,
    enumerate_admissible,
)
from deltamat.randgen import random_signed_permutation, random_valid

from deltamat.invariants import (
    activity_expansion,
    activity_zero_complex,
    independence_fvector,
    independent_activities,
    upoly_direct,
)
from deltamat.lorentzian import _independent_counts, efls_gen_poly, indep_gen_poly

from conftest import canonical_codes, max_plus_rank_by_code, missed_layer_h_lanes, oracle_families, sset


def all_valid(n):
    masks = all_full_size_masks(n)
    out = []
    for k in range(1, len(masks) + 1):
        for fam in combinations(masks, k):
            d = DeltaMatroid(n, fam)
            if d.validate("exchange").ok:
                out.append(d)
    return out


def test_construction_canonicalizes():
    a = DeltaMatroid.from_signed_lists(2, [[-1, 2], [1, -2], [-1, 2]])
    b = DeltaMatroid.from_signed_lists(2, [[1, -2], [-1, 2]])
    assert a == b and hash(a) == hash(b)
    assert [s.render() for s in a.feasible_sets()] == ["1 -2", "-1 2"]
    with pytest.raises(ValueError):
        DeltaMatroid(2, [])
    with pytest.raises(ValueError):
        DeltaMatroid.from_feasible_sets(2, [sset(2, 1)])  # not full size


def test_mask_key_orders_as_sign_tuples():
    # the int key sorts masks as the tuple of signs by index (0 unbarred, 1 barred) does
    def signs(n, m):
        return tuple(0 if m >> i & 1 else 1 for i in range(n))

    for n in range(11):
        masks = range(1 << n)
        assert sorted(masks, key=lambda m: _mask_key(n, m)) == sorted(masks, key=lambda m: signs(n, m)), n
    # past one byte and at widths that are not a whole number of bytes, on sampled masks
    rng = random.Random(17)
    for n in (17, 24, 40):
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]
        assert sorted(masks, key=lambda m: _mask_key(n, m)) == sorted(masks, key=lambda m: signs(n, m)), n
        assert all(_mask_key(n, m) == int(f"{~m & ((1 << n) - 1):0{n}b}"[::-1], 2) for m in masks), n
    # the order of the full-size sets in the canonical order of all sets
    for n in range(6):
        assert list(all_full_size_masks(n)) == [s.pos for s in enumerate_admissible(n) if s.size == n]
    shuffled = random.Random(0).sample(range(1 << 7), 40)
    assert list(DeltaMatroid(7, shuffled).feasible) == sorted(shuffled, key=lambda m: signs(7, m))


def test_validate_examples(tripod):
    single = DeltaMatroid.from_signed_lists(2, [[1, -2]])
    assert single.validate("exchange").ok and single.validate("polytope").ok

    bad = DeltaMatroid.from_signed_lists(3, [[1, 2, 3], [-1, -2, -3]])
    rep = bad.validate("polytope")
    assert not rep.ok
    assert "support 3" in rep.message
    assert not bad.validate("exchange").ok

    assert tripod.validate("exchange").ok and tripod.validate("polytope").ok
    # every difference of two feasible indicator vectors moves two indices
    for p, q in combinations(tripod.feasible, 2):
        assert (p ^ q).bit_count() == 2

    with pytest.raises(ValueError):
        tripod.validate("nonsense")


def test_is_even(tripod, coloop1, free1):
    assert tripod.is_even()
    assert coloop1.is_even()
    assert not free1.is_even()


def test_rank_examples(tripod, coloop1, free1):
    assert tripod.rank(sset(3)) == (0, 0)
    assert tripod.rank(sset(3, 1, 2)) == (0, 1)
    assert tripod.rank(sset(3, 1, 2, 3)) == (-1, 1)
    assert coloop1.rank_table().values == (0, 1, -1)
    assert free1.rank_table().values == (0, 1, 1)
    table = tripod.rank_table()
    top = [s for s, v in table.items() if s.size == 3 and v == 3]
    assert len(top) == 3
    with pytest.raises(ValueError):
        tripod.g(sset(2, 1))


def test_rank_table_matches_per_set_oracle():
    for d in oracle_families():
        sets = enumerate_admissible(d.n)
        assert d.rank_table().values == tuple(d._g(s.pos, s.neg) for s in sets), d
        assert d.h_table().values == tuple((d._g(s.pos, s.neg) + s.size) // 2 for s in sets), d
        assert d.independents() == tuple(s for s in sets if d.is_independent(s)), d


def _assert_lanes_match_transform(d: DeltaMatroid) -> None:
    g = max_plus_rank_by_code(d.n, d.feasible)
    assert g_lanes(d.n, d.feasible).tolist() == g, d
    canonical = tuple(map(g.__getitem__, canonical_codes(d.n)))
    assert d.rank_table().values == canonical, d
    sizes = tuple(s.size for s in enumerate_admissible(d.n))
    assert d.h_table().values == tuple((gv + size) // 2 for gv, size in zip(canonical, sizes)), d


def test_rank_lanes_match_max_plus_transform_and_brute_force():
    # the lane route against the max-plus transform, which the brute-force
    # max over the feasible sets checks in turn
    instances = [DeltaMatroid(0, [0]), DeltaMatroid(1, [0]), DeltaMatroid(1, [1]), DeltaMatroid(1, [0, 1])]
    instances += oracle_families()
    for d in instances:
        assert max_plus_rank_by_code(d.n, d.feasible) == list(map(d._g, *code_masks(d.n))), d
        _assert_lanes_match_transform(d)
    rng = random.Random(1717)
    for n in (8, 9, 10):
        for dist in ("gf2", "twist"):
            d = random_valid(rng, n, dist)
            _assert_lanes_match_transform(d)
            pos, neg = code_masks(n)
            g = g_lanes(n, d.feasible)
            for code in rng.sample(range(3**n), 200):
                assert g[code] == d._g(pos[code], neg[code]), (d, code)


def test_rank_tables_trip_the_guard_when_cached(monkeypatch, tripod):
    digit_planes(3)
    tripod.rank_table()
    tripod.h_table()  # every cache at n = 3 is warm
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "2")
    for table in (tripod.rank_table, tripod.h_table):
        with pytest.raises(GuardLimitError):
            table()
    with pytest.raises(GuardLimitError):  # the size lanes check it on a cache miss
        deltamatroid._size_lanes.__wrapped__(3)


def _distance_results(d: DeltaMatroid, before=lambda: None) -> list:
    """The readers of the distance layers on d, with ``before`` called ahead of each."""
    calls = (
        lambda: h_lanes(d.n, d.feasible),
        lambda: g_lanes(d.n, d.feasible).tolist(),
        lambda: list(distance_layers(d.n, d.feasible)),
        lambda: upoly_direct(d),
        lambda: independence_fvector(d),
    )
    out = []
    for call in calls:
        before()
        out.append(call())
    return out


def test_distance_memo_matches_cold_results_across_families():
    rng = random.Random(2808)
    a, b, c = random_valid(rng, 6, "gf2"), random_valid(rng, 6, "twist"), random_valid(rng, 5, "gf2")
    assert len({a, b, c}) == 3
    cold = {}
    for d in (a, b, c):
        cold[d] = _distance_results(d, before=deltamatroid._family_layers.cache_clear)
        assert len(cold[d][2]) > 2, d  # every instance has a layer past layer 1
    for d in (a, b, a, c, a, a, b):  # whole calls, each family after another or after itself
        assert _distance_results(d) == cold[d], d
    # open iterators read in turn: of A then B then A, and twice of one family
    for families in ((a, b, a), (a, a), (b, c, c, b)):
        deltamatroid._family_layers.cache_clear()
        readers = [iter(distance_layers(d.n, d.feasible)) for d in families]
        read = [[] for _ in families]
        for step in range(max(len(cold[d][2]) for d in families)):
            for out, reader in zip(read, readers) if step % 2 else zip(reversed(read), reversed(readers)):
                out.extend(islice(reader, 1))
        assert read == [cold[d][2] for d in families], families
        assert all(next(reader, None) is None for reader in readers)
    # dropping a family's half-read record, when the next family takes the slot, keeps the new record
    for d in (a, b, a, c):
        next(iter(distance_layers(d.n, d.feasible)))
        assert deltamatroid._family_layers.cache_info().currsize == 1, d


def test_layer_zero_readers_make_only_layer_zero(monkeypatch):
    made = []
    real = deltamatroid._next_layer

    def counting(n, feasible, layers):
        made.append(len(layers))
        return real(n, feasible, layers)

    def all_activities(d):
        return list(independent_activities(d))

    monkeypatch.setattr(deltamatroid, "_next_layer", counting)
    d = random_valid(random.Random(6), 6, "gf2")
    readers = (
        independence_fvector, _independent_counts, indep_gen_poly, efls_gen_poly, DeltaMatroid.independents,
        all_activities, activity_zero_complex, activity_expansion,
    )
    for reader in readers:
        deltamatroid._family_layers.cache_clear()
        made.clear()
        reader(d)
        assert len(made) == 1, reader
    assert len(list(distance_layers(d.n, d.feasible))) > 1 and len(made) > 1


def test_a_failed_layer_leaves_the_layers_below_it(monkeypatch):
    # out of memory while making layer k: the slot keeps layers 0..k-1, and the next call extends them
    d = random_valid(random.Random(6), 6, "gf2")
    deltamatroid._family_layers.cache_clear()
    cold = distance_layers(d.n, d.feasible)
    assert len(cold) > 2
    real = deltamatroid._next_layer
    for k in range(1, len(cold)):

        def failing(n, feasible, layers):
            if len(layers) == k:
                raise MemoryError()
            return real(n, feasible, layers)

        monkeypatch.setattr(deltamatroid, "_next_layer", failing)
        deltamatroid._family_layers.cache_clear()
        with pytest.raises(MemoryError):
            distance_layers(d.n, d.feasible)
        assert deltamatroid._family_layers(d.n, tuple(d.feasible)) == list(cold[:k]), k
        monkeypatch.setattr(deltamatroid, "_next_layer", real)
        assert distance_layers(d.n, d.feasible) == cold, k


def test_digit_h_lanes_match_missed_layer_sum():
    rng = random.Random(4096)
    for n in range(8):
        free, single = DeltaMatroid(n, range(1 << n)), DeltaMatroid(n, [rng.randrange(1 << n)])
        families = [free, single]  # D = 0, and D = n, the largest
        families += [DeltaMatroid(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))) for _ in range(12)]
        families += [random_valid(rng, n, dist) for dist in ("gf2", "twist", "family")]
        depths = set()
        for d in families:
            deltamatroid._family_layers.cache_clear()
            expected = missed_layer_h_lanes(n, d.feasible)
            depths.add(len(list(distance_layers(n, d.feasible))) - 1)
            deltamatroid._family_layers.cache_clear()
            assert h_lanes(n, d.feasible) == expected, d
            sizes = [(p | q).bit_count() for p, q in zip(*code_masks(n))]
            assert g_lanes(n, d.feasible).tolist() == [2 * v - size for v, size in zip(expected, sizes)], d
        assert {0, n} <= depths, n


def test_rank_function_properties():
    rng = random.Random(5)
    instances = all_valid(2) + rng.sample(all_valid(3), 40)
    for d in instances:
        table = dict(d.rank_table().items())
        assert table[AdmissibleSet(d.n)] == 0
        for s, g in table.items():
            assert abs(g) <= s.size
            assert (g - s.size) % 2 == 0
        for s in table:
            for t in table:
                meet, join = combine(s, t)
                assert table[s] + table[t] >= table[meet] + table[join]


def test_minor_examples(tripod):
    contracted = tripod.minor(contract=[1])
    assert contracted.n == 2
    assert [b.render() for b in contracted.feasible_sets()] == ["-1 -2"]
    deleted = tripod.minor(delete=[1])
    assert [b.render() for b in deleted.feasible_sets()] == ["1 -2", "-1 2"]
    projected = tripod.minor(project=[1])
    assert [b.render() for b in projected.feasible_sets()] == ["1 -2", "-1 2", "-1 -2"]
    everything = tripod.minor(project=[1, 2, 3])
    assert everything.n == 0 and everything.feasible == (0,)
    with pytest.raises(ValueError):
        tripod.minor(contract=[1], delete=[1])
    with pytest.raises(ValueError):
        tripod.minor(project=[4])


def test_minor_at_loop_and_coloop_coincide(coloop1, loop1):
    for d, i in ((coloop1, 1), (loop1, 1)):
        variants = {
            d.minor(contract=[i]),
            d.minor(delete=[i]),
            d.minor(project=[i]),
        }
        assert len(variants) == 1


def test_minor_operations_commute():
    rng = random.Random(11)
    ops = {1: "contract", 2: "delete", 3: "project"}
    for d in rng.sample(all_valid(3), 25):
        expected = d.minor(contract=[1], delete=[2], project=[3])
        for order in permutations([1, 2, 3]):
            step = d
            removed = []
            for orig in order:
                position = orig - sum(1 for r in removed if r < orig)
                step = step.minor(**{ops[orig]: [position]})
                removed.append(orig)
            assert step == expected


def test_minors_stay_valid():
    rng = random.Random(13)
    for d in rng.sample(all_valid(3), 30):
        for i in (1, 2, 3):
            for kind in ("contract", "delete", "project"):
                m = d.minor(**{kind: [i]})
                assert m.validate("exchange").ok, (d, kind, i)


def test_loops_coloops(tripod, coloop1, loop1):
    assert coloop1.loops_coloops() == ((), (1,))
    assert loop1.loops_coloops() == ((1,), ())
    assert tripod.loops_coloops() == ((), ())


def test_product_examples(coloop1, loop1, free1):
    cc = coloop1.product(coloop1)
    assert cc.n == 2 and [b.render() for b in cc.feasible_sets()] == ["1 2"]
    cl = coloop1.product(loop1)
    assert [b.render() for b in cl.feasible_sets()] == ["1 -2"]
    ff = free1.product(free1)
    assert len(ff.feasible) == 4


def test_twist_examples(tripod, coloop1, loop1):
    assert tripod.twist(SignedPermutation.identity(3)) == tripod
    assert coloop1.twist(SignedPermutation.bar_swap(1)) == loop1
    flipped = tripod.twist(SignedPermutation.bar_swap(3))
    assert flipped.g(sset(3, -1, -2)) == tripod.g(sset(3, 1, 2)) == 0


def test_twist_is_group_action(tripod):
    w1 = SignedPermutation(3, (2, -3, 1))
    w2 = SignedPermutation(3, (-1, 3, 2))
    assert tripod.twist(w1).twist(w2) == tripod.twist(w2.compose(w1))


def test_twist_matches_set_action():
    """The mask twist equals w applied to each feasible set."""

    def set_twist(d, w):
        return DeltaMatroid.from_feasible_sets(d.n, [w.apply(b) for b in d.feasible_sets()])

    for n in range(4):
        group = [
            SignedPermutation(n, tuple(p * s for p, s in zip(perm, signs)))
            for perm in permutations(range(1, n + 1))
            for signs in product((1, -1), repeat=n)
        ]
        for d in all_valid(n):
            for w in group:
                assert d.twist(w) == set_twist(d, w)
    rng = random.Random(8080)
    for dist in ("gf2", "twist") * 4:
        d, w = random_valid(rng, 8, dist), random_signed_permutation(rng, 8)
        assert d.twist(w) == set_twist(d, w)


def test_independents(tripod, coloop1):
    assert [s.render() for s in coloop1.independents()] == ["", "1"]
    ind = tripod.independents()
    assert len(ind) == 19
    assert not tripod.is_independent(sset(3, 1, 2))
    sizes = sorted(s.size for s in ind)
    assert sizes.count(0) == 1 and sizes.count(1) == 6
    assert sizes.count(2) == 9 and sizes.count(3) == 3


def test_lattice_point_test(tripod, coloop1, free1):
    assert free1.lattice_point_test()
    assert tripod.lattice_point_test()
    assert coloop1.lattice_point_test()


def lattice_oracle(d: DeltaMatroid) -> bool:
    """The per-set test: e_S is inside when <e_T, e_S> <= h(T) for every nonempty T."""
    sets = enumerate_admissible(d.n)
    nonempty = [(t, hv) for t, hv in zip(sets, d.h_table().values) if t.size > 0]
    inside = {s for s in sets if all(dot(t, s) <= hv for t, hv in nonempty)}
    return inside == set(d.independents())


def test_lattice_point_test_matches_dot_oracle():
    for d in oracle_families():
        verdict = lattice_oracle(d)
        assert verdict, d  # yes for every nonempty family, valid or not
        assert d.lattice_point_test() == verdict, d


def test_validators_agree_on_random_families():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 4)
        fam = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
        d = DeltaMatroid(n, fam)
        assert d.validate("exchange").ok == d.validate("polytope").ok, d


def test_exchange_witness_is_recheckable():
    bad = DeltaMatroid.from_signed_lists(3, [[1, 2, 3], [-1, -2, -3]])
    rep = bad.validate("exchange")
    x_set, y_set, index = rep.witness
    x_mask, y_mask = x_set.pos, y_set.pos
    diff = x_mask ^ y_mask
    assert diff >> (index - 1) & 1
    fam = set(bad.feasible)
    bit = 1 << (index - 1)
    fixes = [x_mask ^ bit]
    for t in range(3):
        other = 1 << t
        if diff >> t & 1 and other != bit:
            fixes.append(x_mask ^ bit ^ other)
    assert not any(f in fam for f in fixes)


def exchange_oracle(d: DeltaMatroid) -> ValidationReport:
    """The exchange loop over every x, y and every index of x △ y, lowest first."""
    fam = set(d.feasible)
    for x in d.feasible:
        for y in d.feasible:
            bits = [1 << k for k in range(d.n) if (x ^ y) >> k & 1]
            for bx in bits:
                if x ^ bx in fam or any(by != bx and x ^ bx ^ by in fam for by in bits):
                    continue
                xs, ys, index = d._as_set(x), d._as_set(y), bx.bit_length()
                message = "no exchange for index %d between {%s} and {%s}" % (index, xs.render(), ys.render())
                return ValidationReport(False, "exchange", (xs, ys, index), message)
    return ValidationReport(True, "exchange")


def _vectors(d: DeltaMatroid) -> list[tuple[int, ...]]:
    return [tuple(1 if p >> k & 1 else -1 for k in range(d.n)) for p in d.feasible]


def polytope_oracle(d: DeltaMatroid) -> ValidationReport:
    """One full-dimensional LP per pair of support > 2, in scan order."""
    vectors = _vectors(d)
    for (i, a), (j, b) in combinations(enumerate(d.feasible), 2):
        support = (a ^ b).bit_count()
        if support > 2 and lp.pair_is_edge(vectors, i, j):
            xs, ys = d._as_set(a), d._as_set(b)
            message = "edge direction support %d between {%s} and {%s}" % (support, xs.render(), ys.render())
            return ValidationReport(False, "polytope", (xs, ys, support), message)
    return ValidationReport(True, "polytope")


def validator_families(top: int = 6):
    """Every family at n <= 3, free families and their drops, then seeded gf2 outputs with spoilings.

    The free family (a drop of None) reaches no z outside F from a feasible
    x, and a one-set drop reaches one.  The per-pair LP oracle takes about
    0.6 s on a 64-set family, so n = 4 takes every drop, n = 5 the first and
    last, and n = 6 only the first, without the free family.

    Each gf2 output at n = 4..top comes with its one-set spoilings.  A
    spoiling adds one absent set or drops one feasible set; about eight of
    each kind are taken, evenly spaced.
    """
    for n in range(4):
        for k in range(1, (1 << n) + 1):
            for fam in combinations(range(1 << n), k):
                yield DeltaMatroid(n, fam)
    for n, dropped in (4, [None, *range(16)]), (5, [None, 0, 31]), (6, [0]):
        for m in dropped if n <= top else ():
            yield DeltaMatroid(n, [p for p in range(1 << n) if p != m])
    rng = random.Random(2718)
    for n in range(4, top + 1):
        for _ in range(3):
            d = random_valid(rng, n, "gf2")
            yield d
            absent = [m for m in range(1 << n) if m not in d.feasible]
            for m in absent[:: max(1, len(absent) // 8)]:
                yield DeltaMatroid(n, d.feasible + (m,))
            if len(d.feasible) > 1:
                for m in d.feasible[:: max(1, len(d.feasible) // 8)]:
                    yield DeltaMatroid(n, [p for p in d.feasible if p != m])


def test_validators_match_per_pair_oracles():
    verdicts = {}
    for d in validator_families():
        exchange, polytope = d.validate("exchange"), d.validate("polytope")
        assert exchange == exchange_oracle(d), d
        assert polytope == polytope_oracle(d), d
        assert exchange.ok == polytope.ok, d
        verdicts.setdefault(d.n, set()).add(exchange.ok)
    assert all(verdicts[n] == {True, False} for n in range(3, 7)), verdicts


def test_pair_sum_certificate_skips_only_non_edges():
    for d in validator_families(top=5):
        vectors = _vectors(d)
        candidates = [(a, b) for a, b in combinations(d.feasible, 2) if (a ^ b).bit_count() > 2]
        uncertified = list(_uncertified_pairs(d.feasible))
        assert uncertified == [pair for pair in candidates if pair in uncertified], d  # scan order
        position = {p: i for i, p in enumerate(d.feasible)}
        for a, b in set(candidates) - set(uncertified):
            assert not lp.pair_is_edge(vectors, position[a], position[b]), (d, a, b)
    # in the free delta-matroid, swapping one index of a △ b between a and b
    # gives a second pair with the same sum, so no pair reaches the LP
    for n in range(3, 7):
        assert list(_uncertified_pairs(tuple(range(1 << n)))) == []


def pair_sums_by_counter(feasible):
    """The two-pass route: count the pair sums row by row, then rescan each row for the sums seen once."""
    keys = [int(f"{m:b}", 3) for m in feasible]
    sums = Counter()
    for i, ka in enumerate(keys):
        sums.update([ka + kb for kb in keys[i + 1 :]])
    return [
        (a, b)
        for i, (a, ka) in enumerate(zip(feasible, keys))
        for b, kb in zip(feasible[i + 1 :], keys[i + 1 :])
        if sums[ka + kb] == 1 and (a ^ b).bit_count() > 2
    ]


def pair_sums_by_definition(n, feasible):
    """The pairs of support > 2, in scan order, whose ±1 sum vector no other feasible pair has."""
    vectors = {p: [1 if p >> k & 1 else -1 for k in range(n)] for p in feasible}
    pairs_by_sum = {}
    for a, b in combinations(feasible, 2):
        pairs_by_sum.setdefault(tuple(map(add, vectors[a], vectors[b])), []).append((a, b))
    alone = {pairs[0] for pairs in pairs_by_sum.values() if len(pairs) == 1}
    return [(a, b) for a, b in combinations(feasible, 2) if (a, b) in alone and (a ^ b).bit_count() > 2]


def test_uncertified_pairs_match_both_oracles():
    # seeded gf2 outputs at n = 4..7 (no uncertified pair) and each one with
    # an absent set added (mostly some): 10 of the 24 families list pairs
    rng = random.Random(5)
    listing = []
    for n in range(4, 8):
        for _ in range(3):
            d = random_valid(rng, n, "gf2")
            absent = [m for m in range(1 << n) if m not in d.feasible]
            for fam in (d.feasible, DeltaMatroid(n, d.feasible + (rng.choice(absent),)).feasible):
                uncertified = list(_uncertified_pairs(fam))
                assert uncertified == pair_sums_by_counter(fam) == pair_sums_by_definition(n, fam), fam
                listing.append(bool(uncertified))
    assert 8 <= listing.count(True) <= 16, listing


def test_face_lp_fallback_returns_both_verdicts(monkeypatch):
    verdicts = []
    pair_is_edge = lp.pair_is_edge

    def counting(points, i, j):
        verdicts.append(pair_is_edge(points, i, j))
        return verdicts[-1]

    monkeypatch.setattr(lp, "pair_is_edge", counting)
    for d in chain(validator_families(), oracle_families()):
        d.validate("polytope")
    edges, non_edges = verdicts.count(True), verdicts.count(False)
    assert edges >= 20 and non_edges >= 20, (edges, non_edges)
