from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamat.ground import (
    AdmissibleSet,
    GuardLimitError,
    SignedPermutation,
    _blocks,
    _tails,
    canonical_blocks,
    canonical_reads,
    canonical_tuple,
    combine,
    digit_planes,
    dot,
    enumerate_admissible,
    mask_reversals,
    mask_weights,
    set_of_code,
    size_planes,
    walk_codes,
)

from conftest import canonical_codes, sset


def admissible_sets(n: int):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.tuples(masks, masks).filter(lambda pn: not pn[0] & pn[1]).map(
        lambda pn: AdmissibleSet(n, pn[0], pn[1])
    )


def test_construction_rejects_conflicts():
    with pytest.raises(ValueError):
        AdmissibleSet(2, 0b01, 0b01)
    with pytest.raises(ValueError):
        AdmissibleSet.from_elements(2, [1, -1])
    with pytest.raises(ValueError):
        AdmissibleSet.from_elements(2, [3])


def test_enumerate_counts_and_order():
    assert [s.elements() for s in enumerate_admissible(0)] == [()]
    assert [s.elements() for s in enumerate_admissible(1)] == [(), (1,), (-1,)]
    sets3 = enumerate_admissible(3)
    assert len(sets3) == 27
    assert len(set(sets3)) == 27
    keys = [s.sort_key() for s in sets3]
    assert keys == sorted(keys)


def sorted_product(n: int) -> list[AdmissibleSet]:
    """The canonical order built the slow way: every state vector, sorted by sort_key."""
    sets = []
    for states in product((0, 1, 2), repeat=n):
        pos = sum(1 << i for i, st in enumerate(states) if st == 1)
        neg = sum(1 << i for i, st in enumerate(states) if st == 2)
        sets.append(AdmissibleSet(n, pos, neg))
    return sorted(sets, key=AdmissibleSet.sort_key)


def test_canonical_codes_decode_to_the_canonical_sets():
    for n in range(8):
        oracle = sorted_product(n)
        assert enumerate_admissible(n) == tuple(oracle)
        codes = canonical_codes(n)
        for s, code in zip(oracle, codes):
            digits = [code // 3**i % 3 for i in range(n)]
            assert s.pos == sum(1 << i for i, dg in enumerate(digits) if dg == 1)
            assert s.neg == sum(1 << i for i, dg in enumerate(digits) if dg == 2)


def test_canonical_blocks_match_the_oracle(tail_width):
    # blocks of every width give the oracle's codes and labels, and reads by code give the values in that order
    for n in range(11):
        codes = canonical_codes(n)
        labels = [set_of_code(n, c).render() for c in codes]
        by_code = memoryview(bytes(c % 251 for c in range(3**n)))
        values = tuple(by_code[c] for c in codes)
        for width in (0, 1, 3, 9):
            tail_width(width)
            blocks = list(canonical_blocks(n))
            tails = [(code, _tails(n)[t][0]) for code, _, t in _blocks(n)]  # each block's prefix code and tail codes
            assert tuple(walk_codes(n)) == codes, (n, width)
            assert [x for block in blocks for x in block] == labels, (n, width)
            assert canonical_tuple(n, by_code) == values, (n, width)
            assert [len(read) for read in canonical_reads(n, by_code)] == [len(tail) for _, tail in tails]
            assert [len(block) for block in blocks] == [len(tail) for _, tail in tails], (n, width)
            reads = zip(tails, canonical_reads(n, range(3**n)))  # a block's codes share its prefix's low digits
            assert all(c % 3 ** max(n - width, 0) == code for (code, _), read in reads for c in read), (n, width)
            assert max(len(tail) for _, tail in tails) <= 3**width
            assert [code + c for code, tail in tails for c in tail] == list(codes), (n, width)
            assert (len(blocks) == 1) == (n <= width)


def test_digit_and_size_planes_mark_digits_and_sizes():
    for n in range(8):
        ones, sizes = digit_planes(n), size_planes(n)
        assert len(ones) == n and len(sizes) == n + 1
        for code in range(3**n):
            digits = [code // 3**i % 3 for i in range(n)]
            assert [one >> code & 1 for one in ones] == [dg == 1 for dg in digits]
            assert [plane >> code & 1 for plane in sizes] == [k == n - digits.count(0) for k in range(n + 1)]
        assert all(plane < 1 << 3**n for plane in ones + sizes)


def test_mask_tables_match_per_mask_formulas():
    for n in range(11):
        masks = range(1 << n)
        assert mask_weights(n) == tuple(int(f"{m:b}", 3) for m in masks)
        assert mask_reversals(n) == tuple(int(f"{m:0{n}b}"[::-1] or "0", 2) for m in masks)


def test_guard_limit_and_override(monkeypatch):
    with pytest.raises(GuardLimitError):
        enumerate_admissible(17)
    builders = (_tails, digit_planes, size_planes, mask_weights, mask_reversals)
    for builder in builders:
        builder(3)  # a cached callee does not check the limit again
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "2")
    for builder in builders:
        with pytest.raises(GuardLimitError):
            builder.__wrapped__(3)
    for walk in (canonical_blocks, enumerate_admissible):  # the walk checks it on every call
        with pytest.raises(GuardLimitError):
            walk(3)


def test_combine_examples():
    meet, join = combine(sset(3, 1, 2), sset(3, -1, 3))
    assert meet.elements() == ()
    assert join.elements() == (2, 3)
    meet, join = combine(sset(1, 1), sset(1, 1))
    assert meet.elements() == (1,) and join.elements() == (1,)
    meet, join = combine(sset(2, 1, -2), sset(2, 1, 2))
    assert meet.elements() == (1,) and join.elements() == (1,)
    with pytest.raises(ValueError):
        combine(sset(1, 1), sset(2, 1))


@settings(max_examples=200, derandomize=True)
@given(admissible_sets(4), admissible_sets(4))
def test_join_admissible_and_bounded(s, t):
    meet, join = combine(s, t)
    assert join.pos & join.neg == 0
    assert join.size <= s.size + t.size
    assert meet.is_subset(s) and meet.is_subset(t)


@settings(max_examples=200, derandomize=True)
@given(admissible_sets(4))
def test_bar_involution(s):
    assert s.bar().bar() == s
    assert s.bar().vector() == tuple(-x for x in s.vector())


def test_apply_permutation_examples():
    ident = SignedPermutation.identity(2)
    s = sset(2, 1, -2)
    assert ident.apply(s) == s
    swap_all = SignedPermutation.bar_swap(2)
    assert swap_all.apply(s).elements() == (-1, 2)
    w = SignedPermutation(2, (-2, 1))  # 1 -> bar(2), 2 -> 1
    assert w.apply(sset(2, 1)).elements() == (-2,)


def test_permutation_group_laws():
    w = SignedPermutation(3, (-2, 3, 1))
    inv = w.inverse()
    for s in enumerate_admissible(3):
        assert inv.apply(w.apply(s)) == s
        assert w.apply(s).size == s.size
        assert w.apply(s.bar()) == w.apply(s).bar()
    v = SignedPermutation(3, (3, -1, -2))
    composed = w.compose(v)
    for s in enumerate_admissible(3):
        assert composed.apply(s) == w.apply(v.apply(s))


def test_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation(2, (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation(2, (1, -1))
    with pytest.raises(ValueError):
        SignedPermutation(2, (1, 3))
    with pytest.raises(ValueError):
        SignedPermutation.identity(2).apply(sset(3, 1))


def test_dot_is_signed_inner_product():
    for s in enumerate_admissible(2):
        for t in enumerate_admissible(2):
            expected = sum(a * b for a, b in zip(s.vector(), t.vector()))
            assert dot(s, t) == expected


def test_render_and_elements():
    s = sset(3, -2, 1)
    assert s.elements() == (1, -2)
    assert s.render() == "1 -2"
    assert AdmissibleSet(3).render() == ""
