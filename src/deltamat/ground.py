"""Signed ground sets, admissible subsets, and signed permutations.

The ground set for size ``n`` consists of the indices ``1..n`` together with
their barred partners, written here as negative integers ``-1..-n``.  An
*admissible* subset takes each index with at most one sign.  Sets are encoded
as a pair of bitmasks ``(pos, neg)`` where bit ``i-1`` stands for index ``i``;
admissibility means ``pos & neg == 0`` and is checked on construction, so all
downstream enumeration can stay bit-parallel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, MutableSequence, Sequence

DEFAULT_GUARD_LIMIT = 16
GUARD_ENV = "DELTAMAT_GUARD_LIMIT"


class GuardLimitError(RuntimeError):
    """An enumeration over 3^n (or 2^n) sets would exceed the size guard."""


def guard_limit() -> int:
    raw = os.environ.get(GUARD_ENV, "").strip()
    try:
        return int(raw) if raw else DEFAULT_GUARD_LIMIT
    except ValueError:
        raise ValueError(f"{GUARD_ENV}={raw!r} is not an integer") from None


def check_guard(n: int) -> None:
    limit = guard_limit()
    if n > limit:
        raise GuardLimitError(f"ground size {n} exceeds the guard limit {limit}")


@dataclass(frozen=True)
class AdmissibleSet:
    """A signed subset of the ground set: disjoint bitmasks of unbarred/barred indices."""

    n: int
    pos: int = 0
    neg: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("ground size must be non-negative")
        full = (1 << self.n) - 1
        if not (0 <= self.pos <= full and 0 <= self.neg <= full):
            raise ValueError("bitmask outside ground set of size %d" % self.n)
        _require_disjoint(self.pos, self.neg)

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "AdmissibleSet":
        """Build from signed integers, e.g. ``[1, -2]`` for {1, 2bar}."""
        return cls(n, *signed_masks(n, elements))

    @property
    def size(self) -> int:
        return (self.pos | self.neg).bit_count()

    @property
    def underline(self) -> int:
        """Bitmask of indices taken with either sign."""
        return self.pos | self.neg

    def elements(self) -> tuple[int, ...]:
        """Signed integers in increasing index order, e.g. (1, -2)."""
        out = []
        for i in range(1, self.n + 1):
            bit = 1 << (i - 1)
            if self.pos & bit:
                out.append(i)
            elif self.neg & bit:
                out.append(-i)
        return tuple(out)

    def bar(self) -> "AdmissibleSet":
        return AdmissibleSet(self.n, self.neg, self.pos)

    def with_element(self, e: int) -> "AdmissibleSet":
        """Union with a single signed element (must stay admissible)."""
        extra = AdmissibleSet.from_elements(self.n, [e])
        return AdmissibleSet(self.n, self.pos | extra.pos, self.neg | extra.neg)

    def union(self, other: "AdmissibleSet") -> "AdmissibleSet":
        _require_same_ground(self, other)
        return AdmissibleSet(self.n, self.pos | other.pos, self.neg | other.neg)

    def is_subset(self, other: "AdmissibleSet") -> bool:
        _require_same_ground(self, other)
        return (self.pos & ~other.pos) == 0 and (self.neg & ~other.neg) == 0

    def vector(self) -> tuple[int, ...]:
        """The signed indicator vector with +1 on pos, -1 on neg, 0 elsewhere."""
        return tuple(
            1 if self.pos >> i & 1 else (-1 if self.neg >> i & 1 else 0)
            for i in range(self.n)
        )

    def render(self) -> str:
        return " ".join(str(e) for e in self.elements())

    def sort_key(self) -> tuple:
        """Canonical order: by size, then index-by-index with +i before -i."""
        return (self.size, tuple(map(element_key, self.elements())))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "{%s}" % self.render()


def _require_disjoint(pos: int, neg: int) -> None:
    if pos & neg:
        raise ValueError("inadmissible set: some index appears with both signs")


def signed_masks(n: int, elements: Iterable[int]) -> tuple[int, int]:
    """The unbarred and barred bitmasks of an admissible set given as signed integers."""
    pos = neg = 0
    for e in elements:
        i = abs(e)
        if e == 0 or i > n:
            raise ValueError(f"element {e} outside signed ground set of size {n}")
        bit = 1 << (i - 1)
        if e > 0:
            pos |= bit
        else:
            neg |= bit
    _require_disjoint(pos, neg)
    return pos, neg


def submasks(mask: int) -> list[int]:
    """The submasks of ``mask`` in increasing order, each once."""
    subs = [0]
    sub = -mask & mask
    while sub:
        subs.append(sub)
        sub = (sub - mask) & mask
    return subs


def element_key(e: int) -> tuple[int, int]:
    """The order of signed elements: by index, i before its bar -i."""
    return (abs(e), 0 if e > 0 else 1)


def signed_ground(n: int) -> tuple[int, ...]:
    """The signed ground set 1, -1, 2, -2, ..., n, -n in element order."""
    return tuple(e for i in range(1, n + 1) for e in (i, -i))


def _require_same_ground(a: AdmissibleSet, b: AdmissibleSet) -> None:
    if a.n != b.n:
        raise ValueError(f"mismatched ground sizes {a.n} and {b.n}")


def combine(s: AdmissibleSet, t: AdmissibleSet) -> tuple[AdmissibleSet, AdmissibleSet]:
    """Componentwise meet and the conflict-dropping join of two admissible sets.

    The join keeps an element exactly when its bar does not also occur in the
    plain union, so indices taken with opposite signs cancel.
    """
    _require_same_ground(s, t)
    meet = AdmissibleSet(s.n, s.pos & t.pos, s.neg & t.neg)
    upos, uneg = s.pos | t.pos, s.neg | t.neg
    conflict = upos & uneg
    join = AdmissibleSet(s.n, upos & ~conflict, uneg & ~conflict)
    return meet, join


def dot(s: AdmissibleSet, t: AdmissibleSet) -> int:
    """Inner product of the two signed indicator vectors."""
    _require_same_ground(s, t)
    return (
        (s.pos & t.pos).bit_count()
        + (s.neg & t.neg).bit_count()
        - (s.pos & t.neg).bit_count()
        - (s.neg & t.pos).bit_count()
    )


TAIL_WIDTH = 9  # a block's tail ranges over the top indices, so it holds at most 3^9 sets


def _walk(low: int, high: int) -> tuple[list[int], list[int]]:
    """The code and the size of each set on the indices low+1..high in the order +i, -i, skip i, lowest i first."""
    codes, sizes = [0], [0]
    for i in reversed(range(low, high)):  # index i + 1, as code unit, before the sets above it
        codes = [3**i + c for c in codes] + [2 * 3**i + c for c in codes] + codes
        sizes = [k + 1 for k in sizes] * 2 + sizes
    return codes, sizes


def _walk_labels(low: int, high: int) -> list[str]:
    """The ``render()`` label of each set of ``_walk(low, high)``, in its order."""
    labels = [""]
    for i in reversed(range(low, high)):
        labels = [f"{e} {x}" if x else e for e in (str(i + 1), str(-i - 1)) for x in labels] + labels
    return labels


def _tail_groups(n: int, sizes: list[int], items: Iterable) -> list[tuple]:
    """The items of the sets on the top ``TAIL_WIDTH`` indices, in walk order, with these sizes, as the tails: one
    per size, each in walk order; all sets in one tail, by size, at n <= TAIL_WIDTH."""
    groups: list[list] = [[] for _ in range(min(n, TAIL_WIDTH) + 1)]
    for size, item in zip(sizes, items):
        groups[size].append(item)
    return [tuple(group) for group in groups] if n > TAIL_WIDTH else [tuple(chain.from_iterable(groups))]


def _getter(positions: list[int]) -> Callable[[Sequence], tuple]:
    """itemgetter of the positions, a tuple even for one position, which itemgetter would give as a scalar."""
    return itemgetter(*positions) if len(positions) > 1 else lambda seq: (seq[positions[0]],)


@lru_cache(maxsize=None)
def _tails(n: int) -> tuple[tuple[tuple[int, ...], Callable[[Sequence], tuple]], ...]:
    """(codes, read) of the sets of each size on the top ``TAIL_WIDTH`` indices; all sets at n <= TAIL_WIDTH."""
    check_guard(n)
    if n < 0:
        raise ValueError("ground size must be non-negative")
    low = max(n - TAIL_WIDTH, 0)
    codes, sizes = _walk(low, n)
    return tuple((tail, _getter([c // 3**low for c in tail])) for tail in _tail_groups(n, sizes, codes))


@lru_cache(maxsize=None)
def _tail_labels(n: int) -> tuple[tuple[str, ...], ...]:
    """The ``render()`` labels of each tail of ``_tails``: built only for the readers that print or check them."""
    low = max(n - TAIL_WIDTH, 0)
    return tuple(_tail_groups(n, _walk(low, n)[1], _walk_labels(low, n)))


@lru_cache(maxsize=None)
def _tail_places(n: int) -> Callable[[Sequence], tuple]:
    """Reads the items of one prefix's sets, its tails in order, into the order of their codes.

    Each prefix of ``_blocks`` meets every tail once, in order, so one getter, the inverse of the
    tail reads, serves every prefix (``code_order``).
    """
    stride = 3 ** max(n - TAIL_WIDTH, 0)
    local = [c // stride for codes, _ in _tails(n) for c in codes]
    places = [0] * len(local)
    for p, c in enumerate(local):
        places[c] = p
    return _getter(places)


def _blocks(n: int) -> Iterator[tuple[int, int, int]]:
    """(prefix code, prefix position in ``_walk(0, n - TAIL_WIDTH)``, tail index) of each block, in canonical order.

    Among the sets of one size, ``_walk`` order is canonical, so size k is walked as the prefixes on the indices
    1..n - TAIL_WIDTH, each with the tail of the k - |prefix| sets above them.  Checks the guard before the caller
    reads anything.
    """
    check_guard(n)
    tails, heads = len(_tails(n)), list(enumerate(zip(*_walk(0, n - TAIL_WIDTH))))
    return ((code, h, k - s) for k in range(n + 1) for h, (code, s) in heads if 0 <= k - s < tails)


def canonical_blocks(n: int) -> Iterator[tuple[str, ...]]:
    """The ``render()`` labels of the canonical order (size, then signed lex), one tuple per block.

    The values of a block are its read in ``canonical_reads``.  At n <= TAIL_WIDTH one block holds the whole
    order.  Checks the guard before the caller reads anything.
    """
    blocks, labels = _blocks(n), _tail_labels(n)
    heads = _walk_labels(0, n - TAIL_WIDTH)
    return (_block_labels(heads[h], labels[t]) for _, h, t in blocks)


def _block_labels(label: str, labels: tuple[str, ...]) -> tuple[str, ...]:
    """The ``render()`` of a block's sets: the prefix's label, then each tail label."""
    return tuple(f"{label} {x}" if x else label for x in labels) if label else labels


def canonical_reads(n: int, by_code: Sequence) -> Iterator[tuple]:
    """A sequence indexed by code, read out one block at a time; a block reads a slice, a view of a memoryview."""
    blocks, tails, stride = _blocks(n), _tails(n), 3 ** max(n - TAIL_WIDTH, 0)
    return (tails[t][1](by_code[code::stride]) for code, _, t in blocks)


def canonical_tuple(n: int, by_code: Sequence) -> tuple:
    """A sequence indexed by code as one tuple in canonical order: at n <= TAIL_WIDTH, the one block's read."""
    reads = canonical_reads(n, by_code)
    return next(reads) if n <= TAIL_WIDTH else tuple(chain.from_iterable(reads))


def code_order(n: int, canonical: Sequence, by_code: MutableSequence) -> MutableSequence:
    """Fills ``by_code``, a list or bytearray of 3^n items, from the items in canonical order: the inverse of
    ``canonical_reads``.  Each prefix's items, gathered from its blocks, go to its codes through one getter."""
    blocks, tails, stride = _blocks(n), _tails(n), 3 ** max(n - TAIL_WIDTH, 0)
    parts: dict[int, list] = {}
    start = 0
    for code, _, t in blocks:
        end = start + len(tails[t][0])
        parts.setdefault(code, []).append(canonical[start:end])
        start = end
    place = _tail_places(n)
    for code, chunks in parts.items():
        by_code[code::stride] = place(chunks[0] if len(chunks) == 1 else list(chain.from_iterable(chunks)))
    return by_code


def walk_codes(n: int) -> Iterator[int]:
    """Every code in canonical order, one block at a time."""
    blocks, tails = _blocks(n), _tails(n)
    return chain.from_iterable(map(code.__add__, tails[t][0]) if code else tails[t][0] for code, _, t in blocks)


def plane_of(bits: Iterable[int], width: int) -> int:
    """The plane of ``width`` bits that marks these bits, marked in a byte array and made into one int."""
    marks = bytearray((width + 7) >> 3)
    for b in bits:
        marks[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(marks, "little")


@lru_cache(maxsize=None)
def digit_planes(n: int) -> tuple[int, ...]:
    """The digit-1 plane of each index over the base-3 codes.

    A plane is one int with bit c standing for the set with code c.  Plane i
    marks the codes whose digit i is 1: the middle 3^i bits of every period
    of 3^(i+1).  It is built by doubling shifts, as long division at 3^n bits
    is quadratic.
    """
    check_guard(n)
    total = 3**n
    full = (1 << total) - 1
    ones = []
    for i in range(n):
        step = 3**i
        plane, width = ((1 << step) - 1) << step, 3 * step
        while width < total:
            plane |= plane << width
            width *= 2
        ones.append(plane & full)
    return tuple(ones)


@lru_cache(maxsize=None)
def size_planes(n: int) -> tuple[int, ...]:
    """The plane of each size 0..n over the base-3 codes: plane s marks the codes with s nonzero digits.

    Adding digit k takes size s - 1 to size s at offsets 3^k and 2·3^k.
    """
    check_guard(n)
    sizes = [1]  # the size planes of the codes on the digits so far
    for k in range(n):
        step = 3**k
        sizes.append(0)
        for s in range(k + 1, 0, -1):
            below = sizes[s - 1]
            sizes[s] |= below << step | below << 2 * step
    return tuple(sizes)


@lru_cache(maxsize=None)
def mask_weights(n: int) -> tuple[int, ...]:
    """``int(f"{m:b}", 3)`` for each of the 2^n bitmasks m: bit i of m weighs 3^i; built by doubling."""
    check_guard(n)
    weights = [0]
    for i in range(n):
        weights += [w + 3**i for w in weights]
    return tuple(weights)


@lru_cache(maxsize=None)
def mask_reversals(n: int) -> tuple[int, ...]:
    """Each of the 2^n bitmasks with its n bits in reverse order: bit i goes to bit n - 1 - i."""
    check_guard(n)
    reversed_ = [0]
    for _ in range(n):  # a new top bit lands at bit 0
        reversed_ = [2 * r for r in reversed_] + [2 * r + 1 for r in reversed_]
    return tuple(reversed_)


def code_masks(n: int) -> tuple[list[int], list[int]]:
    """The unbarred and the barred bitmask of each set, indexed by base-3 code."""
    check_guard(n)
    pos, neg = [0], [0]  # one index at a time
    for i in range(n):
        bit = 1 << i
        pos, neg = pos + [p | bit for p in pos] + pos, neg + neg + [q | bit for q in neg]
    return pos, neg


def set_of_code(n: int, code: int) -> AdmissibleSet:
    """The set with this base-3 code, decoded alone, as for a violation witness."""
    pos = neg = 0
    for i in range(n):
        code, state = divmod(code, 3)
        if state == 1:
            pos |= 1 << i
        elif state == 2:
            neg |= 1 << i
    return AdmissibleSet(n, pos, neg)


def enumerate_admissible(n: int) -> tuple[AdmissibleSet, ...]:
    """All 3^n admissible sets in canonical order, decoded from ``walk_codes``; not cached."""
    pos, neg = code_masks(n)
    return tuple(AdmissibleSet(n, pos[c], neg[c]) for c in walk_codes(n))


@dataclass(frozen=True)
class SignedPermutation:
    """A permutation of the signed ground set commuting with the bar involution.

    ``image[i-1]`` is the signed target of index ``i``; the action extends to
    barred indices by mapping ``-i`` to the bar of ``image[i-1]``.
    """

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.n:
            raise ValueError("permutation image must list a target per index")
        seen = set()
        for v in self.image:
            i = abs(v)
            if v == 0 or i > self.n or i in seen:
                raise ValueError("underlying map is not a bijection of the indices")
            seen.add(i)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def bar_swap(cls, n: int, indices: Iterable[int] | None = None) -> "SignedPermutation":
        """Swap i and its bar on the given indices (all of them by default)."""
        flip = set(range(1, n + 1)) if indices is None else set(indices)
        return cls(n, tuple(-i if i in flip else i for i in range(1, n + 1)))

    def map_element(self, e: int) -> int:
        v = self.image[abs(e) - 1]
        return v if e > 0 else -v

    def apply(self, s: AdmissibleSet) -> AdmissibleSet:
        if s.n != self.n:
            raise ValueError(f"mismatched ground sizes {s.n} and {self.n}")
        return AdmissibleSet.from_elements(self.n, (self.map_element(e) for e in s.elements()))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return SignedPermutation(self.n, tuple(inv))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("mismatched ground sizes")
        return SignedPermutation(self.n, tuple(self.map_element(v) for v in other.image))
