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
from typing import Callable, Iterable, Sequence

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


@lru_cache(maxsize=None)
def canonical_codes(n: int) -> tuple[int, ...]:
    """Base-3 code of each set in canonical order (size, then signed lex).

    The code of S is sum(state_i * 3^i) over indices i = 0..n-1, where state
    0 leaves index i+1 out, 1 takes it unbarred and 2 takes it barred.  The
    k-sets on indices i+1 and up are +(i+1), then -(i+1), each followed by the
    (k-1)-sets above i+1, then the k-sets above i+1.  Rank tables are computed
    in code order and read out through this permutation.
    """
    check_guard(n)
    by_size = [[0]] + [[] for _ in range(n)]  # by_size[k]: the k-sets on the indices so far
    for i in reversed(range(n)):
        unit = 3**i
        for k in range(n - i, 0, -1):  # by_size[k - 1] still ranges above i
            tails = by_size[k - 1]
            by_size[k] = [unit + c for c in tails] + [2 * unit + c for c in tails] + by_size[k]
    return tuple(chain.from_iterable(by_size))


@lru_cache(maxsize=None)
def canonical_order(n: int) -> Callable[[Sequence], tuple]:
    """Reads a sequence indexed by base-3 code out in canonical order, as a tuple."""
    check_guard(n)
    codes = canonical_codes(n)
    return itemgetter(*codes) if n else lambda by_code: (by_code[0],)  # itemgetter of one code gives a scalar


@lru_cache(maxsize=None)
def code_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Planes over the base-3 codes: the digit-1 plane of each index and the plane of each size.

    A plane is one int with bit c standing for the set with code c.
    ``ones[i]`` marks the codes whose digit i is 1: the middle 3^i bits of
    every period of 3^(i+1).  It is built by doubling shifts, as long
    division at 3^n bits is quadratic.  ``sizes[s]`` marks the codes with s
    nonzero digits; adding digit k takes size s - 1 to size s at offsets
    3^k and 2·3^k.
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
    sizes = [1]  # the size planes of the codes on the digits so far
    for k in range(n):
        step = 3**k
        sizes.append(0)
        for s in range(k + 1, 0, -1):
            below = sizes[s - 1]
            sizes[s] |= below << step | below << 2 * step
    return tuple(ones), tuple(sizes)


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


@lru_cache(maxsize=None)
def canonical_labels(n: int) -> tuple[str, ...]:
    """``render()`` of each set in canonical order, built from the codes, not from sets.

    By code, index i joins the labels so far as ``i`` (code + 3^(i-1)) and as
    ``-i`` (code + 2·3^(i-1)); it is the largest index yet, so it goes last.
    """
    check_guard(n)
    if n < 0:
        raise ValueError("ground size must be non-negative")
    labels = [""]
    for i in range(1, n + 1):
        plus, minus = str(i), str(-i)
        labels += [f"{x} {plus}" if x else plus for x in labels] + [f"{x} {minus}" if x else minus for x in labels]
    return tuple(map(labels.__getitem__, canonical_codes(n)))


@lru_cache(maxsize=None)
def enumerate_admissible(n: int) -> tuple[AdmissibleSet, ...]:
    """All 3^n admissible sets in canonical order, decoded from ``canonical_codes``."""
    pos, neg = code_masks(n)
    return tuple(AdmissibleSet(n, pos[c], neg[c]) for c in canonical_codes(n))


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
