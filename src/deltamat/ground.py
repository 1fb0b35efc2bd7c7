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
from itertools import product
from typing import Iterable

DEFAULT_GUARD_LIMIT = 16
GUARD_ENV = "DELTAMAT_GUARD_LIMIT"


class GuardLimitError(RuntimeError):
    """An enumeration over 3^n (or 2^n) sets would exceed the size guard."""


def guard_limit() -> int:
    raw = os.environ.get(GUARD_ENV, "").strip()
    return int(raw) if raw else DEFAULT_GUARD_LIMIT


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
        if self.pos & self.neg:
            raise ValueError("inadmissible set: some index appears with both signs")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "AdmissibleSet":
        """Build from signed integers, e.g. ``[1, -2]`` for {1, 2bar}."""
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
        return cls(n, pos, neg)

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
        return (self.size, tuple((abs(e), 0 if e > 0 else 1) for e in self.elements()))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "{%s}" % self.render()


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
def enumerate_admissible(n: int) -> tuple[AdmissibleSet, ...]:
    """All 3^n admissible sets in canonical order (size, then signed lex)."""
    check_guard(n)
    sets = []
    for states in product((0, 1, 2), repeat=n):
        pos = neg = 0
        for i, st in enumerate(states):
            if st == 1:
                pos |= 1 << i
            elif st == 2:
                neg |= 1 << i
        sets.append(AdmissibleSet(n, pos, neg))
    sets.sort(key=AdmissibleSet.sort_key)
    return tuple(sets)


@lru_cache(maxsize=None)
def canonical_codes(n: int) -> tuple[int, ...]:
    """Base-3 code of each set in canonical order.

    The code of S is sum(state_i * 3^i) over indices i = 0..n-1, where state
    0 leaves index i+1 out, 1 takes it unbarred and 2 takes it barred.  Rank
    tables are computed in code order and read out through this permutation.
    """
    weight = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        weight[m] = weight[m ^ low] + 3 ** (low.bit_length() - 1)
    return tuple(weight[s.pos] + 2 * weight[s.neg] for s in enumerate_admissible(n))


@lru_cache(maxsize=None)
def canonical_positions(n: int) -> tuple[int, ...]:
    """Canonical position of each set, indexed by its base-3 code.

    The inverse of ``canonical_codes``: adding k·3^i to the code of a set
    that leaves index i+1 out adds i+1 (k = 1) or its bar (k = 2).
    """
    position = [0] * 3**n
    for p, code in enumerate(canonical_codes(n)):
        position[code] = p
    return tuple(position)


@lru_cache(maxsize=None)
def canonical_sizes(n: int) -> tuple[int, ...]:
    """Size of each set in canonical order."""
    return tuple(s.size for s in enumerate_admissible(n))


@lru_cache(maxsize=None)
def admissible_index(n: int) -> dict[tuple[int, int], int]:
    """Map (pos, neg) -> position in the canonical enumeration."""
    return {(s.pos, s.neg): i for i, s in enumerate(enumerate_admissible(n))}


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
