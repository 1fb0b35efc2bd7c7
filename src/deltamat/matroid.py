"""Matroids by explicit basis lists, and their bridges to delta-matroids.

Grounds are tuples of integers: plain grounds use 1..m, signed grounds use
both signs of 1..n (so subsets may be inadmissible, e.g. {1, -1}, which is
deliberate: enveloping matroids range over all subsets of the signed ground).
Includes the Whitney rank generating function, the two delta-matroid
constructions from a matroid with their closed rank/enumerator formulas, the
principal-minor construction from a symmetric GF(2) matrix, and verification
plus brute-force search for enveloping matroids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .deltamatroid import DeltaMatroid, g_lanes, independent_plane, max_plus_dot, plane_codes
from .ground import (
    AdmissibleSet, GuardLimitError, check_guard, element_key, plane_of, set_of_code, signed_ground, submasks,
)
from .poly import MultiPoly, poly_u_v
from .rankfn import AxiomReport, Violation


def _set_key(xs: frozenset[int]) -> tuple:
    return tuple(sorted(map(element_key, xs)))


def render_subset(xs: Iterable[int]) -> str:
    return " ".join(str(e) for e in sorted(xs, key=element_key))


class Matroid:
    """A ground tuple plus a canonical tuple of equal-size bases."""

    __slots__ = ("ground", "bases")

    def __init__(self, ground: Iterable[int], bases: Iterable[Iterable[int]]):
        g = tuple(sorted(set(ground), key=element_key))
        bs = sorted({frozenset(b) for b in bases}, key=_set_key)
        if not bs:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in bs}
        if len(sizes) != 1:
            raise ValueError("bases must all have the same size")
        for b in bs:
            if not b <= set(g):
                raise ValueError("basis element outside the ground set")
        self.ground = g
        self.bases = tuple(bs)

    @classmethod
    def plain(cls, m: int, bases: Iterable[Iterable[int]]) -> "Matroid":
        return cls(range(1, m + 1), bases)

    @classmethod
    def signed(cls, n: int, bases: Iterable[Iterable[int]]) -> "Matroid":
        return cls(signed_ground(n), bases)

    @classmethod
    def uniform(cls, r: int, m: int) -> "Matroid":
        if not 0 <= r <= m:
            raise ValueError("rank must lie between 0 and the ground size")
        return cls.plain(m, combinations(range(1, m + 1), r))

    @classmethod
    def pair_partition(cls, n: int) -> "Matroid":
        """Bases are the transversals of the pairs {i, -i}."""
        bases = [[]]
        for i in range(1, n + 1):
            bases = [b + [s * i] for b in bases for s in (1, -1)]
        return cls.signed(n, bases)

    @property
    def rank(self) -> int:
        return len(self.bases[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.ground == other.ground and self.bases == other.bases

    def __hash__(self) -> int:
        return hash((self.ground, self.bases))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Matroid(ground=%s, bases=[%s])" % (
            self.ground,
            ", ".join("{%s}" % render_subset(b) for b in self.bases),
        )

    def rank_of(self, subset: Iterable[int]) -> int:
        a = frozenset(subset)
        if not a <= set(self.ground):
            raise ValueError("subset leaves the ground set")
        return max(len(a & b) for b in self.bases)

    def is_independent(self, subset: Iterable[int]) -> bool:
        a = frozenset(subset)
        return any(a <= b for b in self.bases)


def validate_matroid(m: Matroid) -> AxiomReport:
    """Basis exchange: for x in B1 - B2 some y in B2 - B1 rebalances B1.

    The ground is sorted by element order, so the failing x of a pair come
    out in that order.
    """
    masks = _basis_masks(m)
    failures = _exchange_failures(masks, len(m.ground), set(masks))
    return AxiomReport.from_violations(
        [Violation("basis-exchange", (m.bases[i], m.bases[j]), m.ground[k], 0) for i, j, k in failures]
    )


def _basis_masks(m: Matroid) -> list[int]:
    """Each basis as a bitmask over the ground tuple: bit k stands for ground[k]."""
    bit = {e: 1 << k for k, e in enumerate(m.ground)}
    return [sum(bit[e] for e in b) for b in m.bases]


def _exchange_failures(masks: Sequence[int], width: int, allowed: set[int]) -> Iterator[tuple[int, int, int]]:
    """(i, j, k) for each bit k of masks[i] - masks[j] that no bit y of masks[j] - masks[i]
    can replace with masks[i] - k + y in ``allowed``, in order, lazily."""
    for i, m1 in enumerate(masks):
        inside = [k for k in range(width) if m1 >> k & 1]
        outside = [k for k in range(width) if not m1 >> k & 1]
        # repairs[k]: the y whose swap for bit k turns m1 into an allowed mask
        repairs = {k: sum(1 << y for y in outside if ((m1 ^ 1 << k) | 1 << y) in allowed) for k in inside}
        for j, m2 in enumerate(masks):
            lost, gained = m1 & ~m2, m2 & ~m1
            for k in inside:
                if lost >> k & 1 and not repairs[k] & gained:
                    yield i, j, k


def _ranks(m: Matroid) -> list[int]:
    """r_M of every subset by its mask over the ground tuple: the largest overlap with a basis."""
    check_guard(len(m.ground))
    bases = _basis_masks(m)
    return [max((a & b).bit_count() for b in bases) for a in range(1 << len(m.ground))]


def rank_generating(m: Matroid) -> MultiPoly:
    """Whitney rank generating function R_M(u, v) summed over all subsets."""
    counts = Counter((m.rank - rk, a.bit_count() - rk) for a, rk in enumerate(_ranks(m)))
    return MultiPoly(("u", "v"), counts)


# -- delta-matroids from matroids ------------------------------------------------


def _require_plain(m: Matroid) -> int:
    n = len(m.ground)
    if m.ground != tuple(range(1, n + 1)):
        raise ValueError("construction needs a plain matroid on 1..n")
    return n


def dm_from_matroid(m: Matroid, mode: str) -> DeltaMatroid:
    """Feasible sets X + bar(complement of X), X over bases or independent sets."""
    n = _require_plain(m)
    bases = _basis_masks(m)  # bit k holds element k + 1
    if mode == "bases":
        return DeltaMatroid(n, bases)
    if mode == "independents":
        check_guard(n)
        return DeltaMatroid(n, {s for b in bases for s in submasks(b)})
    raise ValueError(f"unknown mode {mode!r}")


def example15_rank(m: Matroid, s: AdmissibleSet, mode: str) -> int:
    """Closed formulas for the rank of the two matroid constructions."""
    n = _require_plain(m)
    if s.n != n:
        raise ValueError("set does not match the matroid ground")
    s_plus = [i for i in range(1, n + 1) if s.pos >> (i - 1) & 1]
    if mode == "independents":
        return s.size + 2 * m.rank_of(s_plus) - 2 * len(s_plus)
    if mode == "bases":
        untouched = [i for i in range(1, n + 1) if not (s.underline >> (i - 1)) & 1]
        return (
            s.size
            - 2 * m.rank
            + 2 * m.rank_of(s_plus + untouched)
            - 2 * len(s_plus)
            + 2 * m.rank_of(s_plus)
        )
    raise ValueError(f"unknown mode {mode!r}")


def example15_upoly(m: Matroid, mode: str) -> MultiPoly:
    """Closed enumerator formulas for the two matroid constructions.

    The independents-mode formula is transcribed exactly as printed at the
    source and is known to disagree with the direct enumerator on examples as
    small as the free matroid on one element; callers compare rather than
    trust it.
    """
    n = _require_plain(m)
    ranks = _ranks(m)
    r = m.rank
    if mode == "bases":  # S and each T inside S: u^(|S| - |T|) v^(r - r(S) + |T| - r(T))
        pairs = ((s, rk, t) for s, rk in enumerate(ranks) for t in submasks(s))
        counts = Counter((s.bit_count() - t.bit_count(), r - rk + t.bit_count() - ranks[t]) for s, rk, t in pairs)
        return MultiPoly(("u", "v"), counts)
    if mode == "independents":  # each distinct exponent triple of the printed product, expanded once
        u, v = poly_u_v()
        triples = Counter((r - rk, a.bit_count() - rk, n - r - a.bit_count() + rk) for a, rk in enumerate(ranks))
        terms = (c * (u + 3) ** i * (2 * u + v + 2) ** j * (u + 1) ** k for (i, j, k), c in triples.items())
        return sum(terms, MultiPoly.zero(("u", "v")))
    raise ValueError(f"unknown mode {mode!r}")


# -- GF(2) principal-minor construction ------------------------------------------


@dataclass(frozen=True)
class Gf2SymMatrix:
    """Symmetric matrix over GF(2), rows packed as bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("row count does not match the size")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row > full:
                raise ValueError("row mask outside the matrix size")
            for j in range(self.n):
                if (row >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError("matrix is not symmetric")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "Gf2SymMatrix":
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(sum((1 << j) for j, x in enumerate(row) if x & 1))
        return cls(n, tuple(rows))


def _nonsingular(rows: Sequence[int], x: int) -> bool:
    """Is A[X] invertible (X a mask), i.e. are its rows cut to X independent over GF(2)?

    ``min(v, v ^ b)`` clears the top bit of b from v, and no kept row holds
    the top bit of an earlier one, so a reduced row holds no kept top bit:
    it is zero exactly when the row lies in their span.
    """
    basis: list[int] = []
    rest = x
    while rest:
        low = rest & -rest
        rest ^= low
        v = rows[low.bit_length() - 1] & x
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


def dm_from_gf2(a: Gf2SymMatrix) -> DeltaMatroid:
    """Feasible sets are X + bar(complement) for X with A[X] nonsingular."""
    check_guard(a.n)
    return DeltaMatroid(a.n, [x for x in range(1 << a.n) if _nonsingular(a.rows, x)])


# -- upper matroid -----------------------------------------------------------------


def upper_matroid(d: DeltaMatroid, window: AdmissibleSet) -> Matroid:
    """The matroid of maximal overlaps of feasible sets with a full-size window."""
    if window.n != d.n or window.size != d.n:
        raise ValueError("the window must be an admissible set of full size")
    full = (1 << d.n) - 1
    overlaps = {~(p ^ window.pos) & full for p in d.feasible}  # the indices where p agrees with the window
    r = max(map(int.bit_count, overlaps))
    signed = window.elements()  # one element per index, in index order
    return Matroid(signed, [[e for k, e in enumerate(signed) if o >> k & 1] for o in overlaps if o.bit_count() == r])


# -- enveloping matroids -------------------------------------------------------------
# A subset of the signed ground is a bitmask over signed_ground(n): bits 2i and 2i + 1 hold i + 1 and -(i + 1).


def env_project(x: Sequence) -> tuple:
    """Fold a vector on the signed ground set down to n coordinates, i minus bar-i."""
    if len(x) % 2:
        raise ValueError("vector length must be even: n unbarred then n barred slots")
    n = len(x) // 2
    return tuple(x[i] - x[n + i] for i in range(n))


def _fold_code(n: int, b: int) -> int:
    """The base-3 code of the fold of b: digit 1 (+1) where b holds only i, 2 (-1) where only -i."""
    return sum((b >> 2 * i & 3) % 3 * 3**i for i in range(n))


def _admissible_subsets(n: int, b: int) -> list[int]:
    """The codes of the admissible subsets of b."""
    codes = [0]
    for i in range(n):
        codes += [c + state * 3**i for state in (1, 2) if b >> 2 * i & state for c in codes]
    return codes


def _envelope_tables(d: DeltaMatroid) -> tuple[int, list[bool]]:
    """The plane of D's independent sets (``independent_plane``), and by code whether each point x of
    {-1, 0, 1}^n lies in P(D): max over S of <e_S, x> - g(S) <= 0 (the empty S gives 0); g_lanes checks the guard."""
    g = g_lanes(d.n, d.feasible)
    independent = independent_plane(d.n, d.feasible)
    return independent, [v <= 0 for v in max_plus_dot(d.n, [-v for v in g])]


def _feasible_masks(d: DeltaMatroid) -> list[int]:
    """Each feasible set as a bitmask over the signed ground: i where it is unbarred, -i elsewhere."""
    return [sum(1 << (2 * i + 1 - (f >> i & 1)) for i in range(d.n)) for f in d.feasible]


def enveloping_check(m: Matroid, d: DeltaMatroid) -> AxiomReport:
    """Does the fold of the matroid base polytope equal the delta-matroid polytope?

    Since feasible indicator vectors are cube vertices this reduces to: every
    feasible set is a basis, and every basis folds into the polytope.  The
    independent-set coincidence on admissible sets is asserted as part of the
    pass condition.
    """
    n = d.n
    if m.ground != signed_ground(n):
        raise ValueError("enveloping candidate must live on the full signed ground set")
    if m.rank != n:
        raise ValueError(f"enveloping candidate must have rank {n}, got {m.rank}")
    independent, inside = _envelope_tables(d)
    bases = _basis_masks(m)
    basis_set = set(bases)
    out: list[Violation] = []
    for f, b in zip(d.feasible, _feasible_masks(d)):
        if b not in basis_set:
            out.append(Violation("feasible-not-basis", (AdmissibleSet(n, f, f ^ ((1 << n) - 1)),), 0, 1))
    for basis, b in zip(m.bases, bases):
        if not inside[_fold_code(n, b)]:
            out.append(Violation("basis-folds-outside", (basis,), 0, 1))
    if not out:
        in_m = plane_of(chain.from_iterable(_admissible_subsets(n, b) for b in bases), 3**n)
        for c in plane_codes(n, independent ^ in_m):
            out.append(Violation("independents-differ", (set_of_code(n, c),), in_m >> c & 1, independent >> c & 1))
    return AxiomReport.from_violations(out)


@dataclass(frozen=True)
class EnvelopeSearch:
    status: str  # found | none | inconclusive
    matroid: "Matroid | None"
    examined: int


def enveloping_search(d: DeltaMatroid, limit: int = 200_000) -> EnvelopeSearch:
    """Search basis families containing the feasible sets for an enveloping matroid.

    Candidate extra bases are restricted to full-size subsets whose fold lies
    in the delta-matroid polytope; families are tried in canonical order
    (fewest extras first), so the first hit is deterministic.  Exhausting the
    candidate space proves none exists; exhausting the budget does not.

    A family passes ``enveloping_check`` exactly when it is a matroid.  The
    feasible sets are bases, and all bases fold into P(D).  The admissible
    subsets of the feasible sets are the independent sets of D, and an extra
    basis B adds no other: with n <= 3 elements B takes both signs of at most
    one index, so an admissible S inside B has |S| >= g(S) >= <e_S, fold(B)>
    >= |S| - 1, and g(S) has the parity of |S|.
    """
    n = d.n
    if n > 3:
        raise GuardLimitError("envelope search is limited to ground size 3")
    _, inside = _envelope_tables(d)
    required = _feasible_masks(d)
    # the full-size subsets in canonical order, as masks (bit k holds signed_ground(n)[k])
    subsets = (sum(1 << k for k in c) for c in combinations(range(2 * n), n))
    pool = [b for b in subsets if b not in required and inside[_fold_code(n, b)]]

    # sound pruning: an exchange failure between two required bases that no
    # candidate in the pool can repair rules out every family at once
    if next(_exchange_failures(required, 2 * n, set(required + pool)), None) is not None:
        return EnvelopeSearch("none", None, 0)

    examined = 0
    for k in range(len(pool) + 1):
        for extras in combinations(pool, k):
            if examined >= limit:
                return EnvelopeSearch("inconclusive", None, examined)
            examined += 1
            family = required + list(extras)
            if next(_exchange_failures(family, 2 * n, set(family)), None) is None:
                ground = signed_ground(n)
                bases = [[e for bit, e in enumerate(ground) if b >> bit & 1] for b in family]
                return EnvelopeSearch("found", Matroid.signed(n, bases), examined)
    return EnvelopeSearch("none", None, examined)
