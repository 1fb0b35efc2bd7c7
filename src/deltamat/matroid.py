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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .deltamatroid import DeltaMatroid
from .ground import AdmissibleSet, GuardLimitError, check_guard, enumerate_admissible
from .poly import MultiPoly, poly_u_v
from .rankfn import AxiomReport, Violation, polytope_membership


def _elem_key(e: int) -> tuple[int, int]:
    return (abs(e), 0 if e > 0 else 1)


def _set_key(xs: frozenset[int]) -> tuple:
    return tuple(sorted((_elem_key(e) for e in xs)))


def render_subset(xs: Iterable[int]) -> str:
    return " ".join(str(e) for e in sorted(xs, key=_elem_key))


class Matroid:
    """A ground tuple plus a canonical tuple of equal-size bases."""

    __slots__ = ("ground", "bases")

    def __init__(self, ground: Iterable[int], bases: Iterable[Iterable[int]]):
        g = tuple(sorted(set(ground), key=_elem_key))
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
        ground = [i for k in range(1, n + 1) for i in (k, -k)]
        return cls(ground, bases)

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

    def independent_sets(self) -> list[frozenset[int]]:
        seen: set[frozenset[int]] = set()
        for b in self.bases:
            items = sorted(b, key=_elem_key)
            for k in range(len(items) + 1):
                seen.update(frozenset(c) for c in combinations(items, k))
        return sorted(seen, key=_set_key)

    def is_independent(self, subset: Iterable[int]) -> bool:
        a = frozenset(subset)
        return any(a <= b for b in self.bases)


def validate_matroid(m: Matroid) -> AxiomReport:
    """Basis exchange: for x in B1 - B2 some y in B2 - B1 rebalances B1.

    Bases are read as bitmasks over the ground tuple.  The ground is sorted
    by element order, so the failing x of a pair come out in that order.
    """
    out: list[Violation] = []
    bit = {e: 1 << k for k, e in enumerate(m.ground)}
    masks = [sum(bit[e] for e in b) for b in m.bases]
    bases = set(masks)
    width = len(m.ground)
    for b1, m1 in zip(m.bases, masks):
        inside = [k for k in range(width) if m1 >> k & 1]
        outside = [k for k in range(width) if not m1 >> k & 1]
        # repairs[k]: the y whose swap for ground[k] turns b1 into a basis
        repairs = {k: sum(1 << y for y in outside if ((m1 ^ 1 << k) | 1 << y) in bases) for k in inside}
        for b2, m2 in zip(m.bases, masks):
            lost, gained = m1 & ~m2, m2 & ~m1
            for k in inside:
                if lost >> k & 1 and not repairs[k] & gained:
                    out.append(Violation("basis-exchange", (b1, b2), m.ground[k], 0))
    return AxiomReport.from_violations(out)


def rank_generating(m: Matroid) -> MultiPoly:
    """Whitney rank generating function R_M(u, v) summed over all subsets."""
    check_guard(len(m.ground))
    u, v = poly_u_v()
    r = m.rank
    total = MultiPoly.zero(("u", "v"))
    items = list(m.ground)
    for k in range(len(items) + 1):
        for c in combinations(items, k):
            rk = m.rank_of(c)
            total = total + u ** (r - rk) * v ** (k - rk)
    return total


# -- delta-matroids from matroids ------------------------------------------------


def _require_plain(m: Matroid) -> int:
    n = len(m.ground)
    if m.ground != tuple(range(1, n + 1)):
        raise ValueError("construction needs a plain matroid on 1..n")
    return n


def _mask(xs: Iterable[int]) -> int:
    out = 0
    for e in xs:
        out |= 1 << (e - 1)
    return out


def dm_from_matroid(m: Matroid, mode: str) -> DeltaMatroid:
    """Feasible sets X + bar(complement of X), X over bases or independent sets."""
    n = _require_plain(m)
    if mode == "bases":
        masks = [_mask(b) for b in m.bases]
    elif mode == "independents":
        check_guard(n)
        masks = [_mask(i) for i in m.independent_sets()]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return DeltaMatroid(n, masks)


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
    check_guard(n)
    u, v = poly_u_v()
    r = m.rank
    total = MultiPoly.zero(("u", "v"))
    items = list(range(1, n + 1))
    if mode == "bases":
        for k in range(n + 1):
            for s_sub in combinations(items, k):
                rk_s = m.rank_of(s_sub)
                for k2 in range(k + 1):
                    for t_sub in combinations(s_sub, k2):
                        rk_t = m.rank_of(t_sub)
                        total = total + u ** (k - k2) * v ** (r - rk_s + k2 - rk_t)
        return total
    if mode == "independents":
        base_u3 = u + 3
        base_mid = 2 * u + v + 2
        base_u1 = u + 1
        for k in range(n + 1):
            for a_sub in combinations(items, k):
                rk = m.rank_of(a_sub)
                total = total + (
                    base_u3 ** (r - rk) * base_mid ** (k - rk) * base_u1 ** (n - r - k + rk)
                )
        return total
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

    def principal_nonsingular(self, indices: Sequence[int]) -> bool:
        """Is the principal submatrix on the given 1-based indices invertible?"""
        xs = sorted(indices)
        k = len(xs)
        if k == 0:
            return True  # empty matrix counts as nonsingular
        sub = []
        for i in xs:
            packed = 0
            for col, j in enumerate(xs):
                if self.rows[i - 1] >> (j - 1) & 1:
                    packed |= 1 << col
            sub.append(packed)
        for col in range(k):
            pivot = next((r for r in range(col, k) if sub[r] >> col & 1), None)
            if pivot is None:
                return False
            sub[col], sub[pivot] = sub[pivot], sub[col]
            for r in range(k):
                if r != col and sub[r] >> col & 1:
                    sub[r] ^= sub[col]
        return True


def dm_from_gf2(a: Gf2SymMatrix) -> DeltaMatroid:
    """Feasible sets are X + bar(complement) for X with A[X] nonsingular."""
    check_guard(a.n)
    masks = []
    for mask in range(1 << a.n):
        xs = [i for i in range(1, a.n + 1) if mask >> (i - 1) & 1]
        if a.principal_nonsingular(xs):
            masks.append(mask)
    return DeltaMatroid(a.n, masks)


# -- upper matroid -----------------------------------------------------------------


def upper_matroid(d: DeltaMatroid, window: AdmissibleSet) -> Matroid:
    """The matroid of maximal overlaps of feasible sets with a full-size window."""
    if window.n != d.n or window.size != d.n:
        raise ValueError("the window must be an admissible set of full size")
    window_elems = frozenset(window.elements())
    overlaps = []
    for b in d.feasible_sets():
        overlaps.append(window_elems & frozenset(b.elements()))
    r = max(len(o) for o in overlaps)
    return Matroid(window_elems, [o for o in overlaps if len(o) == r])


# -- enveloping matroids -------------------------------------------------------------


def env_project(x: Sequence) -> tuple:
    """Fold a vector on the signed ground set down to n coordinates, i minus bar-i."""
    if len(x) % 2:
        raise ValueError("vector length must be even: n unbarred then n barred slots")
    n = len(x) // 2
    return tuple(x[i] - x[n + i] for i in range(n))


def _indicator(n: int, subset: frozenset[int]) -> tuple[int, ...]:
    vec = [0] * (2 * n)
    for e in subset:
        vec[e - 1 if e > 0 else n + (-e) - 1] = 1
    return tuple(vec)


def enveloping_check(m: Matroid, d: DeltaMatroid) -> AxiomReport:
    """Does the fold of the matroid base polytope equal the delta-matroid polytope?

    Since feasible indicator vectors are cube vertices this reduces to: every
    feasible set is a basis, and every basis folds into the polytope.  The
    independent-set coincidence on admissible sets is asserted as part of the
    pass condition.
    """
    n = d.n
    expected_ground = tuple(sorted((i for k in range(1, n + 1) for i in (k, -k)), key=_elem_key))
    if m.ground != expected_ground:
        raise ValueError("enveloping candidate must live on the full signed ground set")
    if m.rank != n:
        raise ValueError(f"enveloping candidate must have rank {n}, got {m.rank}")
    out: list[Violation] = []
    table = d.rank_table()
    basis_set = set(m.bases)
    for b in d.feasible_sets():
        if frozenset(b.elements()) not in basis_set:
            out.append(Violation("feasible-not-basis", (b,), 0, 1))
    for basis in m.bases:
        if not polytope_membership(table, env_project(_indicator(n, basis))):
            out.append(Violation("basis-folds-outside", (basis,), 0, 1))
    if not out:
        dm_indep = set(d.independents())
        m_indep = {
            s for s in enumerate_admissible(n) if m.is_independent(frozenset(s.elements()))
        }
        for s in sorted(dm_indep ^ m_indep, key=AdmissibleSet.sort_key):
            out.append(Violation("independents-differ", (s,), int(s in m_indep), int(s in dm_indep)))
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
    """
    n = d.n
    if n > 3:
        raise GuardLimitError("envelope search is limited to ground size 3")
    required = [frozenset(b.elements()) for b in d.feasible_sets()]
    required_set = set(required)
    table = d.rank_table()
    elements = [i for k in range(1, n + 1) for i in (k, -k)]
    pool = []
    for combo in combinations(sorted(elements, key=_elem_key), n):
        cand = frozenset(combo)
        if cand in required_set:
            continue
        if polytope_membership(table, env_project(_indicator(n, cand))):
            pool.append(cand)
    pool.sort(key=_set_key)

    # sound pruning: an exchange failure between two required bases that no
    # candidate in the pool can repair rules out every family at once
    allowed = required_set | set(pool)
    for b1 in required:
        for b2 in required:
            for x in b1 - b2:
                if not any(((b1 - {x}) | {y}) in allowed for y in b2 - b1):
                    return EnvelopeSearch("none", None, 0)

    examined = 0
    for k in range(len(pool) + 1):
        for extras in combinations(pool, k):
            if examined >= limit:
                return EnvelopeSearch("inconclusive", None, examined)
            examined += 1
            candidate = Matroid.signed(n, required + list(extras))
            if not validate_matroid(candidate).passed:
                continue
            if enveloping_check(candidate, d).passed:
                return EnvelopeSearch("found", candidate, examined)
    return EnvelopeSearch("none", None, examined)
