"""Delta-matroids: feasible families, validation, rank functions, and minors.

A delta-matroid on ground size n is a nonempty family of size-n admissible
sets.  Because every feasible set touches each index with one sign, a
feasible set is stored as the bitmask of its unbarred indices; the barred
part is the complement.  Families are deduplicated and kept in canonical
order on construction, so equality of values is equality of families.

Validity is *not* enforced on construction: invalid families are useful as
negative fixtures.  Two validators are provided and must agree: a symmetric
exchange check on the unbarred parts and a polytopal check that every hull
edge between feasible indicator vectors moves at most two coordinates.

The polytopal check settles most pairs without an LP.  If another feasible
pair {p, q} has the same sum as ±1 vectors, a + b = p + q, then [a, b] and
[p, q] share a midpoint, so [a, b] is not an edge: a linear functional
maximal on the polytope exactly along [a, b] would be maximal at that
midpoint, hence at p and at q, but no other cube vertex lies on [a, b].  A
pair without such a certificate goes to the LP in the smallest cube face
holding a and b.  That face meets the polytope in one of its faces, and a
segment inside a face is an edge of the face exactly when it is an edge of
the polytope.  There [a, b] is an edge exactly when b - a lies outside the
cone spanned by the directions from a to the other feasible vectors of the
face, which an exact standard-form LP decides (`lp.pair_is_edge`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress, starmap
from operator import add, or_
from typing import Iterable, Iterator, Sequence

from . import lp
from .ground import (
    AdmissibleSet, SignedPermutation, canonical_reads, canonical_tuple, check_guard, digit_planes, enumerate_admissible,
    mask_weights, plane_of, set_of_code, walk_codes,
)


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte with its 8 bits reversed


def _mask_key(n: int, pos_mask: int) -> int:
    """The barred indices as an n-bit int with index 1 on top: +i sorts before -i, index by index.

    The bit reversal of the complement: its bytes, little-endian, with each byte's bits reversed, read
    big-endian reverse all 8·⌈n/8⌉ bits, and the shift drops the padding.
    """
    width = (n + 7) >> 3
    barred = (~pos_mask & ((1 << n) - 1)).to_bytes(width, "little")
    return int.from_bytes(barred.translate(_REVERSED_BYTES), "big") >> (8 * width - n)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    method: str
    witness: tuple | None = None
    message: str = ""


@dataclass(frozen=True)
class RankTable:
    """Integer values over all 3^n admissible sets in canonical order."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 3**self.n:
            raise ValueError(f"table needs 3^{self.n} = {3 ** self.n} values, got {len(self.values)}")

    def items(self):
        return zip(enumerate_admissible(self.n), self.values)


class DeltaMatroid:
    """A ground size together with a canonical tuple of feasible-set masks."""

    __slots__ = ("n", "feasible")

    def __init__(self, n: int, feasible_masks: Iterable[int]):
        if n < 0:
            raise ValueError("ground size must be non-negative")
        masks = sorted(set(feasible_masks), key=partial(_mask_key, n))
        if not masks:
            raise ValueError("a delta-matroid needs at least one feasible set")
        full = (1 << n) - 1
        if any(m < 0 or m > full for m in masks):
            raise ValueError("feasible mask outside the ground set")
        self.n = n
        self.feasible = tuple(masks)

    @classmethod
    def _from_canonical(cls, n: int, masks: tuple[int, ...]) -> "DeltaMatroid":
        """The delta-matroid of masks the caller has made distinct, in 0..2^n - 1 and in canonical order.

        ``__init__`` establishes these three facts with a set, a ``_mask_key`` sort and a range check; a
        caller that has them by construction (``formats`` reading a file as written) skips that work.
        """
        d = cls.__new__(cls)
        d.n, d.feasible = n, masks
        return d

    @classmethod
    def from_feasible_sets(cls, n: int, sets: Iterable[AdmissibleSet]) -> "DeltaMatroid":
        masks = []
        for s in sets:
            if s.n != n or s.size != n:
                raise ValueError("feasible sets must be admissible of full size n")
            masks.append(s.pos)
        return cls(n, masks)

    @classmethod
    def from_signed_lists(cls, n: int, lists: Iterable[Iterable[int]]) -> "DeltaMatroid":
        return cls.from_feasible_sets(n, [AdmissibleSet.from_elements(n, xs) for xs in lists])

    def feasible_sets(self) -> tuple[AdmissibleSet, ...]:
        full = (1 << self.n) - 1
        return tuple(AdmissibleSet(self.n, p, full & ~p) for p in self.feasible)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaMatroid):
            return NotImplemented
        return self.n == other.n and self.feasible == other.feasible

    def __hash__(self) -> int:
        return hash((self.n, self.feasible))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fams = ", ".join("{%s}" % b.render() for b in self.feasible_sets())
        return f"DeltaMatroid(n={self.n}, feasible=[{fams}])"

    # -- validation ---------------------------------------------------------

    def validate(self, method: str = "exchange") -> ValidationReport:
        if method == "exchange":
            return self._validate_exchange()
        if method == "polytope":
            return self._validate_polytope()
        raise ValueError(f"unknown validation method {method!r}")

    def _validate_exchange(self) -> ValidationReport:
        """For feasible x, y and i in x △ y, some j in x △ y has x △ {i, j} feasible.

        Fix x and i, and let z = x △ {i}.  If z is feasible (j = i), no y fails
        at i.  Otherwise let the neighbour mask N(z) hold the j with z △ {j}
        feasible; it holds i, since z △ {i} = x.  A y fails at i exactly when
        it agrees with z on N(z): it differs from x at i and at no other j of
        N(z).  One pass over the pairs (x, i) builds N(z) for the z outside F
        that occur, in a dict keyed by z (empty for the free family).  The z
        are grouped by mask, and one set of projections y & mask settles a
        whole group; a z is stuck when its own projection is in it.  One
        projection set is held at a time, so memory stays O(|F|) beyond the
        masks.  The witness is the first x next to a stuck z, with the lowest
        failing index of the first failing y.
        """
        feasible = self.feasible
        fam = set(feasible)
        flips = [1 << i for i in range(self.n)]
        neighbours: dict[int, int] = {}
        for x_mask in feasible:
            for bit in flips:
                z = x_mask ^ bit
                if z not in fam:
                    neighbours[z] = neighbours.get(z, 0) | bit
        by_mask: dict[int, list[int]] = {}
        for z, mask in neighbours.items():
            by_mask.setdefault(mask, []).append(z)
        stuck: set[int] = set()
        for mask, zs in by_mask.items():
            projections = {y & mask for y in feasible}
            stuck.update([z for z in zs if z & mask in projections])
        for x_mask in feasible if stuck else ():
            failures = [
                (next(k for k, y in enumerate(feasible) if not (y ^ z) & neighbours[z]), (z ^ x_mask).bit_length())
                for z in map(x_mask.__xor__, flips) if z in stuck
            ]
            if failures:
                first, index = min(failures)
                x_set, y_set = self._as_set(x_mask), self._as_set(feasible[first])
                return ValidationReport(
                    False,
                    "exchange",
                    (x_set, y_set, index),
                    "no exchange for index %d between {%s} and {%s}"
                    % (index, x_set.render(), y_set.render()),
                )
        return ValidationReport(True, "exchange")

    def _validate_polytope(self) -> ValidationReport:
        """Is every hull edge [a, b] between feasible sets of support |a △ b| <= 2?

        Pairs are scanned in order and the first edge of support > 2 is the
        witness.  ``_uncertified_pairs`` skips the pairs with a pair-sum
        certificate, which are not edges.  Each remaining pair goes to the
        exact LP, restricted to the smallest cube face holding a and b: the
        feasible p that agree with a off d = a △ b, on the coordinates of d
        only.  That face of the cube meets conv(F) in the face conv(F ∩ face)
        of the polytope, and the edges of a face are the edges of the
        polytope inside it (Ziegler, Lectures on Polytopes, §2), so the
        verdict is exact.  The projected points are still distinct cube
        vertices, as ``lp.pair_is_edge`` needs.
        """
        for a, b in _uncertified_pairs(self.feasible):
            d = a ^ b
            coords = [k for k in range(self.n) if d >> k & 1]
            face = [p for p in self.feasible if not (p ^ a) & ~d]
            points = [tuple(1 if p >> k & 1 else -1 for k in coords) for p in face]
            if lp.pair_is_edge(points, face.index(a), face.index(b)):
                support = len(coords)
                a_set, b_set = self._as_set(a), self._as_set(b)
                return ValidationReport(
                    False,
                    "polytope",
                    (a_set, b_set, support),
                    "edge direction support %d between {%s} and {%s}"
                    % (support, a_set.render(), b_set.render()),
                )
        return ValidationReport(True, "polytope")

    def _as_set(self, pos_mask: int) -> AdmissibleSet:
        full = (1 << self.n) - 1
        return AdmissibleSet(self.n, pos_mask, full & ~pos_mask)

    # -- rank ----------------------------------------------------------------

    def is_even(self) -> bool:
        return len({p.bit_count() & 1 for p in self.feasible}) <= 1

    def g(self, s: AdmissibleSet) -> int:
        if s.n != self.n:
            raise ValueError("set belongs to a different ground size")
        return self._g(s.pos, s.neg)

    def _g(self, sp: int, sn: int) -> int:
        full = (1 << self.n) - 1
        best = None
        for p in self.feasible:
            q = full & ~p
            val = (
                (sp & p).bit_count()
                - (sp & q).bit_count()
                + (sn & q).bit_count()
                - (sn & p).bit_count()
            )
            if best is None or val > best:
                best = val
        return best

    def rank(self, s: AdmissibleSet) -> tuple[int, int]:
        """The signed rank g and its shifted form h = (g + |S|) / 2."""
        g = self.g(s)
        return g, (g + s.size) // 2

    def rank_table(self) -> RankTable:
        """g over all 3^n sets in canonical order, from ``g_lanes`` (which checks the guard first)."""
        return RankTable(self.n, canonical_tuple(self.n, g_lanes(self.n, self.feasible)))

    def h_table(self) -> RankTable:
        """h over all 3^n sets in canonical order, from ``h_lanes`` (which checks the guard first)."""
        return RankTable(self.n, canonical_tuple(self.n, h_lanes(self.n, self.feasible)))

    # -- minors and constructions ---------------------------------------------

    def loops_coloops(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        union = inter = self.feasible[0]
        for p in self.feasible[1:]:
            union |= p
            inter &= p
        loops = tuple(i for i in range(1, self.n + 1) if not union >> (i - 1) & 1)
        coloops = tuple(i for i in range(1, self.n + 1) if inter >> (i - 1) & 1)
        return loops, coloops

    def minor(
        self,
        contract: Iterable[int] = (),
        delete: Iterable[int] = (),
        project: Iterable[int] = (),
    ) -> "DeltaMatroid":
        """Remove indices by contraction, deletion, or projection (pairwise disjoint).

        The surviving indices are relabelled 1..m preserving their order.  At
        a loop or coloop, where no mask or every mask holds the index, one
        side of the split is empty and all three operations coincide.
        Removing everything leaves the unique delta-matroid on the empty
        ground set.
        """
        ops: dict[int, str] = {}
        for group, tag in ((contract, "contract"), (delete, "delete"), (project, "project")):
            for i in group:
                if not 1 <= i <= self.n:
                    raise ValueError(f"index {i} outside ground set of size {self.n}")
                if i in ops:
                    raise ValueError(f"index {i} listed for both {ops[i]} and {tag}")
                ops[i] = tag
        masks = list(self.feasible)
        n = self.n
        for i in sorted(ops, reverse=True):
            bit = 1 << (i - 1)
            holding = [m for m in masks if m & bit]
            missing = [m for m in masks if not m & bit]
            if ops[i] == "contract":
                masks = holding or missing
            elif ops[i] == "delete":
                masks = missing or holding
            low = bit - 1
            masks = list({(m & low) | ((m >> 1) & ~low) for m in masks})
            n -= 1
        return DeltaMatroid(n, masks)

    def product(self, other: "DeltaMatroid") -> "DeltaMatroid":
        masks = [p1 | (p2 << self.n) for p1 in self.feasible for p2 in other.feasible]
        return DeltaMatroid(self.n + other.n, masks)

    def twist(self, w: SignedPermutation) -> "DeltaMatroid":
        if w.n != self.n:
            raise ValueError("permutation acts on a different ground size")
        # w(B) takes index |v| unbarred, v = w(i), when B takes i with the sign of v
        moves = [(i, 1 << (abs(v) - 1), v > 0) for i, v in enumerate(w.image)]
        return DeltaMatroid(self.n, [sum(b for i, b, plus in moves if (p >> i & 1) == plus) for p in self.feasible])

    # -- independence ----------------------------------------------------------

    def is_independent(self, s: AdmissibleSet) -> bool:
        if s.n != self.n:
            raise ValueError("set belongs to a different ground size")
        return any((s.pos & ~p) == 0 and (s.neg & p) == 0 for p in self.feasible)

    def independents(self) -> tuple[AdmissibleSet, ...]:
        """All admissible sets contained in a feasible set, canonical order."""
        return tuple(set_of_code(self.n, c) for c in plane_codes(self.n, independent_plane(self.n, self.feasible)))

    def lattice_point_test(self) -> bool:
        """Do the lattice points of the half-sum polytope match the independent sets?

        e_S is inside when max over T of <e_T, e_S> - h(T) is <= 0 (the empty T
        adds 0 <= 0), which ``max_plus_dot`` over -h gives for every S at once.
        For any nonempty family the answer is yes when h is right: T = S
        forces h(S) = |S|, and an S inside a feasible B meets every T in at
        most h(T) elements.  So a no means wrong h lanes (``h_lanes``).
        """
        n, total = self.n, 3**self.n
        h, sizes = h_lanes(n, self.feasible), _size_lanes(n).to_bytes(total, "little")
        return all((v <= 0) == (hv == size) for v, hv, size in zip(max_plus_dot(n, [-v for v in h]), h, sizes))


def max_plus_dot(n: int, vals: list[int]) -> list[int]:
    """max over T of vals[T] + <e_T, x> for every point x of {-1, 0, 1}^n, in O(n 3^n).

    T and x are indexed by base-3 code (digit 1 is +1, digit 2 is -1).  The
    dot product splits by coordinate, so each max-plus pass turns the lowest
    digit of T into the top digit of x (``_signs``).
    """
    for _ in range(n):
        absent, plus, minus = vals[0::3], vals[1::3], vals[2::3]
        vals = list(map(max, absent * 3, _signs(minus, plus)))
    return vals


def _signs(lo: list[int], hi: list[int]) -> list[int]:
    """One max-plus coordinate: from the blocks of its two signs to the three states.

    With ``lo`` at the barred sign and ``hi`` at the unbarred one, absent
    scores max(lo, hi), +i max(lo - 1, hi + 1) and -i max(lo + 1, hi - 1).
    """
    out = list(map(max, lo, hi))
    out += [a - 1 if a > b + 2 else b + 1 for a, b in zip(lo, hi)]
    out += [a + 1 if a + 2 > b else b - 1 for a, b in zip(lo, hi)]
    return out


def _lanes(plane: int, total: int) -> bytes:
    """The plane with each bit widened to a byte, in code order: byte c is bit c of the plane."""
    return f"{plane:0{total}b}".encode().translate(bytes.maketrans(b"01", b"\0\1"))[::-1]


@lru_cache(maxsize=None)
def _size_lanes(n: int) -> int:
    """|S| for all 3^n sets, one byte per code: digit k adds 1 to the codes from 3^k up; checks the guard first."""
    check_guard(n)
    sizes, up = b"\0", bytes(range(1, 256)) + b"\0"
    for _ in range(n):
        more = sizes.translate(up)
        sizes += more + more
    return int.from_bytes(sizes, "little")


def _distance_lanes(n: int, feasible: Iterable[int]) -> int:
    """d(S) for all 3^n sets, one byte per code, from its binary digits (``h_lanes``)."""
    layers = distance_layers(n, feasible)
    distances = 0
    for b in range((len(layers) - 1).bit_length()):
        runs = ((lo, min(lo + (1 << b), len(layers)) - 1) for lo in range(1 << b, len(layers), 2 << b))
        digit = reduce(or_, (layers[hi] & ~layers[lo - 1] for lo, hi in runs))
        distances += int.from_bytes(_lanes(digit, 3**n), "little") << b
    return distances


def h_lanes(n: int, feasible: Iterable[int]) -> bytes:
    """h(S) = |S| - d(S) for all 3^n sets, one byte per code (byte c for code c); no lane borrows.

    The layers of ``distance_layers`` are nested, so bit b of d(S) is the OR of layer_j & ~layer_(j-1) over the
    j with bit b set, and a run lo..hi of them marks layer_hi & ~layer_(lo-1): Σ 2^b·widen(digit b) is d.
    """
    return (_size_lanes(n) - _distance_lanes(n, feasible)).to_bytes(3**n, "little")


def g_lanes(n: int, feasible: Iterable[int]) -> memoryview:
    """g(S) = |S| - 2·d(S) by code, a signed byte each: lanes of g + n (exact once n is added), less n mod 256."""
    total = 3**n
    shifted = _size_lanes(n) - 2 * _distance_lanes(n, feasible) + int.from_bytes(bytes([n]) * total, "little")
    down = bytes(range(256 - n, 256)) + bytes(range(256 - n))  # byte x to (x - n) mod 256
    return memoryview(shifted.to_bytes(total, "little").translate(down)).cast("b")


def plane_codes(n: int, plane: int) -> Iterator[int]:
    """The codes a plane over the 3^n codes marks, in canonical order, its bits read block by block."""
    flags = memoryview(_lanes(plane, 3**n))
    return compress(walk_codes(n), chain.from_iterable(canonical_reads(n, flags)))


def distance_layers(n: int, feasible: Iterable[int]) -> tuple[int, ...]:
    """Planes of the codes at cube distance 0, at most 1, at most 2, ... from the family; checks the guard first.

    The one source of g and h by code (``h_lanes``) and of independence, so
    of the activities and the Lorentzian counts too (layer 0, ``independent_plane``).
    Write S as a sign pattern x on its support U and let P_U be the family
    projected to U.  Then S is independent exactly when x is in P_U, so
    x ⊕ e_i in P_U says that S with digit i flipped is independent, and
    g(S) = |S| - 2·d(S), where d(S) is the Hamming distance from x to P_U.
    Layer 0, the independent sets, is the downward closure of the feasible
    codes: one pass per index moves its digit from 1 or 2 to 0.  Layer k + 1
    adds to layer k its digit flips, 1 to 2 and back, a shift by 3^i under
    the digit-1 plane (``digit_planes``).  The layers stop at the plane of all
    3^n codes, by layer n at the latest.  A feasible mask m has code
    3^n - 1 - ``mask_weights(n)[m]``: digit 1 where m holds the index, 2
    where it does not.

    One memo slot, ``_family_layers``, keeps a list of the layers of the last family, keyed by value
    (n, feasible).  The guard is checked before every lookup, and a new family drops the old record before any
    work, as making the slot makes no layer.  A layer is appended only once it is made, so a failure leaves a
    correct prefix, which the next call extends; a layer-0 reader makes layer 0 alone.
    """
    return tuple(_filled(n, tuple(feasible), n + 1))


def independent_plane(n: int, feasible: Iterable[int]) -> int:
    """Layer 0 of ``distance_layers``, the independent sets; checks the guard first and makes no other layer."""
    return _filled(n, tuple(feasible), 1)[0]


def _filled(n: int, feasible: tuple[int, ...], depth: int) -> list[int]:
    """The family's memo slot, looked up after the guard, filled to its first ``depth`` layers or all there are."""
    check_guard(n)
    layers = _family_layers(n, feasible)
    while len(layers) < depth and not (layers and layers[-1].bit_count() == 3**n):
        layers.append(_next_layer(n, feasible, layers))
    return layers


@lru_cache(maxsize=1)
def _family_layers(n: int, feasible: tuple[int, ...]) -> list[int]:
    """The memo slot: the layers of one family made so far, in order; making it makes none."""
    return []


def _next_layer(n: int, feasible: tuple[int, ...], layers: list[int]) -> int:
    """Layer len(layers) of ``distance_layers``, from the layers before it: the one place a layer is made."""
    ones = digit_planes(n)
    steps = [3**i for i in range(n)]
    if layers:
        layer = reach = layers[-1]
        for step, one in zip(steps, ones):
            reach |= (layer & one) << step | layer >> step & one
        return reach
    top = 3**n - 1  # the weight table is read per mask, so a cold one is made after the marks: a lower peak RSS
    layer = plane_of((top - mask_weights(n)[m] for m in feasible), top + 1)
    for step, one in zip(steps, ones):
        layer |= ((layer | layer >> step) & one) >> step
    return layer


def _uncertified_pairs(feasible: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The pairs (a, b) of support > 2, in scan order, that no pair-sum certificate settles.

    As ±1 vectors, a + b is 2 where both sets are unbarred, -2 where both are
    barred and 0 elsewhere, so it is the key (a & b, a | b), packed here as
    the base-3 number whose digit k counts the two sets unbarred at k (the
    sum of the masks' digits read in base 3, with no carries).  If another
    feasible pair {p, q} has the same sum, [a, b] and [p, q] share a midpoint,
    so [a, b] is not an edge.  One streamed count over ``combinations``
    keys every pair, without a list of the |F|^2/2 sums, and a second streamed
    pass yields the pairs whose key was counted once, so memory stays
    O(distinct keys), at most min(|F|^2, 3^n).  Keys of different supports
    never meet, since the support is the number of 1 digits.  The test reads
    only membership in F, not the exchange axiom.
    """
    keys = list(map(mask_weights(max(feasible, default=0).bit_length()).__getitem__, feasible))
    once = {key for key, count in Counter(starmap(add, combinations(keys, 2))).items() if count == 1}
    uncertified = map(once.__contains__, starmap(add, combinations(keys, 2)))
    for a, b in compress(combinations(feasible, 2), uncertified):
        if (a ^ b).bit_count() > 2:
            yield a, b


def all_full_size_masks(n: int) -> tuple[int, ...]:
    """Masks of all 2^n admissible sets of full size, canonical order."""
    return tuple(sorted(range(1 << n), key=partial(_mask_key, n)))
