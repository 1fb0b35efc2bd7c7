"""Enumerative invariants: the two-variable rank enumerator, the interlace
specialization, independence-complex face counts, and activity expansions.

The enumerator is computed two ways that share no code: by its defining sum,
counted on distance planes over the 3^n base-3 codes, and by deletion/
contraction/projection recursion on planes of feasible masks, with each
polynomial packed into one int.  The two must agree and the tests enforce
it.  Neither reads a rank table, and neither does the independence
f-vector, the popcount of the independent plane by size.  The interlace
slice is the distance distribution of the feasible masks in the n-cube.
Activities follow the fixed index order 1 < 2 < ... < n; the activity
expansion and the activity-zero complex read one active plane per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterator

from .deltamatroid import DeltaMatroid, _lanes, distance_layers, independent_plane, plane_codes
from .ground import (
    AdmissibleSet, canonical_blocks, canonical_reads, check_guard, digit_planes, mask_reversals,
    plane_of, set_of_code, size_planes,
)
from .poly import MultiPoly
from .rankfn import AxiomReport, Violation


def upoly(d: DeltaMatroid, method: str = "direct") -> MultiPoly:
    if method == "direct":
        return upoly_direct(d)
    if method == "recursive":
        return upoly_recursive(d)
    raise ValueError(f"unknown method {method!r}")


def upoly_direct(d: DeltaMatroid) -> MultiPoly:
    """Sum u^(n-|S|) v^((|S|-g(S))/2) over all admissible sets, counted on planes.

    (|S| - g(S))/2 is the cube distance d(S) of ``distance_layers``, so the
    coefficient of u^(n-s) v^j counts the codes of size s that first appear
    in layer j.  Distance j needs j <= s.
    """
    n = d.n
    sizes = size_planes(n)
    terms = {}
    layers = distance_layers(n, d.feasible)
    for j, (below, layer) in enumerate(zip((0,) + layers, layers)):
        new = layer & ~below
        for s in range(j, n + 1):
            terms[(n - s, j)] = (new & sizes[s]).bit_count()
    return MultiPoly(("u", "v"), terms)


def upoly_recursive(d: DeltaMatroid) -> MultiPoly:
    """Three-way recursion on index 1, memoized on planes of feasible masks.

    A node on k indices is a 2^k-bit plane whose bit m marks mask m, with
    the bits of each mask reversed (``mask_reversals``) so index 1 is on top.
    The low half of the plane is the deletion, the high half the contraction
    and their OR the projection, relabelled as ``DeltaMatroid.minor`` does;
    the memo key is the plane with a sentinel bit at 2^k.  At a loop or
    coloop one half is empty and the node is (1 + u + v) times the
    projection; otherwise it is contraction + deletion + u·projection.  On a
    valid family any pivot order yields the same polynomial, which the tests
    sample against a recursion on index k; on an invalid family the pivot
    order can change the result.

    A polynomial is one int: the coefficient of u^i v^j sits in the w-bit
    field at offset (i·(n+1) + j)·w, w = (3^n).bit_length(), so u and v are
    shifts by (n+1)·w and w.  No field carries into the next: every node
    has non-negative coefficients and evaluates to 3^k at u = v = 1 (1 at
    k = 0, and each step adds three copies of a 3^(k-1) node), so each
    coefficient of a node and of every sum forming it is below 3^n < 2^w.
    A node of size k has total degree k, so j never leaves its row.
    """
    n = d.n
    check_guard(n)
    w = (3**n).bit_length()
    su, sv = (n + 1) * w, w
    memo: dict[int, int] = {}

    def rec(k: int, plane: int) -> int:
        if k == 0:
            return 1
        key = plane | 1 << (1 << k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        half = 1 << (k - 1)
        delete, contract = plane & (1 << half) - 1, plane >> half
        if delete and contract:
            res = rec(k - 1, contract) + rec(k - 1, delete) + (rec(k - 1, delete | contract) << su)
        else:
            p = rec(k - 1, delete or contract)
            res = p + (p << su) + (p << sv)
        memo[key] = res
        return res

    packed = rec(n, plane_of(map(mask_reversals(n).__getitem__, d.feasible), 1 << n))
    field = (1 << w) - 1
    terms = {(i, j): packed >> (i * (n + 1) + j) * w & field for i in range(n + 1) for j in range(n + 1 - i)}
    return MultiPoly(("u", "v"), terms)


def interlace(d: DeltaMatroid) -> MultiPoly:
    """The u = 0 slice: v^((n - g(S))/2) summed over the 2^n full-size sets S.

    A full-size S is fixed by its unbarred mask s, and g(S) is the largest
    n - 2|s △ p| over feasible p, so its exponent is the Hamming distance
    from s to F: the coefficient of v^j counts the masks at distance j.  A
    breadth-first search from all of F at once counts them layer by layer.
    A layer is one int whose bit s marks mask s.  Flipping index i + 1 maps
    s to s ^ 2^i: the bits of the masks holding it (``high``, runs of 2^i
    ones after 2^i zeros) move down by 2^i, the others up by 2^i.
    """
    n = d.n
    check_guard(n)
    size = 1 << n
    flips = []
    for i in range(n):
        step = 1 << i
        period = ((1 << size) - 1) // ((1 << 2 * step) - 1)  # one bit every 2·step
        flips.append((step, ((1 << step) - 1 << step) * period))
    frontier = seen = plane_of(d.feasible, size)
    counts: dict[tuple[int], int] = {}
    while frontier:
        counts[(len(counts),)] = frontier.bit_count()
        reach = 0
        for step, high in flips:
            reach |= (frontier & high) >> step | (frontier & ~high) << step
        frontier = reach & ~seen
        seen |= frontier
    return MultiPoly(("v",), counts)


@dataclass(frozen=True)
class FVector:
    """Face counts of a simplicial complex, indexed by face size.

    ``counts[k]`` is the number of faces with k elements (dimension k-1), so
    ``counts[0]`` is 1 for a nonempty complex.
    """

    counts: tuple[int, ...]

    def render(self) -> str:
        return " ".join(str(c) for c in self.counts)

    @classmethod
    def from_sizes(cls, sizes: list[int]) -> "FVector":
        return cls(tuple(map(sizes.count, range(max(sizes, default=0) + 1))))


def independence_fvector(d: DeltaMatroid) -> FVector:
    """Counts of independent sets by size, read from the independent plane (``independent_plane``); length n + 1."""
    sizes = size_planes(d.n)
    independent = independent_plane(d.n, d.feasible)
    return FVector(tuple((independent & plane).bit_count() for plane in sizes))


def pure_o_inequalities(f: FVector) -> AxiomReport:
    """The two inequality families every pure-complex f-vector satisfies.

    Checks only these necessary conditions; it does not decide whether the
    vector is realizable by a pure multicomplex.
    """
    a = f.counts
    n = len(a) - 1
    out: list[Violation] = []
    for i in range(n + 1):
        if 2 * i <= n and a[i] > a[n - i]:
            out.append(Violation("mirror", (i, n - i), a[n - i], a[i]))
    for i in range((n + 1) // 2):
        if a[i] > a[i + 1]:
            out.append(Violation("monotone", (i, i + 1), a[i + 1], a[i]))
    return AxiomReport.from_violations(out)


@dataclass(frozen=True)
class ActivityRecord:
    set: AdmissibleSet
    active: tuple[int, ...]

    @property
    def a(self) -> int:
        return len(self.active)


def _active_planes(d: DeltaMatroid) -> tuple[int, list[int]]:
    """The independent plane (``independent_plane``) and, per index, the plane of the sets it is active at.

    By the identity in ``distance_layers``, x ⊕ e_i in P_U says that S with
    digit i flipped (1 to 2 and back) is independent.  So index i is active
    at an independent S holding it when neither S with digit i flipped nor
    S with digits i and j flipped, for any j < i that S holds, is
    independent.  ``below`` ORs flip_j(I) over j < i, clear at digit j = 0.
    """
    independent = independent_plane(d.n, d.feasible)
    active, below = [], 0
    for i, one in enumerate(digit_planes(d.n)):
        step = 3**i
        flipped, flipped_below = ((plane & one) << step | plane >> step & one for plane in (independent, below))
        active.append(independent & (one | one << step) & ~(flipped | flipped_below))
        below |= flipped
    return independent, active


def independent_activities(d: DeltaMatroid) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(label, active indices) of every independent set in canonical order, read block by block from byte lanes."""
    independent, active = _active_planes(d)
    n, total = d.n, 3**d.n
    lanes = [canonical_reads(n, memoryview(_lanes(p, total))) for p in (independent, *active)]
    indices = range(1, n + 1)
    for labels, flags, *columns in zip(canonical_blocks(n), *lanes):
        for name, *row in compress(zip(labels, *columns), flags):
            yield name, tuple(compress(indices, row))


def activity(d: DeltaMatroid, iset: AdmissibleSet) -> ActivityRecord:
    """Active indices of one independent set, decided on the sets with one or two of its signs flipped.

    Index i of S is active when S with the sign of i flipped is not
    independent, and neither is S with the signs of i and of any smaller
    index of S flipped: at most n(n+1)/2 independence tests, no 3^n plane.
    """
    if iset.n != d.n:
        raise ValueError("set belongs to a different ground size")
    if not d.is_independent(iset):
        raise ValueError("activity is defined for independent sets only")
    active, below = [], [0]  # below: no flip, then the bit of each index of S below i
    for bit in (1 << i for i in range(d.n) if iset.underline >> i & 1):
        if not any(d.is_independent(AdmissibleSet(d.n, iset.pos ^ bit ^ b, iset.neg ^ bit ^ b)) for b in below):
            active.append(bit.bit_length())
        below.append(bit)
    return ActivityRecord(iset, tuple(active))


def activity_expansion(d: DeltaMatroid) -> MultiPoly:
    """Sum u^(n-|I|) v^(a(I)) over independent sets; equals the enumerator at v-1.

    ``exactly[a]`` holds the independent sets with a active indices among
    the planes read so far, a bit-sliced count over the active planes.
    """
    n = d.n
    independent, active = _active_planes(d)
    sizes = size_planes(n)
    exactly = [independent]
    for plane in active:
        exactly = [at & ~plane | one_less & plane for at, one_less in zip(exactly + [0], [0] + exactly)]
    counts = {(n - s, a): (plane & size).bit_count() for a, plane in enumerate(exactly) for s, size in enumerate(sizes)}
    return MultiPoly(("u", "v"), counts)


def substitute_v_minus_1(p: MultiPoly) -> MultiPoly:
    """Replace v by v - 1, taking the enumerator to the activity expansion."""
    return p.substitute("v", MultiPoly(("v",), {(1,): 1, (0,): -1}))


@dataclass(frozen=True)
class ComplexReport:
    fvector: FVector
    pure: bool


def activity_zero_complex(d: DeltaMatroid) -> ComplexReport:
    """The independent sets of activity zero, verified to be downward closed.

    On base-3 codes, dropping index i from a set moves digit i from 1 or 2
    to 0, a shift down by 3^i or 2·3^i; ``drops`` marks the sets one face
    reaches so.  The faces are downward closed exactly when every drop is a
    face.  Then a face lies inside a larger one exactly when it lies inside
    a face one element larger, that is, when it is a drop, so the maximal
    faces are the faces that are no drop, and purity reads their sizes.
    """
    n = d.n
    independent, active = _active_planes(d)
    ones, sizes = digit_planes(n), size_planes(n)
    faces = independent & ~reduce(or_, active, 0)
    drops = bad = 0  # bad: the faces with a subface one smaller that is no face
    for i, one in enumerate(ones):
        step = 3**i
        drops |= (faces & one) >> step | (faces & one << step) >> 2 * step
        bad |= faces & (one & ~faces << step | one << step & ~faces << 2 * step)
    if bad:
        first = set_of_code(n, next(plane_codes(n, bad))).render()
        raise RuntimeError("activity-zero sets are not downward closed at {%s}" % first)
    maximal = faces & ~drops
    counts = tuple(filter(None, ((faces & size).bit_count() for size in sizes)))  # {} is a face: sizes 0..top
    return ComplexReport(FVector(counts), pure=sum(1 for size in sizes if maximal & size) <= 1)
