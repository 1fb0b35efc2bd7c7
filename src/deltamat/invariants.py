"""Enumerative invariants: the two-variable rank enumerator, the interlace
specialization, independence-complex face counts, and activity expansions.

The enumerator is computed two ways that share no code: by its defining sum,
counted on distance planes over the 3^n base-3 codes, and by deletion/
contraction/projection recursion on sorted mask tuples with each polynomial
packed into one int.  The two must agree and the tests enforce it.  Neither
reads a rank table, and neither does the independence f-vector, which is
the popcount of the independent plane by size.  The interlace slice is the
distance distribution of the feasible masks in the n-cube.  Activities
follow the fixed index order 1 < 2 < ... < n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import xor
from typing import Iterator

from .deltamatroid import DeltaMatroid, distance_layers, independent_flags
from .ground import (
    AdmissibleSet,
    canonical_codes,
    canonical_sizes,
    check_guard,
    code_masks,
    code_planes,
    enumerate_admissible,
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
    _, sizes = code_planes(n)
    terms = {}
    seen = 0
    for j, layer in enumerate(distance_layers(n, d.feasible)):
        new = layer & ~seen
        seen = layer
        for s in range(j, n + 1):
            terms[(n - s, j)] = (new & sizes[s]).bit_count()
    return MultiPoly(("u", "v"), terms)


def upoly_recursive(d: DeltaMatroid, pivot: str = "min") -> MultiPoly:
    """Three-way recursion on a pivot index, memoized on (ground size, masks).

    A node is a ground size k and the sorted tuple of its feasible masks.
    The pivot is the top bit: the masks without it (a prefix of the tuple)
    are the deletion, the masks with it, cleared, are the contraction, and
    their sorted union is the projection, relabelled as ``DeltaMatroid.minor``
    does.  ``pivot="max"`` takes index k as the top bit; ``pivot="min"``
    reverses the bit order first, so index 1 is the top.  At a loop or
    coloop one part is empty and the node is (1 + u + v) times the
    projection; otherwise it is contraction + deletion + u·projection.  On a
    valid family any pivot yields the same polynomial, which the tests
    sample.

    A polynomial is one int: the coefficient of u^i v^j sits in the w-bit
    field at offset (i·(n+1) + j)·w, w = (3^n).bit_length(), so u and v are
    shifts by (n+1)·w and w.  No field carries into the next: every node
    has non-negative coefficients and evaluates to 3^k at u = v = 1 (1 at
    k = 0, and each step adds three copies of a 3^(k-1) node), so each
    coefficient of a node and of every sum forming it is below 3^n < 2^w.
    A node of size k has total degree k, so j never leaves its row.
    """
    if pivot not in ("min", "max"):
        raise ValueError("pivot must be 'min' or 'max'")
    n = d.n
    check_guard(n)
    w = (3**n).bit_length()
    su, sv = (n + 1) * w, w
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(k: int, masks: tuple[int, ...]) -> int:
        if k == 0:
            return 1
        key = (k, masks)
        hit = memo.get(key)
        if hit is not None:
            return hit
        top = 1 << (k - 1)
        cut = bisect_left(masks, top)
        delete = masks[:cut]
        contract = tuple(map(xor, masks[cut:], repeat(top)))
        if delete and contract:
            project = tuple(sorted({*delete, *contract}))
            res = rec(k - 1, contract) + rec(k - 1, delete) + (rec(k - 1, project) << su)
        else:
            p = rec(k - 1, delete or contract)
            res = p + (p << su) + (p << sv)
        memo[key] = res
        return res

    masks = d.feasible
    if pivot == "min":
        masks = [int(format(m, f"0{n}b")[::-1], 2) for m in masks]
    packed = rec(n, tuple(sorted(masks)))
    field = (1 << w) - 1
    return MultiPoly(
        ("u", "v"),
        {(i, j): packed >> (i * (n + 1) + j) * w & field for i in range(n + 1) for j in range(n + 1 - i)},
    )


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
    marks = bytearray((size + 7) >> 3)
    for m in d.feasible:
        marks[m >> 3] |= 1 << (m & 7)
    frontier = seen = int.from_bytes(marks, "little")
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
        top = max(sizes, default=0)
        counts = [0] * (top + 1)
        for s in sizes:
            counts[s] += 1
        return cls(tuple(counts))


def independence_fvector(d: DeltaMatroid) -> FVector:
    """Counts of independent sets by size, read from layer 0 of ``distance_layers``; length n + 1."""
    _, sizes = code_planes(d.n)
    independent = next(distance_layers(d.n, d.feasible))
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


def _active(projections: set[int], support: int, pos: int) -> tuple[int, ...]:
    """Active indices of the set with unbarred part ``pos`` on ``support``.

    ``projections`` is P_U = {m & U : m feasible} for U = ``support``, the
    family with every index outside U projected away.  Index i of U is
    orientable when pos △ {i} is not in P_U, and active when moreover no
    pos △ {i, j} with j < i in U is.
    """
    active = []
    below = []  # the flips of the indices of U below i
    for i in range(support.bit_length()):
        bit = 1 << i
        if not support & bit:
            continue
        flip = pos ^ bit
        if flip not in projections and not any(flip ^ b in projections for b in below):
            active.append(i + 1)
        below.append(bit)
    return tuple(active)


def independent_activities(d: DeltaMatroid) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(canonical position, code, active indices) of every independent set, in canonical order.

    The independent sets are read from layer 0 of ``distance_layers``.  P_U
    is built once per support U.
    """
    n = d.n
    flags = independent_flags(n, d.feasible)
    pos_by_code, neg_by_code = code_masks(n)
    by_support: dict[int, set[int]] = {}
    for p, code in compress(enumerate(canonical_codes(n)), flags):
        pos = pos_by_code[code]
        support = pos | neg_by_code[code]
        if support not in by_support:
            by_support[support] = {m & support for m in d.feasible}
        yield p, code, _active(by_support[support], support, pos)


def activity(d: DeltaMatroid, iset: AdmissibleSet) -> ActivityRecord:
    """Active indices of an independent set after projecting away untouched indices.

    An index is orientable when flipping its sign leaves the projected family,
    and active when additionally no smaller index admits a double sign flip
    back into the family; ``_active`` decides both on masks.
    """
    if iset.n != d.n:
        raise ValueError("set belongs to a different ground size")
    if not d.is_independent(iset):
        raise ValueError("activity is defined for independent sets only")
    support = iset.underline
    return ActivityRecord(iset, _active({m & support for m in d.feasible}, support, iset.pos))


def activity_expansion(d: DeltaMatroid) -> MultiPoly:
    """Sum u^(n-|I|) v^(a(I)) over independent sets; equals the enumerator at v-1."""
    check_guard(d.n)
    sizes = canonical_sizes(d.n)
    counts = Counter((d.n - sizes[p], len(active)) for p, _, active in independent_activities(d))
    return MultiPoly(("u", "v"), counts)


def substitute_v_minus_1(p: MultiPoly) -> MultiPoly:
    """Replace v by v - 1, taking the enumerator to the activity expansion."""
    return p.substitute("v", MultiPoly(("v",), {(1,): 1, (0,): -1}))


@dataclass(frozen=True)
class ComplexReport:
    faces: tuple[AdmissibleSet, ...]
    fvector: FVector
    pure: bool


def activity_zero_complex(d: DeltaMatroid) -> ComplexReport:
    """The independent sets of activity zero, verified to be downward closed.

    On base-3 codes, dropping index i from a set subtracts its digit times
    3^(i-1), and adding i or -i adds 3^(i-1) or 2·3^(i-1).  Once the faces are
    known to be downward closed, a face lies inside a larger one exactly when
    it lies inside a face one element larger, so purity reads only the
    one-element extensions of each face.
    """
    n = d.n
    sets = enumerate_admissible(n)
    faces = [(p, code) for p, code, active in independent_activities(d) if not active]
    codes = {code for _, code in faces}
    units = [3**i for i in range(n)]
    for p, code in faces:
        if any(code // u % 3 and code - code // u % 3 * u not in codes for u in units):
            raise RuntimeError("activity-zero sets are not downward closed at {%s}" % sets[p].render())
    sizes = canonical_sizes(n)
    maximal_sizes = {
        sizes[p]
        for p, code in faces
        if not any(code // u % 3 == 0 and (code + u in codes or code + 2 * u in codes) for u in units)
    }
    return ComplexReport(
        tuple(sets[p] for p, _ in faces),
        FVector.from_sizes([sizes[p] for p, _ in faces]),
        pure=len(maximal_sizes) <= 1,
    )
