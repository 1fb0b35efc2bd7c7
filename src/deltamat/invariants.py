"""Enumerative invariants: the two-variable rank enumerator, the interlace
specialization, independence-complex face counts, and activity expansions.

The enumerator is computed two ways, by its defining sum over all admissible
sets and by deletion/contraction/projection recursion with memoized minors;
the two must agree and the tests enforce it.  Activities follow the fixed
index order 1 < 2 < ... < n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .deltamatroid import DeltaMatroid
from .ground import AdmissibleSet, canonical_sizes, check_guard
from .poly import MultiPoly
from .rankfn import AxiomReport, Violation


def upoly(d: DeltaMatroid, method: str = "direct") -> MultiPoly:
    if method == "direct":
        return upoly_direct(d)
    if method == "recursive":
        return upoly_recursive(d)
    raise ValueError(f"unknown method {method!r}")


def upoly_direct(d: DeltaMatroid) -> MultiPoly:
    """Sum u^(n-|S|) v^((|S|-g(S))/2) over all admissible sets."""
    pairs = Counter(zip(canonical_sizes(d.n), d.rank_table().values))
    return MultiPoly(("u", "v"), {(d.n - size, (size - g) // 2): c for (size, g), c in pairs.items()})


def upoly_recursive(d: DeltaMatroid, pivot: str = "min") -> MultiPoly:
    """Three-way recursion on a pivot index, with memoized canonical minors.

    ``pivot`` picks the smallest or largest live index; any choice yields the
    same polynomial, which the tests sample.
    """
    if pivot not in ("min", "max"):
        raise ValueError("pivot must be 'min' or 'max'")
    u = MultiPoly(("u", "v"), {(1, 0): 1})
    uv1 = MultiPoly(("u", "v"), {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    memo: dict[tuple, MultiPoly] = {}

    def rec(dm: DeltaMatroid) -> MultiPoly:
        if dm.n == 0:
            return MultiPoly.constant(1, ("u", "v"))
        key = (dm.n, dm.feasible)
        hit = memo.get(key)
        if hit is not None:
            return hit
        i = 1 if pivot == "min" else dm.n
        loops, coloops = dm.loops_coloops()
        if i in loops or i in coloops:
            res = uv1 * rec(dm.minor(project=[i]))
        else:
            res = (
                rec(dm.minor(contract=[i]))
                + rec(dm.minor(delete=[i]))
                + u * rec(dm.minor(project=[i]))
            )
        memo[key] = res
        return res

    return rec(d)


def interlace(d: DeltaMatroid) -> MultiPoly:
    """The u = 0 slice: a polynomial in v summed over full-size sets only."""
    # canonical order sorts by size, so the 2^n full-size sets come last
    full = Counter(d.rank_table().values[-(1 << d.n) :])
    return MultiPoly(("v",), {((d.n - g) // 2,): c for g, c in full.items()})


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
    """Counts of independent sets by size; always has length n + 1.

    Every feasible set is independent and has size n, so the largest size is n.
    """
    g = d.rank_table().values
    return FVector.from_sizes([size for size, gv in zip(canonical_sizes(d.n), g) if gv == size])


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


def activity(d: DeltaMatroid, iset: AdmissibleSet) -> ActivityRecord:
    """Active indices of an independent set after projecting away untouched indices.

    An index is orientable when flipping its sign leaves the projected family,
    and active when additionally no smaller index admits a double sign flip
    back into the family.
    """
    if iset.n != d.n:
        raise ValueError("set belongs to a different ground size")
    if not d.is_independent(iset):
        raise ValueError("activity is defined for independent sets only")
    labels = [i for i in range(1, d.n + 1) if iset.underline >> (i - 1) & 1]
    dp = d.project_all_but(labels)
    bpos = 0
    for k, orig in enumerate(labels, start=1):
        if iset.pos >> (orig - 1) & 1:
            bpos |= 1 << (k - 1)
    fam = set(dp.feasible)
    active = []
    for k in range(1, dp.n + 1):
        bit = 1 << (k - 1)
        if (bpos ^ bit) in fam:
            continue  # not orientable: the single flip stays feasible
        if any((bpos ^ bit ^ (1 << (j - 1))) in fam for j in range(1, k)):
            continue
        active.append(labels[k - 1])
    return ActivityRecord(iset, tuple(active))


def activity_expansion(d: DeltaMatroid) -> MultiPoly:
    """Sum u^(n-|I|) v^(a(I)) over independent sets; equals the enumerator at v-1."""
    check_guard(d.n)
    counts: dict[tuple[int, int], int] = {}
    for iset in d.independents():
        rec = activity(d, iset)
        key = (d.n - iset.size, rec.a)
        counts[key] = counts.get(key, 0) + 1
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
    """The independent sets of activity zero, verified to be downward closed."""
    faces = [iset for iset in d.independents() if activity(d, iset).a == 0]
    face_set = {(f.pos, f.neg) for f in faces}
    for f in faces:
        for e in f.elements():
            smaller = AdmissibleSet.from_elements(d.n, [x for x in f.elements() if x != e])
            if (smaller.pos, smaller.neg) not in face_set:
                raise RuntimeError(
                    "activity-zero sets are not downward closed at {%s}" % f.render()
                )
    maximal_sizes = {
        f.size
        for f in faces
        if not any(g is not f and f.is_subset(g) for g in faces)
    }
    return ComplexReport(
        tuple(faces),
        FVector.from_sizes([f.size for f in faces]),
        pure=len(maximal_sizes) <= 1,
    )
