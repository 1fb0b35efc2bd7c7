"""Axiom systems for delta-matroid rank functions and polytope membership.

Three equivalent characterizations of the shifted rank h are checked; the
signed rank g has its own four-axiom system plus an evenness criterion
reported as an informational flag.  All inequalities are evaluated in exact
integer arithmetic; the halved term in the first h-system is handled by
clearing denominators.

Tables are read by canonical position.  Three generators, ``pair_positions``,
``step_positions`` and ``diamond_positions``, name the sets each axiom
compares, and each inequality is written once; the checkers and the
exhaustive search in ``enumerate_h_tables`` all read them.

Every pairwise axiom has the form

    c·(v[S] + v[T]) >= c·(v[meet] + v[join]) + w·overlap

(``_PAIR_AXIOMS``).  Since |S| + |T| = |meet| + |join| + 2·overlap, it holds
on a pair exactly when the table f = 2c·v - w·|S| satisfies the plain
bisubmodular inequality f(S) + f(T) >= f(meet) + f(join) on that pair.  So
the g system, allys (f = 2h - |S|) and larson (f = 4h - |S|, the halved
overlap cleared) are all bisubmodularity of some f, and bouchet, which reads
only pairs with overlap 0, is submodularity of h in each orthant.  By Ando,
Fujishige and Naitoh ("A characterization of bisubmodular functions",
Discrete Math. 148, 1996) f is bisubmodular exactly when two local
conditions hold:

- the step f(X+i) + f(X-i) >= 2 f(X) for every index i outside X, which is
  the pair (X+i, X-i) with meet and join X and overlap 1;
- the diamond f(X+σi) + f(X+τj) >= f(X+σi+τj) + f(X) for i != j outside X
  and all signs σ, τ, which is the pair (X+σi, X+τj) with meet X, join
  X+σi+τj and overlap 0; the diamonds alone are submodularity in each
  orthant.

These O(n²·3^n) local pairs (``_local_pairs``; bouchet skips the steps)
decide every pair axiom.  Only a table that fails them is scanned over all
9^n ordered pairs, which lists its violations in full and in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .deltamatroid import DeltaMatroid, RankTable
from .ground import (
    AdmissibleSet,
    admissible_index,
    canonical_codes,
    canonical_positions,
    canonical_sizes,
    enumerate_admissible,
)

H_SYSTEMS = ("larson", "bouchet", "allys")


def _witness_text(obj) -> str:
    if hasattr(obj, "render"):
        return "{%s}" % obj.render()
    if isinstance(obj, frozenset):
        return "{%s}" % " ".join(str(e) for e in sorted(obj, key=lambda e: (abs(e), -e)))
    return str(obj)


@dataclass(frozen=True)
class Violation:
    axiom: str
    sets: tuple
    lhs: Fraction | int
    rhs: Fraction | int

    def render(self) -> str:
        where = ", ".join(_witness_text(s) for s in self.sets)
        return f"{self.axiom} at {where}: {self.lhs} < {self.rhs}"


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[Violation, ...]
    even: bool | None = None

    @classmethod
    def from_violations(cls, violations: list[Violation], even: bool | None = None) -> "AxiomReport":
        return cls(not violations, tuple(violations), even)


# c·(v[s] + v[t]) >= c·(v[meet] + v[join]) + w·overlap, as (axiom, c, w, disjoint);
# a disjoint axiom only reads pairs with overlap 0, whose join is the plain union.
_PAIR_AXIOMS = {
    "g": ("bisubmodularity", 1, 0, False),
    "larson": ("larson-bisubmodularity", 2, 1, False),
    "bouchet": ("bouchet-submodularity", 1, 0, True),
    "allys": ("allys-bisubmodularity", 1, 1, False),
}


def pair_positions(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(i, j, meet, join, overlap) for every ordered pair of sets, by canonical position.

    ``meet`` and ``join`` are the positions of ``ground.combine`` of the sets
    at i and j, and ``overlap`` counts the indices the two take with opposite
    signs, which the join drops.
    """
    index = admissible_index(n)  # keys in canonical order
    for i, (spos, sneg) in enumerate(index):
        for j, (tpos, tneg) in enumerate(index):
            upos, uneg = spos | tpos, sneg | tneg
            conflict = upos & uneg
            meet = index[spos & tpos, sneg & tneg]
            yield i, j, meet, index[upos ^ conflict, uneg ^ conflict], conflict.bit_count()


def step_positions(n: int) -> Iterator[tuple[int, int, int, int]]:
    """(i, k, plus, minus) for every set and every index k it leaves out.

    ``plus`` and ``minus`` are the positions of the set with k and with -k added.
    """
    codes, position = canonical_codes(n), canonical_positions(n)
    units = [3**e for e in range(n)]
    for i, code in enumerate(codes):
        for k, unit in enumerate(units, start=1):
            if not code // unit % 3:
                yield i, k, position[code + unit], position[code + 2 * unit]


def diamond_positions(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(i, j, X, join, 0) for the sets X + σa and X + τb, indices a < b outside X.

    Yields in the format of ``pair_positions``: the meet of the two sets is X,
    their join is X + σa + τb and they do not overlap.  Each unordered pair
    appears once, for each X and each choice of the signs σ and τ.
    """
    codes, position = canonical_codes(n), canonical_positions(n)
    units = [3**e for e in range(n)]
    for x, code in enumerate(codes):
        free = [unit for unit in units if not code // unit % 3]
        for p, a in enumerate(free):
            for b in free[p + 1 :]:
                for xa in (code + a, code + 2 * a):
                    i = position[xa]
                    yield i, position[code + b], x, position[xa + b], 0
                    yield i, position[code + 2 * b], x, position[xa + 2 * b], 0


def _step_pairs(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Each step (X+k, X-k) as a pair: its meet and join are X, its overlap is 1."""
    for i, _, plus, minus in step_positions(n):
        yield plus, minus, i, i, 1


def _local_pairs(n: int, disjoint: bool) -> Iterator[tuple[int, int, int, int, int]]:
    """The pairs whose inequalities decide a pair axiom (see the module docstring)."""
    if not disjoint:
        yield from _step_pairs(n)
    yield from diamond_positions(n)


def _pair_sides(v, c: int, w: int, i: int, j: int, meet: int, join: int, overlap: int) -> tuple[int, int]:
    """Both sides of the pairwise axiom with constants c and w (see _PAIR_AXIOMS)."""
    return c * (v[i] + v[j]), c * (v[meet] + v[join]) + w * overlap


# (c, w) of the bouchet pair step h(X+k) + h(X-k) >= 2 h(X) + 1 on a step pair
_PAIR_STEP = (1, 1)


def _unit_step(v, i: int) -> range:
    """The values a set one element above the set at position i may take."""
    return range(v[i], v[i] + 2)


def _locally_ok(table: RankTable, system: str) -> bool:
    """Does the table pass its pair axiom on the local pairs, hence on every pair?"""
    _, c, w, disjoint = _PAIR_AXIOMS[system]
    v = table.values
    sides = (_pair_sides(v, c, w, *pair) for pair in _local_pairs(table.n, disjoint))
    return all(lhs >= rhs for lhs, rhs in sides)


def _pair_violations(table: RankTable, system: str) -> list[Violation]:
    """Every ordered pair that fails the pair axiom, in canonical order."""
    axiom, c, w, disjoint = _PAIR_AXIOMS[system]
    v = table.values
    sets = enumerate_admissible(table.n)
    out = []
    for pair in pair_positions(table.n):
        if disjoint and pair[4]:
            continue
        lhs, rhs = _pair_sides(v, c, w, *pair)
        if lhs < rhs:
            if c > 1:  # report in the table's units, e.g. halves for larson
                lhs, rhs = Fraction(lhs, c), Fraction(rhs, c)
            out.append(Violation(axiom, (sets[pair[0]], sets[pair[1]]), lhs, rhs))
    return out


def check_g_axioms(g: RankTable) -> AxiomReport:
    """Normalization, singleton boundedness, bisubmodularity, and parity.

    The returned ``even`` flag records whether the table additionally
    satisfies the midpoint criterion characterizing even delta-matroids; it
    does not affect ``passed``.
    """
    sets = enumerate_admissible(g.n)
    v = g.values
    out: list[Violation] = []
    if v[0] != 0:
        out.append(Violation("normalization", (sets[0],), v[0], 0))
    for s, value in zip(sets, v):
        if s.size == 1 and abs(value) > 1:
            out.append(Violation("boundedness", (s,), 1, abs(value)))
        if (value - s.size) % 2:
            out.append(Violation("parity", (s,), value, s.size))
    if not _locally_ok(g, "g"):
        out.extend(_pair_violations(g, "g"))
    sizes = canonical_sizes(g.n)
    even = all(
        2 * v[i] == v[plus] + v[minus] for i, _, plus, minus in step_positions(g.n) if sizes[i] == g.n - 1
    )
    return AxiomReport.from_violations(out, even=even)


def delta_from_rank(g: RankTable) -> DeltaMatroid:
    """Rebuild the delta-matroid whose feasible sets attain the top rank n."""
    report = check_g_axioms(g)
    if not report.passed:
        first = report.violations[0]
        raise ValueError(f"not a delta-matroid rank table: {first.render()}")
    masks = [s.pos for s, v in zip(enumerate_admissible(g.n), g.values) if s.size == g.n and v == g.n]
    return DeltaMatroid(g.n, masks)


def check_h_axioms(h: RankTable, system: str) -> AxiomReport:
    """Verify one of the three characterizations of shifted rank functions."""
    if system not in H_SYSTEMS:
        raise ValueError(f"unknown h-axiom system {system!r}; pick one of {H_SYSTEMS}")
    sets = enumerate_admissible(h.n)
    v = h.values
    out: list[Violation] = []
    if v[0] != 0:
        out.append(Violation(f"{system}-normalization", (sets[0],), v[0], 0))
    if system == "larson":
        for s, value in zip(sets, v):
            if s.size == 1 and value not in (0, 1):
                out.append(Violation("larson-boundedness", (s,), value, 0))
    else:
        for i, _, plus, minus in step_positions(h.n):
            for up in (plus, minus):
                if v[up] not in _unit_step(v, i):
                    out.append(Violation(f"{system}-unit-step", (sets[i], sets[up]), v[up], v[i]))
    if not _locally_ok(h, system):
        out.extend(_pair_violations(h, system))
    if system == "bouchet":
        for pair in _step_pairs(h.n):
            lhs, rhs = _pair_sides(v, *_PAIR_STEP, *pair)
            if lhs < rhs:
                out.append(Violation("bouchet-pair-step", (sets[pair[2]],), lhs, rhs))
    return AxiomReport.from_violations(out)


def enumerate_h_tables(n: int, system: str) -> list[RankTable]:
    """All integer tables passing the chosen h-axiom system, by pruned search.

    Unit steps confine each value to a two-point interval determined by the
    already-assigned subsets, and every remaining inequality is checked the
    moment its last participant gets a value, so the search tree stays close
    to the solution count.  The pair axiom enters through its local pairs
    only; they accept the same complete tables as the full pair set, and
    values are tried in increasing order, so the output is the same sorted
    list.  Used to test that every passing table is the shifted rank of some
    delta-matroid.
    """
    if system not in ("bouchet", "allys"):
        raise ValueError("exhaustive enumeration supports the bouchet and allys systems")
    count = 3**n
    below: list[list[int]] = [[] for _ in range(count)]
    for i, _, plus, minus in step_positions(n):
        below[plus].append(i)
        below[minus].append(i)
    _, c, w, disjoint = _PAIR_AXIOMS[system]
    checks = [(c, w, *pair) for pair in _local_pairs(n, disjoint)]
    if system == "bouchet":
        checks += [(*_PAIR_STEP, *pair) for pair in _step_pairs(n)]
    checks_by_last: list[list[tuple]] = [[] for _ in range(count)]
    for check in checks:
        checks_by_last[max(check[2:6])].append(check)

    values = [0] * count
    out: list[RankTable] = []

    def walk(p: int) -> None:
        if p == count:
            out.append(RankTable(n, tuple(values)))
            return
        steps = [_unit_step(values, i) for i in below[p]]
        for value in range(max(r.start for r in steps), min(r.stop for r in steps)):
            values[p] = value
            if all(lhs >= rhs for lhs, rhs in (_pair_sides(values, *check) for check in checks_by_last[p])):
                walk(p + 1)

    walk(1)
    return out


def polytope_membership(f: RankTable, x: Sequence[Fraction | int]) -> bool:
    """Does x satisfy <e_S, x> <= f(S) for every nonempty admissible S?"""
    if len(x) != f.n:
        raise ValueError(f"point has dimension {len(x)}, expected {f.n}")
    xs = [Fraction(c) for c in x]
    for s, v in f.items():
        if s.size == 0:
            continue
        inner = sum(xs[i] for i in range(f.n) if s.pos >> i & 1) - sum(
            xs[i] for i in range(f.n) if s.neg >> i & 1
        )
        if inner > v:
            return False
    return True


def greedy_check(d: DeltaMatroid) -> AxiomReport:
    """Maximizers of |S ^ B| already realize the best |T ^ B| for every T over S."""
    full = (1 << d.n) - 1
    out: list[Violation] = []
    for t in enumerate_admissible(d.n):
        overlaps = [((t.pos & p).bit_count() + (t.neg & ~p & full).bit_count()) for p in d.feasible]
        best_t = max(overlaps)
        for sp in _submasks(t.pos):
            for sn in _submasks(t.neg):
                s_overlaps = [((sp & p).bit_count() + (sn & ~p & full).bit_count()) for p in d.feasible]
                best_s = max(s_overlaps)
                restricted = max(o for o, so in zip(overlaps, s_overlaps) if so == best_s)
                if restricted != best_t:
                    s = AdmissibleSet(d.n, sp, sn)
                    out.append(Violation("greedy", (s, t), restricted, best_t))
    return AxiomReport.from_violations(out)


def _submasks(mask: int) -> list[int]:
    subs = [0]
    m = mask
    sub = mask
    while sub:
        subs.append(sub)
        sub = (sub - 1) & m
    return sorted(set(subs))
