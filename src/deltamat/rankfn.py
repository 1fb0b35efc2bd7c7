"""Axiom systems for delta-matroid rank functions and polytope membership.

Three equivalent characterizations of the shifted rank h are checked; the
signed rank g has its own four-axiom system plus an evenness criterion
reported as an informational flag.  All inequalities are evaluated in exact
integer arithmetic; the halved term in the first h-system is handled by
clearing denominators.

Each checker reads its table once into base-3 code order and indexes it by
code from then on: as a lane, one byte per set (``table_by_code``, or
``formats.ranktable_lane`` straight from a file), when every value lies in
``LANE_VALUES``, else as a list (``_by_code``).  Three generators,
``pair_codes``, ``step_codes`` and ``diamond_codes``, name the sets each
axiom compares, as codes, and each inequality is written once; the violation
listings and the exhaustive search in ``enumerate_h_tables`` read them.
Canonical order, walked block by block (``ground.walk_codes``), shows only in
the order in which violations are listed and in the tables
``enumerate_h_tables`` returns.  The pass/fail verdict reads the same
inequalities as marginals (below).

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
decide every pair axiom.

The checkers decide them from marginals, in base-3 code order
(``_local_summary``).  For an index i, split the table on digit i into a0,
a1 and a2, the values at X, X+i and X-i for the sets X that leave i out;
the marginals are d+ = a1 - a0 and d- = a2 - a0.  The marginal of
f = 2c·v - w·|S| is 2c·d - w, so the step is c·(d+ + d-) >= w, and the
diamond is d non-increasing when ±j is added to X, the same test for every
system since w·|S| cancels.  The unit steps (0 <= d <= 1), bouchet's pair
step (d+ + d- >= 1) and the even criterion (d+ + d- = 0 at |X| = n - 1)
read the same lists.  On a list, each condition is a C-level ``map`` or
``min`` over strided slices (``_local_summary``).  On a lane the slices are
of bytes, and each list of differences is one big-int subtraction of lanes
whose bytes cannot borrow (``_lane_summary``): ``bytes.translate`` to step
signs, byte counts and a mask of top bits decide each condition, as the
checks compare the least step only with 0 and 1, and a passing table costs
O(n²·3^n) byte operations, builds no int per set and no tuple per pair.
``_local_summary`` stays as the list route, for tables a lane cannot hold,
and as the oracle of the lane route.  Only a table that fails a condition
goes through the listings, on the list of its values, and a table that
fails its pair axiom is scanned over all 9^n ordered pairs, which lists its
violations in full and in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, ge, sub, xor
from typing import Iterator, NamedTuple, Sequence

from .deltamatroid import DeltaMatroid, RankTable, _size_lanes, all_full_size_masks
from .ground import (
    AdmissibleSet, canonical_tuple, code_masks, code_order, element_key, mask_weights, set_of_code, submasks,
    walk_codes,
)

H_SYSTEMS = ("larson", "bouchet", "allys")


def _witness_text(obj) -> str:
    if hasattr(obj, "render"):
        return "{%s}" % obj.render()
    if isinstance(obj, frozenset):
        return "{%s}" % " ".join(str(e) for e in sorted(obj, key=element_key))
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


# A lane holds a table by base-3 code in bytes, each value v as v + 32: with every byte below 64, no
# difference that _lane_summary takes wraps a byte.
LANE_VALUES = range(-32, 32)
_BIAS = -LANE_VALUES.start
_LANE_BYTES = {value: value + _BIAS for value in LANE_VALUES}
LANE_TOKENS = {str(value): byte for value, byte in _LANE_BYTES.items()}  # a value as written to its byte
_UNBIASED = bytes((byte - _BIAS) % 256 for byte in range(256))  # a byte to its value as a signed byte
_LOW_BIT = bytes(range(2)) * 128  # each byte's lowest bit
_STEP_SIGNS = bytes(128) + b"\1" + b"\2" * 127  # a step byte d+ + d- + 128 to 0, 1 or 2 as d+ + d- <, = or > 0


def _by_code(table: RankTable) -> list[int]:
    """The table's values indexed by base-3 code: the one read of its canonical order."""
    return code_order(table.n, table.values, [0] * len(table.values))


def table_by_code(table: RankTable) -> bytes | list[int]:
    """The table's values by base-3 code: a lane (``LANE_VALUES``) when every value fits one, else a list."""
    try:
        canonical = bytes(map(_LANE_BYTES.__getitem__, table.values))
    except KeyError:
        return _by_code(table)
    return bytes(code_order(table.n, canonical, bytearray(len(canonical))))


def pair_codes(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(s, t, meet, join, overlap) for every ordered pair of sets, as codes, in canonical order.

    ``meet`` and ``join`` are the codes of ``ground.combine`` of the sets s
    and t, and ``overlap`` counts the indices the two take with opposite
    signs, which the join drops.
    """
    pos, neg = code_masks(n)
    masks = [(c, pos[c], neg[c]) for c in walk_codes(n)]
    weight = mask_weights(n)
    for s, spos, sneg in masks:
        for t, tpos, tneg in masks:
            upos, uneg = spos | tpos, sneg | tneg
            conflict = upos & uneg
            meet = weight[spos & tpos] + 2 * weight[sneg & tneg]
            join = weight[upos ^ conflict] + 2 * weight[uneg ^ conflict]
            yield s, t, meet, join, conflict.bit_count()


def step_codes(n: int) -> Iterator[tuple[int, int, int, int]]:
    """(x, k, plus, minus) for every set x, in canonical order, and every index k it leaves out.

    ``plus`` and ``minus`` are the codes of x with k and with -k added.
    """
    units = [3**e for e in range(n)]
    for code in walk_codes(n):
        for k, unit in enumerate(units, start=1):
            if not code // unit % 3:
                yield code, k, code + unit, code + 2 * unit


def diamond_codes(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(s, t, X, join, 0) for the sets X + σa and X + τb, indices a < b outside X.

    Yields in the format of ``pair_codes``: the meet of the two sets is X,
    their join is X + σa + τb and they do not overlap.  Each unordered pair
    appears once, for each X in canonical order and each choice of the signs
    σ and τ.
    """
    units = [3**e for e in range(n)]
    for code in walk_codes(n):
        free = [unit for unit in units if not code // unit % 3]
        for p, a in enumerate(free):
            for b in free[p + 1 :]:
                for xa in (code + a, code + 2 * a):
                    yield xa, code + b, code, xa + b, 0
                    yield xa, code + 2 * b, code, xa + 2 * b, 0


def _step_pairs(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Each step (X+k, X-k) as a pair: its meet and join are X, its overlap is 1."""
    for x, _, plus, minus in step_codes(n):
        yield plus, minus, x, x, 1


def _local_pairs(n: int, disjoint: bool) -> Iterator[tuple[int, int, int, int, int]]:
    """The pairs whose inequalities decide a pair axiom (see the module docstring)."""
    if not disjoint:
        yield from _step_pairs(n)
    yield from diamond_codes(n)


def _pair_sides(v, c: int, w: int, i: int, j: int, meet: int, join: int, overlap: int) -> tuple[int, int]:
    """Both sides of the pairwise axiom with constants c and w (see _PAIR_AXIOMS)."""
    return c * (v[i] + v[j]), c * (v[meet] + v[join]) + w * overlap


# (c, w) of the bouchet pair step h(X+k) + h(X-k) >= 2 h(X) + 1 on a step pair
_PAIR_STEP = (1, 1)


def _unit_step(v, x: int) -> range:
    """The values a set one element above the set with code x may take."""
    return range(v[x], v[x] + 2)


class _LocalSummary(NamedTuple):
    """What the local conditions read from a table's marginals d+ and d-."""

    least_step: int  # least d+ + d- over every step (X+i, X-i), clamped to -1..1; 1 when n = 0
    unit: bool  # every marginal is 0 or 1
    diamond: bool  # every marginal is non-increasing when ±j is added, j != i
    even: bool  # d+ + d- = 0 wherever |X| = n - 1


def _local_summary(n: int, v: list[int]) -> _LocalSummary:
    """One pass over a table by code, one index at a time (module docstring).

    Digit i is the lowest digit when index i comes up: the strided slices
    v[k::3] are then a0, a1 and a2, and their concatenation moves digit i to
    the top.  So the marginals of i are in code order on the digits i+1, ...,
    n-1, 0, ..., i-1, lowest first, and the same rotation brings each j > i
    down in turn for its diamonds; each unordered pair {i, j} is read once.
    """
    least_step, unit, diamond, even = 1, True, True, True
    for i in range(n):
        a0, a1, a2 = v[0::3], v[1::3], v[2::3]
        v = a0 + a1 + a2
        plus, minus = list(map(sub, a1, a0)), list(map(sub, a2, a0))
        steps = list(map(add, plus, minus))
        least_step = min(least_step, max(min(steps), -1))
        d = plus + minus
        unit = unit and min(d) >= 0 and max(d) <= 1
        diamond = diamond and _nonincreasing(d, n - 1 - i)
        for _ in range(n - 1):  # keep the X that take every other index
            steps = steps[1::3] + steps[2::3]
        even = even and not any(steps)
    return _LocalSummary(least_step, unit, diamond, even)


def _nonincreasing(d: list[int], digits: int) -> bool:
    """Is d non-increasing as each of its ``digits`` lowest digits goes from 0 to 1 or 2?"""
    for _ in range(digits):
        e0, e1, e2 = d[0::3], d[1::3], d[2::3]
        if not (all(map(ge, e0, e1)) and all(map(ge, e0, e2))):
            return False
        d = e0 + e1 + e2
    return True


def _big(data: bytes) -> int:
    """The bytes as one int, byte k in bits 8k to 8k + 7."""
    return int.from_bytes(data, "little")


def _lane_summary(n: int, lane: bytes) -> _LocalSummary:
    """``_local_summary`` on a lane, the same slices taken of bytes and subtracted as big ints.

    With every byte in 0..63, (a1 + 64) - a0 puts d+ + 64 in each byte, 1..127, so no byte
    borrows from the next; the step bytes d+ + d- + 128 lie in 2..254, and so do the bytes
    (d at X) - (d at X±j) + 128 that decide the diamonds (``_lane_nonincreasing``).
    """
    least_step, unit, diamond, even = 1, True, True, True
    size = len(lane) // 3
    half = _big(b"\x40" * size)  # 64 in every byte
    units = _big(b"\xfe" * size)  # every bit but the lowest of each byte
    for i in range(n):
        a0, a1, a2 = lane[0::3], lane[1::3], lane[2::3]
        lane = a0 + a1 + a2
        low = _big(a0) - half
        plus, minus = _big(a1) - low, _big(a2) - low
        steps = (plus + minus).to_bytes(size, "little")
        signs = steps.translate(_STEP_SIGNS)
        least_step = min(least_step, -1 if 0 in signs else 0 if 1 in signs else 1)
        unit = unit and plus & units == minus & units == half
        if diamond:
            d = plus.to_bytes(size, "little") + minus.to_bytes(size, "little")
            diamond = _lane_nonincreasing(d, n - 1 - i)
        for _ in range(n - 1):  # keep the X that take every other index
            steps = steps[1::3] + steps[2::3]
        even = even and steps.count(128) == len(steps)
    return _LocalSummary(least_step, unit, diamond, even)


def _lane_nonincreasing(d: bytes, digits: int) -> bool:
    """``_nonincreasing`` on the bytes d + 64: each e0 - e1 + 128 keeps its top bit exactly when e0 >= e1."""
    top = _big(b"\x80" * (len(d) // 3))
    for _ in range(digits):
        e0, e1, e2 = d[0::3], d[1::3], d[2::3]
        high = _big(e0) + top
        if (high - _big(e1)) & (high - _big(e2)) & top != top:
            return False
        d = e0 + e1 + e2
    return True


def _summary(n: int, by_code: bytes | list[int]) -> _LocalSummary:
    return _lane_summary(n, by_code) if isinstance(by_code, bytes) else _local_summary(n, by_code)


def lane_values(lane: bytes) -> memoryview:
    """The values a lane holds, in its order, as signed bytes."""
    return memoryview(lane.translate(_UNBIASED)).cast("b")


def _listed(by_code: bytes | list[int]) -> list[int]:
    """The values by code as a list, as the violation listings read them."""
    return lane_values(by_code).tolist() if isinstance(by_code, bytes) else by_code


def _singletons(n: int) -> list[int]:
    """The codes of the 2n one-element sets, in canonical order."""
    return [sign * 3**i for i in range(n) for sign in (1, 2)]


def _steps_hold(local: _LocalSummary, c: int, w: int) -> bool:
    """c·(v[X+i] + v[X-i]) >= 2c·v[X] + w, i.e. c·(d+ + d-) >= w, on every step.

    Every axiom has 0 <= w <= c, so the least step clamped to -1..1 decides it.
    """
    return c * local.least_step >= w


def _pair_axiom_holds(local: _LocalSummary, system: str) -> bool:
    """Does the table pass its pair axiom on the local pairs, hence on every pair?"""
    _, c, w, disjoint = _PAIR_AXIOMS[system]
    return local.diamond and (disjoint or _steps_hold(local, c, w))


def _witness(n: int, *codes: int) -> tuple[AdmissibleSet, ...]:
    """The sets with these codes, decoded only to report a violation."""
    return tuple(set_of_code(n, c) for c in codes)


def _pair_violations(n: int, v: list[int], system: str) -> list[Violation]:
    """Every ordered pair that fails the pair axiom on the table v by code, in canonical order."""
    axiom, c, w, disjoint = _PAIR_AXIOMS[system]
    out = []
    witness = cache(lambda code: set_of_code(n, code))  # a set in many failing pairs is decoded once
    for pair in pair_codes(n):
        if disjoint and pair[4]:
            continue
        lhs, rhs = _pair_sides(v, c, w, *pair)
        if lhs < rhs:
            if c > 1:  # report in the table's units, e.g. halves for larson
                lhs, rhs = Fraction(lhs, c), Fraction(rhs, c)
            out.append(Violation(axiom, (witness(pair[0]), witness(pair[1])), lhs, rhs))
    return out


def check_g_axioms(g: RankTable) -> AxiomReport:
    """Normalization, singleton boundedness, bisubmodularity, and parity.

    The returned ``even`` flag records whether the table additionally
    satisfies the midpoint criterion characterizing even delta-matroids; it
    does not affect ``passed``.
    """
    return g_axioms(g.n, table_by_code(g))


def g_axioms(n: int, by_code: bytes | list[int]) -> AxiomReport:
    """``check_g_axioms`` on the values by base-3 code, a lane or a list (``table_by_code``)."""
    local = _summary(n, by_code)
    bias = _BIAS if isinstance(by_code, bytes) else 0  # even, so a value's parity is its byte's
    paired = _pair_axiom_holds(local, "g")
    bounded = all(abs(by_code[c] - bias) <= 1 for c in _singletons(n))
    sizes = _size_lanes(n).to_bytes(len(by_code), "little")  # |S| by code
    if isinstance(by_code, bytes):
        parity = by_code.translate(_LOW_BIT) == sizes.translate(_LOW_BIT)
    else:
        parity = not any(map((1).__and__, map(xor, by_code, sizes)))  # value - size is odd where value ^ size is
    if paired and bounded and parity and by_code[0] == bias:
        return AxiomReport(True, (), local.even)
    v = _listed(by_code)
    out: list[Violation] = []
    if v[0] != 0:
        out.append(Violation("normalization", _witness(n, 0), v[0], 0))
    for c in walk_codes(n):
        size, value = sizes[c], v[c]
        if size == 1 and abs(value) > 1:
            out.append(Violation("boundedness", _witness(n, c), 1, abs(value)))
        if (value - size) % 2:
            out.append(Violation("parity", _witness(n, c), value, size))
    if not paired:
        out.extend(_pair_violations(n, v, "g"))
    return AxiomReport.from_violations(out, even=local.even)


def delta_from_rank(g: RankTable) -> DeltaMatroid:
    """Rebuild the delta-matroid whose feasible sets attain the top rank n."""
    report = check_g_axioms(g)
    if not report.passed:
        first = report.violations[0]
        raise ValueError(f"not a delta-matroid rank table: {first.render()}")
    n = g.n
    full_size = g.values[len(g.values) - (1 << n) :]  # last in canonical order, as all_full_size_masks lists them
    return DeltaMatroid(n, [m for m, v in zip(all_full_size_masks(n), full_size) if v == n])


def check_h_axioms(h: RankTable, system: str) -> AxiomReport:
    """Verify one of the three characterizations of shifted rank functions."""
    return h_axioms(h.n, table_by_code(h), system)


def h_axioms(n: int, by_code: bytes | list[int], system: str) -> AxiomReport:
    """``check_h_axioms`` on the values by base-3 code, a lane or a list (``table_by_code``)."""
    if system not in H_SYSTEMS:
        raise ValueError(f"unknown h-axiom system {system!r}; pick one of {H_SYSTEMS}")
    local = _summary(n, by_code)
    bias = _BIAS if isinstance(by_code, bytes) else 0
    paired = _pair_axiom_holds(local, system)
    singletons = _singletons(n)
    if system == "larson":  # boundedness
        others_hold = {by_code[c] - bias for c in singletons} <= {0, 1}
    else:
        others_hold = local.unit and (system != "bouchet" or _steps_hold(local, *_PAIR_STEP))
    if paired and others_hold and by_code[0] == bias:
        return AxiomReport(True, ())
    v = _listed(by_code)
    out: list[Violation] = []
    if v[0] != 0:
        out.append(Violation(f"{system}-normalization", _witness(n, 0), v[0], 0))
    if system == "larson":
        for c in singletons:
            if v[c] not in (0, 1):
                out.append(Violation("larson-boundedness", _witness(n, c), v[c], 0))
    else:
        for x, _, plus, minus in step_codes(n):
            for up in (plus, minus):
                if v[up] not in _unit_step(v, x):
                    out.append(Violation(f"{system}-unit-step", _witness(n, x, up), v[up], v[x]))
    if not paired:
        out.extend(_pair_violations(n, v, system))
    if system == "bouchet":
        for pair in _step_pairs(n):
            lhs, rhs = _pair_sides(v, *_PAIR_STEP, *pair)
            if lhs < rhs:
                out.append(Violation("bouchet-pair-step", _witness(n, pair[2]), lhs, rhs))
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
    codes = list(walk_codes(n))
    count = len(codes)
    below: list[list[int]] = [[] for _ in range(count)]
    for x, _, plus, minus in step_codes(n):
        below[plus].append(x)
        below[minus].append(x)
    _, c, w, disjoint = _PAIR_AXIOMS[system]
    checks = [(c, w, *pair) for pair in _local_pairs(n, disjoint)]
    if system == "bouchet":
        checks += [(*_PAIR_STEP, *pair) for pair in _step_pairs(n)]
    # a check's last set in canonical order has its largest code: a diamond's
    # join holds its other sets, and a step's X - k follows X + k
    checks_by_last: list[list[tuple]] = [[] for _ in range(count)]
    for check in checks:
        checks_by_last[max(check[2:6])].append(check)

    values = [0] * count  # by code
    out: list[RankTable] = []

    def walk(p: int) -> None:
        if p == count:
            out.append(RankTable(n, canonical_tuple(n, values)))
            return
        code = codes[p]
        steps = [_unit_step(values, x) for x in below[code]]
        for value in range(max(r.start for r in steps), min(r.stop for r in steps)):
            values[code] = value
            if all(lhs >= rhs for lhs, rhs in (_pair_sides(values, *check) for check in checks_by_last[code])):
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
    n, full = d.n, (1 << d.n) - 1
    pos, neg = code_masks(n)
    out: list[Violation] = []
    for c in walk_codes(n):
        tp, tn = pos[c], neg[c]
        overlaps = [((tp & p).bit_count() + (tn & ~p & full).bit_count()) for p in d.feasible]
        best_t = max(overlaps)
        for sp in submasks(tp):
            for sn in submasks(tn):
                s_overlaps = [((sp & p).bit_count() + (sn & ~p & full).bit_count()) for p in d.feasible]
                best_s = max(s_overlaps)
                restricted = max(o for o, so in zip(overlaps, s_overlaps) if so == best_s)
                if restricted != best_t:
                    witness = (AdmissibleSet(n, sp, sn), AdmissibleSet(n, tp, tn))
                    out.append(Violation("greedy", witness, restricted, best_t))
    return AxiomReport.from_violations(out)
