"""Seeded, non-trivial benchmark inputs and the benchmark's own oracles.

Everything here is independent of the code under test: feasible families are
built as bitmasks (bit ``i-1`` set means index ``i`` is taken unbarred, as in
``DeltaMatroid``), GF(2) principal minors use an XOR-basis rank rather than
pivoting, and validity is decided by Bouchet's symmetric exchange axiom
written directly on the masks.  Only finished mask lists are handed to the
program, through ``DeltaMatroid(n, masks)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    masks: tuple[int, ...]
    # optional extras: the symmetric GF(2) matrix rows a gf2 instance came
    # from, and the name of the instance this one is a twist of
    gf2_rows: tuple[int, ...] | None = None
    twist_of: str | None = None

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def g_terms(self) -> int:
        """Work of one full rank table by the defining max: 3^n * |F|."""
        return 3**self.n * len(self.masks)

    @property
    def candidate_pairs(self) -> int:
        """Feasible pairs that differ on more than two indices."""
        ms = self.masks
        return sum(
            1 for i in range(len(ms)) for j in range(i + 1, len(ms)) if (ms[i] ^ ms[j]).bit_count() > 2
        )

    def record(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "F": self.size,
            "g_terms": self.g_terms,
            "candidate_pairs": self.candidate_pairs,
        }


# -- constructions ---------------------------------------------------------------


def free(n: int) -> Instance:
    return Instance(f"free{n}", n, tuple(range(1 << n)))


def _gf2_rank(vectors: list[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def gf2_masks(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """X is feasible when the principal submatrix A[X] is nonsingular over GF(2)."""
    out = []
    for x in range(1 << n):
        idx = [i for i in range(n) if x >> i & 1]
        if _gf2_rank([rows[i] & x for i in idx]) == len(idx):
            out.append(x)
    return tuple(out)


def random_symmetric(rng: random.Random, n: int) -> tuple[int, ...]:
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def gf2(name: str, rng: random.Random, n: int, size: int, draws: int) -> Instance:
    """A seeded GF(2) principal-minor instance with exactly ``size`` feasible sets.

    Pinning |F| pins the work of the rank layer (3^n * |F|), so instances
    drawn with different seeds cost the same there.  At least ``draws``
    matrices are drawn whatever the seed, so that building the input takes
    about the same time for every seed.
    """
    found = None
    drawn = 0
    while found is None or drawn < draws:
        rows = random_symmetric(rng, n)
        masks = gf2_masks(n, rows)
        drawn += 1
        if found is None and len(masks) == size:
            found = Instance(name, n, masks, gf2_rows=rows)
    return found


def _acyclic(edges: list[tuple[int, int]], vertices: int) -> bool:
    parent = list(range(vertices))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def graphic_bases(edges: list[tuple[int, int]], vertices: int) -> list[int]:
    """Spanning forests of a connected graph as masks over its edge list."""
    rank = vertices - 1
    out = []
    for tree in combinations(range(len(edges)), rank):
        if _acyclic([edges[e] for e in tree], vertices):
            out.append(sum(1 << e for e in tree))
    return out


def uniform_bases(r: int, m: int) -> list[int]:
    return [sum(1 << e for e in c) for c in combinations(range(m), r)]


def independents_of(bases: list[int]) -> list[int]:
    out: set[int] = set()
    for b in bases:
        sub = b
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & b
    return sorted(out)


def matroid(name: str, n: int, bases: list[int], mode: str) -> Instance:
    """The two matroid constructions: feasible X + bar(complement of X)."""
    masks = bases if mode == "bases" else independents_of(bases)
    return Instance(name, n, tuple(sorted(masks)))


def random_signed_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """Images of 1..n as signed integers; never the identity."""
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        image = tuple(p if rng.random() < 0.5 else -p for p in perm)
        if image != tuple(range(1, n + 1)):
            return image


def twist_masks(n: int, masks: tuple[int, ...], image: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a signed permutation to full-size sets given by their unbarred masks.

    Index i (unbarred when bit i-1 is set) goes to |image[i-1]|, keeping its
    sign when image[i-1] > 0 and flipping it otherwise.
    """
    out = []
    for m in masks:
        t = 0
        for i, v in enumerate(image):
            taken = bool(m >> i & 1)
            if taken == (v > 0):
                t |= 1 << (abs(v) - 1)
        out.append(t)
    return tuple(sorted(out))


def twist(inst: Instance, rng: random.Random) -> Instance:
    image = random_signed_permutation(rng, inst.n)
    return Instance(
        f"twist({inst.name})", inst.n, twist_masks(inst.n, inst.masks, image), twist_of=inst.name
    )


# -- oracles -----------------------------------------------------------------------


def exchange_ok(masks: tuple[int, ...]) -> bool:
    """Bouchet's symmetric exchange axiom on full-size sets given as masks.

    For feasible A, B and x in A delta B there is y in A delta B (y = x
    allowed) with A delta {x, y} feasible.
    """
    fam = set(masks)
    for a in masks:
        for b in masks:
            diff = a ^ b
            for x in range(diff.bit_length()):
                if not diff >> x & 1:
                    continue
                ax = a ^ (1 << x)
                if not any(
                    diff >> y & 1 and (ax ^ (1 << y) if y != x else ax) in fam
                    for y in range(diff.bit_length())
                ):
                    return False
    return True


def g_value(n: int, masks: tuple[int, ...], pos: int, neg: int) -> int:
    """Signed rank by its definition: the largest <e_S, e_B> over feasible B."""
    full = (1 << n) - 1
    return max(
        (pos & b).bit_count() - (pos & ~b & full).bit_count()
        + (neg & ~b & full).bit_count() - (neg & b).bit_count()
        for b in masks
    )


def independent_sets(n: int, masks: tuple[int, ...]) -> set[tuple[int, int]]:
    """All (pos, neg) contained in some feasible set."""
    full = (1 << n) - 1
    out: set[tuple[int, int]] = set()
    for b in masks:
        nb = full & ~b
        for u in range(1 << n):
            out.add((u & b, u & nb))
    return out


def fvector(n: int, masks: tuple[int, ...]) -> list[int]:
    counts = [0] * (n + 1)
    for pos, neg in independent_sets(n, masks):
        counts[(pos | neg).bit_count()] += 1
    return counts


def random_admissible(rng: random.Random, n: int) -> tuple[int, int]:
    pos = neg = 0
    for i in range(n):
        state = rng.randrange(3)
        if state == 1:
            pos |= 1 << i
        elif state == 2:
            neg |= 1 << i
    return pos, neg


def render(n: int, pos: int, neg: int) -> str:
    """Signed elements in increasing index order, as the text formats write them."""
    out = []
    for i in range(n):
        if pos >> i & 1:
            out.append(str(i + 1))
        elif neg >> i & 1:
            out.append(str(-(i + 1)))
    return " ".join(out)



# -- reference task ------------------------------------------------------------------


class ReferenceTask:
    """A fixed piece of the benchmark's own pure-Python work, timed next to the calls.

    The machine's speed drifts by a fifth and more over minutes, for every
    pure-Python program alike, so the runs time this task before each op and
    after each call into deltamat, and scale each call's time by it.  It
    takes about 10 ms and mixes the kinds of work the workloads do: the
    signed-rank oracle ``g_value`` on the free delta-matroid at n = 6 (bit
    operations, generators, ``max``), exact ``Fraction`` elimination on a
    pinned 13 x 13 matrix (exact arithmetic, as in the validators' LP and
    the Lorentzian Hessians), and tuple-keyed dict lookups with text
    rendering (tables read by the axiom checkers and written by the cli).
    It does not touch deltamat, so no change to the program moves it.
    """

    N = 6

    def __init__(self) -> None:
        self.masks = free(self.N).masks
        rng = random.Random("reference")
        self.sets = [random_admissible(rng, self.N) for _ in range(200)]
        self.matrix = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(13)] for _ in range(13)]
        self.expected = self.run()

    def run(self) -> tuple:
        n = self.N
        ranks = sum(g_value(n, self.masks, pos, neg) for pos, neg in self.sets)
        rows = [row[:] for row in self.matrix]
        det = Fraction(1)
        for c in range(len(rows)):
            p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
            if p is None:
                det = Fraction(0)
                break
            rows[c], rows[p] = rows[p], rows[c]
            det *= rows[c][c]
            for r in range(c + 1, len(rows)):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        table = {}
        for k, (pos, neg) in enumerate(self.sets * 16):
            table[(pos, neg, k & 3)] = table.get((pos, neg, (k - 1) & 3), 0) + 1
        text = "\n".join(f"{render(n, pos, neg)}: {v}" for (pos, neg, _), v in table.items())
        return ranks, det, len(text)

    def time(self) -> float:
        t = time.perf_counter()
        result = self.run()
        elapsed = time.perf_counter() - t
        if result != self.expected:
            raise RuntimeError("the reference task gave another result")
        return elapsed
