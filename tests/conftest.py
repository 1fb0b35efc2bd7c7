import functools
import random
from itertools import chain, combinations

import pytest

from deltamat import AdmissibleSet, DeltaMatroid, deltamatroid, ground


@pytest.fixture(scope="session")
def tripod() -> DeltaMatroid:
    """Three feasible sets on ground 3, each with one unbarred index."""
    return DeltaMatroid.from_signed_lists(3, [[1, -2, -3], [-1, 2, -3], [-1, -2, 3]])


@pytest.fixture(scope="session")
def coloop1() -> DeltaMatroid:
    return DeltaMatroid.from_signed_lists(1, [[1]])


@pytest.fixture(scope="session")
def loop1() -> DeltaMatroid:
    return DeltaMatroid.from_signed_lists(1, [[-1]])


@pytest.fixture(scope="session")
def free1() -> DeltaMatroid:
    return DeltaMatroid.from_signed_lists(1, [[1], [-1]])


@pytest.fixture
def built_sets(monkeypatch) -> list[AdmissibleSet]:
    """Every AdmissibleSet constructed while the test runs, in order.

    Counted through a patched ``__post_init__``; ``enumerate_admissible`` is
    not cached, so a call to it shows up as 3^n sets.
    """
    built: list[AdmissibleSet] = []
    check = AdmissibleSet.__post_init__

    def counting(self: AdmissibleSet) -> None:
        check(self)
        built.append(self)

    monkeypatch.setattr(AdmissibleSet, "__post_init__", counting)
    return built


@functools.cache
def canonical_codes(n: int) -> tuple[int, ...]:
    """Base-3 code of each set in canonical order (size, then signed lex): the oracle for ``ground.canonical_blocks``.

    The code of S is sum(state_i * 3^i) over indices i = 0..n-1, where state
    0 leaves index i+1 out, 1 takes it unbarred and 2 takes it barred.  The
    k-sets on indices i+1 and up are +(i+1), then -(i+1), each followed by the
    (k-1)-sets above i+1, then the k-sets above i+1.
    """
    by_size = [[0]] + [[] for _ in range(n)]  # by_size[k]: the k-sets on the indices so far
    for i in reversed(range(n)):
        unit = 3**i
        for k in range(n - i, 0, -1):  # by_size[k - 1] still ranges above i
            tails = by_size[k - 1]
            by_size[k] = [unit + c for c in tails] + [2 * unit + c for c in tails] + by_size[k]
    return tuple(chain.from_iterable(by_size))


@pytest.fixture
def tail_width(monkeypatch):
    """Sets ``ground.TAIL_WIDTH`` for one test, with the tails, labels and places rebuilt for it and after it."""

    def clear() -> None:
        for cached in (ground._tails, ground._tail_labels, ground._tail_places):
            cached.cache_clear()

    def set_width(width: int) -> None:
        monkeypatch.setattr(ground, "TAIL_WIDTH", width)
        clear()

    yield set_width
    monkeypatch.undo()
    clear()


def sset(n: int, *elements: int) -> AdmissibleSet:
    return AdmissibleSet.from_elements(n, elements)


def symmetric_rows(n: int, bits: int) -> tuple[int, ...]:
    """The symmetric n x n GF(2) matrix whose upper triangle, row by row, reads ``bits`` from bit 0."""
    rows, k = [0] * n, 0
    for i in range(n):
        for j in range(i, n):
            if bits >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return tuple(rows)


def oracle_families():
    """Families for checking table paths against the per-set oracle.

    Every nonempty family at n <= 3, then seeded random families at n = 4..7.
    Validity is not required: g is defined for any nonempty family.
    """
    for n in range(4):
        for k in range(1, (1 << n) + 1):
            for fam in combinations(range(1 << n), k):
                yield DeltaMatroid(n, fam)
    rng = random.Random(3141)
    for n, count in ((4, 40), (5, 20), (6, 8), (7, 4)):
        for _ in range(count):
            yield DeltaMatroid(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))


def max_plus_rank_by_code(n: int, feasible) -> list[int]:
    """g(S) for all 3^n admissible sets by base-3 code, by a max-plus transform: the oracle
    for the lane route of ``deltamatroid.g_lanes``.

    A max-plus form of Yates' transform: start from 0 on the feasible masks
    and a sentinel below -2n elsewhere, then turn one coordinate at a time
    from a sign into a state of S (``deltamatroid._signs``).  Each pass
    splits off the lowest remaining bit with strided slices and puts the new
    state on top, so after n passes the entries are in code order (Good's
    shuffle form of the transform).  The sentinel never wins: a start at
    -2n - 1 gains at most n, and every S scores at least -n against a
    feasible set.
    """
    vals = [-2 * n - 1] * (1 << n)
    for p in feasible:
        vals[p] = 0
    for _ in range(n):
        vals = deltamatroid._signs(vals[0::2], vals[1::2])
    return vals


def missed_layer_h_lanes(n: int, feasible) -> bytes:
    """h(S) = |S| - d(S) for all 3^n sets, one byte per code, with d(S) the number of distance layers
    that miss S: each missed layer, widened, comes off the size lanes.  The oracle for the
    binary-digit route of ``deltamatroid.h_lanes``."""
    total = 3**n
    missed = (
        int.from_bytes(deltamatroid._lanes(~layer & ((1 << total) - 1), total), "little")
        for layer in deltamatroid.distance_layers(n, feasible)
    )
    return (deltamatroid._size_lanes(n) - sum(missed)).to_bytes(total, "little")

