"""Exact standard-form LP feasibility and the polytope edge test.

`feasible` decides whether some x >= 0 solves sum_j x_j * columns[j] = rhs
over the integers, by a dense phase-one simplex with Bland's rule (Bland
1977), which guarantees termination.  The sign, ratio and zero tests of a
pivot step are invariant under positive row scaling, so each tableau row is
kept only up to a positive factor: an integer vector divided by its gcd, with
no denominators.  The only client is polytope edge detection, `pair_is_edge`.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def _reduce(row: list[int]) -> list[int]:
    """Divide the row by the gcd of its entries, a positive factor."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def feasible(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Is there an x >= 0 with sum_j x_j * columns[j] == rhs?

    Every column has one integer entry per entry of `rhs`.  A phase-one
    simplex minimizes the sum of one artificial variable per row; the system
    is feasible exactly when that minimum is zero.
    """
    m, k = len(rhs), len(columns)
    if any(len(col) != m for col in columns):
        raise ValueError("column has wrong arity")

    # columns: x (k), artificials (m), rhs; a row is negated when its
    # right-hand side is negative, so the artificials start feasible
    rows: list[list[int]] = []
    for r, b in enumerate(rhs):
        sign = -1 if b < 0 else 1
        row = [sign * col[r] for col in columns] + [0] * m + [sign * b]
        row[k + r] = 1
        rows.append(row)
    basis = [k + r for r in range(m)]

    # reduced-cost row of the phase-one objective (sum of artificials); all
    # initial basic columns are artificial with unit cost
    zrow = [-sum(row[j] for row in rows) for j in range(k)] + [0] * m
    zrow.append(-sum(row[-1] for row in rows))

    while True:
        entering = next((j for j in range(k + m) if zrow[j] < 0), -1)
        if entering < 0:
            return all(rows[i][-1] == 0 for i in range(m) if basis[i] >= k)
        leaving = -1
        best_num = best_den = 0  # ratio best_num / best_den, denominators positive
        for i in range(m):
            x = rows[i][entering]
            if x > 0:
                num, den = rows[i][-1], x
                if (
                    leaving < 0
                    or num * best_den < best_num * den
                    or (num * best_den == best_num * den and basis[i] < basis[leaving])
                ):
                    best_num, best_den = num, den
                    leaving = i
        if leaving < 0:
            # artificials are bounded below, so the phase-one objective cannot
            # be unbounded; reaching here would mean a construction bug
            raise RuntimeError("phase-one simplex found an unbounded direction")
        piv_row = rows[leaving]
        piv = piv_row[entering]  # > 0
        for i in range(m):
            f = rows[i][entering]
            if i != leaving and f:
                rows[i] = _reduce([x * piv - f * y for x, y in zip(rows[i], piv_row)])
        f = zrow[entering]
        if f:
            zrow = _reduce([x * piv - f * y for x, y in zip(zrow, piv_row)])
        basis[leaving] = entering


def pair_is_edge(points: Sequence[Sequence[int]], i: int, j: int) -> bool:
    """Is the segment between points i and j an edge of their convex hull?

    All points must be distinct vertices of the hull (true for cube vertices,
    which is the only use here).  With a = points[i] and b = points[j], the
    tangent cone at the vertex a is pointed, and no three cube vertices lie
    on one line, so [a, b] is an edge exactly when b - a is not a nonnegative
    combination of the directions p - a to the other points.

    The polytope validator passes only the feasible sets in the smallest cube
    face holding a and b, projected to the coordinates where a and b differ;
    they stay distinct cube vertices of that lower dimension.
    """
    a = points[i]
    others = [[x - y for x, y in zip(p, a)] for k, p in enumerate(points) if k not in (i, j)]
    return not feasible(others, [x - y for x, y in zip(points[j], a)])
