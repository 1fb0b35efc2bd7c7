"""The simplex is the oracle for edge detection, so it gets its own oracle:
basic-solution enumeration with exact Gaussian elimination."""

import random
from fractions import Fraction
from itertools import combinations

from deltamat.deltamatroid import all_full_size_masks
from deltamat.lp import feasible, pair_is_edge


def test_feasibility_hand_cases():
    # x = 1, x >= 0
    assert feasible([[1]], [1])
    # x = -1, x >= 0
    assert not feasible([[1]], [-1])
    # x - y = -3: a free variable as a difference of two nonnegative ones
    assert feasible([[1], [-1]], [-3])
    # x + y = 1 and x - y = 3 force y = -1
    assert not feasible([[1, 1], [1, -1]], [1, 3])
    # x + y = 1 and x - y = 1 give x = 1, y = 0
    assert feasible([[1, 1], [1, -1]], [1, 1])
    # no rows, and no columns
    assert feasible([[], []], [])
    assert feasible([], [0, 0])
    assert not feasible([], [0, 1])
    # a zero column cannot reach a nonzero right-hand side
    assert not feasible([[0, 0], [0, 0]], [0, 1])
    # a redundant row, and a degenerate start
    assert feasible([[1, 2], [1, 2]], [3, 6])
    assert not feasible([[1, 2], [1, 2]], [3, 5])
    assert feasible([[1, 0, 1], [0, 1, -1], [1, 1, 0]], [0, 0, 0])


def test_feasibility_planted_instances():
    # b = A x0 with x0 >= 0 is feasible by construction
    rng = random.Random(4242)
    for _ in range(120):
        m = rng.randint(1, 4)
        k = rng.randint(1, 6)
        columns = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        x0 = [rng.randint(0, 3) for _ in range(k)]
        rhs = [sum(x * col[r] for x, col in zip(x0, columns)) for r in range(m)]
        assert feasible(columns, rhs)


def test_feasibility_farkas_instances():
    # a y with y.A >= 0 and y.b < 0 certifies infeasibility (Farkas)
    rng = random.Random(999)
    for _ in range(120):
        m = rng.randint(1, 4)
        k = rng.randint(0, 5)
        y = [0] * m
        while not any(y):
            y = [rng.randint(-3, 3) for _ in range(m)]

        def dot_y(v):
            return sum(a * b for a, b in zip(y, v))

        columns = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        columns = [col if dot_y(col) >= 0 else [-x for x in col] for col in columns]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        if dot_y(rhs) > 0:
            rhs = [-x for x in rhs]
        if dot_y(rhs) == 0:
            rhs = [b - c for b, c in zip(rhs, y)]
        assert dot_y(rhs) < 0
        assert not feasible(columns, rhs)


def _solve_exact(columns, rhs):
    """Solve sum_j x_j columns[j] = rhs exactly; None when inconsistent."""
    m, k = len(rhs), len(columns)
    a = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            return None  # dependent column set: skip (not a basic solution)
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    if any(a[r][-1] != 0 for r in range(row, m)):
        return None
    return [a[i][-1] for i in range(k)]


def test_feasibility_matches_basic_solution_oracle():
    # by Caratheodory, b is in the cone of the columns exactly when some
    # linearly independent set of columns (possibly empty) reaches b with
    # nonnegative weights
    rng = random.Random(2718)
    for trial in range(400):
        m = rng.randint(1, 3)
        k = rng.randint(0, 5)
        columns = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
        for col in columns:
            if rng.random() < 0.15:
                col[:] = [0] * m
        rhs = [0] * m if trial % 10 == 0 else [rng.randint(-2, 2) for _ in range(m)]
        expected = False
        for size in range(min(m, k) + 1):
            for support in combinations(range(k), size):
                sol = _solve_exact([columns[s] for s in support], rhs)
                if sol is not None and all(x >= 0 for x in sol):
                    expected = True
        assert feasible(columns, rhs) == expected, (columns, rhs)


def edge_oracle(points, i, j):
    """Brute force: the pair is an edge iff no basic solution expressing the
    midpoint as a convex combination puts weight outside the pair."""
    dim = len(points[0])
    mid = [Fraction(points[i][t] + points[j][t], 2) for t in range(dim)]
    rhs = mid + [Fraction(1)]
    cols = [list(p) + [1] for p in points]
    for size in range(1, dim + 2):
        for support in combinations(range(len(points)), size):
            sol = _solve_exact([cols[s] for s in support], rhs)
            if sol is None or any(x < 0 for x in sol):
                continue
            if any(x > 0 and s not in (i, j) for s, x in zip(support, sol)):
                return False
    return True


def _vectors(n, masks):
    return [tuple(1 if p >> t & 1 else -1 for t in range(n)) for p in masks]


def test_edge_detection_matches_oracle_exhaustive_n2():
    masks = all_full_size_masks(2)
    for k in range(2, 5):
        for fam in combinations(masks, k):
            pts = _vectors(2, fam)
            for i in range(k):
                for j in range(i + 1, k):
                    assert pair_is_edge(pts, i, j) == edge_oracle(pts, i, j), (fam, i, j)


def test_edge_detection_matches_oracle_sampled_n3():
    rng = random.Random(31415)
    for _ in range(150):
        fam = rng.sample(range(8), rng.randint(2, 6))
        pts = _vectors(3, fam)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert pair_is_edge(pts, i, j) == edge_oracle(pts, i, j), (fam, i, j)


def test_two_point_hull_is_an_edge():
    pts = [(1, 1, 1), (-1, -1, -1)]
    assert pair_is_edge(pts, 0, 1)
