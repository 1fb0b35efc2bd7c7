import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from deltamat.deltamatroid import DeltaMatroid
from deltamat.lorentzian import (
    InertiaTriple,
    _compositions,
    conjecture_check,
    derivative_hessian,
    efls_gen_poly,
    hessian_inertia,
    indep_gen_poly,
    is_lorentzian,
    mconvex_support,
    two_var_ulc_check,
)
from deltamat.matroid import Matroid, dm_from_matroid
from deltamat.poly import MultiPoly


def w_vars(n):
    return tuple(["w0"] + [f"w{i}" for i in range(1, n + 1)])


def test_indep_gen_poly_examples(free1, coloop1):
    assert indep_gen_poly(free1) == MultiPoly(("w0", "w1"), {(2, 0): 1, (1, 1): 2})
    assert indep_gen_poly(coloop1) == MultiPoly(("w0", "w1"), {(2, 0): 1, (1, 1): 1})
    d = dm_from_matroid(Matroid.uniform(1, 2), "bases")
    expected = MultiPoly(
        ("w0", "w1", "w2"),
        {(4, 0, 0): 1, (3, 1, 0): 2, (3, 0, 1): 2, (2, 1, 1): 2},
    )
    assert indep_gen_poly(d) == expected
    p = indep_gen_poly(d)
    assert p.is_homogeneous() and p.degree() == 4
    assert p.multiaffine_part("w0") == p


def test_efls_gen_poly_examples(tripod, coloop1, free1):
    assert efls_gen_poly(coloop1) == MultiPoly(("w0", "w1"), {(0, 1): 1, (1, 0): 1})
    assert efls_gen_poly(free1) == MultiPoly(("w0", "w1"), {(0, 1): 1, (1, 0): 2})
    p = efls_gen_poly(tripod)
    assert p.is_homogeneous() and p.degree() == 3
    # independent oracle: count size-2 independents with each underline pair
    counts = {}
    for s in tripod.independents():
        if s.size == 2:
            counts[s.underline] = counts.get(s.underline, 0) + 1
    for missing in (1, 2, 3):
        underline = 0b111 & ~(1 << (missing - 1))
        expect = Fraction(counts[underline], factorial(2))
        exps = {"w0": 2, f"w{missing}": 1}
        assert p.coefficient(exps) == expect


def test_mconvex_support():
    ok, witness = mconvex_support(MultiPoly(("a", "b"), {(2, 0): 1, (1, 1): 3}))
    assert ok and witness is None
    ok, witness = mconvex_support(MultiPoly(("a", "b"), {(2, 0): 1, (0, 2): 1}))
    assert not ok and witness is not None
    ok, _ = mconvex_support(MultiPoly(("a", "b"), {(2, 0): 5}))
    assert ok
    with pytest.raises(ValueError):
        mconvex_support(MultiPoly(("a",), {(1,): 1, (2,): 1}))


def test_hessian_inertia_examples():
    assert hessian_inertia([[2, 2], [2, 0]]) == InertiaTriple(1, 1, 0)
    assert hessian_inertia([[0, 1], [1, 0]]) == InertiaTriple(1, 1, 0)
    assert hessian_inertia([[2, 0], [0, 2]]) == InertiaTriple(2, 0, 0)
    assert hessian_inertia([[0, 0], [0, 0]]) == InertiaTriple(0, 0, 2)
    assert hessian_inertia([]) == InertiaTriple(0, 0, 0)
    with pytest.raises(ValueError):
        hessian_inertia([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        hessian_inertia([[1, 2]])


def _charpoly_inertia(q):
    """Oracle: Descartes sign counting on the characteristic polynomial, exact
    for symmetric (hence real-rooted) matrices."""
    k = len(q)
    lam = MultiPoly.var("t")
    entries = [
        [
            (lam if i == j else MultiPoly.zero(("t",))) - MultiPoly.constant(q[i][j], ("t",))
            for j in range(k)
        ]
        for i in range(k)
    ]
    det = MultiPoly.zero(("t",))
    for perm in permutations(range(k)):
        sign = 1
        seen = list(perm)
        for i in range(k):
            for j in range(i + 1, k):
                if seen[i] > seen[j]:
                    sign = -sign
        term = MultiPoly.constant(sign, ("t",))
        for i in range(k):
            term = term * entries[i][perm[i]]
        det = det + term
    coeffs = det.coefficient_list("t")
    zeros = 0
    while zeros < len(coeffs) and coeffs[zeros] == 0:
        zeros += 1
    indexed = [(i, c) for i, c in enumerate(coeffs) if c != 0]
    signs = [c for _, c in indexed]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))
    # p(-t): the coefficient of t^i picks up (-1)^i with the original index i
    neg_signs = [c if i % 2 == 0 else -c for i, c in indexed]
    neg_changes = sum(1 for a, b in zip(neg_signs, neg_signs[1:]) if (a < 0) != (b < 0))
    return InertiaTriple(changes, neg_changes, zeros)


def test_hessian_inertia_against_charpoly_oracle():
    rng = random.Random(313)
    for _ in range(60):
        k = rng.randint(1, 4)
        q = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                q[i][j] = q[j][i] = rng.randint(-3, 3)
        assert hessian_inertia(q) == _charpoly_inertia(q), q


def test_inertia_congruence_invariance():
    rng = random.Random(414)
    for _ in range(30):
        k = rng.randint(2, 4)
        q = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                q[i][j] = q[j][i] = Fraction(rng.randint(-3, 3))
        while True:
            s = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if _is_invertible(s):
                break
        congruent = _congruence(s, q)
        assert hessian_inertia(congruent) == hessian_inertia(q)


def _is_invertible(s):
    import copy

    a = copy.deepcopy(s)
    k = len(a)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return False
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return True


def _congruence(s, q):
    k = len(q)
    sq = [[sum(s[r][i] * q[r][j] for r in range(k)) for j in range(k)] for i in range(k)]
    return [[sum(sq[i][r] * s[r][j] for r in range(k)) for j in range(k)] for i in range(k)]


def test_derivative_hessian():
    p = MultiPoly(("w0", "w1"), {(2, 0): 1, (1, 1): 2})
    h = derivative_hessian(p, (0, 0))
    assert h == [[2, 2], [2, 0]]
    cube = MultiPoly(("w0", "w1"), {(3, 0): 1})
    assert derivative_hessian(cube, (1, 0)) == [[6, 0], [0, 0]]


def test_is_lorentzian_examples(free1):
    good = is_lorentzian(MultiPoly(("w0", "w1"), {(2, 0): 1, (1, 1): 2}))
    assert good.passed
    bad = is_lorentzian(MultiPoly(("w1", "w2"), {(2, 0): 1, (0, 2): 1}))
    assert not bad.passed
    assert bad.hessian_witness[1] == InertiaTriple(2, 0, 0)
    assert is_lorentzian(indep_gen_poly(free1)).passed
    inhomogeneous = is_lorentzian(MultiPoly(("w0",), {(1,): 1, (2,): 1}))
    assert not inhomogeneous.passed and not inhomogeneous.homogeneous


def _full_sweep_witness(p):
    """The first failing Hessian over every derivative of degree deg - 2, or None."""
    for alpha in _compositions(p.degree() - 2, len(p.variables)):
        inertia = hessian_inertia(derivative_hessian(p, alpha))
        if inertia.positive > 1:
            return alpha, inertia
    return None


def test_sparse_hessian_sweep_matches_full_sweep():
    from deltamat.randgen import random_delta_matroids, random_family

    rng = random.Random(4242)
    polys = []
    for n in (2, 3, 4):
        dms = [d for d, _ in random_delta_matroids(6, n, seed=70 + n)]
        dms += [random_family(rng, n) for _ in range(6)]
        polys += [gen(d) for d in dms for gen in (indep_gen_poly, efls_gen_poly)]
    for _ in range(120):
        width, degree = rng.randint(2, 4), rng.randint(2, 4)
        points = list(_compositions(degree, width))
        support = rng.sample(points, rng.randint(1, min(6, len(points))))
        polys.append(MultiPoly(w_vars(width - 1), {e: rng.randint(1, 5) for e in support}))
    failing = 0
    for p in polys:
        report = is_lorentzian(p)
        witness = _full_sweep_witness(p)
        assert (report.hessian_ok, report.hessian_witness) == (witness is None, witness), p
        failing += witness is not None
    assert failing >= 30 and len(polys) - failing >= 30


def test_render_without_hessian_witness():
    report = is_lorentzian(MultiPoly(("x", "y"), {(2, 0): 1, (0, 1): 1}))
    assert report.hessian_witness is None
    assert report.render() == "lorentzian: no (not homogeneous)"
    mixed = is_lorentzian(MultiPoly(("x", "y"), {(2, 0): -1, (0, 1): 1}))
    assert mixed.render() == "lorentzian: no (not homogeneous; negative coefficient)"
    assert is_lorentzian(MultiPoly.zero(("w0",))).passed
    assert is_lorentzian(MultiPoly(("w0", "w1"), {(1, 0): 1, (0, 1): 2})).passed
    negative = is_lorentzian(MultiPoly(("w0",), {(2,): -1}))
    assert not negative.passed and not negative.nonneg_coeffs


def test_conjecture_check_values():
    report = conjecture_check((1, 6, 9, 3), 3)
    by_key = {(c.k, c.inequality): c for c in report.checks}
    c = by_key[(1, 2)]
    assert c.lhs == 36 and c.rhs == Fraction(108, 5) and c.holds
    c = by_key[(2, 1)]
    assert c.lhs == 81 and c.rhs == 36 and c.holds
    assert report.all_hold()

    failing = conjecture_check((1, 1, 1), 2)
    c = {(x.k, x.inequality): x for x in failing.checks}[(1, 3)]
    assert c.rhs == 4 and not c.holds
    assert not failing.all_hold(inequality=3)

    with pytest.raises(ValueError):
        conjecture_check((1, 2), 2)
    with pytest.raises(ValueError):
        conjecture_check((1, -1, 1), 2)


def test_inequality_factor_comparison_is_what_it_claims():
    for n in range(2, 7):
        for k in range(1, n):
            factor1 = Fraction(n - k + 1, n - k)
            factor2 = Fraction(2 * n - k + 1, 2 * n - k) * Fraction(k + 1, k)
            lhs = (2 * n - k + 1) * (k + 1) * (n - k)
            rhs = (n - k + 1) * (2 * n - k) * k
            assert (factor2 >= factor1) == (lhs >= rhs)


def test_two_var_ulc(tripod, coloop1, free1):
    rep = two_var_ulc_check(tripod)
    assert rep.sequence == (1, 1, Fraction(3, 5), Fraction(3, 20), 0, 0, 0)
    assert rep.log_concave and rep.matches_binomial_inequality
    rep = two_var_ulc_check(coloop1)
    assert rep.sequence == (1, Fraction(1, 2), 0)
    assert rep.log_concave
    rep = two_var_ulc_check(free1)
    assert rep.sequence == (1, 1, 0)
    assert rep.log_concave


def test_two_var_matches_inequality_two_on_random():
    from deltamat.randgen import random_delta_matroids

    for d, _ in random_delta_matroids(30, 3, seed=5556):
        rep = two_var_ulc_check(d)
        assert rep.matches_binomial_inequality
