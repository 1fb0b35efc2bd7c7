import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import pytest

from deltamat.deltamatroid import DeltaMatroid
from deltamat.lorentzian import (
    InequalityCheck,
    InertiaTriple,
    LogConcavityReport,
    conjecture_check,
    efls_gen_poly,
    hessian_inertia,
    indep_gen_poly,
    is_lorentzian,
    mconvex_support,
    two_var_ulc_check,
    two_var_ulc_from_report,
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


def _indep_poly_by_sets(d):
    """Oracle: the independence generating polynomial summed over set objects."""
    n = d.n
    counts = {}
    for s in d.independents():
        key = tuple([2 * n - s.size] + [(s.underline >> i) & 1 for i in range(n)])
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(w_vars(n), counts)


def _efls_poly_by_sets(d):
    """Oracle: the efls generating polynomial summed over set objects."""
    n = d.n
    terms = {}
    for s in d.independents():
        key = tuple([s.size] + [1 - ((s.underline >> i) & 1) for i in range(n)])
        terms[key] = terms.get(key, Fraction(0)) + Fraction(1, factorial(s.size))
    return MultiPoly(w_vars(n), terms)


def test_generating_polys_match_set_sums():
    from deltamat.randgen import DISTRIBUTIONS, random_valid

    rng = random.Random(6060)
    dms = [random_valid(rng, n, dist) for n in range(7) for dist in DISTRIBUTIONS for _ in range(3)]
    # arbitrary families: the exchange axiom is not needed for g
    dms += [DeltaMatroid(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))) for n in range(6) for _ in range(8)]
    # past seven digits the counts are folded as lists; the free delta-matroid has c_U = 2^|U| > 255
    dms += [random_valid(rng, n, "gf2") for n in (8, 9)] + [DeltaMatroid(n, range(1 << n)) for n in (8, 9)]
    for d in dms:
        assert indep_gen_poly(d) == _indep_poly_by_sets(d), d.feasible
        assert efls_gen_poly(d) == _efls_poly_by_sets(d), d.feasible


def _slice_poly(rng, n, deg, masks, coef=None):
    """c·w0^(deg - |U|)·w_U over the masks U, with c = coef(), by default a random integer in 1..3."""
    coef = coef or (lambda: rng.randint(1, 3))
    terms = {(deg - u.bit_count(),) + tuple((u >> i) & 1 for i in range(n)): coef() for u in masks}
    return MultiPoly(w_vars(n), terms)


def test_full_slice_verdict_matches_support_scan(monkeypatch):
    # a full slice skips the all-pairs scan; every verdict and witness must
    # still be the scan's, on full slices and on partial ones, many failing
    import deltamat.lorentzian as lz

    scans = []
    monkeypatch.setattr(lz, "mconvex_support", lambda p: scans.append(p) or mconvex_support(p))
    rng = random.Random(2718)
    full = passing_partial = failing = 0
    for k in range(2000):
        n = k % 6 if k < 60 else rng.randint(1, 5)
        deg = rng.randint(0, 2 * n)
        slice_masks = [u for u in range(1 << n) if u.bit_count() <= deg]
        if rng.random() < 0.3:
            masks = slice_masks
        else:  # a proper subset, unless the slice has one set
            masks = rng.sample(slice_masks, rng.randint(1, max(1, len(slice_masks) - 1)))
        p = _slice_poly(rng, n, deg, masks)
        bendable = [e for e in p.terms if e[0] and any(e[1:])]
        if bendable and rng.random() < 0.2:  # the same number of terms, one exponent 2
            terms = dict(p.terms)
            e = list(rng.choice(bendable))
            del terms[tuple(e)]
            i = rng.choice([i for i in range(1, n + 1) if e[i]])
            e[0], e[i] = e[0] - 1, 2
            p = MultiPoly(p.variables, {**terms, tuple(e): 1})
        scans.clear()
        report = is_lorentzian(p)
        ok, witness = mconvex_support(p)
        assert (report.mconvex, report.mconvex_witness) == (ok, witness), p.terms
        if len(p.terms) == len(slice_masks) and max(max(e[1:], default=0) for e in p.terms) <= 1:
            assert ok and not scans
            full += 1
        elif ok:
            passing_partial += 1
        else:
            failing += 1
            assert f"support not M-convex at {witness}" in report.render()
    assert failing >= 500 and full >= 500 and passing_partial >= 300, (failing, full, passing_partial)


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


def test_hessian_inertia_of_rational_matrices_against_charpoly_oracle():
    # the entries are scaled to integers first, so Fraction inputs with mixed
    # denominators must still match the rational characteristic polynomial
    rng = random.Random(515)
    for hollow in (False, True):  # a zero diagonal forces the hyperbolic 2x2 steps
        for _ in range(80):
            k = rng.randint(1, 5)
            q = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + hollow, k):
                    if rng.random() < 0.7:
                        q[i][j] = q[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
            assert hessian_inertia(q) == _charpoly_inertia(q), q
    assert hessian_inertia([[0, -1, 0], [-1, 0, 0], [0, 0, Fraction(1, 2)]]) == InertiaTriple(2, 1, 0)
    assert hessian_inertia([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 5)]]) == InertiaTriple(1, 1, 0)
    assert hessian_inertia([[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)]]) == InertiaTriple(1, 0, 1)


def test_hessian_inertia_with_zero_rows_between_against_charpoly_oracle():
    # all-zero rows and columns placed among the others count as zero eigenvalues
    rng = random.Random(717)
    for _ in range(60):
        k = rng.randint(1, 5)
        zero_rows = set(rng.sample(range(k), rng.randint(1, min(2, k))))
        q = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                if i not in zero_rows and j not in zero_rows:
                    q[i][j] = q[j][i] = rng.randint(-3, 3) * (i != j or rng.random() < 0.5)
        assert hessian_inertia(q) == _charpoly_inertia(q), q
    assert hessian_inertia([[1, 0, 2], [0, 0, 0], [2, 0, 1]]) == InertiaTriple(1, 1, 1)
    assert hessian_inertia([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]) == InertiaTriple(1, 1, 2)


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


def _compositions(total, parts):
    """Every exponent vector of the given total, in lexicographic order (the full sweep)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _falling(n, k):
    out = 1
    for t in range(k):
        out *= n - t
    return out


def derivative_hessian(p, alpha):
    """Oracle: the Hessian of the alpha-fold partial derivative of p, one scan of the terms."""
    width = len(p.variables)
    h = [[Fraction(0)] * width for _ in range(width)]
    for exps, c in p.terms.items():
        if any(e < a for e, a in zip(exps, alpha)):
            continue
        rest = tuple(e - a for e, a in zip(exps, alpha))
        if sum(rest) != 2:
            continue
        scale = c
        for e, a in zip(exps, alpha):
            scale *= _falling(e, a)
        nz = [i for i, e in enumerate(rest) if e]
        if len(nz) == 1:
            h[nz[0]][nz[0]] += 2 * scale
        else:
            i, j = nz
            h[i][j] += scale
            h[j][i] += scale
    return h


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


@lru_cache(maxsize=None)
def _oracle_inertia(matrix):
    return _charpoly_inertia([list(row) for row in matrix])


def _full_sweep_witness(p):
    """The first failing Hessian over every derivative of degree deg - 2, or None.

    Each Hessian comes from its own scan of the terms and its inertia from
    the characteristic polynomial, so neither shares code with is_lorentzian.
    """
    for alpha in _compositions(p.degree() - 2, len(p.variables)):
        inertia = _oracle_inertia(tuple(map(tuple, derivative_hessian(p, alpha))))
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


def test_hessian_sweep_matches_full_sweep_on_rational_polynomials():
    # Fraction coefficients: the efls polynomials, and seeded random ones, many
    # of them not Lorentzian, so that the first failing witness is compared
    from deltamat.randgen import random_delta_matroids

    rng = random.Random(5353)
    polys = [efls_gen_poly(d) for n in (3, 4) for d, _ in random_delta_matroids(9, n, seed=80 + n)]
    for _ in range(150):
        width, degree = rng.randint(2, 4), rng.randint(2, 4)
        points = list(_compositions(degree, width))
        support = rng.sample(points, rng.randint(1, min(7, len(points))))
        terms = {e: Fraction(rng.randint(-2, 6) or 1, rng.randint(1, 12)) for e in support}
        polys.append(MultiPoly(w_vars(width - 1), terms))
    failing = rational = 0
    for p in polys:
        report = is_lorentzian(p)
        if not report.homogeneous:
            continue
        witness = _full_sweep_witness(p)
        assert (report.hessian_ok, report.hessian_witness) == (witness is None, witness), p
        failing += witness is not None
        rational += any(c.denominator > 1 for c in p.terms.values())
    assert failing >= 40 and len(polys) - failing >= 40 and rational >= 100


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
    assert c.render() == "inequality (3) fails at k=1: 1 < 4"
    assert failing.violations(2) == ["CONJECTURE VIOLATION: inequality (2) fails at k=1: 1 < 8/3"]
    assert [line.split("(")[1][0] for line in failing.violations()] == ["1", "2", "3"]
    assert report.violations() == []

    with pytest.raises(ValueError):
        conjecture_check((1, 2), 2)
    with pytest.raises(ValueError):
        conjecture_check((1, -1, 1), 2)


def _conjecture_check_by_fractions(a, n):
    """``conjecture_check`` as each right-hand side's factor of Fractions times the outer product."""
    checks = []
    for k in range(1, n):
        lhs, outer = Fraction(a[k] * a[k]), a[k + 1] * a[k - 1]
        factors = {
            1: Fraction(n - k + 1, n - k),
            2: Fraction(2 * n - k + 1, 2 * n - k) * Fraction(k + 1, k),
            3: Fraction(n - k + 1, n - k) * Fraction(k + 1, k),
        }
        checks += [InequalityCheck(k, ineq, lhs, factor * outer) for ineq, factor in factors.items()]
    return LogConcavityReport(n, tuple(a), tuple(checks))


def _first_failure_by_fractions(report):
    """The first index where the binomial-normalized face counts fail log-concavity, compared as Fractions."""
    n = report.n
    a = list(report.a) + [0] * (2 * n + 1 - len(report.a))
    seq = [Fraction(a[i], comb(2 * n, i)) for i in range(2 * n + 1)]
    return next((i for i in range(1, 2 * n) if seq[i] * seq[i] < seq[i - 1] * seq[i + 1]), None)


def test_log_concavity_reports_match_the_fraction_formulas():
    rng = random.Random(2305)
    failing = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        top = rng.choice((3, 20, 10**6))
        if rng.random() < 0.4:  # log-concave, as products of binomials and geometric sequences are
            m, r = n + rng.randint(0, n), rng.randint(1, 3)
            a = [comb(m, k) * r**k for k in range(n + 1)]
        else:
            a = [1] + [rng.randint(0, top) if rng.random() < 0.9 else 0 for _ in range(n)]
        report, oracle = conjecture_check(a, n), _conjecture_check_by_fractions(a, n)
        assert report == oracle and report.violations() == oracle.violations()
        two_var = two_var_ulc_from_report(report)
        assert two_var.first_failure == _first_failure_by_fractions(oracle)
        assert two_var.sequence == tuple(Fraction(x, comb(2 * n, i)) for i, x in enumerate(a + [0] * n))
        failing += two_var.first_failure is not None
    assert 300 < failing < 2700


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


def _seeded_full_slices(rng, count):
    """Full slices at m <= 5: random signs and fractions, positive fractions, and the multiaffine
    parts of products of positive linear forms, which are Lorentzian."""
    for k in range(count):
        m = rng.randint(0, 5)
        deg = rng.randint(2, m + 3)
        masks = [u for u in range(1 << m) if u.bit_count() <= deg]
        if k % 3 == 0:
            signed = lambda: Fraction(rng.choice((1, 1, 1, -1)) * rng.randint(1, 9), rng.randint(1, 6))
            yield _slice_poly(rng, m, deg, masks, signed)
        elif k % 3 == 1:
            yield _slice_poly(rng, m, deg, masks, lambda: Fraction(rng.randint(1, 9), rng.randint(1, 6)))
        else:
            p = MultiPoly.constant(1, w_vars(m))
            unit = [tuple(int(i == j) for i in range(m + 1)) for j in range(m + 1)]
            for _ in range(deg):
                p = p * MultiPoly(w_vars(m), {e: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in unit})
            yield p.multiaffine_part("w0")


def test_mask_route_matches_scatter_route(monkeypatch):
    # a full slice has its Hessians read by underline mask and most of them settled by the Gershgorin
    # certificate; the verdict and the first failing (alpha, inertia) must be the scatter route's, and
    # the full sweep's where it is small enough for the characteristic polynomial
    import deltamat.lorentzian as lz
    from deltamat.randgen import random_delta_matroids, random_family

    calls = []
    real = lz._integer_inertia
    monkeypatch.setattr(lz, "_integer_inertia", lambda a: calls.append(1) or real(a))
    rng = random.Random(6262)
    polys = list(_seeded_full_slices(rng, 1500))
    for n in range(1, 6):
        dms = [d for d, _ in random_delta_matroids(6, n, seed=90 + n)] + [random_family(rng, n) for _ in range(6)]
        polys += [gen(d) for d in dms for gen in (indep_gen_poly, efls_gen_poly)]
    kinds = {"failing": 0, "certified": 0, "eliminated": 0}
    for p in polys:
        assert lz._full_slice(p), p
        calls.clear()
        report = is_lorentzian(p)
        eliminations = len(calls)
        reference = lz._scatter_witness(p)
        assert (report.hessian_ok, report.hessian_witness) == (reference is None, reference), p
        if len(p.variables) <= 4:
            assert report.hessian_witness == _full_sweep_witness(p), p
        kinds["failing" if reference else "eliminated" if eliminations else "certified"] += 1
    assert kinds["failing"] >= 300 and kinds["certified"] >= 300 and kinds["eliminated"] >= 50, kinds


def test_certificate_settles_gf2_independence_polynomials(monkeypatch):
    # no elimination runs for the independence polynomial of the five n = 5 benchmark instances
    # (two GF(2) matrices, the free delta-matroid, U(2,5) independents and U(3,5) bases) or of
    # seeded GF(2) instances up to n = 8
    import deltamat.lorentzian as lz
    from deltamat.matroid import Gf2SymMatrix, dm_from_gf2
    from deltamat.randgen import random_valid

    def eliminated(a):
        raise AssertionError("the certificate did not settle a Hessian")

    monkeypatch.setattr(lz, "_integer_inertia", eliminated)
    dms = [dm_from_gf2(Gf2SymMatrix(5, rows)) for rows in ((16, 6, 30, 28, 13), (19, 15, 22, 10, 21))]
    dms += [DeltaMatroid(5, range(32)), dm_from_matroid(Matroid.uniform(2, 5), "independents")]
    dms.append(dm_from_matroid(Matroid.uniform(3, 5), "bases"))
    rng = random.Random(8080)
    dms += [random_valid(rng, n, "gf2") for n in range(1, 9) for _ in range(3)]
    for d in dms:
        assert is_lorentzian(indep_gen_poly(d)).passed, d
