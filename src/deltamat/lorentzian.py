"""Lorentzian-polynomial verification and the log-concavity inequality suite.

The generating polynomials of a delta-matroid are built from the independent
plane of ``deltamatroid.independent_plane``: folding it digit by digit counts
the independent sets on each underline mask, and no set object is made.

A homogeneous polynomial with nonnegative coefficients is Lorentzian when its
support is M-convex and every Hessian obtained by taking degree-minus-two
partial derivatives has at most one positive eigenvalue.  A support that is a
full slice, every w0^(deg - |U|)·w_U with |U| <= deg, is M-convex (see
``_full_slice``), and every nonempty family gives one; any other support goes
through the all-pairs exchange scan ``mconvex_support``, which also finds its
witness.  Only derivatives that lie under some support term have a non-zero
Hessian, and they are checked in the lexicographic order of the full sweep.
Inertia is computed exactly by fraction-free symmetric congruence reduction
(Sylvester's law), so there are no eigenvalue solvers and no tolerances
anywhere.  Degenerate quadratics are allowed because coefficient-wise limits
of strictly Lorentzian polynomials can be singular; polynomials of degree
below two pass by convention.

A full slice, as both generating polynomials are, reads its Hessians from one
map of integer coefficients c_U by underline mask U (``_slice_witness``).  The
derivatives are alpha = (deg - 2 - |V|, 1_V).  With r = deg - |V| and W the
indices outside V, the Hessian is zero on the rows of V and, on {0} ∪ W, has
a = c_V·r(r - 1) at (0, 0), b_j = c_{V+j}·(r - 1) at (0, j), M_ij = c_{V+i+j}
at (i, j) and M_jj = 0.  A full slice has every coefficient, so a != 0, and
Haynsworth's inertia additivity gives inertia(H) = inertia(a) + inertia(H/a);
when a > 0 the Schur complement H/a has the inertia of S = a·M - b·bᵀ.  S has
no positive diagonal entry, and if every row has -S_ii >= sum_{j != i} |S_ij|,
Gershgorin's circle theorem puts every eigenvalue of S at or below 0: H has
one positive eigenvalue and passes with no elimination.  Every other Hessian
is reduced as before; on the generating polynomials of seeded instances at
n = 5-10 that was 25 of 24,239.  Any other support takes the scatter route
(``_scatter_witness``): one pass over the terms builds every non-zero Hessian
and each is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from itertools import compress
from operator import add, sub
from typing import Sequence

from .deltamatroid import DeltaMatroid, _lanes, independent_plane
from .invariants import independence_fvector
from .poly import MultiPoly


def _independent_counts(d: DeltaMatroid) -> list[tuple[int, int]]:
    """(U, c_U) for each underline mask U that c_U > 0 independent sets have.

    The independent plane (``independent_plane``), one byte per base-3 code,
    is folded one digit per pass: the lowest digit becomes the top bit of the
    index, clear for state 0 and set for states 1 and 2 summed, so at the end
    entry U is c_U.  After k folds an entry counts at most 2^k sets, so the
    first seven folds add the byte strings as big ints, no byte carrying into
    the next, and only the folds after them are lists.
    """
    n, total = d.n, 3**d.n
    lane = _lanes(independent_plane(n, d.feasible), total)
    for _ in range(min(n, 7)):
        third = len(lane) // 3
        ones = int.from_bytes(lane[1::3], "little") + int.from_bytes(lane[2::3], "little")
        lane = lane[0::3] + ones.to_bytes(third, "little")
    counts = list(lane)
    for _ in range(n - 7):
        counts = counts[0::3] + list(map(add, counts[1::3], counts[2::3]))
    return [(u, c) for u, c in enumerate(counts) if c]


def _w_variables(n: int) -> tuple[str, ...]:
    return tuple(["w0"] + [f"w{i}" for i in range(1, n + 1)])


def _indicator(n: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def indep_gen_poly(d: DeltaMatroid) -> MultiPoly:
    """Sum w0^(2n-|S|) * w_{underline(S)} over independent sets; degree 2n."""
    n = d.n
    terms = {(2 * n - u.bit_count(),) + _indicator(n, u): c for u, c in _independent_counts(d)}
    return MultiPoly(_w_variables(n), terms)


def efls_gen_poly(d: DeltaMatroid) -> MultiPoly:
    """Sum w0^|S| / |S|! * w_{complement of underline(S)}; degree n."""
    n = d.n
    full = (1 << n) - 1
    terms = {
        (u.bit_count(),) + _indicator(n, full ^ u): Fraction(c, factorial(u.bit_count()))
        for u, c in _independent_counts(d)
    }
    return MultiPoly(_w_variables(n), terms)


def _full_slice(p: MultiPoly) -> bool:
    """Is the support {(deg - |U|, 1_U) : U ⊆ [m], |U| <= deg}, for m + 1 variables?

    ``p`` is homogeneous and non-zero.  One pass over the terms: such a term
    with 0/1 exponents after the first is fixed by U, so the support is the
    whole slice exactly when it has 0/1 tails and sum_{k <= deg} C(m, k)
    terms.  Such a support is M-convex.  Given alpha, beta in it with
    alpha_i > beta_i, equal degrees give some j with alpha_j < beta_j.  Then
    alpha - e_i + e_j is still non-negative (alpha_i >= 1), still 0/1 after
    the first coordinate (alpha_i = 1 if i > 0, alpha_j = 0 if j > 0) and of
    degree deg, so it is again in the slice.
    """
    m, deg = len(p.variables) - 1, p.degree()
    if any(e > 1 for exps in p.terms for e in exps[1:]):
        return False
    return len(p.terms) == sum(comb(m, k) for k in range(min(m, deg) + 1))


def mconvex_support(p: MultiPoly) -> tuple[bool, tuple | None]:
    """Exchange property of the support of a homogeneous polynomial."""
    if not p.is_homogeneous():
        raise ValueError("support check requires a homogeneous polynomial")
    support = sorted(p.terms)
    support_set = set(support)
    width = len(p.variables)
    for alpha in support:
        for beta in support:
            for i in range(width):
                if alpha[i] <= beta[i]:
                    continue
                found = False
                for j in range(width):
                    if alpha[j] < beta[j]:
                        moved = list(alpha)
                        moved[i] -= 1
                        moved[j] += 1
                        if tuple(moved) in support_set:
                            found = True
                            break
                if not found:
                    return False, (alpha, beta, i)
    return True, None


@dataclass(frozen=True)
class InertiaTriple:
    positive: int
    negative: int
    zero: int

    def render(self) -> str:
        return f"({self.positive}, {self.negative}, {self.zero})"


def hessian_inertia(matrix: Sequence[Sequence]) -> InertiaTriple:
    """Exact eigenvalue-sign counts of a rational symmetric matrix.

    The entries are scaled to integers by the LCM of their denominators, a
    positive factor that keeps the inertia, and ``_integer_inertia`` reduces
    the integer matrix.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    k = len(a)
    for row in a:
        if len(row) != k:
            raise ValueError("matrix must be square")
    for i in range(k):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    scale = lcm(*(x.denominator for row in a for x in row))
    return _integer_inertia([[x.numerator * (scale // x.denominator) for x in row] for row in a])


def _integer_inertia(a: list[list[int]]) -> InertiaTriple:
    """Inertia of an integer symmetric matrix by fraction-free congruence reduction.

    A nonzero diagonal pivot p = a[d][d] contributes its sign, and each entry
    of the rest becomes sign(p)·(p·a[r][c] − a[r][d]·a[d][c]): the Schur
    complement times |p|.  When the active diagonal vanishes, a nonzero
    b = a[i][j] yields a hyperbolic 2x2 block, one positive and one negative,
    and the rest becomes sign(b)·(b·a[r][c] − a[r][i]·a[j][c] − a[r][j]·a[i][c]),
    the Schur complement times |b|.  A positive factor keeps the inertia
    (Sylvester's law), so every entry stays an integer.  An all-zero row is
    a zero eigenvalue and never enters ``active``.  ``a`` is overwritten.
    """
    pos = neg = 0
    active = [i for i, row in enumerate(a) if any(row)]
    zero = len(a) - len(active)
    while active:
        d = next((i for i in active if a[i][i]), None)
        if d is not None:
            p = a[d][d]
            sign = 1 if p > 0 else -1
            pos, neg = pos + (p > 0), neg + (p < 0)
            active.remove(d)
            pivot_row = a[d]
            for r in active:
                row, f = a[r], a[r][d]
                for c in active:
                    row[c] = sign * (p * row[c] - f * pivot_row[c])
            continue
        off = next(((i, j) for x, i in enumerate(active) for j in active[x + 1 :] if a[i][j]), None)
        if off is None:
            zero += len(active)
            break
        i, j = off
        b = a[i][j]
        sign = 1 if b > 0 else -1
        pos, neg = pos + 1, neg + 1
        active = [r for r in active if r not in off]
        for r in active:
            row, fi, fj = a[r], a[r][i], a[r][j]
            for c in active:
                row[c] = sign * (b * row[c] - fi * a[j][c] - fj * a[i][c])
    return InertiaTriple(pos, neg, zero)


def _hessians(p: MultiPoly) -> dict[tuple[int, ...], list[tuple[int, int, int]]]:
    """The entries of every non-zero Hessian of a (deg - 2)-fold derivative, in one pass.

    The Hessian of the alpha-fold derivative reads only the terms c·x^e two
    degrees above alpha, e = alpha + e_i + e_j with i <= j.  Such a term adds
    c·∏ e_k! at (i, j) and at (j, i), once at (i, i) when i = j.  Divided by
    ∏ alpha_k!, that is c·e_i·e_j, or c·e_i·(e_i − 1) when i = j; every other
    alpha of degree deg - 2 gives the zero matrix, whose inertia cannot fail.
    The coefficients are scaled to integers by the LCM of their denominators.
    Both factors are positive and fixed per alpha, so the inertia is that of
    the Hessian itself.  Returns (i, j, entry) triples with i <= j by alpha.
    """
    scale = lcm(*(c.denominator for c in p.terms.values()))
    out: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for exps, c in p.terms.items():
        c = c.numerator * (scale // c.denominator)
        support = [k for k, e in enumerate(exps) if e]
        for x, i in enumerate(support):
            for j in support[x:]:
                entry = c * exps[i] * (exps[j] - (i == j))
                if entry:
                    alpha = list(exps)
                    alpha[i] -= 1
                    alpha[j] -= 1
                    out.setdefault(tuple(alpha), []).append((i, j, entry))
    return out


def _scatter_witness(p: MultiPoly) -> tuple | None:
    """(alpha, inertia) of the first Hessian with two positive eigenvalues, from ``_hessians``; any support."""
    width = len(p.variables)
    hessians = _hessians(p)
    for alpha in sorted(hessians):
        h = [[0] * width for _ in range(width)]
        for i, j, entry in hessians[alpha]:
            h[i][j] += entry
            if i != j:
                h[j][i] += entry
        inertia = _integer_inertia(h)
        if inertia.positive > 1:
            return alpha, inertia
    return None


def _dominated(k: int, s: int, b: list[int], rows: list[list[int]]) -> bool:
    """Does Gershgorin's circle theorem put every eigenvalue of k·M - s·b·bᵀ at or below 0?

    M is symmetric with a zero diagonal, rows[x] is row x of M without its diagonal entry,
    and s > 0.  The diagonal of k·M - s·b·bᵀ is -s·b_x², so the disc of row x lies at or
    below 0 when its off-diagonal entries k·M_xj - s·b_x·b_j have absolute values summing
    to at most s·b_x².
    """
    for x, row in enumerate(rows):
        g = s * b[x]
        if sum(map(abs, map(sub, map(k.__mul__, row), map(g.__mul__, b[:x] + b[x + 1 :])))) > g * b[x]:
            return False
    return True


def _slice_witness(p: MultiPoly) -> tuple | None:
    """``_scatter_witness`` of a full slice, each Hessian read by underline mask (module docstring)."""
    m, deg = len(p.variables) - 1, p.degree()
    scale = lcm(*(c.denominator for c in p.terms.values()))
    bits = [1 << k for k in range(m - 1, -1, -1)]  # w1 on the top bit, so masks sort as the tails 1_U do
    coef = {sum(compress(bits, exps[1:])): c.numerator * (scale // c.denominator) for exps, c in p.terms.items()}
    levels: list[list[int]] = [[] for _ in range(m + 2)]
    for u in sorted(coef):
        levels[u.bit_count()].append(u)
    top = min(m, deg - 2)
    # c_{U+j} for the j outside U in index order, by U on the level above the one walked
    above = {u: [coef[u | j] for j in bits if not u & j] for u in levels[top + 1]}
    for size in range(top, -1, -1):
        r, here = deg - size, {}
        for v in levels[size]:
            cv, out = coef[v], [j for j in bits if not v & j]
            b = here[v] = [coef[v | j] for j in out]
            rows = [above[v | i] for i in out]  # row i of M off its diagonal: c_{V+i+j} for j in W - i
            # a times the Schur complement of a, over r - 1 > 0, is r·c_V·M - (r - 1)·b·bᵀ with b_j = c_{V+j}
            if cv > 0 and _dominated(r * cv, r - 1, b, rows):
                continue
            h = [[cv * r * (r - 1)] + [(r - 1) * c for c in b]]
            h += [[(r - 1) * c] + row[:x] + [0] + row[x:] for x, (c, row) in enumerate(zip(b, rows))]
            inertia = _integer_inertia(h)
            if inertia.positive > 1:
                alpha = (r - 2,) + tuple(1 if v & bit else 0 for bit in bits)
                return alpha, InertiaTriple(inertia.positive, inertia.negative, inertia.zero + size)
        above = here
    return None


@dataclass(frozen=True)
class LorentzianReport:
    homogeneous: bool
    nonneg_coeffs: bool
    mconvex: bool
    mconvex_witness: tuple | None
    hessian_ok: bool
    hessian_witness: tuple | None  # (alpha, InertiaTriple) of the first failure

    @property
    def passed(self) -> bool:
        return self.homogeneous and self.nonneg_coeffs and self.mconvex and self.hessian_ok

    def render(self) -> str:
        if self.passed:
            return "lorentzian: yes"
        problems = []
        if not self.homogeneous:
            problems.append("not homogeneous")
        if not self.nonneg_coeffs:
            problems.append("negative coefficient")
        # a non-homogeneous polynomial skips the support and Hessian checks,
        # so their flags are False without a witness
        if self.mconvex_witness is not None:
            problems.append(f"support not M-convex at {self.mconvex_witness}")
        if self.hessian_witness is not None:
            alpha, inertia = self.hessian_witness
            problems.append(f"Hessian at derivative {alpha} has inertia {inertia.render()}")
        return "lorentzian: no (%s)" % "; ".join(problems)


def is_lorentzian(p: MultiPoly) -> LorentzianReport:
    """Full verification; the zero polynomial and degrees below two pass."""
    homogeneous = p.is_homogeneous()
    nonneg = all(c.numerator > 0 for c in p.terms.values())  # a Fraction has the sign of its numerator
    if p.is_zero():
        return LorentzianReport(True, True, True, None, True, None)
    if not homogeneous:
        return LorentzianReport(False, nonneg, False, None, False, None)
    full = _full_slice(p)
    mconvex, witness = (True, None) if full else mconvex_support(p)
    hessian_witness = None
    if p.degree() >= 2:
        hessian_witness = _slice_witness(p) if full else _scatter_witness(p)
    return LorentzianReport(homogeneous, nonneg, mconvex, witness, hessian_witness is None, hessian_witness)


@dataclass(frozen=True)
class InequalityCheck:
    k: int
    inequality: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    def render(self) -> str:
        return f"inequality ({self.inequality}) fails at k={self.k}: {self.lhs} < {self.rhs}"


@dataclass(frozen=True)
class LogConcavityReport:
    n: int
    a: tuple[int, ...]
    checks: tuple[InequalityCheck, ...]

    def all_hold(self, inequality: int | None = None) -> bool:
        return all(c.holds for c in self.checks if inequality is None or c.inequality == inequality)

    def failures(self) -> tuple[InequalityCheck, ...]:
        return tuple(c for c in self.checks if not c.holds)

    def violations(self, inequality: int | None = None) -> list[str]:
        """One ``CONJECTURE VIOLATION`` line per failing check, in check order."""
        return [
            f"CONJECTURE VIOLATION: {c.render()}"
            for c in self.failures()
            if inequality is None or c.inequality == inequality
        ]


def conjecture_check(a: Sequence[int], n: int) -> LogConcavityReport:
    """The three strengthened log-concavity inequalities on a_0..a_n.

    a_k counts independent sets of size k.  Each inequality is evaluated for
    k = 1..n-1 in exact rational arithmetic; products that come out 0 >= 0
    hold trivially.
    """
    if len(a) != n + 1:
        raise ValueError(f"need n + 1 = {n + 1} coefficients, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError("coefficients must be non-negative")
    checks = []
    for k in range(1, n):
        lhs = Fraction(a[k] * a[k])
        outer = a[k + 1] * a[k - 1]
        factors = (  # the factor p/q of each inequality's right-hand side p·outer/q
            (n - k + 1, n - k),
            ((2 * n - k + 1) * (k + 1), (2 * n - k) * k),
            ((n - k + 1) * (k + 1), (n - k) * k),
        )
        for ineq, (p, q) in enumerate(factors, 1):
            checks.append(InequalityCheck(k, ineq, lhs, Fraction(p * outer, q)))
    return LogConcavityReport(n, tuple(a), tuple(checks))


@dataclass(frozen=True)
class TwoVariableReport:
    n: int
    sequence: tuple[Fraction, ...]  # face counts divided by binomial(2n, i)
    log_concave: bool
    first_failure: int | None
    matches_binomial_inequality: bool

    def render(self) -> str:
        seq = ", ".join(str(c) for c in self.sequence)
        verdict = "log-concave" if self.log_concave else f"fails at index {self.first_failure}"
        return f"normalized sequence ({seq}): {verdict}"


def two_var_ulc_check(d: DeltaMatroid) -> TwoVariableReport:
    """Binomial-normalized log-concavity of the two-variable specialization.

    Specializing the independence generating polynomial to (w0, y) gives
    coefficients f_{i-1}; dividing by binomial(2n, i) and checking ordinary
    log-concavity is equivalent to the second conjectured inequality, and the
    report records that the two computations agree.
    """
    return two_var_ulc_from_report(conjecture_check(independence_fvector(d).counts, d.n))


def two_var_ulc_from_report(report: LogConcavityReport) -> TwoVariableReport:
    """``two_var_ulc_check`` on the face counts of a ``conjecture_check`` report, read against its inequality (2)."""
    n = report.n
    a = list(report.a) + [0] * (2 * n + 1 - len(report.a))
    binomials = [comb(2 * n, i) for i in range(2 * n + 1)]
    seq = tuple(map(Fraction, a, binomials))
    first_failure = None
    for i in range(1, 2 * n):  # (a_i/b_i)^2 < (a_(i-1)/b_(i-1))·(a_(i+1)/b_(i+1)), times the positive b's
        if a[i] * a[i] * binomials[i - 1] * binomials[i + 1] < a[i - 1] * a[i + 1] * binomials[i] * binomials[i]:
            first_failure = i
            break
    lc = first_failure is None
    ineq2 = report.all_hold(inequality=2)
    return TwoVariableReport(n, seq, lc, first_failure, matches_binomial_inequality=(lc == ineq2))
