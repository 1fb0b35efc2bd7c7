"""Lorentzian-polynomial verification and the log-concavity inequality suite.

A homogeneous polynomial with nonnegative coefficients is Lorentzian when its
support is M-convex and every Hessian obtained by taking degree-minus-two
partial derivatives has at most one positive eigenvalue.  Only derivatives
that lie under some support term have a non-zero Hessian, so only those are
built, in the lexicographic order of the full sweep.  Inertia is computed
exactly by symmetric congruence reduction (Sylvester's law), so there are no
eigenvalue solvers and no tolerances anywhere.  Degenerate quadratics are
allowed because coefficient-wise limits of strictly Lorentzian polynomials
can be singular; polynomials of degree below two pass by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Sequence

from .deltamatroid import DeltaMatroid
from .invariants import independence_fvector
from .poly import MultiPoly


def indep_gen_poly(d: DeltaMatroid) -> MultiPoly:
    """Sum w0^(2n-|S|) * w_{underline(S)} over independent sets; degree 2n."""
    n = d.n
    variables = tuple(["w0"] + [f"w{i}" for i in range(1, n + 1)])
    counts: dict[tuple[int, ...], int] = {}
    for s in d.independents():
        exps = [2 * n - s.size] + [(s.underline >> i) & 1 for i in range(n)]
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(variables, counts)


def efls_gen_poly(d: DeltaMatroid) -> MultiPoly:
    """Sum w0^|S| / |S|! * w_{complement of underline(S)}; degree n."""
    n = d.n
    variables = tuple(["w0"] + [f"w{i}" for i in range(1, n + 1)])
    terms: dict[tuple[int, ...], Fraction] = {}
    for s in d.independents():
        exps = [s.size] + [1 - ((s.underline >> i) & 1) for i in range(n)]
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(1, factorial(s.size))
    return MultiPoly(variables, terms)


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

    Symmetric congruence reduction: a nonzero diagonal pivot contributes its
    sign; when the active diagonal vanishes, a nonzero off-diagonal entry
    yields a hyperbolic 2x2 block contributing one positive and one negative.
    """
    k = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for row in a:
        if len(row) != k:
            raise ValueError("matrix must be square")
    for i in range(k):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    pos = neg = zero = 0
    active = list(range(k))
    while active:
        d_i = next((i for i in active if a[i][i] != 0), None)
        if d_i is not None:
            piv = a[d_i][d_i]
            if piv > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != d_i]
            for r in rest:
                f = a[r][d_i] / piv
                if f:
                    for c in rest:
                        a[r][c] -= f * a[d_i][c]
            active = rest
            continue
        off = None
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                if a[active[ii]][active[jj]] != 0:
                    off = (active[ii], active[jj])
                    break
            if off:
                break
        if off is None:
            zero += len(active)
            break
        i, j = off
        b = a[i][j]
        pos += 1
        neg += 1
        rest = [r for r in active if r not in (i, j)]
        for r in rest:
            for c in rest:
                a[r][c] -= (a[r][i] * a[j][c] + a[r][j] * a[i][c]) / b
        active = rest
    return InertiaTriple(pos, neg, zero)


def _compositions(total: int, parts: int):
    """Every exponent vector of the given total, in lexicographic order (the full sweep)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _hessian_points(p: MultiPoly) -> list[tuple[int, ...]]:
    """The alpha whose Hessian can be non-zero, in lexicographic order.

    The Hessian of the alpha-fold derivative reads only the terms two degrees
    above alpha, so alpha must be exps - e_i - e_j for a support term exps
    and some i <= j.  Every other alpha of degree deg - 2 gives the zero
    matrix, whose inertia (0, 0, k) cannot fail.
    """
    points = set()
    for exps in p.terms:
        for i, j in combinations_with_replacement(range(len(exps)), 2):
            alpha = list(exps)
            alpha[i] -= 1
            alpha[j] -= 1
            if alpha[i] >= 0 and alpha[j] >= 0:
                points.add(tuple(alpha))
    return sorted(points)


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def derivative_hessian(p: MultiPoly, alpha: tuple[int, ...]) -> list[list[Fraction]]:
    """Hessian matrix of the alpha-fold partial derivative of p."""
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
    nonneg = all(c > 0 for c in p.terms.values())
    if p.is_zero():
        return LorentzianReport(True, True, True, None, True, None)
    if not homogeneous:
        return LorentzianReport(False, nonneg, False, None, False, None)
    mconvex, witness = mconvex_support(p)
    deg = p.degree()
    hessian_ok = True
    hessian_witness = None
    if deg >= 2:
        for alpha in _hessian_points(p):
            inertia = hessian_inertia(derivative_hessian(p, alpha))
            if inertia.positive > 1:
                hessian_ok = False
                hessian_witness = (alpha, inertia)
                break
    return LorentzianReport(homogeneous, nonneg, mconvex, witness, hessian_ok, hessian_witness)


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
        factors = {
            1: Fraction(n - k + 1, n - k),
            2: Fraction(2 * n - k + 1, 2 * n - k) * Fraction(k + 1, k),
            3: Fraction(n - k + 1, n - k) * Fraction(k + 1, k),
        }
        for ineq, factor in factors.items():
            checks.append(InequalityCheck(k, ineq, lhs, factor * outer))
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
    n = d.n
    counts = independence_fvector(d).counts
    a = list(counts) + [0] * (2 * n + 1 - len(counts))
    seq = tuple(Fraction(a[i], comb(2 * n, i)) for i in range(2 * n + 1))
    first_failure = None
    for i in range(1, 2 * n):
        if seq[i] * seq[i] < seq[i - 1] * seq[i + 1]:
            first_failure = i
            break
    lc = first_failure is None
    ineq2 = conjecture_check(counts, n).all_hold(inequality=2)
    return TwoVariableReport(n, seq, lc, first_failure, matches_binomial_inequality=(lc == ineq2))
