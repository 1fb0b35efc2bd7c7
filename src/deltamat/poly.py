"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples (aligned with the variable
list) to nonzero ``Fraction`` coefficients.  The canonical term order used
for iteration, printing and JSON output is ascending total degree, ties
broken lexicographically on the exponent vector with earlier variables
weighted first (so ``u`` sorts before ``v`` inside a degree).  No floating
point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Rational = int | Fraction


class MultiPoly:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Rational] | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        self.variables: tuple[str, ...] = vs
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != len(vs):
                raise ValueError("exponent vector does not match variable arity")
            if exps and (min(exps) < 0 or max(exps) > 255):
                raise ValueError("exponents must lie in 0..255")
            if c or type(c) is not int:  # a zero int is dropped before any Fraction is built
                c = c if type(c) is Fraction else Fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, c: Rational, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    # -- structure ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """The terms in canonical order, ascending degree and then descending exponents.

        Sorted in reverse on (-degree, exponents), so no negated tuple is built per term.
        """
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exps_by_var: Mapping[str, int]) -> Fraction:
        key = tuple(exps_by_var.get(v, 0) for v in self.variables)
        for v in exps_by_var:
            if v not in self.variables and exps_by_var[v] != 0:
                return Fraction(0)
        return self.terms.get(key, Fraction(0))

    def _align(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = list(self.variables) + [v for v in other.variables if v not in self.variables]
        merged_t = tuple(merged)

        def remap(p: "MultiPoly") -> dict:
            idx = [merged.index(v) for v in p.variables]
            out = {}
            for exps, c in p.terms.items():
                key = [0] * len(merged)
                for j, e in zip(idx, exps):
                    key[j] = e
                out[tuple(key)] = out.get(tuple(key), Fraction(0)) + c
            return {k: c for k, c in out.items() if c != 0}

        return merged_t, remap(self), remap(other)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "MultiPoly | Rational") -> "MultiPoly":
        other = _coerce(other, self.variables)
        vs, a, b = self._align(other)
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(vs, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | Rational") -> "MultiPoly":
        return self + (-_coerce(other, self.variables))

    def __rsub__(self, other: Rational) -> "MultiPoly":
        return _coerce(other, self.variables) - self

    def __mul__(self, other: "MultiPoly | Rational") -> "MultiPoly":
        other = _coerce(other, self.variables)
        vs, a, b = self._align(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = MultiPoly.constant(1, self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = self._align(other)
        return a == b

    __hash__ = None  # type: ignore[assignment]

    # -- calculus-flavoured operations --------------------------------------

    def substitute(self, var: str, replacement: "MultiPoly | Rational") -> "MultiPoly":
        """Exact composition p[var := replacement]; replacement is a polynomial."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        replacement = _coerce(replacement, ())
        i = self.variables.index(var)
        result = MultiPoly.zero(self.variables)
        powers: dict[int, MultiPoly] = {0: MultiPoly.constant(1, ())}
        for exps, c in self.terms.items():
            k = exps[i]
            if k not in powers:
                powers[k] = replacement**k
            rest = list(exps)
            rest[i] = 0
            mono = MultiPoly(self.variables, {tuple(rest): c})
            result = result + mono * powers[k]
        return result

    def evaluate(self, point: Mapping[str, Rational]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"missing assignment for {missing}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for v, e in zip(self.variables, exps):
                if e:
                    val *= Fraction(point[v]) ** e
            total += val
        return total

    def multiaffine_part(self, exempt: str) -> "MultiPoly":
        """Keep the terms with exponent at most 1 in every non-exempt variable."""
        if exempt not in self.variables:
            raise ValueError(f"unknown variable {exempt!r}")
        j = self.variables.index(exempt)
        kept = {
            exps: c
            for exps, c in self.terms.items()
            if all(e <= 1 for i, e in enumerate(exps) if i != j)
        }
        return MultiPoly(self.variables, kept)

    def coefficient_list(self, var: str) -> list[Fraction]:
        """Dense coefficients of a univariate polynomial, low degree first."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        i = self.variables.index(var)
        residual = [
            self.variables[j]
            for exps in self.terms
            for j, e in enumerate(exps)
            if j != i and e
        ]
        if residual:
            raise ValueError(f"not univariate in {var!r}: residual variables {sorted(set(residual))}")
        deg = max((exps[i] for exps in self.terms), default=0)
        out = [Fraction(0)] * (deg + 1)
        for exps, c in self.terms.items():
            out[exps[i]] = c
        return out

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form, e.g. ``3 + 9*u + 4*v + 6*u^2 + 3*u*v + v^2 + u^3``."""
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def json_obj(self) -> dict:
        """Sparse term map for machine output, deterministic order."""
        return {
            "variables": list(self.variables),
            "terms": [[list(exps), str(c)] for exps, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MultiPoly":
        terms = {tuple(exps): Fraction(c) for exps, c in obj["terms"]}
        return cls(tuple(obj["variables"]), terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiPoly({self.text()!r})"


def _coerce(value: "MultiPoly | Rational", variables: tuple[str, ...]) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(value, variables)


def poly_u_v() -> tuple[MultiPoly, MultiPoly]:
    """The (u, v) generators over a shared two-variable ring."""
    u = MultiPoly(("u", "v"), {(1, 0): 1})
    v = MultiPoly(("u", "v"), {(0, 1): 1})
    return u, v
