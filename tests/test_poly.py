import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamat.poly import MultiPoly, poly_u_v

U, V = poly_u_v()


def small_polys():
    coeff = st.integers(min_value=-4, max_value=4)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeff, max_size=5).map(lambda t: MultiPoly(("u", "v"), t))


def test_arith_examples():
    assert (U + 1) * (U + 1) == U**2 + 2 * U + 1
    square = (U + V + 1) ** 2
    assert square == U**2 + 2 * U * V + V**2 + 2 * U + 2 * V + 1
    p = 3 * U * V + 7
    assert p + MultiPoly.zero(("u", "v")) == p
    with pytest.raises(ValueError):
        U ** (-1)


@settings(max_examples=150, derandomize=True)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == MultiPoly.zero(("u", "v"))


def test_substitute_examples():
    vm1 = V - 1
    assert (V**2).substitute("v", vm1) == V**2 - 2 * V + 1
    u_dex = U**3 + 6 * U**2 + 9 * U + 3 * U * V + V**2 + 4 * V + 3
    expected = U**3 + 6 * U**2 + 3 * U * V + 6 * U + V**2 + 2 * V
    assert u_dex.substitute("v", vm1) == expected
    assert U.substitute("v", MultiPoly.constant(0, ("v",))) == U
    assert u_dex.substitute("v", V) == u_dex
    with pytest.raises(ValueError):
        U.substitute("w", V)


@settings(max_examples=100, derandomize=True)
@given(small_polys(), small_polys())
def test_substitute_is_ring_homomorphism(p, q):
    vm1 = V - 1
    assert (p + q).substitute("v", vm1) == p.substitute("v", vm1) + q.substitute("v", vm1)
    assert (p * q).substitute("v", vm1) == p.substitute("v", vm1) * q.substitute("v", vm1)


def test_evaluate():
    u_dex = U**3 + 6 * U**2 + 9 * U + 3 * U * V + V**2 + 4 * V + 3
    assert u_dex.evaluate({"u": 1, "v": 0}) == 19
    assert u_dex.evaluate({"u": 0, "v": 0}) == 3
    assert (U * V).evaluate({"u": Fraction(1, 2), "v": Fraction(2, 3)}) == Fraction(1, 3)
    with pytest.raises(ValueError):
        u_dex.evaluate({"u": 1})


def test_multiaffine_part():
    w0 = MultiPoly(("w0", "w1"), {(1, 0): 1})
    w1 = MultiPoly(("w0", "w1"), {(0, 1): 1})
    p = w0 * w1**2 + w0**2 * w1
    assert p.multiaffine_part("w0") == w0**2 * w1
    q = MultiPoly(("w0", "w1", "w2"), {(0, 1, 1): 1})
    assert q.multiaffine_part("w0") == q
    assert (w0**3).multiaffine_part("w0") == w0**3
    trimmed = p.multiaffine_part("w0")
    assert trimmed.multiaffine_part("w0") == trimmed
    for exps, c in trimmed.terms.items():
        assert p.terms[exps] == c
    with pytest.raises(ValueError):
        p.multiaffine_part("zz")


def test_coefficient_list_and_avector():
    u_dex_at0 = U**3 + 6 * U**2 + 9 * U + 3
    coeffs = u_dex_at0.coefficient_list("u")
    assert coeffs == [3, 9, 6, 1]
    # a_k = coefficient of u^(n-k): reversing gives (1, 6, 9, 3)
    assert list(reversed(coeffs)) == [1, 6, 9, 3]
    assert MultiPoly.constant(1, ("u",)).coefficient_list("u") == [1]
    with pytest.raises(ValueError):
        (U * V).coefficient_list("u")


def test_text_form_and_json():
    u_dex = U**3 + 6 * U**2 + 9 * U + 3 * U * V + V**2 + 4 * V + 3
    assert u_dex.text() == "3 + 9*u + 4*v + 6*u^2 + 3*u*v + v^2 + u^3"
    assert (V - 1).text() == "-1 + v"
    assert MultiPoly.zero(("u",)).text() == "0"
    half = MultiPoly(("w0",), {(1,): Fraction(1, 2)})
    assert half.text() == "1/2*w0"
    obj = u_dex.json_obj()
    assert obj["variables"] == ["u", "v"]
    assert obj["terms"][0] == [[0, 0], "3"]
    assert obj["terms"][-1] == [[3, 0], "1"]
    assert MultiPoly.from_json_obj(obj) == u_dex
    assert MultiPoly.from_json_obj(half.json_obj()) == half


def test_variable_merging_and_equality():
    w = MultiPoly.var("w")
    p = MultiPoly.var("u") + w
    assert set(p.variables) == {"u", "w"}
    assert MultiPoly(("u", "v"), {(1, 0): 1}) == MultiPoly.var("u")
    assert MultiPoly.var("u") + U == 2 * U


def test_exponent_guard():
    with pytest.raises(ValueError):
        MultiPoly(("u",), {(300,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("u",), {(1, 2): 1})
    with pytest.raises(ValueError):
        MultiPoly(("u", "v"), {(1, -1): 1})


def test_construction_keeps_nonzero_fraction_terms():
    half = Fraction(1, 2)
    p = MultiPoly(("u", "v"), {(0, 0): 0, (1, 0): 3, (0, 1): half, (1, 1): Fraction(0), (2, 0): "2/3", (0, 2): "0"})
    assert p.terms == {(1, 0): Fraction(3), (0, 1): half, (2, 0): Fraction(2, 3)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.terms[(0, 1)] is half
    assert MultiPoly((), {(): 5}).terms == {(): Fraction(5)}
    assert MultiPoly.constant(0).is_zero()
    with pytest.raises(ValueError):
        MultiPoly(("u",), {(1,): ""})


def _canonical_key(exps):
    """Oracle: ascending total degree, then descending exponents, as a key on negated tuples."""
    return (sum(exps), tuple(-e for e in exps))


def test_sorted_terms_match_negated_key_order():
    # many terms share a degree, so the tie-break on the exponents decides most of the order
    rng = random.Random(9191)
    for _ in range(300):
        width = rng.randint(1, 6)
        exps = {tuple(rng.randint(0, 3) for _ in range(width)) for _ in range(rng.randint(0, 40))}
        p = MultiPoly([f"x{i}" for i in range(width)], {e: rng.randint(1, 5) for e in exps})
        expected = sorted(p.terms, key=_canonical_key)
        assert [e for e, _ in p.sorted_terms()] == expected
