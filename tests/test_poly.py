import random
from fractions import Fraction

import pytest

from helpers import rand_fraction, rand_poly
from nlie.errors import DimensionMismatch
from nlie.poly import (poly_const, poly_from_terms, poly_var,
                       poly_zero, vf_apply, vf_bracket, vf_coordinate,
                       vf_zero, PolyVectorField)


def x(i, v=2):
    return poly_var(v, i)


def test_add_same_var():
    assert x(0) + x(0) == poly_from_terms(2, {(1, 0): 2})


def test_product_difference_of_squares():
    one = poly_const(2, 1)
    assert (x(0) + one) * (x(0) - one) == poly_from_terms(2, {(2, 0): 1,
                                                             (0, 0): -1})


def test_rand_poly_on_a_point_is_constant():
    # with no variables every degree bound gives a constant
    rng = random.Random(5)
    for max_deg in (0, 1, 3):
        for _ in range(10):
            p = rand_poly(rng, 0, max_deg)
            assert p.num_vars == 0 and set(p.terms) <= {()}


def test_scale_by_zero_annihilates():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng, 3)
        assert p.scale(0) == poly_zero(3)
        assert p * 0 == poly_zero(3)


def test_canonical_no_zero_terms():
    p = poly_from_terms(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = x(0) - x(0)
    assert q.is_zero and q.terms == {}


def test_poly_from_terms_checks_exponent_vectors():
    # raw terms are validated here and nowhere else
    for exps in [(1,), (1, 0, 0), (), (-1, 0), (0, 1.5), (1.0, 0),
                 ("1", 0), (True, 0)]:
        with pytest.raises(ValueError):
            poly_from_terms(2, {exps: 1})
    p = poly_from_terms(2, {(1, 0): 0, (0, 1): Fraction(2, 3), (2, 2): 0})
    assert p.terms == {(0, 1): Fraction(2, 3)}
    assert poly_from_terms(2, {(1, 1): 0}).terms == {}
    assert poly_from_terms(0, {(): 5}).terms == {(): 5}


def _canonical(p, m):
    return p.num_vars == m and all(
        len(e) == m and all(type(k) is int and k >= 0 for k in e) and c != 0
        for e, c in p.terms.items())


def test_arithmetic_results_stay_canonical():
    # the arithmetic trusts its operands, so pin the invariant that raw
    # terms are checked for: every result, cancellations included, keeps
    # nonzero coefficients on num_vars-long exponent vectors
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(0, 3)
        a, c = rand_poly(rng, m, 3, 4), rand_poly(rng, m, 2, 2)
        b = -a + c
        v, w = (PolyVectorField(m, tuple(rand_poly(rng, m) for _ in range(m)))
                for _ in range(2))
        results = [a + b, a - b, a - a, b - c, a * b, (a + c) * (a - c),
                   a.scale(rand_fraction(rng)), a * 0, vf_apply(v, a * b)]
        results += [p.partial(u) for p in (a, a * c) for u in range(m)]
        results += list(vf_bracket(v, w).components)
        results += list(vf_bracket(v, v).components)
        assert all(_canonical(p, m) for p in results)
        assert (a + b) == c and (a - a).terms == {}


def test_mixed_var_count_rejected():
    with pytest.raises(DimensionMismatch):
        poly_var(2, 0) + poly_var(3, 0)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c = (rand_poly(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partial_derivative():
    p = poly_from_terms(2, {(2, 0): 1})  # x0^2
    assert p.partial(0) == poly_from_terms(2, {(1, 0): 2})
    assert p.partial(1) == poly_zero(2)


def test_vf_apply_coordinate_field():
    d0 = vf_coordinate(2, 0)
    assert vf_apply(d0, poly_from_terms(2, {(2, 0): 1})) == \
        poly_from_terms(2, {(1, 0): 2})


def test_vf_apply_kills_constants():
    v = vf_coordinate(2, 0).scale(x(0))  # x0 * d/dx0
    assert vf_apply(v, poly_const(2, Fraction(5, 3))).is_zero


def test_vf_apply_product_rule_example():
    # (x1 d/dx0 + d/dx1) applied to x0*x1 gives x1^2 + x0, by hand.
    v = vf_coordinate(2, 0).scale(x(1)) + vf_coordinate(2, 1)
    got = vf_apply(v, x(0) * x(1))
    assert got == poly_from_terms(2, {(0, 2): 1, (1, 0): 1})


def test_vf_apply_is_derivation():
    rng = random.Random(13)
    for _ in range(20):
        f, g = rand_poly(rng, 2), rand_poly(rng, 2)
        v = PolyVectorField(2, (rand_poly(rng, 2), rand_poly(rng, 2)))
        assert vf_apply(v, f * g) == vf_apply(v, f) * g + f * vf_apply(v, g)


def test_vf_bracket_self_and_coordinates():
    v = PolyVectorField(2, (rand_poly(random.Random(3), 2),
                            rand_poly(random.Random(4), 2)))
    assert vf_bracket(v, v).is_zero
    assert vf_bracket(vf_coordinate(2, 0), vf_coordinate(2, 1)).is_zero


def test_vf_bracket_euler_example():
    # [d/dx0, x0 d/dx0] = d/dx0, by hand.
    d0 = vf_coordinate(2, 0)
    euler = d0.scale(x(0))
    assert vf_bracket(d0, euler) == d0


def test_vf_bracket_jacobi_random():
    rng = random.Random(17)
    for _ in range(10):
        u, v, w = (PolyVectorField(2, (rand_poly(rng, 2, 1),
                                       rand_poly(rng, 2, 1)))
                   for _ in range(3))
        jac = vf_bracket(u, vf_bracket(v, w)) \
            + vf_bracket(v, vf_bracket(w, u)) \
            + vf_bracket(w, vf_bracket(u, v))
        assert jac.is_zero


def test_vf_bracket_acts_as_commutator():
    rng = random.Random(19)
    for _ in range(10):
        u = PolyVectorField(2, (rand_poly(rng, 2, 1), rand_poly(rng, 2, 1)))
        v = PolyVectorField(2, (rand_poly(rng, 2, 1), rand_poly(rng, 2, 1)))
        f = rand_poly(rng, 2)
        lhs = vf_apply(vf_bracket(u, v), f)
        rhs = vf_apply(u, vf_apply(v, f)) - vf_apply(v, vf_apply(u, f))
        assert lhs == rhs


def test_zero_field():
    assert vf_zero(3).is_zero
    assert vf_apply(vf_zero(3), poly_var(3, 1)).is_zero


def test_str_forms():
    p = poly_from_terms(2, {(2, 1): Fraction(-3, 2), (0, 0): 1})
    assert str(p) == "1 + -3/2*x0^2*x1"
    assert str(poly_zero(2)) == "0"
