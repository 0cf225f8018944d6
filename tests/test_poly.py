import itertools
import json
import random
from fractions import Fraction

import pytest

from helpers import rand_fraction, rand_poly, vf_coordinate
from nlie.algebroid import make_poly_algebroid, section_bracket
from nlie.errors import DimensionMismatch
from nlie.io import poly_from_json, poly_to_json, report_value
from nlie.poly import (MultiPoly, generator_section, make_section, poly_const,
                       poly_from_terms, poly_var, poly_zero, section_zero,
                       vf_apply, vf_bracket)


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
        v, w = (make_section(m, m, tuple(rand_poly(rng, m) for _ in range(m)))
                for _ in range(2))
        results = [a + b, a - b, a - a, b - c, a * b, (a + c) * (a - c),
                   a.scale(rand_fraction(rng)), a * 0, vf_apply(v, a * b)]
        results += [p.partial(u) for p in (a, a * c) for u in range(m)]
        results += list(vf_bracket(v, w).comps)
        results += list(vf_bracket(v, v).comps)
        assert all(_canonical(p, m) for p in results)
        assert (a + b) == c and (a - a).terms == {}
        # subtraction is one pass, the sum with the negation
        assert a - b == a + (-b) and b - c == -a
        assert v - w == v + (-w) and (v - v).is_zero


def test_mixed_var_count_rejected():
    with pytest.raises(DimensionMismatch):
        poly_var(2, 0) + poly_var(3, 0)
    with pytest.raises(DimensionMismatch):
        poly_var(2, 0) - poly_var(3, 0)
    with pytest.raises(DimensionMismatch):
        section_zero(2, 2) - section_zero(3, 3)


def test_constants_are_what_derivations_kill():
    # is_constant is the condition under which _leibniz drops a symbol term
    rng = random.Random(5)
    for m in range(4):
        assert poly_zero(m).is_constant
        assert poly_const(m, Fraction(-3, 2)).is_constant
        v = make_section(m, m, tuple(rand_poly(rng, m) for _ in range(m)))
        for _ in range(10):
            p = rand_poly(rng, m, 2, 3)
            assert p.is_constant == all(not any(e) for e in p.terms)
            if p.is_constant:
                assert vf_apply(v, p).is_zero
    assert not poly_var(1, 0).is_constant


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
        v = make_section(2, 2, (rand_poly(rng, 2), rand_poly(rng, 2)))
        assert vf_apply(v, f * g) == vf_apply(v, f) * g + f * vf_apply(v, g)


def test_vf_bracket_self_and_coordinates():
    v = make_section(2, 2, (rand_poly(random.Random(3), 2),
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
        u, v, w = (make_section(2, 2, (rand_poly(rng, 2, 1),
                                      rand_poly(rng, 2, 1)))
                   for _ in range(3))
        jac = vf_bracket(u, vf_bracket(v, w)) \
            + vf_bracket(v, vf_bracket(w, u)) \
            + vf_bracket(w, vf_bracket(u, v))
        assert jac.is_zero


def test_vf_bracket_acts_as_commutator():
    rng = random.Random(19)
    for _ in range(10):
        u = make_section(2, 2, (rand_poly(rng, 2, 1), rand_poly(rng, 2, 1)))
        v = make_section(2, 2, (rand_poly(rng, 2, 1), rand_poly(rng, 2, 1)))
        f = rand_poly(rng, 2)
        lhs = vf_apply(vf_bracket(u, v), f)
        rhs = vf_apply(u, vf_apply(v, f)) - vf_apply(v, vf_apply(u, f))
        assert lhs == rhs


def test_zero_field():
    assert section_zero(3, 3).is_zero
    assert vf_apply(section_zero(3, 3), poly_var(3, 1)).is_zero


def test_vector_field_operations_refuse_other_sections():
    # a vector field on R^m is a section of rank m: vf_apply and vf_bracket
    # refuse a section of another rank and a field over another base
    v, f = vf_coordinate(2, 0), poly_var(2, 1)
    for other in (generator_section(2, 3, 0), section_zero(2, 1),
                  vf_coordinate(3, 0)):
        with pytest.raises(DimensionMismatch, match="not a vector field"):
            vf_apply(other, f)
        with pytest.raises(DimensionMismatch, match="not a vector field"):
            vf_bracket(v, other)
        with pytest.raises(DimensionMismatch, match="not a vector field"):
            vf_bracket(other, v)


def test_str_forms():
    p = poly_from_terms(2, {(2, 1): Fraction(-3, 2), (0, 0): 1})
    assert str(p) == "1 + -3/2*x0^2*x1"
    assert str(poly_zero(2)) == "0"


# ------------------------------------------------------------------
# Integral coefficients are stored as ints, the others as Fractions.

def _int_poly(rng, m, max_deg=2, terms=3):
    return poly_from_terms(m, {
        tuple(rng.randint(0, max_deg) for _ in range(m)): rng.randint(-3, 3)
        for _ in range(terms)})


def _forced(p):
    """p with every coefficient a Fraction, built past the entry points."""
    return MultiPoly(p.num_vars, {e: Fraction(c) for e, c in p.terms.items()})


def _forced_field(v):
    return make_section(v.num_vars, v.num_vars, tuple(map(_forced, v.comps)))


def _operations(polys, fields, sections, abd, c):
    """Every operation of the polynomial layer on the given operands."""
    a, b = polys
    v, w = fields
    out = [a + b, a - b, -a, a * b, a.scale(c), a * c, c * b,
           vf_apply(v, a * b)]
    out += [p.partial(u) for p in (a, a * b) for u in range(a.num_vars)]
    out += vf_bracket(v, w).comps
    out += section_bracket(abd, sections).comps
    return out


def _case(rng, m, poly):
    """Operands for ``_operations`` over m variables, drawn by ``poly``;
    with them, the same operands with every coefficient a Fraction."""
    r, n = 3, 2
    polys = [poly(rng, m) for _ in range(2)]
    fields = [make_section(m, m, tuple(poly(rng, m) for _ in range(m)))
              for _ in range(2)]
    table = {key: tuple(poly(rng, m) for _ in range(r))
             for key in itertools.combinations(range(r), n)}
    anchor = {(j,): make_section(m, m, tuple(poly(rng, m) for _ in range(m)))
              for j in range(r)}
    sections = [tuple(poly(rng, m) for _ in range(r)) for _ in range(n)]

    def build(f, fv):
        abd = make_poly_algebroid(m, r, n, {
            k: tuple(map(f, comps)) for k, comps in table.items()},
            {k: fv(v) for k, v in anchor.items()})
        return ([f(p) for p in polys], [fv(v) for v in fields],
                [make_section(m, r, tuple(map(f, s))) for s in sections],
                abd)

    return build(lambda p: p, lambda v: v), build(_forced, _forced_field)


def test_integral_inputs_compute_in_ints():
    rng = random.Random(29)
    for _ in range(40):
        m = rng.randint(1, 3)
        (polys, fields, sections, abd), _ = _case(rng, m, _int_poly)
        for c in (rng.randint(-3, 3), Fraction(rng.randint(-6, 6), 2) * 2):
            results = _operations(polys, fields, sections, abd, c)
            assert all(type(k) is int for p in results
                       for k in p.terms.values())
    # the entry points normalise an integral Fraction to its numerator
    assert type(poly_const(2, Fraction(6, 3)).terms[(0, 0)]) is int
    assert type(poly_var(2, 1).terms[(0, 1)]) is int
    assert [type(k) for k in x(0).scale(Fraction(4, 2)).terms.values()] \
        == [int]
    assert poly_from_terms(1, {(1,): Fraction(-4, 2), (0,): Fraction(1, 3),
                               (2,): True}).terms == {(1,): -2,
                                                      (0,): Fraction(1, 3),
                                                      (2,): 1}
    half = [{"exponents": [1], "coeff": "1/2"}] * 2
    assert [type(k) for k in poly_from_json(half, 1).terms.values()] == [int]


def test_rational_inputs_match_the_fraction_route():
    # rand_poly draws coefficients k/1 and k/2, so ints and Fractions mix;
    # the reference runs the same arithmetic on all-Fraction operands
    rng = random.Random(31)
    kinds = set()
    for _ in range(40):
        m = rng.randint(1, 3)
        mixed, forced = _case(rng, m, lambda rng, m: rand_poly(rng, m))
        kinds |= {type(k) for p in mixed[0] for k in p.terms.values()}
        c = rand_fraction(rng)
        assert _operations(*mixed, c) == _operations(*forced, c)
    assert kinds == {int, Fraction}


def test_int_and_fraction_coefficients_render_alike():
    rng = random.Random(37)
    for _ in range(30):
        p = rand_poly(rng, 2, 3, 4) + _int_poly(rng, 2)
        q = _forced(p)
        assert str(p) == str(q)
        assert poly_to_json(p) == poly_to_json(q) == report_value(p)
        # "coeff" is a JSON string for every coefficient, never a number
        for doc in (poly_to_json(p), report_value(q)):
            assert all(type(t["coeff"]) is str
                       for t in json.loads(json.dumps(doc)))
    assert poly_to_json(poly_from_terms(1, {(1,): 3})) == \
        [{"exponents": [1], "coeff": "3"}]
