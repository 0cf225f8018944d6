import itertools
import random
from fractions import Fraction as F

import pytest

from helpers import (constant_bundle_map, monomials, rand_bundle_map,
                     rand_invertible, rand_poly, rand_poly_algebroid,
                     vf_coordinate)

from nlie.algebroid import (anchor_eval, anchor_on_generators,
                            bracket_derivation, check_algebroid_axioms,
                            check_poly_nijenhuis, check_symbol_leibniz,
                            example_tangent_fc, example_tangent_topform,
                            make_bundle_map, make_poly_algebroid,
                            make_poly_multiderivation, md_bracket_eval,
                            md_circle_eval, md_eval,
                            nijenhuis_section_bracket, nijenhuis_symbol_check,
                            poly_family, section_bracket, symbol_bracket)
from nlie.catalog import (broken_ternary_bracket, conjugated_algebra,
                          levi_civita_bracket, sl2)
from nlie.cochains import eval_keys_z, from_bracket, gla_bracket
from nlie.errors import DimensionMismatch, InvalidStructure
from nlie.poly import (generator_section, make_section, poly_const, poly_var,
                       poly_zero, section_zero, vf_apply, vf_bracket)


def x(num_vars, v):
    return poly_var(num_vars, v)


def point_algebroid(alg):
    table = {key: tuple(poly_const(0, c) for c in vec)
             for key, vec in alg.structure.items()}
    return make_poly_algebroid(0, alg.dim, alg.arity, table, {})


def sl2_fc():
    return example_tangent_fc(sl2(), poly_const(3, 1))


def test_section_helpers():
    s = make_section(2, 3, [x(2, 0), poly_zero(2), poly_const(2, 4)])
    assert not s.is_zero
    assert section_zero(2, 3).is_zero
    assert (s - s).is_zero
    doubled = s + s
    assert doubled.comps[2] == poly_const(2, 8)
    assert doubled.scale(F(1, 2)).comps == s.comps
    assert (-s).comps == (section_zero(2, 3) - s).comps
    assert s.scale(1) is s
    # + and - refuse a section of another bundle, a field of R^2 included
    for other in (section_zero(2, 2), section_zero(3, 3)):
        with pytest.raises(DimensionMismatch, match="different bundles"):
            s + other
        with pytest.raises(DimensionMismatch, match="different bundles"):
            s - other
    with pytest.raises(DimensionMismatch):
        make_section(2, 3, [poly_zero(2)])
    with pytest.raises(DimensionMismatch):
        make_section(2, 3, [poly_zero(3)] * 3)
    with pytest.raises(DimensionMismatch):
        generator_section(2, 3, 5)


def test_make_poly_algebroid_validation():
    with pytest.raises(DimensionMismatch):
        make_poly_algebroid(1, 2, 1, {}, {})
    with pytest.raises(DimensionMismatch):
        make_poly_algebroid(1, 3, 2, {(1, 0): [poly_zero(1)] * 3}, {})
    with pytest.raises(DimensionMismatch):
        make_poly_algebroid(1, 3, 2, {(0, 5): [poly_zero(1)] * 3}, {})
    with pytest.raises(DimensionMismatch):
        make_poly_algebroid(1, 3, 2, {(0, 1): [poly_zero(1)] * 2}, {})
    with pytest.raises(DimensionMismatch):
        make_poly_algebroid(1, 3, 2, {}, {(0,): section_zero(2, 2)})
    # zero rows and zero fields are dropped
    abd = make_poly_algebroid(1, 3, 2, {(0, 1): [poly_zero(1)] * 3},
                              {(0,): section_zero(1, 1)})
    assert abd.table == {} and abd.symbol == {}


def test_generator_lookup_signs():
    abd = sl2_fc()
    g = [generator_section(3, 3, j) for j in range(3)]
    plus = section_bracket(abd, [g[0], g[1]])
    minus = section_bracket(abd, [g[1], g[0]])
    assert not plus.is_zero
    assert (plus + minus).is_zero
    assert section_bracket(abd, [g[1], g[1]]).is_zero
    top = example_tangent_topform(3, 2)
    a = anchor_on_generators(top, (0, 1))
    b = anchor_on_generators(top, (1, 0))
    assert (a + b).is_zero
    assert anchor_on_generators(top, (2, 2)).is_zero
    assert anchor_on_generators(top, (0, 2)).is_zero


# seeded kernel properties on one zero-anchor and two anchored models
KERNEL_MODELS = {
    "fc": lambda: example_tangent_fc(
        conjugated_algebra(sl2(), rand_invertible(random.Random(41), 3)),
        x(3, 0)),
    "top32": lambda: example_tangent_topform(3, 2),
    "top43": lambda: example_tangent_topform(4, 3),
}


def rand_section(rng, abd):
    return make_section(abd.num_vars, abd.rank,
                        [rand_poly(rng, abd.num_vars, 2, 2)
                         for _ in range(abd.rank)])


def rand_weight(rng, m):
    """Random polynomial plus x_0 * .. * x_(m-1), which every coordinate
    field moves."""
    f = rand_poly(rng, m, 2, 2)
    mono = poly_const(m, 1)
    for v in range(m):
        mono = mono * x(m, v)
    return f + mono


@pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
def test_section_bracket_skew_random(model):
    abd = KERNEL_MODELS[model]()
    rng = random.Random(101)
    for _ in range(3):
        secs = [rand_section(rng, abd) for _ in range(abd.arity)]
        ref = section_bracket(abd, secs)
        for i, j in itertools.combinations(range(abd.arity), 2):
            swapped = list(secs)
            swapped[i], swapped[j] = secs[j], secs[i]
            assert (section_bracket(abd, swapped) + ref).is_zero


@pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
def test_section_bracket_anchored_leibniz_random(model):
    # [.., f y_i, ..] = f [..] + (-1)^(n-1-i) a(y_1 ^ .. ^_i .. ^ y_n)(f) y_i
    abd = KERNEL_MODELS[model]()
    n = abd.arity
    rng = random.Random(103)
    for _ in range(2):
        secs = [rand_section(rng, abd) for _ in range(n)]
        f = rand_weight(rng, abd.num_vars)
        plain = section_bracket(abd, secs)
        for i in range(n):
            weighted = list(secs)
            weighted[i] = secs[i].scale(f)
            action = vf_apply(anchor_eval(abd, secs[:i] + secs[i + 1:]), f)
            sign = -1 if (n - 1 - i) % 2 else 1
            expect = plain.scale(f) + secs[i].scale(action * sign)
            assert (section_bracket(abd, weighted) - expect).is_zero


@pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
def test_anchor_eval_function_linear_random(model):
    abd = KERNEL_MODELS[model]()
    rng = random.Random(107)
    for _ in range(2):
        secs = [rand_section(rng, abd) for _ in range(abd.arity - 1)]
        extra = rand_section(rng, abd)
        f = rand_weight(rng, abd.num_vars)
        base = anchor_eval(abd, secs)
        for i in range(abd.arity - 1):
            args, alt = list(secs), list(secs)
            args[i] = secs[i].scale(f) + extra
            alt[i] = extra
            expect = base.scale(f) + anchor_eval(abd, alt)
            assert (anchor_eval(abd, args) - expect).is_zero


@pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
def test_md_eval_degree_zero_leibniz_random(model):
    # D(f y) = f D(y) + sigma(f) y
    abd = KERNEL_MODELS[model]()
    m, r = abd.num_vars, abd.rank
    rng = random.Random(109)
    table = {(j,): tuple(rand_poly(rng, m, 1, 2) for _ in range(r))
             for j in range(r)}
    sigma = make_section(m, m, tuple(rand_poly(rng, m, 1, 2) + x(m, v)
                                      for v in range(m)))
    d = make_poly_multiderivation(m, r, abd.arity, 0, table, {(): sigma})
    for _ in range(3):
        y = rand_section(rng, abd)
        f = rand_weight(rng, m)
        lhs = md_eval(d, (y.scale(f),))
        rhs = md_eval(d, (y,)).scale(f) + y.scale(vf_apply(sigma, f))
        assert (lhs - rhs).is_zero


def test_anchor_eval_multilinearity():
    top = example_tangent_topform(3, 2)
    f, g = x(3, 0), x(3, 1)
    s0 = generator_section(3, 3, 0).scale(f)
    s1 = generator_section(3, 3, 1).scale(g)
    field = anchor_eval(top, [s0, s1])
    assert field.comps[0] == f * g
    assert field.comps[1].is_zero and field.comps[2].is_zero
    s2 = generator_section(3, 3, 2)
    assert anchor_eval(top, [s0, s2]).is_zero


def test_section_bracket_leibniz_last_slot():
    top = example_tangent_topform(3, 2)
    g = [generator_section(3, 3, j) for j in range(3)]
    out = section_bracket(top, [g[0], g[1], g[2].scale(x(3, 0))])
    # a(e0 ^ e1) = d/dx_0 applied to x_0 gives 1
    assert out.comps == g[2].comps
    out = section_bracket(top, [g[0], g[1], g[2].scale(x(3, 2))])
    assert out.is_zero
    with pytest.raises(DimensionMismatch):
        section_bracket(top, [g[0], g[1]])


def test_section_bracket_skew_extension():
    # moving the polynomial slot around changes nothing for an even
    # permutation and flips the sign for an odd one
    top = example_tangent_topform(3, 2)
    g = [generator_section(3, 3, j) for j in range(3)]
    f = x(3, 0) * x(3, 1)
    ref = section_bracket(top, [g[0], g[1], g[2].scale(f)])
    cyc = section_bracket(top, [g[2].scale(f), g[0], g[1]])
    assert cyc.comps == ref.comps
    swapped = section_bracket(top, [g[1], g[0], g[2].scale(f)])
    assert (swapped + ref).is_zero


def test_zero_anchor_is_function_linear():
    abd = example_tangent_fc(levi_civita_bracket(), x(4, 0))
    g = [generator_section(4, 4, j) for j in range(4)]
    f = x(4, 1) * x(4, 2)
    for slot in range(3):
        args = [g[0], g[1], g[2]]
        plain = section_bracket(abd, args)
        args[slot] = args[slot].scale(f)
        scaled = section_bracket(abd, args)
        assert (scaled - plain.scale(f)).is_zero


def test_axioms_structure_constant_models():
    eps = levi_civita_bracket()
    for f in (poly_const(4, 1), x(4, 0), x(4, 0) * x(4, 0)):
        assert check_algebroid_axioms(example_tangent_fc(eps, f)).holds
    zero = example_tangent_fc(eps, poly_zero(4))
    assert zero.table == {}
    assert check_algebroid_axioms(zero).holds


def test_axioms_topform_model():
    top = example_tangent_topform(3, 2)
    assert check_algebroid_axioms(top).holds


def test_axioms_point_base_reduction():
    assert check_algebroid_axioms(point_algebroid(sl2())).holds
    lc = point_algebroid(levi_civita_bracket())
    assert check_algebroid_axioms(lc).holds


def test_axioms_broken_table_gives_fi_witness():
    res = check_algebroid_axioms(point_algebroid(broken_ternary_bracket()))
    assert not res.holds
    assert res.witness["axiom"] == "fundamental identity"


def test_axioms_bad_anchor_detected():
    # zero bracket but noncommuting anchor fields: [a(e0), a(e1)] = d/dx_0
    # while the right side of axiom (a) vanishes
    anchor = {(0,): vf_coordinate(2, 0),
              (1,): make_section(2, 2, (x(2, 0), poly_zero(2)))}
    abd = make_poly_algebroid(2, 2, 2, {}, anchor)
    res = check_algebroid_axioms(abd)
    assert not res.holds
    assert res.witness["axiom"] == "anchor compatibility"


def test_example_fc_validation():
    with pytest.raises(DimensionMismatch):
        example_tangent_fc(levi_civita_bracket(), poly_const(3, 1))
    with pytest.raises(InvalidStructure):
        example_tangent_fc(broken_ternary_bracket(), poly_const(4, 1))


def test_example_topform_shape():
    top = example_tangent_topform(4, 3)
    assert top.arity == 4 and top.rank == 4 and top.num_vars == 4
    assert top.table == {}
    field = anchor_on_generators(top, (0, 1, 2))
    assert field.comps[0] == poly_const(4, 1)
    assert anchor_on_generators(top, (0, 1, 3)).is_zero
    with pytest.raises(DimensionMismatch):
        example_tangent_topform(2, 3)


def test_point_base_matches_cochain_engine():
    alg = sl2()
    abd = point_algebroid(alg)
    phi = bracket_derivation(abd)
    phi_c = from_bracket(alg)
    br = gla_bracket(phi_c, phi_c)
    wedges = list(itertools.combinations(range(3), 1))
    for keys in itertools.product(wedges, repeat=2):
        for j in range(3):
            lifted = md_bracket_eval(phi, phi, keys,
                                     generator_section(0, 3, j))
            vals = tuple(p.terms.get((), F(0)) for p in lifted.comps)
            assert vals == tuple(eval_keys_z(br, keys, j))
    assert all(v.is_zero for v in symbol_bracket(phi, phi).values())


def test_md_eval_degree_one_leibniz():
    top = example_tangent_topform(3, 2)
    phi = bracket_derivation(top)
    g = [generator_section(3, 3, j) for j in range(3)]
    for f in poly_family(3):
        lhs = md_eval(phi, [g[0], g[1], g[2].scale(f)])
        plain = md_eval(phi, [g[0], g[1], g[2]])
        sigma = anchor_on_generators(top, (0, 1))
        rhs = plain.scale(f) + g[2].scale(vf_apply(sigma, f))
        assert (lhs - rhs).is_zero
    with pytest.raises(DimensionMismatch):
        md_eval(phi, [g[0], g[1]])


def test_md_eval_degree_zero():
    v = make_section(3, 3, (x(3, 0), poly_zero(3), poly_zero(3)))
    table = {(j,): tuple(poly_const(3, 2 if i == j else 0)
                         for i in range(3)) for j in range(3)}
    d = make_poly_multiderivation(3, 3, 3, 0, table, {(): v})
    f = x(3, 0) * x(3, 1)
    gen = generator_section(3, 3, 1)
    out = md_eval(d, (gen.scale(f),))
    expect = gen.scale(f * 2) + gen.scale(vf_apply(v, f))
    assert (out - expect).is_zero


def test_make_poly_multiderivation_validation():
    with pytest.raises(DimensionMismatch):
        make_poly_multiderivation(1, 2, 2, 2, {}, {})
    with pytest.raises(DimensionMismatch):
        make_poly_multiderivation(1, 2, 2, 0, {(0, 1): [poly_zero(1)] * 2},
                                  {})
    with pytest.raises(DimensionMismatch):
        make_poly_multiderivation(1, 2, 2, 0, {},
                                  {((0,),): section_zero(1, 1)})
    with pytest.raises(DimensionMismatch):
        make_poly_multiderivation(1, 2, 2, 1, {},
                                  {(1, 0): section_zero(1, 1)})
    # a symbol key names generators of the bundle, as an anchor key does
    with pytest.raises(DimensionMismatch, match="bad symbol key"):
        make_poly_multiderivation(2, 3, 3, 1, {},
                                  {(0, 7): vf_coordinate(2, 0)})
    # the sizes an algebroid of the same shape rejects: rank 0, arity 1,
    # a negative variable count
    for sizes in ((1, 0, 2), (1, 2, 1), (-1, 2, 2)):
        with pytest.raises(DimensionMismatch):
            make_poly_multiderivation(*sizes, 0, {}, {})
        with pytest.raises(DimensionMismatch):
            make_poly_multiderivation(*sizes, 1, {}, {})


@pytest.mark.parametrize("degree", [0, 1])
def test_symbol_values_are_vector_fields(degree):
    # a symbol value is a vector field on R^m: a section of rank m, here
    # m = 2, whatever the rank r = 3 of the bundle; a section of rank r,
    # or a field over another base, is refused, zero or not
    key = (0, 1) if degree else ()
    make_poly_multiderivation(2, 3, 3, degree, {}, {key: vf_coordinate(2, 0)})
    for value in (generator_section(2, 3, 0), section_zero(2, 3),
                  vf_coordinate(3, 0), section_zero(1, 1)):
        with pytest.raises(DimensionMismatch, match="not a vector field"):
            make_poly_multiderivation(2, 3, 3, degree, {}, {key: value})
        if degree:
            with pytest.raises(DimensionMismatch, match="not a vector field"):
                make_poly_algebroid(2, 3, 3, {}, {key: value})


_ALGEBROID_ENTRY_POINTS = {
    "section_bracket": lambda d, e, nmap: section_bracket(d, e[:3]),
    "anchor_eval": lambda d, e, nmap: anchor_eval(d, e[:2]),
    "anchor_on_generators": lambda d, e, nmap: anchor_on_generators(
        d, (0, 1)),
    "check_algebroid_axioms": lambda d, e, nmap: check_algebroid_axioms(d),
    "check_symbol_leibniz": lambda d, e, nmap: check_symbol_leibniz(d, d, d),
    "check_poly_nijenhuis": lambda d, e, nmap: check_poly_nijenhuis(d, nmap),
    "nijenhuis_section_bracket": lambda d, e, nmap: nijenhuis_section_bracket(
        d, nmap, 1, e[:3]),
    "nijenhuis_symbol_check": lambda d, e, nmap: nijenhuis_symbol_check(
        d, nmap),
}


@pytest.mark.parametrize("entry", sorted(_ALGEBROID_ENTRY_POINTS))
def test_algebroid_entry_points_refuse_degree_zero(entry):
    # an algebroid is its degree-1 bracket multiderivation; a degree-0 one
    # of the same bundle, whose symbol key is (), is not an algebroid
    top = example_tangent_topform(3, 2)
    assert bracket_derivation(top) is top
    table = {(j,): tuple(poly_const(3, 2 if i == j else 0)
                         for i in range(3)) for j in range(3)}
    d0 = make_poly_multiderivation(3, 3, 3, 0, table,
                                   {(): vf_coordinate(3, 0)})
    e = [generator_section(3, 3, j) for j in range(3)]
    nmap = constant_bundle_map(3, 3, 3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    _ALGEBROID_ENTRY_POINTS[entry](top, e, nmap)
    with pytest.raises(DimensionMismatch, match="degree-1"):
        _ALGEBROID_ENTRY_POINTS[entry](d0, e, nmap)


_OTHER_BUNDLES = {"rank": generator_section(3, 5, 4),
                  "num_vars": generator_section(4, 3, 0)}
_EVALUATORS = {
    "anchor_eval": lambda top, phi, e, z: anchor_eval(top, [e[0], z]),
    "section_bracket": lambda top, phi, e, z: section_bracket(
        top, [e[0], e[1], z]),
    "md_eval": lambda top, phi, e, z: md_eval(phi, [e[0], e[1], z]),
    "md_circle_eval": lambda top, phi, e, z: md_circle_eval(
        phi, phi, ((0, 1), (0, 1)), z),
    "md_bracket_eval": lambda top, phi, e, z: md_bracket_eval(
        phi, phi, ((0, 1), (0, 1)), z),
}


@pytest.mark.parametrize("bundle", sorted(_OTHER_BUNDLES))
@pytest.mark.parametrize("evaluator", sorted(_EVALUATORS))
def test_evaluators_reject_section_over_other_bundle(evaluator, bundle):
    # every evaluator rejects a section over another bundle, whose
    # components would otherwise be read against the wrong tables
    top = example_tangent_topform(3, 2)
    e = [generator_section(3, 3, j) for j in range(3)]
    with pytest.raises(DimensionMismatch, match="wrong bundle"):
        _EVALUATORS[evaluator](top, bracket_derivation(top), e,
                               _OTHER_BUNDLES[bundle])


def test_symbol_bracket_degree_zero_commutator():
    v1 = make_section(2, 2, (x(2, 0), poly_zero(2)))
    v2 = make_section(2, 2, (poly_zero(2), x(2, 0) * x(2, 1)))
    d1 = make_poly_multiderivation(2, 2, 2, 0, {}, {(): v1})
    d2 = make_poly_multiderivation(2, 2, 2, 0, {}, {(): v2})
    sb = symbol_bracket(d1, d2)
    assert (sb[()] - vf_bracket(v1, v2)).is_zero
    flipped = symbol_bracket(d2, d1)
    assert (flipped[()] + sb[()]).is_zero


def test_symbol_bracket_bundle_mismatch():
    d1 = make_poly_multiderivation(2, 2, 2, 0, {}, {})
    d2 = make_poly_multiderivation(2, 3, 2, 0, {}, {})
    with pytest.raises(DimensionMismatch):
        symbol_bracket(d1, d2)


def test_symbol_leibniz_models():
    fc = sl2_fc()
    phi = bracket_derivation(fc)
    assert check_symbol_leibniz(fc, phi, phi).holds
    top = example_tangent_topform(3, 2)
    phit = bracket_derivation(top)
    assert check_symbol_leibniz(top, phit, phit).holds


def test_symbol_leibniz_mixed_degrees():
    top = example_tangent_topform(3, 2)
    phit = bracket_derivation(top)
    v = make_section(3, 3, (x(3, 0), poly_zero(3), poly_zero(3)))
    table = {(j,): tuple(poly_const(3, 2 if i == j else 0)
                         for i in range(3)) for j in range(3)}
    d0 = make_poly_multiderivation(3, 3, 3, 0, table, {(): v})
    assert check_symbol_leibniz(top, phit, d0).holds
    assert check_symbol_leibniz(top, d0, phit).holds
    assert check_symbol_leibniz(top, d0, d0).holds


def test_nijenhuis_section_bracket_basics():
    top = example_tangent_topform(3, 2)
    g = [generator_section(3, 3, j) for j in range(3)]
    zero_map = constant_bundle_map(3, 3, 3, [[0] * 3] * 3)
    assert nijenhuis_section_bracket(top, zero_map, 0, g).comps == \
        section_bracket(top, g).comps
    for k in (1, 2):
        assert nijenhuis_section_bracket(top, zero_map, k, g).is_zero
    with pytest.raises(DimensionMismatch):
        nijenhuis_section_bracket(top, zero_map, 3, g)


def test_poly_nijenhuis_constant_diagonals():
    fc = sl2_fc()
    good = constant_bundle_map(3, 3, 2, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert check_poly_nijenhuis(fc, good).holds
    bad = constant_bundle_map(3, 3, 2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    res = check_poly_nijenhuis(fc, bad)
    assert not res.holds
    assert res.witness["tuple"] == (1, 2)
    with pytest.raises(DimensionMismatch):
        check_poly_nijenhuis(fc, constant_bundle_map(2, 2, 2,
                                                     [[1, 0], [0, 1]]))


def test_polynomial_nijenhuis_on_topform():
    # x_0 * Id: both sides of the closure condition equal x_0^2 e_2
    top = example_tangent_topform(3, 2)
    N = make_bundle_map(3, 3, 3, [[x(3, 0) if i == j else poly_zero(3)
                                   for j in range(3)] for i in range(3)])
    g = [generator_section(3, 3, j) for j in range(3)]
    lhs = section_bracket(top, [md_eval(N, [s]) for s in g])
    expect = g[2].scale(x(3, 0) * x(3, 0))
    assert (lhs - expect).is_zero
    assert check_poly_nijenhuis(top, N).holds
    assert nijenhuis_symbol_check(top, N).holds


def test_nijenhuis_symbol_identity():
    top = example_tangent_topform(3, 2)
    diagonal = constant_bundle_map(3, 3, 3,
                                   [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert nijenhuis_symbol_check(top, diagonal).holds
    zero_map = constant_bundle_map(3, 3, 3, [[0] * 3] * 3)
    assert nijenhuis_symbol_check(top, zero_map).holds
    # zero anchor: every symbol vanishes and the identity is trivial
    fc = example_tangent_fc(levi_civita_bracket(), x(4, 0))
    lam = constant_bundle_map(4, 4, 3, [[3 if i == j else 0
                                         for j in range(4)]
                                        for i in range(4)])
    assert nijenhuis_symbol_check(fc, lam).holds


def test_nijenhuis_symbol_check_rejects_bad_map():
    fc = sl2_fc()
    bad = constant_bundle_map(3, 3, 2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidStructure):
        nijenhuis_symbol_check(fc, bad)


def test_bundle_map_constructors():
    N = make_bundle_map(2, 2, 2, [[x(2, 0), poly_zero(2)],
                                  [poly_zero(2), poly_const(2, 1)]])
    # the degree-0 multiderivation with zero symbol, its table the columns
    assert (N.degree, N.symbol) == (0, {})
    assert N.table == {(0,): (x(2, 0), poly_zero(2)),
                       (1,): (poly_zero(2), poly_const(2, 1))}
    s = make_section(2, 2, [poly_const(2, 1), x(2, 1)])
    out = md_eval(N, [s])
    assert out.comps[0] == x(2, 0)
    assert out.comps[1] == x(2, 1)
    with pytest.raises(DimensionMismatch):
        make_bundle_map(2, 2, 2, [[poly_zero(2)]])
    with pytest.raises(DimensionMismatch):
        make_bundle_map(2, 2, 2, [[poly_zero(3)] * 2] * 2)
    with pytest.raises(DimensionMismatch):
        md_eval(N, [make_section(2, 3, [poly_zero(2)] * 3)])


_NOT_BUNDLE_MAPS = {
    # a rank-2 map over two variables
    "bundle": lambda: make_bundle_map(2, 2, 3, [[x(2, 0), poly_zero(2)],
                                                [poly_zero(2), x(2, 1)]]),
    "arity": lambda: constant_bundle_map(3, 3, 2,
                                         [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    "degree one": lambda: example_tangent_topform(3, 2),
    "symbol": lambda: make_poly_multiderivation(
        3, 3, 3, 0, {(j,): tuple(poly_const(3, 2 if i == j else 0)
                                 for i in range(3)) for j in range(3)},
        {(): vf_coordinate(3, 0)}),
}


@pytest.mark.parametrize("operand", sorted(_NOT_BUNDLE_MAPS))
def test_nijenhuis_entry_points_take_only_bundle_maps(operand):
    # one check refuses anything but a degree-0 multiderivation of the
    # algebroid's bundle with zero symbol, at every k, the bracket k = 0
    # included
    top = example_tangent_topform(3, 2)
    g = [generator_section(3, 3, j) for j in range(3)]
    nmap = _NOT_BUNDLE_MAPS[operand]()
    refused = r"different bundles|zero symbol"
    for k in range(3):
        with pytest.raises(DimensionMismatch, match=refused):
            nijenhuis_section_bracket(top, nmap, k, g)
    with pytest.raises(DimensionMismatch, match=refused):
        check_poly_nijenhuis(top, nmap)
    with pytest.raises(DimensionMismatch, match=refused):
        nijenhuis_symbol_check(top, nmap)


def _assert_graded_bracket_is_deformed(abd, nmap):
    """The polynomial twin of acceptance criterion 07: the graded bracket
    [pi, N] of the algebroid pi with a bundle map N is the first deformed
    bracket [.]^1_N, its symbol is the anchor with N inserted into one
    slot, and it obeys the Leibniz rule with that symbol."""
    m, r, n = abd.num_vars, abd.rank, abd.arity
    weight = poly_const(m, 2) + (x(m, 0) if m else poly_zero(m))
    symbols = symbol_bracket(abd, nmap)
    for xk in itertools.combinations(range(r), n - 1):
        xs = [generator_section(m, r, j) for j in xk]
        for j in range(r):
            z = generator_section(m, r, j).scale(weight)
            assert (md_bracket_eval(abd, nmap, (xk,), z)
                    - nijenhuis_section_bracket(abd, nmap, 1, xs + [z])
                    ).is_zero
        claimed = section_zero(m, m)
        for s in range(n - 1):
            claimed = claimed + anchor_eval(abd, [
                md_eval(nmap, [y]) if t == s else y
                for t, y in enumerate(xs)])
        assert (symbols[(xk,)] - claimed).is_zero
    assert check_symbol_leibniz(abd, abd, nmap).holds


@pytest.mark.parametrize("model", [
    lambda: example_tangent_topform(3, 2),
    lambda: example_tangent_topform(4, 3),
    lambda: example_tangent_fc(sl2(), x(3, 0)),
    lambda: example_tangent_fc(levi_civita_bracket(), x(4, 0))],
    ids=["topform-3-2", "topform-4-3", "fc-sl2", "fc-levi-civita"])
def test_graded_bracket_with_bundle_map_on_models(model):
    abd = model()
    rng = random.Random(31)
    for _ in range(3):
        _assert_graded_bracket_is_deformed(
            abd, rand_bundle_map(rng, abd.num_vars, abd.rank, abd.arity))


def test_graded_bracket_with_bundle_map_random():
    for seed in range(20):
        rng = random.Random(seed)
        m, r = rng.randint(0, 3), rng.randint(2, 4)
        n = min(rng.randint(2, 3), r)
        abd = rand_poly_algebroid(rng, m, r, n)
        _assert_graded_bracket_is_deformed(abd, rand_bundle_map(rng, m, r, n))


def test_poly_family_sizes():
    # the weights that decide the Leibniz checks, in the order in which
    # their first failure is reported
    assert len(poly_family(3)) == 10
    assert poly_family(3) == monomials(3, 2)
