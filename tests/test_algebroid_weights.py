"""The generic-weight evaluation of the algebroid checks, and their
generator phases read off the bracket and anchor tables, against the
per-weight reference loops in ``helpers``, which push generator sections
through ``section_bracket`` and ``anchor_eval``.

Parity: equal ``CheckResult``s (verdict and witness) on seeded random
algebroids, multiderivations and bundle maps.  Planted defects: one input
per witness kind, each of which must fail with the reference's witness,
and the action algebroids of sl(2) and of the Levi-Civita bracket.
The Leibniz rule (b) and the two symbol checks hold by construction of the
evaluator, so their defects are planted by monkeypatching a kernel of
``nlie.algebroid`` to drop the terms of degree 2 and up in the base
variables; the reference looks its kernels up on the module, so it sees
the same patch.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from helpers import (rand_bundle_map, rand_multiderivation,
                     rand_poly_algebroid, ref_check_algebroid_axioms,
                     ref_check_symbol_leibniz, ref_nijenhuis_symbol_check)

import nlie.algebroid as A
from nlie.algebroid import (PolySection, bracket_derivation,
                            check_algebroid_axioms, check_symbol_leibniz,
                            example_tangent_topform, make_bundle_map,
                            make_poly_algebroid, make_poly_multiderivation,
                            nijenhuis_symbol_check)
from nlie.algebra import bracket_on_basis
from nlie.catalog import broken_ternary_bracket, levi_civita_bracket, sl2
from nlie.errors import InvalidStructure
from nlie.poly import (MultiPoly, PolyVectorField, poly_const,
                       poly_from_terms, poly_var, poly_zero, vf_coordinate)

AXIOM_DEGREES = [(0, 0), (1, 0), (2, 2), (3, 1)]


def _shape(rng):
    """Base dimension 0-3, rank 2-4, arity 2-3 (at most the rank)."""
    m, r = rng.randint(0, 3), rng.randint(2, 4)
    return m, r, min(rng.randint(2, 3), r)


def _outcome(check, *args):
    try:
        return check(*args)
    except InvalidStructure as exc:
        return ("invalid", str(exc), exc.witness)


@pytest.mark.parametrize("max_degree,sections_degree", AXIOM_DEGREES)
def test_axioms_match_reference_random(max_degree, sections_degree):
    kinds = set()
    for seed in range(30):
        rng = random.Random(seed)
        abd = rand_poly_algebroid(rng, *_shape(rng))
        res = check_algebroid_axioms(abd, max_degree, sections_degree)
        assert res == ref_check_algebroid_axioms(abd, max_degree,
                                                 sections_degree), seed
        kinds.add(None if res.holds else
                  (res.witness["axiom"], "slot" in res.witness))
    assert None in kinds
    assert ("fundamental identity", False) in kinds
    if max_degree > 0:
        assert ("fundamental identity", True) in kinds


def test_generator_phases_match_reference_random():
    # degrees (0, 0) leave only the generator phases able to fail; the
    # reference evaluates them through section_bracket and anchor_eval
    kinds = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        abd = rand_poly_algebroid(rng, *_shape(rng))
        res = check_algebroid_axioms(abd, 0, 0)
        assert res == ref_check_algebroid_axioms(abd, 0, 0), seed
        if not res.holds:
            assert set(res.witness) == {"axiom", "x", "y", "f"}
            kinds[res.witness["axiom"]] += 1
    assert kinds["fundamental identity"] >= 10
    assert kinds["anchor compatibility"] >= 10


def test_symbol_leibniz_matches_reference_random():
    for seed in range(30):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        abd = rand_poly_algebroid(rng, m, r, n)
        d1 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        d2 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        max_degree = rng.randint(0, 2)
        assert check_symbol_leibniz(abd, d1, d2, max_degree) == \
            ref_check_symbol_leibniz(abd, d1, d2, max_degree), seed


def test_nijenhuis_symbol_matches_reference_random():
    raised = 0
    for seed in range(30):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        abd = rand_poly_algebroid(rng, m, r, n)
        nmap = rand_bundle_map(rng, m, r)
        max_degree = rng.randint(0, 2)
        res = _outcome(nijenhuis_symbol_check, abd, nmap, max_degree)
        assert res == _outcome(ref_nijenhuis_symbol_check, abd, nmap,
                               max_degree), seed
        raised += isinstance(res, tuple)
    assert 0 < raised < 30


# ------------------------------------------------------ planted defects

def _low(m):
    """Drop the terms of degree 2 and up in the base variables x0..x(m-1)."""
    def drop(p):
        return MultiPoly(p.num_vars, {e: c for e, c in p.terms.items()
                                      if sum(e[:m]) < 2})
    return drop


def _plant_vf_apply(monkeypatch, m):
    drop, apply = _low(m), A.vf_apply
    monkeypatch.setattr(A, "vf_apply", lambda v, f: drop(apply(v, f)))


def _plant_section_scale(monkeypatch, m):
    drop, scale = _low(m), A.section_scale

    def planted(f, s):
        out = scale(f, s)
        return PolySection(out.num_vars, out.rank,
                           tuple(drop(p) for p in out.comps))
    monkeypatch.setattr(A, "section_scale", planted)


def _fails_like_reference(res, ref, witness):
    assert not res.holds
    assert res == ref
    assert res.witness == witness


def test_planted_fi_on_generators():
    table = {key: tuple(poly_const(0, c) for c in vec)
             for key, vec in broken_ternary_bracket().structure.items()}
    abd = make_poly_algebroid(0, 4, 3, table, {})
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "fundamental identity", "x": (0, 1),
                           "y": (1, 2, 3), "f": None})


def test_planted_fi_weighted():
    # [e0, e1] = x0 e0 with a(e0) = d/dx0: the identity holds on
    # generators and fails once a slot carries the weight x0
    abd = make_poly_algebroid(1, 2, 2,
                              {(0, 1): (poly_var(1, 0), poly_const(1, 0))},
                              {(0,): vf_coordinate(1, 0)})
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "fundamental identity", "slot": 0,
                           "f": "x0", "shift": 0})


def test_planted_anchor_on_generators():
    anchor = {(0,): vf_coordinate(2, 0),
              (1,): PolyVectorField(2, (poly_var(2, 0), poly_zero(2)))}
    abd = make_poly_algebroid(2, 2, 2, {}, anchor)
    _fails_like_reference(check_algebroid_axioms(abd, 0),
                          ref_check_algebroid_axioms(abd, 0),
                          {"axiom": "anchor compatibility", "x": (0,),
                           "y": (1,), "f": None})


def test_planted_anchor_weighted():
    # zero bracket, commuting anchor fields: (a) holds on generator
    # wedges and the identity on every weighted frame, but (a) fails once
    # a wedge factor carries the weight x0
    x2 = poly_var(3, 2)
    anchor = {(0, 1): PolyVectorField(3, (poly_zero(3), x2 * 3,
                                          poly_zero(3))),
              (1, 2): PolyVectorField(3, (poly_const(3, -1),
                                          poly_const(3, F(-3, 2)),
                                          poly_zero(3)))}
    abd = make_poly_algebroid(3, 3, 3, {}, anchor)
    assert check_algebroid_axioms(abd, 2, 0).holds
    _fails_like_reference(check_algebroid_axioms(abd, 2, 2),
                          ref_check_algebroid_axioms(abd, 2, 2),
                          {"axiom": "anchor compatibility", "slot": 0,
                           "f": "x0", "shift": 1})


def _action_algebroid(alg):
    """The constant bracket of ``alg`` on the trivial bundle of rank dim
    over R^dim, anchored on each generator wedge w by the linear field
    x -> -ad(w) x, with ad(w) = [w, -]."""
    m, n = alg.dim, alg.arity
    table = {key: tuple(poly_const(m, c) for c in vec)
             for key, vec in alg.structure.items()}
    anchor = {}
    for w in itertools.combinations(range(m), n - 1):
        ad = [bracket_on_basis(alg, w + (col,)) for col in range(m)]
        anchor[w] = PolyVectorField(m, tuple(
            poly_from_terms(m, {tuple(int(v == col) for v in range(m)):
                                -ad[col][row] for col in range(m)})
            for row in range(m)))
    return make_poly_algebroid(m, m, n, table, anchor)


def test_sl2_action_algebroid_holds():
    # -ad is a Lie algebra map into the linear vector fields, so the
    # action algebroid is a Lie algebroid
    abd = _action_algebroid(sl2())
    assert check_algebroid_axioms(abd, 2, 2).holds
    assert ref_check_algebroid_axioms(abd, 2, 2).holds


def test_planted_anchor_rescaled_action_algebroid():
    # a(h) doubled: a([h, e]) = 2 a(e) while [a(h), a(e)] = 4 a(e); the
    # bracket is constant, so only the anchor phase can see it
    abd = _action_algebroid(sl2())
    anchor = dict(abd.anchor_table)
    anchor[(0,)] = anchor[(0,)].scale(2)
    planted = make_poly_algebroid(3, 3, 2, abd.bracket_table, anchor)
    _fails_like_reference(check_algebroid_axioms(planted, 0),
                          ref_check_algebroid_axioms(planted, 0),
                          {"axiom": "anchor compatibility", "x": (0,),
                           "y": (1,), "f": None})


def test_levi_civita_action_algebroid():
    # the identity and axiom (a) hold on generators, and the identity
    # fails once a slot carries the weight x0
    abd = _action_algebroid(levi_civita_bracket())
    assert check_algebroid_axioms(abd, 0).holds
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "fundamental identity", "slot": 0,
                           "f": "x0", "shift": 1})


def test_planted_leibniz_rule(monkeypatch):
    top = example_tangent_topform(3, 2)
    _plant_section_scale(monkeypatch, 3)
    _fails_like_reference(check_algebroid_axioms(top),
                          ref_check_algebroid_axioms(top),
                          {"axiom": "leibniz rule", "x": (0, 1), "z": 0,
                           "f": "x0^2"})


def test_planted_symbol(monkeypatch):
    top = example_tangent_topform(3, 2)
    phi = bracket_derivation(top)
    field = PolyVectorField(3, (poly_var(3, 0), poly_zero(3), poly_zero(3)))
    table = {(j,): tuple(poly_const(3, 2 if i == j else 0)
                         for i in range(3)) for j in range(3)}
    d0 = make_poly_multiderivation(3, 3, 3, 0, table, {(): field})
    assert check_symbol_leibniz(top, phi, d0).holds
    _plant_vf_apply(monkeypatch, 3)
    _fails_like_reference(check_symbol_leibniz(top, phi, d0),
                          ref_check_symbol_leibniz(top, phi, d0),
                          {"wedges": ((0, 1),), "z": 0, "f": "x0^2"})


def test_planted_nijenhuis_symbol(monkeypatch):
    top = example_tangent_topform(3, 2)
    nmap = make_bundle_map(3, 3, [[poly_var(3, 0) if i == j else poly_zero(3)
                                   for j in range(3)] for i in range(3)])
    assert nijenhuis_symbol_check(top, nmap).holds
    _plant_vf_apply(monkeypatch, 3)
    _fails_like_reference(nijenhuis_symbol_check(top, nmap),
                          ref_nijenhuis_symbol_check(top, nmap),
                          {"k": 1, "x": (0, 1), "z": 0, "f": "x0^2"})
