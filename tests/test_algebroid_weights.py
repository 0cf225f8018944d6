"""The table conditions of the algebroid axiom check and the generic-weight
evaluation of the symbol checks, against the per-weight reference loops in
``helpers``, which push generator sections through ``section_bracket``
and ``anchor_eval``.

Parity: equal ``CheckResult``s (verdict and witness) on seeded random
algebroids, multiderivations and bundle maps.  The lemma of
``check_algebroid_axioms``: its identities on random dense tables, and a
witness of every failing kind replays with a nonzero defect.  Like terms:
[D, D], one composition, against an equal copy of D (two) and the
reference, with the compositions counted; the axiom check makes no product
by a factor equal to 1 on the topform models.  Planted defects: one input
per witness kind, each of which must fail with the reference's witness,
the weighted ones after skipped frames, and the action algebroids of sl(2)
and of the Levi-Civita bracket.  The Leibniz rule (b) and the two symbol
checks hold by construction of the evaluator, so their defects are planted
by monkeypatching a kernel of ``nlie.algebroid`` to drop the terms of
degree 2 and up in the base variables; the reference looks its kernels up
on the module, so it sees the same patch.  The axiom check reads only its
tables, so (b) is checked here, as a self-check of the evaluator on
catalog models and seeded random algebroids.
"""

import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from helpers import (rand_bundle_map, rand_low_poly, rand_multiderivation,
                     rand_poly, rand_poly_algebroid, rand_sparse_algebroid,
                     ref_anchor_defect, ref_check_algebroid_axioms,
                     ref_check_symbol_leibniz, ref_fi_defect, ref_leibniz_rule,
                     ref_md_bracket_eval, ref_md_circle_eval,
                     ref_nijenhuis_symbol_check, ref_symbol_bracket,
                     vf_coordinate, weighted_frame)

import nlie.algebroid as A
from nlie import trace
from nlie.algebroid import (PolyMultiderivation, anchor_eval,
                            bracket_derivation, check_algebroid_axioms,
                            check_symbol_leibniz, example_tangent_fc,
                            example_tangent_topform, make_bundle_map,
                            make_poly_algebroid, make_poly_multiderivation,
                            md_bracket_eval, md_circle_eval,
                            nijenhuis_symbol_check, section_bracket,
                            symbol_bracket)
from nlie.algebra import CheckResult, bracket_on_basis
from nlie.catalog import broken_ternary_bracket, levi_civita_bracket, sl2
from nlie.errors import InvalidStructure
from nlie.poly import (MultiPoly, PolySection, generator_section,
                       make_section, poly_const, poly_from_terms, poly_var,
                       poly_zero, vf_apply)


def _shape(rng):
    """Base dimension 0-3, rank 2-4, arity 2-3 (at most the rank)."""
    m, r = rng.randint(0, 3), rng.randint(2, 4)
    return m, r, min(rng.randint(2, 3), r)


def _outcome(check, *args):
    try:
        return check(*args)
    except InvalidStructure as exc:
        return ("invalid", str(exc), exc.witness)


def _kind(res):
    """(axiom, weighted) of a failing check, None when it holds."""
    return None if res.holds else (res.witness["axiom"],
                                   "slot" in res.witness)


def _planted_fi_weighted(n):
    """[e_0, .., e_{n-1}] = e_0 with a(e_1, .., e_{n-2}, e_n) = d/dx0 over
    R^1: the identity and (a) hold on generators and (a) on every weighted
    frame, but D(x0) does not."""
    comps = [poly_zero(1)] * (n + 1)
    comps[0] = poly_const(1, 1)
    return make_poly_algebroid(1, n + 1, n, {tuple(range(n)): tuple(comps)},
                               {tuple(range(1, n - 1)) + (n,):
                                vf_coordinate(1, 0)})


def _planted_anchor_weighted_sections():
    """Zero bracket of arity 3 on rank 3 over R^2, with the constant fields
    a(e0, e2) = d/dx0 and a(e1, e2) = d/dx0 - d/dx1."""
    return make_poly_algebroid(
        2, 3, 3, {}, {(0, 2): vf_coordinate(2, 0),
                      (1, 2): vf_coordinate(2, 0) - vf_coordinate(2, 1)})


# every failing kind of each arity; with n = 2 the weighted conditions
# follow from the generator ones, so they cannot fail first
KINDS = {2: {("fundamental identity", False),
             ("anchor compatibility", False)}}
KINDS[3] = KINDS[4] = KINDS[2] | {("fundamental identity", True),
                                  ("anchor compatibility", True)}


def _sparse(n, seeds):
    """Seeded sparse algebroids of arity n: rank n or n + 1, base
    dimension 1 or 2."""
    for seed in seeds:
        rng = random.Random(seed)
        m, r = rng.randint(1, 2), n + rng.randint(0, 1)
        yield seed, rand_sparse_algebroid(rng, m, r, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_axioms_match_reference_random(n):
    # the implied conditions of the reference cost most at n = 4, so they
    # run at n = 2 and 3; the planted inputs complete the failing kinds
    seeds, implied = {2: (40, True), 3: (30, True), 4: (12, False)}[n]
    planted = {3: [_planted_fi_weighted(3),
                   _planted_anchor_weighted_sections()],
               4: [_planted_fi_weighted(4)]}
    kinds = Counter()
    for seed, abd in itertools.chain(
            _sparse(n, range(seeds)),
            enumerate(planted.get(n, []), start=seeds)):
        res = check_algebroid_axioms(abd)
        assert res == ref_check_algebroid_axioms(abd, implied), seed
        kinds[_kind(res)] += 1
    assert set(kinds) == KINDS[n] | {None}, kinds


def test_generator_phases_match_reference_random():
    # rand_poly_algebroid fails mostly on generators; the reference
    # evaluates every phase through section_bracket and anchor_eval
    kinds = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        abd = rand_poly_algebroid(rng, *_shape(rng))
        res = check_algebroid_axioms(abd)
        assert res == ref_check_algebroid_axioms(abd, implied=False), seed
        kinds[_kind(res)] += 1
    assert kinds[("fundamental identity", False)] >= 10
    assert kinds[("anchor compatibility", False)] >= 10


def test_products_match_reference_random():
    # the lookup insertion of md_circle_eval and symbol_bracket against
    # the shuffle-general insertion over generator sections in helpers,
    # on generator and polynomial-weighted z
    inserted = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        d1 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        d2 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        zs = [generator_section(m, r, j) for j in range(r)] + [make_section(
            m, r, [rand_low_poly(rng, m, 2) for _ in range(r)])]
        wedges = list(itertools.combinations(range(r), n - 1))
        for a, b in ((d1, d2), (d2, d1), (d1, d1)):
            for keys in itertools.product(wedges,
                                          repeat=a.degree + b.degree):
                for z in zs:
                    val = md_circle_eval(a, b, keys, z)
                    assert val == ref_md_circle_eval(a, b, keys, z), seed
                    inserted[a.degree, b.degree] += not val.is_zero
            sym = symbol_bracket(a, b)
            assert sym == ref_symbol_bracket(a, b), seed
            inserted["symbol"] += sum(not v.is_zero for v in sym.values())
    assert min(inserted.values()) >= 20, inserted


def test_symbol_leibniz_matches_reference_random():
    for seed in range(30):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        abd = rand_poly_algebroid(rng, m, r, n)
        d1 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        d2 = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        assert check_symbol_leibniz(abd, d1, d2) == \
            ref_check_symbol_leibniz(abd, d1, d2, degree=3), seed


# ------------------------------------------- [D, D] as one composition

def _twin(d):
    """A record equal to d that is not the same object."""
    twin = PolyMultiderivation(d.num_vars, d.rank, d.arity, d.degree,
                               dict(d.table), dict(d.symbol))
    assert twin == d and twin is not d
    return twin


def _traced(check, *args):
    """check(*args) and the summed counters of each span it closed."""
    out = io.StringIO()
    trace.enable(out)
    try:
        res = check(*args)
    finally:
        trace.finish()
    lines = map(json.loads, out.getvalue().splitlines())
    return res, {line["summary"]: line["counters"] for line in lines
                 if "summary" in line}


def test_bracket_with_itself_matches_twin_and_reference():
    # [D, D] collects its like terms into one composition (none at
    # degree 0); an equal copy takes both, and the reference both through
    # md_eval; z a generator or a polynomial-weighted section
    nonzero = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        d = rand_multiderivation(rng, m, r, n, seed % 2)
        twin = _twin(d)
        zs = [generator_section(m, r, j) for j in range(r)] + [make_section(
            m, r, [rand_low_poly(rng, m, 2) for _ in range(r)])]
        wedges = list(itertools.combinations(range(r), n - 1))
        for keys in itertools.product(wedges, repeat=2 * d.degree):
            for z in zs:
                val = md_bracket_eval(d, d, keys, z)
                assert val == md_bracket_eval(d, twin, keys, z), seed
                assert val == ref_md_bracket_eval(d, d, keys, z), seed
                nonzero[d.degree] += not val.is_zero
        sym = symbol_bracket(d, d)
        assert sym == symbol_bracket(d, twin) == ref_symbol_bracket(d, d)
        nonzero["symbol"] += sum(not v.is_zero for v in sym.values())
    assert nonzero[0] == 0 and nonzero[1] >= 20 and nonzero["symbol"] >= 20


def test_symbol_leibniz_of_an_operand_with_itself_random():
    # the [pi, pi] call, check_symbol_leibniz(abd, d, d), on the seeds of
    # test_symbol_leibniz_matches_reference_random
    for seed in range(30):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        abd = rand_poly_algebroid(rng, m, r, n)
        d = rand_multiderivation(rng, m, r, n, rng.randint(0, 1))
        assert check_symbol_leibniz(abd, d, d) == \
            ref_check_symbol_leibniz(abd, d, d, degree=3), seed


def test_bracket_with_itself_is_one_composition(monkeypatch):
    # the count guard: with md_circle_eval wrapped by a counter, the check
    # on (phi, phi) composes half as often as on phi and an equal copy,
    # and the span's compositions counter is that count
    circle, calls = A.md_circle_eval, Counter()

    def counted(*args):
        calls["md_circle_eval"] += 1
        return circle(*args)

    monkeypatch.setattr(A, "md_circle_eval", counted)
    for abd in (example_tangent_fc(sl2(), poly_var(3, 0)),
                example_tangent_topform(3, 2)):
        phi = bracket_derivation(abd)
        counts = []
        for other in (phi, _twin(phi)):
            calls.clear()
            res, spans = _traced(check_symbol_leibniz, abd, phi, other)
            assert res.holds
            counters = spans["algebroid.check_symbol_leibniz"]
            assert counters["compositions"] == calls["md_circle_eval"]
            assert counters["compositions"] == 2 * counters["frames"] * \
                (1 if other is phi else 2)
            counts.append(calls["md_circle_eval"])
        assert 0 < 2 * counts[0] == counts[1]


def test_nijenhuis_symbol_matches_reference_random():
    raised = 0
    for seed in range(30):
        rng = random.Random(seed)
        m, r, n = _shape(rng)
        abd = rand_poly_algebroid(rng, m, r, n)
        nmap = rand_bundle_map(rng, m, r, n)
        res = _outcome(nijenhuis_symbol_check, abd, nmap)
        # the reference on every monomial of degree <= 3
        assert res == _outcome(ref_nijenhuis_symbol_check, abd, nmap, 3), seed
        raised += isinstance(res, tuple)
    assert 0 < raised < 30


# ------------------------------------------------------------ the lemma

def _dense(rng, m, r, n):
    """Every bracket entry and anchor component a random polynomial of
    degree at most 1."""
    def polys(k):
        return tuple(rand_poly(rng, m, 1, 2) for _ in range(k))

    keys = itertools.combinations(range(r), n)
    wedges = itertools.combinations(range(r), n - 1)
    return make_poly_algebroid(m, r, n, {key: polys(r) for key in keys},
                               {w: make_section(m, m, polys(m))
                                for w in wedges})


def _gens(abd, idx):
    return weighted_frame(abd, idx, ())


def _a(abd, idx):
    return anchor_eval(abd, _gens(abd, idx))


def _bracket(abd, idx):
    return section_bracket(abd, _gens(abd, idx))


@pytest.mark.parametrize("n", [3, 4])
def test_lemma_identities(n):
    # identities 1-6 of the check_algebroid_axioms docstring on random
    # generator frames of dense random tables (x' and y in any order, the
    # weighted generator b possibly in x'), with the weights random
    # polynomials of degree up to 2
    for seed in range(4):
        rng = random.Random(seed)
        m, r = 2, n
        abd = _dense(rng, m, r, n)
        f, g = rand_poly(rng, m, 2, 3), rand_poly(rng, m, 2, 3)
        xp = tuple(rng.sample(range(r), n - 2))
        y = tuple(rng.sample(range(r), n))
        b = rng.randrange(r)
        x, yp = xp + (b,), y[:-1]
        e_b, e_yn = _gens(abd, (b, y[-1]))
        s = [(-1) ** (n - 1 - i) for i in range(n)]

        def fi(x_weights, y_weights=()):
            return ref_fi_defect(abd, weighted_frame(abd, x, x_weights),
                                 weighted_frame(abd, y, y_weights))

        def anchor(x_weights, y_weights=()):
            return ref_anchor_defect(abd, weighted_frame(abd, x, x_weights),
                                     weighted_frame(abd, yp, y_weights))

        def E(f):
            out = -_a(abd, x).scale(vf_apply(_a(abd, yp), f))
            for i, yi in enumerate(yp):
                out = out + _a(abd, yp[:i] + (b,) + yp[i + 1:]).scale(
                    vf_apply(_a(abd, xp + (yi,)), f))
            return out

        def D(f):
            inner = anchor_eval(abd, _gens(abd, xp) + [_bracket(abd, y)])
            out = e_b.scale(-vf_apply(inner, f))
            for i, yi in enumerate(y):
                outer, acting = _a(abd, y[:i] + y[i + 1:]), \
                    _a(abd, xp + (yi,))
                out = out - _bracket(abd, x + (yi,)).scale(
                    vf_apply(outer, f) * s[i])
                out = out + _bracket(abd, y[:i] + (b,) + y[i + 1:]).scale(
                    vf_apply(acting, f))
                out = out + e_b.scale(
                    vf_apply(outer, vf_apply(acting, f)) * s[i])
            return out

        def Q(w, g, f):
            return sum((vf_apply(_a(abd, y[:i] + y[i + 1:]), g)
                        * vf_apply(_a(abd, w + (yi,)), f) * s[i]
                        for i, yi in enumerate(y)), poly_zero(m))

        def cross(one, two):
            """The part of F with both weights differentiated; ``one`` and
            ``two`` are ((x weights, y weights), weight) pairs."""
            (p, h), (q, k) = one, two
            both = fi(*[sum(ws, []) for ws in zip(p, q)])
            return (both - (fi(*p).scale(k) + fi(*q).scale(h))
                    + plain_fi.scale(h * k))

        plain_fi, plain_anchor = fi([]), anchor([])
        # 1. a weight on y_n; A is tensorial in its y slots
        assert fi([], [(n - 1, f)]) == (
            plain_fi.scale(f) + e_yn.scale(vf_apply(plain_anchor, f)))
        assert anchor([], [(n - 2, f)]) == plain_anchor.scale(f)
        # 2. and 3. a weight on x_{n-1}
        assert anchor([(n - 2, f)]) == plain_anchor.scale(f) + E(f)
        assert fi([(n - 2, f)]) == plain_fi.scale(f) + D(f)
        # 4. f on x_{n-1} and g on y_n
        assert cross((([(n - 2, f)], []), f), (([], [(n - 1, g)]), g)) == \
            e_yn.scale(vf_apply(E(f), g))
        # 5. g on x_{n-2} and f on x_{n-1}
        e_a = _gens(abd, (x[-2],))[0]
        assert cross((([(n - 3, g)], []), g), (([(n - 2, f)], []), f)) == \
            e_b.scale(Q(xp, g, f)) - e_a.scale(Q(xp[:-1] + (b,), f, g))
        # 6. two y weights, and two x weights in A, have no cross term
        assert cross((([], [(0, g)]), g),
                     (([], [(n - 1, f)]), f)).is_zero
        assert (anchor([(n - 3, g), (n - 2, f)])
                - anchor([(n - 3, g)]).scale(f)
                - anchor([(n - 2, f)]).scale(g)
                + plain_anchor.scale(g * f)).is_zero


def _replay(abd, witness):
    """The defect of the witness's axiom on its frame: the generators x
    and y, with f on x's weighted slot."""
    f = witness["f"]
    weights = [] if f is None else [
        (witness["slot"], poly_var(abd.num_vars, int(f[1:])))]
    defect = ref_fi_defect if witness["axiom"] == "fundamental identity" \
        else ref_anchor_defect
    return defect(abd, weighted_frame(abd, witness["x"], weights),
                  _gens(abd, witness["y"]))


def test_witnesses_replay():
    # the generator defects vanish on sorted tuples before a weighted
    # phase runs, so each witness's raw defect is its condition: nonzero
    kinds = set()
    for n in (2, 3, 4):
        for seed, abd in _sparse(n, range(40)):
            res = check_algebroid_axioms(abd)
            if not res.holds:
                assert not _replay(abd, res.witness).is_zero, (n, seed)
                kinds.add(_kind(res))
    assert kinds == KINDS[3]


def test_holds_on_random_sections():
    # "holds" is a statement about all sections: on arity-3 algebroids that
    # pass, both defects vanish on random sections whose components are
    # random polynomials on two generators each
    held = 0
    for seed, abd in _sparse(3, range(40)):
        if not check_algebroid_axioms(abd).holds:
            continue
        held += 1
        rng = random.Random(seed)
        m, r = abd.num_vars, abd.rank

        def section():
            comps = [poly_zero(m)] * r
            for j in rng.sample(range(r), 2):
                comps[j] = rand_poly(rng, m, 2, 2)
            return PolySection(m, r, tuple(comps))

        for _ in range(3):
            xs, ys = [section() for _ in range(2)], [section()
                                                     for _ in range(3)]
            assert ref_fi_defect(abd, xs, ys).is_zero, seed
            assert ref_anchor_defect(abd, xs, ys[:2]).is_zero, seed
    assert held >= 10


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
    for n in (3, 4):
        abd = _planted_fi_weighted(n)
        _fails_like_reference(check_algebroid_axioms(abd),
                              ref_check_algebroid_axioms(abd),
                              {"axiom": "fundamental identity",
                               "x": tuple(range(n - 1)),
                               "y": tuple(range(1, n + 1)), "slot": n - 2,
                               "f": "x0"})


def test_arity_two_weighted_identity_is_the_anchor_axiom():
    # [e0, e1] = x0 e0 with a(e0) = d/dx0: with n = 2, D(f) is
    # A(y_1; y_2)(f) x_1, so the identity fails on weighted frames because
    # (a) fails on the generators
    abd = make_poly_algebroid(1, 2, 2,
                              {(0, 1): (poly_var(1, 0), poly_const(1, 0))},
                              {(0,): vf_coordinate(1, 0)})
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "anchor compatibility", "x": (0,),
                           "y": (1,), "f": None})


def test_planted_anchor_on_generators():
    anchor = {(0,): vf_coordinate(2, 0),
              (1,): make_section(2, 2, (poly_var(2, 0), poly_zero(2)))}
    abd = make_poly_algebroid(2, 2, 2, {}, anchor)
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "anchor compatibility", "x": (0,),
                           "y": (1,), "f": None})


def test_planted_anchor_weighted():
    # zero bracket, commuting anchor fields: (a) and the identity hold on
    # generators, but (a) fails once the last x slot carries the weight x0
    x2 = poly_var(3, 2)
    anchor = {(0, 1): make_section(3, 3, (poly_zero(3), x2 * 3,
                                         poly_zero(3))),
              (1, 2): make_section(3, 3, (poly_const(3, -1),
                                         poly_const(3, F(-3, 2)),
                                         poly_zero(3)))}
    abd = make_poly_algebroid(3, 3, 3, {}, anchor)
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "anchor compatibility", "x": (0, 1),
                           "y": (1, 2), "slot": 1, "f": "x0"})


def test_planted_anchor_weighted_sections():
    # every generator condition holds, and A(e0, x0 e2; e1, e2) = -d/dx1
    abd = _planted_anchor_weighted_sections()
    witness = {"axiom": "anchor compatibility", "x": (0, 2), "y": (1, 2),
               "slot": 1, "f": "x0"}
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd), witness)
    assert _replay(abd, witness) == -vf_coordinate(2, 1)
    x0, x1 = poly_var(2, 0), poly_var(2, 1)
    e0, e1, e2 = _gens(abd, (0, 1, 2))
    assert ref_fi_defect(abd, [e0, e2.scale(x0)],
                         [e1, e2, e0.scale(x1)]) == \
        e0.scale(poly_const(2, -1))


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
        anchor[w] = make_section(m, m, tuple(
            poly_from_terms(m, {tuple(int(v == col) for v in range(m)):
                                -ad[col][row] for col in range(m)})
            for row in range(m)))
    return make_poly_algebroid(m, m, n, table, anchor)


def test_sl2_action_algebroid_holds():
    # -ad is a Lie algebra map into the linear vector fields, so the
    # action algebroid is a Lie algebroid
    abd = _action_algebroid(sl2())
    assert check_algebroid_axioms(abd).holds
    assert ref_check_algebroid_axioms(abd).holds


def test_planted_anchor_rescaled_action_algebroid():
    # a(h) doubled: a([h, e]) = 2 a(e) while [a(h), a(e)] = 4 a(e); the
    # bracket is constant, so only the anchor phase can see it
    abd = _action_algebroid(sl2())
    anchor = dict(abd.symbol)
    anchor[(0,)] = anchor[(0,)].scale(2)
    planted = make_poly_algebroid(3, 3, 2, abd.table, anchor)
    _fails_like_reference(check_algebroid_axioms(planted),
                          ref_check_algebroid_axioms(planted),
                          {"axiom": "anchor compatibility", "x": (0,),
                           "y": (1,), "f": None})


def test_levi_civita_action_algebroid():
    # the identity and axiom (a) hold on generators, and (a) fails once
    # the weight x1 sits on a repeated generator: E(x1) on the frame
    # x = (e0, e0), y' = (e1, e2)
    abd = _action_algebroid(levi_civita_bracket())
    _fails_like_reference(check_algebroid_axioms(abd),
                          ref_check_algebroid_axioms(abd),
                          {"axiom": "anchor compatibility", "x": (0, 0),
                           "y": (1, 2), "slot": 1, "f": "x1"})


def _plant_leibniz(monkeypatch, m):
    """A Leibniz evaluator that drops the terms of degree 2 and up from
    the weights of its slots, so the bracket itself breaks the rule."""
    drop, leibniz = _low(m), A._leibniz
    monkeypatch.setattr(A, "_leibniz", lambda d, slots: leibniz(
        d, [[(j, drop(p)) for j, p in slot] for slot in slots]))


def _leibniz_self_check(abd):
    """The anchored Leibniz rule (b) of ``section_bracket`` on all
    weights: ``_leibniz_failure`` over the generator frames of the lifted
    bracket, each with its lifted anchor field."""
    lift = A._lift(abd)
    wedges = list(itertools.combinations(range(abd.rank), abd.arity - 1))

    def frames(gens):
        for xk in wedges:
            xs = [gens[i] for i in xk]
            yield ({"x": xk}, lambda z, _: A.section_bracket(lift, xs + [z]),
                   A.anchor_on_generators(lift, xk))

    bad = A._leibniz_failure(abd.num_vars, abd.rank, frames)
    return CheckResult(bad is None, bad)


def _leibniz_models():
    for alg in (sl2(), levi_civita_bracket()):
        x1 = poly_var(alg.dim, 0)
        for f in (poly_const(alg.dim, 1), x1, x1 * x1):
            yield example_tangent_fc(alg, f)
    yield example_tangent_topform(5, 3)
    yield example_tangent_topform(3, 2)
    for seed in range(10):
        rng = random.Random(seed)
        yield rand_poly_algebroid(rng, *_shape(rng))
    for _, abd in _sparse(3, range(10)):
        yield abd


def test_leibniz_self_check():
    # axiom (b) holds by construction of the evaluator, on any table:
    # the generic-weight driver and the per-monomial reference agree
    for i, abd in enumerate(_leibniz_models()):
        res = _leibniz_self_check(abd)
        assert res.holds, i
        assert res == ref_leibniz_rule(abd), i


def test_planted_leibniz_rule(monkeypatch):
    # the verdict reads the tables only, so it holds under a broken
    # evaluator, which the self-check catches with the reference's witness
    top = example_tangent_topform(3, 2)
    _plant_leibniz(monkeypatch, 3)
    _fails_like_reference(_leibniz_self_check(top), ref_leibniz_rule(top),
                          {"x": (0, 1), "z": 0, "f": "x0^2"})
    assert check_algebroid_axioms(top).holds


def test_planted_symbol(monkeypatch):
    top = example_tangent_topform(3, 2)
    phi = bracket_derivation(top)
    field = make_section(3, 3, (poly_var(3, 0), poly_zero(3), poly_zero(3)))
    table = {(j,): tuple(poly_const(3, 2 if i == j else 0)
                         for i in range(3)) for j in range(3)}
    d0 = make_poly_multiderivation(3, 3, 3, 0, table, {(): field})
    assert check_symbol_leibniz(top, phi, d0).holds
    _plant_vf_apply(monkeypatch, 3)
    _fails_like_reference(check_symbol_leibniz(top, phi, d0),
                          ref_check_symbol_leibniz(top, phi, d0),
                          {"wedges": ((0, 1),), "z": 0, "f": "x0^2"})


def test_planted_symbol_of_an_operand_with_itself(monkeypatch):
    # the [pi, pi] twin of test_planted_symbol: one composition per
    # bracket must still see the planted fault, with the same witness.
    # On the topform itself [pi, pi] vanishes identically, its two
    # composition orders cancelling, so the plant cannot show there; the
    # anchor x0 d/dx0 on (e1, e2) makes [pi, pi] nonzero
    top = example_tangent_topform(3, 2)
    anchor = {**top.symbol, (1, 2): vf_coordinate(3, 0).scale(poly_var(3, 0))}
    pi = make_poly_algebroid(3, 3, 3, {}, anchor)
    for abd in (top, pi):
        phi = bracket_derivation(abd)
        assert check_symbol_leibniz(abd, phi, phi).holds
    _plant_vf_apply(monkeypatch, 3)
    res = check_symbol_leibniz(top, top, top)
    assert res.holds and res == ref_check_symbol_leibniz(top, top, top)
    _fails_like_reference(check_symbol_leibniz(pi, pi, pi),
                          ref_check_symbol_leibniz(pi, pi, pi),
                          {"wedges": ((0, 1), (1, 2)), "z": 0, "f": "x0^2"})


def _planted_anchor_weighted_by_y():
    """Zero bracket of arity 3 on rank 5 over R^2 with a(e1, e2) = -d/dx0
    and a(e3, e4) = d/dx0 + d/dx1 / 2: on the pair (x', y) = ((1,), (3, 4))
    the one nonzero anchor factor free of the weighted generator is
    A(y'), and E(x0) = d/dx0 on the frame x = (1, 2)."""
    return make_poly_algebroid(
        2, 5, 3, {}, {(1, 2): -vf_coordinate(2, 0),
                      (3, 4): vf_coordinate(2, 0)
                      + vf_coordinate(2, 1).scale(F(1, 2))})


@pytest.mark.parametrize("case", ["fi3", "fi4", "anchor", "anchor_by_y"])
def test_planted_weighted_after_skipped_pairs(case):
    # the weighted phases skip the frames of a pair (x', y) whose anchor
    # factors free of the weighted generator all vanish; on these inputs
    # the failing phase skips frames before its first failing one, which
    # is still the reference's
    abd, phase, witness = {
        "fi3": (_planted_fi_weighted(3), "fi_weighted",
                {"axiom": "fundamental identity", "x": (0, 1),
                 "y": (1, 2, 3), "slot": 1, "f": "x0"}),
        "fi4": (_planted_fi_weighted(4), "fi_weighted",
                {"axiom": "fundamental identity", "x": (0, 1, 2),
                 "y": (1, 2, 3, 4), "slot": 2, "f": "x0"}),
        "anchor": (_planted_anchor_weighted_sections(), "anchor_weighted",
                   {"axiom": "anchor compatibility", "x": (0, 2),
                    "y": (1, 2), "slot": 1, "f": "x0"}),
        "anchor_by_y": (_planted_anchor_weighted_by_y(), "anchor_weighted",
                        {"axiom": "anchor compatibility", "x": (1, 2),
                         "y": (3, 4), "slot": 1, "f": "x0"})}[case]
    res, spans = _traced(check_algebroid_axioms, abd)
    _fails_like_reference(res, ref_check_algebroid_axioms(abd), witness)
    assert spans[f"algebroid.axioms.{phase}"]["skipped"] > 0


def test_axiom_check_makes_no_product_by_one(monkeypatch):
    # the topform anchors have a component equal to 1, and the weighted
    # phases evaluate frames on them, so scaling a whole anchor field by
    # a coordinate factor would multiply by 1
    mul, by_one = MultiPoly.__mul__, []

    def counted(self, other):
        one = other.is_one if isinstance(other, MultiPoly) else other == 1
        by_one.append(self.is_one or one)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    for args in ((5, 3), (3, 2)):
        by_one.clear()
        res, spans = _traced(check_algebroid_axioms,
                             example_tangent_topform(*args))
        assert res.holds and spans["algebroid.axioms.anchor_weighted"][
            "frames"] > 0
        assert not any(by_one), (args, by_one.count(True), len(by_one))


@pytest.mark.parametrize("name", ["sl2", "levi_civita"])
def test_example_fc_makes_no_product_by_one_or_zero(monkeypatch, name):
    # the structure constants are 0, +-1 or +-2 and f may be the constant
    # 1: the table is f times the constants, with no product where f or
    # the constant is 1 and none where the constant is 0
    alg = {"sl2": sl2, "levi_civita": levi_civita_bracket}[name]()
    m = alg.dim
    x1 = poly_var(m, 0)
    cases = [(f, {key: tuple(f.scale(c) for c in bracket_on_basis(alg, key))
                  for key in itertools.combinations(range(m), alg.arity)})
             for f in (poly_const(m, 1), x1, x1 * x1)]
    mul, trivial = MultiPoly.__mul__, []

    def counted(self, other):
        poly = isinstance(other, MultiPoly)
        trivial.append(self.is_one or self.is_zero or (
            other.is_one or other.is_zero if poly else other in (0, 1)))
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    for f, table in cases:
        trivial.clear()
        abd = example_tangent_fc(alg, f)
        assert abd.table == {key: comps for key, comps in table.items()
                             if any(comps)}
        assert not any(trivial), (str(f), trivial.count(True), len(trivial))


def test_planted_nijenhuis_symbol(monkeypatch):
    top = example_tangent_topform(3, 2)
    nmap = make_bundle_map(3, 3, 3, [[poly_var(3, 0) if i == j
                                      else poly_zero(3)
                                      for j in range(3)] for i in range(3)])
    assert nijenhuis_symbol_check(top, nmap).holds
    _plant_vf_apply(monkeypatch, 3)
    _fails_like_reference(nijenhuis_symbol_check(top, nmap),
                          ref_nijenhuis_symbol_check(top, nmap),
                          {"k": 1, "x": (0, 1), "z": 0, "f": "x0^2"})
