"""The integer ``Complex`` against the rational route.

``Complex`` clears the structure constants to L times an integer table,
checks the fundamental identity in integers and builds and eliminates the
integer rows of L·d_k.  Each test here runs the same question through
Fractions (``helpers.ref_*``) and asks for identical answers on algebras
whose structure constants carry denominators, so L > 1.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (rand_fraction, rand_rational_algebra,
                     ref_check_fundamental_identity, ref_differential,
                     ref_extend, ref_report, ref_rigidity_probe,
                     refusal_replays, simple_4lie)
from nlie.algebra import (check_fundamental_identity, integral_table,
                          make_algebra)
from nlie.catalog import heisenberg3, levi_civita_bracket, sl2
from nlie.cochains import cochain_to_vec, cochain_zero, vec_to_cochain
from nlie.cohomology import Complex, cohomology, differential_matrix
from nlie.deformations import (DeformationPath, extend, make_deformation_path,
                               obstruction, rigidity_probe)
from nlie.errors import InvalidStructure
from nlie.linalg import Refusal, rank_nullspace, solve_linear

F = Fraction


def _rational_bracket(rng, arity, dim):
    table = {key: tuple(rand_fraction(rng, 3, 5) for _ in range(dim))
             for key in itertools.combinations(range(dim), arity)
             if rng.random() < 0.7}
    return make_algebra(arity, dim, table)


def _conjugates(seed, bases, count):
    rng = random.Random(seed)
    return [rand_rational_algebra(rng, base) for base in bases
            for _ in range(count)]


def test_integral_table_clears_denominators():
    alg = make_algebra(2, 3, {(0, 1): (F(1, 2), 0, F(-2, 3)),
                              (1, 2): (0, F(5, 4), 1)})
    assert integral_table(alg) == (12, {(0, 1): (6, 0, -8),
                                        (1, 2): (0, 15, 12)})
    assert integral_table(sl2())[0] == 1


def test_fi_parity_on_rational_brackets():
    """Verdict and witness equal the reference's, the witness in Fractions
    (the integer sides divided by L^2), on random brackets and on valid
    algebras with denominators."""
    rng = random.Random(71)
    algs = [_rational_bracket(rng, rng.choice((2, 3)), rng.randint(3, 5))
            for _ in range(200)]
    algs += _conjugates(72, (levi_civita_bracket(), sl2(), heisenberg3()), 4)
    verdicts = []
    for alg in algs:
        res = check_fundamental_identity(alg)
        assert res == ref_check_fundamental_identity(alg)
        verdicts.append(res.holds)
        if not res.holds:
            assert all(type(x) is Fraction for side in ("lhs", "rhs", "defect")
                       for x in res.witness[side])
    assert verdicts.count(False) >= 150 and verdicts.count(True) >= 12
    assert sum(integral_table(alg)[0] > 1 for alg in algs) >= 200


@pytest.mark.parametrize("base,top", [(levi_civita_bracket(), 2),
                                      (sl2(), 3), (heisenberg3(), 3),
                                      (simple_4lie(), 1)])
def test_complex_matches_rational_route(base, top):
    """Rank, pivots, nullspace and the cohomology report of the integer
    rows of L·d_k equal those of d_k in Fractions."""
    for alg in _conjugates(81, (base,), 2):
        cx = Complex(alg)
        assert cx.scale > 1
        for k in range(top + 1):
            ref = ref_differential(alg, k)
            assert differential_matrix(alg, k) == ref
            assert cx.kernel(k) == rank_nullspace(ref)
            assert cx.report(k) == ref_report(alg, k)


def test_complex_matches_rational_route_dense_d3():
    alg = _conjugates(82, (levi_civita_bracket(),), 1)[0]
    cx = Complex(alg)
    assert cx.scale > 1
    assert cx.kernel(3) == rank_nullspace(ref_differential(alg, 3))
    assert cohomology(alg, 3) == ref_report(alg, 3)


def test_solve_matches_rational_route():
    """d_k x = b solved as (L·d_k) x = L·b: the same canonical solution as
    a rational solve, on consistent right sides and on random ones."""
    rng = random.Random(95)
    solved = 0
    for alg in _conjugates(96, (heisenberg3(), sl2(), levi_civita_bracket()),
                           2):
        cx = Complex(alg)
        for k in (1, 2):
            ref = ref_differential(alg, k)
            x = tuple(rand_fraction(rng) for _ in range(ref.cols))
            for b in (ref.apply(x),
                      tuple(rand_fraction(rng) for _ in range(ref.rows))):
                sol = cx.solve(k, b)
                if isinstance(sol, Refusal):
                    assert solve_linear(ref, b) is None
                    assert refusal_replays(ref, b, sol.witness)
                else:
                    assert sol == solve_linear(ref, b)
                    solved += any(sol)
    assert solved >= 12


def test_extend_matches_rational_route():
    """Order-1 cocycle paths over algebras with denominators: the same next
    term, or a refusal whose left witness replays in Fractions against
    d_2 and the obstruction, and stops replaying once an entry of it on a
    nonzero row of d_2 changes."""
    rng = random.Random(91)
    outcomes = set()
    for alg in _conjugates(92, (heisenberg3(), sl2(), levi_civita_bracket()),
                           2):
        cocycles = rank_nullspace(ref_differential(alg, 2)).nullspace
        for _ in range(2):
            coeffs = [rng.randint(-2, 2) for _ in cocycles]
            combo = [sum((c * v[i] for c, v in zip(coeffs, cocycles)), F(0))
                     for i in range(len(cocycles[0]))]
            path = make_deformation_path(
                alg, [vec_to_cochain(combo, alg.arity, alg.dim, 1)])
            res = extend(path)
            outcomes.add(isinstance(res, Refusal))
            if not isinstance(res, Refusal):
                assert res == ref_extend(path)
                continue
            assert ref_extend(path) is None
            d2 = ref_differential(alg, 2)
            theta = cochain_to_vec(obstruction(path))
            assert refusal_replays(d2, theta, res.witness)
            rows = [s for s, row in enumerate(d2.data) if row]
            s = next((s for s in rows if s in res.witness), rows[0])
            changed = {**res.witness, s: res.witness.get(s, 0) + 1}
            assert not refusal_replays(d2, theta, changed)
    assert outcomes == {True, False}


def test_rigidity_probe_matches_rational_route():
    outcomes = set()
    for alg in _conjugates(93, (sl2(), heisenberg3()), 2):
        rep = rigidity_probe(alg, 2, 4, seed=7)
        assert (rep.betti_h2, rep.trials) == ref_rigidity_probe(alg, 2, 4, 7)
        outcomes |= {t.trivialized for t in rep.trials}
    assert outcomes == {True, False}


def test_extend_checks_the_base_first():
    # the zero term satisfies every deformation equation; the base fails
    broken = _rational_bracket(random.Random(5), 3, 4)
    with pytest.raises(InvalidStructure, match="fundamental identity"):
        extend(DeformationPath(broken, 1, (cochain_zero(3, 4, 1),)))


@pytest.mark.parametrize("alg,betti", [
    (levi_civita_bracket(), [0, 0, 0, 0, 0]),
    (sl2(), [0, 0, 0, 0, 0]),
    (heisenberg3(), [1, 4, 5, 8, 21]),
])
def test_low_degree_betti_pins(alg, betti):
    assert [cohomology(alg, k, max_degree_cap=4).betti
            for k in range(5)] == betti
