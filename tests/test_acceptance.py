"""End-to-end acceptance gate.

One test per criterion; the terminal summary hook in conftest.py prints a
PASS/FAIL line for each.  Every equality below is exact rational equality,
and every expected number is either forced by a counting argument or
reproduced by an oracle that does not share code with the checked pipeline
(the classical adjoint-complex matrices ranked by naive dense elimination).
"""

import itertools
import random
import time
from fractions import Fraction

from helpers import (basis_wedge, ce_betti, cochain_add, rand_bracket,
                     rand_cochain, rand_valid_algebra)
from nlie.algebra import (adjoint_representation, check_fundamental_identity,
                          check_o_operator)
from nlie.algebroid import (bracket_derivation, check_algebroid_axioms,
                            check_symbol_leibniz, example_tangent_fc,
                            example_tangent_topform)
from nlie.catalog import (broken_ternary_bracket, levi_civita_bracket,
                          sl2, zero_algebra)
from nlie.chevalley import (CECochain, ce_differential, ce_differential_matrix,
                            ce_eval)
from nlie.cochains import (Cochain, basis_cochains, coboundary_explicit,
                           cochain_is_zero, cochain_scale, differential,
                           eval_keys_z, from_bracket, from_matrix, gla_bracket,
                           maurer_cartan_defect, space_keys)
from nlie.cohomology import (cohomology, complex_dim,
                             differential_matrix, vec_to_cochain)
from nlie.deformations import (check_deformation, check_equivalence,
                               check_homomorphism_family, check_nijenhuis,
                               constant_path, deformation_from_nijenhuis,
                               extend, make_deformation_path,
                               make_equivalence_map, o_operator_lift,
                               obstruction)
from nlie.linalg import (Matrix, Refusal, rank_nullspace, vec_add, vec_scale,
                         vec_zero)
from nlie.poly import poly_const, poly_var

F = Fraction


def degree_basis(m: int, n: int, degree: int) -> list:
    """Basis of the degree-p multiderivation space, including degree 0
    (single-index keys), in key-major component order."""
    if degree >= 1:
        return basis_cochains(m, n, degree)
    unit = lambda i: tuple(F(1 if j == i else 0) for j in range(m))
    return [Cochain(n, m, 0, {key: unit(i)})
            for key in space_keys(m, n, 0) for i in range(m)]


def test_criterion_01_fi_iff_maurer_cartan():
    started = time.perf_counter()
    rng = random.Random(20260814)
    algebras = [levi_civita_bracket(), broken_ternary_bracket()]
    algebras += [rand_valid_algebra(rng, levi_civita_bracket())
                 for _ in range(10)]
    algebras += [rand_bracket(rng, 3, 4) for _ in range(140)]
    algebras += [rand_bracket(rng, 3, 3) for _ in range(60)]
    verdicts = {True: 0, False: 0}
    for alg in algebras:
        fi = check_fundamental_identity(alg).holds
        mc = cochain_is_zero(maurer_cartan_defect(from_bracket(alg)))
        assert fi == mc, alg.structure
        verdicts[fi] += 1
    assert len(algebras) >= 202
    assert verdicts[True] >= 11 and verdicts[False] >= 1
    assert time.perf_counter() - started < 60


def test_criterion_02_differential_squares_to_zero():
    started = time.perf_counter()
    for alg in (levi_civita_bracket(), sl2()):
        phi = from_bracket(alg)
        n, m = alg.arity, alg.dim
        for key in itertools.combinations(range(m), n - 1):
            once = differential(phi, basis_wedge(n - 1, m, key))
            assert cochain_is_zero(differential(phi, once))
        for degree in (0, 1, 2):
            for psi in degree_basis(m, n, degree):
                assert cochain_is_zero(
                    differential(phi, differential(phi, psi)))
    assert time.perf_counter() - started < 300


def test_criterion_03_graded_lie_axioms():
    rng = random.Random(314159)
    seen = set()
    for _ in range(50):
        p, q, r = (rng.choice((0, 1, 2)) for _ in range(3))
        seen.update((p, q, r))
        d1 = rand_cochain(rng, 3, 3, p, density=0.6)
        d2 = rand_cochain(rng, 3, 3, q, density=0.6)
        d3 = rand_cochain(rng, 3, 3, r, density=0.6)
        anti = cochain_add(gla_bracket(d1, d2),
                           cochain_scale(-1 if (p * q) % 2 else 1,
                                         gla_bracket(d2, d1)))
        assert cochain_is_zero(anti)
        t1 = cochain_scale(-1 if (p * r) % 2 else 1,
                           gla_bracket(gla_bracket(d1, d2), d3))
        t2 = cochain_scale(-1 if (q * p) % 2 else 1,
                           gla_bracket(gla_bracket(d2, d3), d1))
        t3 = cochain_scale(-1 if (r * q) % 2 else 1,
                           gla_bracket(gla_bracket(d3, d1), d2))
        assert cochain_is_zero(cochain_add(cochain_add(t1, t2), t3))
    assert seen == {0, 1, 2}


def test_criterion_04_explicit_formula_agreement():
    alg = levi_civita_bracket()
    phi = from_bracket(alg)
    for degree in (0, 1):
        basis = degree_basis(alg.dim, alg.arity, degree)
        assert basis
        for psi in basis:
            explicit = coboundary_explicit(alg, psi)
            assert explicit.entries == differential(phi, psi).entries


def test_criterion_05_lie_reduction_and_whitehead():
    rng = random.Random(271828)
    algebras = [sl2()] + [rand_valid_algebra(rng, sl2()) for _ in range(5)]
    for alg in algebras:
        assert check_fundamental_identity(alg).holds
        for k in (0, 1):
            assert differential_matrix(alg, k).entries == \
                ce_differential_matrix(alg, k).entries
        phi = from_bracket(alg)
        m = alg.dim
        for psi in basis_cochains(m, 2, 1):
            ce = ce_differential(
                alg, CECochain(m, 2, {key: val for (_, key), val
                                      in psi.entries.items()}))
            generic = gla_bracket(phi, psi)
            for i in range(m):
                for j, k in itertools.combinations(range(m), 2):
                    assert eval_keys_z(generic, ((i,), (j,)), k) == \
                        ce_eval(ce, (i, j, k))
    # expected values come from the independent naive-elimination oracle
    assert ce_betti(sl2(), 1) == 0
    assert ce_betti(sl2(), 2) == 0
    assert cohomology(sl2(), 1).betti == 0
    assert cohomology(sl2(), 2).betti == 0


def test_criterion_06_dimension_count_zero_bracket():
    from math import comb

    m, n = 4, 3
    expected = comb(m, n - 1) ** 0 * comb(m, n) * m
    assert expected == 16
    zero = zero_algebra(m, n)
    assert complex_dim(zero, 2) == 16
    assert len(space_keys(m, n, 1)) * m == 16
    report = cohomology(zero, 2)
    assert report.betti == 16
    assert report.rank_d_out == 0 and report.rank_d_in == 0


def _nijenhuis_candidates():
    rng = random.Random(6174)
    eps = levi_civita_bracket()
    yield eps, Matrix.zero(4, 4)
    yield eps, Matrix.identity(4)
    yield eps, Matrix.from_rows([[2 if i == j else 0 for j in range(4)]
                                 for i in range(4)])
    yield eps, Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 2]])
    lie = sl2()
    yield lie, Matrix.zero(3, 3)
    for lam in (1, 3, F(5, 3)):
        yield lie, Matrix.from_rows(
            [[lam if i == j else 0 for j in range(3)] for i in range(3)])
    yield lie, Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    for _ in range(6):
        yield lie, Matrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    for _ in range(6):
        yield eps, Matrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])


def test_criterion_07_nijenhuis_pipeline():
    passed = 0
    for alg, nmat in _nijenhuis_candidates():
        if not check_nijenhuis(alg, nmat).holds:
            continue
        passed += 1
        n = alg.arity
        path = deformation_from_nijenhuis(alg, nmat)
        assert path.order == n - 1
        assert check_deformation(path, "truncated").holds
        assert check_deformation(path, "full").holds
        emap = make_equivalence_map(alg.dim, n - 1, [nmat])
        assert check_equivalence(constant_path(alg, n - 1), path, emap).holds
        assert check_homomorphism_family(path, emap).holds
        phi1 = differential(from_bracket(alg), from_matrix(nmat, n))
        assert path.terms[0].entries == phi1.entries
    assert passed >= 8


def test_criterion_08_obstruction_calculus():
    rng = random.Random(1618)
    base = zero_algebra(4, 3)
    paths = []
    for _ in range(60):
        paths.append(rand_cochain(rng, 3, 4, 1, density=0.5))
    for _ in range(44):
        paths.append(from_bracket(rand_valid_algebra(
            rng, levi_civita_bracket())))
    assert len(paths) >= 100
    outcomes = {True: 0, False: 0}
    for phi1 in paths:
        path = make_deformation_path(base, [phi1])
        res = extend(path)
        flat = cochain_is_zero(maurer_cartan_defect(phi1))
        assert isinstance(res, Cochain if flat else Refusal)
        outcomes[flat] += 1
    assert outcomes[True] >= 44 and outcomes[False] >= 1

    # obstruction cochains of valid order-1 paths over the ternary model
    # are exact cocycles for the next differential
    eps = levi_civita_bracket()
    phi = from_bracket(eps)
    cocycles = rank_nullspace(differential_matrix(eps, 2)).nullspace
    assert cocycles
    for _ in range(10):
        combo = vec_zero(complex_dim(eps, 2))
        for v in cocycles:
            combo = vec_add(combo, vec_scale(F(rng.randint(-2, 2)), v))
        phi1 = vec_to_cochain(combo, eps.arity, eps.dim, 1)
        path = make_deformation_path(eps, [phi1])
        assert check_deformation(path, "truncated").holds
        theta = obstruction(path)
        assert cochain_is_zero(gla_bracket(phi, theta))


def test_criterion_09_o_operator_lift_agreement():
    rng = random.Random(4096)
    alg = levi_civita_bracket()
    rho = adjoint_representation(alg)
    samples = [Matrix.zero(4, 4), Matrix.identity(4)]
    samples += [Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)]
                                  for _ in range(4)]) for _ in range(50)]
    agreements = {True: 0, False: 0}
    for tmap in samples:
        lift = o_operator_lift(alg, rho, tmap)
        assert lift.o_operator_holds == \
            check_o_operator(alg, rho, tmap).holds
        assert lift.agree
        agreements[lift.o_operator_holds] += 1
    assert len(samples) >= 52
    assert agreements[True] >= 1 and agreements[False] >= 1


def test_criterion_10_algebroid_examples():
    started = time.perf_counter()
    base = sl2()
    x1 = poly_var(base.dim, 0)
    for f in (poly_const(base.dim, 1), x1, x1 * x1):
        abd = example_tangent_fc(base, f)
        assert check_algebroid_axioms(abd).holds
        phi = bracket_derivation(abd)
        assert check_symbol_leibniz(abd, phi, phi).holds
    top = example_tangent_topform(3, 2)
    assert top.arity == 3
    assert check_algebroid_axioms(top).holds
    phi = bracket_derivation(top)
    assert check_symbol_leibniz(top, phi, phi).holds
    assert time.perf_counter() - started < 120
