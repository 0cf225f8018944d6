import itertools
import random
from fractions import Fraction

import pytest

from helpers import (_ref_circle_raw, basis_wedge, cochain_add, cochain_sub,
                     rand_bracket, rand_cochain, rand_fraction, rand_matrix,
                     rand_rational_algebra, rand_sparse_vector,
                     rand_valid_algebra, ref_circle_sum, simple_4lie,
                     to_algebra)
from nlie.algebra import ad_map, check_fundamental_identity, make_wedge
from nlie.catalog import (broken_ternary_bracket, heisenberg3,
                          levi_civita_bracket, sl2, zero_algebra)
from nlie.cochains import (Cochain, basis_cochains, circle, cochain_dim,
                           cochain_is_zero, cochain_scale, cochain_to_vec,
                           cochain_zero, circle_sum, coboundary_explicit,
                           differential, eval_keys_z, evaluate, from_bracket,
                           from_matrix, gla_bracket, is_filippov_derivation,
                           make_cochain, maurer_cartan_defect, shuffles,
                           space_keys, to_matrix, vec_to_cochain)
from nlie.errors import DimensionMismatch, InvalidStructure
from nlie.linalg import Matrix, basis_vec, vec_zero

F = Fraction


def test_cochain_dim_counts():
    assert cochain_dim(4, 3, 1) == 16
    assert cochain_dim(4, 3, 2) == 96
    assert cochain_dim(3, 3, 1) == 3
    with pytest.raises(DimensionMismatch):
        cochain_dim(4, 3, 0)
    assert len(basis_cochains(4, 3, 2)) == 96
    assert len(space_keys(4, 3, 0)) == 4


def test_make_cochain_validates_keys():
    with pytest.raises(DimensionMismatch):
        make_cochain(3, 4, 2, {(((2, 1),), (0, 1, 2)): basis_vec(4, 0)})
    with pytest.raises(DimensionMismatch):
        make_cochain(3, 4, 1, {((), (0, 1)): basis_vec(4, 0)})
    with pytest.raises(DimensionMismatch):
        make_cochain(3, 4, 1, {((), (0, 1, 2)): basis_vec(3, 0)})
    d = make_cochain(3, 4, 1, {((), (0, 1, 2)): vec_zero(4)})
    assert cochain_is_zero(d)


def test_evaluate_indicator_signs():
    d = make_cochain(3, 4, 1, {((), (0, 1, 2)): basis_vec(4, 3)})
    hit = evaluate(d, [basis_wedge(2, 4, (0, 1))], basis_vec(4, 2))
    assert hit == basis_vec(4, 3)
    degenerate = evaluate(d, [basis_wedge(2, 4, (0, 1))], basis_vec(4, 1))
    assert degenerate == vec_zero(4)
    # final pair sorts (0,2,1) -> (0,1,2) with one transposition
    swapped = evaluate(d, [basis_wedge(2, 4, (0, 2))], basis_vec(4, 1))
    assert swapped == tuple(-c for c in basis_vec(4, 3))


def test_evaluate_expands_wedge_blocks():
    """Multi-term blocks give the coefficient-weighted sum of the values on
    basis wedges and basis vectors."""
    rng = random.Random(1618)
    for n, m, degree in ((3, 4, 1), (3, 4, 2), (2, 3, 3), (3, 5, 2)):
        d = rand_cochain(rng, n, m, degree)
        keys = list(itertools.combinations(range(m), n - 1))
        for _ in range(6):
            blocks = []
            for _ in range(degree):
                coeffs = rand_sparse_vector(rng, len(keys), density=0.5)
                blocks.append(make_wedge(n - 1, m, dict(zip(keys, coeffs))))
            z = rand_sparse_vector(rng, m)
            want = vec_zero(m)
            for combo in itertools.product(*(b.coords.items()
                                             for b in blocks)):
                for j, cz in enumerate(z):
                    coeff = cz
                    for _, c in combo:
                        coeff *= c
                    basis = [basis_wedge(n - 1, m, key) for key, _ in combo]
                    val = evaluate(d, basis, basis_vec(m, j))
                    want = tuple(a + coeff * b for a, b in zip(want, val))
            assert evaluate(d, blocks, z) == want


def test_evaluate_shape_errors():
    d = make_cochain(3, 4, 1, {((), (0, 1, 2)): basis_vec(4, 3)})
    with pytest.raises(DimensionMismatch):
        evaluate(d, [], basis_vec(4, 0))
    with pytest.raises(DimensionMismatch):
        evaluate(d, [basis_wedge(1, 4, (0,))], basis_vec(4, 0))


def test_shuffle_enumeration():
    assert shuffles(1, 1) == (((0, 1), 1), ((1, 0), -1))
    assert shuffles(0, 3) == (((0, 1, 2), 1),)
    assert shuffles(3, 0) == (((0, 1, 2), 1),)
    sh21 = shuffles(2, 1)
    assert len(sh21) == 3
    assert sh21 == (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 2, 0), 1))
    for k, q in [(2, 2), (3, 1)]:
        for pos, sign in shuffles(k, q):
            assert list(pos[:k]) == sorted(pos[:k])
            assert list(pos[k:]) == sorted(pos[k:])
            assert sign in (1, -1)


def test_circle_with_zero_operand():
    rng = random.Random(11)
    d = rand_cochain(rng, 3, 4, 1)
    z1 = cochain_zero(3, 4, 1)
    assert cochain_is_zero(circle(d, z1))
    assert cochain_is_zero(circle(z1, d))


def test_circle_degree_zero_is_matrix_product():
    # p + q = 0: the composition term alone, D1 ∘ D2 = D1 D2
    rng = random.Random(13)
    for m in (1, 3, 4):
        for n in (2, 3):
            a, b = rand_matrix(rng, m, m), rand_matrix(rng, m, m)
            prod = circle(from_matrix(a, n), from_matrix(b, n))
            assert to_matrix(prod) == a.mul(b)


def test_structure_cochain_squares_to_zero_iff_fi():
    for alg in (levi_civita_bracket(), sl2(), heisenberg3(),
                zero_algebra(4, 3)):
        phi = from_bracket(alg)
        assert cochain_is_zero(circle(phi, phi))
        assert cochain_is_zero(maurer_cartan_defect(phi))
    bad = from_bracket(broken_ternary_bracket())
    assert not cochain_is_zero(maurer_cartan_defect(bad))


def test_mc_defect_tracks_fi_on_random_brackets():
    rng = random.Random(23)
    algebras = [rand_bracket(rng, 3, rng.choice([3, 4])) for _ in range(10)]
    algebras += [rand_valid_algebra(rng, levi_civita_bracket())
                 for _ in range(3)]
    for alg in algebras:
        fi = check_fundamental_identity(alg).holds
        mc = cochain_is_zero(maurer_cartan_defect(from_bracket(alg)))
        assert fi == mc


def test_gla_bracket_graded_antisymmetry():
    rng = random.Random(31)
    for p, q in [(1, 1), (1, 2), (2, 2), (0, 1), (0, 2)]:
        d1 = rand_cochain(rng, 3, 3, p)
        d2 = rand_cochain(rng, 3, 3, q)
        sign = -1 if (p * q) % 2 else 1
        lhs = gla_bracket(d1, d2)
        rhs = cochain_scale(-sign, gla_bracket(d2, d1))
        assert lhs.entries == rhs.entries


def test_gla_bracket_odd_self():
    rng = random.Random(37)
    d = rand_cochain(rng, 3, 3, 1)
    assert gla_bracket(d, d).entries == cochain_scale(-2, circle(d, d)).entries


def test_graded_jacobi_sample():
    rng = random.Random(41)
    for degrees in [(1, 1, 1), (0, 1, 2), (1, 2, 2), (0, 0, 1)]:
        p, q, r = degrees
        d1 = rand_cochain(rng, 3, 3, p, density=0.6)
        d2 = rand_cochain(rng, 3, 3, q, density=0.6)
        d3 = rand_cochain(rng, 3, 3, r, density=0.6)
        t1 = cochain_scale(-1 if (p * r) % 2 else 1,
                           gla_bracket(gla_bracket(d1, d2), d3))
        t2 = cochain_scale(-1 if (q * p) % 2 else 1,
                           gla_bracket(gla_bracket(d2, d3), d1))
        t3 = cochain_scale(-1 if (r * q) % 2 else 1,
                           gla_bracket(gla_bracket(d3, d1), d2))
        assert cochain_is_zero(cochain_add(cochain_add(t1, t2), t3))


def _skew2(entries: dict, m: int) -> "Cochain":
    return make_cochain(2, m, 1, {((), k): v for k, v in entries.items()})


def _ev2(d: Cochain, i: int, j: int):
    return eval_keys_z(d, ((i,),), j)


def test_circle_matches_nijenhuis_richardson_n2():
    # independent brute-force NR product for binary skew maps:
    # (mu . nu)(x,y,z) = mu(nu(x,y),z) - mu(nu(x,z),y) + mu(nu(y,z),x)
    rng = random.Random(43)
    m = 3
    for _ in range(5):
        mu = rand_cochain(rng, 2, m, 1, density=0.8)
        nu = rand_cochain(rng, 2, m, 1, density=0.8)
        comp = circle(mu, nu)

        def nr(x, y, z):
            out = vec_zero(m)
            for a, b, c, s in [(x, y, z, 1), (x, z, y, -1), (y, z, x, 1)]:
                w = _ev2(nu, a, b)
                for l, wl in enumerate(w):
                    if wl:
                        out = tuple(o + s * wl * v for o, v in
                                    zip(out, _ev2(mu, l, c)))
            return out

        for x in range(m):
            for y, z in itertools.combinations(range(m), 2):
                assert eval_keys_z(comp, ((x,), (y,)), z) == nr(x, y, z)


def test_from_bracket_roundtrip():
    alg = levi_civita_bracket()
    assert to_algebra(from_bracket(alg)).structure == alg.structure
    assert cochain_is_zero(from_bracket(zero_algebra(4, 3)))


def test_from_matrix_roundtrip():
    rng = random.Random(47)
    mat = rand_matrix(rng, 4, 4)
    assert to_matrix(from_matrix(mat, 3)).entries == mat.entries
    with pytest.raises(DimensionMismatch):
        from_matrix(rand_matrix(rng, 3, 4), 3)


def test_differential_of_wedge_is_ad():
    """d x = ad_x on every basis wedge and one random wedge, over
    Levi-Civita, sl(2) and a random basis change of each."""
    rng = random.Random(29)
    for base in (levi_civita_bracket(), sl2()):
        for alg in (base, rand_valid_algebra(rng, base)):
            n, m = alg.arity, alg.dim
            phi = from_bracket(alg)
            keys = list(itertools.combinations(range(m), n - 1))
            wedges = [basis_wedge(n - 1, m, key) for key in keys]
            wedges.append(make_wedge(n - 1, m, {
                key: rand_fraction(rng) for key in keys}))
            for x in wedges:
                assert to_matrix(differential(phi, x)).entries == \
                    ad_map(alg, x).entries


def test_differential_rejects_broken_structure():
    phi = from_bracket(broken_ternary_bracket())
    psi = cochain_zero(3, 4, 1)
    with pytest.raises(InvalidStructure):
        differential(phi, psi)


def test_maurer_cartan_witness_value_is_fractions():
    # the defect sums in ints, but the witness vector stays Fractions, so
    # a report renders it as rational strings, not JSON numbers
    phi = from_bracket(broken_ternary_bracket())
    with pytest.raises(InvalidStructure) as info:
        differential(phi, cochain_zero(3, 4, 1))
    value = info.value.witness["value"]
    assert any(value) and {type(x) for x in value} == {F}


def test_differential_squares_to_zero():
    alg = levi_civita_bracket()
    phi = from_bracket(alg)
    rng = random.Random(53)
    # degree -1 arguments
    for key in itertools.combinations(range(4), 2):
        dd = gla_bracket(phi, differential(phi, basis_wedge(2, 4, key)))
        assert cochain_is_zero(dd)
    # degree 0: all matrix units; degrees 1 and 2: a seeded sample
    units = [from_matrix(Matrix.from_rows(
        [[1 if (r, c) == (i, j) else 0 for c in range(4)]
         for r in range(4)]), 3) for i in range(4) for j in range(4)]
    sample = units
    deg1 = basis_cochains(4, 3, 1)
    deg2 = basis_cochains(4, 3, 2)
    sample += rng.sample(deg1, 6) + rng.sample(deg2, 4)
    for psi in sample:
        assert cochain_is_zero(gla_bracket(phi, gla_bracket(phi, psi)))


def test_differential_squares_to_zero_n2():
    alg = sl2()
    phi = from_bracket(alg)
    for key in itertools.combinations(range(3), 1):
        dd = gla_bracket(phi, differential(phi, basis_wedge(1, 3, key)))
        assert cochain_is_zero(dd)
    for psi in basis_cochains(3, 2, 1) + basis_cochains(3, 2, 2):
        assert cochain_is_zero(gla_bracket(phi, gla_bracket(phi, psi)))


def test_coboundary_explicit_matches_differential():
    for alg in (levi_civita_bracket(), sl2(), heisenberg3(), simple_4lie()):
        phi = from_bracket(alg)
        m, n = alg.dim, alg.arity
        units = [from_matrix(Matrix.from_rows(
            [[1 if (r, c) == (i, j) else 0 for c in range(m)]
             for r in range(m)]), n) for i in range(m) for j in range(m)]
        for psi in units + basis_cochains(m, n, 1):
            lhs = coboundary_explicit(alg, psi)
            rhs = gla_bracket(phi, psi)
            assert lhs.entries == rhs.entries


def test_coboundary_explicit_matches_differential_degree2():
    alg = levi_civita_bracket()
    phi = from_bracket(alg)
    rng = random.Random(59)
    for psi in rng.sample(basis_cochains(4, 3, 2), 8):
        assert coboundary_explicit(alg, psi).entries == \
            gla_bracket(phi, psi).entries


def test_coboundary_explicit_matches_differential_dense():
    # dense random cochains, not only basis cochains
    rng = random.Random(71)
    algebras = (levi_civita_bracket(), sl2(),
                rand_valid_algebra(rng, levi_civita_bracket()))
    for alg in algebras:
        phi = from_bracket(alg)
        for degree in (0, 1, 2):
            psi = rand_cochain(rng, alg.arity, alg.dim, degree, density=0.9)
            assert psi.entries
            assert coboundary_explicit(alg, psi).entries == \
                gla_bracket(phi, psi).entries


def test_coboundary_explicit_trivial_cases():
    alg = levi_civita_bracket()
    assert cochain_is_zero(coboundary_explicit(alg, cochain_zero(3, 4, 1)))
    zero = zero_algebra(4, 3)
    rng = random.Random(61)
    psi = rand_cochain(rng, 3, 4, 2)
    assert cochain_is_zero(coboundary_explicit(zero, psi))


def test_circle_closes_on_final_wedge():
    # the stored value at each key must reproduce every alternative split
    # of the final wedge into (block, z) with the sign of the move
    rng = random.Random(67)
    n, m = 3, 4
    for p, q in [(1, 1), (1, 2)]:
        d1 = rand_cochain(rng, n, m, p, density=0.7)
        d2 = rand_cochain(rng, n, m, q, density=0.7)
        comp = circle(d1, d2)
        for blocks, last in space_keys(m, n, p + q):
            stored = comp.entries.get((blocks, last), vec_zero(m))
            for t in range(n):
                alt_block = last[:t] + last[t + 1:]
                sign = -1 if (n - 1 - t) % 2 else 1
                raw = _ref_circle_raw(d1, d2, blocks + (alt_block,), last[t])
                assert raw == tuple(sign * c for c in stored)


def test_is_filippov_derivation():
    alg = levi_civita_bracket()
    ident = Matrix.identity(4)
    assert not is_filippov_derivation(alg, ident)
    assert is_filippov_derivation(alg, Matrix.zero(4, 4))
    for key in itertools.combinations(range(4), 2):
        assert is_filippov_derivation(alg, ad_map(alg, basis_wedge(2, 4, key)))
    zero = zero_algebra(3, 3)
    rng = random.Random(71)
    assert is_filippov_derivation(zero, rand_matrix(rng, 3, 3))


def test_derivation_predicate_equals_differential_kernel():
    rng = random.Random(73)
    alg = rand_valid_algebra(rng, heisenberg3())
    phi = from_bracket(alg)
    candidates = [rand_matrix(rng, 3, 3) for _ in range(6)]
    candidates.append(ad_map(alg, basis_wedge(1, 3, (0,))))
    for mat in candidates:
        direct = is_filippov_derivation(alg, mat)
        via_delta = cochain_is_zero(gla_bracket(phi, from_matrix(mat, 2)))
        assert direct == via_delta


# ------------------------------------------------------------------
# Integral entries are stored as ints, the others as Fractions.

def _int_cochain(rng, n, m, degree):
    return make_cochain(n, m, degree, {
        key: [rng.randint(-2, 2) for _ in range(m)]
        for key in space_keys(m, n, degree) if rng.random() < 0.5})


def _types(*cochains):
    return {type(x) for d in cochains for v in d.entries.values() for x in v}


def test_integral_inputs_compute_in_ints():
    rng = random.Random(41)
    nonzero = set()
    for base in (sl2(), heisenberg3(), levi_civita_bracket()):
        # a unimodular basis change keeps the structure constants integral
        alg = rand_valid_algebra(rng, base)
        n, m = alg.arity, alg.dim
        phi = from_bracket(alg)
        d0 = from_matrix(Matrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]), n)
        d1, e1 = (_int_cochain(rng, n, m, 1) for _ in range(2))
        e1 = vec_to_cochain(tuple(map(F, cochain_to_vec(e1))), n, m, 1)
        results = [phi, d0, d1, e1, cochain_add(d1, e1), cochain_sub(d1, e1),
                   cochain_scale(3, d1), cochain_scale(F(-4, 2), d1),
                   circle(d1, e1), circle(d0, d1), circle(d1, d0),
                   gla_bracket(d1, e1), gla_bracket(d0, d1),
                   maurer_cartan_defect(d1), differential(phi, d1),
                   differential(phi, d0)]
        nonzero |= {i for i, d in enumerate(results)
                    if not cochain_is_zero(d)}
        assert _types(*results) == {int}
    assert nonzero == set(range(16))
    # the entry points normalise an integral Fraction to its numerator
    made = make_cochain(2, 3, 1, {((), (0, 1)): (F(6, 3), F(1, 2), True)})
    assert made.entries == {((), (0, 1)): (2, F(1, 2), 1)}
    assert [type(x) for x in made.entries[((), (0, 1))]] == [int, F, int]
    assert _types(*basis_cochains(3, 2, 1)) == {int}


def test_rational_operands_match_the_fraction_reference():
    # rational conjugates carry denominators, and rand_cochain's entries
    # k/1 and k/2 enter as ints and Fractions; the reference sums every
    # product in Fractions
    rng = random.Random(43)
    kinds = set()
    for base in (sl2(), heisenberg3(), levi_civita_bracket()):
        alg = rand_rational_algebra(rng, base)
        n, m = alg.arity, alg.dim
        phi = from_bracket(alg)
        d0 = from_matrix(rand_matrix(rng, m, m), n)
        d1 = vec_to_cochain(cochain_to_vec(rand_cochain(rng, n, m, 1)),
                            n, m, 1)
        kinds |= _types(phi, d0, d1)
        for got, terms in [
                (circle(phi, d1), [(1, phi, d1)]),
                (circle(d1, d0), [(1, d1, d0)]),
                (gla_bracket(phi, d1), [(-1, phi, d1), (-1, d1, phi)]),
                (gla_bracket(d0, d1), [(1, d0, d1), (-1, d1, d0)]),
                (maurer_cartan_defect(d1), [(-2, d1, d1)]),
                (maurer_cartan_defect(phi), [(-2, phi, phi)])]:
            assert got.entries == ref_circle_sum(terms).entries
            # an integral result entry is an int, not a Fraction
            assert all(type(x) is int for x in cochain_to_vec(got)
                       if x.denominator == 1 and x)
        # products at different scales L1·L2, summed into one table
        terms = [(1, phi, d1), (3, d1, d1), (-2, d1, phi), (1, phi, phi)]
        assert circle_sum(n, m, 2, terms).entries == \
            ref_circle_sum(terms).entries
    assert kinds == {int, F}
