import itertools
import random
from fractions import Fraction

import pytest

from helpers import (basis_wedge, rand_bracket, rand_matrix,
                     rand_sparse_vector, rand_valid_algebra, rand_vector,
                     vf_coordinate, wedge_add)
from nlie.algebra import (adjoint_representation, ad_map, bracket_eval,
                          bracket_on_basis, check_fundamental_identity,
                          check_o_operator, check_representation,
                          fundamental_bracket, make_algebra,
                          make_representation, make_wedge, semidirect_product,
                          sort_with_sign)
from nlie.algebroid import make_poly_algebroid, make_poly_multiderivation
from nlie.catalog import (broken_ternary_bracket, heisenberg3,
                          levi_civita_bracket, sl2, zero_algebra)
from nlie.chevalley import make_ce_cochain
from nlie.cochains import make_cochain
from nlie.errors import DimensionMismatch, InvalidStructure
from nlie.linalg import Matrix, basis_vec, vec_zero
from nlie.poly import poly_const


F = Fraction


def test_sort_with_sign():
    assert sort_with_sign((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_with_sign((2, 1, 0)) == (-1, (0, 1, 2))
    assert sort_with_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_with_sign((0, 1, 0)) is None


def test_bracket_sign_on_basis():
    alg = levi_civita_bracket()
    # [e2, e1, e3] = -[e1, e2, e3] = -e4
    assert bracket_on_basis(alg, (1, 0, 2)) == (F(0), F(0), F(0), F(-1))
    assert bracket_on_basis(alg, (0, 0, 1)) == vec_zero(4)


def test_bracket_eval_multilinear():
    alg = levi_civita_bracket()
    rng = random.Random(5)
    u, v, w = (rand_vector(rng, 4) for _ in range(3))
    lhs = bracket_eval(alg, [tuple(2 * c for c in u), v, w])
    rhs = tuple(2 * c for c in bracket_eval(alg, [u, v, w]))
    assert lhs == rhs
    assert bracket_eval(alg, [u, u, w]) == vec_zero(4)


def test_bracket_eval_matches_dense_expansion():
    """The sparse evaluator against the sum over every index tuple."""
    rng = random.Random(2718)
    for alg in (levi_civita_bracket(), sl2(), rand_bracket(rng, 3, 5),
                rand_bracket(rng, 4, 5, density=0.5)):
        n, m = alg.arity, alg.dim
        for _ in range(15):
            args = [rand_sparse_vector(rng, m) for _ in range(n)]
            if rng.random() < 0.3:
                args[-1] = args[0]
            want = vec_zero(m)
            for idx in itertools.product(range(m), repeat=n):
                coeff = F(1)
                for v, i in zip(args, idx):
                    coeff *= v[i]
                want = tuple(a + coeff * b for a, b in
                             zip(want, bracket_on_basis(alg, idx)))
            assert bracket_eval(alg, args) == want
        assert bracket_eval(alg, [vec_zero(m)] * n) == vec_zero(m)


def test_fundamental_identity_catalog():
    assert check_fundamental_identity(levi_civita_bracket()).holds
    assert check_fundamental_identity(sl2()).holds
    assert check_fundamental_identity(heisenberg3()).holds
    assert check_fundamental_identity(zero_algebra(5, 3)).holds


def test_fundamental_identity_falsified_with_witness():
    alg = broken_ternary_bracket()
    res = check_fundamental_identity(alg)
    assert not res.holds
    # lexicographically first failure: e1∧e2 acting on [e2,e3,e4]
    assert res.witness["acting"] == (0, 1)
    assert res.witness["inner"] == (1, 2, 3)
    assert res.witness["lhs"] == vec_zero(4)
    assert res.witness["rhs"] == tuple(F(c) for c in (0, 0, 0, -1))
    # and the hand-checked pair e2∧e3 on [e1,e2,e4] fails too:
    # LHS [e2,e3,[e1,e2,e4]] = [e2,e3,e4] = 0, RHS = e4.
    lhs = bracket_on_basis(alg, (1, 2, 3))
    rhs = vec_zero(4)
    for i, b in enumerate((0, 1, 3)):
        acted = bracket_on_basis(alg, (1, 2, b))
        for k, c in enumerate(acted):
            if c:
                rep = (0, 1, 3)[:i] + (k,) + (0, 1, 3)[i + 1:]
                rhs = tuple(x + c * y for x, y in
                            zip(rhs, bracket_on_basis(alg, rep)))
    assert lhs == vec_zero(4) and rhs == basis_vec(4, 3)


def test_fundamental_identity_transported():
    rng = random.Random(23)
    for _ in range(5):
        alg = rand_valid_algebra(rng, levi_civita_bracket())
        assert check_fundamental_identity(alg).holds


def test_make_algebra_validation():
    with pytest.raises(DimensionMismatch):
        make_algebra(3, 4, {(0, 1): (1, 0, 0, 0)})
    with pytest.raises(DimensionMismatch):
        make_algebra(3, 4, {(2, 1, 0): (1, 0, 0, 0)})
    with pytest.raises(DimensionMismatch):
        make_algebra(1, 4, {})


# Each table constructor by the kind of key it reads: (key length, the
# constructor called with one key).  Every index bound is 4.
_E = (1, 0, 0, 0)
_P = [poly_const(1, 1)] * 4
_KEYED = {
    "make_algebra": (3, lambda k: make_algebra(3, 4, {k: _E})),
    "make_representation": (
        2, lambda k: make_representation(4, 2, 3, {(k, 0): (1, 0)})),
    "make_wedge": (2, lambda k: make_wedge(2, 4, {k: 1})),
    "make_cochain block": (
        2, lambda k: make_cochain(3, 4, 2, {((k,), (0, 1, 2)): _E})),
    "make_cochain wedge": (3, lambda k: make_cochain(3, 4, 1, {((), k): _E})),
    "make_cochain degree 0": (
        1, lambda k: make_cochain(3, 4, 0, {((), k): _E})),
    "make_ce_cochain": (2, lambda k: make_ce_cochain(4, 2, {k: _E})),
    "make_poly_algebroid bracket": (
        3, lambda k: make_poly_algebroid(1, 4, 3, {k: _P}, {})),
    "make_poly_algebroid anchor": (
        2, lambda k: make_poly_algebroid(1, 4, 3, {},
                                         {k: vf_coordinate(1, 0)})),
    "make_poly_multiderivation table": (
        3, lambda k: make_poly_multiderivation(1, 4, 3, 1, {k: _P}, {})),
    "make_poly_multiderivation symbol": (
        2, lambda k: make_poly_multiderivation(1, 4, 3, 1, {},
                                               {k: vf_coordinate(1, 0)})),
}


def _bad_keys(length):
    """Keys of ``length`` indices below 4 that break the key rule once
    each; the float and the bool keep the order and the range."""
    good = tuple(range(length))
    keys = {"negative": (-1,) + good[1:], "out of range": good[:-1] + (4,),
            "wrong length": good[:-1], "float": good[:-1] + (length - 0.5,),
            "bool": (True,) + good[1:] if length == 1 else
            (0, True) + good[2:]}
    if length > 1:
        keys.update(unsorted=good[::-1], repeated=good[:-1] + good[-2:-1])
    return keys


@pytest.mark.parametrize("build, good, bad", [
    pytest.param(build, tuple(range(length)), bad, id=f"{name}: {kind}")
    for name, (length, build) in _KEYED.items()
    for kind, bad in _bad_keys(length).items()
    # a wedge sorts its keys with their sign, and a repeat makes it zero
    if not (name == "make_wedge" and kind in ("unsorted", "repeated"))] + [
    pytest.param(lambda j: make_representation(
        4, 2, 3, {((0, 1), j): (1, 0)}), 1, 1.5, id="module index: float")])
def test_constructors_share_one_key_rule(build, good, bad):
    """Every table constructor rejects a key that is not strictly
    increasing ints in range, bools and floats included, and takes the
    good key of the same shape."""
    build(good)
    with pytest.raises(DimensionMismatch):
        build(bad)


def test_fundamental_bracket_example():
    alg = levi_civita_bracket()
    x = basis_wedge(2, 4, (0, 1))
    y = basis_wedge(2, 4, (0, 2))
    out = fundamental_bracket(alg, x, y)
    # [e1∧e2, e1∧e3] = e1 ∧ [e1,e2,e3] = e1∧e4
    assert out.coords == {(0, 3): F(1)}


def test_fundamental_bracket_leibniz_property():
    # [X,[Y,Z]] = [[X,Y],Z] + [Y,[X,Z]] on wedge basis once the fundamental
    # identity holds.
    alg = levi_civita_bracket()
    import itertools
    keys = list(itertools.combinations(range(4), 2))
    for xk, yk, zk in itertools.product(keys, repeat=3):
        x, y, z = (basis_wedge(2, 4, k) for k in (xk, yk, zk))
        lhs = fundamental_bracket(alg, x, fundamental_bracket(alg, y, z))
        rhs = wedge_add(
            fundamental_bracket(alg, fundamental_bracket(alg, x, y), z),
            fundamental_bracket(alg, y, fundamental_bracket(alg, x, z)))
        assert lhs.coords == rhs.coords


def test_make_wedge_antisymmetrizes():
    w = make_wedge(2, 4, {(1, 0): 1})
    assert w.coords == {(0, 1): F(-1)}
    assert make_wedge(2, 4, {(1, 1): 5}).coords == {}


@pytest.mark.parametrize("key", [(9, 9), (1.5, 1.5, 1.5), (True, True),
                                 (8, 9)])
def test_make_wedge_checks_a_key_before_a_repeat_drops_it(key):
    """Length, int type and range are checked before a repeated index
    makes the key zero, so a bad repeated key raises like (8, 9)."""
    with pytest.raises(DimensionMismatch, match="bad wedge key"):
        make_wedge(2, 4, {key: 1})


def test_adjoint_representation_valid():
    for alg in (levi_civita_bracket(), sl2(), heisenberg3()):
        rho = adjoint_representation(alg)
        assert check_representation(alg, rho).holds


def test_scaled_adjoint_fails():
    alg = levi_civita_bracket()
    rho = adjoint_representation(alg)
    doubled = make_representation(
        4, 4, 3, {k: tuple(2 * c for c in v) for k, v in rho.action.items()})
    res = check_representation(alg, doubled)
    assert not res.holds


def test_zero_representation_valid():
    alg = levi_civita_bracket()
    rho = make_representation(4, 2, 3, {})
    assert check_representation(alg, rho).holds
    prod = semidirect_product(alg, rho)
    assert check_fundamental_identity(prod).holds
    # direct sum: module slots bracket to zero
    assert bracket_on_basis(prod, (0, 1, 4)) == vec_zero(6)


def test_semidirect_adjoint():
    alg = levi_civita_bracket()
    rho = adjoint_representation(alg)
    prod = semidirect_product(alg, rho)
    assert prod.dim == 8 and prod.arity == 3
    assert check_fundamental_identity(prod).holds
    # algebra part embeds
    assert bracket_on_basis(prod, (0, 1, 2)) == tuple(
        F(c) for c in (0, 0, 0, 1, 0, 0, 0, 0))
    # one module slot acts through rho: [e1, e2, f3] = ad(e1,e2) e3 = e4 -> f4
    assert bracket_on_basis(prod, (0, 1, 6)) == tuple(
        F(c) for c in (0, 0, 0, 0, 0, 0, 0, 1))
    # two module slots collapse
    assert bracket_on_basis(prod, (0, 5, 6)) == vec_zero(8)


def test_semidirect_rejects_bad_representation():
    alg = levi_civita_bracket()
    rho = adjoint_representation(alg)
    doubled = make_representation(
        4, 4, 3, {k: tuple(2 * c for c in v) for k, v in rho.action.items()})
    with pytest.raises(InvalidStructure) as info:
        semidirect_product(alg, doubled)
    # the FI witness of g ⋉ V at a pair with one module index (>= 4)
    w = info.value.witness
    assert set(w) == {"acting", "inner", "lhs", "rhs", "defect"}
    assert sum(i >= 4 for i in w["acting"] + w["inner"]) == 1
    assert len(w["defect"]) == 8 and any(w["defect"])


def test_o_operator_zero_and_identity():
    alg = levi_civita_bracket()
    rho = adjoint_representation(alg)
    assert check_o_operator(alg, rho, Matrix.zero(4, 4)).holds
    # T = Id sums three copies of the bracket on the right side, so it fails.
    res = check_o_operator(alg, rho, Matrix.identity(4))
    assert not res.holds
    assert res.witness is not None


def test_o_operator_everything_passes_on_zero_algebra():
    alg = zero_algebra(3, 3)
    rho = make_representation(3, 2, 3, {})
    rng = random.Random(29)
    for _ in range(5):
        assert check_o_operator(alg, rho, rand_matrix(rng, 3, 2)).holds


def test_ad_map_example():
    alg = levi_civita_bracket()
    ad = ad_map(alg, basis_wedge(2, 4, (0, 1)))
    # e3 -> e4, e4 -> -e3, e1 and e2 -> 0
    assert ad.apply(basis_vec(4, 2)) == basis_vec(4, 3)
    assert ad.apply(basis_vec(4, 3)) == tuple(F(c) for c in (0, 0, -1, 0))
    assert ad.apply(basis_vec(4, 0)) == vec_zero(4)


def test_random_brackets_mostly_fail_fi():
    rng = random.Random(31)
    verdicts = [check_fundamental_identity(rand_bracket(rng, 3, 4)).holds
                for _ in range(10)]
    assert not all(verdicts)
