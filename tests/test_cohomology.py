import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import (basis_wedge, ce_betti, circle_differential_matrix,
                     gauss_rank, rand_valid_algebra, simple_4lie)
from nlie.algebra import (ad_map, bracket_on_basis, check_fundamental_identity,
                          make_algebra)
from nlie.catalog import (conjugated_algebra, heisenberg3,
                          levi_civita_bracket, sl2, zero_algebra)
from nlie.cochains import (basis_cochains, coboundary_rows, from_bracket,
                           from_matrix, gla_bracket)
from nlie.cohomology import (cochain_to_vec, cohomology,
                             complex_dim, differential_matrix,
                             outer_derivations, vec_to_cochain)
from nlie.errors import DimensionMismatch, InvalidStructure
from nlie.linalg import Matrix, rank_nullspace, vec_is_zero
from nlie.trace import row_counters

F = Fraction


def test_rank_nullspace_basics():
    assert rank_nullspace(Matrix.identity(3)).rank == 3
    assert rank_nullspace(Matrix.identity(3)).nullspace == ()
    z = rank_nullspace(Matrix.zero(2, 5))
    assert z.rank == 0
    assert len(z.nullspace) == 5
    r = rank_nullspace(Matrix.from_rows([[1, 2], [2, 4]]))
    assert r.rank == 1
    assert r.nullspace == ((F(-2), F(1)),)


def test_vectorization_roundtrip():
    rng = random.Random(3)
    from helpers import rand_cochain
    d = rand_cochain(rng, 3, 4, 2)
    v = cochain_to_vec(d)
    assert len(v) == 96
    back = vec_to_cochain(v, 3, 4, 2)
    assert back.entries == d.entries


def test_complex_dims():
    alg = levi_civita_bracket()
    assert complex_dim(alg, 0) == 6
    assert complex_dim(alg, 1) == 16
    assert complex_dim(alg, 2) == 16
    assert complex_dim(alg, 3) == 96


def test_differential_matrix_zero_bracket():
    alg = zero_algebra(4, 3)
    for k in range(3):
        assert differential_matrix(alg, k).is_zero


def test_differential_matrix_columns_match_pointwise():
    alg = levi_civita_bracket()
    phi = from_bracket(alg)
    mat1 = differential_matrix(alg, 1)
    units = [((j, i), from_matrix(Matrix.from_rows(
        [[1 if (r, c) == (i, j) else 0 for c in range(4)]
         for r in range(4)]), 3)) for j in range(4) for i in range(4)]
    for col_idx in (0, 5, 13):
        (_, psi) = units[col_idx]
        assert mat1.column(col_idx) == cochain_to_vec(gla_bracket(phi, psi))
    mat2 = differential_matrix(alg, 2)
    basis = basis_cochains(4, 3, 1)
    for col_idx in (0, 7, 15):
        assert mat2.column(col_idx) == \
            cochain_to_vec(gla_bracket(phi, basis[col_idx]))


def test_differential_matrix_matches_circle_oracle():
    # the transposed four-sum assembly against one gla_bracket per column
    for alg in (levi_civita_bracket(), sl2(), heisenberg3()):
        for k in (1, 2, 3):
            assert differential_matrix(alg, k).entries == \
                circle_differential_matrix(alg, k).entries
    rng = random.Random(73)
    conjugates = [rand_valid_algebra(rng, levi_civita_bracket())
                  for _ in range(2)]
    for alg in conjugates:
        for k in (1, 2):
            assert differential_matrix(alg, k).entries == \
                circle_differential_matrix(alg, k).entries
    assert differential_matrix(conjugates[0], 3).entries == \
        circle_differential_matrix(conjugates[0], 3).entries
    # arity 4: three slots per block in every insertion
    four = simple_4lie()
    for k in (1, 2):
        assert differential_matrix(four, k).entries == \
            circle_differential_matrix(four, k).entries


def test_simple_4lie_low_cohomology_vanishes():
    four = simple_4lie()
    assert check_fundamental_identity(four).holds
    assert [cohomology(four, k).betti for k in range(3)] == [0, 0, 0]


def test_differential_matrix_k0_is_ad():
    alg = levi_civita_bracket()
    mat = differential_matrix(alg, 0)
    keys = list(itertools.combinations(range(4), 2))
    for j, key in enumerate(keys):
        ad = ad_map(alg, basis_wedge(2, 4, key))
        flat = tuple(ad.entries[i][c] for c in range(4) for i in range(4))
        assert mat.column(j) == flat


def test_matrix_complex_composes_to_zero():
    alg = levi_civita_bracket()
    mats = {k: differential_matrix(alg, k) for k in range(4)}
    for k in range(3):
        assert mats[k + 1].mul(mats[k]).is_zero


def test_differential_matrix_nnz_counts_nonzero_cells():
    """``coboundary_rows`` emits each row sorted by column with cancelled
    zeros dropped, so the nnz counter of the stored rows counts nonzero
    cells."""
    alg = levi_civita_bracket()
    for p in (-1, 0, 1, 2):
        for row in coboundary_rows(alg, p):
            assert list(row) == sorted(row) and all(row.values())
    for k in (1, 2):
        mat = differential_matrix(alg, k)
        assert row_counters(mat.data, mat.cols)["nnz"] == \
            sum(1 for row in mat.entries for x in row if x)


def test_differential_matrix_is_held_sparse():
    """Levi-Civita d_4 (3456 x 576) must take well under the pointer array
    of its dense form, counted as rows * cols * 8 bytes."""
    alg = levi_civita_bracket()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mat = differential_matrix(alg, 4)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (mat.rows, mat.cols) == (3456, 576)
    assert held < mat.rows * mat.cols * 8 / 4


def test_differential_matrix_requires_fi():
    from nlie.catalog import broken_ternary_bracket
    with pytest.raises(InvalidStructure):
        differential_matrix(broken_ternary_bracket(), 1)


def test_cohomology_zero_bracket_full_space():
    alg = zero_algebra(4, 3)
    rep = cohomology(alg, 2)
    assert rep.dim_cochains == 16
    assert rep.betti == 16
    assert rep.rank_d_out == 0 and rep.rank_d_in == 0
    assert len(rep.representatives) == 16


def test_cohomology_sl2_matches_independent_oracle():
    alg = sl2()
    for k in (0, 1, 2):
        assert cohomology(alg, k).betti == ce_betti(alg, k)
    assert cohomology(alg, 1).betti == 0
    assert cohomology(alg, 2).betti == 0


def test_cohomology_degree_cap():
    with pytest.raises(DimensionMismatch):
        cohomology(sl2(), 4)
    # explicit cap raise: zero bracket keeps every degree fully computable
    rep = cohomology(zero_algebra(2, 2), 4, max_degree_cap=4)
    assert rep.betti == rep.dim_cochains == 8


def test_representatives_are_cocycles_and_independent():
    alg = levi_civita_bracket()
    rep = cohomology(alg, 1)
    d_out = differential_matrix(alg, 1)
    d_in = differential_matrix(alg, 0)
    piv_in = rank_nullspace(d_in)
    cols = [d_in.column(j) for j in piv_in.pivots]
    for r in rep.representatives:
        v = cochain_to_vec(r)
        assert vec_is_zero(d_out.apply(v))
        cols.append(v)
    combined = Matrix(d_out.cols, len(cols),
                      tuple(tuple(col[i] for col in cols)
                            for i in range(d_out.cols)))
    assert gauss_rank(combined) == piv_in.rank + rep.betti


def test_betti_invariant_under_relabeling():
    alg = levi_civita_bracket()
    perm = Matrix.from_rows([[0, 1, 0, 0],
                             [0, 0, 1, 0],
                             [0, 0, 0, 1],
                             [1, 0, 0, 0]])
    relabeled = conjugated_algebra(alg, perm)
    for k in (0, 1, 2):
        assert cohomology(alg, k).betti == cohomology(relabeled, k).betti


def test_eps_h1_two_routes():
    # route 1: the package pipeline; route 2: assemble the derivation
    # equation and the ad image directly and count with the Gauss oracle
    alg = levi_civita_bracket()
    betti = cohomology(alg, 1).betti
    m = 4
    cols = []
    for j in range(m):
        for i in range(m):
            unit = Matrix.from_rows([[1 if (r, c) == (i, j) else 0
                                      for c in range(m)] for r in range(m)])
            defect = []
            ucols = [unit.column(c) for c in range(m)]
            for key in itertools.combinations(range(m), 3):
                lhs = unit.apply(bracket_on_basis(alg, key))
                rhs = [F(0)] * m
                for t in range(3):
                    for l, c in enumerate(ucols[key[t]]):
                        if c:
                            term = bracket_on_basis(
                                alg, key[:t] + (l,) + key[t + 1:])
                            rhs = [a + c * b for a, b in zip(rhs, term)]
                defect.extend(a - b for a, b in zip(lhs, rhs))
            cols.append(tuple(defect))
    constraint = Matrix(len(cols[0]), len(cols),
                        tuple(tuple(col[r] for col in cols)
                              for r in range(len(cols[0]))))
    dim_der = m * m - gauss_rank(constraint)
    ad_cols = []
    for key in itertools.combinations(range(m), 2):
        ad = ad_map(alg, basis_wedge(2, m, key))
        ad_cols.append(tuple(ad.entries[i][c]
                             for c in range(m) for i in range(m)))
    rank_ad = gauss_rank(Matrix(m * m, len(ad_cols),
                                tuple(tuple(col[r] for col in ad_cols)
                                      for r in range(m * m))))
    assert betti == dim_der - rank_ad


def test_outer_derivations_zero_bracket():
    alg = zero_algebra(2, 2)
    outs = outer_derivations(alg)
    assert len(outs) == 4
    flat = [tuple(x for row in mat.entries for x in row) for mat in outs]
    assert gauss_rank(Matrix(4, 4, tuple(tuple(col[r] for col in flat)
                                         for r in range(4)))) == 4


def test_outer_derivations_sl2_empty():
    assert outer_derivations(sl2()) == []


def test_outer_derivations_abelian_factor():
    # zero line + sl2: the abelian factor contributes its scaling map
    table = {(i + 1, j + 1): (F(0),) + v
             for (i, j), v in sl2().structure.items()}
    alg = make_algebra(2, 4, table)
    outs = outer_derivations(alg)
    assert len(outs) == 1
    mat = outs[0]
    from nlie.cochains import is_filippov_derivation
    assert is_filippov_derivation(alg, mat)
    assert mat.entries[0][0] != 0
