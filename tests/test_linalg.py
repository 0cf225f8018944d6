"""Exact elimination against the naive Gauss-Jordan oracle.

``rank_nullspace`` must return the reduced-row-echelon pivots and the
canonical nullspace (one vector per free column, free coordinate 1), and
``solve_linear`` the solution whose free coordinates are 0, on sparse and
dense rational matrices of every shape and on the differential matrices of
the catalog algebras.
"""

import random
from fractions import Fraction

import pytest

from helpers import (gauss_jordan, rand_invertible, rand_matrix,
                     rand_sparse_vector, rand_vector)
from nlie import linalg
from nlie.catalog import heisenberg3, levi_civita_bracket, sl2
from nlie.cohomology import differential_matrix
from nlie.errors import DimensionMismatch
from nlie.linalg import (Matrix, column_supports, rank_nullspace,
                         solve_linear, support)

F = Fraction


def _agrees_with_oracle(m: Matrix) -> None:
    got = rank_nullspace(m)
    assert (got.rank, got.pivots, got.nullspace) == gauss_jordan(m)


def _canonical_solution(m: Matrix, b):
    """The oracle's solution with free coordinates 0, or None: the
    nullspace vector of [m | b] for the right-side column, negated."""
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (b[i],) for i, row in enumerate(m.entries)))
    _, pivots, basis = gauss_jordan(aug)
    if m.cols in pivots:
        return None
    v = next(v for v in basis if v[m.cols] == 1)
    return tuple(-x for x in v[:m.cols])


def _sparse_matrix(rng, rows, cols, density):
    return Matrix.from_rows([rand_sparse_vector(rng, cols, density)
                             for _ in range(rows)])


EDGE_CASES = {
    "zero 1x1": Matrix.zero(1, 1),
    "zero 3x5": Matrix.zero(3, 5),
    "zero 5x2": Matrix.zero(5, 2),
    "row 1x4": Matrix.from_rows([[0, F(2, 3), 0, -1]]),
    "zero row 1x3": Matrix.from_rows([[0, 0, 0]]),
    "column 4x1": Matrix.from_rows([[0], [F(-1, 2)], [3], [0]]),
    "zero column 3x1": Matrix.from_rows([[0], [0], [0]]),
    "identity": Matrix.identity(4),
    "repeated rows": Matrix.from_rows([[1, 2, 0, 3], [1, 2, 0, 3],
                                       [0, 0, 1, 1], [1, 2, 0, 3]]),
    "zero rows between": Matrix.from_rows([[0, 0, 0], [0, 2, 1],
                                           [0, 0, 0], [4, 0, F(1, 3)]]),
    "rank one": Matrix.from_rows([[1, 2], [2, 4], [F(-1, 2), -1]]),
    "leading zero columns": Matrix.from_rows([[0, 0, 1, 5], [0, 0, 2, 10]]),
    "wide full row rank": Matrix.from_rows([[1, 0, 2, 0, 1],
                                            [0, 1, 1, 0, 0],
                                            [3, 0, 0, 1, 0]]),
    "tall full column rank": Matrix.from_rows([[1, 1], [0, 1], [1, 0],
                                               [2, 3]]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_rank_nullspace_edge_cases(name):
    _agrees_with_oracle(EDGE_CASES[name])


def test_rank_nullspace_random_sparse_and_dense():
    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.1, 0.25, 0.5, 1.0))
        m = _sparse_matrix(rng, rows, cols, density)
        if rows > 2 and rng.random() < 0.3:
            entries = list(m.entries)
            entries[rng.randrange(rows)] = entries[0]
            m = Matrix(rows, cols, tuple(entries))
        _agrees_with_oracle(m)
    for n in range(1, 7):
        _agrees_with_oracle(rand_matrix(rng, n, n + 2))
        _agrees_with_oracle(rand_matrix(rng, n + 2, n))
        full = rand_invertible(rng, n)
        assert rank_nullspace(full).rank == n
        _agrees_with_oracle(full)


def test_rank_nullspace_rank_deficient_products():
    # a product through a narrow middle has rank at most the middle width
    rng = random.Random(9)
    for inner in (1, 2, 3):
        m = rand_matrix(rng, 6, inner).mul(rand_matrix(rng, inner, 7))
        got = rank_nullspace(m)
        assert got.rank <= inner
        _agrees_with_oracle(m)


@pytest.mark.parametrize("alg", [levi_civita_bracket(), sl2(), heisenberg3()],
                         ids=["levi_civita", "sl2", "heisenberg"])
def test_rank_nullspace_on_differential_matrices(alg):
    for k in range(4):
        _agrees_with_oracle(differential_matrix(alg, k))


def test_solve_linear_consistent_systems():
    rng = random.Random(11)
    for _ in range(120):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _sparse_matrix(rng, rows, cols, rng.choice((0.3, 0.6, 1.0)))
        b = m.apply(rand_vector(rng, cols))
        x = solve_linear(m, b)
        assert x is not None
        assert m.apply(x) == b
        pivots = gauss_jordan(m)[1]
        assert all(x[j] == 0 for j in range(cols) if j not in pivots)
        assert x == _canonical_solution(m, b)


def test_solve_linear_rational_right_sides():
    m = Matrix.from_rows([[2, 0, 1], [0, 3, 0], [4, 0, 2]])
    b = (F(1, 3), F(-5, 7), F(2, 3))
    x = solve_linear(m, b)
    assert x == (F(1, 6), F(-5, 21), F(0))
    assert m.apply(x) == b
    rng = random.Random(12)
    for _ in range(40):
        m = rand_matrix(rng, 4, 4)
        b = rand_sparse_vector(rng, 4, 0.7)
        assert solve_linear(m, b) == _canonical_solution(m, b)


def test_solve_linear_inconsistent_systems():
    assert solve_linear(Matrix.from_rows([[1, 1], [2, 2]]),
                        (F(1), F(3))) is None
    assert solve_linear(Matrix.zero(2, 3), (F(0), F(1, 2))) is None
    assert solve_linear(Matrix.from_rows([[0], [1]]), (F(1), F(0))) is None
    rng = random.Random(13)
    found = 0
    for _ in range(60):
        m = rand_matrix(rng, 5, 2).mul(rand_matrix(rng, 2, 4))
        b = rand_vector(rng, 5)
        expected = _canonical_solution(m, b)
        assert solve_linear(m, b) == expected
        found += expected is None
    assert found > 0


def test_solve_linear_zero_right_side():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert solve_linear(m, (F(0), F(0))) == (F(0), F(0))


def test_solve_linear_wrong_length_right_side():
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.identity(3), (F(1), F(2)))
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.identity(2), (F(1), F(2), F(3)))


def _corrupt_last_entry(cancel):
    def corrupted(r, p, c):
        out = cancel(r, p, c)
        if out:
            out[max(out)] += 1
        return out
    return corrupted


def test_corrupted_elimination_fails_the_certificate(monkeypatch):
    """An update that leaves the row space is caught by the exact M·x
    check and raises instead of returning a wrong result."""
    monkeypatch.setattr(linalg, "_cancel", _corrupt_last_entry(linalg._cancel))
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ArithmeticError):
        rank_nullspace(m)
    with pytest.raises(ArithmeticError):
        solve_linear(Matrix.from_rows([[1, 2], [3, 4]]), (F(1), F(1)))


def _dense_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_matrix_stores_sparse_rows():
    m = Matrix.from_rows([[0, F(2, 3), 0, -1], [0, 0, 0, 0], [5, 0, 0, 0]])
    assert m.data == ({1: F(2, 3), 3: F(-1)}, {}, {0: F(5)})
    assert m.entries == ((0, F(2, 3), 0, -1), (0, 0, 0, 0), (5, 0, 0, 0))
    assert Matrix(3, 4, m.entries) == m
    assert Matrix.from_cols([m.column(j) for j in range(4)], 3) == m
    # stored form in, zeros dropped and keys sorted
    built = Matrix.from_sparse_rows([{3: F(-1), 0: F(0), 1: F(2, 3)}, {},
                                     {0: F(5), 2: F(0)}], 4)
    assert built == m
    assert list(built.data[0]) == [1, 3]
    assert hash(built) == hash(m)
    with pytest.raises(DimensionMismatch):
        Matrix.from_sparse_rows([{4: F(1)}], 4)
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, ((F(1), F(0)), (F(1),)))
    with pytest.raises(DimensionMismatch):
        Matrix(3, 1, ((F(1),), (F(0),)))
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_cols([(F(1), F(0)), (F(1),)], 2)


def test_matrix_operations_match_dense_arithmetic():
    rng = random.Random(17)
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        density = rng.choice((0.0, 0.3, 1.0))
        a = _sparse_matrix(rng, rows, inner, density)
        b = _sparse_matrix(rng, inner, cols, density)
        c = _sparse_matrix(rng, rows, inner, density)
        v = rand_sparse_vector(rng, inner, 0.6)
        dense_a = [list(r) for r in a.entries]
        assert a.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), F(0))
                                   for r in dense_a)
        assert a.mul(b).entries == tuple(
            tuple(r) for r in _dense_mul(dense_a, b.entries))
        assert a.add(c).entries == tuple(
            tuple(x + y for x, y in zip(ra, rc))
            for ra, rc in zip(a.entries, c.entries))
        assert a.scale(F(-3, 2)).entries == tuple(
            tuple(F(-3, 2) * x for x in r) for r in a.entries)
        assert a.scale(0).is_zero
        assert a.is_zero == all(x == 0 for r in a.entries for x in r)
        for j in range(inner):
            assert a.column(j) == tuple(r[j] for r in a.entries)
        # the stored rows hold exactly the nonzero cells, keys ascending
        for stored, dense in zip(a.add(c).data, a.add(c).entries):
            assert list(stored.items()) == support(dense)


def test_column_supports_match_dense_columns():
    rng = random.Random(19)
    for _ in range(40):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                           rng.choice((0.1, 0.4, 1.0)))
        assert column_supports(m) == [support(m.column(j))
                                      for j in range(m.cols)]
