"""Exact elimination against the naive Gauss-Jordan oracle.

``rank_nullspace`` must return the reduced-row-echelon pivots and the
canonical nullspace (one vector per free column, free coordinate 1), and
``solve_linear`` the solution whose free coordinates are 0, on sparse and
dense rational matrices of every shape and on the differential matrices of
the catalog algebras.  A ``Factorization`` of the matrix must give the
same pivots and solution for every right side, whether the rank or a
solve comes first, or a refusal whose left witness is re-checked here,
and must raise when a faulty ``_cancel`` is planted.  Both eliminate a
seeded sample of a tall matrix's rows and certify on every row; they must
agree with one elimination of every row, and a planted fault must end the
sampled rounds in ArithmeticError.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (gauss_jordan, mat_add, mat_scale, rand_invertible,
                     rand_matrix, rand_sparse_vector, rand_vector)
from nlie import linalg
from nlie.catalog import (conjugated_algebra, heisenberg3,
                          levi_civita_bracket, sl2)
from nlie.cohomology import Complex, complex_dim, differential_matrix
from nlie.errors import DimensionMismatch
from nlie.deformations import rigidity_probe
from nlie.linalg import (Factorization, Matrix, Refusal, column_supports,
                         integer_rows, rank_nullspace, solve_linear, support)

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


def _first_entry_gcd(r, p, c):
    """``_cancel`` with a planted fault: the row is divided by the gcd of
    its first entry only, so other entries are floored."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {j: a * x for j, x in r.items()}
    for j, y in p.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            out.pop(j, None)
    g = abs(next(iter(out.values()), 1))
    return {j: x // g for j, x in out.items() if x // g}


def _integer_system(m: Matrix, b):
    """The integer rows of D·m and the right side D·b, D the lcm of m's
    denominators."""
    den, rows = integer_rows(m)
    return rows, [den * x for x in b]


def _assert_refusal(rows, b, res):
    """The refusal's y is re-checked here: yᵀM = 0 and yᵀb != 0."""
    assert isinstance(res, Refusal)
    y = res.witness
    assert y and all(y.values())
    left = {}
    for i, v in y.items():
        for j, a in rows[i].items():
            left[j] = left.get(j, 0) + v * a
    assert not any(left.values())
    assert sum(v * b[i] for i, v in y.items()) != 0


def _check_factorization(m: Matrix, b) -> bool:
    """Solve m x = b on a ``Factorization`` whose first use is the solve
    and on one whose rank is asked first: both agree with the Gauss-Jordan
    oracle, and a refusal's witness is re-checked.  True if consistent."""
    rank, pivots, _ = gauss_jordan(m)
    expected = _canonical_solution(m, b)
    rows, rhs = _integer_system(m, b)
    solved, ranked = Factorization(rows, m.cols), Factorization(rows, m.cols)
    assert (ranked.rank, ranked.pivots) == (rank, pivots)
    for fac in (solved, ranked):
        got = fac.solve(rhs)
        if expected is None:
            _assert_refusal(rows, rhs, got)
        else:
            assert got == expected
    assert (solved.rank, solved.pivots) == (rank, pivots)
    return expected is not None


def _with_zero_rows(rng, m: Matrix) -> Matrix:
    rows = list(m.data)
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), {})
    return Matrix.from_sparse_rows(rows, m.cols)


def test_factorization_agrees_with_oracle():
    rng = random.Random(25)
    consistent = inconsistent = 0
    for trial in range(250):
        rows, cols = rng.randint(1, 8), rng.randint(0, 8)
        shape = trial % 5
        if shape == 0 and cols:
            # full rank: invertible, or a slice of one
            n = max(rows, cols)
            full = rand_invertible(rng, n)
            m = Matrix.from_sparse_rows(
                [{j: x for j, x in r.items() if j < cols}
                 for r in full.data[:rows]], cols)
        elif shape == 1 and cols:
            inner = rng.randint(1, min(rows, cols))
            m = rand_matrix(rng, rows, inner).mul(rand_matrix(rng, inner, cols))
        elif shape == 2:
            m = Matrix.from_sparse_rows(
                [{j: F(rng.randint(-3, 3)) for j in range(cols)
                  if rng.random() < 0.5} for _ in range(rows)], cols)
        elif shape == 3 and cols:
            # tall and of low rank: more rows than columns
            m = rand_matrix(rng, rng.randint(cols + 1, 9), 2).mul(
                rand_matrix(rng, 2, cols))
        else:
            m = Matrix.from_sparse_rows(
                [dict(support(rand_sparse_vector(rng, cols, 0.4)))
                 for _ in range(rows)], cols)
        if rng.random() < 0.4:
            m = _with_zero_rows(rng, m)
        image = m.apply(rand_vector(rng, m.cols))
        assert _check_factorization(m, image)
        consistent += 1
        if _check_factorization(m, rand_vector(rng, m.rows)):
            consistent += 1
        else:
            inconsistent += 1
    assert inconsistent > 100 and consistent > 250


def test_factorization_edge_cases():
    for m in EDGE_CASES.values():
        _check_factorization(m, (F(0),) * m.rows)
        _check_factorization(m, (F(1),) * m.rows)
    for m in (Matrix.zero(3, 0), Matrix.from_sparse_rows([], 4)):
        _check_factorization(m, (F(0),) * m.rows)
        _check_factorization(m, (F(2),) * m.rows)


def _counted_rref(monkeypatch) -> list:
    calls = []
    real = linalg._rref
    monkeypatch.setattr(linalg, "_rref",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def test_factorization_eliminates_once_for_many_right_sides(monkeypatch):
    """Construction eliminates M once, whether the rank, a consistent
    solve or a refusal comes first; no later solve eliminates again."""
    rng = random.Random(17)
    m = rand_matrix(rng, 5, 3).mul(rand_matrix(rng, 3, 6))
    rows, _ = _integer_system(m, ())
    inside = [_integer_system(m, m.apply(rand_vector(rng, 6)))[1]
              for _ in range(5)]
    outside = [_integer_system(m, rand_vector(rng, 5))[1] for _ in range(5)]
    calls = _counted_rref(monkeypatch)
    for first in ("rank", "solve", "refusal"):
        calls.clear()
        fac = Factorization(rows, 6)
        assert len(calls) == 1
        if first == "rank":
            assert fac.rank == 3
        elif first == "solve":
            assert not isinstance(fac.solve(inside[0]), Refusal)
        else:
            _assert_refusal(rows, outside[0], fac.solve(outside[0]))
        assert len(calls) == 1
        for b, c in zip(inside, outside):
            assert not isinstance(fac.solve(b), Refusal)
            _assert_refusal(rows, c, fac.solve(c))
        assert len(calls) == 1 and fac.rank == 3


def test_factorization_cold_refusal_eliminates_once(monkeypatch):
    # a refusal on a fresh factorization costs its one elimination and
    # carries a witness that checks
    calls = _counted_rref(monkeypatch)
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    res = Factorization(rows, 2).solve([1, 3])
    assert len(calls) == 1
    _assert_refusal(rows, [1, 3], res)


def test_factorization_wrong_length_right_side():
    fac = Factorization([{0: 1}, {1: 1}], 2)
    with pytest.raises(DimensionMismatch):
        fac.solve([1])


def _planted(fault: str):
    return _first_entry_gcd if fault == "first_entry_gcd" else \
        _corrupt_last_entry(linalg._cancel)


FAULTS = ["first_entry_gcd", "last_entry"]


@pytest.mark.parametrize("fault", FAULTS)
def test_faulty_cancel_raises_never_refuses(monkeypatch, fault):
    """With a faulty ``_cancel`` planted, factoring an invertible system
    raises ArithmeticError, whether a solve or the rank comes first: no
    refusal or wrong vector is returned.  ``Complex.solve`` raises or
    returns the exact answer, which the M·x = b check has certified."""
    cx = Complex(sl2())
    x = rand_vector(random.Random(3), complex_dim(sl2(), 1))
    image = tuple(sum((F(a) * x[j] for j, a in r.items()), F(0))
                  for r in cx.rows(1))
    exact = Complex(sl2()).solve(1, image)
    rows = [{0: 2, 1: 3, 2: 1}, {0: 4, 1: 1, 2: 7}, {0: 1, 1: 1, 2: 1}]
    monkeypatch.setattr(linalg, "_cancel", _planted(fault))
    with pytest.raises(ArithmeticError):
        Factorization(rows, 3).solve([1, 1, 1])
    with pytest.raises(ArithmeticError):
        Factorization(rows, 3).rank
    with pytest.raises(ArithmeticError):
        cx.factor(1).rank
    try:
        assert Complex(sl2()).solve(1, image) == exact
    except ArithmeticError:
        pass


def _plant_in_factorization(monkeypatch, fault: str) -> None:
    """Plant a fault in the eliminations of tagged rows (an entry at
    column >= ncols) only, so an untagged ``kernel`` stays exact: the
    first-entry gcd ``_cancel``, or an ``_rref`` that loses its last pivot
    row, so the rank reads low."""
    real = linalg._rref

    def planted(rows, ncols):
        if not any(max(r) >= ncols for r in rows):
            return real(rows, ncols)
        if fault == "lost_pivot":
            red, pivots = real(rows, ncols)
            return red[:-1], pivots[:-1]
        with monkeypatch.context() as inner:
            inner.setattr(linalg, "_cancel", _first_entry_gcd)
            return real(rows, ncols)
    monkeypatch.setattr(linalg, "_rref", planted)


PLANTED = ["first_entry_gcd", "lost_pivot"]


@pytest.mark.parametrize("fault", PLANTED)
def test_faulty_factorization_never_decides_invertibility(monkeypatch,
                                                          fault):
    """The basis change's rank is checked both ways, so a faulty
    elimination raises rather than call P singular or return a wrong
    conjugate."""
    p = Matrix.from_rows([[2, 1, 0], [0, F(1, 3), 1], [1, 0, 1]])
    _plant_in_factorization(monkeypatch, fault)
    with pytest.raises(ArithmeticError):
        conjugated_algebra(sl2(), p)


@pytest.mark.parametrize("fault", PLANTED)
def test_faulty_factorization_never_gives_a_betti_number(monkeypatch, fault):
    """With the kernel of d_2 exact and the factorization of d_1 faulty,
    the rigidity probe raises instead of reading a wrong rank of d_1, with
    no trial run."""
    alg = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
    _plant_in_factorization(monkeypatch, fault)
    with pytest.raises(ArithmeticError):
        rigidity_probe(alg, 2, 0)


def _wrong_tag(red, ncols):
    """The first reduced row with a tag gets that tag off by one: E is
    wrong, R is right."""
    for r in red:
        tags = [j for j in r if j >= ncols]
        if tags:
            r[tags[0]] += 1
            return


# Each fault passes every guard of a ``Factorization`` but one, named by
# the message it raises.
GUARDED = {
    # a tag off by one: the reduced rows, so the certificate, are right,
    # and only the exact E·M = R check sees it
    "wrong_tag": "E·M = R",
    # the last pivot row lost: E·M = R holds on the rows kept, and only
    # the certificate on every row of M sees that the rank reads low (the
    # next round loses a pivot again)
    "lost_pivot": "did not raise the rank",
    # a tag corrupted after every check of the factoring, on an
    # inconsistent right side: only the check of the refusal's witness
    # sees that y is not a left witness
    "tag_after_checks": "refusal",
}


@pytest.mark.parametrize("fault", sorted(GUARDED))
def test_each_factorization_guard_catches_a_planted_fault(monkeypatch,
                                                          fault):
    """Removing any one guard of ``Factorization`` (the E·M = R check,
    the last round's certificate, the check of a refusal's witness) lets
    one of these faults through to a wrong rank or a wrong refusal."""
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}, {0: 3, 1: 4}]
    if fault == "tag_after_checks":
        fac = Factorization(rows, 2)
        fac._elim[0] = [(s, e + 1) for s, e in fac._elim[0]]
        with pytest.raises(ArithmeticError, match=GUARDED[fault]):
            fac.solve([3, 4, 0])
        return
    real = linalg._rref

    def planted(batch, ncols):
        red, pivots = real(batch, ncols)
        if fault == "lost_pivot":
            return red[:-1], pivots[:-1]
        _wrong_tag(red, ncols)
        return red, pivots

    monkeypatch.setattr(linalg, "_rref", planted)
    with pytest.raises(ArithmeticError, match=GUARDED[fault]):
        Factorization(rows, 2)


def test_refusal_of_a_corrupted_factorization_raises():
    # E corrupted after the factorization's checks: a consistent right
    # side fails the row check, and the witness built from the wrong E
    # fails its own check, so no refusal is returned
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}, {0: 3, 1: 4}]
    fac = Factorization(rows, 2)
    assert fac.rank == 2
    fac._elim[0] = [(s, e + 1) for s, e in fac._elim[0]]
    with pytest.raises(ArithmeticError):
        fac.solve([3, 4, 7])


def test_complex_refusal_carries_a_checked_left_witness():
    # a rational conjugate, so L > 1 and the system is L·d_k x = L·b
    alg = conjugated_algebra(sl2(), Matrix.from_rows(
        [[2, 1, 0], [0, F(1, 3), 1], [1, 0, 1]]))
    cx = Complex(alg)
    assert cx.scale > 1
    rng = random.Random(8)
    for k in (1, 2):
        refused = 0
        for _ in range(6):
            b = rand_vector(rng, len(cx.rows(k)))
            res = cx.factor(k).solve([cx.scale * x for x in b])
            if isinstance(res, Refusal):
                refused += 1
                _assert_refusal(cx.rows(k), [cx.scale * x for x in b], res)
            assert cx.solve(k, b) == res
        assert refused


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
        assert mat_add(a, c).entries == tuple(
            tuple(x + y for x, y in zip(ra, rc))
            for ra, rc in zip(a.entries, c.entries))
        assert mat_scale(F(-3, 2), a).entries == tuple(
            tuple(F(-3, 2) * x for x in r) for r in a.entries)
        assert mat_scale(0, a).is_zero
        assert a.is_zero == all(x == 0 for r in a.entries for x in r)
        for j in range(inner):
            assert a.column(j) == tuple(r[j] for r in a.entries)
        # the stored rows hold exactly the nonzero cells, keys ascending
        for stored, dense in zip(mat_add(a, c).data, mat_add(a, c).entries):
            assert list(stored.items()) == support(dense)


def test_column_supports_match_dense_columns():
    rng = random.Random(19)
    for _ in range(40):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                           rng.choice((0.1, 0.4, 1.0)))
        assert column_supports(m) == [support(m.column(j))
                                      for j in range(m.cols)]


def _combination_rows(rng, rows, cols, rank, top=3):
    """``rows`` integer rows, each a combination with coefficients in
    -2..2 of ``rank`` random rows with entries in -top..top."""
    basis = [[rng.randint(-top, top) for _ in range(cols)]
             for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        row = [sum(c * b[j] for c, b in zip(coeffs, basis))
               for j in range(cols)]
        out.append({j: x for j, x in enumerate(row) if x})
    return out


def _sampled_rows(cols: int) -> int:
    """The fewest nonzero rows on which ``kernel`` eliminates a sample."""
    return linalg._SAMPLE_RATIO * (int(linalg._SAMPLE_SLOPE * cols)
                                   + linalg._SAMPLE_BASE)


def _plant_in_kernel(monkeypatch, fault: str) -> list:
    """Plant a fault in every elimination and count the ``_rref`` calls:
    a ``_cancel`` fault, or an ``_rref`` that loses its last pivot row."""
    calls = []
    real = linalg._rref

    def planted(rows, ncols):
        calls.append(1)
        red, pivots = real(rows, ncols)
        if fault == "lost_pivot":
            return red[:-1], pivots[:-1]
        return red, pivots
    monkeypatch.setattr(linalg, "_rref", planted)
    if fault != "lost_pivot":
        monkeypatch.setattr(linalg, "_cancel", _planted(fault))
    return calls


@pytest.mark.parametrize("fault", ["first_entry_gcd", "last_entry",
                                   "lost_pivot"])
def test_planted_fault_reaches_the_sampled_loop(monkeypatch, fault):
    """On a matrix whose first round eliminates a sample, every planted
    fault ends in ArithmeticError within rank + 1 eliminations: a round
    that does not raise the rank raises, so the loop cannot spin.

    ``kernel`` checks M·v = 0, which bounds the rank from above only, so
    a fault that merely inflates the rank passes it; on most random tall
    matrices the first-entry gcd fault does just that.  This seeded matrix
    is one where each fault moves the nullspace off the kernel of M."""
    rows = _combination_rows(random.Random(26), _sampled_rows(5), 5, 2, 9)
    exact = linalg.kernel(rows, 5)
    assert exact.rank == 2 and exact.sample_rows < len(rows)
    calls = _plant_in_kernel(monkeypatch, fault)
    with pytest.raises(ArithmeticError):
        linalg.kernel(rows, 5)
    assert 1 <= len(calls) <= exact.rank + 1


def _tall_cases():
    """32 seeded tall integer matrices, 4–6 columns and 63–69 rows, on
    which ``kernel`` eliminates a sample, each with a consistent right
    side."""
    cases = []
    for seed in range(32):
        rng = random.Random(seed)
        cols = rng.randint(4, 6)
        rows = _combination_rows(rng, _sampled_rows(cols), cols,
                                 rng.randint(1, cols - 1))
        x = [rng.randint(-3, 3) for _ in range(cols)]
        cases.append((rows, cols, [sum(a * x[j] for j, a in r.items())
                                   for r in rows]))
    return cases


def _annihilates(rows, v) -> bool:
    return all(sum(a * v[j] for j, a in r.items()) == 0 for r in rows)


@pytest.mark.parametrize("fault", ["first_entry_gcd", "last_entry"])
def test_planted_fault_returns_certified_or_raises(monkeypatch, fault):
    """With a faulty ``_cancel`` planted, ``kernel`` on each tall matrix
    returns a nullspace that M annihilates (its one-sided certificate, so
    the rank may read high but never low) or raises ArithmeticError, and
    a solve of a consistent system returns x with M x = b or raises
    ArithmeticError.  A lookup the fault trips inside the
    elimination (KeyError) is a failed check too."""
    cases = _tall_cases()
    ranks = [linalg.kernel(rows, cols).rank for rows, cols, _ in cases]
    monkeypatch.setattr(linalg, "_cancel", _planted(fault))
    raised = 0
    for (rows, cols, b), rank in zip(cases, ranks):
        try:
            got = linalg.kernel(rows, cols)
            assert got.rank >= rank
            assert all(_annihilates(rows, v) for v in got.nullspace)
        except ArithmeticError:
            raised += 1
        try:
            x = Factorization(rows, cols).solve(b)
            assert not isinstance(x, Refusal)
            assert [sum(a * x[j] for j, a in r.items()) for r in rows] == b
        except ArithmeticError:
            raised += 1
    assert raised


def _full_elimination(rows, ncols):
    """Rank, pivots and canonical nullspace of one ``_rref`` of every row."""
    red, pivots = linalg._rref([r for r in rows if r], ncols)
    null = linalg._nullspace(red, pivots, ncols)
    return len(pivots), tuple(pivots), tuple(
        linalg.densify(v, ncols) for v in null.values())


def _block_rows(rng, rows, cols, few):
    """A tall block-diagonal matrix: ``rows`` combinations on the first
    cols - 2 columns, and ``few`` rows on the last two, spread among
    them, which a first sample is likely to miss."""
    out = _combination_rows(rng, rows, cols - 2, rng.randint(1, cols - 2))
    for _ in range(few):
        out.insert(rng.randint(0, len(out)), {
            cols - 2: rng.choice((-2, -1, 1, 3)),
            cols - 1: rng.choice((-1, 1, 2))})
    return out


SAMPLING = {"as shipped": None, "small samples": (0.5, 1, 1)}


@pytest.mark.parametrize("sampling", sorted(SAMPLING))
def test_sampled_elimination_matches_full_elimination(monkeypatch,
                                                      sampling):
    """``kernel`` and ``Factorization`` agree with one ``_rref`` of every
    row and with the Gauss-Jordan oracle on tall, square, wide,
    rank-deficient and block-diagonal integer matrices; with the shipped
    constants the tall ones eliminate a sample, and with small samples
    every shape does, over several rounds."""
    if SAMPLING[sampling]:
        for name, value in zip(("_SAMPLE_SLOPE", "_SAMPLE_BASE",
                                "_SAMPLE_RATIO"), SAMPLING[sampling]):
            monkeypatch.setattr(linalg, name, value)
    rng = random.Random(2026)
    rounds = []
    sampled = 0
    for trial in range(40):
        cols = rng.randint(3, 7)
        tall = _sampled_rows(cols) + rng.randint(0, 10)
        shape = trial % 5
        if shape == 0:
            rows = _combination_rows(rng, tall, cols, cols)
        elif shape == 1:
            rows = _combination_rows(rng, cols, cols, rng.randint(1, cols))
        elif shape == 2:
            rows = _combination_rows(rng, rng.randint(1, cols - 1), cols,
                                     rng.randint(1, cols))
        elif shape == 3:
            rows = _combination_rows(rng, tall, cols,
                                     rng.randint(1, cols - 1))
        else:
            rows = _block_rows(rng, tall, cols, rng.randint(1, 3))
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), {})
        got = linalg.kernel(rows, cols)
        full = _full_elimination(rows, cols)
        m = Matrix.from_sparse_rows(
            [{j: F(x) for j, x in r.items()} for r in rows], cols)
        assert (got.rank, got.pivots, got.nullspace) == full == gauss_jordan(m)
        fac = Factorization(rows, cols)
        assert (fac.rank, fac.pivots) == full[:2]
        assert fac._work[1] == got.rounds
        _check_factorization(m, m.apply(rand_vector(rng, cols)))
        _check_factorization(m, rand_vector(rng, len(rows)))
        nonzero = sum(1 for r in rows if r)
        if not SAMPLING[sampling] and nonzero >= _sampled_rows(cols):
            assert got.sample_rows < nonzero
            sampled += 1
        rounds.append(got.rounds)
    if SAMPLING[sampling]:
        assert sum(r >= 2 for r in rounds) >= 10
    else:
        assert sampled >= 12 and max(rounds) >= 2
