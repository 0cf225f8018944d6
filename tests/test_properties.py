"""Property tests over random basis changes of catalog algebras.

Each example transports a valid bracket along a small invertible basis
change P (a signed permutation, a few integer shears and a diagonal
rescaling), so the fundamental identity holds while every structure
constant moves.  Needs hypothesis; the module is skipped without it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circle_differential_matrix
from nlie.catalog import conjugated_algebra, levi_civita_bracket, sl2
from nlie.chevalley import ce_differential_matrix
from nlie.cohomology import differential_matrix
from nlie.linalg import Matrix

# fixed examples, so the suite reruns the same inputs every time
PROFILE = settings(derandomize=True, max_examples=12, deadline=None,
                   database=None)


@st.composite
def basis_changes(draw, dim: int) -> Matrix:
    perm = draw(st.permutations(range(dim)))
    rows = [[draw(st.sampled_from((1, -1))) if j == perm[i] else 0
             for j in range(dim)] for i in range(dim)]
    shears = draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                     st.integers(0, dim - 1),
                                     st.integers(-2, 2)),
                           max_size=dim))
    for i, j, c in shears:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    scale = draw(st.lists(st.sampled_from((1, 2, -1, Fraction(1, 2))),
                          min_size=dim, max_size=dim))
    return Matrix.from_rows([[s * a for a in row]
                             for s, row in zip(scale, rows)])


def _levi_civita_conjugates():
    return basis_changes(4).map(
        lambda p: conjugated_algebra(levi_civita_bracket(), p))


def _sl2_conjugates():
    return basis_changes(3).map(lambda p: conjugated_algebra(sl2(), p))


@PROFILE
@given(_levi_civita_conjugates())
def test_differential_squares_to_zero(alg):
    mats = [differential_matrix(alg, k) for k in range(4)]
    for k in range(3):
        assert mats[k + 1].mul(mats[k]).is_zero


@PROFILE
@given(_levi_civita_conjugates())
def test_four_sum_assembly_matches_circle_route(alg):
    for k in range(3):
        assert differential_matrix(alg, k).entries == \
            circle_differential_matrix(alg, k).entries


@PROFILE
@given(_sl2_conjugates())
def test_binary_differential_matches_chevalley_eilenberg(alg):
    for k in (0, 1):
        assert differential_matrix(alg, k).entries == \
            ce_differential_matrix(alg, k).entries
