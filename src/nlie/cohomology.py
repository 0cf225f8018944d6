"""Cohomology of the deformation complex by exact rational linear algebra.

Grading note: C^k here is the k-th term of the complex, so C^0 is the space
of (n-1)-wedges, C^1 the linear maps, and C^k for k >= 2 the degree-(k-1)
multiderivation cochains.  ``differential_matrix(A, k)`` is the map
C^k -> C^(k+1) in the elementary bases (lexicographic keys, then vector
components), which makes every matrix byte-stable for golden tests.

Representatives are chosen deterministically: among the canonical nullspace
basis of d_out, keep the vectors whose columns become pivots after the
coboundary columns in a combined elimination.  Each kept vector is a cocycle
and no rational combination of kept vectors is a coboundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .algebra import NLieAlgebra, WedgeElement, basis_wedge, require_fi
from .cochains import (Cochain, coboundary_rows, cochain_to_vec,
                       from_bracket, space_keys, to_matrix, vec_to_cochain,
                       wedge_differential)
from .errors import DimensionMismatch
from .linalg import Matrix, Vector, rank_nullspace
from .trace import matrix_counters, traced

DEFAULT_DEGREE_CAP = 3


def complex_dim(alg: NLieAlgebra, k: int) -> int:
    if k < 0:
        raise DimensionMismatch("the complex starts at degree 0")
    return len(space_keys(alg.dim, alg.arity, k - 1)) * alg.dim if k >= 1 \
        else comb(alg.dim, alg.arity - 1)


@traced("cohomology.differential_matrix",
        lambda args, mat: matrix_counters(mat))
def differential_matrix(alg: NLieAlgebra, k: int) -> Matrix:
    """Matrix of the differential C^k -> C^(k+1); requires the fundamental
    identity (checked once, before assembly).  For k >= 1 the rows are the
    transposed four-sum formula, ``cochains.coboundary_rows``."""
    if k < 0:
        raise DimensionMismatch("the complex starts at degree 0")
    require_fi(alg)
    n, m = alg.arity, alg.dim
    if k == 0:
        phi = from_bracket(alg)
        cols = [cochain_to_vec(wedge_differential(phi,
                                                  basis_wedge(n - 1, m, key)))
                for key in itertools.combinations(range(m), n - 1)]
        return Matrix.from_cols(cols, len(space_keys(m, n, 0)) * m)
    return Matrix.from_sparse_rows(coboundary_rows(alg, k - 1),
                                   complex_dim(alg, k))


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    dim_cochains: int
    rank_d_out: int
    rank_d_in: int
    betti: int
    representatives: tuple[Union[Cochain, WedgeElement], ...]


def cohomology(alg: NLieAlgebra, k: int,
               max_degree_cap: int = DEFAULT_DEGREE_CAP) -> CohomologyReport:
    """Betti number and representatives of the k-th cohomology.

    Degrees above the cap are refused (the cochain spaces grow as
    C(m,n-1)^(k-2) * C(m,n) * m); raise the cap explicitly when needed.
    """
    if k > max_degree_cap:
        raise DimensionMismatch(
            f"degree {k} above cap {max_degree_cap}; raise the cap to force")
    d_out = differential_matrix(alg, k)
    d_in = differential_matrix(alg, k - 1) if k else None
    return _report(alg, k, d_out, d_in)


def _report(alg: NLieAlgebra, k: int, d_out: Matrix,
            d_in: Optional[Matrix]) -> CohomologyReport:
    """Betti number and representatives of H^k from d_k and d_(k-1)
    (None at k = 0)."""
    dim_k = d_out.cols
    out = rank_nullspace(d_out)
    cocycles = out.nullspace
    if d_in is None:
        rank_in = 0
        cob_cols: list[Vector] = []
    else:
        inn = rank_nullspace(d_in)
        rank_in = inn.rank
        cob_cols = [d_in.column(j) for j in inn.pivots]
    betti = dim_k - out.rank - rank_in
    reps: list[Vector] = []
    if betti > 0:
        combined = Matrix.from_cols(cob_cols + list(cocycles), dim_k)
        piv = rank_nullspace(combined).pivots
        base = len(cob_cols)
        reps = [cocycles[j - base] for j in piv if j >= base]
    if len(reps) != betti:
        raise ArithmeticError("representative count differs from the betti "
                              "number; rank bookkeeping is wrong")
    if k == 0:
        n, m = alg.arity, alg.dim
        keys = list(itertools.combinations(range(m), n - 1))
        packed = tuple(
            WedgeElement(n - 1, m,
                         {key: c for key, c in zip(keys, r) if c != 0})
            for r in reps)
    else:
        packed = tuple(vec_to_cochain(r, alg.arity, alg.dim, k - 1)
                       for r in reps)
    return CohomologyReport(k, dim_k, out.rank, rank_in, betti, packed)


def outer_derivations(alg: NLieAlgebra) -> list[Matrix]:
    """Basis of derivations modulo inner ones, as matrices."""
    report = cohomology(alg, 1)
    return [to_matrix(r) for r in report.representatives]
