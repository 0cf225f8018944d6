"""Cohomology of the deformation complex by exact rational linear algebra.

Grading note: C^k here is the k-th term of the complex, so C^0 is the space
of (n-1)-wedges, C^1 the linear maps, and C^k for k >= 2 the degree-(k-1)
multiderivation cochains.  ``differential_matrix(A, k)`` is the map
C^k -> C^(k+1) in the elementary bases (lexicographic keys, then vector
components), which makes every matrix byte-stable for golden tests.

One ``Complex`` serves one call: it checks the fundamental identity once,
builds each d_k once, eliminates it on each ``kernel(k)`` (no caller asks
one ``Complex`` twice) and solves on one ``linalg.Factorization`` per k,
which factors d_k once for its rank and every solve; a refused solve
returns its checked ``Refusal``, the left witness included.  It works on
integers.  Let L be the least common denominator of the structure
constants.  Every entry of d_k is linear in the bracket, so L·d_k is an
integer matrix, assembled by ``cochains.coboundary_rows`` on the structure
table times L.  Scaling a row by L > 0 changes neither the rows' span nor
the shortest-row pivot choice of ``linalg.kernel``.  So rank, pivots and
canonical nullspace of L·d_k are those of d_k, and d x = b is solved as
(L·d) x = L·b.  The fundamental identity is quadratic in the bracket; its
integer witness is divided by L^2.

Betti 0 needs no rational elimination.  ``report(k)`` bounds rank d_(k-1)
from below by its rank mod 3 (``linalg.rank_mod_p``), then rank d_k up to
dim C^k minus that bound; where they fall short and 3 divides an entry of
either matrix, it bounds both again mod 2^31 - 1 with the same routine.
Each bound is at most the rank over Q, and d_k·d_(k-1) = 0 gives
rank d_k + rank d_(k-1) <= dim C^k.  So bounds that add up to dim C^k are
both ranks, and betti_k = 0.  d_k·d_(k-1) = 0 is the theorem
d∘d = [pi, [pi, .]] = 1/2 [[pi, pi], .] = 0, which holds once
construction has proven the fundamental identity ([pi, pi] = 0); it is
not multiplied out at run time.  It could fail only on faulty rows, the
trust ``kernel`` places in them too, and the tests check it on the rows
of ``coboundary_rows`` by a product of their own.
Otherwise (betti > 0, a prime dividing every minor of the rank's size, or
the row cap read first) ``kernel`` gives both ranks as before; a bound
above its rank raises ArithmeticError, and the ``cohomology.report`` span
counts the shortfall.  That O(1) comparison stays: it sets two
independent computations on the input's rows, the rank mod p and the
rank over Q, against each other.

Representatives are chosen deterministically: among the canonical nullspace
basis of d_out, keep the vectors whose columns become pivots after the
coboundary columns in a combined elimination.  Each kept vector is a cocycle
and no rational combination of kept vectors is a coboundary.  That
elimination runs over every column of d_in, so its pivots before the
cocycles are the canonical pivots of d_in and give rank d_in: no second
elimination of d_in is needed.
``outer_derivations`` reads H^1 as derivations modulo inner ones.
Paper API that nothing here calls: ``outer_derivations``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Sequence, Union

from .algebra import NLieAlgebra, WedgeElement, integral_table, require_fi
# cochain_to_vec is re-exported beside vec_to_cochain
from .cochains import (Cochain, coboundary_rows, cochain_dim, cochain_to_vec,
                       to_matrix, vec_to_cochain)
from .errors import DimensionMismatch
from .linalg import (Factorization, Matrix, RankNullspace, Refusal, Row,
                     Vector, integer_row, kernel, rank_mod_p)
from .record import Record
from .trace import row_counters, span, traced

DEFAULT_DEGREE_CAP = 3

# The row cap of a rank-bound pass on d_k: _CAP_SLOPE·ncols + _CAP_BASE
# rows.  Measured in the seeded order, the catalog d_k reach their rank
# within 1.94·ncols rows (sl(2) d_4: 157 rows for rank 57, 81 columns).
_CAP_SLOPE, _CAP_BASE = 2, 16
# The second prime, tried where 3 divides an entry of L·d_k.
_PRIME = 2**31 - 1


def complex_dim(alg: NLieAlgebra, k: int) -> int:
    if k < 0:
        raise DimensionMismatch("the complex starts at degree 0")
    n, m = alg.arity, alg.dim
    return comb(m, n - 1) if k == 0 else \
        m * m if k == 1 else cochain_dim(m, n, k - 1)


class CohomologyReport(Record):
    __slots__ = ("degree", "dim_cochains", "rank_d_out", "rank_d_in", "betti",
                 "representatives")
    degree: int
    dim_cochains: int
    rank_d_out: int
    rank_d_in: int
    betti: int
    representatives: tuple[Union[Cochain, WedgeElement], ...]


class Complex:
    """The deformation complex of one algebra, for the length of one call.

    Construction checks the fundamental identity (raising its witness) and
    clears the structure table to (L, integers); each d_k is built as the
    integer rows of L·d_k on first use, eliminated on each ``kernel(k)``
    and factored at most once, on the first ``factor(k)``, for its rank
    and all its solves, however many right sides follow.  A solve
    with no solution returns the ``Refusal`` whose left witness y has
    yᵀ(L·d_k) = 0 and yᵀ(L·b) != 0, checked exactly.
    """

    def __init__(self, alg: NLieAlgebra):
        require_fi(alg)
        self.alg = alg
        self.scale, self.table = integral_table(alg)
        self._rows: dict[int, list[Row]] = {}
        self._factors: dict[int, Factorization] = {}

    def rows(self, k: int) -> list[Row]:
        """The integer rows of L·d_k: C^k -> C^(k+1)."""
        if k not in self._rows:
            self._rows[k] = self._build(k)
        return self._rows[k]

    @traced("cohomology.differential_matrix",
            lambda args, rows: row_counters(rows,
                                            complex_dim(args[0].alg, args[1])))
    def _build(self, k: int) -> list[Row]:
        complex_dim(self.alg, k)
        return coboundary_rows(self.alg, k - 1, self.table)

    def kernel(self, k: int) -> RankNullspace:
        """Rank, pivots and canonical nullspace of d_k."""
        return kernel(self.rows(k), complex_dim(self.alg, k))

    def factor(self, k: int) -> Factorization:
        """The ``linalg.Factorization`` of L·d_k that every solve uses."""
        if k not in self._factors:
            self._factors[k] = Factorization(self.rows(k),
                                             complex_dim(self.alg, k))
        return self._factors[k]

    def solve(self, k: int, b: Vector) -> Vector | Refusal:
        """The canonical solution of d_k x = b, solved as (L·d_k) x = L·b,
        or the factorization's ``Refusal``: y with yᵀ(L·d_k) = 0 and
        yᵀ(L·b) != 0, so yᵀd_k = 0 and yᵀb != 0 too."""
        if self.scale != 1:
            b = [self.scale * x for x in b]
        return self.factor(k).solve(b)

    def matrix(self, k: int) -> Matrix:
        """The rational matrix of d_k: entries Fraction(x, L)."""
        return Matrix.from_sparse_rows(
            ({j: Fraction(x, self.scale) for j, x in r.items()}
             for r in self.rows(k)), complex_dim(self.alg, k))

    def beside(self, k: int, vectors: Sequence[Vector]) -> list[Row]:
        """Integer rows of the matrix whose columns are those of L·d_k,
        then ``vectors``.  Scaling the first block by L moves no pivot and
        no coordinate of a solution in the second."""
        base = complex_dim(self.alg, k)
        return [integer_row({**r, **{base + s: v[i]
                                     for s, v in enumerate(vectors) if v[i]}})
                for i, r in enumerate(self.rows(k))]

    def _bound(self, k: int, target: int, p: int) -> int:
        """A lower bound on rank d_k (0 for k < 0): the rank mod p of the
        rows of L·d_k, read until it reaches ``target`` or the row cap."""
        if k < 0:
            return 0
        cap = _CAP_SLOPE * complex_dim(self.alg, k) + _CAP_BASE
        return rank_mod_p(self.rows(k), p, target, cap).rank

    def _bounds(self, k: int, dim_k: int, p: int) -> tuple[int, int]:
        """Lower bounds (rank d_(k-1), rank d_k) mod p: d_(k-1) up to its
        size, then d_k up to dim C^k minus the first."""
        lo_in = self._bound(k - 1, min(dim_k, complex_dim(self.alg, k - 1))
                            if k else 0, p)
        return lo_in, self._bound(k, dim_k - lo_in, p)

    def report(self, k: int) -> CohomologyReport:
        """Betti number and representatives of H^k.  Where the rank bounds
        meet, betti is 0: the two bounds and the theorem d_k·d_(k-1) = 0
        prove both ranks, and nothing is eliminated over Q or multiplied
        out.  Otherwise ``kernel`` gives both ranks, each checked against
        its bound (see the module docstring)."""
        alg = self.alg
        dim_k = complex_dim(alg, k)
        with span("cohomology.report") as sp:
            lo_in, lo_out = self._bounds(k, dim_k, 3)
            if lo_in + lo_out < dim_k and any(
                    x % 3 == 0 for j in range(max(k - 1, 0), k + 1)
                    for r in self.rows(j) for x in r.values()):
                # 3 divides entries: a second prime can meet where 3 fell short
                in_p, out_p = self._bounds(k, dim_k, _PRIME)
                lo_in, lo_out = max(lo_in, in_p), max(lo_out, out_p)
            if lo_in + lo_out == dim_k:
                # rank d_k + rank d_(k-1) <= dim C^k, since d_k·d_(k-1) = 0
                sp.count(proven=1, shortfall=0)
                return CohomologyReport(k, dim_k, lo_out, lo_in, 0, ())
            out = self.kernel(k)
            cocycles = out.nullspace
            dim_in, piv = 0, range(len(cocycles))  # C^0: no coboundaries
            if k:
                # one elimination of [L·d_(k-1) | cocycles]: its pivots in
                # the first block are those of d_(k-1), and the rest pick
                # the representatives
                dim_in = complex_dim(alg, k - 1)
                piv = kernel(self.beside(k - 1, cocycles),
                             dim_in + len(cocycles)).pivots
            rank_in = sum(1 for j in piv if j < dim_in)
            if out.rank < lo_out or rank_in < lo_in:
                raise ArithmeticError("a rank lower bound exceeds the rank "
                                      "that kernel certified")
            sp.count(proven=0, shortfall=out.rank - lo_out + rank_in - lo_in)
        reps = [cocycles[j - dim_in] for j in piv if j >= dim_in]
        betti = dim_k - out.rank - rank_in
        if len(reps) != betti:
            raise ArithmeticError("representative count differs from the "
                                  "betti number; rank bookkeeping is wrong")
        if k == 0:
            keys = list(itertools.combinations(range(alg.dim),
                                               alg.arity - 1))
            packed = tuple(
                WedgeElement(alg.arity - 1, alg.dim,
                             {key: c for key, c in zip(keys, r) if c != 0})
                for r in reps)
        else:
            packed = tuple(vec_to_cochain(r, alg.arity, alg.dim, k - 1)
                           for r in reps)
        return CohomologyReport(k, dim_k, out.rank, rank_in, betti, packed)


def differential_matrix(alg: NLieAlgebra, k: int) -> Matrix:
    """Matrix of the differential C^k -> C^(k+1): ``Complex(alg).matrix``,
    after the degree and the fundamental identity are checked."""
    complex_dim(alg, k)
    return Complex(alg).matrix(k)


def cohomology(alg: NLieAlgebra, k: int,
               max_degree_cap: int = DEFAULT_DEGREE_CAP) -> CohomologyReport:
    """Betti number and representatives of the k-th cohomology.

    Degrees above the cap are refused (the cochain spaces grow as
    C(m,n-1)^(k-2) * C(m,n) * m); raise the cap explicitly when needed.
    """
    if k > max_degree_cap:
        raise DimensionMismatch(
            f"degree {k} above cap {max_degree_cap}; raise the cap to force")
    complex_dim(alg, k)
    return Complex(alg).report(k)


def outer_derivations(alg: NLieAlgebra) -> list[Matrix]:
    """Basis of derivations modulo inner ones, as matrices."""
    return [to_matrix(r) for r in Complex(alg).report(1).representatives]
