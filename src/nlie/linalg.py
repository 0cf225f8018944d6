"""Exact rational vectors, matrices and fraction-free elimination.

Rank and nullspace run Bareiss-style fraction-free elimination: rows are
scaled to integers, the two-determinant update rule keeps every intermediate
entry an exact integer minor, and only the final back-substitution returns to
rationals.  Nullspace vectors are canonical: one per free column, with that
free coordinate set to 1 and all other free coordinates 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DimensionMismatch

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def vec_zero(m: int) -> Vector:
    return (_ZERO,) * m


def basis_vec(m: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(m))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction | int, a: Vector) -> Vector:
    if c == -1:
        # negation skips the gcd a Fraction product pays
        return tuple(-x for x in a)
    return tuple(c * x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return not any(a)


def support(v: Vector) -> list[tuple[int, Fraction]]:
    """The nonzero coordinates of v as (index, value) pairs."""
    return [(i, c) for i, c in enumerate(v) if c]


def multilinear(supports: Sequence[Iterable[tuple[Hashable, Fraction | int]]],
                term: Callable[[tuple], Vector], m: int) -> Vector:
    """Expand a multilinear map over its arguments' coordinates.

    ``supports`` gives, per argument, its nonzero (label, coefficient)
    pairs, such as ``support(v)`` or a wedge's ``coords.items()``.  Returns
    the length-m sum of c_1 * .. * c_k * term((label_1, .., label_k)) over
    the product of the supports, so only products of nonzero coordinates
    are visited.
    """
    acc: dict[int, Fraction] = {}
    for combo in itertools.product(*supports):
        labels = []
        coeff = 1
        # a product with 1 still costs a full Fraction operation: skip it
        for label, c in combo:
            labels.append(label)
            coeff = c if coeff == 1 else coeff * c
        for i, x in enumerate(term(tuple(labels))):
            if x:
                if coeff != 1:
                    x = coeff * x
                acc[i] = acc[i] + x if i in acc else x
    return tuple(acc.get(i, _ZERO) for i in range(m))


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix; rows are tuples of Fractions."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionMismatch("column count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
        ent = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if not ent:
            raise DimensionMismatch("matrix needs at least one row")
        return Matrix(len(ent), len(ent[0]), ent)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, tuple(tuple(Fraction(1 if i == j else 0)
                                        for j in range(n))
                                  for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, tuple((Fraction(0),) * cols
                                        for _ in range(rows)))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix/vector size mismatch")
        return tuple(sum((row[j] * v[j] for j in range(self.cols) if v[j]),
                         Fraction(0))
                     for row in self.entries)

    def mul(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product size mismatch")
        ocols = other.cols
        out = []
        for row in self.entries:
            acc = [Fraction(0)] * ocols
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = other.entries[k]
                for j in range(ocols):
                    if orow[j]:
                        acc[j] += a * orow[j]
            out.append(tuple(acc))
        return Matrix(self.rows, ocols, tuple(out))

    def add(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix sum size mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: Matrix) -> Matrix:
        return self.add(other.scale(-1))

    def scale(self, c: Fraction | int) -> Matrix:
        c = Fraction(c)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * a for a in row)
                            for row in self.entries))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)


def _integer_rows(m: Matrix) -> list[list[int]]:
    out = []
    for row in m.entries:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _bareiss(rows: list[list[int]], ncols: int,
             pivot_limit: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination in place; returns echelon rows and pivot
    column indices.  Only columns < pivot_limit are eligible as pivots (the
    rest ride along, which is how the linear solver carries its right side).
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(pivot_limit):
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            ri, rr = rows[i], rows[r]
            for j in range(c + 1, ncols):
                num = piv * ri[j] - head * rr[j]
                quo, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError(
                        "fraction-free update must divide exactly")
                ri[j] = quo
            ri[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


@dataclass(frozen=True)
class RankNullspace:
    rank: int
    nullspace: tuple[Vector, ...]
    pivots: tuple[int, ...]


def _back_substitute(ech: list[list[int]], pivots: list[int],
                     x: list[Fraction], rhs: Sequence[int]) -> Vector:
    """Solve the echelon rows for the pivot coordinates of x, whose free
    coordinates are already set; rhs[i] is the right side of row i."""
    ncols = len(x)
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = sum((Fraction(ech[i][j]) * x[j]
                 for j in range(pc + 1, ncols) if x[j]), Fraction(0))
        x[pc] = (rhs[i] - s) / ech[i][pc]
    return tuple(x)


def rank_nullspace(m: Matrix) -> RankNullspace:
    """Exact rank and canonical nullspace basis of a rational matrix."""
    rows = _integer_rows(m)
    ech, pivots = _bareiss(rows, m.cols, m.cols)
    rank = len(pivots)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for f in free:
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        basis.append(_back_substitute(ech, pivots, x, [0] * rank))
    return RankNullspace(rank, tuple(basis), tuple(pivots))


def solve_linear(m: Matrix, b: Vector) -> Vector | None:
    """One exact solution of m @ x = b, or None if inconsistent.

    The solution is canonical: all free coordinates are 0.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right side has wrong length")
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (b[i],) for i, row in enumerate(m.entries)))
    rows = _integer_rows(aug)
    ech, pivots = _bareiss(rows, m.cols + 1, m.cols)
    rank = len(pivots)
    for i in range(rank, m.rows):
        if ech[i][m.cols] != 0:
            return None
    return _back_substitute(ech, pivots, [Fraction(0)] * m.cols,
                            [row[m.cols] for row in ech[:rank]])
