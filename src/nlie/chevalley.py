"""Chevalley-Eilenberg complex of a Lie algebra in its adjoint module.

Independent reference route for the binary (arity 2) case: cochains are
fully skew maps Λ^p L -> L stored on strictly increasing index tuples, and
the differential is the classical alternating-sum formula.  Nothing here
touches the shuffle or circle machinery, which is the point: the generic
differential must reproduce these maps when the arity is 2.

Convention: the degree-0 differential sends v to ad_v (z -> [v, z]).  With
the standard signs at higher degrees this still squares to zero, and it is
the orientation under which the generic complex is matched degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (NLieAlgebra, basis_key, bracket_on_basis, coeff_vector,
                      sort_with_sign)
from .errors import DimensionMismatch
from .linalg import Matrix, Vector, vec_add, vec_is_zero, vec_scale, vec_zero

CEKey = tuple[int, ...]


@dataclass(frozen=True)
class CECochain:
    """Skew p-multilinear map L -> L; absent keys are zero."""

    dim: int
    degree: int
    entries: dict[CEKey, Vector]


def ce_space_keys(dim: int, degree: int) -> list[CEKey]:
    return list(itertools.combinations(range(dim), degree))


def ce_dim(dim: int, degree: int) -> int:
    return len(ce_space_keys(dim, degree)) * dim


def make_ce_cochain(dim: int, degree: int,
                    entries: dict[CEKey, Sequence[Fraction | int]]) -> CECochain:
    if degree < 0:
        raise DimensionMismatch("degree must be >= 0")
    table: dict[CEKey, Vector] = {}
    for key, value in entries.items():
        key = basis_key(key, degree, dim, "cochain")
        vec = coeff_vector(value, dim, "value vector")
        if not vec_is_zero(vec):
            table[key] = vec
    return CECochain(dim, degree, table)


def ce_zero(dim: int, degree: int) -> CECochain:
    return CECochain(dim, degree, {})


def ce_eval(psi: CECochain, idx: tuple[int, ...]) -> Vector:
    """Evaluate on basis indices in any order (sign from sorting)."""
    if len(idx) != psi.degree:
        raise DimensionMismatch("wrong number of arguments")
    if psi.degree == 0:
        return psi.entries.get((), vec_zero(psi.dim))
    ss = sort_with_sign(idx)
    if ss is None:
        return vec_zero(psi.dim)
    sign, key = ss
    val = psi.entries.get(key)
    if val is None:
        return vec_zero(psi.dim)
    return val if sign == 1 else vec_scale(-1, val)


def _bracket2(alg: NLieAlgebra, i: int, j: int) -> Vector:
    if i == j:
        return vec_zero(alg.dim)
    if i < j:
        return bracket_on_basis(alg, (i, j))
    return vec_scale(-1, bracket_on_basis(alg, (j, i)))


def ce_differential(alg: NLieAlgebra, psi: CECochain) -> CECochain:
    """Classical adjoint-module coboundary:

        (d psi)(x_1..x_{p+1}) = sum_i (-1)^(i+1) [x_i, psi(.., x̂_i, ..)]
                              + sum_{i<j} (-1)^(i+j) psi([x_i,x_j], .., x̂_i,
                                                         .., x̂_j, ..)

    with the degree-0 case d(v) = ad_v.
    """
    if alg.arity != 2:
        raise DimensionMismatch("classical complex needs a binary bracket")
    m = alg.dim
    if psi.dim != m:
        raise DimensionMismatch("cochain does not match the algebra")
    p = psi.degree
    entries: dict[CEKey, Vector] = {}
    if p == 0:
        v = psi.entries.get((), vec_zero(m))
        for x in range(m):
            col = vec_zero(m)
            for j, c in enumerate(v):
                if c:
                    col = vec_add(col, vec_scale(c, _bracket2(alg, j, x)))
            if not vec_is_zero(col):
                entries[(x,)] = col
        return CECochain(m, 1, entries)
    for key in itertools.combinations(range(m), p + 1):
        total = vec_zero(m)
        for i0 in range(p + 1):
            rest = key[:i0] + key[i0 + 1:]
            inner = psi.entries.get(rest)
            if inner is not None:
                sign = -1 if i0 % 2 else 1
                for l, c in enumerate(inner):
                    if c:
                        total = vec_add(total, vec_scale(
                            sign * c, _bracket2(alg, key[i0], l)))
        for i0 in range(p + 1):
            for j0 in range(i0 + 1, p + 1):
                sign = -1 if (i0 + j0) % 2 else 1
                br = _bracket2(alg, key[i0], key[j0])
                rest = tuple(key[t] for t in range(p + 1)
                             if t not in (i0, j0))
                for l, c in enumerate(br):
                    if c:
                        total = vec_add(total, vec_scale(
                            sign * c, ce_eval(psi, (l,) + rest)))
        if not vec_is_zero(total):
            entries[key] = total
    return CECochain(m, p + 1, entries)


def ce_to_vec(psi: CECochain) -> Vector:
    m = psi.dim
    out: list[Fraction] = []
    for key in ce_space_keys(m, psi.degree):
        out.extend(psi.entries.get(key, vec_zero(m)))
    return tuple(out)


def ce_basis(dim: int, degree: int) -> list[CECochain]:
    out = []
    for key in ce_space_keys(dim, degree):
        for i in range(dim):
            vec = tuple(Fraction(1) if j == i else Fraction(0)
                        for j in range(dim))
            out.append(CECochain(dim, degree, {key: vec}))
    return out


def ce_differential_matrix(alg: NLieAlgebra, degree: int) -> Matrix:
    """Matrix of the coboundary C^p -> C^(p+1) in the elementary bases."""
    m = alg.dim
    cols = []
    if degree == 0:
        for i in range(m):
            v = tuple(Fraction(1) if j == i else Fraction(0)
                      for j in range(m))
            cols.append(ce_to_vec(ce_differential(
                alg, CECochain(m, 0, {(): v}))))
    else:
        for psi in ce_basis(m, degree):
            cols.append(ce_to_vec(ce_differential(alg, psi)))
    return Matrix.from_cols(cols, ce_dim(m, degree + 1))
