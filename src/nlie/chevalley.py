"""Chevalley-Eilenberg complex of a Lie algebra in its adjoint module.

Independent reference route for the binary (arity 2) case: cochains are
fully skew maps Λ^p L -> L stored on strictly increasing index tuples, and
the differential is the classical alternating-sum formula.  Nothing here
touches the shuffle or circle machinery, which is the point: the generic
differential must reproduce these maps when the arity is 2.

Convention: the degree-0 differential sends v to ad_v (z -> [v, z]), the
first sum of ``ce_differential`` at p = 0 with its sign flipped.  With the
standard signs at higher degrees this still squares to zero, and it is the
orientation under which the generic complex is matched degree by degree.
``ce_zero`` and ``make_ce_cochain`` are the oracle's API, kept for tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Sequence

from .algebra import (NLieAlgebra, basis_key, bracket_on_basis, coeff_vector,
                      sort_with_sign)
from .errors import DimensionMismatch
from .linalg import (Matrix, Vector, basis_vec, vec_add, vec_is_zero,
                     vec_scale, vec_zero)
from .record import Record

CEKey = tuple[int, ...]


class CECochain(Record):
    """Skew p-multilinear map L -> L; absent keys are zero."""

    __slots__ = ("dim", "degree", "entries")
    dim: int
    degree: int
    entries: dict[CEKey, Vector]


def ce_space_keys(dim: int, degree: int) -> list[CEKey]:
    return list(itertools.combinations(range(dim), degree))


def ce_dim(dim: int, degree: int) -> int:
    return comb(dim, degree) * dim


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
    ss = sort_with_sign(idx)
    if ss is None:
        return vec_zero(psi.dim)
    sign, key = ss
    val = psi.entries.get(key)
    if val is None:
        return vec_zero(psi.dim)
    return val if sign == 1 else vec_scale(-1, val)


def ce_differential(alg: NLieAlgebra, psi: CECochain) -> CECochain:
    """Classical adjoint-module coboundary:

        (d psi)(x_1..x_{p+1}) = sum_i (-1)^(i+1) [x_i, psi(.., x̂_i, ..)]
                              + sum_{i<j} (-1)^(i+j) psi([x_i,x_j], .., x̂_i,
                                                         .., x̂_j, ..)

    with the degree-0 case d(v) = ad_v: the first sum with its sign flipped.
    """
    if alg.arity != 2:
        raise DimensionMismatch("classical complex needs a binary bracket")
    m = alg.dim
    if psi.dim != m:
        raise DimensionMismatch("cochain does not match the algebra")
    p = psi.degree
    # d(v) = ad_v: at p = 0 the first sum reads [x_1, v], so flip its sign
    flip = -1 if p == 0 else 1
    entries: dict[CEKey, Vector] = {}
    for key in itertools.combinations(range(m), p + 1):
        total = vec_zero(m)
        for i0 in range(p + 1):
            inner = psi.entries.get(key[:i0] + key[i0 + 1:])
            if inner is not None:
                sign = -flip if i0 % 2 else flip
                for l, c in enumerate(inner):
                    if c:
                        total = vec_add(total, vec_scale(
                            sign * c, bracket_on_basis(alg, (key[i0], l))))
        for i0 in range(p + 1):
            for j0 in range(i0 + 1, p + 1):
                sign = -1 if (i0 + j0) % 2 else 1
                br = bracket_on_basis(alg, (key[i0], key[j0]))
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
    return [CECochain(dim, degree, {key: basis_vec(dim, i)})
            for key in ce_space_keys(dim, degree) for i in range(dim)]


def ce_differential_matrix(alg: NLieAlgebra, degree: int) -> Matrix:
    """Matrix of the coboundary C^p -> C^(p+1) in the elementary bases."""
    m = alg.dim
    cols = [ce_to_vec(ce_differential(alg, psi))
            for psi in ce_basis(m, degree)]
    return Matrix.from_cols(cols, ce_dim(m, degree + 1))
