"""Shared generators and independent test oracles.

The elimination oracle here is deliberately a different algorithm from
the package's sparse integer elimination (naive dense Gauss-Jordan over
Fraction), so rank and nullspace assertions cross two implementations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nlie.algebra import make_algebra
from nlie.catalog import conjugated_algebra
from nlie.linalg import Matrix
from nlie.poly import MultiPoly, poly_from_terms


def rand_fraction(rng: random.Random, num: int = 3, den: int = 2) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vector(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng) for _ in range(m))


def rand_sparse_vector(rng: random.Random, m: int,
                       density: float = 0.4) -> tuple[Fraction, ...]:
    """Mostly-zero rational vector; all zeros now and then."""
    return tuple(rand_fraction(rng) if rng.random() < density else Fraction(0)
                 for _ in range(m))


def rand_poly(rng: random.Random, num_vars: int, max_deg: int = 2,
              terms: int = 3) -> MultiPoly:
    tbl = {}
    for _ in range(terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(num_vars)] += 1
        tbl[tuple(exps)] = tbl.get(tuple(exps), Fraction(0)) + rand_fraction(rng)
    return poly_from_terms(num_vars, tbl)


def rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([[rand_fraction(rng) for _ in range(cols)]
                             for _ in range(rows)])


def rand_invertible(rng: random.Random, n: int) -> Matrix:
    """Random integer matrix with determinant ±1: product of elementary
    shears applied to a signed permutation, so always invertible."""
    base = [[0] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i, p in enumerate(perm):
        base[i][p] = rng.choice([1, -1])
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            base[i][k] += c * base[j][k]
    return Matrix.from_rows(base)


def rand_bracket(rng: random.Random, arity: int, dim: int,
                 density: float = 0.7):
    """Random skew bracket (usually violating the fundamental identity)."""
    import itertools

    table = {}
    for key in itertools.combinations(range(dim), arity):
        if rng.random() < density:
            table[key] = rand_vector(rng, dim)
    return make_algebra(arity, dim, table)


def rand_valid_algebra(rng: random.Random, base):
    """Transport a known-valid algebra along a random basis change."""
    return conjugated_algebra(base, rand_invertible(rng, base.dim))


def rand_cochain(rng: random.Random, arity: int, dim: int, degree: int,
                 density: float = 0.5):
    from nlie.cochains import Cochain, space_keys

    entries = {}
    for key in space_keys(dim, arity, degree):
        if rng.random() < density:
            v = rand_vector(rng, dim)
            if any(v):
                entries[key] = v
    return Cochain(arity, dim, degree, entries)


def circle_differential_matrix(alg, k: int) -> Matrix:
    """Matrix of the differential C^k -> C^(k+1) by the circle route: one
    ``gla_bracket(phi, psi)`` per basis cochain psi (the wedge differential
    at k = 0), columns in the order of ``cochain_to_vec``.  Oracle for the
    transposed four-sum assembly in ``differential_matrix``."""
    import itertools

    from nlie.algebra import basis_wedge
    from nlie.cochains import (Cochain, basis_cochains, from_bracket,
                               gla_bracket, space_keys, wedge_differential)
    from nlie.cohomology import cochain_to_vec
    from nlie.linalg import basis_vec

    phi = from_bracket(alg)
    n, m = alg.arity, alg.dim
    if k == 0:
        images = [wedge_differential(phi, basis_wedge(n - 1, m, key))
                  for key in itertools.combinations(range(m), n - 1)]
    elif k == 1:
        images = [gla_bracket(phi, Cochain(n, m, 0, {key: basis_vec(m, i)}))
                  for key in space_keys(m, n, 0) for i in range(m)]
    else:
        images = [gla_bracket(phi, psi)
                  for psi in basis_cochains(m, n, k - 1)]
    cols = [cochain_to_vec(d) for d in images]
    nrows = len(space_keys(m, n, k)) * m
    return Matrix(nrows, len(cols),
                  tuple(tuple(col[r] for col in cols) for r in range(nrows)))


def ce_betti(alg, k: int) -> int:
    """Betti number of the classical adjoint complex, ranks by the naive
    Gauss oracle (independent of the package's elimination)."""
    from nlie.chevalley import ce_differential_matrix, ce_dim

    rank_out = gauss_rank(ce_differential_matrix(alg, k))
    rank_in = gauss_rank(ce_differential_matrix(alg, k - 1)) if k >= 1 else 0
    return ce_dim(alg.dim, k) - rank_out - rank_in


def gauss_jordan(m: Matrix) -> tuple[int, tuple[int, ...],
                                     tuple[tuple[Fraction, ...], ...]]:
    """Rank, pivot columns and canonical nullspace by naive dense
    Gauss-Jordan over Fraction, independent of nlie.linalg.

    The rows are brought to reduced row echelon form; the nullspace has one
    vector per free column, with that coordinate 1, the other free
    coordinates 0 and each pivot coordinate minus the RREF entry in the
    free column.
    """
    rows = [list(r) for r in m.entries]
    pivots = []
    for c in range(m.cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(tuple(v))
    return len(pivots), tuple(pivots), tuple(basis)


def gauss_rank(m: Matrix) -> int:
    """Rank by the naive Gauss-Jordan oracle above."""
    return gauss_jordan(m)[0]
