"""Small catalog of standard algebras used by the docs, CLI and tests."""

from __future__ import annotations

import itertools

from .algebra import NLieAlgebra, bracket_eval, make_algebra
from .linalg import Factorization, Matrix, Refusal, integer_rows


def levi_civita_bracket() -> NLieAlgebra:
    """The 4-dimensional ternary bracket [e_i,e_j,e_k] = eps_{ijkl} e_l."""
    return make_algebra(3, 4, {
        (0, 1, 2): (0, 0, 0, 1),
        (0, 1, 3): (0, 0, -1, 0),
        (0, 2, 3): (0, 1, 0, 0),
        (1, 2, 3): (-1, 0, 0, 0),
    })


def sl2() -> NLieAlgebra:
    """sl(2) with basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return make_algebra(2, 3, {
        (0, 1): (0, 2, 0),
        (0, 2): (0, 0, -2),
        (1, 2): (1, 0, 0),
    })


def heisenberg3() -> NLieAlgebra:
    """3-dimensional Heisenberg Lie algebra: [x,y] = z."""
    return make_algebra(2, 3, {(0, 1): (0, 0, 1)})


def zero_algebra(dim: int, arity: int) -> NLieAlgebra:
    return make_algebra(arity, dim, {})


def broken_ternary_bracket() -> NLieAlgebra:
    """A ternary bracket that violates the fundamental identity:
    [e1,e2,e3] = e1 and [e1,e2,e4] = e4 (e2∧e3 acting on the latter fails).
    """
    return make_algebra(3, 4, {
        (0, 1, 2): (1, 0, 0, 0),
        (0, 1, 3): (0, 0, 0, 1),
    })


def conjugated_algebra(alg: NLieAlgebra, p: Matrix) -> NLieAlgebra:
    """Transport of structure along an invertible basis change P:
    [x_1..x_n]' = P^-1 [P x_1,..,P x_n].  Preserves the fundamental
    identity, so this is how the tests mass-produce valid algebras.

    P is factored once, as the integer matrix D·P (D the lcm of its
    denominators), which checks its rank both ways, and each bracket
    solves (D·P) x = D·[P x_1,..,P x_n] on it."""
    if p.rows != alg.dim or p.cols != alg.dim:
        raise ValueError("basis change must be square of the algebra's size")
    den, rows = integer_rows(p)
    fac = Factorization(rows, p.cols)
    if fac.rank != alg.dim:
        raise ValueError("basis change must be invertible")
    n, m = alg.arity, alg.dim
    cols = [p.column(j) for j in range(m)]
    table = {}
    for key in itertools.combinations(range(m), n):
        img = bracket_eval(alg, [cols[i] for i in key])
        sol = fac.solve([den * x for x in img])
        if isinstance(sol, Refusal):
            raise ArithmeticError("invertible basis change left no solution")
        if any(c != 0 for c in sol):
            table[key] = sol
    return make_algebra(n, m, table)
