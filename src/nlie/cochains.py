"""Multiderivation cochains of a skew n-ary bracket and their graded bracket.

A cochain of degree p eats p wedge blocks of grade n-1 plus one extra vector;
the final block and the extra vector only ever enter through their wedge, so
entries are stored on keys

    ((B_1, .., B_{p-1}), W)

with each B_i a strictly increasing (n-1)-tuple and W a strictly increasing
n-tuple.  Degree 0 is a plain linear map, keyed by ((), (j,)).  Degree -1
(a single (n-1)-wedge) lives as ``algebra.WedgeElement`` and only shows up
in ``differential``.  One rule, ``_locate``, finds the entry a cochain
takes on sorted basis blocks and e_z: the last block wedges with e_z (sign
from sorting, zero on a repeat), and degree 0 reads ((), (z,)).
``eval_keys_z`` and ``coboundary_rows`` read through it.

An integral entry is stored as an ``int`` and only a non-integral one as a
``Fraction``, by the rule of ``poly._coeff``, applied where entries enter
(``make_cochain``, ``vec_to_cochain``, ``from_bracket``,
``cochain_scale``).  The circle products clear denominators once:
``circle_sum`` scales the operands by the lcm of their entry denominators,
sums the products in Python ints and divides each output entry once, so on
integral operands nothing is divided and no Fraction is made.

The circle product composes D1 (degree p) with D2 (degree q).  With the
final vector appended to the arguments as a one-slot block (z), for
0 <= k <= p and a (k,q)-shuffle s of the first k+q arguments, D2 swallows
the arguments s selects for it plus one slot of block number k+q+1, its
output e_j fills that slot, and D1 reads the rest; the term carries
sign(s) * (-1)^(k*q).  For k < p this inserts into a wedge block; k = p is
the composition term, where the slot is the final vector itself.
``circle`` scatters these terms from the operands' nonzero entries, and
keeps a term only at the split of its final wedge that the output key
stores.

Summing over k and shuffles gives D1 ∘ D2, and

    [D1, D2] = (-1)^(p*q) D1 ∘ D2  -  D2 ∘ D1

is the graded bracket.  A skew n-bracket seen as a degree-1 cochain squares
to zero under ∘ exactly when its fundamental identity holds, which makes
``maurer_cartan_defect`` the bracket-validity certificate and
``differential`` (bracketing with the structure cochain) the deformation
differential.

The convention note that matters when reading the sums: the insertion block
index k+q+1 is counted with q = deg(D2) for either operand order; both
orders run through the same routine with the roles swapped.
``from_matrix`` reads a linear map as a degree-0 cochain.
Paper API that nothing here calls: ``from_matrix`` and
``is_filippov_derivation``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Mapping, Optional, Sequence, Union

from .algebra import (Key, NLieAlgebra, WedgeElement, basis_key,
                      basis_lookup, bracket_on_basis, coeff_vector,
                      merge_index, replace_slots, sort_with_sign)
from .errors import DimensionMismatch, InvalidStructure
from .linalg import (Matrix, Vector, basis_vec, column_supports, densify,
                     multilinear, support, vec_is_zero, vec_scale, vec_zero)
from .poly import _coeff
from .record import Record, _set
from .trace import span, traced

CochainKey = tuple[tuple[Key, ...], Key]
# one sparse matrix row: column -> coefficient (int on an integer table)
Row = dict[int, Fraction]


class Cochain(Record):
    """Sparse multiderivation cochain; absent keys are zero.  An entry
    component is an int when integral at entry, else a Fraction."""

    __slots__ = ("arity", "dim", "degree", "entries")
    arity: int
    dim: int
    degree: int
    entries: dict[CochainKey, Vector]

    def __init__(self, arity, dim, degree, entries):
        _set(self, "arity", arity)
        _set(self, "dim", dim)
        _set(self, "degree", degree)
        _set(self, "entries", entries)


def cochain_dim(dim: int, arity: int, degree: int) -> int:
    """Dimension of the degree-p cochain space, p >= 1:
    C(m, n-1)^(p-1) * C(m, n) * m."""
    if degree < 1:
        raise DimensionMismatch("cochain spaces are graded from degree 1")
    return comb(dim, arity - 1) ** (degree - 1) * comb(dim, arity) * dim


def space_keys(dim: int, arity: int, degree: int) -> list[CochainKey]:
    """All storage keys of the given degree, lexicographically ordered."""
    if degree < 0:
        raise DimensionMismatch("no storage keys below degree 0")
    if degree == 0:
        return [((), (j,)) for j in range(dim)]
    blocks = list(itertools.combinations(range(dim), arity - 1))
    wedges = list(itertools.combinations(range(dim), arity))
    return [(bs, w)
            for bs in itertools.product(blocks, repeat=degree - 1)
            for w in wedges]


def basis_cochains(dim: int, arity: int, degree: int) -> list[Cochain]:
    """Indicator cochains spanning the degree-p space, key-major then
    component; degrees 0 and -1 live as matrices / wedges instead."""
    if degree < 1:
        raise DimensionMismatch("elementary cochains start at degree 1")
    out = []
    for key in space_keys(dim, arity, degree):
        for i in range(dim):
            out.append(Cochain(arity, dim, degree, {key: tuple(
                int(j == i) for j in range(dim))}))
    return out


def cochain_to_vec(d: Cochain) -> Vector:
    """Coordinates of d: ``space_keys`` order, then vector components."""
    out: list[Fraction] = []
    for key in space_keys(d.dim, d.arity, d.degree):
        out.extend(d.entries.get(key, vec_zero(d.dim)))
    return tuple(out)


def vec_to_cochain(vec: Vector, arity: int, dim: int, degree: int) -> Cochain:
    """Inverse of ``cochain_to_vec``."""
    keys = space_keys(dim, arity, degree)
    if len(vec) != len(keys) * dim:
        raise DimensionMismatch("vector length does not match the space")
    entries = {}
    for t, key in enumerate(keys):
        chunk = tuple(map(_coeff, vec[t * dim:(t + 1) * dim]))
        if not vec_is_zero(chunk):
            entries[key] = chunk
    return Cochain(arity, dim, degree, entries)


def make_cochain(arity: int, dim: int, degree: int,
                 entries: dict[CochainKey, Sequence[Fraction | int]]) -> Cochain:
    if degree < 0:
        raise DimensionMismatch("degree must be >= 0")
    table: dict[CochainKey, Vector] = {}
    for (blocks, last), value in entries.items():
        blocks = tuple(basis_key(b, arity - 1, dim, "tensor block")
                       for b in blocks)
        if len(blocks) != max(degree - 1, 0):
            raise DimensionMismatch(
                f"{len(blocks)} tensor blocks at degree {degree}")
        last = basis_key(last, arity if degree else 1, dim, "final wedge")
        vec = tuple(map(_coeff, coeff_vector(value, dim, "entry vector")))
        if not vec_is_zero(vec):
            table[(blocks, last)] = vec
    return Cochain(arity, dim, degree, table)


def cochain_zero(arity: int, dim: int, degree: int) -> Cochain:
    return Cochain(arity, dim, degree, {})


def cochain_is_zero(d: Cochain) -> bool:
    return not d.entries


def cochain_scale(c: Fraction | int, d: Cochain) -> Cochain:
    c = _coeff(c)
    if c == 0:
        return cochain_zero(d.arity, d.dim, d.degree)
    return Cochain(d.arity, d.dim, d.degree,
                   {k: vec_scale(c, v) for k, v in d.entries.items()})


def _locate(degree: int, blocks: tuple[Key, ...],
            z: int) -> Optional[tuple[int, CochainKey]]:
    """Sign and storage key of the entry a cochain of this degree takes on
    sorted basis blocks and e_z: the last block wedges with e_z (sign from
    sorting, None on a repeat); degree 0 is keyed ((), (z,))."""
    if degree == 0:
        return 1, ((), (z,))
    mi = merge_index(blocks[-1], z)
    return mi and (mi[0], (blocks[:-1], mi[1]))


def eval_keys_z(d: Cochain, blocks: tuple[Key, ...], z: int) -> Vector:
    """Evaluate on sorted basis blocks and a basis vector index."""
    at = _locate(d.degree, blocks, z)
    val = at and d.entries.get(at[1])
    if not val:
        return vec_zero(d.dim)
    return val if at[0] == 1 else vec_scale(-1, val)


def evaluate(d: Cochain, blocks: Sequence[WedgeElement], z: Vector) -> Vector:
    """Full multilinear evaluation on wedge elements and a vector."""
    n, m = d.arity, d.dim
    if len(blocks) != d.degree:
        raise DimensionMismatch(f"degree-{d.degree} cochain takes "
                                f"{d.degree} wedge blocks")
    for b in blocks:
        if b.grade != n - 1 or b.dim != m:
            raise DimensionMismatch("blocks must be (n-1)-wedges")
    if len(z) != m:
        raise DimensionMismatch("final vector has wrong length")
    return densify(multilinear(
        [b.coords.items() for b in blocks] + [support(z)],
        lambda keys: enumerate(eval_keys_z(d, keys[:-1], keys[-1]))), m)


@lru_cache(maxsize=None)
def shuffles(k: int, q: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(k,q)-shuffles of positions 0..k+q-1 with their signs.

    Each entry is (positions, sign) where positions lists the k slots routed
    to the outer operand followed by the q slots routed to the inner one;
    both runs are increasing.  Sign is the parity of that arrangement.
    """
    out = []
    for head in itertools.combinations(range(k + q), k):
        tail = tuple(i for i in range(k + q) if i not in head)
        inversions = sum(t < h for h in head for t in tail)
        out.append((head + tail, -1 if inversions % 2 else 1))
    return tuple(out)


def clear_denominators(
        ds: Sequence[Cochain]) -> tuple[int, list[dict[CochainKey, Vector]]]:
    """(L, tables): L the lcm of the denominators of every entry of ``ds``
    (1 when all are integral), and per cochain its entries times L, in
    ints.  A quantity linear in the cochains is L times its value on the
    tables."""
    den = lcm(*(x.denominator for d in ds for v in d.entries.values()
                for x in v))
    return den, [{key: tuple(x.numerator * (den // x.denominator)
                             for x in v)
                  for key, v in d.entries.items()} for d in ds]


def _splits(degree: int, table: dict[CochainKey, Vector]):
    """(blocks, y, above, value) per split of each entry's final wedge W
    into a last block and e_y, where above counts the indices of W above
    y: (-1)^above is the sign of the move, and above = 0 is the stored
    split.  A degree-0 entry ((), (y,)) has the one split ((), y, 0)."""
    for (blocks, w), v in table.items():
        for t, y in enumerate(w):
            yield (blocks + (w[:t] + w[t + 1:],) if degree else (), y,
                   len(w) - 1 - t, v)


def _scatter(p: int, t1: dict[CochainKey, Vector], q: int,
             t2: dict[CochainKey, Vector]):
    """The terms of D1 ∘ D2 as (output key, coefficient, support of a value
    of D1), read from the entry tables t1 of D1 (degree p) and t2 of D2
    (degree q): D1 is read on its blocks and final vector (y) as one list
    ``full``, and the value of D2 at output index j fills slot s of
    ``full[k]``, k <= p."""
    # D2's values by output index j, as (mid, x, (c, -c)) per split
    by_j: dict[int, list[tuple[tuple[Key, ...], int, tuple]]] = {}
    for mid, x, above, w in _splits(q, t2):
        for j, wj in support(w):
            cs = (-wj, wj) if above % 2 else (wj, -wj)
            by_j.setdefault(j, []).append((mid, x, cs))
    # block i of a shuffle is block order[i] of D1's head + D2's blocks
    orders = [[(tuple(sorted(range(k + q), key=pos.__getitem__)),
                -s if (k * q) % 2 else s) for pos, s in shuffles(k, q)]
              for k in range(p + 1)]
    for blocks, y, above, v in _splits(p, t1):
        sign1, sup, full = -1 if above % 2 else 1, support(v), blocks + ((y,),)
        # for k < p the output's final vector y must top the last block:
        # D1's own for k < p-1 (the stored split only), the new one for
        # k = p-1; at k = p it is x, checked per shuffle
        for k in range(0 if not above else p - 1 if above == 1 else p, p + 1):
            blk = full[k]
            for s in range(len(blk)):
                for mid, x, cs in by_j.get(blk[s], ()):
                    ss = sort_with_sign(blk[:s] + (x,) + blk[s + 1:])
                    if ss is None or k == p - 1 and ss[1][-1] >= y:
                        continue
                    src = full[:k] + mid
                    for order, sign in orders[k]:
                        if k == p and p + q and x <= src[order[-1]][-1]:
                            continue
                        out = (tuple(src[i] for i in order) + (ss[1],)
                               + full[k + 1:])
                        yield ((out[:-2], sum(out[-2:], ())),
                               cs[sign * ss[0] * sign1 < 0], sup)


def circle(d1: Cochain, d2: Cochain) -> Cochain:
    """The circle product D1 ∘ D2 of degree p+q (insertion plus composition
    terms over signed shuffles; see the module docstring for the signs),
    scattered from the operands' nonzero entries.  A term at arguments
    (args, z) is placed only where e_z is last in its output key's final
    wedge, the split the key stores: every other split holds the same value
    up to the sign of the move, so placing it there would count it twice."""
    return circle_sum(d1.arity, d1.dim, d1.degree + d2.degree, [(1, d1, d2)])


def circle_sum(arity: int, dim: int, degree: int,
               terms: Sequence[tuple[int, Cochain, Cochain]]) -> Cochain:
    """sum c · D1 ∘ D2 over the (c, D1, D2) of ``terms``, c an int and
    every product of degree ``degree``, summed into one integer table.

    Each product is scattered in ints, under one ``cochains.circle`` span,
    on its operands times their common denominator L
    (``clear_denominators``), so at scale L^2.  The products are added
    into one table at the lcm of their scales, and each output entry is
    divided by it once; on integral operands every scale is 1 and nothing
    is divided."""
    products = []
    for c, d1, d2 in terms:
        if {(d.arity, d.dim) for d in (d1, d2)} != {(arity, dim)}:
            raise DimensionMismatch("cochains over different algebras")
        if d1.degree + d2.degree != degree:
            raise DimensionMismatch(f"a product of degree "
                                    f"{d1.degree + d2.degree} in a sum of "
                                    f"degree {degree}")
        den, (t1, t2) = clear_denominators([d1, d2])
        with span("cochains.circle") as sp:
            part: dict[CochainKey, dict[int, int]] = {}
            count = 0
            for key, x, sup in _scatter(d1.degree, t1, d2.degree, t2):
                count += 1
                vals = part.setdefault(key, {})
                for i, vi in sup:
                    vals[i] = vals[i] + x * vi if i in vals else x * vi
            sp.count(operands=len(d1.entries) + len(d2.entries), terms=count,
                     nonzero=sum(any(v.values()) for v in part.values()))
        products.append((c, den * den, part))
    scale = lcm(*(s for _, s, _ in products))
    acc: dict[CochainKey, dict[int, int]] = {}
    for c, s, part in products:
        c *= scale // s
        if not acc and c == 1:
            acc = part
            continue
        for key, vals in part.items():
            into = acc.setdefault(key, {})
            for i, x in vals.items():
                into[i] = into.get(i, 0) + c * x
    entries = {key: tuple(_coeff(acc[key].get(i, 0), scale)
                          for i in range(dim))
               for key in sorted(acc) if any(acc[key].values())}
    return Cochain(arity, dim, degree, entries)


@traced("cochains.gla_bracket", lambda args, d: {
    "operands": sum(len(a.entries) for a in args), "nonzero": len(d.entries)})
def gla_bracket(d1: Cochain, d2: Cochain) -> Cochain:
    """Graded bracket [D1, D2] = (-1)^(pq) D1∘D2 - D2∘D1, both products
    summed into one table by ``circle_sum``, with no negated copy."""
    sign = -1 if (d1.degree * d2.degree) % 2 else 1
    return circle_sum(d1.arity, d1.dim, d1.degree + d2.degree,
                      [(sign, d1, d2), (-1, d2, d1)])


def maurer_cartan_defect(d: Cochain) -> Cochain:
    """[D, D]; zero for a degree-1 cochain exactly when the n-ary bracket it
    encodes satisfies the fundamental identity.  At degree p,
    [D, D] = ((-1)^(p·p) - 1) D∘D: -2 D∘D at odd p, zero at even p, so
    one circle product suffices."""
    if d.degree % 2 == 0:
        return cochain_zero(d.arity, d.dim, 2 * d.degree)
    return circle_sum(d.arity, d.dim, 2 * d.degree, [(-2, d, d)])


def from_bracket(alg: NLieAlgebra) -> Cochain:
    """The structure constants as the canonical degree-1 cochain."""
    return Cochain(alg.arity, alg.dim, 1,
                   {((), key): tuple(map(_coeff, val))
                    for key, val in alg.structure.items()})


def from_matrix(mat: Matrix, arity: int) -> Cochain:
    """A linear map as a degree-0 cochain."""
    if mat.rows != mat.cols:
        raise DimensionMismatch("degree-0 cochains are square maps")
    return make_cochain(arity, mat.rows, 0, {((), (j,)): mat.column(j)
                                             for j in range(mat.cols)})


def to_matrix(d: Cochain) -> Matrix:
    if d.degree != 0:
        raise DimensionMismatch("only degree-0 cochains are linear maps")
    m = d.dim
    cols = [d.entries.get(((), (j,)), vec_zero(m)) for j in range(m)]
    return Matrix.from_cols(cols, m)


def differential(phi: Cochain,
                 psi: Union[Cochain, WedgeElement]) -> Cochain:
    """Deformation differential: bracketing with the structure cochain.

    ``phi`` must be a degree-1 cochain with vanishing Maurer-Cartan defect
    (checked; this is the fundamental identity).  For psi of degree p >= 0
    this is gla_bracket(phi, psi); a degree -1 element (an (n-1)-wedge X)
    maps to the degree-0 cochain z -> phi(X ∧ z).
    """
    if phi.degree != 1:
        raise DimensionMismatch("structure cochain must have degree 1")
    defect = maurer_cartan_defect(phi)
    if not cochain_is_zero(defect):
        key, val = next(iter(sorted(defect.entries.items())))
        raise InvalidStructure(
            "structure cochain fails the Maurer-Cartan equation",
            witness={"key": key, "value": tuple(map(Fraction, val))})
    if isinstance(psi, WedgeElement):
        return wedge_differential(phi, psi)
    return gla_bracket(phi, psi)


def wedge_differential(phi: Cochain, x: WedgeElement) -> Cochain:
    """The differential on degree -1: the degree-0 cochain z -> phi(x ∧ z),
    read by ``evaluate``.  Unlike ``differential`` it does not check phi's
    Maurer-Cartan defect."""
    n, m = phi.arity, phi.dim
    if x.grade != n - 1 or x.dim != m:
        raise DimensionMismatch("degree -1 argument must be an (n-1)-wedge")
    cols = [evaluate(phi, [x], basis_vec(m, z)) for z in range(m)]
    return vec_to_cochain(sum(cols, ()), n, m, 0)


def coboundary_explicit(alg: NLieAlgebra, psi: Cochain) -> Cochain:
    """The differential written out as four explicit sums (no shuffles).

    For psi of degree p, evaluated on blocks X_1..X_{p+1} and z:

        sum_i (-1)^i     psi(.., X̂_i, .., [X_i-action on z])
      + sum_{i<j} (-1)^i psi(.., X̂_i, .., [X_i, X_j]-block at j, .., z)
      + sum_i (-1)^(i+1) [X_i-action on psi(.., X̂_i, .., z)]
      + (-1)^p sum_s [X_{p+1}^1, .., psi(X_1..X_p, X_{p+1}^s), .., z]

    with i, j counted from 1.  Applies the matrix of ``coboundary_rows`` to
    psi's coordinates.  Independent route from ``differential`` (no circle
    products); the two must agree on every cochain.
    """
    n, m = alg.arity, alg.dim
    if psi.arity != n or psi.dim != m:
        raise DimensionMismatch("cochain does not match the algebra")
    p = psi.degree
    x = cochain_to_vec(psi)
    rows = Matrix.from_sparse_rows(coboundary_rows(alg, p), len(x))
    return vec_to_cochain(rows.apply(x), n, m, p + 1)


def coboundary_rows(alg: NLieAlgebra, p: int,
                    table: Optional[Mapping] = None) -> list[Row]:
    """The four sums of ``coboundary_explicit`` in transposed form: the
    matrix of the differential on degree-p cochains, one sparse row per
    coordinate of degree p+1 (output key index * m + component), each row
    sorted by column with zeros absent.

    One pass over the output keys; wherever the sums read psi through
    ``eval_keys_z``, the coefficient of that coordinate of psi is recorded
    instead, under column (key index in ``space_keys(m, n, p)``) * m +
    component, the order of ``cochain_to_vec``.  At p = -1 the column of an
    (n-1)-wedge X is ``wedge_differential``: z -> [X, z].

    Each coordinate is located once: ``read`` keeps the (sign, first
    column) it finds for each (blocks, z), and ``action`` the nonzero terms
    (j, i, c) of [slot with e_j at pos] = sum_i c e_i for each slot with a
    hole at pos, so the third and fourth sums loop over a list and make no
    lookup.  Both dictionaries, like the wedge-bracket ``moves``, live for
    one call.  The ``cochains.coboundary_rows`` span counts the coordinates
    located, the action lists built and the entries written (one per
    multiply-add into a row), once per call.

    Brackets are read from ``table`` (``alg.structure`` by default)
    through one signed lookup, the wedge-bracket moves [X_i, X_j] too.
    Every entry is linear in the bracket, so on ``integral_table``'s
    integer table, L times the structure, the rows are those of L·d in
    integers.
    """
    n, m = alg.arity, alg.dim
    look = basis_lookup(alg.structure if table is None else table)
    with span("cochains.coboundary_rows") as sp:
        if p == -1:
            ad: list[Row] = [{} for _ in range(m * m)]
            for t, x in enumerate(itertools.combinations(range(m), n - 1)):
                for z in range(m):
                    for i, c in look(x + (z,)):
                        ad[z * m + i][t] = c
            return ad
        base_of = {key: t * m for t, key in enumerate(space_keys(m, n, p))}
        moves: dict[tuple[Key, Key], dict[Key, int]] = {}
        located: dict[tuple[tuple[Key, ...], int], tuple[int, ...]] = {}
        actions: dict[tuple[Key, int], list[tuple[int, int, int]]] = {}
        written = 0

        def move(xk: Key, yk: Key) -> dict[Key, int]:
            # [X, Y] = sum_i y_1 ∧ .. ∧ [X, y_i] ∧ .. ∧ y_(n-1), on basis
            # wedges
            if (xk, yk) not in moves:
                acc: dict[Key, int] = {}
                for moved, c in replace_slots(yk,
                                              [look(xk + (y,)) for y in yk]):
                    ss = sort_with_sign(moved)
                    if ss is not None:
                        acc[ss[1]] = acc.get(ss[1], 0) + \
                            (c if ss[0] == 1 else -c)
                moves[xk, yk] = {key: c for key, c in acc.items() if c}
            return moves[xk, yk]

        def read(blocks: tuple[Key, ...], z: int) -> tuple[int, ...]:
            # (sign, first column) of the entry eval_keys_z(psi, blocks, z)
            # reads, or () where z repeats an index of the last block
            key = blocks, z
            at = located.get(key)
            if at is None:
                at = _locate(p, blocks, z)
                at = located[key] = (at[0], base_of[at[1]]) if at else ()
            return at

        def action(rest: Key, pos: int) -> list[tuple[int, int, int]]:
            # the nonzero terms (j, i, c) of [rest with e_j at pos]
            key = rest, pos
            terms = actions.get(key)
            if terms is None:
                terms = actions[key] = [
                    (j, i, c) for j in range(m)
                    for i, c in look(rest[:pos] + (j,) + rest[pos:])]
            return terms

        rows: list[Row] = []
        for blocks, last in space_keys(m, n, p + 1):
            args = blocks + (last[:n - 1],)
            z = last[n - 1]
            out: list[Row] = [{} for _ in range(m)]

            def same(sign: int, c, at: tuple[int, ...]) -> None:
                # sign * c * psi(at): psi's value lands component by
                # component
                nonlocal written
                if at:
                    c = c if sign * at[0] == 1 else -c
                    col = at[1]
                    for row in out:
                        row[col] = row.get(col, 0) + c
                        col += 1
                    written += m

            def acted(sign: int, at: tuple[int, ...], rest: Key,
                      pos: int) -> None:
                # sign * sum_j psi(at)_j [rest with e_j at pos]
                nonlocal written
                if at:
                    terms = action(rest, pos)
                    sign *= at[0]
                    for j, i, c in terms:
                        col = at[1] + j
                        out[i][col] = out[i].get(col, 0) + \
                            (c if sign == 1 else -c)
                    written += len(terms)

            for i0 in range(p + 1):
                rem = args[:i0] + args[i0 + 1:]
                sign = -1 if (i0 + 1) % 2 else 1
                # first sum: z replaced by the X_i action on it
                for j, c in look(args[i0] + (z,)):
                    same(sign, c, read(rem, j))
                # third sum: X_i acts on the value
                acted(-sign, read(rem, z), args[i0], n - 1)
                # second sum: wedge-bracket of X_i into the X_j slot
                for j0 in range(i0 + 1, p + 1):
                    for skey, c in move(args[i0], args[j0]).items():
                        reduced = (args[:i0] + args[i0 + 1:j0] + (skey,)
                                   + args[j0 + 1:])
                        same(sign, c, read(reduced, z))
            # fourth sum: psi's value replaces slot s of the last block
            lastblock = args[p]
            for s in range(n - 1):
                acted(-1 if p % 2 else 1, read(args[:p], lastblock[s]),
                      lastblock[:s] + lastblock[s + 1:] + (z,), s)
            rows.extend({j: x for j, x in sorted(r.items()) if x}
                        for r in out)
        sp.count(coordinates_located=len(located),
                 action_lists=len(actions), entries_written=written)
    return rows


def is_filippov_derivation(alg: NLieAlgebra, mat: Matrix) -> bool:
    """Does the linear map satisfy D[x_1..x_n] = sum_i [x_1,..,D x_i,..,x_n]
    on all sorted basis tuples?"""
    n, m = alg.arity, alg.dim
    if mat.rows != m or mat.cols != m:
        raise DimensionMismatch("derivation candidate must be m x m")
    cols = column_supports(mat)
    for key in itertools.combinations(range(m), n):
        lhs = mat.apply(bracket_on_basis(alg, key))
        rhs = densify(multilinear(
            [replace_slots(key, [cols[j] for j in key])],
            lambda moved: enumerate(bracket_on_basis(alg, moved[0]))), m)
        if lhs != rhs:
            return False
    return True
