"""Finite-dimensional Filippov (n-Lie) algebras over the rationals.

An algebra is a skew n-ary bracket given by structure constants on strictly
increasing basis tuples; evaluation on arbitrary tuples sorts the arguments
and tracks the permutation sign, with repeated indices collapsing to zero.
The fundamental identity

    [x_1..x_{n-1}, [y_1..y_n]] = sum_i [y_1,..,[x_1..x_{n-1}, y_i],..,y_n]

is the n-ary replacement for Jacobi; `check_fundamental_identity` decides it
exhaustively on basis tuples, which suffices by multilinearity.

Representations, semidirect products and O-operators follow the usual n-ary
conventions: the module insertion signs are (-1)^(n-i), with the module slot
counted from the right.

Every table in the package (brackets, actions, wedges, cochains and the
algebroid tables) keys its entries by one rule, ``basis_key``: a tuple of
strictly increasing int indices, 0-based, of a fixed length and below a
fixed bound (``make_wedge`` takes a key in any order, sorts it with its
sign and drops it on a repeat); ``coeff_vector`` reads Fraction vectors.
``fundamental_bracket`` is the Leibniz bracket on (n-1)-wedges.
Paper API that nothing here calls: ``fundamental_bracket``, ``ad_map``,
``make_representation`` and ``adjoint_representation``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .errors import DimensionMismatch, InvalidStructure
from .linalg import (Matrix, Support, Vector, densify, integer_rows,
                     multilinear, support, vec_is_zero, vec_scale, vec_sub,
                     vec_zero)
from .record import Record
from .trace import span, traced

Key = tuple[int, ...]


def basis_key(key: Sequence[int], length: int, bound: int, what: str,
              ordered: bool = True) -> Key:
    """``key`` as a tuple: ``length`` int indices (not bools) in
    0..bound-1, strictly increasing if ``ordered``, else DimensionMismatch."""
    key = tuple(key)
    if (len(key) != length
            or not all(type(i) is int and 0 <= i < bound for i in key)
            or ordered and any(a >= b for a, b in zip(key, key[1:]))):
        order = "strictly increasing " if ordered else ""
        raise DimensionMismatch(f"bad {what} key {key!r}: need {length} "
                                f"{order}integer indices in 0..{bound - 1}")
    return key


def coeff_vector(value: Sequence[Fraction | int], dim: int,
                 what: str) -> Vector:
    """``value`` as a tuple of ``dim`` Fractions, else DimensionMismatch."""
    vec = tuple(Fraction(c) for c in value)
    if len(vec) != dim:
        raise DimensionMismatch(f"{what} has length {len(vec)}, not {dim}")
    return vec


def sort_with_sign(idx: Sequence[int]) -> Optional[tuple[int, Key]]:
    """Sort a tuple of basis indices, returning (sign, sorted) or None if an
    index repeats.  Sign is the parity of the sorting permutation."""
    seen = set(idx)
    if len(seen) != len(idx):
        return None
    sign = 1
    lst = list(idx)
    # insertion sort; inversions flip the sign
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


def merge_index(block: Key, z: int) -> Optional[tuple[int, Key]]:
    """Sign and sorted key of the wedge block ∧ e_z (z appended last);
    ``block`` is strictly increasing."""
    pos = bisect_left(block, z)
    if pos < len(block) and block[pos] == z:
        return None
    sign = -1 if (len(block) - pos) % 2 else 1
    return sign, block[:pos] + (z,) + block[pos:]


def replace_slots(key: Key,
                  sups: Sequence[Support]) -> list[tuple[Key, Fraction]]:
    """Support of sum_i key with slot i replaced by the vector whose
    support is sups[i]: the pairs (key with e_k in slot i, coefficient of
    e_k).  This is how a derivation acts on a tuple of basis vectors."""
    return [(key[:i] + (k,) + key[i + 1:], c)
            for i, sup in enumerate(sups) for k, c in sup]


def basis_lookup(table: Mapping, memo: Optional[dict[Key, Support]] = None,
                 ) -> Callable[[Key], Support]:
    """Memoized map from a basis tuple in any order to the signed (index,
    value) support of its image in ``table`` (empty on a repeated index).
    The memo lives as long as the returned function: one per top-level
    call.  A caller that passes ``memo`` (an empty dict) can read the
    entries filled."""
    if memo is None:
        memo = {}

    def look(idx: Key) -> Support:
        out = memo.get(idx)
        if out is None:
            ss = sort_with_sign(idx)
            val = ss and table.get(ss[1])
            out = memo[idx] = [(k, c if ss[0] == 1 else -c)
                               for k, c in enumerate(val or ()) if c]
        return out

    return look


class NLieAlgebra(Record):
    """Structure constants of a skew n-ary bracket.

    ``structure`` maps strictly increasing n-tuples (0-based) to coefficient
    vectors; absent keys mean a zero bracket.  Treat instances as immutable.
    """

    __slots__ = ("arity", "dim", "structure")
    arity: int
    dim: int
    structure: dict[Key, Vector]


def make_algebra(arity: int, dim: int,
                 brackets: Mapping[Key, Sequence[Fraction | int]]) -> NLieAlgebra:
    if arity < 2:
        raise DimensionMismatch("arity must be at least 2")
    if dim < 1:
        raise DimensionMismatch("dimension must be positive")
    table: dict[Key, Vector] = {}
    for key, value in brackets.items():
        key = basis_key(key, arity, dim, "bracket")
        vec = coeff_vector(value, dim, "bracket value")
        if not vec_is_zero(vec):
            table[key] = vec
    return NLieAlgebra(arity, dim, table)


def bracket_on_basis(alg: NLieAlgebra, idx: Sequence[int]) -> Vector:
    """Bracket of basis vectors in any order; sorts and signs the tuple."""
    ss = sort_with_sign(idx)
    if ss is None:
        return vec_zero(alg.dim)
    sign, key = ss
    val = alg.structure.get(key)
    if val is None:
        return vec_zero(alg.dim)
    return val if sign == 1 else vec_scale(-1, val)


def bracket_eval(alg: NLieAlgebra, args: Sequence[Vector]) -> Vector:
    """Multilinear evaluation of the bracket on arbitrary vectors."""
    n, m = alg.arity, alg.dim
    if len(args) != n:
        raise DimensionMismatch(f"bracket takes {n} arguments")
    for v in args:
        if len(v) != m:
            raise DimensionMismatch("argument of wrong dimension")
    return densify(multilinear([support(v) for v in args],
                               basis_lookup(alg.structure)), m)


class CheckResult(Record):
    __slots__ = ("holds", "witness")
    holds: bool
    witness: Optional[dict]

    def __init__(self, holds, witness=None):
        super().__init__(holds, witness)


def integral_table(alg: NLieAlgebra) -> tuple[int, dict[Key, tuple[int, ...]]]:
    """(L, T): L the least common denominator of the structure constants
    and T the structure table times L, in integers.  A quantity linear in
    the bracket is L times its value on T; a quadratic one, L^2 times."""
    scale = lcm(*(x.denominator for v in alg.structure.values() for x in v))
    return scale, {key: tuple(x.numerator * (scale // x.denominator)
                              for x in v)
                   for key, v in alg.structure.items()}


def check_fundamental_identity(alg: NLieAlgebra) -> CheckResult:
    """Exhaustive fundamental-identity check on sorted basis tuples.

    Returns the lexicographically first failing pair of tuples as a witness:
    the (n-1)-tuple acting, the inner n-tuple, both sides and their defect.
    The span counts the pairs evaluated as ``pairs``.
    """
    with span("algebra.check_fundamental_identity") as sp:
        return _fi_scan(alg, sp)


def _fi_scan(alg: NLieAlgebra, sp,
             degree: Callable[[Key], int] = lambda key: 0,
             total: int = 0) -> CheckResult:
    """FI on the pairs (a, b) of sorted basis tuples, a acting and b inner,
    with degree(a) + degree(b) == total (all pairs by default), in
    lexicographic order.  The inner tuples are grouped by degree once, so
    each acting tuple walks one list.  The pairs evaluated are counted
    into ``sp`` as ``pairs``.

    Both sides are quadratic in the bracket, so they are summed in integers
    on ``integral_table`` and a witness divides them by L^2.  The supports
    of ad_a = [a, e_j] are looked up once per acting tuple a.  Both sides
    vanish where ad_a is zero, and on an inner tuple b whose own bracket is
    zero and whose entries ad_a all kills; such pairs are skipped.
    """
    n, m = alg.arity, alg.dim
    scale, table = integral_table(alg)
    look = basis_lookup(table)
    inners: dict[int, list[tuple[Key, Support]]] = {}
    for b in itertools.combinations(range(m), n):
        inners.setdefault(degree(b), []).append((b, look(b)))
    pairs = 0
    for a in itertools.combinations(range(m), n - 1):
        walk = inners.get(total - degree(a))
        if not walk:
            continue
        ad = [look(a + (j,)) for j in range(m)]
        active = {j for j in range(m) if ad[j]}
        if not active:
            continue
        for b, inner in walk:
            if not inner and active.isdisjoint(b):
                continue
            pairs += 1
            lhs = [0] * m
            for k, c in inner:
                for j, x in ad[k]:
                    lhs[j] += c * x
            rhs = [0] * m
            for i, y in enumerate(b):
                for k, c in ad[y]:
                    for j, x in look(b[:i] + (k,) + b[i + 1:]):
                        rhs[j] += c * x
            if lhs != rhs:
                sp.count(pairs=pairs)
                lhs, rhs = (tuple(Fraction(x, scale * scale) for x in side)
                            for side in (lhs, rhs))
                return CheckResult(False, {
                    "acting": a, "inner": b, "lhs": lhs, "rhs": rhs,
                    "defect": vec_sub(lhs, rhs)})
    sp.count(pairs=pairs)
    return CheckResult(True)


def require_fi(alg: NLieAlgebra) -> None:
    """Raise InvalidStructure with the witness of a failing
    ``check_fundamental_identity``."""
    res = check_fundamental_identity(alg)
    if not res.holds:
        raise InvalidStructure("bracket fails the fundamental identity",
                               witness=res.witness)


class WedgeElement(Record):
    """Element of the g-th exterior power, sparse over sorted basis tuples."""

    __slots__ = ("grade", "dim", "coords")
    grade: int
    dim: int
    coords: dict[Key, Fraction]


def make_wedge(grade: int, dim: int,
               coords: Mapping[Key, Fraction | int]) -> WedgeElement:
    out: dict[Key, Fraction] = {}
    for key, c in coords.items():
        # length, type and range first; a repeat then makes the key zero
        ss = sort_with_sign(basis_key(key, grade, dim, "wedge", ordered=False))
        if ss is None:
            continue
        sign, skey = ss
        acc = out.get(skey, Fraction(0)) + sign * Fraction(c)
        if acc == 0:
            out.pop(skey, None)
        else:
            out[skey] = acc
    return WedgeElement(grade, dim, out)


def fundamental_bracket(alg: NLieAlgebra, x: WedgeElement,
                        y: WedgeElement) -> WedgeElement:
    """Bracket on (n-1)-wedges induced by the action of x:

        [x, y] = sum_i y_1 ∧ .. ∧ [x_1..x_{n-1}, y_i] ∧ .. ∧ y_{n-1}.

    This makes the (n-1)-th exterior power a Leibniz algebra whenever the
    fundamental identity holds.
    """
    n, m = alg.arity, alg.dim
    if x.grade != n - 1 or y.grade != n - 1 or x.dim != m or y.dim != m:
        raise DimensionMismatch("fundamental bracket needs (n-1)-wedges")
    look = basis_lookup(alg.structure)
    # keys come out unsorted; make_wedge sorts, signs and sums them
    return make_wedge(n - 1, m, multilinear(
        [x.coords.items(), y.coords.items()],
        lambda keys: replace_slots(keys[1], [look(keys[0] + (b,))
                                             for b in keys[1]])))


class Representation(Record):
    """Action rho of (n-1)-tuples of algebra basis vectors on a module.

    ``action`` maps (strictly increasing (n-1)-tuple, module index) to the
    image vector in module coordinates; absent keys act as zero.
    """

    __slots__ = ("algebra_dim", "module_dim", "arity", "action")
    algebra_dim: int
    module_dim: int
    arity: int
    action: dict[tuple[Key, int], Vector]


def make_representation(algebra_dim: int, module_dim: int, arity: int,
                        action: Mapping[tuple[Key, int], Sequence[Fraction | int]]
                        ) -> Representation:
    table: dict[tuple[Key, int], Vector] = {}
    for (key, j), value in action.items():
        key = basis_key(key, arity - 1, algebra_dim, "action")
        (j,) = basis_key((j,), 1, module_dim, "module")
        vec = coeff_vector(value, module_dim, "action value")
        if not vec_is_zero(vec):
            table[(key, j)] = vec
    return Representation(algebra_dim, module_dim, arity, table)


def adjoint_representation(alg: NLieAlgebra) -> Representation:
    """The algebra acting on itself by its own bracket."""
    n, m = alg.arity, alg.dim
    action: dict[tuple[Key, int], Vector] = {}
    for key in itertools.combinations(range(m), n - 1):
        for j in range(m):
            val = bracket_on_basis(alg, key + (j,))
            if not vec_is_zero(val):
                action[(key, j)] = val
    return Representation(m, m, n, action)


def check_representation(alg: NLieAlgebra, rho: Representation) -> CheckResult:
    """Both representation conditions on all sorted basis tuples,

    (1)  rho(X)rho(Y) - rho(Y)rho(X) = sum_i rho(y_1,..,[X,y_i],..,y_{n-1})
    (2)  rho(x_1..x_{n-2}, [y_1..y_n]) =
             sum_i (-1)^(n-i) rho(y_1..ŷ_i..y_n) rho(x_1..x_{n-2}, y_i)

    on every module basis vector, decided by FI on the unvalidated table
    of g ⋉ V.  Lemma: split FI on basis tuples a (acting) and b (inner) of
    g ⋉ V by the number of module entries in a and b together.
      None: it is FI on g.
      Two or more: every term of either side brackets a tuple with two
        module entries, which is zero.
      One, in b: by skewness b = (y_1..y_(n-1), xi), and FI reads
        rho(a)rho(y)xi = sum_i rho(y_1..[a, y_i]..y_(n-1))xi
        + rho(y)rho(a)xi, which is (1).
      One, in a: a = (x_1..x_(n-2), xi), so [x, xi, z] = -rho(x, z)xi,
        and xi' in slot i of b gives [b_1..xi'..b_n] =
        (-1)^(n-i) rho(b_1..b̂_i..b_n)xi'; FI reads -rho(x, [b])xi =
        -sum_i (-1)^(n-i) rho(b_1..b̂_i..b_n)rho(x, b_i)xi, which is (2).
    So the pairs with one module index decide (1) and (2), and then FI on
    g ⋉ V is FI on g.  The witness is FI's, in g ⋉ V indices (module basis
    vector j at dim + j); the span counts the pairs evaluated.
    """
    return _checked_product(alg, rho)[1]


def _product(alg: NLieAlgebra, rho: Representation) -> NLieAlgebra:
    """The table of ``semidirect_product``, not validated."""
    n, m, r = alg.arity, alg.dim, rho.module_dim
    if rho.algebra_dim != m or rho.arity != n:
        raise DimensionMismatch("representation does not match the algebra")
    table = {key: val + vec_zero(r) for key, val in alg.structure.items()}
    for (key, j), val in sorted(rho.action.items()):
        if not vec_is_zero(val):
            table[key + (m + j,)] = vec_zero(m) + val
    return NLieAlgebra(n, m + r, table)


def _checked_product(alg: NLieAlgebra, rho: Representation,
                     ) -> tuple[NLieAlgebra, CheckResult]:
    """The table of g ⋉ V and ``check_representation`` on it."""
    with span("algebra.check_representation") as sp:
        sd, m = _product(alg, rho), alg.dim
        return sd, _fi_scan(
            sd, sp, lambda key: len(key) - bisect_left(key, m), 1)


def semidirect_product(alg: NLieAlgebra, rho: Representation) -> NLieAlgebra:
    """Bracket on algebra ⊕ module:

        [x_1+xi_1,..,x_n+xi_n] = [x_1..x_n]
            + sum_i (-1)^(n-i) rho(x_1,..,x̂_i,..,x_n) xi_i

    Module basis vectors sit at indices dim..dim+module_dim-1.  Tuples with
    two or more module entries bracket to zero.  The table is built once
    and returned after ``check_representation`` holds on it.
    """
    sd, rep_check = _checked_product(alg, rho)
    if not rep_check.holds:
        raise InvalidStructure("representation conditions fail",
                               witness=rep_check.witness)
    return sd


@traced("algebra.check_o_operator")
def check_o_operator(alg: NLieAlgebra, rho: Representation,
                     t: Matrix) -> CheckResult:
    """Checks the O-operator identity for T: module -> algebra:

        [T xi_1,..,T xi_n] =
            sum_i (-1)^(n-i) T( rho(T xi_1,..,T̂ xi_i,..,T xi_n) xi_i )

    on every strictly increasing n-tuple of module basis vectors: both
    sides are alternating in xi (the right as the alternation of a map
    skew in its first n-1 slots, as rho is), so the sorted tuples decide
    the identity and the first failing ordered tuple is sorted.  Both
    sides are read off one bracket of the graph vectors T xi_j + xi_j in
    the unvalidated table of g ⋉ V, where two module entries bracket to
    zero: its algebra part is the left side, T of its module part the
    right.

    Both sides are homogeneous of degree n in T, so they are compared in
    integers.  Let S clear the table's denominators and L those of T.  On
    the table times S, with graph vectors (L·T) xi_j + xi_j, the algebra
    part (T in all n slots) is S·L^n times the left side, and the module
    part (T in n-1 slots) S·L^(n-1) times its value, so L·T of it is S·L^n
    times the right side.  The witness divides both by S·L^n.
    """
    m, r = alg.dim, rho.module_dim
    if t.rows != m or t.cols != r:
        raise DimensionMismatch("operator must map the module to the algebra")
    scale, table = integral_table(_product(alg, rho))
    look = basis_lookup(table)
    den, rows = integer_rows(t)
    graph = [[(m + j, 1)] for j in range(r)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            graph[j].append((i, a))
    for xi in itertools.combinations(range(r), alg.arity):
        both = multilinear([graph[j] for j in xi], look)
        lhs = [both.get(i, 0) for i in range(m)]
        rhs = [sum(a * both.get(m + j, 0) for j, a in row.items())
               for row in rows]
        if lhs != rhs:
            div = scale * den ** alg.arity
            lhs, rhs = (tuple(Fraction(x, div) for x in side)
                        for side in (lhs, rhs))
            return CheckResult(False, {"xi": xi, "lhs": lhs, "rhs": rhs,
                                       "defect": vec_sub(lhs, rhs)})
    return CheckResult(True)


def ad_map(alg: NLieAlgebra, x: WedgeElement) -> Matrix:
    """Matrix of z -> [x_1,..,x_{n-1}, z] for a fixed (n-1)-wedge x."""
    n, m = alg.arity, alg.dim
    if x.grade != n - 1 or x.dim != m:
        raise DimensionMismatch("ad needs an (n-1)-wedge")
    look = basis_lookup(alg.structure)
    cols = [densify(multilinear([x.coords.items()],
                                lambda key: look(key[0] + (j,))), m)
            for j in range(m)]
    return Matrix.from_cols(cols, m)
