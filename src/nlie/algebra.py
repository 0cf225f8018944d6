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
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .errors import DimensionMismatch, InvalidStructure
from .linalg import (Matrix, Support, Vector, column_supports, densify,
                     multilinear, support, vec_is_zero, vec_scale, vec_sub,
                     vec_zero)
from .trace import span, traced

Key = tuple[int, ...]


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


def basis_lookup(table: Mapping, module: bool = False,
                 memo: Optional[dict[Key, Support]] = None,
                 ) -> Callable[[Key], Support]:
    """Memoized map from a basis tuple in any order to the signed (index,
    value) support of its image in ``table`` (empty on a repeated index).
    With ``module`` the last index is a module index j and the key is
    ``(sorted rest, j)``, as in a representation's action.  The memo lives
    as long as the returned function: one per top-level call.  A caller
    that passes ``memo`` (an empty dict) can read the entries filled."""
    if memo is None:
        memo = {}

    def look(idx: Key) -> Support:
        out = memo.get(idx)
        if out is None:
            ss = sort_with_sign(idx[:-1] if module else idx)
            val = ss and table.get((ss[1], idx[-1]) if module else ss[1])
            out = memo[idx] = [(k, c if ss[0] == 1 else -c)
                               for k, c in enumerate(val or ()) if c]
        return out

    return look


def _scaled(sign: int, sup: Support) -> Support:
    return sup if sign == 1 else [(k, -c) for k, c in sup]


@dataclass(frozen=True)
class NLieAlgebra:
    """Structure constants of a skew n-ary bracket.

    ``structure`` maps strictly increasing n-tuples (0-based) to coefficient
    vectors; absent keys mean a zero bracket.  Treat instances as immutable.
    """

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
        key = tuple(key)
        if len(key) != arity:
            raise DimensionMismatch(f"bracket key {key!r} has wrong arity")
        if any(not 0 <= i < dim for i in key):
            raise DimensionMismatch(f"bracket key {key!r} out of range")
        if list(key) != sorted(set(key)):
            raise DimensionMismatch(
                f"bracket key {key!r} must be strictly increasing")
        vec = tuple(Fraction(c) for c in value)
        if len(vec) != dim:
            raise DimensionMismatch(f"value for {key!r} has wrong length")
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


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    witness: Optional[dict] = None


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
    Both sides are quadratic in the bracket, so they are summed in integers
    on ``integral_table`` and a witness divides them by L^2.

    The supports of ad_a = [a, e_j] are looked up once per acting tuple a.
    Both sides vanish where ad_a is zero, and on an inner tuple b whose own
    bracket is zero and whose entries ad_a all kills; such pairs are
    skipped, and the others are scanned in the same lexicographic order.
    The span counts the pairs evaluated as ``pairs``.
    """
    n, m = alg.arity, alg.dim
    scale, table = integral_table(alg)
    look = basis_lookup(table)
    inners = [(b, look(b)) for b in itertools.combinations(range(m), n)]
    pairs = 0
    with span("algebra.check_fundamental_identity") as sp:
        for a in itertools.combinations(range(m), n - 1):
            ad = [look(a + (j,)) for j in range(m)]
            active = {j for j in range(m) if ad[j]}
            if not active:
                continue
            for b, inner in inners:
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
                    lhs, rhs = (tuple(Fraction(x, scale * scale)
                                      for x in side) for side in (lhs, rhs))
                    return CheckResult(False, {
                        "acting": a, "inner": b,
                        "lhs": lhs, "rhs": rhs,
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


@dataclass(frozen=True)
class WedgeElement:
    """Element of the g-th exterior power, sparse over sorted basis tuples."""

    grade: int
    dim: int
    coords: dict[Key, Fraction]


def make_wedge(grade: int, dim: int,
               coords: Mapping[Key, Fraction | int]) -> WedgeElement:
    out: dict[Key, Fraction] = {}
    for key, c in coords.items():
        ss = sort_with_sign(tuple(key))
        if ss is None:
            continue
        sign, skey = ss
        if len(skey) != grade:
            raise DimensionMismatch(f"wedge key {key!r} has wrong grade")
        if any(not 0 <= i < dim for i in skey):
            raise DimensionMismatch(f"wedge key {key!r} out of range")
        acc = out.get(skey, Fraction(0)) + sign * Fraction(c)
        if acc == 0:
            out.pop(skey, None)
        else:
            out[skey] = acc
    return WedgeElement(grade, dim, out)


def basis_wedge(grade: int, dim: int, key: Key) -> WedgeElement:
    return make_wedge(grade, dim, {tuple(key): Fraction(1)})


def wedge_add(a: WedgeElement, b: WedgeElement) -> WedgeElement:
    if (a.grade, a.dim) != (b.grade, b.dim):
        raise DimensionMismatch("wedge grade/dim mismatch")
    coords = dict(a.coords)
    for k, c in b.coords.items():
        acc = coords.get(k, Fraction(0)) + c
        if acc == 0:
            coords.pop(k, None)
        else:
            coords[k] = acc
    return WedgeElement(a.grade, a.dim, coords)


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
    coords: dict[Key, Fraction] = {}
    for xk, cx in x.coords.items():
        for yk, cy in y.coords.items():
            cxy = cx * cy
            acted = [look(xk + (b,)) for b in yk]
            for moved, c in replace_slots(yk, acted):
                ss = sort_with_sign(moved)
                if ss is None:
                    continue
                sign, skey = ss
                acc = coords.get(skey, Fraction(0)) + sign * cxy * c
                if acc == 0:
                    coords.pop(skey, None)
                else:
                    coords[skey] = acc
    return WedgeElement(n - 1, m, coords)


@dataclass(frozen=True)
class Representation:
    """Action rho of (n-1)-tuples of algebra basis vectors on a module.

    ``action`` maps (strictly increasing (n-1)-tuple, module index) to the
    image vector in module coordinates; absent keys act as zero.
    """

    algebra_dim: int
    module_dim: int
    arity: int
    action: dict[tuple[Key, int], Vector]


def make_representation(algebra_dim: int, module_dim: int, arity: int,
                        action: Mapping[tuple[Key, int], Sequence[Fraction | int]]
                        ) -> Representation:
    table: dict[tuple[Key, int], Vector] = {}
    for (key, j), value in action.items():
        key = tuple(key)
        if len(key) != arity - 1 or list(key) != sorted(set(key)):
            raise DimensionMismatch(f"action key {key!r} invalid")
        if any(not 0 <= i < algebra_dim for i in key) or not 0 <= j < module_dim:
            raise DimensionMismatch("action key out of range")
        vec = tuple(Fraction(c) for c in value)
        if len(vec) != module_dim:
            raise DimensionMismatch("action value has wrong length")
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


@traced("algebra.check_representation")
def check_representation(alg: NLieAlgebra, rho: Representation) -> CheckResult:
    """Both representation conditions on all sorted basis tuples.

    (1)  rho(X)rho(Y) - rho(Y)rho(X) = sum_i rho(y_1,..,[X,y_i],..,y_{n-1})
    (2)  rho(x_1..x_{n-2}, [y_1..y_n]) =
             sum_i (-1)^(n-i) rho(y_1..ŷ_i..y_n) rho(x_1..x_{n-2}, y_i)

    applied to every module basis vector.  The insertion signs in (2) are
    the same (-1)^(n-i) weights that drive the semidirect product.
    """
    n, m, r = alg.arity, alg.dim, rho.module_dim
    if rho.algebra_dim != m or rho.arity != n:
        raise DimensionMismatch("representation does not match the algebra")
    look = basis_lookup(alg.structure)
    act = basis_lookup(rho.action, module=True)
    for x in itertools.combinations(range(m), n - 1):
        for y in itertools.combinations(range(m), n - 1):
            moves = replace_slots(y, [look(x + (yi,)) for yi in y])
            for j in range(r):
                lhs = multilinear([act(y + (j,))], lambda k: act(x + k))
                multilinear([_scaled(-1, act(x + (j,)))],
                            lambda k: act(y + k), lhs)
                lhs = densify(lhs, r)
                rhs = densify(multilinear(
                    [moves], lambda key: act(key[0] + (j,))), r)
                if lhs != rhs:
                    return CheckResult(False, {
                        "condition": 1, "x": x, "y": y, "xi": j,
                        "lhs": lhs, "rhs": rhs})
    for x in itertools.combinations(range(m), n - 2):
        for y in itertools.combinations(range(m), n):
            inner = look(y)
            for j in range(r):
                lhs = densify(multilinear(
                    [inner], lambda k: act(x + k + (j,))), r)
                rhs: dict[int, Fraction] = {}
                for i in range(n):
                    sign = -1 if (n - 1 - i) % 2 else 1
                    rest = y[:i] + y[i + 1:]
                    multilinear([_scaled(sign, act(x + (y[i], j)))],
                                lambda k: act(rest + k), rhs)
                rhs = densify(rhs, r)
                if lhs != rhs:
                    return CheckResult(False, {
                        "condition": 2, "x": x, "y": y, "xi": j,
                        "lhs": lhs, "rhs": rhs})
    return CheckResult(True)


def semidirect_product(alg: NLieAlgebra, rho: Representation) -> NLieAlgebra:
    """Bracket on algebra ⊕ module:

        [x_1+xi_1,..,x_n+xi_n] = [x_1..x_n]
            + sum_i (-1)^(n-i) rho(x_1,..,x̂_i,..,x_n) xi_i

    Module basis vectors sit at indices dim..dim+module_dim-1.  Tuples with
    two or more module entries bracket to zero.  The representation is
    validated first.
    """
    rep_check = check_representation(alg, rho)
    if not rep_check.holds:
        raise InvalidStructure("representation conditions fail",
                               witness=rep_check.witness)
    n, m, r = alg.arity, alg.dim, rho.module_dim
    total = m + r
    table: dict[Key, Vector] = {}
    for key, val in alg.structure.items():
        table[key] = val + vec_zero(r)
    for key in itertools.combinations(range(m), n - 1):
        for j in range(r):
            val = rho.action.get((key, j))
            if val is not None and not vec_is_zero(val):
                table[key + (m + j,)] = vec_zero(m) + val
    return NLieAlgebra(n, total, table)


@traced("algebra.check_o_operator")
def check_o_operator(alg: NLieAlgebra, rho: Representation,
                     t: Matrix) -> CheckResult:
    """Checks the O-operator identity for T: module -> algebra:

        [T xi_1,..,T xi_n] =
            sum_i (-1)^(n-i) T( rho(T xi_1,..,T̂ xi_i,..,T xi_n) xi_i )

    on every strictly increasing n-tuple of module basis vectors.  Both
    sides are multilinear and alternating in xi: the left because the
    bracket is skew, the right because it is the alternation
    sum_i (-1)^(n-i) f(xi_1..ξ̂_i..xi_n, xi_i) of a map f that is skew in
    its first n-1 slots, as rho is.  So a tuple with a repeat has zero
    defect and a reordering only flips the defect's sign: the sorted
    tuples decide the identity, and the lexicographically first failing
    ordered tuple is itself sorted, so the witness is the one a scan of
    all r^n ordered tuples reports.  T is applied once, to the summed
    rho-terms.
    """
    n, m, r = alg.arity, alg.dim, rho.module_dim
    if t.rows != m or t.cols != r:
        raise DimensionMismatch("operator must map the module to the algebra")
    look = basis_lookup(alg.structure)
    act = basis_lookup(rho.action, module=True)
    t_sups = column_supports(t)
    for xi in itertools.combinations(range(r), n):
        lhs = densify(multilinear([t_sups[j] for j in xi], look), m)
        acted: dict[int, Fraction] = {}
        for i in range(n):
            sign = -1 if (n - 1 - i) % 2 else 1
            multilinear([t_sups[j] for j in xi[:i] + xi[i + 1:]]
                        + [[(xi[i], sign)]], act, acted)
        rhs = t.apply(densify(acted, r))
        if lhs != rhs:
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
