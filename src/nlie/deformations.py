"""One-parameter deformations of a skew n-bracket and their calculus.

A deformation path is phi_t = phi_0 + t phi_1 + .. + t^k phi_k with each
phi_i a degree-1 cochain.  Validity means [phi_t, phi_t] = 0 coefficient by
coefficient: through power k in truncated mode ("modulo t^(k+1)"), through
power 2k in full mode.  On degree-1 cochains [a, b] = -(a∘b + b∘a), so the
power-r coefficient is -2 sum_{i+j=r} phi_i ∘ phi_j over ordered pairs,
one circle product each; its phi_0 ∘ phi_r + phi_r ∘ phi_0 part is
-delta(phi_r), which gives the familiar cocycle condition at the first
power.

Equivalences are families Phi_t = Id + t M_1 + .. + t^k M_k acting by
conjugation; Phi_t^{-1} is applied by forward substitution in Phi_t psi = P,
never built as a series, in ints after t = D·u clears Phi_t's
denominators (``_integral_series``).  Conjugating by Id + t^m Psi shifts
phi_m by the coboundary of Psi, which is both the equivalence-class
statement for infinitesimals and the induction step the rigidity probe
replays.

Nijenhuis operators deform the bracket through the iterated brackets
[.]^k_N; the closure condition makes Phi_t = Id + tN intertwine the
deformed and original brackets as an exact polynomial identity in t.
Paper API that nothing here calls: ``infinitesimal_class``,
``check_homomorphism_family`` and ``deformation_from_nijenhuis``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .algebra import (CheckResult, Key, NLieAlgebra, Representation,
                      basis_lookup, check_o_operator, integral_table,
                      require_fi, semidirect_product)
from .cochains import (Cochain, circle_sum, clear_denominators,
                       cochain_is_zero, cochain_to_vec, cochain_zero,
                       from_bracket, gla_bracket, to_matrix, vec_to_cochain)
from .cohomology import Complex, complex_dim
from .errors import DimensionMismatch, InvalidStructure
from .linalg import (Factorization, Matrix, Refusal, Support,
                     column_supports, multilinear, vec_is_zero, vec_scale)
from .poly import _coeff
from .record import Record
from .trace import traced


class DeformationPath(Record):
    __slots__ = ("base", "order", "terms")
    base: NLieAlgebra
    order: int
    terms: tuple[Cochain, ...]


class EquivalenceMap(Record):
    """Phi_t = Id + sum t^b maps[b-1]; absent trailing maps are zero."""

    __slots__ = ("order", "maps")
    order: int
    maps: tuple[Matrix, ...]


def make_deformation_path(base: NLieAlgebra,
                          terms: Sequence[Cochain]) -> DeformationPath:
    for term in terms:
        if term.arity != base.arity or term.dim != base.dim:
            raise DimensionMismatch("path term does not match the base")
        if term.degree != 1:
            raise DimensionMismatch("path terms must have degree 1")
    return DeformationPath(base, len(terms), tuple(terms))


def constant_path(base: NLieAlgebra, order: int) -> DeformationPath:
    zero = cochain_zero(base.arity, base.dim, 1)
    return DeformationPath(base, order, (zero,) * order)


def make_equivalence_map(dim: int, order: int,
                         maps: Sequence[Matrix]) -> EquivalenceMap:
    if len(maps) > order:
        raise DimensionMismatch("more maps than the declared order")
    for mat in maps:
        if mat.rows != dim or mat.cols != dim:
            raise DimensionMismatch("equivalence maps must be square of size "
                                    f"{dim}")
    return EquivalenceMap(order, tuple(maps))


def _phi_list(path: DeformationPath) -> list[Cochain]:
    return [from_bracket(path.base), *path.terms]


def check_deformation(path: DeformationPath,
                      mode: str = "truncated") -> CheckResult:
    """Power-by-power Maurer-Cartan test.  Truncated mode checks powers
    1..k, full mode 1..2k (power 0 is the base, checked up front); a
    failure's witness is {"first_failing_power": r}."""
    if mode not in ("truncated", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    require_fi(path.base)
    return _check_powers(path, mode)


def _check_powers(path: DeformationPath, mode: str) -> CheckResult:
    """``check_deformation`` on a base whose FI the caller has checked."""
    phis = _phi_list(path)
    top = path.order if mode == "truncated" else 2 * path.order
    for r in range(1, top + 1):
        if not cochain_is_zero(_circle_sum(phis, r, 0)):
            return CheckResult(False, {"first_failing_power": r})
    return CheckResult(True)


def _circle_sum(phis: list[Cochain], r: int, low: int) -> Cochain:
    """sum phis[i] ∘ phis[r-i] over ordered pairs with both indices in
    low..len(phis)-1, summed into one table; at low = 0, -1/2 the t^r
    coefficient of [phi_t, phi_t]."""
    top = len(phis) - 1
    return circle_sum(phis[0].arity, phis[0].dim, 2, [
        (1, phis[i], phis[r - i])
        for i in range(max(low, r - top), min(r - low, top) + 1)])


class InfinitesimalClass(Record):
    __slots__ = ("leading_order", "is_cocycle", "betti", "class_coords",
                 "is_trivial_class")
    leading_order: Optional[int]
    is_cocycle: bool
    betti: int
    class_coords: tuple[Fraction, ...]
    is_trivial_class: bool


def infinitesimal_class(path: DeformationPath) -> InfinitesimalClass:
    """Locate the first nonzero term and express its cohomology class in
    the representative basis of the second cohomology."""
    cx = Complex(path.base)
    _require_valid(path)
    lead = next((i + 1 for i, t in enumerate(path.terms)
                 if not cochain_is_zero(t)), None)
    report = cx.report(2)
    if lead is None:
        return InfinitesimalClass(None, True, report.betti,
                                  (Fraction(0),) * report.betti, True)
    target = cochain_to_vec(path.terms[lead - 1])
    is_cocycle = not any(sum(a * target[j] for j, a in r.items())
                         for r in cx.rows(2))
    # the representatives are independent modulo im d_1, so the
    # representative coordinates of any solution are the class
    n1 = complex_dim(path.base, 1)
    reps = [cochain_to_vec(r) for r in report.representatives]
    rows = cx.beside(1, reps + [target])
    ncols = n1 + len(reps)
    rhs = [r.pop(ncols, 0) for r in rows]
    sol = Factorization(rows, ncols).solve(rhs)
    if isinstance(sol, Refusal):
        raise InvalidStructure("cocycle not spanned by coboundaries and "
                               "representatives; rank bookkeeping is wrong")
    coords = tuple(sol[n1:])
    return InfinitesimalClass(lead, is_cocycle, report.betti, coords,
                              vec_is_zero(coords))


def _integral_series(
        path: DeformationPath, emap: EquivalenceMap, top: int,
) -> tuple[list[int], list, list[Optional[list[Support]]]]:
    """(scales, looks, sups): phi_t and Phi_t = sum t^b F_b (F_0 = Id,
    b <= top) rewritten in ints by t = D·u.

    D is the lcm of the denominators of the F_b and L that of the path's
    entries.  In u, Phi is sum u^b D^b F_b and L·phi_t is
    sum u^i L·D^i phi_i, both integral: sups[b] holds the column supports
    of D^b F_b (None where F_b = 0) and looks[i] reads L·D^i phi_i.  A
    quantity linear in phi_t, such as the conjugate or the two sides of
    the intertwining identity, then has as its t^r coefficient the u^r
    coefficient computed here divided by scales[r] = L·D^r."""
    m = path.base.dim
    if any((mat.rows, mat.cols) != (m, m) for mat in emap.maps):
        raise DimensionMismatch("equivalence maps must be square matrices "
                                "of the base dimension")
    mats = [Matrix.identity(m), *emap.maps[:top]]
    den = lcm(*(x.denominator for mat in mats for row in mat.data
                for x in row.values()))
    sups = [None if mat.is_zero else
            [[(i, x.numerator * (den ** b // x.denominator)) for i, x in col]
             for col in column_supports(mat)]
            for b, mat in enumerate(mats)]
    scale, tables = clear_denominators(_phi_list(path))
    looks = [basis_lookup({w: [x * den ** i for x in v]
                           for (_, w), v in table.items()})
             for i, table in enumerate(tables)]
    return ([scale * den ** r for r in range(top + 1)], looks,
            sups + [None] * (top + 1 - len(sups)))


def _pushed(looks: list, sups: list[Optional[list[Support]]], key: Key,
            top: int) -> list[dict[int, int]]:
    """P_0..P_top of the pushed series P(t) = sum_i t^i phi_i(Phi_t e_k1,
    .., Phi_t e_kn) on one sorted key, phi_i read through looks[i].

    Each spread of powers of t over the n slots is expanded once, for every
    phi_i at once; a spread that meets an F_b = 0 is never formed."""
    out: list[dict[int, int]] = [{} for _ in range(top + 1)]
    powers = [b for b, sup in enumerate(sups) if sup is not None]
    for bs in itertools.product(powers, repeat=len(key)):
        s = sum(bs)
        args = [sups[b][j] for b, j in zip(bs, key)]
        for i in range(min(len(looks), top + 1 - s)):
            multilinear(args, looks[i], out[s + i])
    return out


@traced("deformations.conjugate_path")
def conjugate_path(path: DeformationPath,
                   emap: EquivalenceMap) -> DeformationPath:
    """The path Phi_t^{-1} phi_t(Phi_t .., Phi_t ..) modulo t^(order+1).

    On each sorted key the pushed series P is expanded once
    (``_pushed``), and Phi_t psi = P is solved by forward substitution,
    psi_r = P_r - sum_{j=1..r} F_j psi_(r-j), so no inverse series is
    built.  Both steps are linear in the path, so they run in ints on
    ``_integral_series``, and each psi_r is divided by its scale once at
    the end."""
    n, m, k = path.base.arity, path.base.dim, path.order
    scales, looks, sups = _integral_series(path, emap, k)
    entries: list[dict] = [{} for _ in range(k)]
    for key in itertools.combinations(range(m), n):
        psi = _pushed(looks, sups, key, k)
        for r in range(1, k + 1):
            for j in range(1, r + 1):
                if sups[j] is not None:
                    back = [(c, -y) for c, y in psi[r - j].items() if y]
                    multilinear([back], lambda c: sups[j][c[0]], psi[r])
            vec = tuple(_coeff(psi[r].get(i, 0), scales[r])
                        for i in range(m))
            if not vec_is_zero(vec):
                entries[r - 1][((), key)] = vec
    return DeformationPath(path.base, k, tuple(
        Cochain(n, m, 1, table) for table in entries))


def check_equivalence(path1: DeformationPath, path2: DeformationPath,
                      emap: EquivalenceMap) -> CheckResult:
    """Does conjugating path1 by Phi_t reproduce path2 modulo t^(k+1)?  A
    failure's witness is {"first_failing_power": r}, r = 0 when the bases
    differ."""
    if path1.order != path2.order or path1.order != emap.order:
        raise DimensionMismatch("path and map orders must agree")
    if path1.base.arity != path2.base.arity or \
            path1.base.dim != path2.base.dim:
        raise DimensionMismatch("paths live over different spaces")
    # conjugate first, so a map over another space is an input error
    conj = conjugate_path(path1, emap)
    if path1.base.structure != path2.base.structure:
        return CheckResult(False, {"first_failing_power": 0})
    for r in range(1, path1.order + 1):
        if conj.terms[r - 1].entries != path2.terms[r - 1].entries:
            return CheckResult(False, {"first_failing_power": r})
    return CheckResult(True)


def check_homomorphism_family(path: DeformationPath,
                              emap: EquivalenceMap) -> CheckResult:
    """Exact (untruncated) intertwining: Phi_t phi_t(x..) equals the base
    bracket of the Phi_t-images, the pushed series of the base bracket
    alone, as a polynomial identity in t on basis tuples, compared in
    ints on ``_integral_series``."""
    n, m, k = path.base.arity, path.base.dim, path.order
    top = k + len(emap.maps) * n
    scales, looks, sups = _integral_series(path, emap, top)
    for key in itertools.combinations(range(m), n):
        pushed = _pushed(looks[:1], sups, key, top)
        for r in range(top + 1):
            lhs: dict[int, int] = {}
            for a in range(max(0, r - k), r + 1):
                if sups[a] is not None:
                    multilinear([looks[r - a](key)],
                                lambda c: sups[a][c[0]], lhs)
            lhs = [lhs.get(i, 0) for i in range(m)]
            rhs = [pushed[r].get(i, 0) for i in range(m)]
            if lhs != rhs:
                return CheckResult(False, {
                    "tuple": key, "power": r,
                    "lhs": tuple(Fraction(x, scales[r]) for x in lhs),
                    "rhs": tuple(Fraction(x, scales[r]) for x in rhs)})
    return CheckResult(True, None)


Level = dict[tuple[int, ...], list[int]]


@traced("deformations.nijenhuis_bracket")
def _tower(alg: NLieAlgebra, nmap: Matrix, k: int) -> list[tuple[int, Level]]:
    """(L·D^i, B_i) for i = 0..k: the integer tower of
    ``check_nijenhuis``, B_i holding the nonzero vector of each sorted
    n-tuple."""
    n, m = alg.arity, alg.dim
    if nmap.rows != m or nmap.cols != m:
        raise DimensionMismatch("operator must be a square matrix of size m")
    scale, table = integral_table(alg)
    look = basis_lookup(table)
    den = lcm(*(x.denominator for row in nmap.data for x in row.values()))
    # the columns of D·N
    cols = [[(i, x.numerator * (den // x.denominator)) for i, x in col]
            for col in column_supports(nmap)]
    tower = [(scale, {key: list(v) for key, v in table.items()})]
    for step in range(1, k + 1):
        prev, level = tower[-1][1], {}
        for key in itertools.combinations(range(m), n):
            total: dict[int, int] = {}
            for slots in itertools.combinations(range(n), step):
                multilinear([cols[j] if t in slots else [(j, 1)]
                             for t, j in enumerate(key)], look, total)
            vec = [total.get(i, 0) for i in range(m)]
            for j, y in enumerate(prev.get(key, ())):
                if y:
                    for i, c in cols[j]:
                        vec[i] -= c * y
            if any(vec):
                level[key] = vec
        tower.append((scale * den ** step, level))
    return tower


def _cochain(alg: NLieAlgebra, div: int, level: Level) -> Cochain:
    """The deformed bracket B_i / (L·D^i) of a ``_tower`` entry."""
    return Cochain(alg.arity, alg.dim, 1, {
        ((), key): tuple(_coeff(x, div) for x in vec)
        for key, vec in level.items()})


def nijenhuis_bracket(alg: NLieAlgebra, nmap: Matrix, k: int) -> Cochain:
    """The k-th deformed bracket: insert the operator into k slots, then
    subtract the operator applied to the (k-1)-st deformed bracket;
    computed in integers by ``_tower``."""
    if not 1 <= k <= alg.arity - 1:
        raise DimensionMismatch("deformed brackets exist for 1 <= k <= n-1")
    return _cochain(alg, *_tower(alg, nmap, k)[k])


def check_nijenhuis(alg: NLieAlgebra, nmap: Matrix) -> CheckResult:
    """Closure test: the bracket of operator images must equal the operator
    applied to the top deformed bracket, on every sorted basis tuple.

    Both sides are compared in integers.  Let L be the common denominator
    of the structure constants and D that of N.  The term of [.]^k with N
    in the slots S (|S| = k) has degree k in N and 1 in the bracket, so
    with D·N in those slots, on the table times L, it is L·D^k times its
    value.  Hence B_k = L·D^k·[.]^k_N is integral: B_0 is the table times
    L, and B_k = sum_{|S|=k} [D·N in S] - (D·N)·B_(k-1) (``_tower``).
    Times L·D^n, the closure [N x_1..N x_n] = N·[.]^(n-1)_N says that
    B_n = 0: its one term, D·N in all n slots, is L·D^n [N x_1..N x_n],
    and (D·N)·B_(n-1) = L·D^n N·[.]^(n-1)_N.  The witness is the first
    tuple where B_n is not zero, both sides divided by L·D^n: the
    rational ones."""
    require_fi(alg)
    return _closure(alg, nmap)[0]


@traced("deformations.check_nijenhuis")
def _closure(alg: NLieAlgebra, nmap: Matrix
             ) -> tuple[CheckResult, list[tuple[int, Level]]]:
    """``check_nijenhuis`` on a base whose FI the caller has checked, with
    the tower it built."""
    n = alg.arity
    tower = _tower(alg, nmap, n)
    (prev_div, prev), (div, top) = tower[n - 1:]
    bad = next(iter(top), None)
    if bad is None:
        return CheckResult(True, None), tower
    rhs = nmap.apply(tuple(Fraction(x, prev_div)
                           for x in prev.get(bad, [0] * alg.dim)))
    lhs = tuple(y + Fraction(x, div) for x, y in zip(top[bad], rhs))
    return CheckResult(False, {"tuple": bad, "lhs": lhs, "rhs": rhs}), tower


def nijenhuis_path(alg: NLieAlgebra, nmap: Matrix
                   ) -> tuple[CheckResult, Optional[DeformationPath]]:
    """The verdict of ``check_nijenhuis`` and, when it holds, the path
    phi_t = [.] + sum t^k [.]^k_N read off the same tower."""
    require_fi(alg)
    res, tower = _closure(alg, nmap)
    if not res.holds:
        return res, None
    n = alg.arity
    return res, DeformationPath(alg, n - 1, tuple(
        _cochain(alg, *tower[k]) for k in range(1, n)))


def deformation_from_nijenhuis(alg: NLieAlgebra,
                               nmap: Matrix) -> DeformationPath:
    res, path = nijenhuis_path(alg, nmap)
    if path is None:
        raise InvalidStructure("operator fails the Nijenhuis condition",
                               witness=res.witness)
    return path


class OOperatorLift(Record):
    __slots__ = ("n_tilde", "o_operator_holds", "lifted_nijenhuis_holds")
    n_tilde: Matrix
    o_operator_holds: bool
    lifted_nijenhuis_holds: bool

    @property
    def agree(self) -> bool:
        return self.o_operator_holds == self.lifted_nijenhuis_holds


@traced("deformations.o_operator_lift")
def o_operator_lift(alg: NLieAlgebra, rho: Representation,
                    tmap: Matrix) -> OOperatorLift:
    """Compare the intertwining condition for T with the Nijenhuis
    condition for its strictly upper-triangular lift on the semidirect
    product.

    FI of g ⋉ V is FI of g (the lemma of ``check_representation``), so FI
    is checked once, on the base, and a base failing FI raises its witness.
    """
    m, r = alg.dim, rho.module_dim
    if tmap.rows != m or tmap.cols != r:
        raise DimensionMismatch("lift expects an m x r map")
    sd = semidirect_product(alg, rho)
    n_tilde = Matrix.from_sparse_rows(
        [{m + j: x for j, x in row.items()} for row in tmap.data] + [{}] * r,
        m + r)
    o_res = check_o_operator(alg, rho, tmap)
    require_fi(alg)
    nij_res, _ = _closure(sd, n_tilde)
    return OOperatorLift(n_tilde, o_res.holds, nij_res.holds)


def obstruction(path: DeformationPath) -> Cochain:
    """Theta = sum_{i+j=k+1, i,j>=1} phi_i ∘ phi_j, which is -1/2 the
    bracket sum; always a cocycle for a valid path (verified here, not
    assumed)."""
    require_fi(path.base)
    return _obstruction(path)


def _require_valid(path: DeformationPath) -> None:
    """Raise unless the path satisfies the deformation equations through its
    order; the caller has checked the base's FI."""
    res = _check_powers(path, "truncated")
    if not res.holds:
        raise InvalidStructure("path fails the deformation equations",
                               witness=res.witness)


def _obstruction(path: DeformationPath) -> Cochain:
    """``obstruction`` on a base whose FI the caller has checked."""
    _require_valid(path)
    phis = _phi_list(path)
    theta = _circle_sum(phis, path.order + 1, 1)
    if not cochain_is_zero(gla_bracket(phis[0], theta)):
        raise InvalidStructure("obstruction failed the cocycle identity; "
                               "the path data is inconsistent")
    return theta


def extend(path: DeformationPath) -> Cochain | Refusal:
    """The next term: the canonical solution of d_2 x = Theta, which
    extends the path one order, or ``Complex.solve``'s ``Refusal``, whose
    left witness y (yᵀd_2 = 0, yᵀTheta != 0) certifies a nonzero
    obstruction class."""
    sol = Complex(path.base).solve(2, cochain_to_vec(_obstruction(path)))
    if isinstance(sol, Refusal):
        return sol
    return vec_to_cochain(sol, path.base.arity, path.base.dim, 1)


class RigidityTrial(Record):
    __slots__ = ("kind", "trivialized", "stuck_order")
    kind: str
    trivialized: bool
    stuck_order: Optional[int]


class RigidityReport(Record):
    __slots__ = ("betti_h2", "max_order", "trials", "all_trivialized", "note")
    betti_h2: int
    max_order: int
    trials: tuple[RigidityTrial, ...]
    all_trivialized: bool
    note: str


_PROBE_NOTE = ("sampling probe: success on all sampled paths does not "
               "prove rigidity; a vanishing second cohomology does")


@traced("deformations.rigidity_probe")
def rigidity_probe(alg: NLieAlgebra, max_order: int, trials: int,
                   seed: int = 0) -> RigidityReport:
    """Try to trivialize sampled valid deformations by the inductive
    coboundary-killing argument.

    Each step finds the first nonzero term phi_m, solves delta(Psi) =
    -phi_m, and conjugates by Id + t^m Psi, which clears power m exactly.
    A step with no solution records the order where the sample is stuck
    (its class in the second cohomology is nonzero).
    """
    if max_order < 1:
        raise DimensionMismatch("max_order must be at least 1 "
                                f"({max_order} given)")
    if trials < 0:
        raise DimensionMismatch(f"trials must be at least 0 ({trials} given)")
    rng = random.Random(seed)
    n, m = alg.arity, alg.dim
    # Complex raises the fundamental-identity witness
    cx = Complex(alg)
    cocycles = cx.kernel(2).nullspace
    # dim C^2 - rank d_2 - rank d_1, as ``cohomology`` counts it; the
    # rank of d_1 comes from the factorization that every trial solves on
    betti = len(cocycles) - cx.factor(1).rank
    # the cocycles' coordinates times their common denominator, in ints,
    # so that a trial's combination sums ints and divides once
    den = lcm(*(x.denominator for v in cocycles for x in v))
    coords = list(zip(*([x.numerator * (den // x.denominator) for x in v]
                        for v in cocycles)))
    results = []
    for t in range(trials):
        if t % 2 == 0 and cocycles:
            coeffs = [rng.randint(-2, 2) for _ in cocycles]
            combo = [_coeff(sum(c * x for c, x in zip(coeffs, col)), den)
                     for col in coords]
            lead = vec_to_cochain(combo, n, m, 1)
            zero = cochain_zero(n, m, 1)
            path = DeformationPath(alg, max_order,
                                   (lead,) + (zero,) * (max_order - 1))
            kind = "cocycle"
        else:
            maps = [Matrix.from_rows([[rng.randint(-1, 1) for _ in range(m)]
                                      for _ in range(m)])
                    for _ in range(max_order)]
            emap = EquivalenceMap(max_order, tuple(maps))
            path = conjugate_path(constant_path(alg, max_order), emap)
            kind = "conjugated"
        results.append(_trivialize(alg, path, cx, kind))
    return RigidityReport(betti, max_order, tuple(results),
                          all(r.trivialized for r in results), _PROBE_NOTE)


def _trivialize(alg: NLieAlgebra, path: DeformationPath, cx: Complex,
                kind: str) -> RigidityTrial:
    cur, cleared = path, 0
    # the lead power rises on every step, so at most ``order`` steps run
    while True:
        lead = next((i + 1 for i, t in enumerate(cur.terms)
                     if not cochain_is_zero(t)), None)
        if lead is None:
            return RigidityTrial(kind, True, None)
        if lead <= cleared:
            raise ArithmeticError(f"conjugation left power {lead} nonzero; "
                                  "the coboundary solve is wrong")
        cleared = lead
        target = vec_scale(-1, cochain_to_vec(cur.terms[lead - 1]))
        sol = cx.solve(1, target)
        if isinstance(sol, Refusal):
            return RigidityTrial(kind, False, lead)
        psi = to_matrix(vec_to_cochain(sol, alg.arity, alg.dim, 0))
        maps = [Matrix.zero(alg.dim, alg.dim)] * (lead - 1) + [psi]
        emap = EquivalenceMap(cur.order, tuple(maps))
        cur = conjugate_path(cur, emap)
