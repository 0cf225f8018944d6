"""Filippov brackets on a free polynomial module with an anchor.

The base "manifold" is R^m with polynomial functions only, so every identity
is decided exactly.  A section of the rank-r bundle is a
``poly.PolySection``: r polynomials, added, subtracted and scaled by the
record's own operators.  A vector field on R^m is a section of rank m, so
every anchor and symbol value is a rank-m section.  A Filippov algebroid
is its bracket: the degree-1 multiderivation (``PolyMultiderivation``)
whose table holds the bracket on sorted generator n-tuples and whose
symbol is the anchor.  The bracket extends to arbitrary sections by the
anchored Leibniz rule

    [x_1, .., x_{n-1}, f y] = f [x_1, .., x_{n-1}, y] + a(x_1 ^ .. ^ x_{n-1})(f) y

applied in the last slot and carried to the other slots by skew symmetry,
which yields the closed form

    [f_1 y_1, .., f_n y_n] = (prod f) [y..] +
        sum_i (-1)^(n-i) (prod_{j != i} f_j) a(y_1 ^ .. ^_i .. ^ y_n)(f_i) y_i.

Multiderivations of degree 0 and 1 carry a symbol (a map from wedges to
vector fields) satisfying D(X, f z) = f D(X, z) + sigma_D(X)(f) z, keyed
by the sorted wedge X of the other generators: () at degree 0, an
(n-1)-tuple at degree 1.  The algebroid entry points refuse a degree-0
multiderivation (``_check_algebroid``).  A bundle map N: A -> A, such as a
Nijenhuis operator, is the degree-0 multiderivation with zero symbol whose
table holds the columns N e_j; the Nijenhuis entry points refuse any other
operand (``_check_bundle_map``) and apply N through ``md_eval``.  One
driver, ``_leibniz_failure``, decides that rule for every check of this
form: the symbol bracket and the Nijenhuis symbols.  One Leibniz
evaluator, ``_leibniz``, computes the closed form above for any
multiderivation; the bracket is its degree-1 case, and a degree-0 one is
the case of a single section.  One tensorial evaluator, ``_tensorial``,
gives the C-infinity-multilinear extension of a symbol, the anchor
included.  Both take slot supports [(j, p)], a generator being [(j, 1)];
the public evaluators check the bundle of their sections once
(``_supports``).  The graded bracket of two multiderivations has the
symbol

    sigma_[D1,D2] = (-1)^(pq) sigma_D1 (.) D2 - sigma_D2 (.) D1
                    + {sigma_D1, sigma_D2},

with (.) the insertion of the other operator into a wedge slot and {,}
the shuffle-signed commutator.  Like terms are collected before anything
composes (``_bracket_terms``): the bracket is

    [D1, D2] = (-1)^(pq) D1 o D2 - D2 o D1,

and when D1 and D2 are the same object D of degree p,

    [D, D] = ((-1)^(pp) - 1) D o D,

one composition, with a symbol of one (.) term and one commutator per
pair of swapped shuffles; both are zero, with nothing composed, when
that factor is.  So the Maurer-Cartan bracket [pi, pi] of
``check_symbol_leibniz(abd, pi, pi)`` composes once, as
``cochains.maurer_cartan_defect`` does.  Degrees above 1 are not modeled
here: their evaluation would need coefficient rules in block arguments
that the structure does not determine.  So insertion is k = 0 only: D2
enters the last wedge of a degree-1 D1, with the identity shuffle and
sign 1, and on generators D2 is its table, read by lookup.
Paper API that nothing here calls: ``anchor_on_generators``,
``make_bundle_map``, ``nijenhuis_section_bracket`` and
``nijenhuis_symbol_check``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (CheckResult, Key, NLieAlgebra, basis_key, basis_lookup,
                      bracket_on_basis, require_fi, sort_with_sign)
from .cochains import shuffles
from .errors import DimensionMismatch, InvalidStructure
from .poly import (MultiPoly, PolySection, generator_section, make_section,
                   poly_const, poly_var, poly_zero, section_zero, vf_apply,
                   vf_bracket)
from .record import Record
from .trace import span, traced


class PolyMultiderivation(Record):
    """Degree 0 or 1 multiderivation of the rank-r bundle of arity n with
    its symbol; absent keys mean zero.

    ``table`` holds the values on sorted generator tuples: 1-tuples (j,)
    at degree 0, n-tuples at degree 1.  ``symbol`` holds the vector field
    on the sorted wedge of the other generators: the key () at degree 0,
    (n-1)-tuples at degree 1.  An algebroid is the degree-1 case: the
    table is its bracket and the symbol its anchor.  A bundle map is the
    degree-0 case with zero symbol: the table holds its columns N e_j.
    """

    __slots__ = ("num_vars", "rank", "arity", "degree", "table", "symbol")
    num_vars: int
    rank: int
    arity: int
    degree: int
    table: Mapping[Key, tuple[MultiPoly, ...]]
    symbol: Mapping[Key, PolySection]


def make_poly_multiderivation(num_vars: int, rank: int, arity: int,
                              degree: int,
                              table: Mapping[Key, Sequence[MultiPoly]],
                              symbol: Mapping[Key, PolySection],
                              ) -> PolyMultiderivation:
    if degree not in (0, 1):
        raise DimensionMismatch("only degrees 0 and 1 are modeled")
    if arity < 2:
        raise DimensionMismatch("arity must be at least 2")
    if rank < 1 or num_vars < 0:
        raise DimensionMismatch("rank must be positive, num_vars nonnegative")
    tab = {}
    for key, comps in table.items():
        key = basis_key(key, arity if degree else 1, rank, "table")
        sec = make_section(num_vars, rank, tuple(comps))
        if not sec.is_zero:
            tab[key] = sec.comps
    sym = {}
    for key, field in symbol.items():
        key = basis_key(key, degree * (arity - 1), rank, "symbol")
        if (field.num_vars, field.rank) != (num_vars, num_vars):
            raise DimensionMismatch(f"symbol value is not a vector field "
                                    f"on R^{num_vars}")
        if not field.is_zero:
            sym[key] = field
    return PolyMultiderivation(num_vars, rank, arity, degree, tab, sym)


def make_poly_algebroid(num_vars: int, rank: int, arity: int,
                        brackets: Mapping[Key, Sequence[MultiPoly]],
                        anchor: Mapping[Key, PolySection],
                        ) -> PolyMultiderivation:
    """The algebroid as its bracket: the degree-1 multiderivation with the
    bracket on sorted n-tuples as its table and the anchor on sorted
    (n-1)-tuples as its symbol."""
    return make_poly_multiderivation(num_vars, rank, arity, 1, brackets,
                                     anchor)


def _check_algebroid(abd: PolyMultiderivation) -> None:
    """An algebroid entry point takes the bracket, never a degree-0
    multiderivation."""
    if abd.degree != 1:
        raise DimensionMismatch("an algebroid is a degree-1 "
                                "multiderivation")


def anchor_on_generators(abd: PolyMultiderivation,
                         idx: Sequence[int]) -> PolySection:
    _check_algebroid(abd)
    ss = sort_with_sign(tuple(idx))
    field = ss and abd.symbol.get(ss[1])
    if field is None:
        return section_zero(abd.num_vars, abd.num_vars)
    return field if ss[0] == 1 else -field


def _supports(m: int, r: int, sections: Sequence[PolySection]):
    for s in sections:
        if (s.num_vars, s.rank) != (m, r):
            raise DimensionMismatch("section over the wrong bundle")
    return [[(j, p) for j, p in enumerate(s.comps) if not p.is_zero]
            for s in sections]


def _times(p: MultiPoly, c: MultiPoly | int) -> MultiPoly:
    return p if c == 1 else p * c


def _prod(polys: Sequence[MultiPoly], sign: int) -> MultiPoly | int:
    """sign times the product of ``polys``, with no product by a factor
    equal to 1; the int sign when every factor is 1."""
    out: MultiPoly | int = sign
    for p in polys:
        if not p.is_one:
            out = _times(p, out)
    return out


_Slot = Sequence[tuple[int, MultiPoly]]


def _leibniz(d: PolyMultiderivation, slots: Sequence[_Slot]) -> PolySection:
    """The closed form of the module docstring for d on slot supports
    [(j, p)]: d's table on the sorted generator tuple, and its symbol on
    the sorted wedge of the other generators.  A slot whose weight is a
    constant has no symbol term: a derivation kills constants."""
    m, r, table, symbol = d.num_vars, d.rank, d.table, d.symbol.get
    n = len(slots)
    out = [poly_zero(m)] * r
    for combo in itertools.product(*slots):
        idx = tuple(j for j, _ in combo)
        polys = [p for _, p in combo]
        ss = sort_with_sign(idx)
        comps = table.get(ss[1]) if ss is not None else None
        if comps is not None:
            coeff = _prod(polys, ss[0])
            out = [o if c.is_zero else o + _times(c, coeff)
                   for o, c in zip(out, comps)]
        for s in range(n):
            if polys[s].is_constant:
                continue
            ws = sort_with_sign(idx[:s] + idx[s + 1:])
            sigma = symbol(ws[1]) if ws is not None else None
            if sigma is None:
                continue
            action = vf_apply(sigma, polys[s])
            if action.is_zero:
                continue
            sign = ws[0] * (-1 if (n - 1 - s) % 2 else 1)
            out[idx[s]] = out[idx[s]] + _times(
                action, _prod(polys[:s] + polys[s + 1:], sign))
    return PolySection(m, r, tuple(out))


def _tensorial(d: PolyMultiderivation,
               slots: Sequence[_Slot]) -> PolySection:
    """C-infinity-multilinear extension of d's symbol to a wedge of slot
    supports [(j, p)]."""
    out = section_zero(d.num_vars, d.num_vars)
    for combo in itertools.product(*slots):
        ss = sort_with_sign(tuple(j for j, _ in combo))
        field = d.symbol.get(ss[1]) if ss is not None else None
        if field is not None:
            coeff = _prod([p for _, p in combo], ss[0])
            out = out + field.scale(coeff)
    return out


@traced("algebroid.anchor_eval")
def anchor_eval(abd: PolyMultiderivation,
                sections: Sequence[PolySection]) -> PolySection:
    """C-infinity-multilinear extension of the anchor to a wedge of
    polynomial sections."""
    _check_algebroid(abd)
    if len(sections) != abd.arity - 1:
        raise DimensionMismatch("anchor takes arity-1 sections")
    return _tensorial(abd, _supports(abd.num_vars, abd.rank, sections))


@traced("algebroid.section_bracket")
def section_bracket(abd: PolyMultiderivation,
                    sections: Sequence[PolySection]) -> PolySection:
    """Bracket of n polynomial sections: the algebroid evaluated as the
    degree-1 multiderivation it is."""
    _check_algebroid(abd)
    n = abd.arity
    if len(sections) != n:
        raise DimensionMismatch(f"bracket takes {n} sections")
    return _leibniz(abd, _supports(abd.num_vars, abd.rank, sections))


def poly_family(num_vars: int) -> list[MultiPoly]:
    """The weights that decide a Leibniz-type check (see ``_generic``):
    1, the variables x_u, and the products x_u x_v with u <= v."""
    xs = [poly_var(num_vars, v) for v in range(num_vars)]
    return [poly_const(num_vars, 1)] + xs + [
        xs[v] * xs[w] for v in range(num_vars) for w in range(v, num_vars)]


def _pad(p: MultiPoly) -> MultiPoly:
    """p over one more variable t, appended after the others."""
    return MultiPoly(p.num_vars + 1, {e + (0,): c for e, c in p.terms.items()})


def _pad_field(v: PolySection) -> PolySection:
    """The vector field v over one more variable t, with a zero
    t-component, so that t is a constant for v."""
    m = v.num_vars + 1
    return PolySection(m, m, tuple(map(_pad, v.comps)) + (poly_zero(m),))


def _lift(d: PolyMultiderivation) -> PolyMultiderivation:
    """The same multiderivation over one more variable t that its table
    and symbol (an algebroid's bracket and anchor) treat as a constant."""
    return PolyMultiderivation(
        d.num_vars + 1, d.rank, d.arity, d.degree,
        {key: tuple(_pad(p) for p in comps) for key, comps in d.table.items()},
        {key: _pad_field(v) for key, v in d.symbol.items()})


def _generic(m: int) -> tuple[list[MultiPoly], MultiPoly]:
    """fam = ``poly_family(m)`` and the generic weight g = sum_k t^k fam[k]
    over the lifted variables.

    Linearity lemma.  A Leibniz defect is Q-linear in the polynomial f
    that weights its one weighted slot: f enters each term of the closed
    Leibniz form and of the tensorial anchor once, as a factor or under
    vector fields.  On the lift (``_lift``) no anchor field
    differentiates t, so bracket and anchor are R[t]-linear, and the
    defect at g is sum_k t^k defect(fam[k]), where defect(fam[k]) has no
    t.  Its t^k coefficient is exactly the defect at fam[k], so one
    evaluation per frame decides the whole family, and the first failing
    weight is fam[k] for the smallest t-exponent k among the terms of the
    lifted defect (``_leibniz_failure``).

    Order lemma.  On a frame (X, z) each Leibniz defect
    P(f) = Op(X, f z) - f Op(X, z) - sigma(X)(f) z is a differential
    operator of order at most 2 in f: a ``_leibniz`` evaluation
    differentiates a slot's weight at most once, anchor, symbols and
    bundle maps are tensorial, and only the composition term of
    ``md_circle_eval`` nests two evaluations.  So P(f) = c f +
    sum_u a_u d_u f + sum_{u<=v} b_uv d_u d_v f, with P(1) = c,
    P(x_u) = c x_u + a_u, and P(x_u x_v) adding b_uv (2 b_uu if u = v) to
    the lower terms: P vanishes on all polynomials exactly when it
    vanishes on fam, and a check that holds on fam holds for all weights.
    """
    fam = poly_family(m)
    return fam, MultiPoly(m + 1, {e + (k,): c for k, f in enumerate(fam)
                                  for e, c in f.terms.items()})


def _leibniz_failure(m: int, r: int, frames: Callable, sp=None,
                     ) -> Optional[dict]:
    """Witness fields of the first frame and generator z on which
    op(f z) = f op(z) + sigma(f) z fails for some weight f, or None.

    ``frames(gens)`` gets the generators over the m + 1 variables of
    ``_lift`` and yields (fields, op, sigma): a frame's witness fields,
    its operator op(z, (j, weighted)) on z = gens[j] or g gens[j], and its
    lifted symbol.  Each defect is evaluated once, on the generic weight g
    of ``_generic``; the failing f is fam[k] for the smallest t-exponent k
    among its terms.  The (frame, z) pairs are counted on ``sp`` if given.
    """
    fam, g = _generic(m)
    gens = [generator_section(m + 1, r, j) for j in range(r)]
    # g e_j is e_j with its 1 replaced by g: no product by 1
    weighted = [PolySection(m + 1, r, z.comps[:j] + (g,) + z.comps[j + 1:])
                for j, z in enumerate(gens)]
    count = 0
    try:
        for fields, op, sigma in frames(gens):
            action = vf_apply(sigma, g)
            for j in range(r):
                count += 1
                lhs = op(weighted[j], (j, True))
                rhs = op(gens[j], (j, False)).scale(g)
                defect = [a - b for a, b in zip(lhs.comps, rhs.comps)]
                defect[j] = defect[j] - action
                k = min((e[-1] for p in defect for e in p.terms),
                        default=None)
                if k is not None:
                    return {**fields, "z": j, "f": str(fam[k])}
        return None
    finally:
        if sp is not None:
            sp.count(frames=count)


def _generator_lookups(abd: PolyMultiderivation):
    """The signed lookups of one check: B(idx), the support of the bracket
    table on generators idx in any order, and A(idx), the anchor field on
    them, None where it vanishes; with a count of their memo entries."""
    brackets: dict = {}
    B = basis_lookup(abd.table, memo=brackets)
    anchors: dict[Key, Optional[PolySection]] = {}

    def A(idx: Key) -> Optional[PolySection]:
        if idx not in anchors:
            ss = sort_with_sign(idx)
            field = ss and abd.symbol.get(ss[1])
            anchors[idx] = field and (field if ss[0] == 1 else -field)
        return anchors[idx]

    return B, A, lambda: len(brackets) + len(anchors)


def _add_last_slot(B, A, w: Key, sup, sign: int,
                   out: list[MultiPoly]) -> None:
    """out += sign L(w, sum_k p_k e_k), the bracket of the generators w
    with one section in the last slot:
    sum_k p_k B(w + (k,)) + sum_k a(w)(p_k) e_k."""
    field = A(w)
    for k, p in sup:
        terms = [(j, c * p) for j, c in B(w + (k,))]
        if field is not None:
            terms.append((k, vf_apply(field, p)))
        for j, q in terms:
            out[j] = out[j] + q if sign == 1 else out[j] - q


# The defect of each phase on a frame (x, y) returns None where the frame
# holds, or the witness fields of its first failing weight.
_UNWEIGHTED = {"f": None}


def _fi_generator(B, A, out: list[MultiPoly], x: Key,
                  y: Key) -> Optional[dict]:
    """F(x; y) on generators; ``out`` is a zero section to accumulate it
    in."""
    n = len(y)
    _add_last_slot(B, A, x, B(y), 1, out)
    for i in range(n):
        _add_last_slot(B, A, y[:i] + y[i + 1:], B(x + (y[i],)),
                       -1 if (n - i) % 2 else 1, out)
    return _UNWEIGHTED if any(out) else None


def _anchor_generator(B, A, out: PolySection, x: Key,
                      y: Key) -> Optional[dict]:
    """A(x; y') on generators; ``out`` is the zero field."""
    fx, fy = A(x), A(y)
    if fx is not None and fy is not None:
        out = vf_bracket(fx, fy)
    for i, yi in enumerate(y):
        for k, q in B(x + (yi,)):
            field = A(y[:i] + (k,) + y[i + 1:])
            if field is not None:
                out = out - field.scale(q)
    return None if out.is_zero else _UNWEIGHTED


def _anchor_factors(A, xp: Key, y: Key) -> list:
    """The nonzero anchor factors of E free of the weighted generator b on
    the pair (x', y), each as (c, s, w, i): E(x_u) sums s c[u] A(w with b
    in slot i).  They are A(y'), against A(x' + (b,)), and
    A(x' + (y_i,)), against A(y' with y_i -> b)."""
    factors = [(A(y), -1, xp, len(xp))] + [
        (A(xp + (yi,)), 1, y[:i] + y[i + 1:], i) for i, yi in enumerate(y)]
    return [f for f in factors if f[0] is not None]


def _anchor_weighted(A, m: int, x: Key, factors: list) -> Optional[dict]:
    """E(x_u) = -A(y')[u] A(x) + sum_i A(x' + (y_i,))[u] A(y' with y_i ->
    b) on the frame x = x' + (b,), y', for u = 0, 1, .., from the
    ``_anchor_factors`` of its pair: only the partners are looked up."""
    b, terms = x[-1], []
    for c, s, w, i in factors:
        v = A(w[:i] + (b,) + w[i:])
        if v is not None:
            terms.append((c, s, [(j, q) for j, q in enumerate(v.comps) if q]))
    return _first_coordinate(x, m, terms)


def _fi_factors(B, A, m: int, xp: Key, y: Key) -> list:
    """The nonzero anchor factors of D free of the weighted generator b on
    the pair (x', y), each as (c, s, w, i): the term s c[u] B(w with b in
    slot i), or s c[u] w e_b where i is None.  They are A(x' + (k,)) for
    (k, q) in B(y), against -q e_b; A(y^i), against -s_i B(x + (y_i,));
    A(x' + (y_i,)), against B(y with y_i -> b); and, where both of the
    last two are nonzero, the nested field c[u] = A(y^i)(A(x' + (y_i,))[u])
    against s_i e_b, with s_i = (-1)^(n-1-i) and slots counted from 0.
    A nested field enters with its two factors, so the list is empty
    exactly when every factor free of b vanishes."""
    n = len(y)
    factors = [(A(xp + (k,)), -1, q, None) for k, q in B(y)]
    for i, yi in enumerate(y):
        s = -1 if (n - 1 - i) % 2 else 1
        rest = y[:i] + y[i + 1:]
        outer, inner = A(rest), A(xp + (yi,))
        factors += [(outer, -s, xp + (yi,), len(xp)), (inner, 1, rest, i)]
        if outer is not None and inner is not None:
            factors.append((PolySection(m, m, tuple(
                vf_apply(outer, p) for p in inner.comps)), s,
                poly_const(m, 1), None))
    return [f for f in factors if f[0] is not None]


def _fi_weighted(B, m: int, x: Key, factors: list) -> Optional[dict]:
    """D(x_u) on the frame x = x' + (b,), y, for u = 0, 1, ..:

        - sum_{(k,q) in B(y)} q A(x' + (k,))[u] e_b
        - sum_i s_i A(y^i)[u] B(x + (y_i,))
        + sum_i A(x' + (y_i,))[u] B(y with y_i -> b)
        + sum_i s_i A(y^i)(A(x' + (y_i,))[u]) e_b,

    from the ``_fi_factors`` of its pair: only the partners are looked
    up."""
    b = x[-1]
    return _first_coordinate(x, m, [
        (c, s, [(b, w)] if i is None else B(w[:i] + (b,) + w[i:]))
        for c, s, w, i in factors])


def _first_coordinate(x: Key, m: int, terms) -> Optional[dict]:
    """Witness fields of the weight x_u on the last slot of x for the first
    u at which sum s c[u] q e_j, over the terms (c, s, [(j, q)]), is
    nonzero, or None.  No product has a factor equal to 1, and the signs
    choose between adding and subtracting."""
    zero, terms = poly_zero(m), [t for t in terms if t[2]]
    for u in range(m if terms else 0):
        out: dict[int, MultiPoly] = {}
        for c, s, sup in terms:
            p = c.comps[u]
            for j, q in sup if p else ():
                t = q if p.is_one else p if q.is_one else p * q
                acc = out.get(j, zero)
                out[j] = acc + t if s == 1 else acc - t
        if any(out.values()):
            return {"slot": len(x) - 1, "f": str(poly_var(m, u))}
    return None


def _weighted_frames(r: int, n: int, ny: int,
                     factors: Callable[[Key, Key], list]):
    """Frames (x, y, fs) of a weighted phase: x is a sorted (n-2)-tuple x'
    followed by the weighted generator b, any of the r, y is a sorted
    ny-tuple, and fs = ``factors(x', y)``, the pair's nonzero anchor
    factors free of b, read once per pair.  Each frame of a pair whose fs
    is empty comes as None: it holds unevaluated."""
    ys = list(itertools.combinations(range(r), ny))
    for xp in itertools.combinations(range(r), n - 2):
        pairs = [(y, factors(xp, y)) for y in ys]
        for b in range(r):
            for y, fs in pairs:
                yield (xp + (b,), y, fs) if fs else None


def _first_failing(sp, filled: Callable[[], int], frames,
                   defect: Callable[..., Optional[dict]],
                   ) -> Optional[dict]:
    """Witness fields of the first frame (x, y, ..) on which ``defect``
    fails, or None; a frame given as None holds.  Counts on ``sp`` the frames
    evaluated, those skipped and the lookup memo entries filled."""
    start, count, skipped, bad = filled(), 0, 0, None
    for frame in frames:
        if frame is None:
            skipped += 1
            continue
        count += 1
        fields = defect(*frame)
        if fields is not None:
            bad = {"x": frame[0], "y": frame[1], **fields}
            break
    sp.count(frames=count, skipped=skipped, lookups=filled() - start)
    return bad


@traced("algebroid.check_algebroid_axioms")
def check_algebroid_axioms(abd: PolyMultiderivation) -> CheckResult:
    """Fundamental identity (FI) and anchor compatibility (a) on all
    sections, decided by finitely many conditions on the bracket and
    anchor tables.  The anchored Leibniz rule (b) is not checked: the
    bracket on sections is ``_leibniz``, its closed form, so (b) holds on
    every input.

    Notation.  L is the bracket, a the anchor, x = (x', x_{n-1}) the n-1
    acting sections, y = (y_1, .., y_n), y' = (y_1, .., y_{n-1}), y^i is
    y without y_i and s_i = (-1)^(n-i), with i from 1.  The defects are

        F(x; y)  = L(x, L(y)) - sum_i L(y_1, .., L(x, y_i), .., y_n),
        A(x; y') = [a(x), a(y')] - sum_i a(y_1, .., L(x, y_i), .., y_{n-1}).

    Lemma.  From the Leibniz rule L(x, f z) = f L(x, z) + a(x)(f) z, skew
    symmetry and the tensoriality of a:

    1. F(x; y', f y_n) = f F(x; y) + A(x; y')(f) y_n, and A is tensorial
       in its y slots.
    2. A(x', f x_{n-1}; y') = f A(x; y') + E(f), with
       E(f) = -a(y')(f) a(x) + sum_i a(x', y_i)(f) a(y' with y_i -> x_{n-1}).
    3. F(x', f x_{n-1}; y) = f F(x; y) + D(f), with
       D(f) = -a(x', L(y))(f) x_{n-1} - sum_i s_i a(y^i)(f) L(x, y_i)
              + sum_i a(x', y_i)(f) L(y with y_i -> x_{n-1})
              + sum_i s_i a(y^i)(a(x', y_i)(f)) x_{n-1}.
    4. The cross term of F between f on x_{n-1} and g on y_n is
       E(f)(g) y_n.
    5. For n >= 3 the cross term of F between g on x_{n-2} and f on
       x_{n-1} is Q_{x'}(g, f) x_{n-1} - Q_{(x'', x_{n-1})}(f, g) x_{n-2},
       with Q_{x'}(g, f) = sum_i s_i a(y^i)(g) a(x', y_i)(f) and
       x' = (x'', x_{n-2}).
    6. There are no other terms: each bracket differentiates one of its
       slots at most once, F nests two brackets, and two y weights meet
       only in A, which is tensorial; A has no cross terms at all.

    Every term is a product of derivatives of single weights.  So on
    sections written as sums of weighted generators, F is the sum over
    sets S of at most two weighted slots of the weights off S times the
    term of S, and setting the weights off S to 1 isolates that term.
    With skew symmetry moving a weighted x slot last, FI holds on all
    sections exactly when F, A, E, D and the cross terms vanish on
    generator frames, and (a) exactly when A and E do.  Three of these
    conditions follow from the others:

    - E is a derivation in f, so E = 0 once E(x_u) = 0 for every
      coordinate x_u.  So is D once its second-order part is gone.
    - If E = 0 on every frame and n >= 3, then Q_{x'} = 0.  E = 0 on the
      frame (x', y_j; y^j), applied to g, reads

          a(y^j)(f) a(x', y_j)(g)
              = -s_j sum_{i != j} s_i a(y^i)(g) a(x', y_i)(f),

      since y^j with y_i -> y_j is y^i up to the sign -s_i s_j.  Multiply
      by s_j and sum over j: Q(f, g) = -(n-1) Q(g, f).  Swapping f and g
      gives Q(g, f) = (n-1)^2 Q(g, f), and (n-1)^2 != 1.  So the cross
      term 5 vanishes.
    - The second-order part of D is sum_{u,v} Q_{x'}(x_v, x_u) d_v d_u.
      It vanishes for n >= 3 by the last point.  For n = 2, x' is empty
      and Q(g, f) = -Q(f, g), so the symmetric sum vanishes.  (For n = 2,
      E vanishes identically too.)

    So FI and (a) hold on all sections exactly when F and A vanish on
    sorted generator tuples (phases ``fi`` and ``anchor``), then E(x_u)
    (``anchor_weighted``), then D(x_u) (``fi_weighted``), on every frame
    x = x' + (b,) with x' sorted, b any generator, repeats included, y
    sorted and u any variable.  The phases run in that order, so D is
    checked where E = 0 holds.  Every term of A, E and D has an anchor
    factor, so a frame whose anchors vanish holds, and with no anchor only
    the FI generator phase runs.  Some of these factors do not depend on
    b: A(y') and A(x' + (y_i,)) for E, and A(y^i), A(x' + (y_i,)) and
    A(x' + (k,)) for k in the support of B(y) for D.  Each weighted phase
    reads the nonzero ones once per pair (x', y) (``_anchor_factors``,
    ``_fi_factors``) and skips every frame of a pair where that list is
    empty; on the other frames it looks up only their partners, which
    depend on b.  The first failing frame, in the order of x, then y,
    then u, is reported with x, y and, on weighted frames, the weighted
    slot of x and f = x_u.

    Generator phases by lookup.  On generators the bracket is the table:
    with B(idx) the signed support of the bracket table and A(idx) the
    signed anchor field on generators idx in any order, the closed form
    with every slot but the last a generator is

        L(w, sum_k p_k e_k) = sum_k p_k B(w + (k,)) + sum_k a(w)(p_k) e_k,

    since a constant weight has no derivative.  The defects on sorted
    generator tuples x, y are then

        FI:  L(x, B(y)) - sum_i (-1)^(n-1-i) L(y^i, B(x + (y_i,)))
        (a): [A(x), A(y)] - sum_i sum_{(k,q) in B(x + (y_i,))}
                 q A(y with k in slot i),

    with slots counted from 0.  They equal the section route term by
    term: the bracket with the section [x, y_i] in slot i is, by skew
    symmetry, (-1)^(n-1-i) times the bracket with it moved past the n-1-i
    slots after it into the last, and ``_leibniz`` gives that sign to both
    the table term and the anchor term; the tensorial anchor of a wedge
    with one section in slot i is the sum over its support.  E and D read
    the same lookups, so no phase builds a section, and the verdict reads
    the input's tables only: no phase evaluates a bracket or an anchor.
    """
    _check_algebroid(abd)
    n, r, m = abd.arity, abd.rank, abd.num_vars
    B, A, filled = _generator_lookups(abd)
    wedges = list(itertools.combinations(range(r), n - 1))
    phases = [("fi", "fundamental identity",
               itertools.product(wedges, itertools.combinations(range(r), n)),
               lambda x, y: _fi_generator(B, A, [poly_zero(m)] * r, x, y))]
    if abd.symbol:
        phases += [
            ("anchor", "anchor compatibility",
             itertools.product(wedges, wedges),
             lambda x, y: _anchor_generator(B, A, section_zero(m, m), x, y)),
            ("anchor_weighted", "anchor compatibility",
             _weighted_frames(r, n, n - 1,
                              lambda xp, y: _anchor_factors(A, xp, y)),
             lambda x, y, fs: _anchor_weighted(A, m, x, fs)),
            ("fi_weighted", "fundamental identity",
             _weighted_frames(r, n, n,
                              lambda xp, y: _fi_factors(B, A, m, xp, y)),
             lambda x, y, fs: _fi_weighted(B, m, x, fs))]
    for name, axiom, frames, defect in phases:
        with span(f"algebroid.axioms.{name}") as sp:
            bad = _first_failing(sp, filled, frames, defect)
        if bad is not None:
            return CheckResult(False, {"axiom": axiom, **bad})
    return CheckResult(True, None)


def example_tangent_fc(algebra: NLieAlgebra, f: MultiPoly,
                       ) -> PolyMultiderivation:
    """Structure-constant bracket on the tangent bundle of R^m rescaled by
    one polynomial, with zero anchor."""
    m = algebra.dim
    if f.num_vars != m:
        raise DimensionMismatch("rescaling function must live on R^dim")
    require_fi(algebra)

    def times(c):
        # no product by a coefficient 0 or 1, or by f = 1
        if c == 1:
            return f
        return poly_const(m, c) if not c or f.is_one else f * c

    table = {key: tuple(map(times, bracket_on_basis(algebra, key)))
             for key in itertools.combinations(range(m), algebra.arity)}
    return make_poly_algebroid(m, m, algebra.arity, table, {})


def example_tangent_topform(m_base: int, n: int) -> PolyMultiderivation:
    """Zero bracket of arity n+1 on the tangent bundle of R^m_base; the
    anchor is the top-form tensor dx_1 ^ .. ^ dx_n (x) d/dx_1, so it kills
    every generator wedge except the first n coordinates."""
    if not 1 <= n <= m_base:
        raise DimensionMismatch("form degree must satisfy 1 <= n <= m_base")
    comps = [poly_zero(m_base) for _ in range(m_base)]
    comps[0] = poly_const(m_base, 1)
    anchor = {tuple(range(n)): PolySection(m_base, m_base, tuple(comps))}
    return make_poly_algebroid(m_base, m_base, n + 1, {}, anchor)


def make_bundle_map(num_vars: int, rank: int, arity: int,
                    entries: Sequence[Sequence[MultiPoly]],
                    ) -> PolyMultiderivation:
    """The bundle map N with rows ``entries``: the degree-0
    multiderivation with zero symbol whose table holds the columns N e_j."""
    if len(entries) != rank or any(len(row) != rank for row in entries):
        raise DimensionMismatch("bundle map must be a square rank x rank "
                                "array")
    return make_poly_multiderivation(
        num_vars, rank, arity, 0,
        {(j,): [row[j] for row in entries] for j in range(rank)}, {})


def bracket_derivation(abd: PolyMultiderivation) -> PolyMultiderivation:
    """The bracket as a degree-1 multiderivation whose symbol is the
    anchor: the algebroid itself."""
    return abd


def md_eval(d: PolyMultiderivation,
            final: Sequence[PolySection]) -> PolySection:
    """Evaluate on a final tuple of polynomial sections by the Leibniz
    rule in each slot: one section at degree 0, n at degree 1."""
    if d.degree == 0 and len(final) != 1:
        raise DimensionMismatch("degree 0 takes a single section")
    if d.degree == 1 and len(final) != d.arity:
        raise DimensionMismatch(f"degree 1 takes {d.arity} final sections")
    return _leibniz(d, _supports(d.num_vars, d.rank, final))


def _md_apply(d: PolyMultiderivation, keys: tuple[Key, ...], z: _Slot,
              one: MultiPoly) -> PolySection:
    """D(X_1, .., X_degree, z) on generator wedges and a slot support z."""
    gens = [[(j, one)] for key in keys for j in key]
    return _leibniz(d, gens + [z])


def _check_pair(d1: PolyMultiderivation, d2: PolyMultiderivation) -> None:
    if (d1.num_vars, d1.rank, d1.arity) != (d2.num_vars, d2.rank, d2.arity):
        raise DimensionMismatch("operands live on different bundles")


def _insertions(d1: PolyMultiderivation, d2: PolyMultiderivation,
                keys: tuple[Key, ...], one: MultiPoly):
    """The insertions of d2 into d1 (module docstring), each as the slot
    supports of d1's last wedge keys[-1] with one generator b replaced by
    d2(keys[:-1], b), the signed lookup of d2's table."""
    if d1.degree == 0:
        return
    look = basis_lookup(d2.table)
    head, block = sum(keys[:-1], ()), keys[-1]
    gens = [[(j, one)] for j in block]
    for s, b in enumerate(block):
        w = look(head + (b,))
        if w:
            yield gens[:s] + [w] + gens[s + 1:]


def _product_args(d1: PolyMultiderivation, d2: PolyMultiderivation,
                  keys: tuple[Key, ...], z: PolySection) -> _Slot:
    """The slot support of z, once operands, keys and z are checked."""
    _check_pair(d1, d2)
    if len(keys) != d1.degree + d2.degree:
        raise DimensionMismatch(f"expected {d1.degree + d2.degree} wedge "
                                f"arguments")
    return _supports(d1.num_vars, d1.rank, [z])[0]


def md_circle_eval(d1: PolyMultiderivation, d2: PolyMultiderivation,
                   keys: tuple[Key, ...], z: PolySection) -> PolySection:
    """Circle product evaluated on generator wedge keys and a final
    section; mirrors the point-base formula with polynomial coefficients."""
    zs = _product_args(d1, d2, keys, z)
    p, q = d1.degree, d2.degree
    m, r = d1.num_vars, d1.rank
    one = poly_const(m, 1)
    out = section_zero(m, r)
    for wedge in _insertions(d1, d2, keys, one):
        val = _leibniz(d1, wedge + [zs])
        if not val.is_zero:
            out = out + val
    base_sign = -1 if (p * q) % 2 else 1
    for perm, sh_sign in shuffles(p, q):
        w = _md_apply(d2, tuple(keys[i] for i in perm[p:]), zs, one)
        if w.is_zero:
            continue
        val = _md_apply(d1, tuple(keys[i] for i in perm[:p]),
                        [(j, c) for j, c in enumerate(w.comps) if c], one)
        if not val.is_zero:
            out = out + val.scale(base_sign * sh_sign)
    return out


def _bracket_terms(d1: PolyMultiderivation, d2: PolyMultiderivation,
                   ) -> list[tuple[int, PolyMultiderivation,
                                   PolyMultiderivation]]:
    """The compositions of [D1, D2] as (coefficient, outer, inner) terms,
    like terms collected (module docstring): one term when the operands
    are the same object, none when its coefficient is 0."""
    sign = -1 if (d1.degree * d2.degree) % 2 else 1
    if d1 is d2:
        return [(sign - 1, d1, d1)] if sign != 1 else []
    return [(sign, d1, d2), (-1, d2, d1)]


def md_bracket_eval(d1: PolyMultiderivation, d2: PolyMultiderivation,
                    keys: tuple[Key, ...], z: PolySection) -> PolySection:
    """[D1, D2] on generator wedge keys and a final section: one
    ``md_circle_eval`` per term of ``_bracket_terms``."""
    terms = _bracket_terms(d1, d2)
    if not terms:
        _product_args(d1, d2, keys, z)
    out = section_zero(d1.num_vars, d1.rank)
    for c, outer, inner in terms:
        out = out + md_circle_eval(outer, inner, keys, z).scale(c)
    return out


def _odot(sig_owner: PolyMultiderivation, other: PolyMultiderivation,
          keys: tuple[Key, ...]) -> PolySection:
    """(sigma_D1 (.) D2)(keys): insert D2's value into one wedge factor of
    sigma_D1's arguments."""
    m = sig_owner.num_vars
    out = section_zero(m, m)
    for wedge in _insertions(sig_owner, other, keys, poly_const(m, 1)):
        out = out + _tensorial(sig_owner, wedge)
    return out


def symbol_bracket(d1: PolyMultiderivation, d2: PolyMultiderivation,
                   ) -> dict[tuple[Key, ...], PolySection]:
    """Symbol of the graded bracket, tabulated on all tuples of sorted
    generator wedges."""
    _check_pair(d1, d2)
    p, q = d1.degree, d2.degree
    n, m, r = d1.arity, d1.num_vars, d1.rank
    terms = _bracket_terms(d1, d2)
    if d1 is d2:
        # swapping the shares of a shuffle multiplies its sign by
        # (-1)^(pp) and negates its commutator, so each pair sums to
        # 1 - (-1)^(pp) = -c times the one whose head holds wedge 0
        comms = [(-c * sh_sign, perm) for c, _, _ in terms
                 for perm, sh_sign in shuffles(p, p) if perm[0] == 0]
    else:
        comms = [(sh_sign, perm) for perm, sh_sign in shuffles(p, q)]
    out = {}
    wedges = list(itertools.combinations(range(r), n - 1))
    zero = section_zero(m, m)
    for keys in itertools.product(wedges, repeat=p + q):
        parts = [(c, _odot(outer, inner, keys)) for c, outer, inner in terms]
        for c, perm in comms:
            # the wedges of each share, joined: a symbol's key
            head = sum((keys[i] for i in perm[:p]), ())
            tail = sum((keys[i] for i in perm[p:]), ())
            parts.append((c, vf_bracket(d1.symbol.get(head, zero),
                                        d2.symbol.get(tail, zero))))
        total = zero
        for c, v in parts:
            total = total + v.scale(c)
        out[keys] = total
    return out


def check_symbol_leibniz(abd: PolyMultiderivation,
                         d1: PolyMultiderivation, d2: PolyMultiderivation,
                         ) -> CheckResult:
    """Verify that the bracket of two multiderivations obeys the Leibniz
    rule with the symbol produced by the symbol-bracket formula, on all
    weights (``_leibniz_failure``).  An operand given twice, as in
    [pi, pi], is lifted once, so its bracket is one composition
    (``_bracket_terms``); the span counts the frames and the
    ``md_circle_eval`` calls."""
    _check_algebroid(abd)
    _check_pair(abd, d1)
    _check_pair(d1, d2)
    n, m, r = d1.arity, d1.num_vars, d1.rank
    wedges = list(itertools.combinations(range(r), n - 1))
    brackets = 0

    def bracket(keys):
        def op(z, _):
            nonlocal brackets
            brackets += 1
            return md_bracket_eval(t1, t2, keys, z)
        return op

    def frames(gens):
        for keys in itertools.product(wedges,
                                      repeat=d1.degree + d2.degree):
            yield {"wedges": keys}, bracket(keys), symbols[keys]

    with span("algebroid.check_symbol_leibniz") as sp:
        t1 = _lift(d1)
        t2 = t1 if d2 is d1 else _lift(d2)
        symbols = symbol_bracket(t1, t2)
        bad = _leibniz_failure(m, r, frames, sp)
        sp.count(compositions=brackets * len(_bracket_terms(t1, t2)))
    return CheckResult(bad is None, bad)


def _check_bundle_map(abd: PolyMultiderivation,
                      nmap: PolyMultiderivation) -> None:
    """A Nijenhuis entry point takes an algebroid and a bundle map of its
    bundle: a degree-0 multiderivation with zero symbol."""
    _check_algebroid(abd)
    _check_pair(abd, nmap)
    if nmap.degree != 0 or nmap.symbol:
        raise DimensionMismatch("a bundle map is a degree-0 "
                                "multiderivation with zero symbol")


def nijenhuis_section_bracket(abd: PolyMultiderivation,
                              nmap: PolyMultiderivation, k: int,
                              sections: Sequence[PolySection],
                              ) -> PolySection:
    """k-th deformed bracket on sections: operator in k slots minus the
    operator applied to the previous deformed bracket; k = 0 is the
    bracket itself."""
    _check_bundle_map(abd, nmap)
    if not 0 <= k <= abd.arity - 1:
        raise DimensionMismatch("deformed brackets exist for 0 <= k <= n-1")
    return _deformed_brackets(abd, nmap, sections)(k)


def _deformed_brackets(abd: PolyMultiderivation,
                       nmap: PolyMultiderivation,
                       sections: Sequence[PolySection],
                       ) -> Callable[[int], PolySection]:
    """k -> the k-th deformed bracket on ``sections``; the tower up to k is
    built on first use and kept, each bracket once from the one below."""
    tower, mapped = [], []

    def deformed(k: int) -> PolySection:
        while len(tower) <= k:
            if tower and not mapped:
                mapped.extend(md_eval(nmap, [s]) for s in sections)
            total = section_zero(abd.num_vars, abd.rank)
            for slots in itertools.combinations(range(abd.arity), len(tower)):
                args = [mapped[t] if t in slots else s
                        for t, s in enumerate(sections)]
                total = total + section_bracket(abd, args)
            tower.append(total - md_eval(nmap, [tower[-1]]) if tower
                         else total)
        return tower[k]

    return deformed


def check_poly_nijenhuis(abd: PolyMultiderivation,
                         nmap: PolyMultiderivation) -> CheckResult:
    """Closure on all sorted generator tuples: the deformed bracket one
    level above the top, [N x_1, .., N x_n] - N [x]^(n-1)_N, vanishes."""
    _check_bundle_map(abd, nmap)
    n, r = abd.arity, abd.rank
    for key in itertools.combinations(range(r), n):
        gens = [generator_section(abd.num_vars, r, j) for j in key]
        if not _deformed_brackets(abd, nmap, gens)(n).is_zero:
            return CheckResult(False, {"tuple": key})
    return CheckResult(True, None)


def nijenhuis_symbol_check(abd: PolyMultiderivation,
                           nmap: PolyMultiderivation) -> CheckResult:
    """The symbol of the k-th deformed bracket must be the anchor with the
    operator inserted into k wedge slots, for every k.

    The actual symbol action is read off as the Leibniz defect of the
    deformed bracket on a weighted generator (``_leibniz_failure``), with
    the bundle map lifted like the bracket.  Each tower of deformed
    brackets on (x, z, weighted or not) is built once and read for every
    k.
    """
    res = check_poly_nijenhuis(abd, nmap)
    if not res.holds:
        raise InvalidStructure("bundle map fails the Nijenhuis condition",
                               witness=res.witness)
    n, r, m = abd.arity, abd.rank, abd.num_vars
    lift, tmap = _lift(abd), _lift(nmap)
    towers: dict[tuple[Key, int, bool], Callable[[int], PolySection]] = {}

    def frames(gens):
        for k in range(1, n):
            for xk in itertools.combinations(range(r), n - 1):
                xs = [gens[i] for i in xk]
                claimed = section_zero(m + 1, m + 1)
                for slots in itertools.combinations(range(n - 1), k):
                    claimed = claimed + anchor_eval(lift, [
                        md_eval(tmap, [x]) if t in slots else x
                        for t, x in enumerate(xs)])
                yield ({"k": k, "x": xk}, lambda z, key: towers.setdefault(
                    (xk, *key), _deformed_brackets(lift, tmap, xs + [z]))(k),
                    claimed)

    bad = _leibniz_failure(m, r, frames)
    return CheckResult(bad is None, bad)
