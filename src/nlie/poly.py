"""Exact sparse multivariate polynomials and polynomial sections.

Polynomials stand in for the smooth functions on the base space R^m.  A
section of the free module of rank r over them (``PolySection``) is r
polynomials, one per generator, with the record's own ``+``, ``-`` and
``scale``.  A vector field on R^m is a section of rank m: the tangent
bundle of R^m is free of rank m, and the derivations of the base
(``vf_apply``, ``vf_bracket``) take rank-m sections and refuse any other.

Coefficients are exact rationals, so identities are decided by exact
equality.  An integral coefficient is stored as an ``int`` and only a
non-integral one as a ``fractions.Fraction``; ``_coeff`` normalises each
coefficient where it enters (``poly_from_terms``, ``poly_const``,
``MultiPoly.scale``), and ``nlie.cochains`` and ``nlie.deformations`` store
cochain entries by the same rule.  Nothing here divides, so on integral
inputs the arithmetic adds and multiplies Python ints and never makes a
Fraction.  An int and a Fraction of the same value compare and hash alike
and print alike, so equality and rendering do not depend on the type.

Terms are stored sparsely as a map from exponent vectors (one entry per
variable) to nonzero coefficients.  Exponent vectors compare
lexicographically, which fixes the canonical term order used when
serializing.

Only ``poly_from_terms`` and ``make_section``, where raw terms and
components enter, validate them; the arithmetic builds canonical values
from canonical operands unchecked, and a section's ``+`` and ``-`` check
only that both operands live on one bundle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionMismatch
from .record import Record, _set

Exponents = tuple[int, ...]
Coeff = int | Fraction


class MultiPoly(Record):
    """Sparse polynomial with rational coefficients.

    ``terms`` holds exponent vectors of ``num_vars`` ints >= 0 and no zero
    coefficient.  A coefficient is an int when integral at entry, else a
    Fraction; a sum or product of Fractions may stay an integral Fraction.
    Nothing here checks that: build raw terms through ``poly_from_terms``,
    everything else by the constructors or arithmetic.
    """

    __slots__ = ("num_vars", "terms")
    num_vars: int
    terms: dict[Exponents, Coeff]

    def __init__(self, num_vars, terms):
        _set(self, "num_vars", num_vars)
        _set(self, "terms", terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0,) * self.num_vars: 1}

    @property
    def is_constant(self) -> bool:
        """Zero or a constant: a polynomial that every derivation kills."""
        return not any(map(any, self.terms))

    def __bool__(self) -> bool:
        # false on zero, as for a Fraction, so signed supports skip it
        return bool(self.terms)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        _same_vars(self, other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps, 0) + c
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return MultiPoly(self.num_vars, terms)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        # one pass, as ``__add__``: no negated copy of ``other``
        _same_vars(self, other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps, 0) - c
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return MultiPoly(self.num_vars, terms)

    def __mul__(self, other: MultiPoly | Coeff) -> MultiPoly:
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        _same_vars(self, other)
        terms: dict[Exponents, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                terms[exps] = terms.get(exps, 0) + ca * cb
        return MultiPoly(self.num_vars, {e: c for e, c in terms.items() if c})

    def __rmul__(self, other: Coeff) -> MultiPoly:
        return self.scale(other)

    def scale(self, c: Coeff) -> MultiPoly:
        c = _coeff(c)
        if c == 0:
            return poly_zero(self.num_vars)
        return MultiPoly(self.num_vars, {e: c * t for e, t in self.terms.items()})

    def partial(self, var: int) -> MultiPoly:
        """Partial derivative with respect to variable ``var`` (0-based)."""
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch(f"no variable {var} in {self.num_vars} vars")
        # lowering one exponent is injective on the terms it keeps
        return MultiPoly(self.num_vars, {
            e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
            for e, c in self.terms.items() if e[var]})

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in the canonical (lexicographic exponent) order."""
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or not any(exps) else []
            for v, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{v}")
                elif e > 1:
                    factors.append(f"x{v}^{e}")
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts)


def _coeff(c: Coeff, den: int = 1) -> Coeff:
    """The coefficient c/den (den a positive int) as stored: an int when
    integral, else a Fraction.  At den = 1 an int stays an int, and any
    other rational becomes a Fraction, or its numerator when the
    denominator is 1."""
    if type(c) is int:
        if den == 1:
            return c
        q, r = divmod(c, den)
        if not r:
            return q
    if den != 1:
        c = Fraction(c, den)
    elif type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _same_vars(a: MultiPoly, b: MultiPoly) -> None:
    if a.num_vars != b.num_vars:
        raise DimensionMismatch(
            f"polynomials over {a.num_vars} and {b.num_vars} variables")


def poly_zero(num_vars: int) -> MultiPoly:
    return MultiPoly(num_vars, {})


def poly_const(num_vars: int, value: Coeff) -> MultiPoly:
    value = _coeff(value)
    if value == 0:
        return poly_zero(num_vars)
    return MultiPoly(num_vars, {(0,) * num_vars: value})


def poly_var(num_vars: int, var: int) -> MultiPoly:
    if not 0 <= var < num_vars:
        raise DimensionMismatch(f"no variable {var} in {num_vars} vars")
    exps = tuple(1 if i == var else 0 for i in range(num_vars))
    return MultiPoly(num_vars, {exps: 1})


def poly_from_terms(num_vars: int,
                    terms: Mapping[Exponents, Coeff]) -> MultiPoly:
    """Canonicalize an arbitrary exponent->coefficient mapping; ValueError
    on an exponent vector that is not ``num_vars`` ints >= 0."""
    out: dict[Exponents, Coeff] = {}
    for exps, c in terms.items():
        exps = tuple(exps)
        if len(exps) != num_vars or not all(type(e) is int and e >= 0
                                            for e in exps):
            raise ValueError(f"bad exponent vector {exps!r}")
        out[exps] = out.get(exps, 0) + _coeff(c)
    return MultiPoly(num_vars, {e: _coeff(c) for e, c in out.items() if c})


class PolySection(Record):
    """Section of the free module of rank ``rank`` over the polynomials on
    R^num_vars: one polynomial per generator e_j.  A vector field on R^m is
    a section of rank m, its j-th component the coefficient of d/dx_j.
    Nothing here checks the shape: build raw components through
    ``make_section``, everything else by the constructors or arithmetic.
    """

    __slots__ = ("num_vars", "rank", "comps")
    num_vars: int
    rank: int
    comps: tuple[MultiPoly, ...]

    def __init__(self, num_vars, rank, comps):
        _set(self, "num_vars", num_vars)
        _set(self, "rank", rank)
        _set(self, "comps", comps)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.comps)

    def __add__(self, other: PolySection) -> PolySection:
        _same_bundle(self, other)
        return PolySection(self.num_vars, self.rank, tuple(
            a + b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> PolySection:
        return PolySection(self.num_vars, self.rank,
                           tuple(-p for p in self.comps))

    def __sub__(self, other: PolySection) -> PolySection:
        _same_bundle(self, other)
        return PolySection(self.num_vars, self.rank, tuple(
            a - b for a, b in zip(self.comps, other.comps)))

    def scale(self, f: MultiPoly | Coeff) -> PolySection:
        # a product costs a coefficient operation per term, even by 1 or
        # into zero
        if f == 1:
            return self
        return PolySection(self.num_vars, self.rank,
                           tuple(p * f if p.terms else p for p in self.comps))


def _same_bundle(a: PolySection, b: PolySection) -> None:
    if (a.num_vars, a.rank) != (b.num_vars, b.rank):
        raise DimensionMismatch("sections of different bundles")


def make_section(num_vars: int, rank: int,
                 comps: Sequence[MultiPoly]) -> PolySection:
    if len(comps) != rank:
        raise DimensionMismatch(f"expected {rank} components")
    for p in comps:
        if p.num_vars != num_vars:
            raise DimensionMismatch("component over wrong variable count")
    return PolySection(num_vars, rank, tuple(comps))


def section_zero(num_vars: int, rank: int) -> PolySection:
    return PolySection(num_vars, rank,
                       tuple(poly_zero(num_vars) for _ in range(rank)))


def generator_section(num_vars: int, rank: int, j: int) -> PolySection:
    if not 0 <= j < rank:
        raise DimensionMismatch("generator index out of range")
    comps = [poly_zero(num_vars) for _ in range(rank)]
    comps[j] = poly_const(num_vars, 1)
    return PolySection(num_vars, rank, tuple(comps))


def _field_on(v: PolySection, m: int) -> None:
    if v.num_vars != m or v.rank != m:
        raise DimensionMismatch(f"not a vector field on R^{m}")


def vf_apply(v: PolySection, f: MultiPoly) -> MultiPoly:
    """Apply the vector field v, a section of rank m, as a derivation:
    sum_i v_i * df/dx_i, summed into one dict, with no product by a factor
    equal to 1."""
    _field_on(v, f.num_vars)
    acc: dict[Exponents, Coeff] = {}
    for i, comp in enumerate(v.comps):
        if comp.is_zero:
            continue
        d = f.partial(i)
        term = d if comp.is_one else comp if d.is_one else comp * d
        for exps, c in term.terms.items():
            c = acc.get(exps, 0) + c
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
    return MultiPoly(f.num_vars, acc)


def vf_bracket(v: PolySection, w: PolySection) -> PolySection:
    """Commutator [v, w] of two vector fields on R^m; its components are
    v(w_i) - w(v_i)."""
    m = v.num_vars
    _field_on(v, m)
    _field_on(w, m)
    return PolySection(m, m, tuple(vf_apply(v, wi) - vf_apply(w, vi)
                                   for vi, wi in zip(v.comps, w.comps)))

