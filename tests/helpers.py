"""Shared generators and independent test oracles.

The elimination oracle here is deliberately a different algorithm from
the package's sparse integer elimination (naive dense Gauss-Jordan over
Fraction), so rank and nullspace assertions cross two implementations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nlie.algebra import WedgeElement, make_algebra, make_wedge
from nlie.algebroid import PolyMultiderivation, make_bundle_map
from nlie.catalog import conjugated_algebra
from nlie.cochains import Cochain
from nlie.errors import DimensionMismatch
from nlie.linalg import Matrix, vec_add, vec_is_zero, vec_sub
from nlie.poly import (MultiPoly, PolySection, generator_section, poly_const,
                       poly_from_terms, poly_zero)


# Constructors and arithmetic that only tests use, kept out of the package.

def basis_wedge(grade: int, dim: int, key) -> WedgeElement:
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


def _combine(a: Cochain, b: Cochain, op) -> Cochain:
    """Entry by entry op(a, b), with op a vector sum or difference."""
    if (a.arity, a.dim, a.degree) != (b.arity, b.dim, b.degree):
        raise DimensionMismatch("cochains of different spaces")
    entries = dict(a.entries)
    zero = (0,) * a.dim
    for k, v in b.entries.items():
        acc = op(entries.get(k, zero), v)
        if vec_is_zero(acc):
            entries.pop(k, None)
        else:
            entries[k] = acc
    return Cochain(a.arity, a.dim, a.degree, entries)


def cochain_add(a: Cochain, b: Cochain) -> Cochain:
    return _combine(a, b, vec_add)


def cochain_sub(a: Cochain, b: Cochain) -> Cochain:
    return _combine(a, b, vec_sub)


def to_algebra(d: Cochain):
    """The algebra whose bracket is the degree-1 cochain d."""
    if d.degree != 1:
        raise DimensionMismatch("only degree-1 cochains encode a bracket")
    return make_algebra(d.arity, d.dim,
                        {last: val for (_, last), val in d.entries.items()})


def vf_coordinate(num_vars: int, var: int) -> PolySection:
    """The coordinate field d/dx_var: the generator e_var of rank num_vars."""
    return generator_section(num_vars, num_vars, var)


def constant_bundle_map(num_vars: int, rank: int, arity: int,
                        scalars) -> PolyMultiderivation:
    return make_bundle_map(
        num_vars, rank, arity,
        [[poly_const(num_vars, c) for c in row] for row in scalars])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("matrix sum size mismatch")
    out = [dict(r) for r in a.data]
    for acc, row in zip(out, b.data):
        for j, x in row.items():
            acc[j] = acc.get(j, 0) + x
    return Matrix.from_sparse_rows(out, a.cols)


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return Matrix.from_sparse_rows(
        ({j: c * x for j, x in row.items()} for row in a.data), a.cols)


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
    """Random polynomial of degree at most max_deg; a constant when there
    are no variables."""
    tbl = {}
    for _ in range(terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_deg if num_vars else 0)):
            exps[rng.randrange(num_vars)] += 1
        tbl[tuple(exps)] = tbl.get(tuple(exps), Fraction(0)) + rand_fraction(rng)
    return poly_from_terms(num_vars, tbl)


def monomials(num_vars: int, degree: int) -> list[MultiPoly]:
    """Every monomial of degree at most ``degree``, by degree and then
    lexicographically in the variables; up to degree 2 this is
    ``poly_family`` in its order."""
    import itertools

    out = []
    for d in range(degree + 1):
        for vs in itertools.combinations_with_replacement(range(num_vars), d):
            out.append(poly_from_terms(num_vars, {
                tuple(vs.count(v) for v in range(num_vars)): 1}))
    return out


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


# ------------------------------------------------------------------
# Per-weight references for the algebroid checks: loops that push every
# frame through ``section_bracket`` and ``anchor_eval``, once for each
# weight, kept as the oracle for the table lookups and the generic-weight
# evaluation in ``nlie.algebroid``.  Kernels are looked up on the module
# at call time, so a test that monkeypatches one patches the reference too.

def ref_fi_defect(abd, xs, ys):
    """F(xs; ys) on sections."""
    import nlie.algebroid as A

    inner = A.section_bracket(abd, ys)
    lhs = A.section_bracket(abd, list(xs) + [inner])
    rhs = A.section_zero(abd.num_vars, abd.rank)
    for i in range(abd.arity):
        sub = A.section_bracket(abd, list(xs) + [ys[i]])
        rhs = rhs + A.section_bracket(
            abd, list(ys[:i]) + [sub] + list(ys[i + 1:]))
    return lhs - rhs


def ref_anchor_defect(abd, xs, ys):
    """A(xs; ys) on sections."""
    import nlie.algebroid as A

    lhs = A.vf_bracket(A.anchor_eval(abd, xs), A.anchor_eval(abd, ys))
    rhs = A.section_zero(abd.num_vars, abd.num_vars)
    for i in range(abd.arity - 1):
        w = A.section_bracket(abd, list(xs) + [ys[i]])
        rhs = rhs + A.anchor_eval(abd, list(ys[:i]) + [w] + list(ys[i + 1:]))
    return lhs - rhs


def weighted_frame(abd, x, weights):
    """Generator sections of the tuple x, with slot s scaled by f for each
    (s, f) in ``weights``."""
    import nlie.algebroid as A

    secs = [A.generator_section(abd.num_vars, abd.rank, j) for j in x]
    for s, f in weights:
        secs[s] = secs[s].scale(f)
    return secs


def ref_check_algebroid_axioms(abd, implied=True):
    """``check_algebroid_axioms`` by the conditions of its lemma, each
    evaluated on generator sections: F and A on sorted tuples, and E(f)
    and D(f) for f = x_u.  With ``implied``, also D(f) for f = x_u x_v
    and, for n >= 3, the cross term of two x slots at (x_u, x_v): the
    conditions that the lemma shows to follow from the others, so that
    parity with the package tests that proof too.  Every term of E, D and
    the cross term has an anchor factor (``test_lemma_identities``), so
    with no anchor only F and A are evaluated.  The Leibniz rule holds by
    construction of the bracket; ``ref_leibniz_rule`` checks that."""
    import itertools

    import nlie.algebroid as A
    from nlie.algebra import CheckResult

    n, r, m = abd.arity, abd.rank, abd.num_vars
    coords = [A.poly_var(m, u) for u in range(m)]
    quads = [coords[u] * coords[v] for u in range(m) for v in range(u, m)
             if implied]

    def fails(axiom, x, y, **fields):
        return CheckResult(False, {"axiom": axiom, "x": x, "y": y, **fields})

    phases = [("fundamental identity", ref_fi_defect, n, coords + quads),
              ("anchor compatibility", ref_anchor_defect, n - 1, coords)]
    for axiom, defect, ny, _ in phases:
        for x, y in itertools.product(itertools.combinations(range(r), n - 1),
                                      itertools.combinations(range(r), ny)):
            if not defect(abd, weighted_frame(abd, x, ()),
                          weighted_frame(abd, y, ())).is_zero:
                return fails(axiom, x, y, f=None)
    for axiom, defect, ny, weights in reversed(
            phases if abd.symbol else []):
        for xp, b, y in itertools.product(
                itertools.combinations(range(r), n - 2), range(r),
                itertools.combinations(range(r), ny)):
            x, ys = xp + (b,), weighted_frame(abd, y, ())
            base = defect(abd, weighted_frame(abd, x, ()), ys)
            for f in weights:
                weighted = defect(
                    abd, weighted_frame(abd, x, [(n - 2, f)]), ys)
                if not (weighted - base.scale(f)).is_zero:
                    return fails(axiom, x, y, slot=n - 2, f=str(f))
    # the cross term is skew under swapping the two weighted slots with
    # their weights, so x_{n-2} <= x_{n-1} covers every frame
    cross = itertools.product(
        itertools.combinations(range(r), n - 3),
        itertools.combinations_with_replacement(range(r), 2),
        itertools.combinations(range(r), n)) \
        if implied and n >= 3 and abd.symbol else ()
    for xpp, pair, y in cross:
        x, ys = xpp + pair, weighted_frame(abd, y, ())

        def fi(*weights):
            return ref_fi_defect(abd, weighted_frame(abd, x, weights),
                                 ys).comps

        neither = fi()
        for (g, only_g), (f, only_f) in itertools.product(
                [(g, fi((n - 3, g))) for g in coords],
                [(f, fi((n - 2, f))) for f in coords]):
            both = fi((n - 3, g), (n - 2, f))
            if any(pb - f * pg - g * pf + g * f * p0 for pb, pg, pf, p0
                   in zip(both, only_g, only_f, neither)):
                return fails("fundamental identity", x, y,
                             slot=(n - 3, n - 2), f=(str(g), str(f)))
    return CheckResult(True, None)


def ref_leibniz_rule(abd, degree=2):
    """The anchored Leibniz rule (b) of ``section_bracket`` on generator
    frames, L(x, f z) = f L(x, z) + a(x)(f) z, evaluated once for each
    monomial weight f of degree at most ``degree``, with no generic
    weight: the witness names the sorted wedge x, the generator z and the
    first failing f."""
    import itertools

    import nlie.algebroid as A
    from nlie.algebra import CheckResult

    n, r, m = abd.arity, abd.rank, abd.num_vars
    gens = [A.generator_section(m, r, j) for j in range(r)]
    fam = monomials(m, degree)
    for xk in itertools.combinations(range(r), n - 1):
        xs = [gens[i] for i in xk]
        field = A.anchor_on_generators(abd, xk)
        for j in range(r):
            plain = A.section_bracket(abd, xs + [gens[j]])
            for f in fam:
                weighted = gens[j].scale(f)
                lhs = A.section_bracket(abd, xs + [weighted])
                rhs = plain.scale(f) + gens[j].scale(A.vf_apply(field, f))
                if not (lhs - rhs).is_zero:
                    return CheckResult(False, {"x": xk, "z": j, "f": str(f)})
    return CheckResult(True, None)


def _ref_insertions(d1, d2, keys):
    """Shuffle-signed insertions of d2 into one generator of a wedge
    argument of d1, for any degrees: yields (sign, head, block, slot, w),
    where w is d2 applied to its share of keys and the generator
    block[slot], evaluated on generator sections through ``md_eval``, head
    is d1's share before block, and sign is the Koszul sign times the
    shuffle sign."""
    from nlie.cochains import shuffles

    p, q = d1.degree, d2.degree
    for k in range(p):
        base_sign = -1 if (k * q) % 2 else 1
        for perm, sh_sign in shuffles(k, q):
            head = tuple(keys[i] for i in perm[:k])
            mid = tuple(keys[i] for i in perm[k:])
            block = keys[k + q]
            for s in range(d1.arity - 1):
                w = _ref_md_apply(d2, mid, generator_section(
                    d1.num_vars, d1.rank, block[s]))
                if not w.is_zero:
                    yield base_sign * sh_sign, head, block, s, w


def _ref_gens(d, key):
    return [generator_section(d.num_vars, d.rank, j) for j in key]


def _ref_md_apply(d, keys, z):
    """D(X_1, .., X_degree, z) through ``md_eval`` on generator sections."""
    from nlie.algebroid import md_eval
    if d.degree == 0:
        return md_eval(d, (z,))
    return md_eval(d, _ref_gens(d, keys[-1]) + [z])


def ref_md_circle_eval(d1, d2, keys, z):
    """``md_circle_eval`` by the shuffle-general insertion over generator
    sections, every value through ``md_eval``."""
    import nlie.algebroid as A
    from nlie.cochains import shuffles

    p, q = d1.degree, d2.degree
    out = A.section_zero(d1.num_vars, d1.rank)
    for sign, _, block, s, w in _ref_insertions(d1, d2, keys):
        final = (_ref_gens(d1, block[:s]) + [w]
                 + _ref_gens(d1, block[s + 1:]) + [z])
        out = out + A.md_eval(d1, final).scale(sign)
    base_sign = -1 if (p * q) % 2 else 1
    for perm, sh_sign in shuffles(p, q):
        w = _ref_md_apply(d2, tuple(keys[i] for i in perm[p:]), z)
        val = _ref_md_apply(d1, tuple(keys[i] for i in perm[:p]), w)
        out = out + val.scale(base_sign * sh_sign)
    return out


def ref_md_bracket_eval(d1, d2, keys, z):
    import nlie.algebroid as A

    sign = -1 if (d1.degree * d2.degree) % 2 else 1
    return (ref_md_circle_eval(d1, d2, keys, z).scale(sign)
            - ref_md_circle_eval(d2, d1, keys, z))


def _ref_odot(sig_owner, other, keys):
    """(sigma_D1 (.) D2)(keys), the symbol's tensorial extension taken as
    ``anchor_eval`` of the algebroid whose anchor is that symbol."""
    import nlie.algebroid as A

    m, r, n = sig_owner.num_vars, sig_owner.rank, sig_owner.arity
    out = A.section_zero(m, m)
    for sign, head, block, s, w in _ref_insertions(sig_owner, other, keys):
        # a symbol key joins its wedges: the head's, then the last one
        h = sum(head, ())
        anchor = {key[len(h):]: field
                  for key, field in sig_owner.symbol.items()
                  if key[:len(h)] == h}
        abd = A.make_poly_algebroid(m, r, n, {}, anchor)
        wedge = (_ref_gens(sig_owner, block[:s]) + [w]
                 + _ref_gens(sig_owner, block[s + 1:]))
        out = out + A.anchor_eval(abd, wedge).scale(sign)
    return out


def ref_symbol_bracket(d1, d2):
    """``symbol_bracket`` through ``_ref_odot``."""
    import itertools

    import nlie.algebroid as A
    from nlie.cochains import shuffles

    p, q = d1.degree, d2.degree
    sign = -1 if (p * q) % 2 else 1
    zero = A.section_zero(d1.num_vars, d1.num_vars)
    wedges = list(itertools.combinations(range(d1.rank), d1.arity - 1))
    out = {}
    for keys in itertools.product(wedges, repeat=p + q):
        total = (_ref_odot(d1, d2, keys).scale(sign)
                 - _ref_odot(d2, d1, keys))
        for perm, sh_sign in shuffles(p, q):
            head = tuple(keys[i] for i in perm[:p])
            tail = tuple(keys[i] for i in perm[p:])
            total = total + A.vf_bracket(d1.symbol.get(sum(head, ()), zero),
                                         d2.symbol.get(sum(tail, ()), zero)
                                         ).scale(sh_sign)
        out[keys] = total
    return out


def ref_check_symbol_leibniz(abd, d1, d2, degree=2):
    """``check_symbol_leibniz`` with one evaluation per frame and
    monomial weight of degree at most ``degree``, on the reference
    products ``ref_md_bracket_eval`` and ``ref_symbol_bracket``."""
    import itertools

    import nlie.algebroid as A
    from nlie.algebra import CheckResult

    n, m, r = d1.arity, d1.num_vars, d1.rank
    fam = monomials(m, degree)
    symbols = ref_symbol_bracket(d1, d2)
    wedges = list(itertools.combinations(range(r), n - 1))
    for keys in itertools.product(wedges, repeat=d1.degree + d2.degree):
        sigma = symbols[keys]
        for j in range(r):
            gen = A.generator_section(m, r, j)
            plain = ref_md_bracket_eval(d1, d2, keys, gen)
            for f in fam:
                lhs = ref_md_bracket_eval(d1, d2, keys, gen.scale(f))
                rhs = plain.scale(f) + gen.scale(A.vf_apply(sigma, f))
                if not (lhs - rhs).is_zero:
                    return CheckResult(False, {"wedges": keys, "z": j,
                                               "f": str(f)})
    return CheckResult(True, None)


def _ref_apply(nmap, s):
    """N s = sum_j s_j N e_j, with the columns N e_j read from the table
    of the bundle map by hand."""
    import nlie.algebroid as A

    out = A.section_zero(s.num_vars, s.rank)
    for j, p in enumerate(s.comps):
        col = nmap.table.get((j,))
        if col is not None:
            out = out + A.make_section(s.num_vars, s.rank, col).scale(p)
    return out


def ref_nijenhuis_symbol_check(abd, nmap, degree=2):
    """``nijenhuis_symbol_check`` with one evaluation per frame and
    monomial weight of degree at most ``degree``."""
    import itertools

    import nlie.algebroid as A
    from nlie.algebra import CheckResult
    from nlie.errors import InvalidStructure

    res = A.check_poly_nijenhuis(abd, nmap)
    if not res.holds:
        raise InvalidStructure("bundle map fails the Nijenhuis condition",
                               witness=res.witness)
    n, r, m = abd.arity, abd.rank, abd.num_vars
    fam = monomials(m, degree)
    for k in range(1, n):
        for xk in itertools.combinations(range(r), n - 1):
            gens = [A.generator_section(m, r, j) for j in xk]
            # the anchors of the N-twisted frames depend on neither j nor f
            anchors = [A.anchor_eval(abd, [_ref_apply(nmap, g)
                                           if t in slots else g
                                           for t, g in enumerate(gens)])
                       for slots in itertools.combinations(range(n - 1), k)]
            for j in range(r):
                gen = A.generator_section(m, r, j)
                plain = A.nijenhuis_section_bracket(abd, nmap, k,
                                                    gens + [gen])
                for f in fam:
                    deformed = A.nijenhuis_section_bracket(
                        abd, nmap, k, gens + [gen.scale(f)])
                    defect = deformed - plain.scale(f)
                    claimed = A.poly_zero(m)
                    for anchor in anchors:
                        claimed = claimed + A.vf_apply(anchor, f)
                    expected = gen.scale(claimed)
                    if not (defect - expected).is_zero:
                        return CheckResult(False, {"k": k, "x": xk, "z": j,
                                                   "f": str(f)})
    return CheckResult(True, None)


def rand_low_poly(rng: random.Random, num_vars: int, terms: int = 1):
    """Random polynomial of degree at most 1 (a constant on a point)."""
    return rand_poly(rng, num_vars, 1, terms)


def rand_field(rng: random.Random, num_vars: int):
    from nlie.poly import make_section, poly_zero

    return make_section(num_vars, num_vars, tuple(
        rand_low_poly(rng, num_vars) if rng.random() < 0.5
        else poly_zero(num_vars) for _ in range(num_vars)))


def rand_poly_algebroid(rng: random.Random, m: int, r: int, n: int):
    """Random algebroid on R^m of rank r and arity n: a sparse bracket
    table, random anchor fields, or both (bracket only on a point)."""
    import itertools

    from nlie.algebroid import make_poly_algebroid
    from nlie.poly import poly_zero

    kind = rng.choice(["anchor", "anchor", "both", "bracket"]) if m \
        else "bracket"
    table, anchor = {}, {}
    if kind != "anchor":
        for key in itertools.combinations(range(r), n):
            if rng.random() < 0.4:
                comps = [poly_zero(m)] * r
                comps[rng.randrange(r)] = rand_low_poly(rng, m)
                table[key] = tuple(comps)
    if kind != "bracket":
        for w in itertools.combinations(range(r), n - 1):
            if rng.random() < 0.4:
                anchor[w] = rand_field(rng, m)
    return make_poly_algebroid(m, r, n, table, anchor)


def rand_sparse_algebroid(rng: random.Random, m: int, r: int, n: int):
    """Random algebroid on R^m of rank r and arity n with at most two
    bracket entries, each one generator times a small constant or a
    random polynomial of degree at most 1, and one or two anchor fields
    with constant or degree-1 components; it often passes the generator
    phases, so that the weighted phases decide it."""
    import itertools

    from nlie.algebroid import make_poly_algebroid
    from nlie.poly import make_section, poly_const, poly_zero

    def coeff(choices):
        return rand_low_poly(rng, m) if rng.random() < 0.3 \
            else poly_const(m, rng.choice(choices))

    table, anchor = {}, {}
    keys = list(itertools.combinations(range(r), n))
    for key in rng.sample(keys, rng.randint(0, min(2, len(keys)))):
        comps = [poly_zero(m)] * r
        comps[rng.randrange(r)] = coeff([1, -1, 2])
        table[key] = tuple(comps)
    wedges = list(itertools.combinations(range(r), n - 1))
    for w in rng.sample(wedges, rng.randint(1, min(2, len(wedges)))):
        anchor[w] = make_section(m, m, tuple(
            coeff([1, -1]) if rng.random() < 0.6 else poly_zero(m)
            for _ in range(m)))
    return make_poly_algebroid(m, r, n, table, anchor)


def rand_multiderivation(rng: random.Random, m: int, r: int, n: int,
                         degree: int):
    """Random degree-0 or degree-1 multiderivation with random symbol."""
    import itertools

    from nlie.algebroid import make_poly_multiderivation
    from nlie.poly import poly_zero

    def comps():
        return tuple(rand_low_poly(rng, m) if rng.random() < 0.4
                     else poly_zero(m) for _ in range(r))

    if degree == 0:
        table = {(j,): comps() for j in range(r) if rng.random() < 0.6}
        symbol = {(): rand_field(rng, m)} if m else {}
    else:
        table = {key: comps() for key in itertools.combinations(range(r), n)
                 if rng.random() < 0.5}
        symbol = {w: rand_field(rng, m)
                  for w in itertools.combinations(range(r), n - 1)
                  if m and rng.random() < 0.5}
    return make_poly_multiderivation(m, r, n, degree, table, symbol)


def rand_bundle_map(rng: random.Random, m: int, r: int, n: int):
    """A constant diagonal map, a polynomial multiple of the identity, or
    a sparse random map (which usually fails the Nijenhuis condition), as
    the degree-0 multiderivation of arity n."""
    from nlie.algebroid import make_bundle_map
    from nlie.poly import poly_const, poly_zero

    kind = rng.choice(["diagonal", "scalar", "random"])
    if kind == "diagonal":
        diag = [poly_const(m, rng.randint(-2, 2)) for _ in range(r)]
    elif kind == "scalar":
        diag = [rand_low_poly(rng, m, 2)] * r
    else:
        return make_bundle_map(m, r, n, [
            [rand_low_poly(rng, m) if rng.random() < 0.3 else poly_zero(m)
             for _ in range(r)] for _ in range(r)])
    return make_bundle_map(m, r, n, [[diag[i] if i == j else poly_zero(m)
                                      for j in range(r)] for i in range(r)])


# ------------------------------------------------------------------
# Dense references for the n-Lie kernels: the loops that evaluate every
# basis bracket through ``bracket_on_basis``/``_ref_rho`` and expand
# products of coordinates here, kept as the oracle for the memoized
# sparse lookups in ``nlie.algebra`` and ``nlie.deformations``.

def _ref_expand(args, term, m):
    """sum of c_1 * .. * c_k * term(i_1, .., i_k) over the nonzero
    coordinates c_t = args[t][i_t], as a dense length-m vector."""
    import itertools

    out = [Fraction(0)] * m
    nonzero = [[(i, c) for i, c in enumerate(v) if c] for v in args]
    for combo in itertools.product(*nonzero):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        for k, x in enumerate(term(tuple(i for i, _ in combo))):
            out[k] += coeff * x
    return tuple(out)


def _ref_bracket(alg, args):
    from nlie.algebra import bracket_on_basis

    return _ref_expand(args, lambda idx: bracket_on_basis(alg, idx),
                       alg.dim)


def _ref_rho(rho, idx, j):
    """rho(e_{i_1},..,e_{i_{n-1}}) applied to the j-th module basis
    vector."""
    from nlie.algebra import sort_with_sign

    ss = sort_with_sign(idx)
    val = ss and rho.action.get((ss[1], j))
    if not val:
        return (Fraction(0),) * rho.module_dim
    return val if ss[0] == 1 else tuple(-c for c in val)


def _unit(m, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(m))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_fi_sides(alg, a, b):
    """Both sides of the fundamental identity at the acting tuple a and
    the inner tuple b, every bracket of basis vectors evaluated afresh."""
    from nlie.algebra import bracket_on_basis

    m = alg.dim
    inner = bracket_on_basis(alg, b)
    lhs = _ref_expand([inner], lambda k: bracket_on_basis(alg, a + k), m)
    rhs = (Fraction(0),) * m
    for i, y in enumerate(b):
        acted = bracket_on_basis(alg, a + (y,))
        moved = _ref_expand(
            [acted], lambda k: bracket_on_basis(alg, b[:i] + k + b[i + 1:]), m)
        rhs = tuple(x + z for x, z in zip(rhs, moved))
    return lhs, rhs


def ref_check_fundamental_identity(alg):
    """``check_fundamental_identity`` with every bracket of basis vectors
    evaluated afresh for every pair of tuples."""
    import itertools

    from nlie.algebra import CheckResult

    n, m = alg.arity, alg.dim
    for a in itertools.combinations(range(m), n - 1):
        for b in itertools.combinations(range(m), n):
            lhs, rhs = ref_fi_sides(alg, a, b)
            if lhs != rhs:
                return CheckResult(False, {
                    "acting": a, "inner": b,
                    "lhs": lhs, "rhs": rhs, "defect": _sub(lhs, rhs)})
    return CheckResult(True)


def ref_check_representation(alg, rho):
    """Conditions (1) and (2) of ``check_representation`` as written, on
    every module basis vector, each rho-term expanded densely through
    ``_ref_rho``.  The witness names the condition and its tuples."""
    import itertools

    from nlie.algebra import CheckResult, bracket_on_basis

    n, m, r = alg.arity, alg.dim, rho.module_dim

    def act(idx, v):
        """rho(e_idx) applied to the module vector v."""
        return _ref_expand([v], lambda k: _ref_rho(rho, idx, k[0]), r)

    for x in itertools.combinations(range(m), n - 1):
        for y in itertools.combinations(range(m), n - 1):
            for j in range(r):
                lhs = _sub(act(x, _ref_rho(rho, y, j)),
                           act(y, _ref_rho(rho, x, j)))
                rhs = (Fraction(0),) * r
                for i in range(n - 1):
                    term = _ref_expand(
                        [bracket_on_basis(alg, x + (y[i],))],
                        lambda k: _ref_rho(rho, y[:i] + k + y[i + 1:], j), r)
                    rhs = tuple(a + b for a, b in zip(rhs, term))
                if lhs != rhs:
                    return CheckResult(False, {"condition": 1, "x": x,
                                               "y": y, "xi": j})
    for x in itertools.combinations(range(m), n - 2):
        for y in itertools.combinations(range(m), n):
            for j in range(r):
                lhs = _ref_expand([bracket_on_basis(alg, y)],
                                  lambda k: _ref_rho(rho, x + k, j), r)
                rhs = (Fraction(0),) * r
                for i in range(n):
                    sign = -1 if (n - 1 - i) % 2 else 1
                    term = act(y[:i] + y[i + 1:], _ref_rho(rho, x + (y[i],), j))
                    rhs = tuple(a + sign * b for a, b in zip(rhs, term))
                if lhs != rhs:
                    return CheckResult(False, {"condition": 2, "x": x,
                                               "y": y, "xi": j})
    return CheckResult(True)


def ref_semidirect_table(alg, rho):
    """The table of g ⋉ V, unvalidated: the bracket padded with the
    module's zeros, and rho(key) e_j at key + (dim + j,)."""
    from nlie.algebra import make_algebra

    m, r = alg.dim, rho.module_dim
    brackets = {key: tuple(v) + (0,) * r for key, v in alg.structure.items()}
    for (key, j), v in rho.action.items():
        brackets[key + (m + j,)] = (0,) * m + tuple(v)
    return make_algebra(alg.arity, m + r, brackets)


def ref_check_o_operator(alg, rho, t):
    """``check_o_operator`` on all r^n ordered tuples, applying T to each
    rho-term separately."""
    import itertools

    from nlie.algebra import CheckResult

    n, m, r = alg.arity, alg.dim, rho.module_dim
    t_cols = [t.column(j) for j in range(r)]
    for xi in itertools.product(range(r), repeat=n):
        lhs = _ref_bracket(alg, [t_cols[j] for j in xi])
        rhs = (Fraction(0),) * m
        for i in range(n):
            others = xi[:i] + xi[i + 1:]
            acted = _ref_expand(
                [t_cols[j] for j in others] + [_unit(r, xi[i])],
                lambda idx: _ref_rho(rho, idx[:-1], idx[-1]), r)
            sign = -1 if (n - 1 - i) % 2 else 1
            rhs = tuple(x + sign * y for x, y in zip(rhs, t.apply(acted)))
        if lhs != rhs:
            return CheckResult(False, {"xi": xi, "lhs": lhs, "rhs": rhs,
                                       "defect": _sub(lhs, rhs)})
    return CheckResult(True)


def ref_nijenhuis_bracket(alg, nmap, k):
    """``nijenhuis_bracket`` with one dense bracket per choice of slots."""
    import itertools

    from nlie.algebra import bracket_on_basis
    from nlie.cochains import Cochain

    n, m = alg.arity, alg.dim
    ncols = [nmap.column(j) for j in range(m)]
    prev = {((), key): bracket_on_basis(alg, key)
            for key in itertools.combinations(range(m), n)}
    prev = {kk: v for kk, v in prev.items() if any(v)}
    for step in range(1, k + 1):
        entries = {}
        for key in itertools.combinations(range(m), n):
            total = (Fraction(0),) * m
            for slots in itertools.combinations(range(n), step):
                args = [ncols[key[t]] if t in slots else _unit(m, key[t])
                        for t in range(n)]
                total = tuple(x + y for x, y in
                              zip(total, _ref_bracket(alg, args)))
            pv = prev.get(((), key))
            if pv is not None:
                total = _sub(total, nmap.apply(pv))
            if any(total):
                entries[((), key)] = total
        prev = entries
    return Cochain(n, m, 1, prev)


def ref_check_nijenhuis(alg, nmap):
    """``check_nijenhuis`` on the dense references."""
    import itertools

    from nlie.algebra import CheckResult
    from nlie.errors import InvalidStructure

    res = ref_check_fundamental_identity(alg)
    if not res.holds:
        raise InvalidStructure("bracket fails the fundamental identity",
                               witness=res.witness)
    n, m = alg.arity, alg.dim
    ncols = [nmap.column(j) for j in range(m)]
    top = ref_nijenhuis_bracket(alg, nmap, n - 1)
    for key in itertools.combinations(range(m), n):
        lhs = _ref_bracket(alg, [ncols[j] for j in key])
        rhs = nmap.apply(top.entries.get(((), key), (Fraction(0),) * m))
        if lhs != rhs:
            return CheckResult(False, {"tuple": key, "lhs": lhs, "rhs": rhs})
    return CheckResult(True, None)


def ref_series(emap, m: int, top: int):
    """The coefficients of Phi_t and of its truncated inverse series up to
    t^top, by dense Matrix algebra: inv_b = -sum_{j=1..b} F_j inv_(b-j)."""
    fwd = [Matrix.identity(m), *emap.maps[:top]]
    fwd += [Matrix.zero(m, m)] * (top + 1 - len(fwd))
    inv = [Matrix.identity(m)]
    for b in range(1, top + 1):
        acc = Matrix.zero(m, m)
        for j in range(1, b + 1):
            acc = mat_add(acc, fwd[j].mul(inv[b - j]))
        inv.append(mat_scale(-1, acc))
    return fwd, inv


def ref_conjugate_path(path, emap):
    """``conjugate_path`` with one dense bracket and one application of
    the inverse series per spread of the powers of t."""
    import itertools

    from nlie.deformations import DeformationPath

    n, m = path.base.arity, path.base.dim
    k = path.order
    fwd, inv = ref_series(emap, m, k)
    brackets = [path.base, *map(to_algebra, path.terms)]
    new_terms = []
    for r in range(1, k + 1):
        entries = {}
        for key in itertools.combinations(range(m), n):
            total = (Fraction(0),) * m
            for a in range(r + 1):
                for i in range(min(k, r - a) + 1):
                    rem = r - a - i
                    for bs in itertools.product(range(rem + 1), repeat=n):
                        if sum(bs) != rem:
                            continue
                        args = [fwd[bs[t]].column(key[t]) for t in range(n)]
                        val = _ref_bracket(brackets[i], args)
                        total = tuple(x + y for x, y in
                                      zip(total, inv[a].apply(val)))
            if any(total):
                entries[((), key)] = total
        new_terms.append(Cochain(n, m, 1, entries))
    return DeformationPath(path.base, k, tuple(new_terms))


def rand_action(rng: random.Random, alg, module_dim: int,
                density: float = 0.5):
    """Random skew action of (n-1)-tuples on Q^module_dim, not checked
    against the representation conditions."""
    import itertools

    from nlie.algebra import make_representation

    action = {}
    for key in itertools.combinations(range(alg.dim), alg.arity - 1):
        for j in range(module_dim):
            if rng.random() < density:
                action[(key, j)] = rand_sparse_vector(rng, module_dim, 0.6)
    return make_representation(alg.dim, module_dim, alg.arity, action)


# ------------------------------------------------------------------
# Dense reference for the circle product: the walk that evaluated every
# output key on dense Fraction vectors, kept as the oracle for the sparse
# walk in ``nlie.cochains``.  It has its own storage-key reads, so the
# two share no lookup code.

def _ref_eval_keys_z(d, blocks, z):
    from nlie.algebra import merge_index
    from nlie.linalg import vec_scale, vec_zero

    if d.degree == 0:
        return d.entries.get(((), (z,)), vec_zero(d.dim))
    mi = merge_index(blocks[-1], z)
    if mi is None:
        return vec_zero(d.dim)
    sign, wedge = mi
    val = d.entries.get((blocks[:-1], wedge))
    if val is None:
        return vec_zero(d.dim)
    return val if sign == 1 else vec_scale(-1, val)


def _ref_eval_keys_vec(d, blocks, w):
    from nlie.linalg import densify, multilinear, support

    return densify(multilinear(
        [support(w)], lambda j: enumerate(_ref_eval_keys_z(d, blocks, j[0]))),
        d.dim)


def _ref_circle_raw(d1, d2, args, z):
    from nlie.algebra import sort_with_sign
    from nlie.cochains import shuffles
    from nlie.linalg import vec_is_zero

    p, q = d1.degree, d2.degree
    n, m = d1.arity, d1.dim
    total = [Fraction(0)] * m
    for k in range(p):
        base_sign = -1 if (k * q) % 2 else 1
        ins = args[k + q]
        tail = args[k + q + 1:]
        for pos, sgn in shuffles(k, q):
            head = tuple(args[i] for i in pos[:k])
            mid = tuple(args[i] for i in pos[k:])
            coeff0 = base_sign * sgn
            for s in range(n - 1):
                w = _ref_eval_keys_z(d2, mid, ins[s])
                if vec_is_zero(w):
                    continue
                for j, wj in enumerate(w):
                    if wj == 0:
                        continue
                    ss = sort_with_sign(ins[:s] + (j,) + ins[s + 1:])
                    if ss is None:
                        continue
                    sub_sign, sub = ss
                    v = _ref_eval_keys_z(d1, head + (sub,) + tail, z)
                    if vec_is_zero(v):
                        continue
                    c = coeff0 * sub_sign * wj
                    for i, vi in enumerate(v):
                        if vi:
                            total[i] += c * vi
    base_sign = -1 if (p * q) % 2 else 1
    for pos, sgn in shuffles(p, q):
        head = tuple(args[i] for i in pos[:p])
        mid = tuple(args[i] for i in pos[p:])
        w = _ref_eval_keys_z(d2, mid, z)
        if vec_is_zero(w):
            continue
        v = _ref_eval_keys_vec(d1, head, w)
        c = base_sign * sgn
        for i, vi in enumerate(v):
            if vi:
                total[i] += c * vi
    return tuple(total)


def ref_circle(d1, d2):
    """``cochains.circle`` as a dense walk: a length-m total per output
    key, with the composition term as its own loop."""
    from nlie.cochains import Cochain, space_keys
    from nlie.linalg import vec_is_zero

    p, q = d1.degree, d2.degree
    n, m = d1.arity, d1.dim
    entries = {}
    for key in space_keys(m, n, p + q):
        blocks, last = key
        if p + q == 0:
            val = _ref_eval_keys_vec(d1, (), _ref_eval_keys_z(d2, (), last[0]))
        else:
            args = blocks + (last[:n - 1],)
            val = _ref_circle_raw(d1, d2, args, last[n - 1])
        if not vec_is_zero(val):
            entries[key] = val
    return Cochain(n, m, p + q, entries)


def ref_circle_sum(terms):
    """sum c · D1 ∘ D2 over the (c, D1, D2) of ``terms``, all in Fractions:
    each product by ``ref_circle``, whose totals start from Fraction(0),
    and the sum taken entry by entry.  The all-Fraction reference for the
    integer kernels behind ``circle``, ``gla_bracket``,
    ``maurer_cartan_defect`` and the obstruction."""
    from nlie.cochains import Cochain

    _, d, e = terms[0]
    n, m, degree = d.arity, d.dim, d.degree + e.degree
    total = {}
    for c, d1, d2 in terms:
        for key, val in ref_circle(d1, d2).entries.items():
            acc = total.get(key, (Fraction(0),) * m)
            total[key] = tuple(a + Fraction(c) * x for a, x in zip(acc, val))
    return Cochain(n, m, degree, {key: val for key, val in total.items()
                                  if any(val)})


def simple_4lie():
    """The simple 4-Lie algebra on Q^5: [e_0..ê_l..e_4] = (-1)^(4-l) e_l,
    the bracket of the four basis vectors other than e_l."""
    table = {}
    for l in range(5):
        key = tuple(i for i in range(5) if i != l)
        table[key] = tuple(Fraction((-1) ** (4 - l) if i == l else 0)
                           for i in range(5))
    return make_algebra(4, 5, table)


def rand_rational_algebra(rng: random.Random, base):
    """Transport a known-valid algebra along a random rational basis change
    (a unimodular matrix times a diagonal of random fractions), so its
    structure constants carry denominators."""
    m = base.dim
    diag = Matrix.from_rows([[Fraction(rng.choice((1, -1)) * rng.randint(1, 4),
                                       rng.randint(1, 5)) if i == j else 0
                              for j in range(m)] for i in range(m)])
    return conjugated_algebra(base, rand_invertible(rng, m).mul(diag))


def ref_differential(alg, k: int) -> Matrix:
    """d_k assembled in Fractions on the structure table itself (no FI
    check): the rational route that ``Complex`` runs on L times the table,
    in integers."""
    from nlie.cochains import coboundary_rows
    from nlie.cohomology import complex_dim

    return Matrix.from_sparse_rows(coboundary_rows(alg, k - 1),
                                   complex_dim(alg, k))


def ref_report(alg, k: int):
    """``cohomology(alg, k)`` on the rational matrices of
    ``ref_differential``, eliminated as rational matrices: coboundary
    columns at d_(k-1)'s pivots, then the cocycles, in one combined
    elimination."""
    import itertools

    from nlie.algebra import WedgeElement
    from nlie.cohomology import CohomologyReport, vec_to_cochain
    from nlie.linalg import rank_nullspace

    d_out = ref_differential(alg, k)
    out = rank_nullspace(d_out)
    cob_cols, rank_in = [], 0
    if k:
        d_in = ref_differential(alg, k - 1)
        inn = rank_nullspace(d_in)
        rank_in = inn.rank
        cob_cols = [d_in.column(j) for j in inn.pivots]
    betti = d_out.cols - out.rank - rank_in
    reps = []
    if betti > 0:
        combined = Matrix.from_cols(cob_cols + list(out.nullspace),
                                    d_out.cols)
        base = len(cob_cols)
        reps = [out.nullspace[j - base]
                for j in rank_nullspace(combined).pivots if j >= base]
    n, m = alg.arity, alg.dim
    if k == 0:
        keys = list(itertools.combinations(range(m), n - 1))
        packed = tuple(WedgeElement(n - 1, m, {key: c for key, c
                                               in zip(keys, r) if c})
                       for r in reps)
    else:
        packed = tuple(vec_to_cochain(r, n, m, k - 1) for r in reps)
    return CohomologyReport(k, d_out.cols, out.rank, rank_in, betti, packed)


def ref_extend(path):
    """``extend`` by a rational solve against ``ref_differential``:
    the next term, or None when the obstruction is not a coboundary."""
    from nlie.cochains import cochain_to_vec, vec_to_cochain
    from nlie.deformations import obstruction
    from nlie.linalg import solve_linear

    sol = solve_linear(ref_differential(path.base, 2),
                       cochain_to_vec(obstruction(path)))
    return sol and vec_to_cochain(sol, path.base.arity, path.base.dim, 1)


def refusal_replays(d: Matrix, b, witness: dict[int, int]) -> bool:
    """Replay a refusal of d x = b in Fractions: its left witness y must
    have sum_s y_s·d[s][j] = 0 for every column j and sum_s y_s·b_s != 0,
    which no solution x could meet."""
    left = [Fraction(0)] * d.cols
    for s, y in witness.items():
        for j, a in d.data[s].items():
            left[j] += y * a
    return not any(left) and sum(y * b[s] for s, y in witness.items()) != 0


def ref_rigidity_probe(alg, max_order: int, trials: int, seed: int = 0):
    """``rigidity_probe`` by rational eliminations and solves against
    ``ref_differential``: (betti_h2, trials)."""
    from nlie.cochains import (cochain_is_zero, cochain_to_vec, cochain_zero,
                               vec_to_cochain)
    from nlie.deformations import (DeformationPath, EquivalenceMap,
                                   RigidityTrial, conjugate_path,
                                   constant_path)
    from nlie.linalg import rank_nullspace, solve_linear, vec_scale

    rng = random.Random(seed)
    n, m = alg.arity, alg.dim
    d21, d10 = ref_differential(alg, 2), ref_differential(alg, 1)
    cocycles = rank_nullspace(d21).nullspace
    betti = len(cocycles) - rank_nullspace(d10).rank
    results = []
    for t in range(trials):
        if t % 2 == 0 and cocycles:
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in cocycles]
            lead = vec_to_cochain(
                Matrix.from_cols(cocycles, d21.cols).apply(coeffs), n, m, 1)
            cur = DeformationPath(alg, max_order, (lead,) + (
                cochain_zero(n, m, 1),) * (max_order - 1))
            kind = "cocycle"
        else:
            maps = [Matrix.from_rows([[rng.randint(-1, 1) for _ in range(m)]
                                      for _ in range(m)])
                    for _ in range(max_order)]
            cur = conjugate_path(constant_path(alg, max_order),
                                 EquivalenceMap(max_order, tuple(maps)))
            kind = "conjugated"
        while True:
            lead = next((i + 1 for i, term in enumerate(cur.terms)
                         if not cochain_is_zero(term)), None)
            if lead is None:
                results.append(RigidityTrial(kind, True, None))
                break
            sol = solve_linear(d10, vec_scale(
                -1, cochain_to_vec(cur.terms[lead - 1])))
            if sol is None:
                results.append(RigidityTrial(kind, False, lead))
                break
            # sol is psi column by column
            psi = Matrix.from_cols([sol[j * m:(j + 1) * m]
                                    for j in range(m)], m)
            maps = [Matrix.zero(m, m)] * (lead - 1) + [psi]
            cur = conjugate_path(cur, EquivalenceMap(cur.order, tuple(maps)))
    return betti, tuple(results)
