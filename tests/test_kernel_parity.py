"""The memoized sparse n-Lie kernels against the dense reference loops in
``helpers``.

Parity: equal results (verdict, witness and every cochain entry, in
order) on seeded random inputs.  The references evaluate each basis
bracket through ``bracket_on_basis`` (``_ref_rho`` for rho) and expand
coordinates by their own loop, so they share neither the lookup memo nor
``linalg.multilinear`` with the package; the O-operator reference scans
all r^n ordered tuples.  The circle reference is the dense walk with its
own storage-key reads and a separate composition loop.  The conjugation
reference applies the inverse series of Phi_t, built by ``ref_series``;
the package never builds it.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import (rand_action, rand_bracket, rand_cochain,
                     rand_fraction, rand_matrix, rand_rational_algebra,
                     rand_sparse_vector, rand_valid_algebra, ref_circle,
                     ref_check_fundamental_identity, ref_check_nijenhuis,
                     ref_check_o_operator, ref_check_representation,
                     ref_conjugate_path, ref_fi_sides, ref_nijenhuis_bracket,
                     ref_semidirect_table, ref_series)

from nlie.algebra import (adjoint_representation, check_fundamental_identity,
                          check_o_operator, check_representation,
                          make_representation, semidirect_product)
from nlie.catalog import (broken_ternary_bracket, heisenberg3,
                          levi_civita_bracket, sl2)
from nlie.cochains import circle, cochain_zero
from nlie.deformations import (EquivalenceMap, check_nijenhuis,
                               conjugate_path, make_deformation_path,
                               nijenhuis_bracket, o_operator_lift)
from nlie.errors import InvalidStructure
from nlie.linalg import Matrix


def _bracket(rng):
    """Arity 2-4, dimension n-6; dense brackets mostly fail FI, sparse
    ones often hold it."""
    n = rng.randint(2, 4)
    return rand_bracket(rng, n, rng.randint(n, 6),
                        rng.choice([0.1, 0.3, 0.7]))


def _sparse_matrix(rng, rows, cols):
    return Matrix.from_rows([rand_sparse_vector(rng, cols, 0.5)
                             for _ in range(rows)])


def _outcome(fn, *args):
    """Result, or the witness of the InvalidStructure raised."""
    try:
        return fn(*args)
    except InvalidStructure as exc:
        return ("raised", exc.witness)


def test_fundamental_identity_parity():
    rng = random.Random(101)
    algs = [_bracket(rng) for _ in range(60)]
    algs += [rand_valid_algebra(rng, base)
             for base in (levi_civita_bracket(), sl2(), heisenberg3())]
    verdicts = set()
    for alg in algs:
        got = check_fundamental_identity(alg)
        assert got == ref_check_fundamental_identity(alg)
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_o_operator_parity():
    rng = random.Random(202)
    verdicts = set()
    for trial in range(30):
        alg = _bracket(rng)
        r = rng.randint(1, 4)
        rho = rand_action(rng, alg, r)
        t = (Matrix.zero(alg.dim, r) if trial % 10 == 0
             else _sparse_matrix(rng, alg.dim, r))
        got = check_o_operator(alg, rho, t)
        assert got == ref_check_o_operator(alg, rho, t)
        verdicts.add((got.holds, r < alg.arity))
    # rank-one maps into the Levi-Civita adjoint module: a mix of verdicts
    lc = levi_civita_bracket()
    rho = adjoint_representation(lc)
    for _ in range(5):
        u = [rng.randint(-2, 2) for _ in range(4)]
        v = [rng.randint(-2, 2) for _ in range(4)]
        t = Matrix.from_rows([[a * b for b in v] for a in u])
        got = check_o_operator(lc, rho, t)
        assert got == ref_check_o_operator(lc, rho, t)
        verdicts.add((got.holds, False))
    # failing witnesses and the n > r case (always holds) both occur
    assert {(False, False), (True, False), (True, True)} <= verdicts


def test_check_representation_parity():
    # verdicts against conditions (1) and (2) written out; a failure is
    # the FI witness of the unvalidated g ⋉ V at a pair with one module
    # index, and replays there
    rng = random.Random(1212)
    cases = []
    for base in (levi_civita_bracket(), sl2(), heisenberg3()):
        for alg in (base, rand_valid_algebra(rng, base)):
            cases.append((alg, adjoint_representation(alg)))
    lc = levi_civita_bracket()
    cases.append((lc, make_representation(4, 4, 3, {
        k: tuple(2 * c for c in v)
        for k, v in adjoint_representation(lc).action.items()})))
    for _ in range(40):
        n = rng.randint(2, 4)
        alg = rand_bracket(rng, n, rng.randint(n, 5),
                           rng.choice([0.1, 0.3, 0.7]))
        cases.append((alg, rand_action(rng, alg, rng.randint(1, 3),
                                       rng.choice([0.1, 0.5]))))
    bad = broken_ternary_bracket()
    cases.append((bad, make_representation(bad.dim, 2, bad.arity, {})))
    seen = set()
    for alg, rho in cases:
        got = check_representation(alg, rho)
        assert got.holds == ref_check_representation(alg, rho).holds
        seen.add((got.holds, check_fundamental_identity(alg).holds))
        if got.holds:
            continue
        w, m = got.witness, alg.dim
        assert sum(i >= m for i in w["acting"] + w["inner"]) == 1
        lhs, rhs = ref_fi_sides(ref_semidirect_table(alg, rho),
                                w["acting"], w["inner"])
        assert (w["lhs"], w["rhs"]) == (lhs, rhs)
        assert w["defect"] == tuple(x - y for x, y in zip(lhs, rhs))
    # both verdicts, and a representation of a base failing FI
    assert {(True, True), (False, True), (True, False),
            (False, False)} <= seen


def test_nijenhuis_bracket_parity():
    rng = random.Random(303)
    for _ in range(40):
        alg = _bracket(rng)
        nmap = _sparse_matrix(rng, alg.dim, alg.dim)
        for k in range(1, alg.arity):
            got = nijenhuis_bracket(alg, nmap, k)
            want = ref_nijenhuis_bracket(alg, nmap, k)
            assert list(got.entries.items()) == list(want.entries.items())
            assert got == want


def test_check_nijenhuis_parity():
    rng = random.Random(404)
    cases = []
    for base in (levi_civita_bracket(), sl2(), heisenberg3()):
        m = base.dim
        cases.append((base, Matrix.zero(m, m)))
        cases.append((base, Matrix.from_rows(
            [[F(rng.randint(-2, 2), 1) if i == j else 0 for j in range(m)]
             for i in range(m)])))
        for _ in range(4):
            cases.append((base, _sparse_matrix(rng, m, m)))
            cases.append((rand_valid_algebra(rng, base),
                          _sparse_matrix(rng, m, m)))
    # an algebra failing FI: both raise with the same witness
    bad = rand_bracket(rng, 3, 4)
    cases.append((bad, _sparse_matrix(rng, 4, 4)))
    verdicts = []
    for alg, nmap in cases:
        got = _outcome(check_nijenhuis, alg, nmap)
        assert got == _outcome(ref_check_nijenhuis, alg, nmap)
        verdicts.append(got[0] if isinstance(got, tuple) else got.holds)
    assert {True, False, "raised"} <= set(verdicts)


def _den(mat):
    return max((x.denominator for row in mat.data for x in row.values()),
               default=1)


def test_fundamental_identity_parity_on_semidirect_products():
    # adjoint modules of the catalog algebras and of dense conjugates, and
    # a base failing FI with the zero action
    rng = random.Random(707)
    bases = [levi_civita_bracket(), sl2(), heisenberg3()]
    bases += [rand_valid_algebra(rng, base) for base in bases]
    cases = [(base, adjoint_representation(base)) for base in bases]
    bad = broken_ternary_bracket()
    cases.append((bad, make_representation(bad.dim, 2, bad.arity, {})))
    verdicts = set()
    for base, rho in cases:
        sd = semidirect_product(base, rho)
        got = check_fundamental_identity(sd)
        assert got == ref_check_fundamental_identity(sd)
        # the lemma of o_operator_lift: FI on sd is FI on the base; a
        # failure is the base's witness, padded with the module's zeros
        want = check_fundamental_identity(base)
        assert got.holds == want.holds
        if not got.holds:
            pad = (0,) * rho.module_dim
            assert got.witness == {
                **want.witness, **{key: want.witness[key] + pad
                                   for key in ("lhs", "rhs", "defect")}}
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_check_nijenhuis_parity_on_lifts():
    # N_T of seeded T, with denominators: rank-one T are O-operators for
    # the Levi-Civita adjoint module, dense ones are not
    rng = random.Random(808)
    cases = []
    for base in (levi_civita_bracket(), sl2(), heisenberg3()):
        m = base.dim
        u = [rand_fraction(rng, 2, 3) for _ in range(m)]
        v = [rand_fraction(rng, 2, 3) for _ in range(m)]
        cases.append((base, Matrix.from_rows([[a * b for b in v]
                                              for a in u])))
        cases.append((base, _sparse_matrix(rng, m, m)))
    seen = set()
    for base, t in cases:
        rho = adjoint_representation(base)
        lift = o_operator_lift(base, rho, t)
        sd = semidirect_product(base, rho)
        got = check_nijenhuis(sd, lift.n_tilde)
        assert got == ref_check_nijenhuis(sd, lift.n_tilde)
        assert got.holds == lift.lifted_nijenhuis_holds
        seen.add((got.holds, _den(t) > 1))
    assert {(True, True), (False, True)} <= seen


def test_nijenhuis_bracket_parity_rational():
    # rational brackets and operators: L > 1 and D > 1
    rng = random.Random(909)
    dens = set()
    for base in (levi_civita_bracket(), sl2(), heisenberg3()):
        alg = rand_rational_algebra(rng, base)
        m = alg.dim
        nmap = Matrix.from_rows([[rand_fraction(rng, 3, 5)
                                  for _ in range(m)] for _ in range(m)])
        dens.add(_den(nmap) > 1)
        for k in range(1, alg.arity):
            got = nijenhuis_bracket(alg, nmap, k)
            want = ref_nijenhuis_bracket(alg, nmap, k)
            assert list(got.entries.items()) == list(want.entries.items())
        assert check_nijenhuis(alg, nmap) == ref_check_nijenhuis(alg, nmap)
    assert dens == {True}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_conjugate_path_parity(order):
    rng = random.Random(500 + order)
    for _ in range(6):
        base = rng.choice([sl2(), heisenberg3(), levi_civita_bracket(),
                           rand_bracket(rng, 2, 3)])
        n, m = base.arity, base.dim
        terms = [rand_cochain(rng, n, m, 1, 0.4)
                 for _ in range(order)]
        path = make_deformation_path(base, terms)
        maps = tuple(rand_matrix(rng, m, m)
                     for _ in range(rng.randint(1, order)))
        emap = EquivalenceMap(order, maps)
        got = conjugate_path(path, emap)
        want = ref_conjugate_path(path, emap)
        for g, w in zip(got.terms, want.terms):
            assert list(g.entries.items()) == list(w.entries.items())
        assert got == want


@pytest.mark.parametrize("order", [1, 2, 3])
def test_conjugation_round_trip(order):
    """Conjugating by Phi_t, then by its truncated inverse series, gives
    the path back exactly."""
    rng = random.Random(700 + order)
    moved = 0
    for base in (sl2(), heisenberg3(), levi_civita_bracket(), sl2()):
        n, m = base.arity, base.dim
        path = make_deformation_path(
            base, [rand_cochain(rng, n, m, 1, 0.4) for _ in range(order)])
        emap = EquivalenceMap(order, tuple(
            rand_matrix(rng, m, m) for _ in range(rng.randint(1, order))))
        _, inv = ref_series(emap, m, order)
        inverse = EquivalenceMap(order, tuple(inv[1:]))
        there = conjugate_path(path, emap)
        moved += there != path
        assert conjugate_path(there, inverse) == path
    assert moved


def test_circle_parity():
    rng = random.Random(606)
    seen = set()
    for trial in range(72):
        n = 2 + trial % 3
        m = rng.randint(n, n + 1)
        p, q = trial // 3 % 3, trial // 9 % 3
        density = rng.choice([0.1, 0.3, 0.7])
        d1 = (cochain_zero(n, m, p) if trial % 8 == 2
              else rand_cochain(rng, n, m, p, density))
        d2 = (cochain_zero(n, m, q) if trial % 8 == 5
              else rand_cochain(rng, n, m, q, density))
        if trial % 11 == 0 and p == q:
            d2 = d1
        got, want = circle(d1, d2), ref_circle(d1, d2)
        assert list(got.entries.items()) == list(want.entries.items())
        assert got == want
        seen.add((n, p, q, not got.entries))
    # every arity and degree pair, with zero and nonzero products
    assert {(n, p, q) for n, p, q, _ in seen} == {
        (n, p, q) for n in (2, 3, 4) for p in range(3) for q in range(3)}
    assert {zero for *_, zero in seen} == {True, False}
