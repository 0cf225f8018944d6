import random
from fractions import Fraction as F

import pytest

import nlie.deformations as deformations
import nlie.linalg as linalg
from nlie.algebra import (CheckResult, adjoint_representation,
                          bracket_eval, check_fundamental_identity,
                          make_algebra)
from nlie.algebroid import example_tangent_fc
from nlie.catalog import (broken_ternary_bracket, conjugated_algebra,
                          heisenberg3, levi_civita_bracket, sl2,
                          zero_algebra)
from nlie.cochains import (Cochain, circle, coboundary_explicit,
                           cochain_is_zero, cochain_scale, differential,
                           from_bracket, from_matrix, gla_bracket,
                           make_cochain, to_matrix, vec_to_cochain)
from nlie.cohomology import (Complex, cochain_to_vec, cohomology,
                             complex_dim, differential_matrix)
from nlie.deformations import (DeformationPath, EquivalenceMap,
                               check_deformation, check_equivalence,
                               check_homomorphism_family, check_nijenhuis,
                               conjugate_path, constant_path,
                               deformation_from_nijenhuis, extend,
                               infinitesimal_class, make_deformation_path,
                               make_equivalence_map, nijenhuis_bracket,
                               o_operator_lift, obstruction, rigidity_probe)
from nlie.errors import DimensionMismatch, InvalidStructure
from nlie.linalg import Matrix, Refusal, basis_vec
from nlie.poly import poly_const

from helpers import (cochain_add, cochain_sub, mat_scale, rand_fraction,
                     rand_invertible, rand_matrix, rand_rational_algebra,
                     ref_circle_sum, ref_conjugate_path)


def diag(*vals):
    n = len(vals)
    return Matrix.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                             for i in range(n)])


def non_jacobi_bracket():
    # Jacobiator on (e0,e1,e2) is [[e1,e2],e0] = -e2, nonzero
    return make_cochain(2, 3, 1, {
        ((), (0, 1)): (F(0), F(0), F(1)),
        ((), (1, 2)): (F(0), F(1), F(0)),
    })


def test_make_path_validation():
    eps = levi_civita_bracket()
    wrong_dim = from_bracket(sl2())
    with pytest.raises(DimensionMismatch):
        make_deformation_path(eps, [wrong_dim])
    wrong_deg = from_matrix(Matrix.identity(4), 3)
    with pytest.raises(DimensionMismatch):
        make_deformation_path(eps, [wrong_deg])


def test_constant_path_holds_both_modes():
    path = constant_path(levi_civita_bracket(), 3)
    assert check_deformation(path, "truncated").holds
    assert check_deformation(path, "full").holds


def test_check_deformation_requires_base_fi():
    path = constant_path(broken_ternary_bracket(), 1)
    with pytest.raises(InvalidStructure):
        check_deformation(path)


@pytest.mark.parametrize("call", [
    lambda alg: differential_matrix(alg, 1),
    lambda alg: check_deformation(constant_path(alg, 1)),
    lambda alg: check_nijenhuis(alg, Matrix.identity(alg.dim)),
    lambda alg: rigidity_probe(alg, 1, 0),
    lambda alg: example_tangent_fc(alg, poly_const(alg.dim, 1)),
], ids=["differential_matrix", "check_deformation", "check_nijenhuis",
        "rigidity_probe", "example_tangent_fc"])
def test_fi_guards_raise_the_fi_witness(call):
    alg = broken_ternary_bracket()
    with pytest.raises(InvalidStructure) as exc:
        call(alg)
    assert exc.value.witness == check_fundamental_identity(alg).witness


def test_truncated_passes_where_full_fails():
    # order 1 over a zero bracket: power 1 is vacuous, power 2 sees
    # the self-bracket of the non-Jacobi candidate
    base = zero_algebra(3, 2)
    phi1 = non_jacobi_bracket()
    assert not cochain_is_zero(gla_bracket(phi1, phi1))
    path = make_deformation_path(base, [phi1])
    assert check_deformation(path, "truncated").holds
    full = check_deformation(path, "full")
    assert not full.holds
    assert full.witness == {"first_failing_power": 2}


def test_nijenhuis_bracket_range_errors():
    eps = levi_civita_bracket()
    with pytest.raises(DimensionMismatch):
        nijenhuis_bracket(eps, Matrix.identity(4), 0)
    with pytest.raises(DimensionMismatch):
        nijenhuis_bracket(eps, Matrix.identity(4), 3)
    with pytest.raises(DimensionMismatch):
        nijenhuis_bracket(eps, Matrix.identity(3), 1)


def test_scalar_operator_arity_two():
    alg = sl2()
    lam = F(5, 3)
    nmap = mat_scale(lam, Matrix.identity(3))
    phi0 = from_bracket(alg)
    b1 = nijenhuis_bracket(alg, nmap, 1)
    # two slot insertions minus one composition leaves one bracket
    assert b1.entries == cochain_scale(lam, phi0).entries
    assert check_nijenhuis(alg, nmap).holds


def test_scalar_operator_arity_three_direct_two_sided():
    # direct evaluation on every basis triple, no recurrence shortcut:
    # with N = 2*Id both sides must be 8 times the bracket
    alg = levi_civita_bracket()
    lam = F(2)
    nmap = mat_scale(lam, Matrix.identity(4))
    import itertools
    for key in itertools.combinations(range(4), 3):
        args = [tuple(lam * c for c in basis_vec(4, j)) for j in key]
        lhs = bracket_eval(alg, args)
        # hand expansion: [.]^1 = 3L*[] - L*[] = 2L*[], then
        # [.]^2 = 3L^2*[] - L*2L*[] = L^2*[], so N([.]^2) = 2L^2*[]
        rhs = tuple(2 * lam ** 2 * c
                    for c in bracket_eval(alg, [basis_vec(4, j)
                                                for j in key]))
        assert lhs == rhs
    phi0 = from_bracket(alg)
    assert nijenhuis_bracket(alg, nmap, 1).entries == \
        cochain_scale(2 * lam, phi0).entries
    assert nijenhuis_bracket(alg, nmap, 2).entries == \
        cochain_scale(lam ** 2, phi0).entries
    assert check_nijenhuis(alg, nmap).holds


def test_sl2_diagonal_operators():
    alg = sl2()
    assert check_nijenhuis(alg, diag(1, 2, 1)).holds
    res = check_nijenhuis(alg, diag(1, 0, 0))
    assert not res.holds
    assert res.witness is not None
    assert "tuple" in res.witness


def test_zero_operator_gives_constant_path():
    for alg in (levi_civita_bracket(), sl2()):
        nmap = Matrix.zero(alg.dim, alg.dim)
        path = deformation_from_nijenhuis(alg, nmap)
        assert all(cochain_is_zero(t) for t in path.terms)
        assert check_deformation(path, "full").holds


def test_nijenhuis_pipeline_properties():
    cases = [
        (levi_civita_bracket(), mat_scale(F(3, 2), Matrix.identity(4))),
        (sl2(), diag(1, 2, 1)),
        (sl2(), mat_scale(F(-2), Matrix.identity(3))),
    ]
    for alg, nmap in cases:
        path = deformation_from_nijenhuis(alg, nmap)
        assert path.order == alg.arity - 1
        assert check_deformation(path, "full").holds
        # first-order term is the coboundary of the operator
        phi0 = from_bracket(alg)
        psi = from_matrix(nmap, alg.arity)
        assert path.terms[0].entries == differential(phi0, psi).entries
        emap = EquivalenceMap(path.order, (nmap,))
        assert check_homomorphism_family(path, emap).holds
        const = constant_path(alg, path.order)
        assert check_equivalence(const, path, emap).holds


def test_homomorphism_family_detects_failure():
    alg = sl2()
    nmap = diag(1, 2, 1)
    path = deformation_from_nijenhuis(alg, nmap)
    emap = EquivalenceMap(path.order, (nmap,))
    # Phi_t = Id + tN, so on (e0, e1) the power-1 sides are
    # N[e0, e1] + s·phi_1(e0, e1) and [Ne0, e1] + [e0, Ne1] = 6 e1
    for scale, lhs1 in ((F(2), F(8)), (F(-1, 3), F(10, 3))):
        bad = DeformationPath(alg, path.order,
                              (cochain_scale(scale, path.terms[0]),))
        res = check_homomorphism_family(bad, emap)
        assert not res.holds
        assert res.witness == {"tuple": (0, 1), "power": 1,
                               "lhs": (F(0), lhs1, F(0)),
                               "rhs": (F(0), F(6), F(0))}
        # Fractions, so a report renders them as rational strings
        assert {type(x) for x in res.witness["lhs"] + res.witness["rhs"]} \
            == {F}


def test_broken_operator_rejected_by_generator():
    with pytest.raises(InvalidStructure):
        deformation_from_nijenhuis(sl2(), diag(1, 0, 0))


def test_conjugation_shifts_first_power_by_coboundary():
    rng = random.Random(11)
    alg = sl2()
    path = deformation_from_nijenhuis(alg, diag(1, 2, 1))
    phi0 = from_bracket(alg)
    for _ in range(5):
        m1 = rand_matrix(rng, 3, 3)
        emap = make_equivalence_map(3, path.order, [m1])
        conj = conjugate_path(path, emap)
        shift = cochain_sub(conj.terms[0], path.terms[0])
        expected = differential(phi0, from_matrix(m1, 2))
        assert shift.entries == expected.entries


def test_conjugation_preserves_validity():
    rng = random.Random(3)
    alg = levi_civita_bracket()
    path = deformation_from_nijenhuis(alg,
                                      mat_scale(F(2), Matrix.identity(4)))
    maps = [rand_matrix(rng, 4, 4), rand_matrix(rng, 4, 4)]
    conj = conjugate_path(path, make_equivalence_map(4, 2, maps))
    assert check_deformation(conj, "truncated").holds


def test_series_refuse_maps_of_another_dimension():
    # an equivalence map over another space is refused before its columns
    # are read against the base's keys; Phi_t = Id (no maps) fits any base
    path = deformation_from_nijenhuis(levi_civita_bracket(), diag(1, 2, 1, 2))
    const = constant_path(path.base, path.order)
    # the same space, another bracket: the map is refused all the same
    other = constant_path(conjugated_algebra(path.base, diag(2, 1, 1, 1)),
                          path.order)
    for dim in (2, 3, 5):
        emap = EquivalenceMap(path.order, (Matrix.identity(dim),))
        with pytest.raises(DimensionMismatch, match="base dimension"):
            conjugate_path(path, emap)
        with pytest.raises(DimensionMismatch, match="base dimension"):
            check_homomorphism_family(path, emap)
        for target in (const, other):
            with pytest.raises(DimensionMismatch, match="base dimension"):
                check_equivalence(const, target, emap)
    for alg in (sl2(), levi_civita_bracket(), heisenberg3()):
        identity = EquivalenceMap(2, ())
        assert conjugate_path(constant_path(alg, 2), identity) == \
            constant_path(alg, 2)
        assert check_homomorphism_family(constant_path(alg, 2),
                                         identity).holds
        assert check_equivalence(constant_path(alg, 2), constant_path(alg, 2),
                                 identity).holds

def test_check_equivalence_validation():
    eps = levi_civita_bracket()
    with pytest.raises(DimensionMismatch):
        check_equivalence(constant_path(eps, 1), constant_path(eps, 2),
                          EquivalenceMap(1, ()))
    with pytest.raises(DimensionMismatch):
        check_equivalence(constant_path(eps, 1), constant_path(sl2(), 1),
                          EquivalenceMap(1, ()))
    with pytest.raises(DimensionMismatch):
        make_equivalence_map(4, 1, [Matrix.identity(3)])
    # different bases fail at power 0
    assert check_equivalence(constant_path(sl2(), 1),
                             constant_path(zero_algebra(3, 2), 1),
                             EquivalenceMap(1, ())) == \
        CheckResult(False, {"first_failing_power": 0})


def test_obstruction_zero_bracket_and_extension_dichotomy():
    # over a zero bracket the differential vanishes, so extension
    # succeeds exactly when the obstruction itself is zero
    base = zero_algebra(3, 2)
    jacobi = make_cochain(2, 3, 1, {
        ((), (0, 1)): (F(0), F(0), F(1)),
        ((), (1, 2)): (F(1), F(0), F(0)),
        ((), (0, 2)): (F(0), F(-1), F(0)),
    })
    good = make_deformation_path(base, [jacobi])
    assert cochain_is_zero(obstruction(good))
    assert cochain_is_zero(extend(good))

    bad = make_deformation_path(base, [non_jacobi_bracket()])
    theta = obstruction(bad)
    assert not cochain_is_zero(theta)
    assert isinstance(extend(bad), Refusal)


def test_extend_produces_valid_longer_path():
    rng = random.Random(7)
    alg = levi_civita_bracket()
    phi0 = from_bracket(alg)
    for _ in range(3):
        psi = from_matrix(rand_matrix(rng, 4, 4), 3)
        phi1 = differential(phi0, psi)
        path = make_deformation_path(alg, [phi1])
        assert check_deformation(path, "truncated").holds
        term = extend(path)
        longer = make_deformation_path(alg, [phi1, term])
        assert check_deformation(longer, "truncated").holds
        # defining equation of the solved term
        lhs = cochain_add(cochain_scale(F(2), gla_bracket(phi0, term)),
                          gla_bracket(phi1, phi1))
        assert cochain_is_zero(lhs)


def test_obstruction_is_cocycle_for_valid_paths():
    rng = random.Random(19)
    alg = levi_civita_bracket()
    phi0 = from_bracket(alg)
    for _ in range(4):
        psi = from_matrix(rand_matrix(rng, 4, 4), 3)
        path = make_deformation_path(alg, [differential(phi0, psi)])
        theta = obstruction(path)
        assert cochain_is_zero(gla_bracket(phi0, theta))


def _cocycle_paths(base, seed: int, count: int) -> list[DeformationPath]:
    """Order-1 paths whose phi_1 is a seeded integer combination of the
    nullspace vectors of d_2, so each one is valid."""
    rng = random.Random(seed)
    cocycles = Complex(base).kernel(2).nullspace
    paths = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in cocycles]
        combo = [sum((c * v[j] for c, v in zip(coeffs, cocycles)), F(0))
                 for j in range(len(cocycles[0]))]
        paths.append(make_deformation_path(
            base, [vec_to_cochain(combo, base.arity, base.dim, 1)]))
    return paths


def test_obstruction_is_cocycle_on_the_four_sum_route(monkeypatch):
    """The obstruction of a valid path is a cocycle (a theorem, which
    ``obstruction`` does not re-check), checked by the four-sum
    differential, which shares no code with the circle product that
    sums Theta.  The paths: order 1 over Heisenberg, a unimodular
    conjugate of it and Levi-Civita ⊕ Q (a central e_5), and order 2
    where ``extend`` continues them.  An extra circle product planted in
    the obstruction's sum alone leaves the path valid and fails the
    check."""
    lc = levi_civita_bracket()
    bases = {
        "heisenberg": heisenberg3(),
        "conjugate": conjugated_algebra(heisenberg3(),
                                        rand_invertible(random.Random(5), 3)),
        "lc+q": make_algebra(3, 5, {key: v + (0,)
                                    for key, v in lc.structure.items()}),
    }
    counts = {"heisenberg": 8, "conjugate": 8, "lc+q": 3}
    paths, nonzero = [], {}
    for name, base in bases.items():
        for path in _cocycle_paths(base, 11, counts[name]):
            paths.append(path)
            nxt = extend(path)
            if not isinstance(nxt, Refusal):
                paths.append(make_deformation_path(
                    base, [path.terms[0], nxt]))
    for path in paths:
        theta = obstruction(path)
        assert cochain_is_zero(coboundary_explicit(path.base, theta))
        key = (path.base.arity, path.base.dim, path.order)
        nonzero[key] = nonzero.get(key, 0) + (not cochain_is_zero(theta))
    # Theta != 0 on most order-1 paths over Heisenberg and its conjugate
    # (a path there extends only where Theta = 0), and on every
    # Levi-Civita ⊕ Q path of order 1 and 2
    assert nonzero[2, 3, 1] >= 12
    assert nonzero[3, 5, 1] == nonzero[3, 5, 2] == 3

    real = deformations._circle_sum

    def planted(phis, r, low):
        out = real(phis, r, low)
        # low = 1 is the obstruction's call; the validity check's is 0
        return cochain_add(out, circle(phis[0], phis[1])) if low == 1 \
            else out

    monkeypatch.setattr(deformations, "_circle_sum", planted)
    # obstruction validates each path first, so the planted sum leaves
    # every path valid
    assert any(not cochain_is_zero(coboundary_explicit(path.base,
                                                       obstruction(path)))
               for path in paths)


def test_infinitesimal_class_reports():
    base = zero_algebra(2, 2)
    const = constant_path(base, 2)
    rep = infinitesimal_class(const)
    assert rep.leading_order is None
    assert rep.is_trivial_class
    assert rep.betti == 2

    unit = make_cochain(2, 2, 1, {((), (0, 1)): (F(1), F(0))})
    path = make_deformation_path(base, [unit])
    rep = infinitesimal_class(path)
    assert rep.leading_order == 1
    assert rep.is_cocycle
    assert not rep.is_trivial_class
    assert any(c != 0 for c in rep.class_coords)

    alg = sl2()
    phi0 = from_bracket(alg)
    exact = differential(phi0, from_matrix(diag(1, 2, 3), 2))
    rep = infinitesimal_class(make_deformation_path(alg, [exact]))
    assert rep.leading_order == 1
    assert rep.betti == 0
    assert rep.class_coords == ()
    assert rep.is_trivial_class

    bad = make_deformation_path(zero_algebra(3, 2), [non_jacobi_bracket()])
    forced = DeformationPath(bad.base, 2, bad.terms + bad.terms)
    with pytest.raises(InvalidStructure):
        infinitesimal_class(forced)


def test_infinitesimal_class_raises_arithmetic_error_on_a_refused_solve(
        monkeypatch):
    # a cocycle is always spanned by coboundaries and representatives,
    # so a refusal there is a library fault, never an input error
    unit = make_cochain(2, 2, 1, {((), (0, 1)): (F(1), F(0))})
    path = make_deformation_path(zero_algebra(2, 2), [unit])
    monkeypatch.setattr(linalg.Factorization, "solve",
                        lambda self, b: Refusal({0: 1}))
    with pytest.raises(ArithmeticError, match="rank bookkeeping"):
        infinitesimal_class(path)


def test_infinitesimal_class_builds_each_matrix_once(monkeypatch):
    import nlie.cohomology

    # a Complex builds d_k as coboundary_rows(alg, k - 1, table)
    builds = []
    real = nlie.cohomology.coboundary_rows

    def counted(alg, p, table=None):
        builds.append(p + 1)
        return real(alg, p, table)

    monkeypatch.setattr(nlie.cohomology, "coboundary_rows", counted)
    path = deformation_from_nijenhuis(levi_civita_bracket(),
                                      diag(1, 2, 1, 2))
    rep = infinitesimal_class(path)
    assert sorted(builds) == [1, 2]
    assert rep.leading_order == 1
    assert rep.is_cocycle and rep.is_trivial_class


def test_rigidity_probe_eliminates_each_matrix_once(monkeypatch):
    import nlie.linalg

    heavy = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
    eliminations = []
    real = nlie.linalg._rref

    def counted(rows, ncols):
        eliminations.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(nlie.linalg, "_rref", counted)
    for max_order, trials in ((1, 1), (2, 4), (3, 9)):
        eliminations.clear()
        rep = rigidity_probe(heavy, max_order, trials, seed=7)
        assert rep.all_trivialized
        # the kernel of d_2 and one factorization of d_1, whatever the
        # number of trials and orders
        assert len(eliminations) == 2


def test_infinitesimal_class_recovers_known_coordinates():
    # a combination of the H^2 representatives plus a coboundary: the class
    # coordinates are the combination's coefficients
    rng = random.Random(29)
    alg = heisenberg3()
    phi0 = from_bracket(alg)
    reps = cohomology(alg, 2).representatives
    for _ in range(3):
        coeffs = tuple(rand_fraction(rng) for _ in reps)
        term = differential(phi0, from_matrix(rand_matrix(rng, 3, 3), 2))
        for c, r in zip(coeffs, reps):
            term = cochain_add(term, cochain_scale(c, r))
        rep = infinitesimal_class(make_deformation_path(alg, [term]))
        assert rep.class_coords == coeffs
        assert rep.is_trivial_class == all(c == 0 for c in coeffs)


def test_o_operator_lift_agreement():
    rng = random.Random(23)
    for alg in (levi_civita_bracket(), sl2()):
        rho = adjoint_representation(alg)
        m = alg.dim
        zero = Matrix.zero(m, m)
        lift = o_operator_lift(alg, rho, zero)
        assert lift.o_operator_holds and lift.lifted_nijenhuis_holds
        assert lift.agree
        for _ in range(6):
            t = rand_matrix(rng, m, m)
            assert o_operator_lift(alg, rho, t).agree


def test_o_operator_lift_spans():
    import io
    import json

    from nlie import trace

    alg = sl2()
    out = io.StringIO()
    trace.enable(out)
    try:
        o_operator_lift(alg, adjoint_representation(alg), Matrix.zero(3, 3))
    finally:
        trace.finish()
    calls = {line["summary"]: line["calls"]
             for line in map(json.loads, out.getvalue().splitlines())
             if "summary" in line}
    assert calls["deformations.o_operator_lift"] == 1
    assert calls["algebra.check_o_operator"] == 1
    assert calls["algebra.check_representation"] == 1
    assert calls["deformations.check_nijenhuis"] == 1
    # FI is checked once, on the base: C(3,1)·C(3,2) = 9 pairs at most,
    # not the 6-dim product's C(6,1)·C(6,2) = 90
    def summary(fn, *args):
        out = io.StringIO()
        trace.enable(out)
        try:
            fn(*args)
        finally:
            trace.finish()
        return {line["summary"]: line
                for line in map(json.loads, out.getvalue().splitlines())
                if "summary" in line}

    lifts = [summary(o_operator_lift, alg, adjoint_representation(alg),
                     Matrix.zero(3, 3))["algebra.check_fundamental_identity"]
             for _ in range(2)]
    base = summary(check_fundamental_identity,
                   alg)["algebra.check_fundamental_identity"]
    assert lifts[0]["calls"] == 1
    assert lifts[0]["counters"]["pairs"] == base["counters"]["pairs"] <= 9
    assert lifts[0]["counters"] == lifts[1]["counters"]
    # the representation is decided on the pairs of sl(2) ⋉ sl(2) with one
    # module index: 3·(3·3) with it inner plus 3·C(3,2) with it acting
    reps = [summary(o_operator_lift, alg, adjoint_representation(alg),
                    Matrix.zero(3, 3))["algebra.check_representation"]
            for _ in range(2)]
    assert reps[0]["calls"] == 1
    assert 0 < reps[0]["counters"]["pairs"] <= 36
    assert reps[0]["counters"] == reps[1]["counters"]


def test_o_operator_lift_shape_check():
    alg = sl2()
    rho = adjoint_representation(alg)
    with pytest.raises(DimensionMismatch):
        o_operator_lift(alg, rho, Matrix.zero(2, 3))


def test_rigidity_probe_vanishing_h2():
    rep = rigidity_probe(sl2(), 2, 8, seed=5)
    assert rep.betti_h2 == 0
    assert rep.all_trivialized
    assert len(rep.trials) == 8
    assert "prove" in rep.note


def test_rigidity_probe_nonvanishing_h2():
    rep = rigidity_probe(zero_algebra(2, 2), 2, 8, seed=5)
    assert rep.betti_h2 == 2
    assert not rep.all_trivialized
    stuck = [t for t in rep.trials if not t.trivialized]
    assert stuck and all(t.kind == "cocycle" for t in stuck)
    assert all(t.stuck_order == 1 for t in stuck)
    assert all(t.trivialized for t in rep.trials if t.kind == "conjugated")


@pytest.mark.parametrize("max_order, trials", [(0, 2), (-1, 2), (2, -3)])
def test_rigidity_probe_range_errors(max_order, trials):
    with pytest.raises(DimensionMismatch):
        rigidity_probe(sl2(), max_order, trials)


def test_trivialize_raises_when_a_step_clears_nothing(monkeypatch):
    # a solve that returns zero conjugates by Id: the lead power stays
    monkeypatch.setattr(Complex, "solve", lambda self, k, b: (
        (F(0),) * complex_dim(self.alg, k)))
    with pytest.raises(ArithmeticError, match="left power"):
        rigidity_probe(sl2(), 2, 4, seed=5)


def test_rigidity_probe_samples_the_drawn_cocycle(monkeypatch):
    # the cocycle trials start from sum c_i v_i over the nullspace of d_2,
    # c_i the drawn ints; replayed here in Fractions with the same draws
    alg = rand_rational_algebra(random.Random(2), heisenberg3())
    cocycles = Complex(alg).kernel(2).nullspace
    assert any(x.denominator > 1 for v in cocycles for x in v)
    leads = []

    def record(alg, path, cx, kind):
        leads.append((kind, path.terms[0]))
        return deformations.RigidityTrial(kind, True, None)

    monkeypatch.setattr(deformations, "_trivialize", record)
    rigidity_probe(alg, 2, 5, seed=13)
    draws, want = random.Random(13), []
    for t in range(5):
        if t % 2 == 0:
            coeffs = [F(draws.randint(-2, 2)) for _ in cocycles]
            combo = Matrix.from_cols(cocycles, len(cocycles[0])).apply(coeffs)
            want.append(cochain_to_vec(vec_to_cochain(combo, 2, 3, 1)))
        else:
            [draws.randint(-1, 1) for _ in range(2 * 3 * 3)]
    got = [cochain_to_vec(lead) for kind, lead in leads if kind == "cocycle"]
    assert got == want and any(map(any, got))


def test_rigidity_probe_betti_matches_cohomology():
    for alg in (sl2(), heisenberg3(), zero_algebra(2, 2),
                levi_civita_bracket()):
        assert rigidity_probe(alg, 1, 0).betti_h2 == \
            cohomology(alg, 2).betti


def test_vec_to_mat_roundtrip():
    """The column-major degree-0 vectorization that ``_trivialize`` reads
    its conjugating map back from."""
    rng = random.Random(31)
    mat = rand_matrix(rng, 4, 4)
    vec = cochain_to_vec(from_matrix(mat, 3))
    back = to_matrix(vec_to_cochain(vec, 3, 4, 0))
    assert back.entries == mat.entries
    with pytest.raises(DimensionMismatch):
        vec_to_cochain(vec[:-1], 3, 4, 0)


# ------------------------------------------------------------------
# Integral entries are stored as ints, the others as Fractions.

def _types(*cochains):
    return {type(x) for d in cochains for v in d.entries.values() for x in v}


# the most cocycles test_integral_inputs_compute_in_ints draws
_DRAWS = 20


def test_integral_inputs_compute_in_ints():
    rng = random.Random(53)
    lc = levi_civita_bracket()
    path = deformation_from_nijenhuis(lc, mat_scale(2, Matrix.identity(4)))
    # Matrix.from_rows stores the integer maps as Fractions
    maps = [Matrix.from_rows([[rng.randint(-1, 1) for _ in range(4)]
                              for _ in range(4)]) for _ in range(2)]
    conj = conjugate_path(path, make_equivalence_map(4, 2, maps))
    results = [*path.terms, *conj.terms]
    # a Nijenhuis path is exact, so its obstruction vanishes; on Heisenberg,
    # draw cocycles until one's nonzero obstruction extends by a nonzero
    # term (the second draw of this seed does), at most _DRAWS of them
    alg = heisenberg3()
    cocycles = Complex(alg).kernel(2).nullspace
    for _ in range(_DRAWS):
        coeffs = [rng.randint(-1, 1) for _ in cocycles]
        phi1 = vec_to_cochain([sum(c * x for c, x in zip(coeffs, col))
                               for col in zip(*cocycles)], 2, 3, 1)
        path = make_deformation_path(alg, [phi1])
        term = extend(path)
        if isinstance(term, Cochain) and not cochain_is_zero(term):
            break
    else:
        pytest.fail(f"no Heisenberg cocycle of {_DRAWS} drawn extends by "
                    "a nonzero term")
    results += [phi1, obstruction(path), term]
    assert all(not cochain_is_zero(d) for d in results)
    assert _types(*results) == {int}


def _intertwined(path, emap, key, r):
    """The t^r coefficient of Phi_t phi_t(e_key), in Fractions."""
    m = path.base.dim
    phis = [from_bracket(path.base), *path.terms]
    mats = [Matrix.identity(m), *emap.maps]
    total = (F(0),) * m
    for a in range(max(0, r - path.order), min(r, len(mats) - 1) + 1):
        val = phis[r - a].entries.get(((), key), (0,) * m)
        total = tuple(x + y for x, y in
                      zip(total, mats[a].apply(tuple(map(F, val)))))
    return total


def test_rational_paths_match_the_fraction_reference():
    # a rational conjugate of Levi-Civita and (3/2)·Id, a Nijenhuis
    # operator on every conjugate: path denominators L > 1, and Phi_t
    # coefficients with denominators D > 1
    rng = random.Random(59)
    alg = rand_rational_algebra(rng, levi_civita_bracket())
    nmap = mat_scale(F(3, 2), Matrix.identity(4))
    path = deformation_from_nijenhuis(alg, nmap)
    phi0, phi1, phi2 = from_bracket(alg), *path.terms
    assert F in _types(phi0, phi1, phi2)
    assert obstruction(path).entries == ref_circle_sum(
        [(1, phi1, phi2), (1, phi2, phi1)]).entries
    for _ in range(3):
        emap = make_equivalence_map(4, 2, [rand_matrix(rng, 4, 4)
                                           for _ in range(2)])
        assert conjugate_path(path, emap) == ref_conjugate_path(path, emap)
    # Phi_t = Id + tN intertwines; a scaled first term breaks it, and the
    # witness sides are the reference's, as Fractions
    family = EquivalenceMap(path.order, (nmap,))
    assert check_homomorphism_family(path, family).holds
    bad = DeformationPath(alg, path.order,
                          (cochain_scale(F(-1, 3), phi1), phi2))
    res = check_homomorphism_family(bad, family)
    assert not res.holds
    key, r = res.witness["tuple"], res.witness["power"]
    assert res.witness["lhs"] == _intertwined(bad, family, key, r)
    assert res.witness["rhs"] == _intertwined(path, family, key, r)
    assert res.witness["lhs"] != res.witness["rhs"]
    assert {type(x) for x in res.witness["lhs"] + res.witness["rhs"]} \
        == {F}
