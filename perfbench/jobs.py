"""Seeded job lists for the three workloads.

A job is either one in-process call of ``nlie.cli.main(argv)`` or one
library call.  Every job reads its own input document; documents are
written before the timed pass, except those a producer job pipes to a
consumer during the pass.  Expected values are computed here, outside the
timed region, or taken from an earlier job of the same pass (a conjugate's
betti numbers must equal its catalog algebra's).  Jobs marked ``catalog``
have seed-independent inputs and their stdout must match the digest
recorded in ``digests.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from nlie import algebroid as abd_mod
from nlie import deformations
from nlie.algebra import (adjoint_representation, check_fundamental_identity,
                          check_o_operator, make_algebra, semidirect_product)
from nlie.catalog import (broken_ternary_bracket, conjugated_algebra,
                          heisenberg3, levi_civita_bracket, sl2,
                          zero_algebra)
from nlie.cochains import Cochain, from_bracket, maurer_cartan_defect
from nlie.io import (algebra_to_json, algebroid_from_json,
                     algebroid_to_json, emap_to_json, matrix_to_json,
                     path_to_json)
from nlie.linalg import Matrix, solve_linear
from nlie.poly import poly_const, poly_var

WORKLOADS = ("complex", "deform", "algebroid")

# Fixed unimodular basis change whose Levi-Civita conjugate is dense with
# multi-digit rationals; seeds only dress it with signs, which leaves the
# elimination work unchanged, so the heavy job costs the same on every seed.
_HEAVY = ((1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))

# The Nijenhuis operator of the package README: diag(1, 2, 1, 2).
_NIJ_LC = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))

_FC = ("one", "x1", "x1sq")

# Seeded jobs come in equal-work replicas ("kind#r") on distinct documents,
# so a kind's median time is steady; job_max_s is the slowest kind's median.
REPLICAS = 3
HEAVY_REPLICAS = 5
NIJ_REPLICAS = 6
LIFT_REPLICAS = 5
TOP_REPLICAS = 20
# Each known defect and the failure it shows at seed.  A job marked with a
# defect that fails in any other way counts as an unexpected failure.
DEFECTS = {"deep-json": "uncaught RecursionError"}
# Every workload has one "typical" kind: small equal-work jobs spread over
# the pass, whose median is job_p50_s.
TYPICAL = 25


@dataclass
class Outcome:
    code: Optional[int]
    out: str
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    start: float = 0.0
    end: float = 0.0
    scaled: float = 0.0  # seconds at reference speed (run.py)


Check = Callable[[Outcome, dict], Optional[str]]


@dataclass
class Job:
    name: str
    check: Check
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], Any]] = None
    catalog: bool = False
    pipe_to: Optional[str] = None
    defect: Optional[str] = None

    @property
    def kind(self) -> str:
        return self.name.partition("#")[0]

    def known_defect(self, reason: str) -> bool:
        return self.defect is not None and \
            reason.startswith(DEFECTS[self.defect])


# ---------------------------------------------------------------- checks

def field(out: str, name: str) -> Optional[str]:
    for line in out.splitlines():
        if line.startswith(name + ": "):
            return line[len(name) + 2:]
    return None


def exits(code: int, *lines: str) -> Check:
    """Exit code plus report lines that must appear verbatim."""
    def check(o: Outcome, seen: dict) -> Optional[str]:
        if o.error:
            return o.error
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        if code == 2 and o.out:
            return "input error printed a report"
        for line in lines:
            if line not in o.out.splitlines():
                return f"missing line {line!r}"
        return None
    return check


def same(code: int, other: str, *names: str) -> Check:
    """Exit code, and report fields equal to those of an earlier job."""
    base = exits(code)

    def check(o: Outcome, seen: dict) -> Optional[str]:
        bad = base(o, seen)
        if bad:
            return bad
        for name in names:
            mine, theirs = field(o.out, name), field(seen[other].out, name)
            if mine is None or mine != theirs:
                return f"{name} {mine} differs from {other}'s {theirs}"
        return None
    return check


def artifact(code: int, test: Callable[[dict], bool], what: str) -> Check:
    """Exit code, and a predicate on the JSON document printed."""
    base = exits(code)

    def check(o: Outcome, seen: dict) -> Optional[str]:
        bad = base(o, seen)
        if bad:
            return bad
        try:
            doc = json.loads(o.out)
        except ValueError:
            return "stdout is not a JSON document"
        return None if test(doc) else what
    return check


def value(test: Callable[[Any], bool], what: str) -> Check:
    def check(o: Outcome, seen: dict) -> Optional[str]:
        if o.error:
            return o.error
        return None if test(o.value) else what
    return check


# ------------------------------------------------------- input generators

def signed_diag(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(n)]


def sign_dress(alg, signs: list[int]):
    """The conjugate by diag(signs): same work, different document."""
    table = {}
    for key, vec in alg.structure.items():
        s = math.prod(signs[i] for i in key)
        table[key] = tuple(s * signs[l] * c for l, c in enumerate(vec))
    return make_algebra(alg.arity, alg.dim, table)


def diag(values) -> Matrix:
    n = len(values)
    return Matrix.from_rows([[values[i] if i == j else 0 for j in range(n)]
                             for i in range(n)])


def unimodular(rng: random.Random, n: int) -> Matrix:
    """Signed permutation followed by 2n integer shears (det = +-1)."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)]
            for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randint(-2, 2)
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def signed_permutation(rng: random.Random, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix.from_rows([[rng.choice((1, -1)) if perm[i] == j else 0
                              for j in range(n)] for i in range(n)])


def inverse(p: Matrix) -> Matrix:
    cols = [solve_linear(p, tuple(Fraction(int(i == j))
                                  for i in range(p.rows)))
            for j in range(p.cols)]
    return Matrix.from_rows([[cols[j][i] for j in range(p.cols)]
                             for i in range(p.rows)])


def heavy_conjugates(rng: random.Random, count: int) -> list:
    """Distinct sign dressings diag(s) U diag(t) of one dense conjugate."""
    out: list = []
    seen: set = set()
    while len(out) < count:
        p = diag(signed_diag(rng, 4)).mul(Matrix.from_rows(_HEAVY)) \
            .mul(diag(signed_diag(rng, 4)))
        alg = conjugated_algebra(levi_civita_bracket(), p)
        key = tuple(sorted(alg.structure.items()))
        if key not in seen:
            seen.add(key)
            out.append(alg)
    return out


def sl2_variants(rng: random.Random, count: int) -> list:
    """Distinct signed relabelings of sl(2) with [e,f] = h, 2h or 3h:
    sparse brackets with small entries and equal work."""
    pool: dict = {}
    for scale in ((1, 1, 1), (1, 2, 1), (1, 3, 1)):
        base = conjugated_algebra(sl2(), diag(scale))
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                p = Matrix.from_rows([[signs[i] if perm[i] == j else 0
                                       for j in range(3)] for i in range(3)])
                alg = conjugated_algebra(base, p)
                pool.setdefault(tuple(sorted(alg.structure.items())), alg)
    return rng.sample(list(pool.values()), count)


def lc_rescalings(rng: random.Random, count: int) -> list:
    """Distinct conjugates of Levi-Civita by diag(a,b,c,d), a..d in 1..3:
    the catalog sparsity with small rational entries."""
    out: dict = {}
    while len(out) < count:
        p = diag([rng.randint(1, 3) for _ in range(4)])
        alg = conjugated_algebra(levi_civita_bracket(), p)
        out.setdefault(tuple(sorted(alg.structure.items())), alg)
    return list(out.values())


def fresh_signs(rng: random.Random, alg, used: set) -> list[int]:
    """Signs whose dressing of ``alg`` gives a document not used yet."""
    while True:
        signs = signed_diag(rng, alg.dim)
        key = tuple(sorted(sign_dress(alg, signs).structure.items()))
        if key not in used:
            used.add(key)
            return signs


def relabelings(rng: random.Random, doc: dict, count: int) -> list[dict]:
    """Distinct relabeled copies of a bracket-free algebroid document, none
    equal to the document itself."""
    n = doc["rank"]
    seen = {json.dumps(doc, sort_keys=True)}
    out: list[dict] = []
    while len(out) < count:
        perm = list(range(n))
        rng.shuffle(perm)
        new = relabel_anchored(doc, perm)
        key = json.dumps(new, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(new)
    return out


def relabel_anchored(doc: dict, perm: list[int]) -> dict:
    """Relabel an algebroid document with no bracket table and constant
    anchors by a permutation of coordinates and generators (an isomorphic
    algebroid): generator and variable i become perm[i]."""
    if doc["brackets"]:
        raise ValueError("only bracket-free documents are relabeled")
    anchors = []
    for entry in doc["anchor"]:
        on = [perm[i - 1] + 1 for i in entry["on"]]
        inversions = sum(1 for a in range(len(on)) for b in range(a + 1,
                                                                  len(on))
                         if on[a] > on[b])
        sign = -1 if inversions % 2 else 1
        field = [[] for _ in entry["field"]]
        for i, comp in enumerate(entry["field"]):
            terms = []
            for term in comp:
                exps = [0] * len(term["exponents"])
                for a, e in enumerate(term["exponents"]):
                    exps[perm[a]] = e
                coeff = str(sign * Fraction(term["coeff"]))
                terms.append({"exponents": exps, "coeff": coeff})
            field[perm[i]] = sorted(terms, key=lambda t: t["exponents"])
        anchors.append({"on": sorted(on), "field": field})
    return dict(doc, anchor=sorted(anchors, key=lambda a: a["on"]))


def broken_bracket(rng: random.Random):
    """A random ternary bracket on Q^4 that fails the fundamental identity."""
    while True:
        table = {}
        for key in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            if rng.random() < 0.75:
                table[key] = tuple(Fraction(rng.randint(-3, 3),
                                            rng.randint(1, 2))
                                   for _ in range(4))
        alg = make_algebra(3, 4, table)
        if not check_fundamental_identity(alg).holds:
            return alg


def random_term(rng: random.Random, flat: bool) -> Cochain:
    """A degree-1 cochain on Q^4 (ternary) that is a valid bracket exactly
    when ``flat``; over the zero base it is an order-1 path."""
    if flat:
        return from_bracket(conjugated_algebra(levi_civita_bracket(),
                                               unimodular(rng, 4)))
    while True:
        entries = {}
        for key in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            if rng.random() < 0.6:
                entries[((), key)] = tuple(
                    Fraction(rng.randint(-2, 2)) for _ in range(4))
        term = Cochain(3, 4, 1, entries)
        if maurer_cartan_defect(term).entries:
            return term


def o_operator_map(rng: random.Random, rank_one: bool) -> Matrix:
    """A dense 4x4 map; rank-one maps are O-operators for the adjoint
    representation of the Levi-Civita bracket, dense ones almost never."""
    pick = lambda: rng.choice((1, -1, 2, -2))
    if rank_one:
        u, v = [pick() for _ in range(4)], [pick() for _ in range(4)]
        return Matrix.from_rows([[a * b for b in v] for a in u])
    return Matrix.from_rows([[pick() for _ in range(4)] for _ in range(4)])


def lift(tmap: Matrix, m: int) -> list[list[Fraction]]:
    size = m + tmap.cols
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(tmap.rows):
        for j in range(tmap.cols):
            rows[i][m + j] = tmap.entries[i][j]
    return rows


# ----------------------------------------------------------- job lists

class Workload:
    """Collects the jobs of one workload and writes their documents."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = workdir
        self.jobs: list[Job] = []
        self.docs: list[tuple[str, str]] = []

    def doc(self, name: str, obj: Any, kind: Optional[str]) -> str:
        path = f"{self.dir}/{name}.json"
        text = obj if isinstance(obj, str) else \
            json.dumps(obj, indent=2, sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        if kind is not None:
            self.docs.append((kind, path))
        return path

    def piped(self, name: str) -> str:
        return f"{self.dir}/{name}.out.json"

    def cli(self, name: str, argv: list[str], check: Check, *,
            catalog: bool = False, pipe: Optional[str] = None,
            defect: Optional[str] = None) -> None:
        """A CLI job; ``pipe`` names the kind of document its stdout is,
        written for the jobs that read it."""
        piped = None
        if pipe is not None:
            piped = self.piped(name)
            self.docs.append((pipe, piped))
        self.jobs.append(Job(name, check, argv=argv, catalog=catalog,
                             pipe_to=piped, defect=defect))

    def lib(self, name: str, call: Callable[[], Any], check: Check) -> None:
        self.jobs.append(Job(name, check, call=call))

    def algebra(self, name: str, alg) -> str:
        return self.doc(name, algebra_to_json(alg), "algebra")

    # -- slices shared by every workload

    def hostile(self) -> None:
        """Inputs the exit contract must map to 2."""
        rng = self.rng
        text = json.dumps(algebra_to_json(levi_civita_bracket()), indent=2)
        cut = rng.randrange(1, len(text) - 1)
        path = self.doc("hostile.malformed", text[:cut], None)
        self.cli("hostile.malformed", ["check", path], exits(2))

        doc = algebra_to_json(levi_civita_bracket())
        entry = rng.choice(doc["brackets"])
        entry["on"][rng.randrange(3)] = rng.choice((0, 5, 9, -1))
        path = self.doc("hostile.index", doc, None)
        self.cli("hostile.index", ["check", path], exits(2))

        path = self.algebra("hostile.fi", broken_bracket(rng))
        self.cli("hostile.fi", ["cohomology", path, "--degree", "1"],
                 exits(2))

        path = self.doc("hostile.deep", "[" * 100_000, None)
        self.cli("hostile.deep", ["check", path], exits(2),
                 defect="deep-json")

    def smoke(self) -> None:
        """One small call into every traced layer, so every span exists in
        every workload; under a second in total."""
        alg = self.algebra("smoke.sl2.reduce", sl2())
        self.cli("smoke.reduce", ["reduce-lie", alg],
                 exits(0, "reduction: agree"), catalog=True)
        alg = self.algebra("smoke.sl2.coh", sl2())
        self.cli("smoke.coh.d1", ["cohomology", alg, "--degree", "1"],
                 exits(0), catalog=True)
        alg = self.algebra("smoke.sl2.nij", sl2())
        op = self.doc("smoke.nij.op", matrix_to_json(diag((1, 2, 1))),
                      "matrix")
        self.cli("smoke.nij", ["nijenhuis", alg, op, "--generate-path"],
                 exits(0), catalog=True, pipe="path")
        path = self.piped("smoke.nij")
        self.cli("smoke.check", ["deform", "check", path, "--mode", "full"],
                 exits(0, "deformation equations (full): holds"),
                 catalog=True)
        const = self.doc("smoke.const", path_to_json(
            deformations.constant_path(sl2(), 1)), "path")
        emap = self.doc("smoke.map", emap_to_json(
            deformations.make_equivalence_map(
                3, 1, [diag((1, 2, 1))]), 3), "emap")
        self.cli("smoke.equiv", ["deform", "equiv", const, path, emap],
                 exits(0, "equivalence: holds"), catalog=True)
        self.cli("smoke.extend", ["deform", "extend", path], exits(0),
                 catalog=True)
        self.cli("smoke.obstruction", ["obstruction", path], exits(0),
                 catalog=True)
        alg = self.algebra("smoke.sl2.rigidity", sl2())
        self.cli("smoke.rigidity", ["deform", "rigidity", alg, "--trials",
                                    "2"], exits(0, "betti h2: 0"),
                 catalog=True)
        base = sl2()
        rho = adjoint_representation(base)
        tmap = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        self.lib("smoke.lift",
                 lambda: deformations.o_operator_lift(base, rho, tmap),
                 value(lambda r: r.agree and r.o_operator_holds,
                       "lift disagrees with the O-operator identity"))
        alg = self.algebra("smoke.sl2.fc", sl2())
        self.cli("smoke.fc", ["algebroid", "example-fc", alg, "--f", "one"],
                 exits(0), catalog=True, pipe="algebroid")
        self.cli("smoke.abd", ["algebroid", "check", self.piped("smoke.fc")],
                 exits(0, "algebroid axioms: holds"), catalog=True)
        top = abd_mod.example_tangent_topform(2, 1)
        phi = abd_mod.bracket_derivation(top)
        self.lib("smoke.symbol",
                 lambda: abd_mod.check_symbol_leibniz(top, phi, phi),
                 value(lambda r: r.holds, "symbol Leibniz rule fails"))


# ------------------------------------------------------------ workloads

def build_complex(b: Workload) -> None:
    rng = b.rng
    catalog = (("lc", levi_civita_bracket()), ("sl2", sl2()),
               ("heis", heisenberg3()))
    for name, alg in catalog:
        for k in range(4):
            path = b.algebra(f"{name}.d{k}", alg)
            b.cli(f"{name}.d{k}", ["cohomology", path, "--degree", str(k)],
                  exits(0), catalog=True)
    sd = semidirect_product(levi_civita_bracket(),
                            adjoint_representation(levi_civita_bracket()))
    for k in (0, 1):
        path = b.algebra(f"sd.d{k}", sd)
        b.cli(f"sd.d{k}", ["cohomology", path, "--degree", str(k)],
              exits(0), catalog=True)
    path = b.algebra("check.lc", levi_civita_bracket())
    b.cli("check.lc", ["check", path], exits(0, "fundamental identity: holds"),
          catalog=True)
    path = b.algebra("check.broken", broken_ternary_bracket())
    b.cli("check.broken", ["check", path],
          exits(1, "fundamental identity: fails"), catalog=True)
    path = b.algebra("json.heis.d2", heisenberg3())
    b.cli("json.heis.d2", ["cohomology", path, "--degree", "2", "--format",
                           "json"], exits(0), catalog=True)

    for r, heavy in enumerate(heavy_conjugates(rng, HEAVY_REPLICAS)):
        for k in range(4):
            path = b.algebra(f"heavy.d{k}#{r}", heavy)
            b.cli(f"heavy.d{k}#{r}", ["cohomology", path, "--degree", str(k)],
                  same(0, f"lc.d{k}", "betti", "rank d_out", "rank d_in"))
        path = b.algebra(f"check.heavy#{r}", heavy)
        b.cli(f"check.heavy#{r}", ["check", path],
              exits(0, "fundamental identity: holds"))
    for r in range(REPLICAS):
        conj = conjugated_algebra(levi_civita_bracket(), unimodular(rng, 4))
        for k in range(3):
            path = b.algebra(f"conj.d{k}#{r}", conj)
            b.cli(f"conj.d{k}#{r}", ["cohomology", path, "--degree", str(k)],
                  same(0, f"lc.d{k}", "betti", "rank d_out", "rank d_in"))
        conj = conjugated_algebra(heisenberg3(), unimodular(rng, 3))
        for k in (1, 2):
            path = b.algebra(f"heis.conj.d{k}#{r}", conj)
            b.cli(f"heis.conj.d{k}#{r}", ["cohomology", path, "--degree",
                                          str(k)],
                  same(0, f"heis.d{k}", "betti", "rank d_out", "rank d_in"))
        path = b.algebra(f"reduce#{r}", conjugated_algebra(
            sl2(), unimodular(rng, 3)))
        b.cli(f"reduce#{r}", ["reduce-lie", path],
              exits(0, "reduction: agree"))
        path = b.algebra(f"check.random#{r}", broken_bracket(rng))
        b.cli(f"check.random#{r}", ["check", path],
              exits(1, "fundamental identity: fails"))
    for r, alg in enumerate(lc_rescalings(rng, TYPICAL)):
        path = b.algebra(f"typical#{r}", alg)
        b.cli(f"typical#{r}", ["cohomology", path, "--degree", "2"],
              same(0, "lc.d2", "betti", "rank d_out", "rank d_in"))


def build_deform(b: Workload) -> None:
    rng = b.rng
    lc = levi_civita_bracket()
    rho = adjoint_representation(lc)
    sd = semidirect_product(lc, rho)
    used: set = set()
    for kind in ("holds", "fails"):
        for r in range(NIJ_REPLICAS):
            tmap = o_operator_map(rng, rank_one=kind == "holds")
            holds = check_o_operator(lc, rho, tmap).holds
            signs = fresh_signs(rng, sd, used)
            op = [[signs[i] * signs[j] * x for j, x in enumerate(row)]
                  for i, row in enumerate(lift(tmap, 4))]
            name = f"nij.{kind}#{r}"
            alg = b.algebra(name, sign_dress(sd, signs))
            path = b.doc(f"{name}.op", matrix_to_json(Matrix.from_rows(op)),
                         "matrix")
            verdict = "holds" if holds else "fails"
            b.cli(name, ["nijenhuis", alg, path],
                  exits(0 if holds else 1, f"nijenhuis condition: {verdict}"))
    for kind in ("holds", "fails"):
        for r in range(LIFT_REPLICAS):
            tmap = o_operator_map(rng, rank_one=kind == "holds")
            holds = check_o_operator(lc, rho, tmap).holds
            b.lib(f"lift.{kind}#{r}",
                  lambda tmap=tmap: deformations.o_operator_lift(lc, rho,
                                                                 tmap),
                  value(lambda res, h=holds: res.agree and
                        res.o_operator_holds == h,
                        "lift verdict differs from check_o_operator"))

    path = b.algebra("rigidity.lc", lc)
    b.cli("rigidity.lc", ["deform", "rigidity", path, "--seed", "1"],
          exits(0, "all trivialized: yes"), catalog=True)
    for r, heavy in enumerate(heavy_conjugates(rng, REPLICAS)):
        path = b.algebra(f"rigidity.heavy#{r}", heavy)
        b.cli(f"rigidity.heavy#{r}", ["deform", "rigidity", path, "--seed",
                                      str(rng.randrange(2 ** 32))],
              same(0, "rigidity.lc", "betti h2", "all trivialized"))
    for r in range(REPLICAS):
        path = b.algebra(f"rigidity.sl2#{r}", conjugated_algebra(
            sl2(), unimodular(rng, 3)))
        b.cli(f"rigidity.sl2#{r}", ["deform", "rigidity", path, "--seed",
                                    str(rng.randrange(2 ** 32))],
              same(0, "smoke.rigidity", "betti h2"))

    for r, alg in enumerate(sl2_variants(rng, TYPICAL)):
        path = b.algebra(f"typical#{r}", alg)
        b.cli(f"typical#{r}", ["deform", "rigidity", path, "--trials", "2"],
              same(0, "smoke.rigidity", "betti h2", "all trivialized"))

    zero = zero_algebra(4, 3)
    for kind in ("flat", "obstructed"):
        flat = kind == "flat"
        for r in range(REPLICAS):
            name = f"extend.{kind}#{r}"
            path = b.doc(name, path_to_json(deformations.make_deformation_path(
                zero, [random_term(rng, flat)])), "path")
            if flat:
                check = artifact(0, lambda d: d.get("degree") == 1,
                                 "extension is not a degree-1 cochain")
            else:
                check = exits(1, "extension: obstructed")
            b.cli(name, ["deform", "extend", path], check)
            name = f"obstruction.{kind}#{r}"
            path = b.doc(name, path_to_json(deformations.make_deformation_path(
                zero, [random_term(rng, flat)])), "path")
            b.cli(name, ["obstruction", path],
                  artifact(0, lambda d, f=flat: (not d["entries"]) == f,
                           "obstruction is zero exactly when the path is "
                           "not flat"))

    nij = Matrix.from_rows(_NIJ_LC)
    cases = [("lc", lc, nij)]
    for r in range(REPLICAS):
        p = unimodular(rng, 4)
        cases.append((f"conj#{r}", conjugated_algebra(lc, p),
                      inverse(p).mul(nij).mul(p)))
    for name, alg, op in cases:
        catalog = name == "lc"
        alg_path = b.algebra(f"nijpath.{name}", alg)
        op_path = b.doc(f"nijpath.{name}.op", matrix_to_json(op), "matrix")
        b.cli(f"nijpath.{name}", ["nijenhuis", alg_path, op_path,
                                  "--generate-path"],
              artifact(0, lambda d: d.get("order") == 2,
                       "generated path is not of order 2"),
              catalog=catalog, pipe="path")
        produced = b.piped(f"nijpath.{name}")
        b.cli(f"fullcheck.{name}", ["deform", "check", produced, "--mode",
                                    "full"],
              exits(0, "deformation equations (full): holds"),
              catalog=catalog)
        const = b.doc(f"equiv.{name}.const", path_to_json(
            deformations.constant_path(alg, 2)), "path")
        emap = b.doc(f"equiv.{name}.map", emap_to_json(
            deformations.make_equivalence_map(4, 2, [op]), 4), "emap")
        b.cli(f"equiv.{name}", ["deform", "equiv", const, produced, emap],
              exits(0, "equivalence: holds"), catalog=catalog)


def build_algebroid(b: Workload) -> None:
    rng = b.rng
    is_algebroid = artifact(0, lambda d: d.get("rank", 0) > 0,
                            "not an algebroid document")
    axioms = ["--max-degree", "2", "--sections-degree", "2"]
    holds = exits(0, "algebroid axioms: holds")
    for name, alg in (("sl2", sl2()), ("lc", levi_civita_bracket())):
        for f in _FC:
            path = b.algebra(f"fc.{name}.{f}", alg)
            b.cli(f"fc.{name}.{f}", ["algebroid", "example-fc", path, "--f",
                                     f], is_algebroid, catalog=True,
                  pipe="algebroid")
            b.cli(f"fccheck.{name}.{f}", ["algebroid", "check",
                                          b.piped(f"fc.{name}.{f}")] + axioms,
                  holds, catalog=True)
    b.cli("topform", ["algebroid", "example-topform", "5", "3"],
          artifact(0, lambda d: d.get("arity") == 4,
                   "not an arity-4 algebroid"), catalog=True,
          pipe="algebroid")
    b.cli("topcheck", ["algebroid", "check", b.piped("topform")] + axioms,
          holds, catalog=True)
    top = algebroid_to_json(abd_mod.example_tangent_topform(5, 3))
    for r, doc in enumerate(relabelings(rng, top, TOP_REPLICAS)):
        path = b.doc(f"topcheck#{r}", doc, "algebroid")
        b.cli(f"topcheck#{r}", ["algebroid", "check", path] + axioms, holds)
    for r in range(REPLICAS):
        path = b.algebra(f"fc.sl2r#{r}", conjugated_algebra(
            sl2(), signed_permutation(rng, 3)))
        b.cli(f"fc.sl2r#{r}", ["algebroid", "example-fc", path, "--f",
                               "x1sq"], is_algebroid, pipe="algebroid")
        b.cli(f"fccheck.sl2r#{r}", ["algebroid", "check",
                                    b.piped(f"fc.sl2r#{r}")] + axioms, holds)

    for r, alg in enumerate(sl2_variants(rng, TYPICAL)):
        path = b.doc(f"typical#{r}", algebroid_to_json(
            abd_mod.example_tangent_fc(alg, poly_const(3, 1))), "algebroid")
        b.cli(f"typical#{r}", ["algebroid", "check", path], holds)

    sym = value(lambda res: res.holds, "symbol Leibniz rule fails")
    cases = [("fc.sl2.x1", abd_mod.example_tangent_fc(sl2(), poly_var(3, 0))),
             ("topform.3.2", abd_mod.example_tangent_topform(3, 2))]
    for r in range(REPLICAS):
        base = conjugated_algebra(sl2(), signed_permutation(rng, 3))
        cases.append((f"fc.sl2r#{r}", abd_mod.example_tangent_fc(
            base, poly_var(3, 0))))
    small = algebroid_to_json(abd_mod.example_tangent_topform(3, 2))
    for r, doc in enumerate(relabelings(rng, small, REPLICAS)):
        cases.append((f"topform.3.2r#{r}", algebroid_from_json(doc)))
    for name, abd in cases:
        phi = abd_mod.bracket_derivation(abd)
        b.lib(f"symbol.{name}",
              lambda abd=abd, phi=phi: abd_mod.check_symbol_leibniz(
                  abd, phi, phi), sym)


JOB_LISTS = {"complex": build_complex, "deform": build_deform,
            "algebroid": build_algebroid}


def spread_out(jobs: list[Job]) -> list[Job]:
    """Run order: the replicas of each kind evenly spaced over the pass, so
    that a kind's median samples the machine at several moments instead of
    one.  A job that reads a piped document stays right after the job that
    writes it.  Jobs without replicas are spaced out together."""
    units: list[list[Job]] = []
    writer: dict[str, list[Job]] = {}
    for job in jobs:
        source = next((writer[a] for a in job.argv or () if a in writer),
                      None)
        if source is None:
            source = []
            units.append(source)
        source.append(job)
        if job.pipe_to is not None:
            writer[job.pipe_to] = source
    groups: dict[str, list[list[Job]]] = {}
    for unit in units:
        groups.setdefault(unit[0].kind, []).append(unit)
    singles = [u for g in groups.values() if len(g) == 1 for u in g]
    spaced = [g for g in groups.values() if len(g) > 1] + [singles]
    keyed = [((i + 0.5) / len(g), rank, unit)
             for rank, g in enumerate(spaced) for i, unit in enumerate(g)]
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, unit in keyed for job in unit]


def build(workload: str, seed: int, workdir: str) -> Workload:
    """The workload's jobs and documents, in run order."""
    b = Workload(workload, seed, workdir)
    JOB_LISTS[workload](b)
    b.smoke()
    b.hostile()
    b.jobs = spread_out(b.jobs)
    return b
