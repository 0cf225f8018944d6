import argparse
import ast
import builtins
import contextlib
import hashlib
import io
import json
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import vf_coordinate
import nlie
from nlie import cli, linalg
from nlie.algebra import make_algebra
from nlie.algebroid import (anchor_eval, example_tangent_topform,
                            make_poly_algebroid, section_bracket)
from nlie.catalog import (broken_ternary_bracket, conjugated_algebra,
                          levi_civita_bracket, sl2, zero_algebra)
from nlie.cli import main
from nlie.cochains import make_cochain
from nlie.cohomology import Complex
from nlie.deformations import (constant_path, deformation_from_nijenhuis,
                               make_deformation_path, make_equivalence_map)
from nlie.io import (algebra_to_json, algebroid_to_json, cochain_from_json,
                     emap_to_json, matrix_to_json, path_from_json,
                     path_to_json)
from nlie.linalg import Matrix
from nlie.poly import (generator_section, make_section, poly_const, poly_var,
                       section_zero, vf_bracket)

F = Fraction


def write(tmp_path, name, doc):
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return str(target)


@pytest.fixture
def eps(tmp_path):
    return write(tmp_path, "eps.json", algebra_to_json(levi_civita_bracket()))


@pytest.fixture
def sl2_file(tmp_path):
    return write(tmp_path, "sl2.json", algebra_to_json(sl2()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds(capsys, eps):
    code, out, err = run(capsys, "check", eps)
    assert code == 0
    assert "fundamental identity: holds" in out
    assert "nlie 0.1.0" in out
    assert "sha256:" in out
    assert "elapsed:" in err


def test_check_fails_with_witness(capsys, tmp_path):
    bad = write(tmp_path, "bad.json",
                algebra_to_json(broken_ternary_bracket()))
    code, out, _ = run(capsys, "check", bad)
    assert code == 1
    assert "fundamental identity: fails" in out
    assert "witness:" in out


def test_check_json_format(capsys, tmp_path):
    bad = write(tmp_path, "bad.json",
                algebra_to_json(broken_ternary_bracket()))
    code, out, _ = run(capsys, "--format", "json", "check", bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fails"
    assert doc["command"] == "check"
    assert doc["witness"]["acting"] == [0, 1]
    digest = hashlib.sha256(open(bad, "rb").read()).hexdigest()
    assert doc["inputs"][0]["sha256"] == digest


def test_malformed_json_reports_location(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"arity": 2,')
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert "line 1" in err and "invalid JSON" in err


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, "check", str(deep))
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {deep}: JSON nested too deeply"]
    assert "Traceback" not in err


@pytest.mark.parametrize("data,offset", [
    (b'\xff\xfe{"arity": 3}', 0),
    (b'{"arity": "\xc3\x28"}', 11),
])
def test_non_utf8_input_is_input_error(capsys, tmp_path, data, offset):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    error = _single_error(err)
    assert error.startswith(f"error: {bad}: not UTF-8: ")
    assert error.endswith(f" at byte offset {offset}")


def _single_error(err):
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert len(errors[0]) < 200
    assert "Traceback" not in err
    return errors[0]


def test_output_over_digit_limit_is_input_error(capsys, eps, tmp_path):
    # the path of N = 10^2200 I carries N^2, over the default digit limit
    big = 10 ** 2200
    nmat = write(tmp_path, "big.json", matrix_to_json(Matrix.from_rows(
        [[big if i == j else 0 for j in range(4)] for i in range(4)])))
    code, out, err = run(capsys, "nijenhuis", eps, nmat, "--generate-path")
    assert code == 2
    assert out == ""
    assert f"{sys.get_int_max_str_digits()} digits" in _single_error(err)
    # a fundamental-identity witness multiplies two huge constants, both in
    # a report (check) and in a failed precondition (cohomology)
    broken = broken_ternary_bracket()
    scaled = write(tmp_path, "scaled.json", algebra_to_json(make_algebra(
        broken.arity, broken.dim, {key: [c * big for c in val] for key, val
                                   in broken.structure.items()})))
    for argv in (["check", scaled], ["cohomology", scaled, "--degree", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{sys.get_int_max_str_digits()} digits" in _single_error(err)


def test_huge_literals_are_input_errors(capsys, tmp_path):
    doc = algebra_to_json(levi_civita_bracket())
    value = doc["brackets"][0]["value"]
    value[next(iter(value))] = "7" * 5000
    as_string = write(tmp_path, "string.json", doc)
    code, out, err = run(capsys, "check", as_string)
    assert code == 2
    assert out == ""
    assert "(5000 characters)" in _single_error(err)
    # a bare JSON integer that long fails inside the JSON parser
    as_int = tmp_path / "int.json"
    as_int.write_text(pathlib.Path(as_string).read_text().replace(
        '"' + "7" * 5000 + '"', "7" * 5000))
    code, out, err = run(capsys, "check", str(as_int))
    assert code == 2
    assert out == ""
    assert f"{sys.get_int_max_str_digits()} digits" in _single_error(err)


@pytest.mark.parametrize("value", ['{"2": "2", "02": "5"}',
                                   '{"02": "5", "2": "2"}'])
def test_component_key_spellings_do_not_alias(capsys, tmp_path, value):
    """The keys "2" and "02" would name one component, and the later one
    would win, so the verdict would hang on their order; either order is
    an input error at the vector."""
    text = json.dumps(algebra_to_json(sl2()))
    assert text.count('{"2": "2"}') == 1
    target = tmp_path / "doc.json"
    target.write_text(text.replace('{"2": "2"}', value))
    code, out, err = run(capsys, "check", str(target))
    assert (code, out) == (2, "")
    assert _single_error(err) == (
        f"error: {target}.brackets[0].value: component key '02' must be "
        "written in ASCII digits with no sign, padding, separator or "
        "leading zero")


@pytest.mark.parametrize("value,name", [
    ('{"2": "2", "2": "5"}', "'2'"),
    ('{"2": "5", "2": "2"}', "'2'"),
    ('{"2": "2", "%s": 1, "%s": 2}' % ("x" * 60, "x" * 60),
     "'xxxxxxxxxxxxxxxxxxxx'... (60 characters)"),
], ids=["last-5", "last-2", "clipped"])
def test_repeated_member_name_is_input_error(capsys, tmp_path, value, name):
    """``json`` keeps the last value of a repeated member name, so the
    verdict would hang on the order of the two; either order is an input
    error that names the file and the member, clipped."""
    text = json.dumps(algebra_to_json(sl2()))
    target = tmp_path / "doc.json"
    target.write_text(text.replace('{"2": "2"}', value))
    code, out, err = run(capsys, "check", str(target))
    assert (code, out) == (2, "")
    assert _single_error(err) == \
        f"error: {target}: repeated member name {name}"


def test_member_names_repeat_across_objects(capsys, sl2_file):
    # every entry of "brackets" has its own "on" and "value"
    assert pathlib.Path(sl2_file).read_text().count('"value"') == 3
    code, out, _ = run(capsys, "check", sl2_file)
    assert (code, "fundamental identity: holds" in out) == (0, True)


def test_deeply_nested_objects_are_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' * 100_000)
    code, out, err = run(capsys, "check", str(deep))
    assert (code, out) == (2, "")
    assert _single_error(err) == f"error: {deep}: JSON nested too deeply"


def test_package_has_no_assert_guards():
    """Guards must survive ``python -O``, which strips assert statements."""
    package = pathlib.Path(nlie.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_at_module_top():
    """A module's imports sit at its top, where every reader sees what it
    loads; none hides in a function body."""
    package = pathlib.Path(nlie.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_compiles_nothing_at_run_time():
    """No module imports ``dataclasses`` or calls ``exec`` or ``compile``:
    a process compiles the package's source once, on import, and no
    method is generated from a string after that."""
    package = pathlib.Path(nlie.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "dataclasses"
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "compile")]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """``import nlie.cli`` in a fresh interpreter (no ``site``) leaves
    ``dataclasses`` and ``inspect`` unloaded: every CLI process pays for
    what it imports."""
    src = str(pathlib.Path(nlie.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nlie.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_three_routes_stay_independent():
    """The circle route, the four-sum rows and the Chevalley-Eilenberg
    complex are each other's oracles, so none reaches another: the
    circle-route functions name no four-sum or Chevalley function, and
    ``coboundary_rows`` names no circle product, directly or through the
    ``cochains`` helpers they call."""
    package = pathlib.Path(nlie.__file__).parent
    chevalley = {"chevalley"} | {
        node.name for node in ast.parse((package / "chevalley.py")
                                        .read_text()).body
        if isinstance(node, ast.FunctionDef)}
    funcs = {node.name: node for node in ast.parse((package / "cochains.py")
                                                   .read_text()).body
             if isinstance(node, ast.FunctionDef)}

    def names(root):
        seen, todo = set(), [root]
        while todo:
            for node in ast.walk(funcs[todo.pop()]):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, (ast.Name, ast.Attribute)) \
                        and name not in seen:
                    seen.add(name)
                    if name in funcs:
                        todo.append(name)
        return seen

    four_sum = {"coboundary_rows", "coboundary_explicit"}
    for root in ("circle", "gla_bracket", "differential",
                 "wedge_differential"):
        assert names(root) & (four_sum | chevalley) == set(), root
    assert names("coboundary_rows") & {"circle", "gla_bracket"} == set()


def test_each_route_written_once():
    """Inside each route one code path serves every degree: ``chevalley``
    reads the bracket through ``bracket_on_basis`` with no helper of its
    own, ``ce_differential`` and ``ce_differential_matrix`` return only at
    their end (no early return for degree 0), and ``wedge_differential``
    reads phi through ``evaluate``, with no ``multilinear`` of its own."""
    package = pathlib.Path(nlie.__file__).parent

    def funcs(module):
        return {node.name: node for node in ast.parse(
            (package / module).read_text()).body
            if isinstance(node, ast.FunctionDef)}

    def names(func):
        return {getattr(node, "id", getattr(node, "attr", None))
                for node in ast.walk(func)}

    chevalley = funcs("chevalley.py")
    assert not [name for name in chevalley if "bracket" in name]
    assert "bracket_on_basis" in names(chevalley["ce_differential"])
    for name in ("ce_differential", "ce_differential_matrix"):
        func = chevalley[name]
        assert [node for node in ast.walk(func)
                if isinstance(node, ast.Return)] == [func.body[-1]], name
    wedge = names(funcs("cochains.py")["wedge_differential"])
    assert "evaluate" in wedge and "multilinear" not in wedge


def _call_sites(name):
    """(module, enclosing functions) of each call of ``name`` in nlie,
    and the names of every function the package defines."""
    sites, defined = [], set()
    for path in sorted(pathlib.Path(nlie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
        defined |= {func.name for func in funcs}
        sites += [(path.name, [func.name for func in funcs
                               if call in ast.walk(func)])
                  for call in ast.walk(tree) if isinstance(call, ast.Call)
                  and getattr(call.func, "id",
                              getattr(call.func, "attr", None)) == name]
    return sites, defined


def test_one_elimination_routine():
    """``linalg._rref`` has one call site in the package, inside
    ``_eliminate``: rank, nullspace and every solve share the sampled,
    certified elimination, with no one-shot elimination beside it."""
    assert _call_sites("_rref")[0] == [("linalg.py", ["_eliminate"])]


def test_one_rank_bound_routine():
    """``linalg.rank_mod_p`` is the one lower bound on a rank, called
    only by ``Complex._bound``, for every prime: no bit-packed pass and no
    run-time re-check of its kept rows beside it."""
    sites, defined = _call_sites("rank_mod_p")
    assert sites == [("cohomology.py", ["_bound"])]
    assert not defined & {"_add3", "rank_mod3", "_bound_pass"}


def test_one_zero_product_routine():
    """``linalg.nonzero_counts`` is the one exact check that an integer
    product is zero: the ``kernel`` certificate (``_failing``) is its one
    caller (d_k·d_(k-1) = 0 is a theorem, checked in the tests, not at
    run time), no other function packs bits (``<<``), and ``_failing``
    keeps no by-column accumulator of its own."""
    sites, _ = _call_sites("nonzero_counts")
    assert sorted(sites) == [("linalg.py", ["_failing"])]
    packers = set()
    for path in pathlib.Path(nlie.__file__).parent.glob("*.py"):
        funcs = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)]
        packers |= {(path.name, func.name) for func in funcs
                    for node in ast.walk(func) if isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.LShift)}
    assert packers == {("linalg.py", "nonzero_counts")}
    linalg_tree = ast.parse((pathlib.Path(nlie.__file__).parent
                             / "linalg.py").read_text())
    failing = next(node for node in ast.walk(linalg_tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_failing")
    assert not [node for node in ast.walk(failing)
                if isinstance(node, ast.AugAssign)]
    assert "by_col" not in {node.id for node in ast.walk(linalg_tree)
                            if isinstance(node, ast.Name)}


def test_factorization_trusts_its_elimination():
    """``Factorization.__init__`` trusts its tagged elimination for
    rank >= r, as ``kernel`` does: it raises nothing itself and loops over
    no row of M (an E·M = R re-proof), since E·M_S = R holds by
    construction and is recomputed in the tests.  The certificate inside
    the elimination and the checks of each solve stay."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent
                      / "linalg.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "Factorization")
    init = next(node for node in cls.body if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert not [node for node in ast.walk(init) if isinstance(node, ast.Raise)]
    loops = [node.iter for node in ast.walk(init)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert not [node for it in loops for node in ast.walk(it)
                if isinstance(node, ast.Attribute) and node.attr == "rows"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"]
    assert loops  # the tags and the diagonal are still read off


def test_one_multiderivation_record():
    """An algebroid is its degree-1 bracket multiderivation and a bundle
    map its degree-0 one with zero symbol: ``algebroid`` defines one
    record class with a table and a symbol and no record besides it (a
    section is ``poly.PolySection``, see ``test_one_section_record``), no
    ``apply`` method (a second section evaluator), no second lift or
    symbol key adapter, and no module reads the fields of the deleted
    algebroid record."""
    root = pathlib.Path(nlie.__file__).parent
    tree = ast.parse((root / "algebroid.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    tables = [node.name for node in classes if {"table", "symbol"} <= {
        sub.target.id for sub in node.body
        if isinstance(sub, ast.AnnAssign)}]
    assert tables == ["PolyMultiderivation"]
    assert [node.name for node in classes] == ["PolyMultiderivation"]
    assert "apply" not in {sub.name for node in ast.walk(tree)
                           if isinstance(node, ast.ClassDef)
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef)}
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_lift_md", "_symbol", "_pad_tables",
                "PolyFilippovAlgebroid", "PolyLinearBundleMap"} & defined
    # one lift: only ``_lift`` pads a table
    assert {func.name for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for sub in ast.walk(func)
            if isinstance(sub, ast.Name) and sub.id == "_pad"} == {
                "_lift", "_pad_field"}
    here = pathlib.Path(__file__).parent
    paths = [*root.glob("*.py"), *here.glob("*.py"),
             *(here.parent / "perfbench").glob("*.py")]
    for path in paths:
        reads = {sub.attr for sub in ast.walk(ast.parse(path.read_text()))
                 if isinstance(sub, ast.Attribute)}
        assert not {"bracket_table", "anchor_table"} & reads, path.name


def test_one_section_record():
    """A vector field on R^m is a section of rank m: ``nlie`` defines one
    class with a ``comps`` field, ``poly.PolySection``, whose operators
    are the only section arithmetic; no module defines or names the
    deleted field record, its zero or the free section functions; and
    ``io.report_value`` encodes a section by its class, with no
    ``hasattr``."""
    root = pathlib.Path(nlie.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(root.glob("*.py"))}

    def fields(cls):
        slots = [sub.value for node in cls.body if isinstance(node, ast.Assign)
                 and "__slots__" in {getattr(t, "id", None)
                                     for t in node.targets}
                 for sub in ast.walk(node.value)
                 if isinstance(sub, ast.Constant)]
        return set(slots) | {node.target.id for node in cls.body
                             if isinstance(node, ast.AnnAssign)}

    holders = [(module, node.name) for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and "comps" in fields(node)]
    assert holders == [("poly.py", "PolySection")]
    deleted = {"PolyVectorField", "vf_zero", "section_add", "section_sub",
               "section_scale"}
    for module, tree in trees.items():
        named = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("name", "id", "attr")}
        assert not deleted & named, module
    report = next(node for node in trees["io.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "report_value")
    assert "hasattr" not in {getattr(node, "id", None)
                             for node in ast.walk(report)}
    assert [node for node in ast.walk(report) if isinstance(node, ast.Name)
            and node.id == "PolySection"]


def test_package_parses_at_python_floor():
    """Every module of the package and of its tests parses with the grammar
    of the oldest Python that ``pyproject.toml`` admits, read with a regex
    since ``tomllib`` is younger than that floor."""
    here = pathlib.Path(__file__).parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (here.parent / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    paths = [*pathlib.Path(nlie.__file__).parent.glob("*.py"),
             *here.glob("*.py")]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=version)


def test_one_verdict_shape():
    """Every check returns ``CheckResult`` and every exact solve its
    solution or its ``Refusal``: ``deformations`` defines no class with a
    ``holds`` field, no module defines the deleted verdict records or a
    second degree-0 vectorization, and ``Complex.solve`` holds no None."""
    root = pathlib.Path(nlie.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in root.glob("*.py")}
    assert not [node.name for node in ast.walk(trees["deformations.py"])
                if isinstance(node, ast.ClassDef)
                and "holds" in {sub.value for sub in ast.walk(node)
                                if isinstance(sub, ast.Constant)}
                | {sub.target.id for sub in node.body
                   if isinstance(sub, ast.AnnAssign)}]
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"DeformationCheck", "EquivalenceCheck", "ExtensionResult",
                "vec_to_mat"} & defined
    complex_ = next(node for node in trees["cohomology.py"].body
                    if isinstance(node, ast.ClassDef)
                    and node.name == "Complex")
    solve = next(node for node in complex_.body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    assert not [sub for sub in ast.walk(solve)
                if isinstance(sub, ast.Constant) and sub.value is None]


def test_axiom_verdict_reads_only_tables():
    """``check_algebroid_axioms`` and every helper of ``nlie.algebroid``
    it reaches, the phase helpers it passes among them, name no
    evaluator: the verdict reads the lookups of ``_generator_lookups``
    and never evaluates a bracket or an anchor on sections.  The Leibniz
    rule of the evaluator is checked by the tests."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "algebroid.py")
                     .read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def named(func):
        return {getattr(sub, "id", None) or getattr(sub, "attr", None)
                for sub in ast.walk(funcs[func])}

    reached, todo = set(), ["check_algebroid_axioms"]
    while todo:
        func = todo.pop()
        reached.add(func)
        todo += (named(func) & set(funcs)) - reached
    assert {"_fi_generator", "_anchor_generator", "_anchor_weighted",
            "_fi_weighted", "_anchor_factors", "_fi_factors",
            "_first_coordinate", "_weighted_frames",
            "_first_failing"} <= reached
    evaluators = {"section_bracket", "_leibniz", "_leibniz_failure", "_lift",
                  "anchor_eval", "anchor_on_generators"}
    assert not [(func, evaluators & named(func)) for func in sorted(reached)
                if evaluators & named(func)]


def test_obstruction_reads_no_graded_bracket():
    """The obstruction of a valid path is a cocycle by a theorem, which
    the tests check on the four-sum route; no function of
    ``nlie.deformations`` re-checks it at run time through
    ``gla_bracket``."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "deformations.py")
                     .read_text())
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)]
    assert {"obstruction", "_obstruction", "extend"} <= \
        {func.name for func in funcs}
    assert not [func.name for func in funcs for sub in ast.walk(func)
                if isinstance(sub, ast.Call)
                and getattr(sub.func, "id", getattr(sub.func, "attr", None))
                == "gla_bracket"]


_UNCALLED_API = re.compile(r"Paper API that nothing here calls: "
                           r"``\w+``((, ``\w+``)* and ``\w+``)?\.$")


def test_uncalled_api_lists_are_true():
    """A module docstring may end with the sentence "Paper API that
    nothing here calls: ``a``, ``b`` and ``c``."  Every name it lists is
    defined at the top of its module, and no other function or statement
    in ``nlie`` names it."""
    root = pathlib.Path(nlie.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(root.glob("*.py"))}
    listed = {}
    for module, tree in trees.items():
        doc = " ".join((ast.get_docstring(tree) or "").split())
        if "nothing here calls" in doc:
            sentence = _UNCALLED_API.search(doc)
            assert sentence, module
            listed[module] = re.findall(r"``(\w+)``", sentence.group())
    assert sorted(listed) == ["algebra.py", "algebroid.py", "cochains.py",
                              "cohomology.py", "deformations.py"]
    for module, names in listed.items():
        defs = {node.name: node for node in trees[module].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for api in names:
            assert api in defs, (module, api)
            for name, tree in trees.items():
                own = defs[api] if name == module else None
                uses = [sub for node in tree.body if node is not own
                        for sub in ast.walk(node)
                        if getattr(sub, "id", None) == api
                        or getattr(sub, "attr", None) == api
                        or isinstance(sub, ast.alias) and sub.name == api]
                assert not uses, (module, api, name)


def test_polynomials_validated_where_they_enter():
    """``poly_from_terms`` is the one place that checks raw terms, so
    ``MultiPoly`` has no ``__post_init__`` and no other function of
    ``nlie.poly`` calls ``poly_from_terms``: either would check every
    arithmetic result again."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "poly.py")
                     .read_text())
    multipoly = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "MultiPoly")
    assert "__post_init__" not in {node.name for node in multipoly.body
                                   if isinstance(node, ast.FunctionDef)}
    callers = {func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               and func.name != "poly_from_terms"
               for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "poly_from_terms"}
    assert callers == set()


def test_one_leibniz_driver():
    """Every Leibniz-type check of ``nlie.algebroid`` goes through
    ``_leibniz_failure``: it is the one function that reads the generic
    weight of ``_generic``, and the per-check helpers it replaced are
    gone."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "algebroid.py")
                     .read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def callers(name):
        return {func for func, node in funcs.items()
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id == name}

    assert callers("_generic") == {"_leibniz_failure"}
    assert callers("_leibniz_failure") == {"check_symbol_leibniz",
                                           "nijenhuis_symbol_check"}
    assert not {"_leibniz_weight", "_generators",
                "_weight_index"} & set(funcs)


def test_products_take_supports():
    """Sections enter the evaluators of ``nlie.algebroid`` as slot
    supports: ``_supports``, the bundle check, runs only at the public
    entry points (the two products through ``_product_args``),
    ``_leibniz`` and ``_tensorial`` take supports, and
    ``_insertions`` reads the inserted operator from its table, with no
    shuffle loop and no generator section."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "algebroid.py")
                     .read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def names(func):
        return {sub.id for sub in ast.walk(funcs[func])
                if isinstance(sub, ast.Name)}

    def callers(name):
        return {func for func in funcs if name in names(func)}

    assert callers("_supports") == {"section_bracket", "anchor_eval",
                                    "md_eval", "_product_args"}
    assert callers("_product_args") == {"md_circle_eval", "md_bracket_eval"}
    assert not {"shuffles", "_md_apply", "generator_section"} \
        & names("_insertions")
    assert not {"md_eval", "_md_apply", "md_circle_eval", "_odot"} \
        & callers("generator_section")
    assert "_gen_wedge" not in funcs


def test_one_basis_key_rule():
    """Every table constructor checks its keys through
    ``algebra.basis_key``; outside it only the located checks of ``io``
    test a key by ``sorted(set(...))``.  ``make_poly_algebroid`` is the
    degree-1 call of ``make_poly_multiderivation``."""
    constructors = {
        "algebra.py": {"make_algebra", "make_representation", "make_wedge"},
        "cochains.py": {"make_cochain"}, "chevalley.py": {"make_ce_cochain"},
        "algebroid.py": {"make_poly_multiderivation"}}

    def calls(node, name, arg=None):
        return {sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                and getattr(sub.func, "id", None) == name
                and (arg is None or sub.args and getattr(
                    getattr(sub.args[0], "func", None), "id", None) == arg)}

    for path in pathlib.Path(nlie.__file__).parent.glob("*.py"):
        if path.name == "io.py":
            continue
        tree = ast.parse(path.read_text())
        funcs = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        inside = calls(funcs["basis_key"], "sorted", "set") \
            if path.name == "algebra.py" else set()
        assert calls(tree, "sorted", "set") <= inside, path.name
        for name in constructors.get(path.name, ()):
            assert calls(funcs[name], "basis_key"), name
        if path.name == "algebroid.py":
            assert calls(funcs["make_poly_algebroid"],
                         "make_poly_multiderivation")


def test_one_keyed_entry_rule():
    """``nlie.io`` writes and reads every ``"on"``-keyed part through
    ``_write_keyed`` and ``_read_keyed``: only they name ``"on"``.  A
    repeated key is refused there and in ``cochain_from_json``, whose key
    is composite, and nowhere else; every ``_key`` call passes the key's
    length; and no private helper ends like a codec, which the harness
    would trace as a parser or an encoder.  The representation codec is
    retired."""
    tree = ast.parse((pathlib.Path(nlie.__file__).parent / "io.py")
                     .read_text())

    def holders(match):
        return {getattr(node, "name", None) for node in tree.body
                for sub in ast.walk(node) if isinstance(sub, ast.Constant)
                and isinstance(sub.value, str) and match(sub.value)}

    assert holders(lambda text: text == "on") == {"_read_keyed",
                                                  "_write_keyed"}
    assert holders(lambda text: text.startswith("duplicate ")) == {
        "_read_keyed", "cochain_from_json"}
    calls = [sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)
             and getattr(sub.func, "id", None) == "_key"]
    assert calls
    assert all(len(call.args) == 4 and not call.keywords for call in calls)
    codecs = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name.endswith(("_to_json", "_from_json"))}
    assert {name for name in codecs if name.startswith("_")} == {
        "_poly_list_from_json"}
    assert not {"representation_to_json", "representation_from_json"} \
        & codecs


def test_fractions_made_only_where_coefficients_enter():
    """An integral coefficient is an int: ``nlie.poly`` calls ``Fraction``
    only in ``_coeff`` and ``poly_from_terms``, where coefficients enter,
    and ``nlie.algebroid`` never, so integral inputs stay in ints."""
    def callers(module):
        tree = ast.parse((pathlib.Path(nlie.__file__).parent / module)
                         .read_text())
        return {func.name for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"}
    assert "_coeff" in callers("poly.py") <= {"_coeff", "poly_from_terms"}
    assert callers("algebroid.py") == set()


def test_cochain_fractions_made_only_for_reports():
    """Cochain entries enter through ``poly._coeff``, so an integral entry
    is an int.  ``nlie.cochains`` and ``nlie.deformations`` make a
    ``Fraction`` (a call, or ``map(Fraction, ...)``) only where a witness
    or report vector is built, since ``io.report_value`` renders an int
    as a JSON number but a Fraction as a rational string."""
    def makers(module):
        tree = ast.parse((pathlib.Path(nlie.__file__).parent / module)
                         .read_text())
        return {func.name for func in tree.body
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func) if isinstance(node, ast.Call)
                for name in [node.func, *node.args]
                if isinstance(name, ast.Name) and name.id == "Fraction"}
    assert makers("cochains.py") == {"differential"}
    assert makers("deformations.py") == {
        "infinitesimal_class", "check_homomorphism_family", "_closure"}


# The same stdout at integral and rational coefficients: example-fc on sl(2)
# scaled by 3/4, the check of its output, the top-form anchor scaled by 3/2,
# and a failing anchor with a 3/2 coefficient.
RATIONAL_STDOUT = {
    "example-fc": (0, "e70a8b13d992ebad4ee984541f8e5427"
                      "f8059c342d2191ec4bd54ef43cbd3dc5"),
    "check-fc": (0, "23691e53480287479a2090ecdd0fa064"
                    "136c7169c74b50687e844bee904656c5"),
    "check-topform": (0, "c129bb9d76eb71e8084e20e9e0dd51eb"
                         "9b5a561adb4eea06c8b95a9d66d63901"),
    "check-anchor": (1, "7ce34b6a87b6a81b88dbc9235ec779a2"
                        "26d2e82ca8c4323ea807de72f230cc4e"),
}


def test_algebroid_rational_coefficients_golden(capsys, tmp_path):
    scaled = write(tmp_path, "scaled.json", {
        "arity": 2, "dim": 3, "brackets": [
            {"on": [1, 2], "value": {"2": "3/2"}},
            {"on": [1, 3], "value": {"3": "-3/2"}},
            {"on": [2, 3], "value": {"1": "3/4"}}]})
    top = algebroid_to_json(example_tangent_topform(3, 2))
    top["anchor"][0]["field"][0][0]["coeff"] = "3/2"
    bad = algebroid_to_json(make_poly_algebroid(1, 2, 2, {}, {
        (0,): vf_coordinate(1, 0),
        (1,): make_section(1, 1, (poly_var(1, 0).scale(F(3, 2)),))}))
    outs = {}
    code, outs["example-fc"], _ = run(capsys, "algebroid", "example-fc",
                                      scaled, "--f", "x1sq")
    assert code == 0 and '"coeff": "3/2"' in outs["example-fc"]
    fc = tmp_path / "fc.json"
    fc.write_text(outs["example-fc"])
    for name, path in [("check-fc", str(fc)),
                       ("check-topform", write(tmp_path, "top.json", top)),
                       ("check-anchor", write(tmp_path, "bad.json", bad))]:
        code, outs[name], _ = run(capsys, "--format", "json", "algebroid",
                                  "check", path)
        assert code == RATIONAL_STDOUT[name][0]
    assert {name: _golden_digest(out, tmp_path)
            for name, out in outs.items()} == {
        name: digest for name, (_, digest) in RATIONAL_STDOUT.items()}


def test_dimension_error_is_input_error(capsys, tmp_path):
    doc = algebra_to_json(sl2())
    doc["brackets"][0]["on"] = [1, 9]
    bad = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "out of range" in err


def test_cohomology_zero_bracket_betti(capsys, tmp_path):
    target = write(tmp_path, "zero.json",
                   algebra_to_json(zero_algebra(4, 3)))
    code, out, _ = run(capsys, "cohomology", target, "--degree", "2")
    assert code == 0
    assert "betti: 16" in out
    code, out, _ = run(capsys, "--format", "json", "cohomology", target,
                       "--degree", "2")
    doc = json.loads(out)
    assert doc["betti"] == 16
    assert doc["dim_cochains"] == 16
    assert len(doc["representatives"]) == 16


def test_cohomology_degree_cap(capsys, eps, tmp_path):
    code, out, err = run(capsys, "cohomology", eps, "--degree", "4")
    assert code == 2
    assert "cap" in err
    small = write(tmp_path, "small.json", algebra_to_json(zero_algebra(2, 2)))
    code, _, _ = run(capsys, "cohomology", small, "--degree", "4",
                     "--max-degree-cap", "4")
    assert code == 0


def test_nijenhuis_verdicts(capsys, eps, tmp_path):
    good = write(tmp_path, "n.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    bad = write(tmp_path, "m.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 0], [0, 1, 0, 3]])))
    code, out, _ = run(capsys, "nijenhuis", eps, good)
    assert code == 0 and "nijenhuis condition: holds" in out
    code, out, _ = run(capsys, "nijenhuis", eps, bad)
    assert code == 1 and "nijenhuis condition: fails" in out


def test_nijenhuis_generate_path_pipes_into_deform_check(capsys, eps,
                                                         tmp_path):
    nmat = write(tmp_path, "n.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    code, out, _ = run(capsys, "nijenhuis", eps, nmat, "--generate-path")
    assert code == 0
    path = path_from_json(json.loads(out))
    assert path.order == 2
    target = write(tmp_path, "path.json", json.loads(out))
    code, out, _ = run(capsys, "deform", "check", target, "--mode", "full")
    assert code == 0
    assert "deformation equations (full): holds" in out


def test_nijenhuis_gate_on_invalid_algebra(capsys, tmp_path):
    bad = write(tmp_path, "bad.json",
                algebra_to_json(broken_ternary_bracket()))
    nmat = write(tmp_path, "n.json",
                 matrix_to_json(Matrix.identity(4)))
    code, _, err = run(capsys, "nijenhuis", bad, nmat)
    assert code == 2
    assert "fundamental identity" in err


def test_deform_truncated_vs_full(capsys, tmp_path):
    base = zero_algebra(3, 2)
    term = make_cochain(2, 3, 1, {((), (0, 1)): (0, 0, 1),
                                  ((), (1, 2)): (0, 1, 0)})
    path = make_deformation_path(base, [term])
    target = write(tmp_path, "path.json", path_to_json(path))
    code, out, _ = run(capsys, "deform", "check", target)
    assert code == 0
    code, out, _ = run(capsys, "deform", "check", target, "--mode", "full")
    assert code == 1
    assert "first failing power: 2" in out


def test_deform_extend_success_and_roundtrip(capsys, eps, tmp_path):
    nmat = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 2]])
    path = deformation_from_nijenhuis(levi_civita_bracket(), nmat)
    target = write(tmp_path, "path.json", path_to_json(path))
    code, out, _ = run(capsys, "deform", "extend", target)
    assert code == 0
    term = cochain_from_json(json.loads(out))
    assert term.degree == 1
    doc = path_to_json(path)
    doc["order"] += 1
    doc["terms"].append(json.loads(out))
    longer = write(tmp_path, "longer.json", doc)
    code, _, _ = run(capsys, "deform", "check", longer)
    assert code == 0


def test_deform_extend_obstructed(capsys, tmp_path):
    base = zero_algebra(3, 2)
    term = make_cochain(2, 3, 1, {((), (0, 1)): (0, 0, 1),
                                  ((), (1, 2)): (0, 1, 0)})
    path = make_deformation_path(base, [term])
    target = write(tmp_path, "path.json", path_to_json(path))
    code, out, _ = run(capsys, "deform", "extend", target)
    assert code == 1
    assert "extension: obstructed" in out
    assert "obstruction class is nonzero" in out


def test_deform_equiv_orientation(capsys, tmp_path):
    alg = levi_civita_bracket()
    nmat = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 2]])
    path = deformation_from_nijenhuis(alg, nmat)
    emap = make_equivalence_map(4, 2, [nmat])
    const = write(tmp_path, "const.json",
                  path_to_json(constant_path(alg, 2)))
    deformed = write(tmp_path, "path.json", path_to_json(path))
    target = write(tmp_path, "emap.json", emap_to_json(emap, 4))
    code, out, _ = run(capsys, "deform", "equiv", const, deformed, target)
    assert code == 0 and "equivalence: holds" in out
    code, out, _ = run(capsys, "deform", "equiv", deformed, const, target)
    assert code == 1 and "first failing power: 1" in out


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_deform_equiv_map_of_other_dimension_is_input_error(capsys, tmp_path,
                                                            dim):
    # the path lives on Q^4; an identity map of another size is an input
    # error, not a traceback and not a failed equivalence
    path = write(tmp_path, "p.json",
                 path_to_json(constant_path(levi_civita_bracket(), 1)))
    emap = write(tmp_path, "e.json", emap_to_json(make_equivalence_map(
        dim, 1, [Matrix.identity(dim)]), dim))
    code, out, err = run(capsys, "deform", "equiv", path, path, emap)
    assert (code, out) == (2, "")
    assert "base dimension" in _single_error(err)

def test_deform_rigidity(capsys, sl2_file, tmp_path):
    code, out, _ = run(capsys, "--seed", "5", "deform", "rigidity",
                       sl2_file, "--trials", "4")
    assert code == 0
    assert "betti h2: 0" in out
    assert "all trivialized: yes" in out
    assert "sampling probe" in out
    target = write(tmp_path, "zero.json", algebra_to_json(zero_algebra(2, 2)))
    code, out, _ = run(capsys, "deform", "rigidity", target, "--trials", "2")
    assert code == 1
    assert "stuck at order 1" in out


@pytest.mark.parametrize("flag, value", [("--max-order", "0"),
                                         ("--trials", "-3")])
def test_deform_rigidity_range_is_input_error(capsys, sl2_file, flag, value):
    code, out, err = run(capsys, "deform", "rigidity", sl2_file, flag, value)
    assert code == 2
    assert out == ""
    assert f"({value} given)" in _single_error(err)


def test_obstruction_emits_cochain(capsys, tmp_path):
    base = zero_algebra(3, 2)
    term = make_cochain(2, 3, 1, {((), (0, 1)): (0, 0, 1),
                                  ((), (1, 2)): (0, 1, 0)})
    path = make_deformation_path(base, [term])
    target = write(tmp_path, "path.json", path_to_json(path))
    code, out, _ = run(capsys, "obstruction", target)
    assert code == 0
    theta = cochain_from_json(json.loads(out))
    assert theta.degree == 2
    assert theta.entries


def test_algebroid_examples_emit_models(capsys, sl2_file):
    code, out, _ = run(capsys, "algebroid", "example-fc", sl2_file,
                       "--f", "x1sq")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3 and doc["arity"] == 2


def test_algebroid_check_from_file(capsys, sl2_file, tmp_path):
    code, out, _ = run(capsys, "algebroid", "example-fc", sl2_file)
    target = write(tmp_path, "fc.json", json.loads(out))
    code, out, _ = run(capsys, "algebroid", "check", target)
    assert code == 0 and "algebroid axioms: holds" in out
    code, out, _ = run(capsys, "algebroid", "example-topform", "3", "2")
    target = write(tmp_path, "top.json", json.loads(out))
    code, out, _ = run(capsys, "algebroid", "check", target,
                       "--sections-degree", "1")
    assert code == 0


def test_algebroid_check_detects_violation(capsys, tmp_path):
    # noncommuting anchor fields over a zero bracket break axiom (a)
    bad = make_poly_algebroid(
        1, 2, 2, {},
        {(0,): vf_coordinate(1, 0),
         (1,): make_section(1, 1, (poly_var(1, 0),))})
    target = write(tmp_path, "bad.json", algebroid_to_json(bad))
    code, out, _ = run(capsys, "algebroid", "check", target,
                       "--max-degree", "0")
    assert code == 1
    assert "algebroid axioms: fails" in out
    assert "witness:" in out


@pytest.mark.parametrize("extra", [1, -1])
def test_algebroid_anchor_field_of_bundle_rank_is_input_error(capsys,
                                                              tmp_path,
                                                              extra):
    """An anchor value is a vector field on R^m, a section of rank m, not
    of the bundle's rank r: a field with r != m components is refused
    where it is read, with one error line and nothing on stdout."""
    doc = algebroid_to_json(make_poly_algebroid(
        2, 2 + extra, 2, {}, {(0,): vf_coordinate(2, 0)}))
    doc["anchor"][0]["field"] = [[]] * (2 + extra)
    target = write(tmp_path, "rank.json", doc)
    code, out, err = run(capsys, "algebroid", "check", target)
    assert (code, out) == (2, "")
    assert _single_error(err) == (
        f"error: {target}.anchor[0].field: expected 2 "
        f"polynomial components, got {2 + extra}")


def test_algebroid_check_decides_sections(capsys, tmp_path):
    # zero bracket, a(e0, e2) = d/dx0, a(e1, e2) = d/dx0 - d/dx1: every
    # generator condition holds, and (a) fails on the sections e0, x0 e2;
    # e1, e2, which the witness names and the library replays
    abd = make_poly_algebroid(
        2, 3, 3, {}, {(0, 2): vf_coordinate(2, 0),
                      (1, 2): vf_coordinate(2, 0) - vf_coordinate(2, 1)})
    target = write(tmp_path, "sections.json", algebroid_to_json(abd))
    outs = []
    for extra in ([], ["--sections-degree", "2"], ["--max-degree", "0"],
                  ["--max-degree", "2"],
                  ["--max-degree", "3", "--sections-degree", "3"]):
        code, out, _ = run(capsys, "--format", "json", "algebroid", "check",
                           target, *extra)
        assert code == 1
        outs.append(out)
    assert outs == [outs[0]] * 5
    witness = json.loads(outs[0])["witness"]
    assert witness == {"axiom": "anchor compatibility", "x": [0, 2],
                       "y": [1, 2], "slot": 1, "f": "x0"}
    xs = [generator_section(2, 3, j) for j in witness["x"]]
    xs[witness["slot"]] = xs[witness["slot"]].scale(poly_var(2, 0))
    ys = [generator_section(2, 3, j) for j in witness["y"]]
    lhs = vf_bracket(anchor_eval(abd, xs), anchor_eval(abd, ys))
    rhs = sum((anchor_eval(abd, ys[:i] + [section_bracket(abd, xs + [yi])]
                           + ys[i + 1:]) for i, yi in enumerate(ys)),
              section_zero(2, 2))
    assert lhs - rhs == -vf_coordinate(2, 1)


def test_reduce_lie(capsys, sl2_file, eps):
    code, out, _ = run(capsys, "reduce-lie", sl2_file)
    assert code == 0
    assert "degree 0: agree (matrix identity)" in out
    assert "degree 2: agree (evaluation identity)" in out
    assert "reduction: agree" in out
    code, _, err = run(capsys, "reduce-lie", eps)
    assert code == 2
    assert "binary" in err


def test_stdout_byte_stable(capsys, eps):
    _, out1, _ = run(capsys, "--format", "json", "cohomology", eps,
                     "--degree", "1")
    _, out2, _ = run(capsys, "--format", "json", "cohomology", eps,
                     "--degree", "1")
    assert out1 == out2
    _, out3, _ = run(capsys, "check", eps)
    _, out4, _ = run(capsys, "check", eps)
    assert out3 == out4


def test_threads_flag_accepted(capsys, eps):
    code, out, _ = run(capsys, "check", eps, "--threads", "4")
    assert code == 0
    assert "fundamental identity: holds" in out


# every leaf verb with its required positionals, and the runner it selects
LEAF_VERBS = [
    (["check", "a.json"], cli.run_check),
    (["cohomology", "a.json", "--degree", "1"], cli.run_cohomology),
    (["nijenhuis", "a.json", "n.json"], cli.run_nijenhuis),
    (["deform", "check", "p.json"], cli.run_deform_check),
    (["deform", "extend", "p.json"], cli.run_deform_extend),
    (["deform", "equiv", "p.json", "q.json", "m.json"],
     cli.run_deform_equiv),
    (["deform", "rigidity", "a.json"], cli.run_deform_rigidity),
    (["obstruction", "p.json"], cli.run_obstruction),
    (["algebroid", "check", "b.json"], cli.run_algebroid_check),
    (["algebroid", "example-fc", "a.json"], cli.run_algebroid_fc),
    (["algebroid", "example-topform", "3", "2"], cli.run_algebroid_topform),
    (["reduce-lie", "a.json"], cli.run_reduce_lie),
]


@pytest.mark.parametrize("verb, runner", LEAF_VERBS,
                         ids=[run.__name__ for _, run in LEAF_VERBS])
def test_shared_flags_parse_anywhere(verb, runner):
    """--format, --seed and --threads mean the same before the verb, after
    it, or after --trace; without them the defaults are text, 0 and 1."""
    def parse(*argv):
        args = vars(cli.build_parser().parse_args(list(argv)))
        assert args.pop("run") is runner
        return args

    flags = ["--format", "json", "--seed", "9", "--threads", "2"]
    plain = parse(*verb)
    assert (plain["format"], plain["seed"], plain["threads"]) == \
        ("text", 0, 1)
    before, after = parse(*flags, *verb), parse(*verb, *flags)
    traced = parse("--trace", *flags, *verb)
    assert traced.pop("trace") is True
    assert before == after == dict(traced, trace=False) == \
        dict(plain, format="json", seed=9, threads=2)


def _verb_path(argv):
    return argv[:2] if argv[0] in ("deform", "algebroid") else argv[:1]


def _parser_exit(capsys, monkeypatch, *argv):
    """Exit code, stdout and stderr of an argv that argparse ends, on a
    terminal wide enough that no help line wraps."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _listed_in_order(text, entries):
    """Each ``(name, summary)`` has a help line of its own, in order."""
    lines = text.splitlines()
    found = [next((i for i, line in enumerate(lines)
                   if line.split(None, 1) == [name, summary]), None)
             for name, summary in entries]
    return None not in found and found == sorted(found)


def test_help_lists_every_verb_in_declaration_order(capsys, monkeypatch):
    verbs = ["check", "cohomology", "nijenhuis", "deform", "obstruction",
             "algebroid", "reduce-lie"]
    assert list(cli.VERBS) == verbs
    code, out, err = _parser_exit(capsys, monkeypatch, "--help")
    assert (code, err) == (0, "")
    assert "{" + ",".join(verbs) + "}" in out
    assert _listed_in_order(out, [(name, spec[0])
                                  for name, spec in cli.VERBS.items()])
    for group, subverbs in (("deform", ["check", "extend", "equiv",
                                        "rigidity"]),
                            ("algebroid", ["check", "example-fc",
                                           "example-topform"])):
        code, out, err = _parser_exit(capsys, monkeypatch, group, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: nlie {group} [-h] "
                              "{" + ",".join(subverbs) + "}")
        table = cli.VERBS[group][1]
        assert list(table) == subverbs
        assert _listed_in_order(out, [(name, spec[0])
                                      for name, spec in table.items()])


COMPATIBILITY_FLAGS = {
    "--threads": "accepted for compatibility; runs are single-threaded",
    "--max-degree": "accepted for compatibility; the Leibniz rule holds "
                    "by construction",
    "--sections-degree": "accepted for compatibility; the axioms are "
                         "decided on all sections",
}


@pytest.mark.parametrize("verb, runner", LEAF_VERBS,
                         ids=[run.__name__ for _, run in LEAF_VERBS])
def test_leaf_help_lists_its_flags(capsys, monkeypatch, verb, runner):
    path = _verb_path(verb)
    code, out, err = _parser_exit(capsys, monkeypatch, *path, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: nlie {' '.join(path)} [-h] "
                          "[--format {text,json}] [--seed SEED] "
                          "[--threads THREADS]")
    spec = cli.VERBS[path[0]]
    spec = spec[1][path[1]] if len(path) == 2 else spec
    assert spec[1] is runner
    flags = [("--format", "report format (default: text)"),
             ("--seed", "seed for randomized sampling verbs"),
             ("--threads", COMPATIBILITY_FLAGS["--threads"])]
    flags += [(names[0], options.get("help")) for names, options in spec[2:]]
    # a long invocation puts its help on the next line
    flat = " ".join(out.split())
    for name, text in flags:
        assert any(line.strip().startswith(name)
                   for line in out.splitlines()), name
        assert text is None or re.search(
            re.escape(name) + r"(?: \S+)? " + re.escape(text), flat), name
    for name in set(COMPATIBILITY_FLAGS) & {name for name, _ in flags}:
        assert COMPATIBILITY_FLAGS[name] in out


def test_parse_errors_name_every_choice(capsys, monkeypatch):
    code, out, err = _parser_exit(capsys, monkeypatch, "bogus")
    assert (code, out) == (2, "")
    assert "invalid choice" in err and "'bogus'" in err
    assert all(f"'{name}'" in err.split("choose from")[1]
               for name in cli.VERBS)
    for group in ("deform", "algebroid"):
        subverbs = ",".join(cli.VERBS[group][1])
        code, out, err = _parser_exit(capsys, monkeypatch, group)
        assert (code, out) == (2, "")
        assert "{" + subverbs + "}" in err
        assert err.endswith("the following arguments are required: "
                            "subverb\n")
        code, out, err = _parser_exit(capsys, monkeypatch, group, "bogus")
        assert (code, out) == (2, "")
        assert all(f"'{name}'" in err.split("choose from")[1]
                   for name in cli.VERBS[group][1])
    code, out, err = _parser_exit(capsys, monkeypatch, "deform", "rigidity",
                                  "a.json", "--trials", "x")
    assert (code, out) == (2, "")
    assert err.startswith("usage: nlie deform rigidity [-h]")
    assert err.endswith("error: argument --trials: invalid int value: "
                        "'x'\n")


@pytest.mark.parametrize("verb, runner", LEAF_VERBS,
                         ids=[run.__name__ for _, run in LEAF_VERBS])
def test_each_call_builds_only_its_parsers(capsys, monkeypatch, verb, runner):
    """A well-formed argv builds no parser, on every call; the verb's
    ``--help`` still builds argparse's parser and prints its usage."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in (1, 2):
        main(list(verb))
    assert built == []
    capsys.readouterr()
    path = _verb_path(verb)
    code, out, err = _parser_exit(capsys, monkeypatch, *path, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: nlie {' '.join(path)} [-h] ")
    assert built[0] == "nlie"


def test_cli_keeps_no_parser_between_calls():
    """No cache in ``nlie.cli`` and no parser at module level: a process
    builds its parser once, in ``main``."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    caches = ("cache", "lru_cache", "cached_property")
    cached = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Global)
              or isinstance(node, ast.Name) and node.id in caches
              or isinstance(node, ast.Attribute) and node.attr in caches
              or isinstance(node, ast.alias)
              and node.name.rsplit(".", 1)[-1] in caches]
    assert cached == []
    made = [node.lineno for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("ArgumentParser", "build_parser", "add_subparsers")]
    assert made == []


def _leaves(table=cli.VERBS, path=()):
    """(verb path, argument specs) of every leaf of ``table``."""
    for name, (_, *spec) in table.items():
        if isinstance(spec[0], dict):
            yield from _leaves(spec[0], path + (name,))
        else:
            yield path + (name,), spec[1:]


_INT_VALUES = ["0", "2", "3", "+3", "1_0", " 5", "-1", "", "x", "2.5"]
_TEXT_VALUES = ["a.json", "p.json", " 5", "x=y", "check", "", "json"]
_HOSTILE = ["-h", "--help", "--", "-", "--format=json", "--deg", "-1", "+3",
            "1_0", " 5", "", "--trace", "--bogus", "x"]


def _draw_argv(rng, leaves):
    """One argv from the ``VERBS`` grammar: flags before the verb, the
    verb path, positionals and flags in any order after it, each value
    drawn from good and bad ones; half of them then take a hostile edit."""
    path, args = rng.choice(leaves)

    def value(options):
        pool = _INT_VALUES if "type" in options else _TEXT_VALUES
        choices = list(options.get("choices", ()))
        return rng.choice(choices * 3 + ["xml"] if choices else pool)

    def flags(specs, odds):
        return [[names[0]] if "action" in options
                else [names[0], value(options)]
                for names, options in specs
                if rng.random() < (0.9 if options.get("required") else odds)]

    before = flags(cli._SHARED_FLAGS + (cli._TRACE,), 0.3)
    after = flags(cli._SHARED_FLAGS + tuple(
        spec for spec in args if spec[0][0].startswith("-")), 0.3)
    rng.shuffle(before)
    units = [[value(options)] for names, options in args
             if not names[0].startswith("-")]
    for unit in after:
        units.insert(rng.randint(0, len(units)), unit)
    argv = [t for unit in before for t in unit] + list(path) + \
        [t for unit in units for t in unit]
    edit = rng.random()
    at = rng.randint(0, len(argv))
    if edit < 0.15:
        argv.insert(at, rng.choice(_HOSTILE))
    elif edit < 0.25 and argv:
        argv[min(at, len(argv) - 1)] = rng.choice(_HOSTILE)
    elif edit < 0.35 and argv:
        del argv[min(at, len(argv) - 1)]
    elif edit < 0.45 and argv:
        argv.insert(at, argv[min(at, len(argv) - 1)])
    elif edit < 0.5 and len(path) == 2:
        # a flag between a group and its subverb
        i = argv.index(path[0]) + 1
        argv[i:i] = rng.choice([["--seed", "3"], ["--format", "json"],
                                ["--trace"]])
    return argv


def test_quick_parse_matches_argparse():
    """On 20,000 seeded argv, grammatical and hostile, every namespace the
    quick path returns is the one argparse returns; what it declines goes
    to argparse unchanged.  Both sides are hit often enough to count.

    The quick path reads ``type``, ``choices``, ``default``, ``required``,
    ``action="store_true"`` and ``help``: a spec with any other option, a
    second name, a type other than ``int`` or a string default for an
    ``int`` (argparse converts it) fails here instead of being parsed
    wrongly."""
    known = {"type", "choices", "default", "required", "action", "help"}
    specs = [cli._TRACE, *cli._SHARED_FLAGS,
             *(spec for _, args in _leaves() for spec in args)]
    for names, options in specs:
        assert len(names) == 1 and set(options) <= known, names
        assert options.get("action", "store_true") == "store_true", names
        assert options.get("type", int) is int, names
        default = options.get("default")
        assert "type" not in options or default is argparse.SUPPRESS \
            or not isinstance(default, str), names
    rng = random.Random(44)
    leaves = list(_leaves())
    # parse_args leaves its parser as it was, so one serves every argv
    parser = cli.build_parser()
    accepted = declined = 0
    for _ in range(20_000):
        argv = _draw_argv(rng, leaves)
        quick = cli._quick_parse(argv)
        if quick is None:
            declined += 1
            continue
        accepted += 1
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                full = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"quick path accepts {argv!r}, argparse "
                            f"refuses it: {err.getvalue()}")
        assert vars(quick) == vars(full), argv
    assert accepted >= 3_000 and declined >= 3_000, (accepted, declined)


def test_well_formed_argv_takes_the_quick_path(capsys, monkeypatch,
                                               tmp_path, eps, sl2_file):
    """Every leaf argv, every golden argv and every placement of the
    shared flags is parsed without argparse, to argparse's namespace; and
    ``main()`` reads ``sys.argv`` as ``main(argv)`` reads its list."""
    flags = ["--format", "json", "--seed", "9", "--threads", "2"]
    argvs = [argv for verb, _ in LEAF_VERBS
             for argv in (verb, flags + verb, verb + flags,
                          ["--trace"] + flags + verb)]
    argvs += [_golden_argv(tmp_path, eps, sl2_file, name)[1]
              for name in sorted(GOLDEN_STDOUT)]
    for argv in argvs:
        quick = cli._quick_parse(argv)
        assert quick is not None, argv
        assert quick == cli.build_parser().parse_args(argv), argv
    listed = run(capsys, "check", eps)
    monkeypatch.setattr(sys, "argv", ["nlie", "check", eps])
    assert (main(), capsys.readouterr().out) == listed[:2]


def _lifted_semidirect(tmp_path, name, tmap):
    """The adjoint semidirect product of the Levi-Civita bracket and the
    strictly upper-triangular lift of T: Q^4 -> Q^4, as two input files."""
    from nlie.algebra import adjoint_representation, semidirect_product

    lc = levi_civita_bracket()
    sd = semidirect_product(lc, adjoint_representation(lc))
    rows = [[0] * 8 for _ in range(8)]
    for i in range(4):
        rows[i][4:] = tmap[i]
    return (write(tmp_path, "sd.json", algebra_to_json(sd)),
            write(tmp_path, name, matrix_to_json(Matrix.from_rows(rows))))


# sha256 of stdout with the temporary directory written as "TMP".  Pinned
# so that refactors of the evaluation kernels keep every byte of output.
GOLDEN_STDOUT = {
    "check":
        "91bc0baed647a1382ce95963807915d70f19d9884f7667dda3aeba8bd5a163a0",
    "cohomology-2":
        "daa55a9c6474072b4aef280394638404e37a8f1612f10de406c510f0ee3cb905",
    "cohomology-1-json":
        "9ef4020b683eb8ca0deb48f12f2add26cd5a4afed272d14ac6690a452701d786",
    "nijenhuis-lift-holds":
        "8cce28952139cb600d67b0c690656016d60d3bfee510e440a4ed47014eecefa0",
    "nijenhuis-lift-fails":
        "1ac952b7091c7a7eb6b867a27c6e8f7d3226df25c4d9a91dee45fe1ddee5069a",
    "nijenhuis-path":
        "942db7cde42a07ab3607fb25ffc774ce06a86225565eb83cf1f2a050204b085b",
    "rigidity-sl2":
        "750233569077b2b96378878db359b093cd35bc7be27ecea27b42c90f0d549e90",
    "rigidity-lc":
        "edf7a14fb3270ac48d797a933a076b18c94f149cd1624de49b25db8a66045180",
    "example-fc":
        "b931c303eb6a76886af4714c1881b8af67a5fbc54532d67fc2b9bc9c625d8e9e",
    "algebroid-check-topform":
        "3c1555bd73734c9db108e855f5366ab117f78801a37d3fdb7d3de7bcef3df1a7",
    "algebroid-check-anchor-json":
        "ad66bdd24c05f64686626b46e6476d617916ed2967b914b2e351453aa59675c1",
    "algebroid-check-weighted-fi-json":
        "6c3092bc27dcecb0f9f1dc4981e9269d9f49552071c1c4fe6c8ec8645035a802",
    "example-topform":
        "d08871a6699dfb275fa7032d70851c57c6dcf8a8b376123ebcee97d9ec1da6e2",
    "check-fails":
        "e8db555763aa104ba93fd46f423f76bbdd9cac3be0675770269b6eeb776d84be",
    "check-fails-json":
        "50833d3c5747db55f1f138886ccd61397e258c2be9593495e814a52074d638e0",
    "nijenhuis-lift-fails-json":
        "9c8a4ccc4d18eae4f144c0a7c0cbafab0f964b4bf3d2cd8a8cfb0ee275ea77dc",
    "deform-check-truncated":
        "a9056dcc1c4e7fa0ca71f72270049c92ce480d47bc46ac8d2147cf05d35d0391",
    "deform-check-full-json":
        "c4793a4e56a2d21f9b337fde913c89ea7fc226aa558e1b9f53206c15d8df4f78",
    "deform-equiv-holds":
        "04fbc9598cc1e5573206c57e80229b5dd16b884639f62d20dd90fbba4a95473c",
    "deform-equiv-fails":
        "ed49834ea51c7bc00a54c5f551ca80426ae514f37ea922274c230f9a9e78d4d5",
    "deform-extend":
        "f1c4c552b4a283ee27c86b8f0425a8eef58ffaedc92b286120aac53a75674e9f",
    "deform-extend-obstructed":
        "942fc2aec040fe681c36d9ca5fa9a1ccb481f03a8f33f266334ff88507352dce",
    "obstruction":
        "ac1900f009a995cb0a9b168ab3d802f4ab15f1dab06b6d8f31e91f0a527541b0",
    "reduce-lie-sl2":
        "7025b95578491a1f85476f70c7781c9026a3b259750cdf0cec90b22f76d4ed19",
}


def _golden_argv(tmp_path, eps, sl2_file, name):
    """Expected exit code and argv of the golden run ``name``."""
    u, v = (1, -1, 2, 1), (1, 2, -1, 1)
    sd, good = _lifted_semidirect(tmp_path, "good.json",
                                  [[a * b for b in v] for a in u])
    _, bad = _lifted_semidirect(tmp_path, "bad.json",
                                [[1, 2, -1, 1], [2, -1, 1, 1],
                                 [-1, 1, 2, 2], [1, 1, -2, 1]])
    diag = write(tmp_path, "diag.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    top = write(tmp_path, "top.json",
                algebroid_to_json(example_tangent_topform(5, 3)))
    # noncommuting anchor fields over a zero bracket: axiom (a) fails
    anchor_bad = write(tmp_path, "anchor.json", algebroid_to_json(
        make_poly_algebroid(1, 2, 2, {},
                            {(0,): vf_coordinate(1, 0),
                             (1,): make_section(1, 1, (poly_var(1, 0),))})))
    # [e0, e1, e2] = e0 with a(e1, e3) = d/dx0: the identity fails only
    # once a slot carries a polynomial weight
    weighted = write(tmp_path, "weighted.json", algebroid_to_json(
        make_poly_algebroid(1, 4, 3, {(0, 1, 2): (poly_const(1, 1),) + (
            poly_const(1, 0),) * 3}, {(1, 3): vf_coordinate(1, 0)})))
    broken = write(tmp_path, "broken.json",
                   algebra_to_json(broken_ternary_bracket()))
    # the zero bracket on Q^3 with one quadratic term: truncated holds,
    # full fails at power 2, and extension is obstructed
    zero_path = write(tmp_path, "zero-path.json", path_to_json(
        make_deformation_path(zero_algebra(3, 2), [make_cochain(
            2, 3, 1, {((), (0, 1)): (0, 0, 1), ((), (1, 2)): (0, 1, 0)})])))
    lc = levi_civita_bracket()
    nmat = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 2]])
    lifted = write(tmp_path, "lifted.json",
                   path_to_json(deformation_from_nijenhuis(lc, nmat)))
    const = write(tmp_path, "const.json",
                  path_to_json(constant_path(lc, 2)))
    emap = write(tmp_path, "emap.json",
                 emap_to_json(make_equivalence_map(4, 2, [nmat]), 4))
    want_code, argv = {
        "check": (0, ["check", eps]),
        "check-fails": (1, ["check", broken]),
        "check-fails-json": (1, ["--format", "json", "check", broken]),
        "nijenhuis-lift-fails-json": (1, ["nijenhuis", sd, bad,
                                          "--format", "json"]),
        "deform-check-truncated": (0, ["deform", "check", zero_path]),
        "deform-check-full-json": (1, ["--format", "json", "deform",
                                       "check", zero_path, "--mode",
                                       "full"]),
        "deform-equiv-holds": (0, ["deform", "equiv", const, lifted, emap]),
        "deform-equiv-fails": (1, ["deform", "equiv", lifted, const, emap]),
        "deform-extend": (0, ["deform", "extend", lifted]),
        "deform-extend-obstructed": (1, ["deform", "extend", zero_path]),
        "obstruction": (0, ["obstruction", zero_path]),
        "reduce-lie-sl2": (0, ["reduce-lie", sl2_file]),
        "cohomology-2": (0, ["cohomology", eps, "--degree", "2"]),
        "cohomology-1-json": (0, ["--format", "json", "cohomology",
                                  sl2_file, "--degree", "1"]),
        "nijenhuis-lift-holds": (0, ["nijenhuis", sd, good]),
        "nijenhuis-lift-fails": (1, ["nijenhuis", sd, bad]),
        "nijenhuis-path": (0, ["nijenhuis", eps, diag, "--generate-path"]),
        "rigidity-sl2": (0, ["--seed", "11", "deform", "rigidity", sl2_file,
                             "--trials", "4"]),
        "rigidity-lc": (0, ["--seed", "11", "deform", "rigidity", eps,
                            "--trials", "4", "--max-order", "2"]),
        "example-fc": (0, ["algebroid", "example-fc", sl2_file,
                           "--f", "x1"]),
        "algebroid-check-topform": (0, ["algebroid", "check", top,
                                        "--max-degree", "2",
                                        "--sections-degree", "2"]),
        "algebroid-check-anchor-json": (1, ["--format", "json", "algebroid",
                                            "check", anchor_bad,
                                            "--max-degree", "0"]),
        "algebroid-check-weighted-fi-json": (1, ["--format", "json",
                                                 "algebroid", "check",
                                                 weighted]),
        "example-topform": (0, ["algebroid", "example-topform", "3", "2"]),
    }[name]
    return want_code, argv


def _golden_digest(out, tmp_path):
    return hashlib.sha256(
        out.replace(str(tmp_path), "TMP").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, tmp_path, eps, sl2_file, name):
    want_code, argv = _golden_argv(tmp_path, eps, sl2_file, name)
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert _golden_digest(out, tmp_path) == GOLDEN_STDOUT[name]


def _trace_lines(err):
    """The JSON lines of a traced run's stderr (the elapsed line aside)."""
    lines = [line for line in err.splitlines()
             if not line.startswith("elapsed: ")]
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout_traced(capsys, tmp_path, eps, sl2_file, name):
    # --trace writes to stderr only: same stdout, same exit code
    want_code, argv = _golden_argv(tmp_path, eps, sl2_file, name)
    code, out, err = run(capsys, "--trace", *argv)
    assert code == want_code
    assert _golden_digest(out, tmp_path) == GOLDEN_STDOUT[name]
    lines = _trace_lines(err)
    spans = [line for line in lines if "span" in line]
    assert (spans[-1]["span"], spans[-1]["depth"]) == ("cli.main", 0)
    summary = {line["summary"]: line for line in lines if "summary" in line}
    assert summary["cli.main"]["calls"] == 1


def test_trace_counters_repeat(capsys, tmp_path, sl2_file, eps):
    def counters(*argv):
        _, _, err = run(capsys, "--trace", *argv)
        return [(line["summary"], line["calls"], line["counters"])
                for line in _trace_lines(err) if "summary" in line]

    diag = write(tmp_path, "diag.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    names = set()
    runs = []
    for argv in (["--seed", "11", "deform", "rigidity", sl2_file,
                  "--trials", "4"],
                 ["--seed", "11", "nijenhuis", eps, diag, "--generate-path"],
                 ["cohomology", eps, "--degree", "2"]):
        first = counters(*argv)
        assert first == counters(*argv)
        names |= {name for name, _, _ in first}
        runs.append(first)
    assert {"cli.main", "io.load", "cli.render",
            "cohomology.differential_matrix", "linalg.rank_nullspace",
            "deformations.rigidity_probe", "deformations.conjugate_path",
            "deformations.check_nijenhuis",
            "deformations.nijenhuis_bracket"} <= names
    # the rigidity probe still eliminates d_2 over Q for its cocycles
    rank = next(c for name, _, c in runs[0]
                if name == "linalg.rank_nullspace")
    assert rank["rows"] > 0 and rank["nnz"] > 0 and "rank" in rank
    # the sampled elimination's work: rows eliminated and rounds, for the
    # kernel here and the rigidity probe's factorization
    assert rank["rounds"] >= 1 and 0 < rank["sample_rows"] <= rank["rows"]
    # H^2 of Levi-Civita: rank d_1 = 10 and rank d_2 = 6 proven mod 3, in
    # two calls of the one bound routine, and by the theorem d_2·d_1 = 0,
    # with no kernel and no product multiplied out
    spans = {name: c for name, _, c in first}
    assert "linalg.rank_nullspace" not in spans
    assert "linalg.rank_mod3" not in spans
    assert spans["cohomology.report"] == {"proven": 1, "shortfall": 0}
    assert spans["linalg.rank_mod_p"] == {"max_prime": 3, "rank": 16,
                                          "rows_read": 28}
    assert next(calls for name, calls, _ in first
                if name == "linalg.rank_mod_p") == 2
    assert "cohomology.product_check" not in spans
    # the assembly of d_1 and d_2: each coordinate of psi located once
    # (4 + 24), the action lists built (9 + 12) and the multiply-adds
    # into the rows (40 + 216)
    assert spans["cochains.coboundary_rows"] == {
        "action_lists": 21, "coordinates_located": 28,
        "entries_written": 256}
    fac = next(c for name, _, c in runs[0] if name == "linalg.factor")
    assert fac["rounds"] >= 1 and 0 < fac["sample_rows"] <= fac["rows"]
    # one circle product per ordered pair: full mode on an order-2 path
    # checks powers 1..4, 2 + 3 + 2 + 1 = 8 pairs, with no graded bracket
    _, out, _ = run(capsys, "nijenhuis", eps, diag, "--generate-path")
    path = write(tmp_path, "path.json", json.loads(out))
    argv = ["deform", "check", path, "--mode", "full"]
    first = counters(*argv)
    assert first == counters(*argv)
    spans = {name: (calls, c) for name, calls, c in first}
    assert "cochains.gla_bracket" not in spans
    calls, circle = spans["cochains.circle"]
    assert calls == 8 and set(circle) == {"operands", "terms", "nonzero"}


@pytest.mark.parametrize("name,degree,ranks,betti,proven", [
    ("levi_civita_bracket", 4, (486, 90), 0, True),
    ("sl2", 4, (57, 24), 0, True),
    ("heisenberg3", 4, (42, 18), 21, False),
    ("levi_civita_bracket", 5, (2970, 486), 0, True),
    ("heisenberg3", 5, (157, 42), 44, False),
])
def test_cohomology_route_pins(capsys, tmp_path, name, degree, ranks, betti,
                               proven):
    """Betti-0 degrees are proven by the mod-p bounds and the theorem
    d_k·d_(k-1) = 0, with no rational elimination and no product check;
    Heisenberg's bounds do not meet, and ``kernel`` gives its H^4 and H^5
    (both agree with ``helpers.ref_report``)."""
    from nlie import catalog
    path = write(tmp_path, f"{name}.json",
                 algebra_to_json(getattr(catalog, name)()))
    code, out, err = run(capsys, "--trace", "cohomology", path, "--degree",
                         str(degree), "--max-degree-cap", str(degree))
    assert code == 0
    assert f"rank d_out: {ranks[0]}\nrank d_in: {ranks[1]}\n" \
           f"betti: {betti}\n" in out
    summary = {line["summary"]: line for line in _trace_lines(err)
               if "summary" in line}
    assert ("linalg.rank_nullspace" not in summary) == proven
    if not proven:
        # Heisenberg H^k: kernel(d_k) on its 3^(k+1) rows, then one
        # elimination of [L·d_(k-1) | cocycles] on 3^k rows gives both
        # rank d_(k-1) and the representatives: 243 + 81 rows at k = 4,
        # 729 + 243 at k = 5
        elim = summary["linalg.rank_nullspace"]
        assert (elim["calls"], elim["counters"]["rows"]) == \
            (2, {4: 324, 5: 972}[degree])
    assert summary["cohomology.report"]["counters"] == {
        "proven": int(proven), "shortfall": 0}
    assert "cohomology.product_check" not in summary


def test_trace_one_fi_check_per_verb(capsys, eps, sl2_file):
    # one Complex per verb: FI checked once, each d_k built and eliminated
    # once (the parent checked FI twice in each of these)
    for argv, builds in ((["cohomology", eps, "--degree", "3"], 2),
                         (["reduce-lie", sl2_file], 2),
                         (["deform", "rigidity", sl2_file, "--trials", "2"],
                          2)):
        code, _, err = run(capsys, "--trace", *argv)
        assert code == 0
        summary = {line["summary"]: line for line in _trace_lines(err)
                   if "summary" in line}
        assert summary["algebra.check_fundamental_identity"]["calls"] == 1
        for name in ("cohomology.differential_matrix",
                     "cochains.coboundary_rows"):
            assert summary[name]["calls"] == builds
    # rigidity: the kernel of d_2, and one factorization of d_1 that gives
    # its rank and serves every trial's solves
    assert summary["linalg.rank_nullspace"]["calls"] == 1
    assert summary["linalg.factor"]["calls"] == 1


def test_trace_rigidity_one_factorization_and_its_solves(capsys, tmp_path,
                                                        monkeypatch):
    # the dense Levi-Civita conjugate of the benchmark's heavy jobs
    heavy = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
    argv = ["deform", "rigidity", write(tmp_path, "heavy.json",
                                        algebra_to_json(heavy)),
            "--seed", "1"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    eliminations, solves = [], []
    real_rref, real_solve = linalg._rref, Complex.solve
    monkeypatch.setattr(linalg, "_rref", lambda *args: eliminations.append(
        args[1]) or real_rref(*args))
    monkeypatch.setattr(Complex, "solve", lambda self, k, b: solves.append(
        k) or real_solve(self, k, b))
    code, out, err = run(capsys, "--trace", *argv)
    assert code == 0
    assert out == plain
    # the kernel of d_2 and one factorization of d_1 (16 columns each);
    # eliminating [d_1 | b] per solve took 14 in all
    assert eliminations == [16, 16]
    assert len(solves) > 2 and set(solves) == {1}
    summary = {line["summary"]: line for line in _trace_lines(err)
               if "summary" in line}
    fac = summary["linalg.factor"]
    assert fac["calls"] == 1
    assert {key: fac["counters"][key] for key in ("rows", "cols", "rank")} \
        == {"rows": 16, "cols": 16, "rank": 10}
    assert fac["counters"]["nnz"] > 0
    assert summary["linalg.solve_linear"]["calls"] == len(solves)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "obstructed"])
def test_trace_extend_one_factorization_one_solve(capsys, tmp_path, flat):
    # extending a path is one solve of d_2 x = -Theta on its one
    # factorization, whether it solves or refuses with a witness
    if flat:
        path = deformation_from_nijenhuis(levi_civita_bracket(),
                                          Matrix.from_rows([[1, 0, 0, 0],
                                                            [0, 2, 0, 0],
                                                            [0, 0, 1, 0],
                                                            [0, 0, 0, 2]]))
    else:
        path = make_deformation_path(zero_algebra(3, 2), [make_cochain(
            2, 3, 1, {((), (0, 1)): (0, 0, 1), ((), (1, 2)): (0, 1, 0)})])
    argv = ["deform", "extend", write(tmp_path, "path.json",
                                      path_to_json(path))]
    code, plain, _ = run(capsys, *argv)
    assert code == (0 if flat else 1)
    traced_code, out, err = run(capsys, "--trace", *argv)
    assert (traced_code, out) == (code, plain)
    summary = {line["summary"]: line for line in _trace_lines(err)
               if "summary" in line}
    assert summary["linalg.factor"]["calls"] == 1
    solves = summary["linalg.solve_linear"]
    assert solves["calls"] == 1 and solves["counters"]["solved"] == int(flat)


def test_trace_one_fi_check_per_generated_path(capsys, eps, tmp_path):
    # the path is read off the tower the check builds: one FI check and
    # one tower (the parent ran FI twice and the tower three times)
    diag = write(tmp_path, "diag.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    argv = ["nijenhuis", eps, diag, "--generate-path"]
    code, out, err = run(capsys, "--trace", *argv)
    assert code == 0
    assert run(capsys, *argv)[1] == out
    summary = {line["summary"]: line for line in _trace_lines(err)
               if "summary" in line}
    for name in ("algebra.check_fundamental_identity",
                 "deformations.check_nijenhuis",
                 "deformations.nijenhuis_bracket"):
        assert summary[name]["calls"] == 1


def test_trace_nijenhuis_spans_nest_alike(capsys, eps, tmp_path):
    # the check and the generated path both run the fundamental identity
    # outside the one Nijenhuis span, so it reports at the same depth
    diag = write(tmp_path, "diag.json", matrix_to_json(Matrix.from_rows(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])))
    depths = []
    for extra in ([], ["--generate-path"]):
        argv = ["nijenhuis", eps, diag, *extra]
        code, out, err = run(capsys, "--trace", *argv)
        assert (code, out) == run(capsys, *argv)[:2]
        lines = _trace_lines(err)
        depths.append([line["depth"] for line in lines if line.get("span")
                       == "algebra.check_fundamental_identity"])
        summary = {line["summary"]: line for line in lines
                   if "summary" in line}
        assert summary["deformations.check_nijenhuis"]["calls"] == 1
    assert depths[0] == depths[1] == [1]


def test_each_input_read_once(capsys, eps, monkeypatch):
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    code, out, _ = run(capsys, "--format", "json", "check", eps)
    monkeypatch.undo()
    assert code == 0
    assert opened.count(eps) == 1
    digest = hashlib.sha256(pathlib.Path(eps).read_bytes()).hexdigest()
    assert json.loads(out)["inputs"] == [{"path": eps, "sha256": digest}]


def test_trace_algebroid_generator_phases(capsys, tmp_path):
    # every axiom phase reads the bracket and anchor tables, so nothing
    # calls section_bracket or anchor_eval.  The weighted phases skip the
    # frames of each pair (x', y) whose anchor factors free of the
    # weighted generator vanish: evaluated and skipped frames add up to
    # all of them, 500 and 250.  An evaluated frame looks up only the
    # partners of its pair's nonzero factors, so anchor_weighted reads
    # A(x) only where A(y') is nonzero
    top = write(tmp_path, "top.json",
                algebroid_to_json(example_tangent_topform(5, 3)))
    argv = ["--trace", "algebroid", "check", top, "--max-degree", "2",
            "--sections-degree", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv[1:])[1] == out
    summary = {line["summary"]: line for line in _trace_lines(err)
               if "summary" in line}
    assert "algebroid.section_bracket" not in summary
    assert "algebroid.anchor_eval" not in summary
    phases = {name: line["counters"] for name, line in summary.items()
              if name.startswith("algebroid.axioms.")}
    assert phases == {
        "algebroid.axioms.fi": {"frames": 50, "lookups": 60, "skipped": 0},
        "algebroid.axioms.anchor": {"frames": 100, "lookups": 0,
                                    "skipped": 0},
        "algebroid.axioms.anchor_weighted": {"frames": 125, "lookups": 65,
                                             "skipped": 375},
        "algebroid.axioms.fi_weighted": {"frames": 130, "lookups": 99,
                                         "skipped": 120}}
    _, _, again = run(capsys, *argv)
    assert [(line["summary"], line["counters"])
            for line in _trace_lines(again) if "summary" in line] == \
        [(name, line["counters"]) for name, line in summary.items()]


def test_trace_off_by_default(capsys, eps):
    _, _, err = run(capsys, "check", eps)
    assert err.splitlines()[-1].startswith("elapsed: ")
    assert len(err.splitlines()) == 1
