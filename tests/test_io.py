import json
import random
from fractions import Fraction

import pytest

from helpers import basis_wedge, rand_cochain, rand_matrix, rand_valid_algebra
from nlie.algebroid import (example_tangent_fc, example_tangent_topform,
                            make_poly_multiderivation)
from nlie.catalog import levi_civita_bracket, sl2, zero_algebra
from nlie.cochains import make_cochain
from nlie.cohomology import cohomology
from nlie.deformations import (deformation_from_nijenhuis,
                               make_deformation_path, make_equivalence_map)
from nlie.errors import DimensionMismatch
from nlie.io import (InputFormatError, algebra_from_json, algebra_to_json,
                     algebroid_from_json, algebroid_to_json,
                     cochain_from_json, cochain_to_json,
                     cohomology_report_to_json, emap_from_json, emap_to_json,
                     fraction_str, load_document, matrix_from_json,
                     matrix_to_json, parse_fraction, path_from_json,
                     path_to_json, poly_from_json, poly_to_json,
                     report_value, vector_from_json, vector_to_json,
                     wedge_to_json)
from nlie.linalg import Matrix
from nlie.poly import (make_section, poly_const, poly_from_terms, poly_var,
                       poly_zero)

F = Fraction


def test_fraction_str_and_parse():
    assert fraction_str(F(3, 4)) == "3/4"
    assert fraction_str(F(-5)) == "-5"
    assert parse_fraction("3/4", "x") == F(3, 4)
    assert parse_fraction("-7", "x") == F(-7)
    assert parse_fraction(12, "x") == F(12)
    for bad in ("3/0", "a", 1.5, True, None, []):
        with pytest.raises(InputFormatError):
            parse_fraction(bad, "x")


def test_vector_codec():
    vec = (F(0), F(1, 2), F(-3))
    doc = vector_to_json(vec)
    assert doc == {"2": "1/2", "3": "-3"}
    assert vector_from_json(doc, 3, "v") == vec
    with pytest.raises(InputFormatError):
        vector_from_json({"4": "1"}, 3, "v")
    with pytest.raises(InputFormatError):
        vector_from_json({"x": "1"}, 3, "v")
    # a component key is written as str(i) writes it, so no two keys name
    # one component and "2_0" is not read as 20
    for key in ("02", "+2", " 2", "2 ", "2_0", "\uff12", "\u0662"):
        with pytest.raises(InputFormatError) as err:
            vector_from_json({"2": "1", key: "5"}, 3, "v")
        assert err.value.location == "v"
        assert f"component key {key!r} must be written in ASCII digits" \
            in str(err.value)


def test_algebra_roundtrip_catalog():
    for alg in (levi_civita_bracket(), sl2(), zero_algebra(2, 2)):
        assert algebra_from_json(algebra_to_json(alg)) == alg


def test_algebra_roundtrip_random():
    rng = random.Random(11)
    for _ in range(10):
        alg = rand_valid_algebra(rng, levi_civita_bracket())
        assert algebra_from_json(algebra_to_json(alg)) == alg


def test_algebra_wire_is_one_based():
    doc = algebra_to_json(sl2())
    keys = [entry["on"] for entry in doc["brackets"]]
    assert keys == [[1, 2], [1, 3], [2, 3]]
    # [h,e] = 2e lands on the second basis vector
    assert doc["brackets"][0]["value"] == {"2": "2"}


def test_algebra_parse_errors():
    good = algebra_to_json(sl2())
    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["on"] = [2, 1]
    with pytest.raises(InputFormatError) as err:
        algebra_from_json(bad)
    assert "on" in err.value.location
    for mutate in (
        lambda d: d.pop("arity"),
        lambda d: d.__setitem__("dim", "three"),
        lambda d: d.__setitem__("dim", 10**30),
        lambda d: d["brackets"][0].__setitem__("on", [1, 4]),
        lambda d: d["brackets"][0].__setitem__("value", {"1": "1/0"}),
        lambda d: d.__setitem__("brackets", {}),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(InputFormatError):
            algebra_from_json(doc)


def test_algebra_duplicate_key_rejected():
    doc = algebra_to_json(sl2())
    doc["brackets"].append(dict(doc["brackets"][0]))
    with pytest.raises(InputFormatError):
        algebra_from_json(doc)


def test_cochain_roundtrip():
    rng = random.Random(5)
    for degree in (0, 1, 2):
        d = rand_cochain(rng, 3, 4, degree)
        assert cochain_from_json(cochain_to_json(d)) == d


def test_cochain_wire_shape():
    d = make_cochain(3, 4, 2, {(((0, 1),), (0, 2, 3)): (1, 0, 0, 0)})
    doc = cochain_to_json(d)
    assert doc["entries"] == [{"tensor_blocks": [[1, 2]],
                               "wedge": [1, 3, 4],
                               "value": {"1": "1"}}]
    bad = json.loads(json.dumps(doc))
    bad["entries"][0]["wedge"] = [1, 3]
    with pytest.raises(InputFormatError):
        cochain_from_json(bad)


@pytest.mark.parametrize("degree,blocks", [(0, [[1, 2]]), (1, [[1, 2]]),
                                           (2, []), (3, [[1, 2]])])
def test_cochain_block_count_checked_at_the_blocks(degree, blocks):
    """A degree-p entry has max(p - 1, 0) tensor blocks; another count is
    reported at the blocks."""
    doc = {"arity": 3, "dim": 4, "degree": degree, "entries": [
        {"tensor_blocks": blocks, "wedge": [1, 3, 4], "value": {"1": "1"}}]}
    with pytest.raises(InputFormatError) as err:
        cochain_from_json(doc, "doc")
    assert err.value.location == "doc.entries[0].tensor_blocks"
    assert str(err.value).endswith(
        f"expected {max(degree - 1, 0)} tensor blocks at degree {degree}, "
        f"got {len(blocks)}")


_KEYED_DOCS = {
    "algebra": (algebra_from_json, lambda: algebra_to_json(sl2()),
                ("brackets", 0, "on")),
    "cochain block": (
        cochain_from_json,
        lambda: cochain_to_json(make_cochain(
            3, 4, 2, {(((0, 1),), (0, 2, 3)): (1, 0, 0, 0)})),
        ("entries", 0, "tensor_blocks", 0)),
    "cochain wedge": (
        cochain_from_json,
        lambda: cochain_to_json(make_cochain(
            3, 4, 2, {(((0, 1),), (0, 2, 3)): (1, 0, 0, 0)})),
        ("entries", 0, "wedge")),
    "path term wedge": (
        path_from_json,
        lambda: path_to_json(deformation_from_nijenhuis(
            sl2(), Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))),
        ("terms", 0, "entries", 0, "wedge")),
    "algebroid bracket": (
        algebroid_from_json,
        lambda: algebroid_to_json(example_tangent_fc(
            levi_civita_bracket(), poly_var(4, 0))),
        ("brackets", 0, "on")),
    "algebroid anchor": (
        algebroid_from_json,
        lambda: algebroid_to_json(example_tangent_topform(3, 2)),
        ("anchor", 0, "on")),
}


@pytest.mark.parametrize("name", sorted(_KEYED_DOCS))
def test_key_order_checked_where_the_key_is_read(name):
    """Every keyed part of a document reports an unsorted key, and one of
    the wrong length, at the key itself, 1-based."""
    parse, build, path = _KEYED_DOCS[name]
    parse(build())
    *parent, last = path

    def holder(doc):
        for step in parent:
            doc = doc[step]
        return doc

    good = holder(build())[last]
    for key in (good[::-1], good[:-1], good + [good[-1] + 1]):
        doc = build()
        holder(doc)[last] = key
        with pytest.raises(InputFormatError) as err:
            parse(doc, "doc")
        assert err.value.location == "doc" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        assert str(err.value).endswith(
            f"key {key} must be strictly increasing" if len(key) == len(good)
            else f"key must have {len(good)} indices, not {len(key)}")


def test_matrix_codec():
    rng = random.Random(7)
    mat = rand_matrix(rng, 3, 2)
    assert matrix_from_json(matrix_to_json(mat)) == mat
    with pytest.raises(InputFormatError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InputFormatError):
        matrix_from_json([])


def test_path_roundtrip_and_order_check():
    alg = levi_civita_bracket()
    nmat = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 2]])
    path = deformation_from_nijenhuis(alg, nmat)
    doc = path_to_json(path)
    assert path_from_json(doc) == path
    doc["order"] = 5
    with pytest.raises(InputFormatError):
        path_from_json(doc)


def test_path_terms_must_match_base():
    doc = path_to_json(make_deformation_path(sl2(), []))
    doc["order"] = 1
    doc["terms"] = [cochain_to_json(make_cochain(3, 3, 1, {}))]
    with pytest.raises(InputFormatError):
        path_from_json(doc)


def test_emap_roundtrip():
    rng = random.Random(9)
    maps = [rand_matrix(rng, 3, 3) for _ in range(2)]
    emap = make_equivalence_map(3, 2, maps)
    doc = emap_to_json(emap, 3)
    assert emap_from_json(doc) == emap
    empty = emap_from_json({"order": 2, "dim": 3, "maps": []})
    assert empty.maps == ()
    with pytest.raises(InputFormatError):
        emap_from_json({"order": 2, "maps": []})


def test_poly_codec():
    p = poly_from_terms(2, {(0, 0): F(1, 3), (2, 1): F(-2)})
    doc = poly_to_json(p)
    assert doc == [{"exponents": [0, 0], "coeff": "1/3"},
                   {"exponents": [2, 1], "coeff": "-2"}]
    assert poly_from_json(doc, 2) == p
    assert poly_from_json([], 2).is_zero
    merged = poly_from_json(doc + doc, 2)
    assert merged == p + p
    with pytest.raises(InputFormatError):
        poly_from_json([{"exponents": [1], "coeff": "1"}], 2)
    with pytest.raises(InputFormatError):
        poly_from_json([{"exponents": [1, -1], "coeff": "1"}], 2)


def test_algebroid_roundtrip():
    f = poly_var(3, 0) * poly_var(3, 0)
    for abd in (example_tangent_fc(sl2(), f),
                example_tangent_fc(sl2(), poly_const(3, 0)),
                example_tangent_topform(3, 2)):
        doc = algebroid_to_json(abd)
        assert algebroid_from_json(doc) == abd
        assert algebroid_to_json(algebroid_from_json(doc)) == doc


def test_algebroid_to_json_refuses_degree_zero():
    """A degree-0 multiderivation is not an algebroid: writing it would give
    a document that ``algebroid_from_json`` rejects, so it is refused."""
    vf = make_section(1, 1, (poly_var(1, 0),))
    md = make_poly_multiderivation(1, 2, 2, 0, {(1,): [poly_const(1, 1),
                                                      poly_zero(1)]},
                                   {(): vf})
    with pytest.raises(DimensionMismatch, match="degree-1"):
        algebroid_to_json(md)


def test_algebroid_parse_errors():
    doc = algebroid_to_json(example_tangent_topform(3, 2))
    bad = json.loads(json.dumps(doc))
    bad["anchor"][0]["field"] = bad["anchor"][0]["field"][:2]
    with pytest.raises(InputFormatError):
        algebroid_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["brackets"] = [{"on": [1, 2, 3], "value": "no"}]
    with pytest.raises(InputFormatError):
        algebroid_from_json(bad)


def test_cohomology_report_json():
    report = cohomology(zero_algebra(2, 2), 0)
    doc = cohomology_report_to_json(report)
    assert doc["betti"] == report.betti
    assert len(doc["representatives"]) == report.betti
    # degree 0 classes are wedge elements
    assert all("coords" in r for r in doc["representatives"])
    report2 = cohomology(sl2(), 1)
    doc2 = cohomology_report_to_json(report2)
    assert doc2["betti"] == 0
    assert doc2["representatives"] == []


def test_report_value_walks_structures():
    w = basis_wedge(2, 4, (0, 2))
    payload = {
        "tuple": (0, 1, 2),
        "lhs": (F(1, 2), F(0)),
        "poly": poly_var(2, 1),
        "wedge": w,
        "mat": Matrix.identity(2),
        "flag": True,
    }
    out = report_value(payload)
    assert out["tuple"] == [0, 1, 2]
    assert out["lhs"] == ["1/2", "0"]
    assert out["poly"] == [{"exponents": [0, 1], "coeff": "1"}]
    assert out["wedge"]["coords"] == [{"on": [1, 3], "coeff": "1"}]
    assert out["mat"] == [["1", "0"], ["0", "1"]]
    assert out["flag"] is True
    json.dumps(out)


def test_load_document_errors(tmp_path):
    target = tmp_path / "alg.json"
    target.write_text('{"arity": 2,')
    with pytest.raises(InputFormatError) as err:
        load_document(str(target))
    assert "line 1" in err.value.location
    with pytest.raises(InputFormatError):
        load_document(str(tmp_path / "missing.json"))
    target.write_text(json.dumps(algebra_to_json(sl2())))
    assert algebra_from_json(load_document(str(target))) == sl2()


@pytest.mark.parametrize("data,offset,reason", [
    (b'\xff\xfe{"arity": 3}', 0, "invalid start byte"),
    (b'{"arity": "\xc3\x28"}', 11, "invalid continuation byte"),
])
def test_load_document_rejects_non_utf8(tmp_path, data, offset, reason):
    target = tmp_path / "alg.json"
    target.write_bytes(data)
    with pytest.raises(InputFormatError) as err:
        load_document(str(target))
    assert err.value.location == str(target)
    assert str(err.value) == (f"{target}: not UTF-8: {reason} at byte "
                              f"offset {offset}")


def test_wedge_to_json_shape():
    w = basis_wedge(2, 4, (1, 3))
    assert wedge_to_json(w) == {
        "grade": 2, "dim": 4,
        "coords": [{"on": [2, 4], "coeff": "1"}],
    }
