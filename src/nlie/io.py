"""JSON wire formats for every object the command line reads or writes.

Conventions, fixed once here so all documents agree:

* basis indices are 1-based on the wire and 0-based in memory;
* rationals serialize as strings "p/q", or just "p" when the denominator
  is 1; plain JSON integers are accepted on input, floats are not;
* coefficient vectors serialize sparsely as objects mapping the 1-based
  component index to a rational; the index is written canonically, as
  ``str(i)`` writes it (ASCII digits with no sign, padding, separator or
  leading zero), so two keys never name one component;
* an entry keyed by a basis tuple carries it as ``"on"``: the number of
  1-based indices its part requires, strictly increasing.
  ``_write_keyed`` writes and ``_read_keyed`` reads every such part, and
  the reader checks the count, range, order and repeats of each key at
  the key itself;
* polynomials serialize as term lists [{"exponents": [..], "coeff": "p/q"}]
  with one exponent per variable;
* a section of rank r serializes as its list of r polynomials; a vector
  field on R^m, such as an anchor value, is a section of rank m and is
  read through ``poly.make_section`` like any other;
* matrices serialize as dense row lists of rationals;
* an object repeats no member name (``_members``), so no value is
  silently dropped for a later one of the same name;
* integers are kept within the interpreter's limit for int/str conversion
  (``sys.get_int_max_str_digits()``, 4300 digits by default), which is not
  raised: a longer input literal is an input error, and a result that
  needs a longer one raises ``OutputTooLarge`` before anything is printed.

Parsers raise ``InputFormatError`` carrying the path to the offending
field, so the command line can report the location and exit with the
input-error code instead of a traceback.  No verb calls
``load_document``: it is library API.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .algebra import Key, NLieAlgebra, WedgeElement, make_algebra
from .algebroid import (PolyMultiderivation, _check_algebroid,
                        make_poly_algebroid)
from .cochains import Cochain, CochainKey, make_cochain
from .cohomology import CohomologyReport
from .deformations import (DeformationPath, EquivalenceMap,
                           make_deformation_path, make_equivalence_map)
from .errors import DimensionMismatch, OutputTooLarge
from .linalg import Matrix, Vector
from .poly import MultiPoly, PolySection, make_section, poly_from_terms
from .trace import traced


class InputFormatError(ValueError):
    """Malformed input document; ``location`` names the offending field."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


def load_document(path: str) -> Any:
    """The JSON document in the file at ``path``."""
    return read_document(path)[1]


@traced("io.load", lambda args, loaded: {"bytes": len(loaded[0])})
def read_document(path: str) -> tuple[bytes, Any]:
    """The bytes of the file at ``path`` and the JSON document they hold,
    from one read, so a digest of the bytes is of the document parsed."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(str(exc), location=path)
    try:
        # JSON exchanged between systems is UTF-8 (RFC 8259)
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8: {exc.reason} at byte offset "
                               f"{exc.start}", location=path)
    try:
        return data, json.loads(text, object_pairs_hook=_members)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON: {exc.msg}",
            location=f"{path}: line {exc.lineno} column {exc.colno}")
    except InputFormatError as exc:
        # a repeated member name, from ``_members``
        raise InputFormatError(str(exc), location=path) from None
    except RecursionError:
        raise InputFormatError("JSON nested too deeply", location=path)
    except ValueError:
        # json parses integer literals with int(), which refuses literals
        # longer than the interpreter's digit limit
        raise InputFormatError(
            f"integer literal longer than {sys.get_int_max_str_digits()} "
            "digits", location=path)


def _members(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object; a repeated member name is an input error, where
    ``json`` alone would keep the last of its values."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        name = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputFormatError(f"repeated member name {_clip(name)}")
    return obj


def fraction_str(c: Fraction) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else \
            f"{c.numerator}/{c.denominator}"
    except ValueError:
        raise OutputTooLarge(
            "output needs a rational with more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's "
            "limit for int/str conversion") from None


def _clip(text: str) -> str:
    """An input literal short enough to echo in an error message."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def parse_fraction(value: Any, where: str) -> Fraction:
    # bool is an int subclass; reject it before the int branch.
    if isinstance(value, bool):
        raise InputFormatError("expected a rational, got a boolean", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(f"cannot parse rational {_clip(value)}",
                                   where)
    raise InputFormatError(
        f"expected a rational string or integer, got {type(value).__name__}",
        where)


def _expect_object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise InputFormatError(
            f"expected an object, got {type(obj).__name__}", where)
    return obj


def _expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise InputFormatError(
            f"expected a list, got {type(obj).__name__}", where)
    return obj


def _field(obj: dict, name: str, where: str) -> Any:
    if name not in obj:
        raise InputFormatError(f"missing field {name!r}", where)
    return obj[name]


def _items(doc: dict, name: str, where: str):
    """(location, object) for each entry of the list field ``name``."""
    items = _expect_list(_field(doc, name, where), f"{where}.{name}")
    for t, entry in enumerate(items):
        here = f"{where}.{name}[{t}]"
        yield here, _expect_object(entry, here)


def _int_field(obj: dict, name: str, where: str) -> int:
    value = _field(obj, name, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"field {name!r} must be an integer", where)
    # sizes and degrees index Python sequences, which cap at sys.maxsize
    if abs(value) > sys.maxsize:
        raise InputFormatError(f"field {name!r} is out of range", where)
    return value


def _index(value: Any, bound: int, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError("indices must be integers", where)
    if not 1 <= value <= bound:
        raise InputFormatError(
            f"index {value} out of range 1..{bound}", where)
    return value - 1


def _key(value: Any, length: int, bound: int, where: str) -> Key:
    """A list of ``length`` strictly increasing 1-based indices in
    1..bound, as a 0-based key: the one key check of every keyed part."""
    items = _expect_list(value, where)
    # the count is checked first, so no error line echoes a long list
    if len(items) != length:
        raise InputFormatError(
            f"key must have {length} indices, not {len(items)}", where)
    key = tuple(_index(v, bound, f"{where}[{t}]")
                for t, v in enumerate(items))
    if any(a >= b for a, b in zip(key, key[1:])):
        raise InputFormatError(
            f"key {items} must be strictly increasing", where)
    return key


def vector_to_json(vec: Vector) -> dict[str, str]:
    return {str(i + 1): fraction_str(c)
            for i, c in enumerate(vec) if c != 0}


def vector_from_json(obj: Any, dim: int, where: str) -> tuple[Fraction, ...]:
    table = _expect_object(obj, where)
    out = [Fraction(0)] * dim
    for raw_key, raw_val in table.items():
        try:
            component = int(raw_key)
        except ValueError:
            raise InputFormatError(
                f"component key {_clip(raw_key)} is not an integer", where)
        if str(component) != raw_key:
            raise InputFormatError(
                f"component key {_clip(raw_key)} must be written in ASCII "
                "digits with no sign, padding, separator or leading zero",
                where)
        i = _index(component, dim, where)
        out[i] = parse_fraction(raw_val, f"{where}.{raw_key}")
    return tuple(out)


def _wrap(ctor, where: str):
    """Run a library constructor, converting its validation failures into
    located input errors."""
    try:
        return ctor()
    except (DimensionMismatch, ValueError) as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(str(exc), where)


def _write_keyed(table: Mapping[Key, Any], write) -> list[dict]:
    """The entries of a keyed part: each key of ``table`` as ``"on"``,
    1-based, then the fields ``write`` makes of its value, by key."""
    return [{"on": [i + 1 for i in key], **write(value)}
            for key, value in sorted(table.items())]


def _read_keyed(doc: dict, name: str, length: int, bound: int, where: str,
                what: str, read) -> dict:
    """The keyed part ``name`` of ``doc`` as a table: ``read(item, here)``
    by the key each entry carries as ``"on"``, checked by ``_key`` and
    refused on a repeat, both at the key itself."""
    table = {}
    for here, item in _items(doc, name, where):
        key = _key(_field(item, "on", here), length, bound, f"{here}.on")
        if key in table:
            raise InputFormatError(f"duplicate {what} key", f"{here}.on")
        table[key] = read(item, here)
    return table


# ---------------------------------------------------------------- algebras

def algebra_to_json(alg: NLieAlgebra) -> dict:
    return {
        "arity": alg.arity,
        "dim": alg.dim,
        "brackets": _write_keyed(
            alg.structure, lambda vec: {"value": vector_to_json(vec)}),
    }


def algebra_from_json(obj: Any, where: str = "algebra") -> NLieAlgebra:
    doc = _expect_object(obj, where)
    arity = _int_field(doc, "arity", where)
    dim = _int_field(doc, "dim", where)
    if arity < 2 or dim < 1:
        raise InputFormatError("need arity >= 2 and dim >= 1", where)
    brackets = _read_keyed(
        doc, "brackets", arity, dim, where, "bracket",
        lambda item, here: vector_from_json(
            _field(item, "value", here), dim, f"{here}.value"))
    return _wrap(lambda: make_algebra(arity, dim, brackets), where)


# ---------------------------------------------------------------- cochains

def cochain_to_json(d: Cochain) -> dict:
    entries = []
    for (blocks, last), vec in sorted(d.entries.items()):
        entries.append({
            "tensor_blocks": [[i + 1 for i in b] for b in blocks],
            "wedge": [i + 1 for i in last],
            "value": vector_to_json(vec),
        })
    return {"arity": d.arity, "dim": d.dim, "degree": d.degree,
            "entries": entries}


def cochain_from_json(obj: Any, where: str = "cochain") -> Cochain:
    doc = _expect_object(obj, where)
    arity = _int_field(doc, "arity", where)
    dim = _int_field(doc, "dim", where)
    degree = _int_field(doc, "degree", where)
    if arity < 2 or dim < 1 or degree < 0:
        raise InputFormatError(
            "need arity >= 2, dim >= 1 and degree >= 0", where)
    table: dict[CochainKey, tuple[Fraction, ...]] = {}
    count = max(degree - 1, 0)
    for here, item in _items(doc, "entries", where):
        raw_blocks = _expect_list(_field(item, "tensor_blocks", here),
                                  f"{here}.tensor_blocks")
        if len(raw_blocks) != count:
            raise InputFormatError(
                f"expected {count} tensor blocks at degree {degree}, got "
                f"{len(raw_blocks)}", f"{here}.tensor_blocks")
        blocks = tuple(
            _key(b, arity - 1, dim, f"{here}.tensor_blocks[{s}]")
            for s, b in enumerate(raw_blocks))
        last = _key(_field(item, "wedge", here), arity if degree else 1, dim,
                    f"{here}.wedge")
        if (blocks, last) in table:
            raise InputFormatError("duplicate cochain key", here)
        table[(blocks, last)] = vector_from_json(
            _field(item, "value", here), dim, f"{here}.value")
    return _wrap(lambda: make_cochain(arity, dim, degree, table), where)


# ---------------------------------------------------------------- matrices

def matrix_to_json(mat: Matrix) -> list[list[str]]:
    return [[fraction_str(c) for c in row] for row in mat.entries]


def matrix_from_json(obj: Any, where: str = "matrix") -> Matrix:
    rows = _expect_list(obj, where)
    if not rows:
        raise InputFormatError("matrix needs at least one row", where)
    parsed = []
    for r, row in enumerate(rows):
        items = _expect_list(row, f"{where}[{r}]")
        if len(items) != len(_expect_list(rows[0], where)):
            raise InputFormatError("ragged matrix rows", f"{where}[{r}]")
        parsed.append([parse_fraction(v, f"{where}[{r}][{s}]")
                       for s, v in enumerate(items)])
    return Matrix.from_rows(parsed)


def wedge_to_json(w: WedgeElement) -> dict:
    return {
        "grade": w.grade,
        "dim": w.dim,
        "coords": _write_keyed(
            w.coords, lambda c: {"coeff": fraction_str(c)}),
    }


# ------------------------------------------------------- deformation paths

def path_to_json(path: DeformationPath) -> dict:
    return {
        "base": algebra_to_json(path.base),
        "order": path.order,
        "terms": [cochain_to_json(term) for term in path.terms],
    }


def path_from_json(obj: Any, where: str = "path") -> DeformationPath:
    doc = _expect_object(obj, where)
    base = algebra_from_json(_field(doc, "base", where), f"{where}.base")
    order = _int_field(doc, "order", where)
    raw_terms = _expect_list(_field(doc, "terms", where), f"{where}.terms")
    if order != len(raw_terms):
        raise InputFormatError(
            f"order {order} does not match {len(raw_terms)} terms",
            f"{where}.order")
    terms = [cochain_from_json(t, f"{where}.terms[{s}]")
             for s, t in enumerate(raw_terms)]
    return _wrap(lambda: make_deformation_path(base, terms), where)


def emap_to_json(emap: EquivalenceMap, dim: int) -> dict:
    return {
        "order": emap.order,
        "dim": dim,
        "maps": [matrix_to_json(mat) for mat in emap.maps],
    }


def emap_from_json(obj: Any, where: str = "equivalence") -> EquivalenceMap:
    doc = _expect_object(obj, where)
    order = _int_field(doc, "order", where)
    raw_maps = _expect_list(_field(doc, "maps", where), f"{where}.maps")
    maps = [matrix_from_json(m, f"{where}.maps[{s}]")
            for s, m in enumerate(raw_maps)]
    if maps:
        dim = maps[0].rows
    elif "dim" in doc:
        dim = _int_field(doc, "dim", where)
    else:
        raise InputFormatError(
            "cannot infer the dimension: give at least one map or a "
            "'dim' field", where)
    return _wrap(lambda: make_equivalence_map(dim, order, maps), where)


# -------------------------------------------------------------- algebroids

def poly_to_json(p: MultiPoly) -> list[dict]:
    return [{"exponents": list(exps), "coeff": fraction_str(c)}
            for exps, c in p.sorted_terms()]


def poly_from_json(obj: Any, num_vars: int, where: str = "poly") -> MultiPoly:
    items = _expect_list(obj, where)
    terms: dict[tuple[int, ...], Fraction] = {}
    for t, entry in enumerate(items):
        here = f"{where}[{t}]"
        item = _expect_object(entry, here)
        raw = _expect_list(_field(item, "exponents", here),
                           f"{here}.exponents")
        if len(raw) != num_vars:
            raise InputFormatError(
                f"expected {num_vars} exponents, got {len(raw)}",
                f"{here}.exponents")
        exps = []
        for s, e in enumerate(raw):
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise InputFormatError("exponents must be integers >= 0",
                                       f"{here}.exponents[{s}]")
            exps.append(e)
        key = tuple(exps)
        coeff = parse_fraction(_field(item, "coeff", here), f"{here}.coeff")
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return poly_from_terms(num_vars, terms)


def _poly_list_from_json(obj: Any, count: int, num_vars: int,
                         where: str) -> tuple[MultiPoly, ...]:
    items = _expect_list(obj, where)
    if len(items) != count:
        raise InputFormatError(
            f"expected {count} polynomial components, got {len(items)}",
            where)
    return tuple(poly_from_json(p, num_vars, f"{where}[{s}]")
                 for s, p in enumerate(items))


def algebroid_to_json(abd: PolyMultiderivation) -> dict:
    _check_algebroid(abd)
    return {
        "num_vars": abd.num_vars,
        "rank": abd.rank,
        "arity": abd.arity,
        "brackets": _write_keyed(abd.table, lambda comps: {
            "value": [poly_to_json(p) for p in comps]}),
        "anchor": _write_keyed(abd.symbol, lambda field: {
            "field": [poly_to_json(p) for p in field.comps]}),
    }


def algebroid_from_json(obj: Any,
                        where: str = "algebroid") -> PolyMultiderivation:
    doc = _expect_object(obj, where)
    num_vars = _int_field(doc, "num_vars", where)
    rank = _int_field(doc, "rank", where)
    arity = _int_field(doc, "arity", where)
    if num_vars < 0 or rank < 1 or arity < 2:
        raise InputFormatError(
            "need num_vars >= 0, rank >= 1 and arity >= 2", where)
    brackets = _read_keyed(
        doc, "brackets", arity, rank, where, "bracket",
        lambda item, here: _poly_list_from_json(
            _field(item, "value", here), rank, num_vars, f"{here}.value"))
    anchors = _read_keyed(
        doc, "anchor", arity - 1, rank, where, "anchor",
        lambda item, here: make_section(
            num_vars, num_vars, _poly_list_from_json(
                _field(item, "field", here), num_vars, num_vars,
                f"{here}.field")))
    return _wrap(lambda: make_poly_algebroid(num_vars, rank, arity,
                                             brackets, anchors), where)


# ---------------------------------------------------------------- reports

def cohomology_report_to_json(report: CohomologyReport) -> dict:
    reps = [wedge_to_json(r) if isinstance(r, WedgeElement)
            else cochain_to_json(r) for r in report.representatives]
    return {
        "degree": report.degree,
        "dim_cochains": report.dim_cochains,
        "rank_d_out": report.rank_d_out,
        "rank_d_in": report.rank_d_in,
        "betti": report.betti,
        "representatives": reps,
    }


def report_value(value: Any) -> Any:
    """Recursively JSON-encode a witness payload.

    Index tuples inside witnesses stay 0-based: they are meant to be fed
    back into the library, whose indices are 0-based, not into input files.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, (tuple, list)):
        return [report_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): report_value(v) for k, v in value.items()}
    if isinstance(value, MultiPoly):
        return poly_to_json(value)
    if isinstance(value, PolySection):
        return [poly_to_json(p) for p in value.comps]
    if isinstance(value, Cochain):
        return cochain_to_json(value)
    if isinstance(value, WedgeElement):
        return wedge_to_json(value)
    if isinstance(value, Matrix):
        return matrix_to_json(value)
    return str(value)
