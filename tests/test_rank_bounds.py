"""Rank lower bounds modulo a prime, and the betti-0 route of
``Complex.report``.

``linalg.rank_mod_p`` must give the rank mod p of the rows it reads,
checked against a dense elimination written here, and never exceed the
rank over Q that ``kernel`` certifies.  ``Complex.report`` proves betti 0
from two bounds that meet and d_k·d_(k-1) = 0 (through the second prime
where 3 divides entries); where the bounds do not meet it takes the
``kernel`` route, with the same report as the rational reference, and
counts the shortfall.  The packed d_k·d_(k-1) = 0 check must give the
verdict and the counters of a plain dict product written here, on
catalog, dense and random rows and on products planted nonzero in one
entry or cancelling under too narrow a packing.
"""

import io
import json
import random

import pytest

from helpers import ref_report
from nlie import cohomology, linalg, trace
from nlie.catalog import (conjugated_algebra, heisenberg3, levi_civita_bracket,
                          sl2)
from nlie.cohomology import Complex
from nlie.linalg import Matrix, kernel, rank_mod_p

P = 2**31 - 1


def _rank_mod(rows, ncols, p):
    """Rank mod p by dense Gauss-Jordan, independent of nlie.linalg."""
    dense = [[r.get(j, 0) % p for j in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        inv = pow(dense[rank][c], -1, p)
        for i, row in enumerate(dense):
            if i != rank and row[c]:
                f = row[c] * inv
                dense[i] = [(a - f * b) % p for a, b in zip(row, dense[rank])]
        rank += 1
    return rank


def _random_rows(seed):
    """Seeded integer rows: combinations of a few random rows, some rows
    and some columns multiplied by 3, so that the rank mod 3 often falls
    short of the rank over Q."""
    rng = random.Random(seed)
    cols = rng.randint(1, 12)
    basis = [[rng.randint(-4, 4) for _ in range(cols)]
             for _ in range(rng.randint(0, cols))]
    tripled = {j for j in range(cols) if rng.random() < 0.2}
    rows = []
    for _ in range(rng.randint(1, 30)):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        row = [sum(a * b[j] for a, b in zip(coeffs, basis))
               * (3 if j in tripled else 1) for j in range(cols)]
        if rng.random() < 0.2:
            row = [3 * x for x in row]
        rows.append({j: x for j, x in enumerate(row) if x})
    return rows, cols


def _low_rank_rows(seed):
    """Seeded integer rows spanning fewer dimensions than they have
    columns, at least as many rows as columns: most rows are dependent
    and reach zero only if every column of their support is updated, and
    some columns are left with no pivot."""
    rng = random.Random(seed)
    cols = rng.randint(3, 12)
    basis = [[rng.randint(-4, 4) for _ in range(cols)]
             for _ in range(rng.randint(1, cols - 2))]
    rows = []
    for _ in range(rng.randint(cols, 30)):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        row = [sum(a * b[j] for a, b in zip(coeffs, basis))
               for j in range(cols)]
        rows.append({j: x for j, x in enumerate(row) if x})
    return rows, cols


CASES = [_random_rows(seed) for seed in range(120)] \
    + [_low_rank_rows(seed) for seed in range(40)]


def test_bounds_match_dense_elimination_and_never_exceed_kernel():
    short = 0
    for rows, cols in CASES:
        exact = kernel(rows, cols).rank
        mod3 = _rank_mod(rows, cols, 3)
        bound = rank_mod_p(rows, 3, cols, len(rows))
        assert bound.rank == mod3 <= exact
        assert _rank_mod([rows[i] for i in bound.kept], cols, 3) == mod3
        assert rank_mod_p(rows, P, cols, len(rows)).rank \
            == _rank_mod(rows, cols, P) <= exact
        short += mod3 < exact
    assert short >= 10


def test_bound_and_cap_stop_the_pass():
    rows, cols = next((r, c) for r, c in CASES
                      if _rank_mod(r, c, 3) >= 3 and len(r) >= 10)
    stopped = rank_mod_p(rows, 3, 2, len(rows))
    assert stopped.rank == 2 and stopped.read <= len(rows)
    capped = rank_mod_p(rows, 3, cols, 1)
    assert capped.read == 1 and capped.rank <= 1
    assert rank_mod_p([{}, {}], 3, 5, 5) == linalg.RankBound(0, (), 0, 3)


def _trace_lines(cx, k):
    """The report and the JSON lines of its traced run."""
    out = io.StringIO()
    trace.enable(out)
    try:
        rep = cx.report(k)
    finally:
        trace.finish()
    return rep, [json.loads(line) for line in out.getvalue().splitlines()]


def _traced_report(cx, k):
    rep, lines = _trace_lines(cx, k)
    return rep, {line["summary"]: line["counters"]
                 for line in lines if "summary" in line}


def test_rescaling_by_three_meets_through_the_second_prime():
    alg = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    rep, lines = _trace_lines(Complex(alg), 2)
    assert rep == ref_report(alg, 2) and rep.betti == 0
    spans = {line["summary"]: line["counters"]
             for line in lines if "summary" in line}
    assert "linalg.rank_nullspace" not in spans
    assert spans["cohomology.report"] == {"proven": 1, "shortfall": 0}
    # d_1, then d_2, mod 3: together short of rank 10 + 6 = 16; then the
    # same two mod 2^31 - 1
    calls = [line["counters"] for line in lines
             if line.get("span") == "linalg.rank_mod_p"]
    assert [c["max_prime"] for c in calls] == [3, 3, P, P]
    assert calls[0]["rank"] + calls[1]["rank"] < 16


def test_heisenberg_h2_falls_back_to_kernel():
    alg = heisenberg3()
    rep, spans = _traced_report(Complex(alg), 2)
    assert rep == ref_report(alg, 2) and rep.betti == 5
    assert spans["linalg.rank_nullspace"]["rank"] > 0
    # rank d_2 = 1 and rank d_1 = 3, both reached mod 3
    assert spans["cohomology.report"] == {"proven": 0, "shortfall": 0}


def test_short_bounds_are_counted_not_raised(monkeypatch):
    # a cap of one row: each bound is at most 1, so H^2 of Levi-Civita
    # (rank d_2 = 6, rank d_1 = 10) goes to kernel, 14 short
    monkeypatch.setattr(cohomology, "_CAP_SLOPE", 0)
    monkeypatch.setattr(cohomology, "_CAP_BASE", 1)
    alg = levi_civita_bracket()
    rep, spans = _traced_report(Complex(alg), 2)
    assert rep == ref_report(alg, 2)
    assert spans["cohomology.report"] == {"proven": 0, "shortfall": 14}


def test_kernel_rank_below_a_bound_raises(monkeypatch):
    # a kernel that loses a pivot reads rank d_2 = 0 on Heisenberg, below
    # the bound 1 that the mod-3 pass proved
    real = cohomology.kernel

    def short(rows, ncols):
        res = real(rows, ncols)
        return linalg.RankNullspace(res.rank - 1, res.nullspace, res.pivots)
    monkeypatch.setattr(cohomology, "kernel", short)
    with pytest.raises(ArithmeticError, match="lower bound exceeds"):
        Complex(heisenberg3()).report(2)


def test_nonzero_product_is_never_betti_zero():
    # one entry of L·d_1 changed: the bounds still meet, and the exact
    # d_2·d_1 check refuses them
    cx = Complex(levi_civita_bracket())
    row = next(r for r in cx.rows(1) if r)
    row[next(iter(row))] += 1
    with pytest.raises(ArithmeticError, match="d_k·d_"):
        cx.report(2)


def _dict_product(outer, inner):
    """The verdict and the counters of d_k·d_(k-1) = 0 by a plain dict
    product, independent of ``Complex._product_vanishes``: entries of the
    inner rows read, and nonzero entries of the product."""
    terms = nonzero = 0
    for r in outer:
        acc = {}
        for j, a in r.items():
            for c, b in inner[j].items():
                acc[c] = acc.get(c, 0) + a * b
            terms += len(inner[j])
        nonzero += sum(1 for v in acc.values() if v)
    return nonzero == 0, {"nonzero": nonzero, "terms": terms}


def _product_check(outer, inner):
    """The verdict and the ``cohomology.product_check`` counters of
    ``Complex._product_vanishes(2)`` with ``outer`` in place of L·d_2 and
    ``inner`` in place of L·d_1."""
    cx = Complex(levi_civita_bracket())
    cx._rows.update({1: inner, 2: outer})
    out = io.StringIO()
    trace.enable(out)
    try:
        cx._product_vanishes(2)
        holds = True
    except ArithmeticError:
        holds = False
    finally:
        trace.finish()
    spans = {line["summary"]: line["counters"] for line in
             map(json.loads, out.getvalue().splitlines())
             if "summary" in line}
    return holds, spans["cohomology.product_check"]


def _row_pairs(seed):
    """Seeded (outer, inner) integer rows with negative and multi-digit
    entries: inner rows are a few random rows and combinations of them;
    each outer row is a relation among them, whose product row is zero, or
    a random row."""
    rng = random.Random(seed)
    cols = rng.randint(1, 10)
    size = rng.choice((1, 9, 10**6, 10**15))
    basis = [{j: rng.randint(-size, size) for j in range(cols)
              if rng.random() < 0.6} for _ in range(rng.randint(1, 5))]
    inner, outer = list(basis), []
    for _ in range(rng.randint(0, 8)):
        coeffs = [rng.randint(-size, size) if rng.random() < 0.5 else 0
                  for _ in basis]
        inner.append({j: sum(a * b.get(j, 0) for a, b in zip(coeffs, basis))
                      for j in range(cols)})
        outer.append({len(inner) - 1: 1,
                      **{s: -a for s, a in enumerate(coeffs)}})
    for _ in range(rng.randint(0, 3)):
        outer.append({j: rng.randint(-size, size) for j in range(len(inner))
                      if rng.random() < 0.4})
    rng.shuffle(outer)
    return ([{j: x for j, x in r.items() if x} for r in outer],
            [{j: x for j, x in r.items() if x} for r in inner])


def _planted(outer, inner, value, column):
    """The pair with one more outer row: an outer row whose product row
    is zero, plus a new inner row holding ``value`` at ``column``.  Its
    product row is nonzero in that one entry only."""
    row = next((r for r in outer if r and _dict_product([r], inner)[0]), {})
    return (outer + [{**row, len(inner): 1}], inner + [{column: value}])


def test_product_check_matches_the_dict_product():
    heavy = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]))
    pairs = [(cx.rows(k), cx.rows(k - 1))
             for cx in map(Complex, (levi_civita_bracket(), sl2(),
                                     heisenberg3(), heavy))
             for k in (1, 2, 3)]
    pairs += [_row_pairs(seed) for seed in range(150)]
    # entries at the bound A·B, which is not a power of two; no rows
    pairs += [([{0: 3}], [{0: 1}]), ([{0: -5, 1: 2}], [{0: 7}, {0: -7}]),
              ([], []), ([{}], [{}])]
    planted = [_planted(outer, inner, value, seed % 3)
               for seed, (outer, inner) in enumerate(pairs[:40])
               for value in (1, -1, 7, -10**6, 2**64 + 1)]
    verdicts = set()
    for outer, inner in pairs + planted:
        expected = _dict_product(outer, inner)
        assert _product_check(outer, inner) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}
    for outer, inner in planted:
        assert _product_check(outer, inner)[1]["nonzero"] \
            == _dict_product(outer[:-1], inner[:-1])[1]["nonzero"] + 1


def test_product_packing_leaves_no_room_to_cancel():
    # the product row (2^bits, -1), with A = 1 and B = 2^bits: a packing
    # of width bits, one narrower than the zero test needs, reads it as
    # 2^bits - 2^bits = 0
    for bits in (1, 2, 3, 30, 64, 200):
        assert _product_check([{0: 1}], [{0: 2**bits, 1: -1}]) \
            == (False, {"nonzero": 2, "terms": 2})
