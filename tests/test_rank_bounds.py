"""Rank lower bounds modulo a prime, and the betti-0 route of
``Complex.report``.

``linalg.rank_mod3`` (bit-packed rows) and ``linalg.rank_mod_p`` (dict
rows) must give the rank mod p of the rows they read, checked against a
dense elimination written here, and never exceed the rank over Q that
``kernel`` certifies.  A fault planted in the packed addition must be
caught.  ``Complex.report`` proves betti 0 from two bounds that meet and
d_k·d_(k-1) = 0 (through the second prime where 3 divides entries); where
the bounds do not meet it takes the ``kernel`` route, with the same report
as the rational reference, and counts the shortfall.
"""

import io
import json
import random

import pytest

from helpers import ref_report
from nlie import cohomology, linalg, trace
from nlie.catalog import conjugated_algebra, heisenberg3, levi_civita_bracket
from nlie.cohomology import Complex
from nlie.linalg import Matrix, kernel, rank_mod3, rank_mod_p

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
        row = [sum(rng.randint(-2, 2) * b[j] for b in basis)
               * (3 if j in tripled else 1) for j in range(cols)]
        if rng.random() < 0.2:
            row = [3 * x for x in row]
        rows.append({j: x for j, x in enumerate(row) if x})
    return rows, cols


CASES = [_random_rows(seed) for seed in range(120)]


def _disagreements():
    """The cases where ``rank_mod3`` raises or differs from the dense rank
    mod 3."""
    bad = []
    for rows, cols in CASES:
        try:
            got = rank_mod3(rows, cols, len(rows)).rank
        except ArithmeticError:
            got = None
        if got != _rank_mod(rows, cols, 3):
            bad.append((rows, cols, got))
    return bad


def test_bounds_match_dense_elimination_and_never_exceed_kernel():
    short = 0
    for rows, cols in CASES:
        exact = kernel(rows, cols).rank
        mod3 = _rank_mod(rows, cols, 3)
        packed = rank_mod3(rows, cols, len(rows))
        assert packed.rank == rank_mod_p(rows, 3, cols, len(rows)).rank \
            == mod3 <= exact
        assert _rank_mod([rows[i] for i in packed.kept], cols, 3) == mod3
        assert rank_mod_p(rows, P, cols, len(rows)).rank \
            == _rank_mod(rows, cols, P) <= exact
        short += mod3 < exact
    assert short >= 10
    assert not _disagreements()


def test_bound_and_cap_stop_the_pass():
    rows, cols = next((r, c) for r, c in CASES
                      if _rank_mod(r, c, 3) >= 3 and len(r) >= 10)
    stopped = rank_mod3(rows, 2, len(rows))
    assert stopped.rank == 2 and stopped.read <= len(rows)
    capped = rank_mod_p(rows, 3, cols, 1)
    assert capped.read == 1 and capped.rank <= 1
    assert rank_mod3([{}, {}], 5, 5) == linalg.RankBound(0, (), 0, 3)


# One bit-plane formula of ``_add3`` replaced: the plane loses its ^ t.
PLANTED = {
    "ones": lambda x1, x2, y1, y2: (x2 | y2, (x1 | y1) ^ (x1 | y2) ^ (x2 | y1)),
    "twos": lambda x1, x2, y1, y2: ((x2 | y2) ^ (x1 | y2) ^ (x2 | y1), x1 | y1),
}


@pytest.mark.parametrize("plane", sorted(PLANTED))
def test_planted_packed_addition_is_caught(monkeypatch, plane):
    monkeypatch.setattr(linalg, "_add3", PLANTED[plane])
    bad = _disagreements()
    # the parity check above fails ...
    assert bad
    # ... and no planted run returns a rank above the true rank mod 3: an
    # overcount is caught at run time, by the re-check or the spin guard
    assert all(got is None or got < _rank_mod(rows, cols, 3)
               for rows, cols, got in bad)
    assert any(got is None for _, _, got in bad)


def _pivot_only(x1, x2, y1, y2):
    """A planted addition that clears x at y's pivot column and nowhere
    else, so a dependent row survives its reduction."""
    top = 1 << ((y1 | y2).bit_length() - 1)
    return x1 & ~top, x2 & ~top


def test_planted_overcount_is_caught_by_the_recheck(monkeypatch):
    monkeypatch.setattr(linalg, "_add3", _pivot_only)
    raised = 0
    for rows, cols in CASES:
        try:
            assert rank_mod3(rows, cols, len(rows)).rank \
                <= _rank_mod(rows, cols, 3)
        except ArithmeticError as exc:
            assert "dependent rows" in str(exc)
            raised += 1
    assert raised >= 10


def _traced_report(cx, k):
    out = io.StringIO()
    trace.enable(out)
    try:
        rep = cx.report(k)
    finally:
        trace.finish()
    return rep, {line["summary"]: line["counters"]
                 for line in map(json.loads, out.getvalue().splitlines())
                 if "summary" in line}


def test_rescaling_by_three_meets_through_the_second_prime():
    alg = conjugated_algebra(levi_civita_bracket(), Matrix.from_rows(
        [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    rep, spans = _traced_report(Complex(alg), 2)
    assert rep == ref_report(alg, 2) and rep.betti == 0
    assert "linalg.rank_nullspace" not in spans
    assert spans["linalg.rank_mod3"]["rank"] < 16
    assert spans["linalg.rank_mod_p"]["max_prime"] == P
    assert spans["cohomology.report"] == {"proven": 1, "shortfall": 0}


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
