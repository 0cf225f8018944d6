"""Named source mutants of ``nlie``, and a runner that checks each one
is killed by the tests expected to catch it.

pytest does not collect this file (its name does not start with
``test_``).  Each mutant names a module under ``src/nlie``, one exact
source fragment of it, the replacement and the test node ids expected to
fail.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, first checks that every listed node id passes there
unmutated, then applies one mutant at a time to the copy, runs its node
ids and reports it killed (every listed node id fails), partly killed or
survived, with the time taken.  A run that outlasts ``TIME_LIMIT``
seconds is stopped and reported ``timed out``, never killed: a mutant
that makes the code spin ends with a verdict of its own.
``tests/test_mutants.py`` checks in Tier-1 that each fragment occurs
exactly once in its module, so the list keeps up with the code.

Run::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Known survivors, left out of the list: mutations that no test kills, or
only a counter pin does.

- ``linalg.rank_mod_p`` without its spin guard (``if c in r``): the
  guard only turns a faulty update into an error where the loop would
  spin, so no exact run reaches it.
- ``algebroid._fi_factors`` with the A(x' + (k,)) factors of (k, q) in
  B(y) left out of the list that decides whether a pair is skipped:
  for constant anchors at n = 3 the term they carry vanishes (ROADMAP's
  Small item on the B(y) clause), and no planted input was found.
- ``algebroid._fi_factors`` with the A(x' + (y_i,)) factors left out of
  that decision: only the counter pin of
  ``test_trace_algebroid_generator_phases`` fails; no planted input
  changes a verdict or a witness.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/nlie
    fragment: str
    replacement: str
    kills: tuple[str, ...]  # node ids expected to fail


_PARITY = ("tests/test_rank_bounds.py::"
           "test_bounds_match_dense_elimination_and_never_exceed_kernel")
# the four-sum rows against the circle route, on catalog and dense inputs
_ROWS = ("tests/test_cohomology.py::"
         "test_differential_matrix_matches_circle_oracle",
         "tests/test_cochains.py::"
         "test_coboundary_explicit_matches_differential",
         "tests/test_cochains.py::"
         "test_coboundary_explicit_matches_differential_dense")
_PRODUCT = ("tests/test_rank_bounds.py::"
            "test_product_check_matches_the_dict_product",
            "tests/test_rank_bounds.py::"
            "test_product_packing_leaves_no_room_to_cancel")
_CERTIFICATE = ("tests/test_linalg.py::"
                "test_certificate_matches_the_dict_product",)
_QUICK = ("tests/test_cli.py::test_quick_parse_matches_argparse",)
_SYMBOL = ("tests/test_algebroid_weights.py::"
           "test_products_match_reference_random",)
# seconds one pytest run may take; the slowest listed run takes about 2 s
TIME_LIMIT = 120

MUTANTS = (
    # the row is cleared at the pivot column only: a dependent row with
    # an entry in a column that has no pivot yet is kept, an overcount
    Mutant("rank_mod_p_pivot_only", "linalg.py",
           "            for j, x in q.items():\n"
           "                v = (r.get(j, 0) - f * x) % p\n"
           "                if v:\n"
           "                    r[j] = v\n"
           "                else:\n"
           "                    del r[j]\n",
           "            del r[c]\n",
           (_PARITY,)),
    Mutant("rank_mod_p_adds", "linalg.py",
           "v = (r.get(j, 0) - f * x) % p",
           "v = (r.get(j, 0) + f * x) % p",
           (_PARITY,)),
    Mutant("rank_mod_p_unnormalised", "linalg.py",
           "pivots[c] = {j: x * inv % p for j, x in r.items()}",
           "pivots[c] = dict(r)",
           (_PARITY,)),
    Mutant("report_without_bound_above_kernel_check", "cohomology.py",
           "if out.rank < lo_out or rank_in < lo_in:",
           "if False:",
           ("tests/test_rank_bounds.py::"
            "test_kernel_rank_below_a_bound_raises",)),
    Mutant("report_without_second_prime", "cohomology.py",
           "if lo_in + lo_out < dim_k and any(",
           "if False and any(",
           ("tests/test_rank_bounds.py::"
            "test_rescaling_by_three_meets_through_the_second_prime",)),
    # the row is divided by the gcd of its first entry only, so the other
    # entries are floored
    Mutant("cancel_first_entry_gcd", "linalg.py",
           "    g = gcd(*out.values())\n"
           "    return {j: x // g for j, x in out.items()} if g > 1 else out\n",
           "    g = abs(next(iter(out.values()), 1))\n"
           "    return {j: x // g for j, x in out.items() if x // g}\n",
           ("tests/test_linalg.py::test_rank_nullspace_random_sparse_and_dense",
            "tests/test_linalg.py::test_solve_linear_consistent_systems",
            "tests/test_complex.py::"
            "test_complex_matches_rational_route_dense_d3")),
    # coboundary_rows: a coordinate found for one z is read for every z
    Mutant("coboundary_read_memo_without_z", "cochains.py",
           "key = blocks, z",
           "key = blocks",
           _ROWS),
    # coboundary_rows: an action list built for one hole position is read
    # for every position
    Mutant("coboundary_action_memo_without_pos", "cochains.py",
           "key = rest, pos",
           "key = rest",
           _ROWS),
    # coboundary_rows: the fourth sum, the last block acting on the
    # arguments, with its sign flipped, so that d_k·d_(k-1) is no longer
    # zero (at k = 1..4 on Levi-Civita and sl(2))
    Mutant("coboundary_fourth_sum_sign", "cochains.py",
           "acted(-1 if p % 2 else 1, read(args[:p], lastblock[s]),",
           "acted(1 if p % 2 else -1, read(args[:p], lastblock[s]),",
           ("tests/test_rank_bounds.py::test_four_sum_rows_compose_to_zero",)
           + _ROWS),
    # the zero-product check packs one bit narrower than the zero test
    # needs, so an entry 2^w next to an entry -1 cancels; floored at 2
    # bits, so that the width stays positive
    Mutant("product_check_width_too_narrow", "linalg.py",
           "(a * b).bit_length() + 1",
           "max((a * b).bit_length() - 1, 2)",
           _PRODUCT + _CERTIFICATE),
    # the zero-product check packs without the sign bit: the zero test
    # holds, but an entry at or above 2^(w-1) carries into the next digit
    # once 2^(w-1) is added to each, so the nonzero counts are wrong; the
    # certificate reads only the zero test, so its test passes
    Mutant("product_check_width_without_sign_bit", "linalg.py",
           "(a * b).bit_length() + 1",
           "max((a * b).bit_length(), 2)",
           _PRODUCT),
    # the kernel certificate multiplies the rows by the first nullspace
    # vector only, so a sampled round can stop with rows left outside
    # the span of the reduced rows
    Mutant("certificate_first_vector_only", "linalg.py",
           "for k, v in enumerate(vectors):",
           "for k, v in enumerate(list(vectors)[:1]):",
           _CERTIFICATE + (
               "tests/test_linalg.py::"
               "test_sampled_elimination_matches_full_elimination[as shipped]",
               "tests/test_linalg.py::"
               "test_planted_fault_reaches_the_sampled_loop[last_entry]",
               "tests/test_linalg.py::"
               "test_planted_fault_returns_certified_or_raises[last_entry]")),
    # back-substitution subtracts the pivot row without its tags: the
    # reduced rows R, so the rank, pivots and certificate, stay right, and
    # only the tags E of a factorization are wrong (E·M_S != R), so a
    # solve's x fails M·x = b and its refusal fails the witness check
    Mutant("rref_back_substitution_drops_tags", "linalg.py",
           "            red[i] = _cancel(red[i], red[where[c]], c)\n",
           "            red[i] = _cancel(red[i], {j: x for j, x in\n"
           "                             red[where[c]].items() if j < ncols},"
           " c)\n",
           ("tests/test_linalg.py::"
            "test_factorization_tags_give_the_reduced_rows",
            "tests/test_linalg.py::test_factorization_agrees_with_oracle",
            "tests/test_linalg.py::test_solve_linear_consistent_systems")),
    # ``_corrupt_last_entry`` of tests/test_linalg.py in the source: every
    # cancellation adds 1 to the last entry of its row, so the reduced
    # rows leave the row space and the M·x check raises
    Mutant("cancel_corrupt_last_entry", "linalg.py",
           "    return {j: x // g for j, x in out.items()} if g > 1 else out\n",
           "    out = {j: x // g for j, x in out.items()} if g > 1 else out\n"
           "    if out:\n"
           "        out[max(out)] += 1\n"
           "    return out\n",
           ("tests/test_linalg.py::test_rank_nullspace_random_sparse_and_dense",
            "tests/test_linalg.py::test_solve_linear_consistent_systems",
            "tests/test_complex.py::"
            "test_complex_matches_rational_route_dense_d3")),
    # the obstruction summed as an ungraded commutator, phi_i ∘ phi_j -
    # phi_j ∘ phi_i for i < j: unchanged at order 1, where the one pair is
    # phi_1 ∘ phi_1, and no longer a cocycle at order 2; the path stays
    # valid, since the validity check sums through ``_circle_sum``
    Mutant("obstruction_ungraded_commutator", "deformations.py",
           "    return _circle_sum(_phi_list(path), path.order + 1, 1)\n",
           "    phis, r = _phi_list(path), path.order + 1\n"
           "    return circle_sum(phis[0].arity, phis[0].dim, 2, [\n"
           "        (1 if 2 * i <= r else -1, phis[i], phis[r - i])\n"
           "        for i in range(1, r)])\n",
           ("tests/test_deformations.py::"
            "test_obstruction_is_cocycle_on_the_four_sum_route",)),
    # symbol_bracket of an operand with itself: the commutators of every
    # shuffle, not one per swapped pair, so each pair is counted twice
    Mutant("symbol_bracket_without_pair_filter", "algebroid.py",
           "for perm, sh_sign in shuffles(p, p) if perm[0] == 0]",
           "for perm, sh_sign in shuffles(p, p)]",
           _SYMBOL),
    # the same-object commutators summed with the wrong sign
    Mutant("symbol_bracket_commutator_sign", "algebroid.py",
           "comms = [(-c * sh_sign, perm) for c, _, _ in terms",
           "comms = [(c * sh_sign, perm) for c, _, _ in terms",
           _SYMBOL),
    # [D1, D2] with D2 ∘ D1 added where it is subtracted
    Mutant("bracket_terms_second_sign", "algebroid.py",
           "return [(sign, d1, d2), (-1, d2, d1)]",
           "return [(sign, d1, d2), (1, d2, d1)]",
           ("tests/test_algebroid.py::test_symbol_leibniz_mixed_degrees",)),
    # ``md_eval``, which ``algebroid`` calls itself, listed as paper API
    # that nothing here calls
    Mutant("uncalled_api_lists_md_eval", "algebroid.py",
           "Paper API that nothing here calls: ``anchor_on_generators``,",
           "Paper API that nothing here calls: ``md_eval``,\n"
           "``anchor_on_generators``,",
           ("tests/test_cli.py::test_uncalled_api_lists_are_true",)),
    # the argv quick path of ``cli``: a value outside its choices, a
    # missing required flag and ``--trace`` after the verb are accepted,
    # where argparse refuses each
    Mutant("quick_parse_without_choices_check", "cli.py",
           "if choices is not None and value not in choices:",
           "if False:",
           _QUICK),
    Mutant("quick_parse_without_required_check", "cli.py",
           "if table is not None or positionals or required:",
           "if table is not None or positionals:",
           _QUICK),
    Mutant("quick_parse_trace_after_verb", "cli.py",
           "in (*_SHARED_FLAGS, *spec[1:])",
           "in (*_SHARED_FLAGS, _TRACE, *spec[1:])",
           _QUICK),
)


def _pytest(copy: pathlib.Path, nodes) -> tuple[int | None, set[str]]:
    """(exit code, node ids reported failed or in error) of one run; the
    code is None if the run was stopped at ``TIME_LIMIT``."""
    try:
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-rfE", *nodes], cwd=copy, capture_output=True, text=True,
            timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        return None, set()
    # "FAILED <node id> - <message>"; a parameter id may hold spaces
    failed = {line.split(" ", 1)[1].split(" - ")[0]
              for line in res.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return res.returncode, failed


def run(mutants) -> list[tuple[str, str, float]]:
    """(name, verdict, seconds) of each mutant, run on a fresh copy."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part)
        shutil.copy(ROOT / "pyproject.toml", copy)
        code, failed = _pytest(copy, sorted({n for m in mutants
                                             for n in m.kills}))
        if code is None:
            raise SystemExit("unmutated copy timed out")
        if code != 0:
            raise SystemExit(f"unmutated copy fails: {sorted(failed)}")
        for m in mutants:
            path = copy / "src" / "nlie" / m.module
            source = path.read_text()
            if source.count(m.fragment) != 1:
                raise SystemExit(f"{m.name}: fragment not found once")
            path.write_text(source.replace(m.fragment, m.replacement))
            start = time.perf_counter()
            code, failed = _pytest(copy, m.kills)
            took = time.perf_counter() - start
            path.write_text(source)
            caught = failed & set(m.kills)
            verdict = ("timed out" if code is None else
                       "error" if code not in (0, 1) else
                       "killed" if caught == set(m.kills) else
                       "partly killed" if caught else "survived")
            out.append((m.name, verdict, took))
    return out


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    results = run(chosen)
    for name, verdict, took in results:
        print(f"{name}: {verdict} ({took:.1f} s)")
    print(f"total: {time.perf_counter() - start:.1f} s")
    return 0 if all(v == "killed" for _, v, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
