"""Named source mutants of ``nlie``, and a runner that checks each one
is killed by the tests expected to catch it.

pytest does not collect this file (its name does not start with
``test_``).  Each mutant names a module under ``src/nlie``, one exact
source fragment of it, the replacement and the test node ids expected to
fail.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, first checks that every listed node id passes there
unmutated, then applies one mutant at a time to the copy, runs its node
ids and reports it killed (every listed node id fails), partly killed or
survived, with the time taken.  ``tests/test_mutants.py`` checks in
Tier-1 that each fragment occurs exactly once in its module, so the list
keeps up with the code.

Run::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
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
    Mutant("report_without_product_check", "cohomology.py",
           "self._product_vanishes(k)",
           "pass",
           ("tests/test_rank_bounds.py::"
            "test_nonzero_product_is_never_betti_zero",)),
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
    # the product check packs one bit narrower than the zero test needs,
    # so an entry 2^w next to an entry -1 cancels; floored at 2 bits,
    # because at width 1 the balanced decode of a nonzero row never ends
    Mutant("product_check_width_too_narrow", "cohomology.py",
           "(a * b).bit_length() + 1",
           "max((a * b).bit_length() - 1, 2)",
           _PRODUCT),
    # the product check packs without the sign bit: the zero test holds,
    # but an entry at or above 2^(w-1) decodes with a carry into the
    # next digit, so the nonzero counter is wrong
    Mutant("product_check_width_without_sign_bit", "cohomology.py",
           "(a * b).bit_length() + 1",
           "max((a * b).bit_length(), 2)",
           _PRODUCT),
)


def _pytest(copy: pathlib.Path, nodes) -> tuple[int, set[str]]:
    """(exit code, node ids reported failed or in error) of one run."""
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *nodes], cwd=copy, capture_output=True, text=True)
    failed = {line.split()[1] for line in res.stdout.splitlines()
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
            verdict = ("error" if code not in (0, 1) else
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
