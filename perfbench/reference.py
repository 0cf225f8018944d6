"""The reference computation that measures how fast the host runs now.

It is fixed stdlib work of the kind nlie spends its time on, and no nlie
code takes part, so a change to the package cannot move it.  ``run.py``
samples it during the job pass, and ``setup_probe.py`` runs it at the end
of every set-up probe; README.md ("Reference speed") explains the scaling.
"""

from fractions import Fraction
from time import perf_counter

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 3 + 1)
            for j in range(7)] for i in range(7)]


def reference() -> float:
    """Seconds one run takes now: exact elimination of a fixed 7x7
    rational matrix, recording the multipliers under tuple keys."""
    t0 = perf_counter()
    rows = [list(row) for row in _MATRIX]
    multipliers = {}
    rank = 0
    for col in range(7):
        pivot = next((i for i in range(rank, 7) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(7):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                multipliers[i, col] = f
        rank += 1
    return perf_counter() - t0
