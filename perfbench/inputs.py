"""Inputs of each workload, made from the benchmark seed alone.

run.py and the graph_session process both call these functions, so the
references are computed on exactly the inputs the program received.
"""

from __future__ import annotations

import random
from fractions import Fraction

BLOCKS = ((0, 3), (1, 1), (0, 4), (1, 2))
SUM_POINTS = 100  # kontsevich_sum evaluations per block per round
MATCH_CASES = ((2, 2), (2, 4), (3, 2), (3, 4))  # (N, vertex order)
GENUS_HALF_DEGREES = (1, 2, 3, 4, 5)  # tr M^{2k}
MUTATION_CAP = 10


def _positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 40), rng.randint(1, 12))


def session_inputs(seed: int):
    """(sum points, match cases) for one graph_session run.

    Sum points are (g, n, lambdas); match cases are (N, order, lambdas).
    Every lambda is a positive rational, so no graph-sum edge factor has a
    pole.
    """
    rng = random.Random(f"graph_session:{seed}")
    sums = [
        (g, n, tuple(_positive_rational(rng) for _ in range(n)))
        for g, n in BLOCKS
        for _ in range(SUM_POINTS)
    ]
    match = [
        (size, order, tuple(_positive_rational(rng) for _ in range(size)))
        for size, order in MATCH_CASES
    ]
    return sums, match


def suite_seed(seed: int) -> int:
    """The `--seed` given to `taubench suite quick`, a nonnegative int."""
    return random.Random(f"suite_quick:{seed}").randrange(1_000_000)
