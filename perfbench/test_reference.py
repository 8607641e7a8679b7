"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py

The last two tests also hold the references against the program: the
main-identity right-hand side must equal `kontsevich_sum` exactly, and the
rooted-map sum over `enumerate_trivalent` classes must give the known counts.
"""

import itertools
import math
import random
from fractions import Fraction

import reference
from inputs import BLOCKS


def _rng_lambdas(rng, n):
    return tuple(Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(n))


def test_genus_zero_closed_form_known_values_and_string_equation():
    assert reference.genus_zero((0, 0, 0)) == 1
    assert reference.genus_zero((1, 0, 0, 0)) == 1
    assert reference.genus_zero((2, 0, 0, 0, 0)) == 1
    assert reference.genus_zero((1, 1, 0, 0, 0)) == 2
    assert reference.genus_zero((1, 0, 0)) == 0  # off dimension
    # string equation <tau_0 prod tau_{d_i}> = sum_j <... tau_{d_j - 1} ...>
    for n in range(3, 8):
        for d in itertools.product(range(n - 2), repeat=n):
            if sum(d) != n - 3 or d[0] != 0:
                continue
            rest = d[1:]
            lowered = sum(
                reference.genus_zero(rest[:j] + (rest[j] - 1,) + rest[j + 1:])
                for j in range(len(rest)) if rest[j] > 0
            )
            if n > 3:
                assert reference.genus_zero(d) == lowered


def test_genus_one_values_satisfy_string_and_dilaton():
    one_point = reference.intersection(1, (1,))
    assert one_point == Fraction(1, 24)
    assert reference.intersection(1, (0, 2)) == one_point  # string equation
    assert reference.intersection(1, (1, 1)) == (2 * 1 - 2 + 1) * one_point  # dilaton


def test_harer_zagier_counts():
    assert reference.harer_zagier(4) == [14, 70, 21]
    for k in range(1, 7):
        counts = reference.harer_zagier(k)
        assert counts[0] == math.comb(2 * k, k) // (k + 1)  # Catalan
        assert sum(counts) == reference.odd_double_factorial(2 * k - 1)  # all matchings


def test_free_energy_order2_is_the_order2_graph_side():
    rng = random.Random(2)
    for size in (1, 2, 3):
        lams = _rng_lambdas(rng, size)
        assert reference.free_energy_order2(lams) == reference.colored_graph_side(2, lams)


def test_rooted_trivalent_map_counts():
    assert reference.rooted_trivalent_maps(6) == reference.ROOTED_TRIVALENT_MAPS[6] == 5
    assert reference.rooted_trivalent_maps(12) == reference.ROOTED_TRIVALENT_MAPS[12] == 60


def test_main_identity_rhs_equals_kontsevich_sum():
    from taubench.ribbon import kontsevich_sum

    rng = random.Random(1)
    for g, n in BLOCKS:
        for _ in range(200):
            lams = _rng_lambdas(rng, n)
            assert kontsevich_sum(g, n, lams) == reference.main_identity_rhs(g, lams)


def test_rooted_count_over_enumerated_classes():
    from taubench.ribbon import enumerate_trivalent

    totals = {}
    for g, n in BLOCKS:
        classes = [c.to_json() for c in enumerate_trivalent(g, n, 12)]
        assert all(reference.class_is_valid(c, g, n) for c in classes)
        darts = 6 * (n + 2 * g - 2)
        totals[darts] = totals.get(darts, 0) + reference.rooted_count_from_classes(classes, n)
    assert totals == reference.ROOTED_TRIVALENT_MAPS
