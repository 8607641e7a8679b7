"""Tests for Gaussian Wick moments, the genus split, the perturbative
Kontsevich match, and the numeric normalization/HCIZ checks.

Independent oracles: one-dimensional Gaussian moments (2k-1)!!/c^k, the
Catalan recurrence for planar counts, and the diagonal/scalar propagator
consistency relation.
"""

import itertools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from taubench.errors import BudgetError, DomainError, Unsupported
from taubench.exact import double_factorial
from taubench.wick import (
    GaussianSpec,
    TraceWord,
    _quadrature,
    gaussian_normalization_check,
    genus_expansion,
    hciz_check,
    hciz_closed_form,
    kontsevich_match,
    laurent_eval,
    source_times,
    wick_moment,
)


def catalan(k: int) -> int:
    # C_0 = 1, C_{k+1} = sum_i C_i C_{k-i}
    table = [1]
    for m in range(k):
        table.append(sum(table[i] * table[m - i] for i in range(m + 1)))
    return table[k]


class TestTraceWord:
    def test_sorted_and_validated(self):
        assert TraceWord((2, 4, 3)).powers == (4, 3, 2)
        assert TraceWord((4, 3, 2)).degree == 9
        with pytest.raises(DomainError):
            TraceWord((0,))

    def test_parse(self):
        assert TraceWord.from_string("tr3^2,tr4").powers == (4, 3, 3)
        assert TraceWord.from_string("tr2").powers == (2,)
        with pytest.raises(DomainError):
            TraceWord.from_string("M3")


class TestWickMoment:
    def test_one_dimensional_moments(self):
        # oracle: <m^{2k}> = (2k-1)!!/c^k for weight exp(-c m^2/2)
        for c in (Fraction(1), Fraction(3), Fraction(5, 2)):
            spec = GaussianSpec(1, (c,))
            for k in range(1, 5):
                expected = Fraction(double_factorial(2 * k - 1)) / c**k
                assert wick_moment(spec, TraceWord((2 * k,))) == expected
                # trace factorization is irrelevant at N = 1
                assert wick_moment(spec, TraceWord((2,) * k)) == expected

    def test_odd_degree_vanishes(self):
        assert wick_moment(GaussianSpec(1, (Fraction(2),)), TraceWord((3,))) == 0
        assert wick_moment(GaussianSpec(1), TraceWord((3, 4))) == {}

    def test_scalar_tr_m4(self):
        assert wick_moment(GaussianSpec(1), TraceWord((4,))) == {
            -1: Fraction(1),
            1: Fraction(2),
        }

    def test_diagonal_scalar_consistency(self):
        # with all lambda = c each pair gives 1/c, so the diagonal moment
        # is (N/c)^pairs times the scalar Laurent value at N
        c = Fraction(7, 3)
        for n_size in (1, 2, 3):
            spec = GaussianSpec(n_size, (c,) * n_size)
            for word in (TraceWord((2,)), TraceWord((4,)), TraceWord((3, 3))):
                pairs = word.degree // 2
                scalar = laurent_eval(
                    wick_moment(GaussianSpec(n_size), word), n_size
                )
                assert wick_moment(spec, word) == scalar * Fraction(n_size, 1) ** pairs / c**pairs

    def test_budget(self):
        with pytest.raises(BudgetError):
            wick_moment(GaussianSpec(1), TraceWord((16,)), max_matchings=100)

    def test_mixed_word_diagonal(self):
        # <tr M^2 tr M^2> at N = 1 is the plain fourth moment
        spec = GaussianSpec(1, (Fraction(2),))
        assert wick_moment(spec, TraceWord((2, 2))) == Fraction(3, 4)


class TestGenusExpansion:
    def test_frozen_examples(self):
        assert genus_expansion(TraceWord((4,))) == {0: 2, 1: 1}
        assert genus_expansion(TraceWord((2,))) == {0: 1}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_planar_count_is_catalan(self, k):
        assert genus_expansion(TraceWord((2 * k,)))[0] == catalan(k)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_total_at_n_one_matches_full_moment(self, k):
        word = TraceWord((2 * k,))
        total = sum(genus_expansion(word).values())
        assert total == laurent_eval(wick_moment(GaussianSpec(1), word), 1)
        assert total == double_factorial(2 * k - 1)  # all matchings counted

    def test_multi_trace_rejected(self):
        with pytest.raises(DomainError):
            genus_expansion(TraceWord((2, 2)))


class TestKontsevichMatch:
    @pytest.mark.parametrize(
        "n_size,lams",
        [
            (2, (Fraction(3), Fraction(4))),
            (3, (Fraction(3), Fraction(4), Fraction(5))),
            (3, (Fraction(5, 2), Fraction(7, 2), Fraction(9, 2))),
        ],
    )
    def test_three_way_agreement(self, n_size, lams):
        report = kontsevich_match(n_size, lams, 2)
        assert report["agree"]
        assert report["order2_agrees"]
        assert report["wick_log"]["2"] == report["graph_side"]["2"]
        assert report["wick_log"]["2"] == report["free_energy_order2"]

    def test_order_zero_trivial(self):
        report = kontsevich_match(2, (Fraction(3), Fraction(4)), 0)
        assert report["agree"]
        assert report["wick_log"] == {}

    def test_permutation_invariance(self):
        lams = (Fraction(3), Fraction(4), Fraction(5))
        base = kontsevich_match(3, lams, 2)
        for perm in itertools.permutations(lams):
            report = kontsevich_match(3, perm, 2)
            assert report["wick_log"] == base["wick_log"]
            assert report["graph_side"] == base["graph_side"]
            assert report["free_energy_order2"] == base["free_energy_order2"]

    def test_order_guards(self):
        with pytest.raises(DomainError):
            kontsevich_match(2, (Fraction(3), Fraction(4)), 3)
        with pytest.raises(BudgetError):
            kontsevich_match(2, (Fraction(3), Fraction(4)), 6)

    def test_source_times(self):
        lams = (Fraction(2),)
        t = source_times(lams, 3)
        assert t[0] == Fraction(-1, 2)
        assert t[1] == Fraction(-1, 8)  # -(1)!! / 2^3
        assert t[2] == Fraction(-3, 32)  # -(3)!! / 2^5


def tensor_rule_n2(lams, points):
    """Gauss-Legendre on the full 4-dim N = 2 grid, every node summed."""
    lam1, lam2 = lams
    nodes, weights = np.polynomial.legendre.leggauss(points)
    axes = []
    for scale in (lam1, lam2, lam1 + lam2, lam1 + lam2):
        half = 14.0 / math.sqrt(scale)
        axes.append((nodes * half, weights * half))
    (xa, wa), (xb, wb), (xc, wc), (xd, wd) = axes
    expo = (
        lam1 * xa[:, None, None, None] ** 2
        + lam2 * xb[None, :, None, None] ** 2
        + (lam1 + lam2) * (xc[None, None, :, None] ** 2 + xd[None, None, None, :] ** 2)
    )
    grid = np.exp(-0.5 * expo)
    # factor 2 for the single off-diagonal pair (MEASURE_CONVENTION)
    return 2.0 * float(np.einsum("a,b,c,d,abcd->", wa, wb, wc, wd, grid))


class TestGaussianNormalization:
    def test_n1(self):
        report = gaussian_normalization_check(1, (Fraction(1),), 1e-10)
        assert report["pass"]
        assert float(report["relative_error"]) < 1e-10

    def test_n2(self):
        report = gaussian_normalization_check(2, (Fraction(1), Fraction(2)), 1e-6)
        assert report["pass"]
        assert float(report["relative_error"]) < 1e-6
        # formula value 2 (2 pi)^2 (1*2)^{-1/2} / 3
        import math

        expected = 2 * (2 * math.pi) ** 2 / (math.sqrt(2) * 3)
        assert abs(float(report["formula"]) - expected) < 1e-12
        assert "convention" in report

    def test_guards(self):
        with pytest.raises(Unsupported):
            gaussian_normalization_check(3, (1, 1, 1), 1e-6)
        with pytest.raises(DomainError):
            gaussian_normalization_check(2, (Fraction(1),), 1e-6)

    @pytest.mark.parametrize("lam", [Fraction(1, 10**6), Fraction(1, 3), Fraction(2), Fraction(10**6)])
    def test_n1_matches_closed_form(self, lam):
        report = gaussian_normalization_check(1, (lam,), 1e-13)
        expected = math.sqrt(2 * math.pi / float(lam))
        assert abs(float(report["quadrature"]) - expected) <= 1e-13 * expected
        assert report["pass"]

    @pytest.mark.parametrize("lams", [(1.0, 2.0), (0.25, 3.0), (1e-3, 7.5)])
    def test_product_rule_matches_tensor_rule(self, lams):
        oracle = tensor_rule_n2(lams, 24)
        assert abs(_quadrature(lams, 24) - oracle) <= 1e-13 * oracle

    def test_numeric_paths_do_not_import_scipy(self):
        code = (
            "import contextlib, io, sys\n"
            "from taubench.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run(['matrix', 'normalization', '--N', '1', '--lambda', '2']) == 0\n"
            "    assert run(['matrix', 'normalization', '--N', '2', '--lambda', '1,2']) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
        )


class TestHciz:
    def test_generic_configurations(self):
        for x, y in (((1, -1), (1, -1)), ((0.5, 2), (1, 3))):
            report = hciz_check(x, y, 200_000, seed=7)
            assert report["pass"], report

    def test_degenerate_zero_source(self):
        report = hciz_check((1, -1), (0, 0), 10_000, seed=1)
        assert report["degenerate"]
        assert report["pass"]
        assert float(report["estimate"]) == 1.0
        assert float(report["closed_form"]) == 1.0

    def test_degenerate_scalar_x(self):
        import math

        report = hciz_check((1, 1), (2, 3), 50_000, seed=3)
        assert report["degenerate"]
        assert report["pass"]
        assert abs(float(report["closed_form"]) - math.exp(5)) < 1e-9

    def test_determinism(self):
        a = hciz_check((1, -1), (1, -1), 50_000, seed=42)
        b = hciz_check((1, -1), (1, -1), 50_000, seed=42)
        assert a == b
        c = hciz_check((1, -1), (1, -1), 50_000, seed=43)
        assert c["estimate"] != a["estimate"]

    def test_closed_form_symmetry(self):
        # invariant under permuting either spectrum alone (absorb the
        # permutation into the Haar variable)
        v = hciz_closed_form((0.3, 1.7), (2.0, -0.5))
        assert v == hciz_closed_form((1.7, 0.3), (2.0, -0.5))
        assert v == hciz_closed_form((0.3, 1.7), (-0.5, 2.0))

    def test_input_validation(self):
        with pytest.raises(DomainError):
            hciz_check((1,), (1, 2), 100, seed=0)
        with pytest.raises(DomainError):
            hciz_check((1, 2), (1, 2), 1, seed=0)
