"""Tests for Gaussian Wick moments, the genus split, the perturbative
Kontsevich match, and the numeric normalization/HCIZ checks.

Independent oracles: one-dimensional Gaussian moments (2k-1)!!/c^k, the
Catalan recurrence for planar counts, the diagonal/scalar propagator
consistency relation, and a per-matching walk with Fraction edge products
(`oracle_moment`) against the shape table of `wick_moment`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubench.cli import run
from taubench.errors import BudgetError, DomainError, Unsupported
from taubench.ribbon import kontsevich_sum
from taubench.exact import double_factorial
from taubench import wick
from taubench.wick import (
    MAX_COLORINGS,
    MAX_DIAGONAL_WORK,
    MAX_VERTEX_ORDER,
    TraceWord,
    _legendre_rule,
    _multigraph_table,
    _quadrature,
    _relabeled,
    _sampled_traces,
    _shape_table,
    gaussian_normalization_check,
    genus_expansion,
    hciz_check,
    hciz_closed_form,
    kontsevich_match,
    source_times,
    wick_moment,
)


def laurent_eval(laurent: dict[int, Fraction], n: Fraction) -> Fraction:
    return sum((c * Fraction(n) ** p for p, c in laurent.items()), Fraction(0))


def _slot_successors(powers):
    nxt, base = [], 0
    for k in powers:
        nxt.extend(base + (i + 1) % k for i in range(k))
        base += k
    return nxt


def _matchings(slots):
    """All perfect matchings of the given slots as lists of pairs."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _matchings(remaining):
            yield [(first, partner)] + tail


def _matching_faces(pairs, nxt):
    """(edges as face-id pairs, face count) of one matching: the faces are
    the cycles of s -> nxt(partner(s))."""
    partner = [0] * len(nxt)
    for s, t in pairs:
        partner[s], partner[t] = t, s
    face = [-1] * len(nxt)
    faces = 0
    for start in range(len(nxt)):
        if face[start] >= 0:
            continue
        s = start
        while face[s] < 0:
            face[s] = faces
            s = nxt[partner[s]]
        faces += 1
    return [(face[s], face[nxt[s]]) for s, _ in pairs], faces


def _colored_sum(edges, faces, weight):
    """Sum over face colorings of the product of Fraction edge propagators."""
    total = Fraction(0)
    for colors in itertools.product(range(len(weight)), repeat=faces):
        prod = Fraction(1)
        for a, b in edges:
            prod *= weight[colors[a]][colors[b]]
        total += prod
    return total


def oracle_moment(lams, word):
    """wick_moment matching by matching: N^{faces - pairs} per matching in
    scalar mode (lams None), the Fraction colored sum of
    2/(lambda_a + lambda_b) per matching in diagonal mode."""
    scalar_mode = lams is None
    if word.degree % 2:
        return {} if scalar_mode else Fraction(0)
    nxt = _slot_successors(word.powers)
    pairs_count = word.degree // 2
    laurent: dict[int, Fraction] = {}
    total = Fraction(0)
    if not scalar_mode:
        weight = [[Fraction(2) / (a + b) for b in lams] for a in lams]
    for pairs in _matchings(list(range(word.degree))):
        edges, faces = _matching_faces(pairs, nxt)
        if scalar_mode:
            power = faces - pairs_count
            laurent[power] = laurent.get(power, Fraction(0)) + 1
        else:
            total += _colored_sum(edges, faces, weight)
    return dict(sorted(laurent.items())) if scalar_mode else total


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

    def test_negative_multiplicity_is_refused(self, capsys):
        # tr3^-1 once parsed as the empty word, whose moment is 1
        assert TraceWord.from_string("tr3^0").powers == ()
        with pytest.raises(DomainError, match="^negative multiplicity in 'tr3\\^-1'$"):
            TraceWord.from_string("tr4,tr3^-1")
        code = run(["matrix", "moment", "--word", "tr3^-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == '{"error":"usage","message":"negative multiplicity in \'tr3^-1\'"}\n'


class TestWickMoment:
    def test_one_dimensional_moments(self):
        # oracle: <m^{2k}> = (2k-1)!!/c^k for weight exp(-c m^2/2)
        for c in (Fraction(1), Fraction(3), Fraction(5, 2)):
            lams = (c,)
            for k in range(1, 5):
                expected = Fraction(double_factorial(2 * k - 1)) / c**k
                assert wick_moment(lams, TraceWord((2 * k,))) == expected
                # trace factorization is irrelevant at N = 1
                assert wick_moment(lams, TraceWord((2,) * k)) == expected

    def test_odd_degree_vanishes(self):
        assert wick_moment((Fraction(2),), TraceWord((3,))) == 0
        assert wick_moment(None, TraceWord((3, 4))) == {}

    def test_scalar_tr_m4(self):
        assert wick_moment(None, TraceWord((4,))) == {
            -1: Fraction(1),
            1: Fraction(2),
        }

    def test_diagonal_scalar_consistency(self):
        # with all lambda = c each pair gives 1/c, so the diagonal moment
        # is (N/c)^pairs times the scalar Laurent value at N
        c = Fraction(7, 3)
        for n_size in (1, 2, 3):
            lams = (c,) * n_size
            for word in (TraceWord((2,)), TraceWord((4,)), TraceWord((3, 3))):
                pairs = word.degree // 2
                scalar = laurent_eval(wick_moment(None, word), n_size)
                assert wick_moment(lams, word) == scalar * Fraction(n_size, 1) ** pairs / c**pairs

    def test_budget(self):
        with pytest.raises(BudgetError):
            wick_moment(None, TraceWord((16,)), max_matchings=100)

    def test_empty_or_non_positive_lambda_is_refused(self, capsys):
        word = TraceWord((2,))
        with pytest.raises(DomainError, match="^matrix size must be positive$"):
            wick_moment((), word)
        with pytest.raises(DomainError, match="^lambda entries must be positive$"):
            wick_moment((Fraction(1), Fraction(0)), TraceWord((3,)))
        with pytest.raises(DomainError, match="^need exactly N diagonal entries$"):
            kontsevich_match(3, (Fraction(3), Fraction(4)))
        for command, message in (
            (["moment", "--word", "tr2"], "lambda entries must be positive"),
            (["normalization"], "need N positive diagonal entries"),
        ):
            code = run(["matrix", *command, "--lambda", "1,-1"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == f'{{"error":"usage","message":"{message}"}}\n'

    @pytest.mark.parametrize(
        "command", [["moment", "--word", "tr4"], ["match"], ["normalization"]]
    )
    def test_empty_lambda_list_is_two(self, capsys, command):
        # an explicitly empty --lambda= is a usage error, never scalar mode
        code = run(["matrix", *command, "--lambda="])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            '{"error":"usage","message":"\'\' is not a rational string"}\n'
        )

    @pytest.mark.parametrize("word", ["tr2^2000", "tr2^1000000", "tr1999,tr1"])
    def test_long_word_is_three_at_once(self, capsys, word):
        # the (d-1)!! product stops past the budget: a 4000-slot word once
        # failed to print its 6000-digit count, a 2000000-slot one ran for minutes
        start = time.perf_counter()
        code = run(["matrix", "moment", "--word", word])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            '{"error":"budget","message":"over 1000000000000000000 matchings'
            ' exceed the budget of 20000"}\n'
        )
        assert elapsed < 1

    @pytest.mark.parametrize("word", ["tr2^99999999999999", "tr2^600000,tr1^400001"])
    def test_word_over_a_million_factors_is_three_at_once(self, capsys, word):
        # the factor list itself would not fit in memory
        code = run(["matrix", "moment", "--word", word])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            '{"error":"budget","message":"the word has over 1000000 trace factors"}\n'
        )

    @pytest.mark.parametrize(
        "size, word, colorings",
        [(20, "tr8", 12864020), (20, "tr12", 21981112020), (100, "tr4", 1000100)],
    )
    def test_colorings_over_budget_are_three_at_once(self, capsys, size, word, colorings):
        # the N^faces coloring sum is priced from the merged table before it runs
        lams = ",".join(map(str, range(1, size + 1)))
        start = time.perf_counter()
        code = run(["matrix", "moment", "--lambda", lams, "--word", word])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f'{{"error":"budget","message":"{colorings} face colorings'
            f' exceed the budget of {MAX_COLORINGS}"}}\n'
        )

    def test_colorings_priced_as_shapes_times_n_to_the_faces(self, monkeypatch):
        word = TraceWord((3, 3, 3, 3))
        lams = (Fraction(3), Fraction(4), Fraction(5))
        assert sum(mult for _, _, mult in _shape_table(word)) == 10395
        # the largest shipped use, matrix match --order 4 at N = 3, priced
        # over the multigraph table the walk reads
        assert sum(3**faces for _, faces, _ in _multigraph_table(word)) == 4428
        wick_moment(lams, word)
        monkeypatch.setattr(wick, "MAX_COLORINGS", 4427)
        with pytest.raises(BudgetError, match="^4428 face colorings exceed the budget of 4427$"):
            wick_moment(lams, word)
        wick_moment(None, word)  # scalar mode sums no colorings

    def test_diagonal_work_priced_as_colorings_pairs_bits(self, monkeypatch):
        # tr3^4 at lambda = 3,4,5: 4428 colorings x 6 pairs x 12 bits of
        # L = lcm(6, 7, 8, 9, 10) = 2520
        word = TraceWord((3, 3, 3, 3))
        lams = (Fraction(3), Fraction(4), Fraction(5))
        monkeypatch.setattr(wick, "MAX_DIAGONAL_WORK", 318816)
        value = wick_moment(lams, word)
        monkeypatch.setattr(wick, "MAX_DIAGONAL_WORK", 318815)
        with pytest.raises(
            BudgetError,
            match=r"^diagonal work 318816 \(colorings x pairs x bits\) exceeds the budget 318815$",
        ):
            wick_moment(lams, word)
        monkeypatch.setattr(wick, "MAX_DIAGONAL_WORK", MAX_DIAGONAL_WORK)
        assert wick_moment(lams, word) == value

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["match", "--order", "4", "--lambda",
              f"1{'0' * 999},2{'0' * 999},3{'0' * 998}7"], 352902744),
            (["moment", "--word", "tr2", "--lambda",
              ",".join(map(str, range(1, 1001)))], 2878000000),
        ],
    )
    def test_wide_edge_weights_are_three_at_once(self, capsys, argv, work):
        # within MAX_COLORINGS and the digit limit, but every edge weight
        # L/(P_a + P_b) has thousands of bits: refused before the walk
        start = time.perf_counter()
        code = run(["matrix", *argv])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f'{{"error":"budget","message":"diagonal work {work} (colorings x pairs x bits)'
            f' exceeds the budget {MAX_DIAGONAL_WORK}"}}\n'
        )

    @pytest.mark.parametrize("size, powers", [(10, (8,)), (8, (4, 4))])
    def test_unit_lambda_counts_faces(self, size, powers):
        # every propagator 2/(1 + 1) is 1, so each matching adds N^faces:
        # the scalar Laurent coefficients c_p give sum_p c_p N^(p + pairs);
        # priced over the merged table, both fit under MAX_COLORINGS
        word = TraceWord(powers)
        pairs = word.degree // 2
        scalar = wick_moment(None, word)
        expected = sum(c * size ** (p + pairs) for p, c in scalar.items())
        assert wick_moment((Fraction(1),) * size, word) == expected

    def test_diagonal_table_priced_as_n_squared_bits_words(self, monkeypatch):
        # tr3^4 at lambda = 3,4,5: N^2 = 9 quotients; top = 10, and L divides
        # lcm(1..10) (at most 16 bits) and has at most 5 sums of 4 bits
        word = TraceWord((3, 3, 3, 3))
        lams = (Fraction(3), Fraction(4), Fraction(5))
        value = wick_moment(lams, word)
        monkeypatch.setattr(wick, "MAX_DIAGONAL_TABLE_WORK", 144)
        assert wick_moment(lams, word) == value
        monkeypatch.setattr(wick, "MAX_DIAGONAL_TABLE_WORK", 143)
        with pytest.raises(
            BudgetError,
            match=r"^diagonal table work 144 \(N\^2 x bits x words\) exceeds the budget 143$",
        ):
            wick_moment(lams, word)

    def test_wide_weight_table_is_three_at_once(self, capsys):
        # one face, so 2000 colorings and 2000 x 1 x 5756 diagonal work: only
        # the 2000 x 2000 weight table is large, and building it took 13 s
        lams = ",".join(map(str, range(1, 2001)))
        start = time.perf_counter()
        code = run(["matrix", "moment", "--word", "tr1^2", "--lambda", lams])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            '{"error":"budget","message":"diagonal table work 24004000000'
            f' (N^2 x bits x words) exceeds the budget {wick.MAX_DIAGONAL_TABLE_WORK}"}}\n'
        )

    def test_budget_holds_for_a_cached_word(self, capsys):
        # the budget prices the (d-1)!! matchings of a table miss, and is
        # checked before the table is looked up
        word = TraceWord((3, 3, 3, 3))
        lams = (Fraction(3), Fraction(4), Fraction(5))
        wick_moment(lams, word)
        wick_moment(None, word)
        for diagonal in (lams, None):
            with pytest.raises(BudgetError):
                wick_moment(diagonal, word, max_matchings=100)
        for lam_args in (["--lambda", "3,4,5"], []):
            code = run(
                ["--max-matchings", "5", "matrix", "moment", "--word", "tr3^4", *lam_args]
            )
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == (
                '{"error":"budget","message":"10395 matchings exceed the budget of 5"}\n'
            )

    WORDS = st.lists(st.integers(1, 6), min_size=1, max_size=5).filter(
        lambda ks: sum(ks) <= 10
    )
    RATIONALS = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))

    @settings(max_examples=40, deadline=None)
    @given(WORDS, st.integers(1, 3), st.data())
    def test_shape_table_matches_per_matching_oracle(self, powers, n_size, data):
        word = TraceWord(tuple(powers))
        assert wick_moment(None, word) == oracle_moment(None, word)
        lams = data.draw(st.lists(self.RATIONALS, min_size=n_size, max_size=n_size))
        assert wick_moment(lams, word) == oracle_moment(lams, word)

    @pytest.mark.parametrize(
        "powers,lams",
        [
            ((5, 3, 2), (Fraction(1, 2), Fraction(2, 3), Fraction(7, 5))),
            ((3, 3, 3, 1), (Fraction(3, 4), Fraction(5, 6), Fraction(11, 9))),
            ((4, 4, 2), (Fraction(1, 7), Fraction(5, 2))),
            ((10,), (Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))),
        ],
    )
    def test_unequal_denominators_match_oracle(self, powers, lams):
        word = TraceWord(powers)
        assert wick_moment(lams, word) == oracle_moment(lams, word)

    def test_mixed_word_diagonal(self):
        # <tr M^2 tr M^2> at N = 1 is the plain fourth moment
        assert wick_moment((Fraction(2),), TraceWord((2, 2))) == Fraction(3, 4)


def _even_words(top):
    """Every trace word of even degree 2..top, as descending power tuples."""
    def parts(d, most):
        if d == 0:
            yield ()
        for k in range(min(d, most), 0, -1):
            for rest in parts(d - k, k):
                yield (k, *rest)

    return [TraceWord(p) for d in range(2, top + 1, 2) for p in parts(d, d)]


def _canonical(edges, faces):
    """The least sorted edge list over all faces! renumberings: equal for
    two shapes exactly when they are isomorphic face multigraphs."""
    return min(
        tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        for perm in itertools.permutations(range(faces))
    )


class TestMultigraphTable:
    """The diagonal walk's table: the labeled shape table merged over face
    renumberings (wick._multigraph_table)."""

    @pytest.mark.parametrize("word", _even_words(10), ids=lambda w: str(w.powers))
    def test_merge_keeps_the_faces_and_every_matching(self, word):
        labeled, merged = _shape_table(word), _multigraph_table(word)
        by_faces = {}
        for _, faces, mult in labeled:
            by_faces[faces] = by_faces.get(faces, 0) + mult
        for _, faces, mult in merged:
            by_faces[faces] -= mult
        assert set(by_faces.values()) == {0}
        assert sum(mult for *_, mult in merged) == double_factorial(word.degree - 1)
        assert len({(edges, faces) for edges, faces, _ in merged}) == len(merged)
        assert len(merged) <= len(labeled)

    @pytest.mark.parametrize(
        "powers", [(3, 3, 3, 3), (10,), (6, 4), (4, 4, 2), (5, 3, 2), (8,), (4, 3, 2, 1)]
    )
    def test_each_entry_is_a_renumbering_of_its_shapes(self, powers):
        # brute force over faces!: every labeled shape and the entry it is
        # merged into are one multigraph, and the entry's matchings are theirs
        word = TraceWord(powers)
        expected = {}
        for edges, faces, mult in _shape_table(word):
            key = (_relabeled(edges, faces), faces)
            assert _canonical(*key) == _canonical(edges, faces)
            expected[key] = expected.get(key, 0) + mult
        assert {(edges, faces): mult for edges, faces, mult in _multigraph_table(word)} == expected

    def test_tr3_4_walks_under_a_third_of_the_colorings(self):
        word = TraceWord((3, 3, 3, 3))
        labeled, merged = _shape_table(word), _multigraph_table(word)
        assert (len(labeled), sum(3**faces for _, faces, _ in labeled)) == (67, 17019)
        assert len(merged) <= 20 and sum(3**faces for _, faces, _ in merged) <= 4428
        # 17 multigraphs up to isomorphism: the least any sound merge can reach
        assert len({(_canonical(e, f), f) for e, f, _ in labeled}) == 17

    @pytest.mark.parametrize(
        "n_size, lams, digest",
        [
            (2, "3,4", "22763a355b24ab71c2fd6faff41fd9c24a5e8dbaf32624fb4224c9ae43969904"),
            (2, "1/2,7/3", "2bce2828b03a5d286e1371d6922f29aa870ed50e31edbcb4e5d0ac07adeb1ff0"),
            (2, "28,23/6", "ad4145079987c238f1b9d5b57c612bf91cca57787bfd9d2210d37a0297764533"),
            (3, "3,4,5", "03d460e32900f672805eeb69ec4959e096cd3475a0f426b7ceecc799b90a32b3"),
            (3, "1/2,2/3,7/5",
             "4d6d820f53d4b935f5f99eb00ce17b3577adf4924d921618d57eb8dd81f52644"),
            (3, "28,23/6,9", "921e5b461f1d03d6e4dcb1d03647a8b3d288560eda9d9f42dd47ce903ad3d352"),
        ],
    )
    def test_order_four_match_reports_are_pinned(self, n_size, lams, digest):
        # digests of the reports of the labeled-shape walk
        report = kontsevich_match(n_size, [Fraction(v) for v in lams.split(",")], 4)
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        assert total == laurent_eval(wick_moment(None, word), 1)
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

    def test_order_four_graph_side_sums_every_ordered_coloring(self):
        # oracle: the graph side over all N^n ordered colorings, one
        # kontsevich_sum each, against the multiset sum in kontsevich_match
        lams = (Fraction(1, 2), Fraction(7, 3))
        report = kontsevich_match(2, lams, 4)
        assert report["agree"]
        for v in (2, 4):
            side = Fraction(0)
            for n in range(1, v // 2 + 3):
                g2 = v // 2 - n + 2
                if g2 < 0 or g2 % 2:
                    continue
                block = sum(
                    kontsevich_sum(g2 // 2, n, [lams[r] for r in colors])
                    for colors in itertools.product(range(2), repeat=n)
                )
                side += block * Fraction((-1) ** n, math.factorial(n))
            assert report["graph_side"][str(v)] == str(side)

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
        assert MAX_VERTEX_ORDER == 4
        with pytest.raises(BudgetError, match="^vertex order 6 exceeds cap 4$"):
            kontsevich_match(2, (Fraction(3), Fraction(4)), MAX_VERTEX_ORDER + 2)

    def test_order_four_over_forty_colors_is_three_at_once(self, capsys):
        lams = ",".join(map(str, range(1, 41)))
        start = time.perf_counter()
        code = run(["matrix", "match", "--order", "4", "--lambda", lams])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert (code, captured.out) == (3, "")
        assert json.loads(captured.err)["message"].endswith(
            f"face colorings exceed the budget of {MAX_COLORINGS}"
        )

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
    def test_criterion_10_bytes_are_pinned(self):
        # suite criterion 10's inputs; each Gauss-Legendre rule is built once
        # and shared, so these strings also pin the cached nodes and weights
        expected = {
            1: ("1.7716596207925437e-16", "2.5066282746310007"),
            2: ("7.6360140644039243e-16", "18.610304532370357"),
        }
        for _ in range(2):
            r1 = gaussian_normalization_check((Fraction(1),), 1e-10)
            r2 = gaussian_normalization_check((Fraction(1), Fraction(2)), 1e-6)
            assert (r1["relative_error"], r1["quadrature"]) == expected[1]
            assert (r2["relative_error"], r2["quadrature"]) == expected[2]

    def test_cached_rule_is_read_only(self):
        nodes, weights = _legendre_rule(80)
        assert _legendre_rule(80)[0] is nodes
        fresh_nodes, fresh_weights = np.polynomial.legendre.leggauss(80)
        assert nodes.tobytes() == fresh_nodes.tobytes()
        assert weights.tobytes() == fresh_weights.tobytes()
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0

    def test_n1(self):
        report = gaussian_normalization_check((Fraction(1),), 1e-10)
        assert report["pass"]
        assert float(report["relative_error"]) < 1e-10

    def test_n2(self):
        report = gaussian_normalization_check((Fraction(1), Fraction(2)), 1e-6)
        assert report["pass"]
        assert float(report["relative_error"]) < 1e-6
        # formula value 2 (2 pi)^2 (1*2)^{-1/2} / 3
        import math

        expected = 2 * (2 * math.pi) ** 2 / (math.sqrt(2) * 3)
        assert abs(float(report["formula"]) - expected) < 1e-12
        assert "convention" in report

    def test_guards(self):
        with pytest.raises(Unsupported):
            gaussian_normalization_check((1, 1, 1), 1e-6)
        with pytest.raises(DomainError):
            gaussian_normalization_check((Fraction(1), Fraction(-1)), 1e-6)

    @pytest.mark.parametrize("lam", [Fraction(1, 10**6), Fraction(1, 3), Fraction(2), Fraction(10**6)])
    def test_n1_matches_closed_form(self, lam):
        report = gaussian_normalization_check((lam,), 1e-13)
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
            "    assert run(['matrix', 'normalization', '--lambda', '2']) == 0\n"
            "    assert run(['matrix', 'normalization', '--lambda', '1,2']) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
        )

    def test_exact_paths_do_not_import_numpy(self):
        # numpy is imported inside the two numeric checks only
        code = (
            "import contextlib, io, sys\n"
            "import taubench.cli, taubench.suite, taubench.ribbon, taubench.exact\n"
            "import taubench.kdv, taubench.fock, taubench.schur, taubench.wick\n"
            "import taubench.torsion\n"
            "from taubench.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run(['intersect', '-g', '0', '-n', '3']) == 0\n"
            "    assert run(['verify', 'kdv']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
        )


def _haar_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """Batch of Haar U(2) by Gram-Schmidt with positive-real diagonal R."""
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q1 = z[:, :, 0]
    q1 = q1 / np.linalg.norm(q1, axis=1, keepdims=True)
    v = z[:, :, 1] - np.sum(np.conj(q1) * z[:, :, 1], axis=1, keepdims=True) * q1
    q2 = v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([q1, q2], axis=2)


def oracle_traces(x, y, sample_count: int, seed: int) -> np.ndarray:
    """sum_ij x_i y_j |U_ij|^2 over whole Gram-Schmidt unitaries, drawn in
    the sampler's chunks from the same seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for start in range(0, sample_count, wick.HCIZ_CHUNK):
        u = _haar_unitaries(rng, min(wick.HCIZ_CHUNK, sample_count - start))
        chunks.append(np.einsum("i,j,sij->s", np.asarray(x), np.asarray(y), np.abs(u) ** 2))
    return np.concatenate(chunks)


class TestHciz:
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("sample_count", [2, 50_000, 50_001])
    @pytest.mark.parametrize(
        "x,y",
        [
            ((1.0, -1.0), (1.0, -1.0)),
            ((0.5, 2.0), (1.0, 3.0)),
            ((1.0, -1.0), (0.0, 0.0)),
            ((1.0, 1.0), (2.0, 3.0)),
        ],
    )
    def test_traces_match_gram_schmidt_unitaries(self, x, y, sample_count, seed):
        traces = _sampled_traces(x, y, sample_count, seed)
        oracle = oracle_traces(x, y, sample_count, seed)
        assert traces.shape == oracle.shape == (sample_count,)
        # relative to sum |x_i y_j|, the largest |tr| can be: a trace near 0
        # cancels, and the oracle's Gram-Schmidt loses orthogonality (up to
        # 1.3e-13 of that scale at seed 0) when z's columns nearly align
        scale = sum(abs(a * b) for a in x for b in y)
        np.testing.assert_allclose(traces, oracle, rtol=0, atol=1e-12 * scale)

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
