"""Tests for chain-complex torsion, invariant factors, and the
order-of-homology and multiplicativity checks.

Independent oracles: permutation-expansion determinants; invariant factors
are certified by the determinantal divisors (d_1...d_k is the gcd of the
k x k minors) and the divisibility chain; torsion by hand evaluations per
the alternating determinant definition and by a second route that solves
d_i X = b_{i-1} for the lifts.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubench import torsion as torsion_module
from taubench.cli import run
from taubench.errors import BudgetError, DomainError
from taubench.exact import row_reduce, solve
from taubench.torsion import (
    BasedChainComplex,
    determinant,
    direct_sum,
    invariant_factors,
    is_acyclic,
    random_acyclic_complex,
    ses_multiplicativity_check,
    standard_sum_maps,
    torsion,
    torsion_order_check,
)


def det_oracle(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(sign)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


def complex_5():
    return BasedChainComplex((1, 1), [[[5]]])


def torsion_by_solved_lifts(c, lift_rng=None):
    """The alternating determinant product with each lift solved from
    d_i X = b_{i-1} (free variables zero) and b_i taken from a separate
    elimination of d_{i+1}; an optional RNG perturbs the lifts by image
    elements, which leaves the torsion unchanged."""
    if not is_acyclic(c):
        raise DomainError("torsion requires an acyclic complex")
    image_bases = []
    for i in range(c.length + 1):
        d_next = c.boundary(i + 1)
        cols = row_reduce(d_next)[1]
        image_bases.append([[d_next[r][j] for j in cols] for r in range(c.ranks[i])])
    tau = Fraction(1)
    for i in range(c.length + 1):
        b_here = image_bases[i]
        prev = image_bases[i - 1] if i else []
        if i == 0 or not prev or not prev[0]:
            lift = [[] for _ in range(c.ranks[i])]
        else:
            lift = solve(c.boundary(i), prev)[0]
            if lift_rng is not None and b_here and b_here[0]:
                k = len(b_here[0])
                for col in range(len(lift[0]) if lift else 0):
                    coeffs = [lift_rng.randint(-3, 3) for _ in range(k)]
                    for row in range(c.ranks[i]):
                        lift[row][col] += sum(coeffs[j] * b_here[row][j] for j in range(k))
        t_i = [b_here[r] + lift[r] for r in range(c.ranks[i])]
        det = determinant(t_i) if t_i else Fraction(1)
        tau *= det if (i + 1) % 2 == 0 else 1 / det
    return tau


class TestDeterminant:
    def test_against_permutation_expansion(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                m = [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
                assert determinant(m) == det_oracle(m)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            determinant([[Fraction(1), Fraction(2)]])


class TestComplexValidation:
    def test_d_squared_enforced(self):
        with pytest.raises(DomainError, match="^boundary maps do not compose to zero$"):
            BasedChainComplex((1, 1, 1), [[[1]], [[1]]])

    def test_shape_enforced(self):
        with pytest.raises(DomainError):
            BasedChainComplex((1, 2), [[[1]]])

    @pytest.mark.parametrize("payload", [{"ranks": [1]}, [1, 2]])
    def test_malformed_json_rejected(self, payload):
        with pytest.raises(DomainError):
            BasedChainComplex.from_json(payload)


class TestAcyclicity:
    def test_isomorphism(self):
        assert is_acyclic(complex_5())

    def test_zero_boundary(self):
        assert not is_acyclic(BasedChainComplex((1, 1), [[[0]]]))

    def test_three_term(self):
        c = BasedChainComplex((1, 2, 1), [[[0, 1]], [[1], [0]]])
        assert is_acyclic(c)


class TestTorsion:
    def test_multiplication_by_five(self):
        assert torsion(complex_5()) == Fraction(1, 5)

    def test_identity_boundary(self):
        for n in (1, 2, 3):
            eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]
            c = BasedChainComplex((n, n), [eye])
            assert torsion(c) == 1

    def test_not_acyclic_raises(self):
        with pytest.raises(DomainError, match="^torsion requires an acyclic complex$"):
            torsion(BasedChainComplex((1, 1), [[[0]]]))

    def test_direct_sum_multiplies_up_to_sign(self):
        rng = random.Random(17)
        for _ in range(5):
            cp = random_acyclic_complex(rng)
            cpp = random_acyclic_complex(rng)
            total = torsion(direct_sum(cp, cpp))
            assert abs(total) == abs(torsion(cp) * torsion(cpp))

    def test_agrees_with_solved_lifts(self, monkeypatch):
        # signed equality, also when the oracle's lifts are perturbed by
        # image elements; complexes up to length 4 with 5 blocks per degree
        monkeypatch.setattr(torsion_module, "MAX_RANDOM_LENGTH", 4)
        monkeypatch.setattr(torsion_module, "MAX_RANDOM_BLOCKS", 5)
        rng = random.Random(29)
        for trial in range(240):
            c = random_acyclic_complex(rng)
            assert torsion(c) == torsion_by_solved_lifts(c), trial
            assert torsion(c) == torsion_by_solved_lifts(c, random.Random(trial)), trial

    def test_based_change_scales_by_unimodular_det(self):
        # swap the C_0 basis of the rank-2 identity complex: P has det -1
        c = BasedChainComplex(
            (2, 2), [[[0, 1], [1, 0]]]
        )
        assert torsion(c) == -1


def integer_matrices(max_size=5, bound=20):
    return st.integers(1, max_size).flatmap(
        lambda rows: st.integers(1, max_size).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


class TestSmith:
    def certify(self, a):
        """d_1...d_k is the gcd of the k x k minors of a for k up to the
        rank, and every larger minor vanishes."""
        factors = invariant_factors(a)
        rows, cols = len(a), len(a[0])
        for k in range(1, min(rows, cols) + 1):
            minors = [
                int(det_oracle([[Fraction(a[i][j]) for j in cs] for i in rs]))
                for rs in itertools.combinations(range(rows), k)
                for cs in itertools.combinations(range(cols), k)
            ]
            expected = math.prod(factors[:k]) if k <= len(factors) else 0
            assert math.gcd(*minors) == expected, (a, k, factors)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0
        assert all(x > 0 for x in factors)
        return factors

    def test_frozen_examples(self):
        assert self.certify([[2, 0], [0, 3]]) == (1, 6)
        assert invariant_factors([[0, 0], [0, 0]]) == ()
        assert self.certify([[5]]) == (5,)

    @given(integer_matrices())
    @settings(max_examples=120, deadline=None)
    def test_randomized_certification(self, a):
        self.certify(a)

    def test_det_preserved_for_nonsingular(self):
        rng = random.Random(13)
        found = 0
        while found < 8:
            a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            d = det_oracle([[Fraction(x) for x in row] for row in a])
            if d == 0:
                continue
            assert math.prod(invariant_factors(a)) == abs(d)
            found += 1


# 10 x 10, entries in [-3, 3], det -682434.  A Smith loop that picks the
# least entry only once per diagonal position and then chases remainders
# through the pivot row and column lets the entries of this matrix grow
# for over a minute.
REPRO_10 = [
    [1, -3, -3, 0, -1, -3, -3, 3, -3, 2],
    [3, 0, 3, 0, -3, -1, 1, 0, 0, 3],
    [3, -1, 0, -1, 1, -2, 1, -2, -1, -2],
    [3, -3, 1, 3, -1, 1, 2, 3, 1, -2],
    [-1, -3, 2, -3, 3, 2, -1, 0, 1, -3],
    [-1, 0, -1, 1, 2, -2, 1, 0, 0, 3],
    [1, -1, -3, 3, 1, -3, -3, 2, 3, 0],
    [2, 3, 3, 2, 2, -3, 1, 0, 3, 3],
    [-1, -2, 2, -1, 2, 3, -3, -2, 1, -2],
    [-2, 3, -2, 3, 1, 0, -3, -3, -1, 1],
]


def timed_order_check(capsys, tmp_path, matrix):
    """`torsion --order-check` on the one-boundary complex Z^n -> Z^n;
    returns (exit code, payload, seconds)."""
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"ranks": [len(matrix)] * 2, "boundaries": [matrix]}))
    start = time.perf_counter()
    code = run(["torsion", "--complex", str(path), "--order-check"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out), elapsed


class TestOrderCheckBound:
    def test_ten_by_ten_repro(self, capsys, tmp_path):
        code, payload, elapsed = timed_order_check(capsys, tmp_path, REPRO_10)
        assert (code, payload["torsion"]) == (0, "-1/682434")
        assert payload["order_check"]["orders"] == [682434, 1]
        assert elapsed < 1

    @pytest.mark.parametrize("n", [5, 10, 20, 30])
    def test_nonsingular_boundary_with_large_entries(self, capsys, tmp_path, n):
        rng = random.Random(n)
        a = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
        code, payload, elapsed = timed_order_check(capsys, tmp_path, a)
        det = determinant([[Fraction(x) for x in row] for row in a])
        assert det != 0
        assert (code, payload["torsion"]) == (0, str(1 / det))
        assert payload["order_check"]["orders"] == [abs(det), 1]
        assert elapsed < 1


class TestEliminationBudget:
    def test_price_at_the_edge(self, monkeypatch):
        # rows x cols x min(rows, cols) x bits of the largest numerator or
        # denominator, summed over the maps: 2*3*2*3 + 3*1*1*1 = 39
        ranks, maps = (2, 3, 1), [[[1, Fraction(-7, 2), 0], [0, 0, 0]], [[0], [0], [1]]]
        monkeypatch.setattr(torsion_module, "MAX_ELIMINATION_WORK", 39)
        assert BasedChainComplex(ranks, maps).ranks == ranks
        monkeypatch.setattr(torsion_module, "MAX_ELIMINATION_WORK", 38)
        with pytest.raises(BudgetError, match="elimination work 39 exceeds the budget 38"):
            BasedChainComplex(ranks, maps)

    def test_shipped_edge(self):
        # 46x46 in +-1000 is accepted (about 2 s to eliminate), 47x47 is not;
        # both are priced without eliminating
        for n, accepted in ((46, True), (47, False)):
            a = [[1000 if i == j else 0 for j in range(n)] for i in range(n)]
            if accepted:
                assert BasedChainComplex((n, n), [a]).ranks == (n, n)
            else:
                with pytest.raises(BudgetError):
                    BasedChainComplex((n, n), [a])

    @pytest.mark.parametrize("order_check", [False, True])
    def test_oversized_request_exits_3_before_any_elimination(
        self, capsys, tmp_path, monkeypatch, order_check
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("eliminated before the budget check")

        for name in ("row_reduce", "determinant", "mat_mul", "invariant_factors"):
            monkeypatch.setattr(torsion_module, name, refuse)
        rng = random.Random(60)
        a = [[rng.randint(-1000, 1000) for _ in range(60)] for _ in range(60)]
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"ranks": [60, 60], "boundaries": [a]}))
        start = time.perf_counter()
        code = run(["torsion", "--complex", str(path)] + ["--order-check"] * order_check)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "budget",
            "message": "elimination work 2160000 exceeds the budget 1000000",
        }
        assert elapsed < 1


class TestOrderTheorem:
    def test_hand_cases(self):
        assert torsion_order_check(complex_5())["pass"]
        report = torsion_order_check(
            BasedChainComplex((2, 2), [[[2, 0], [0, 3]]])
        )
        assert report["pass"]
        assert report["orders"] == [6, 1]

    def test_zero_boundary_rejected(self):
        with pytest.raises(DomainError, match="^some H_i has positive rank$"):
            torsion_order_check(BasedChainComplex((1, 1), [[[0]]]))

    def test_rational_entries_rejected(self):
        with pytest.raises(DomainError):
            torsion_order_check(
                BasedChainComplex((1, 1), [[[Fraction(1, 2)]]])
            )

    def test_twenty_randomized_complexes(self):
        rng = random.Random(11)
        # ord H_i per complex, as the kernel-lattice computation gave them
        expected = [
            [225, 3, 1], [12, 1], [6, 1, 1], [1, 1], [3, 1, 1, 1],
            [1, 30, 1], [1, 1], [1, 18, 1], [18, 1], [18, 1],
            [1, 1], [10, 1], [6, 1], [25, 1], [8, 10, 1],
            [3, 1], [9, 3, 1], [3, 1, 1], [3, 1, 1], [3, 1, 3, 1],
        ]
        for trial, orders in enumerate(expected):
            report = torsion_order_check(random_acyclic_complex(rng))
            assert report["pass"], (trial, report)
            assert report["orders"] == orders, (trial, report)


class TestSesMultiplicativity:
    def test_ten_randomized_direct_sums(self):
        rng = random.Random(5)
        for trial in range(10):
            cp = random_acyclic_complex(rng)
            cpp = random_acyclic_complex(rng)
            c = direct_sum(cp, cpp)
            incl, proj = standard_sum_maps(cp, cpp, c)
            report = ses_multiplicativity_check(cp, c, cpp, incl, proj)
            assert report["abs_equal"], (trial, report)

    def test_trivial_subcomplex(self):
        cpp = complex_5()
        cp = BasedChainComplex((0, 0), [[]])
        c = direct_sum(cp, cpp)
        incl, proj = standard_sum_maps(cp, cpp, c)
        report = ses_multiplicativity_check(cp, c, cpp, incl, proj)
        assert report["abs_equal"]
        assert abs(Fraction(report["torsion_C"])) == abs(Fraction(report["torsion_Cdoubleprime"]))

    def test_not_exact_detected(self):
        cp = complex_5()
        cpp = complex_5()
        c = direct_sum(cp, cpp)
        incl, proj = standard_sum_maps(cp, cpp, c)
        # break exactness: make the projection kill everything
        bad_proj = [[[Fraction(0) for _ in r] for r in p] for p in proj]
        with pytest.raises(DomainError, match="^projection not surjective in degree 0$"):
            ses_multiplicativity_check(cp, c, cpp, incl, bad_proj)

    def test_rank_mismatch_detected(self):
        cp = complex_5()
        cpp = complex_5()
        c = direct_sum(cp, cpp)
        incl, proj = standard_sum_maps(cp, cpp, c)
        # quotient claimed to be all of C: ranks 1 + 2 != 2
        with pytest.raises(DomainError, match="^rank mismatch in degree 0$"):
            ses_multiplicativity_check(cp, c, c, incl, standard_sum_maps(cp, c, c)[1])
