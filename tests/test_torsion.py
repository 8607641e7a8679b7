"""Tests for chain-complex torsion, Smith normal form, and the
order-of-homology and multiplicativity checks.

Independent oracles: permutation-expansion determinants; Smith form is
certified by re-multiplying the transforms (U A V = D, |det U| = |det V| =
1, divisibility chain); torsion hand evaluations per the alternating
determinant definition.
"""

import itertools
import random
from fractions import Fraction

import pytest

from taubench.errors import (
    DomainError,
    InvalidComplex,
    NotAcyclic,
    NotExact,
    NotRationallyAcyclic,
)
from taubench.torsion import (
    BasedChainComplex,
    determinant,
    direct_sum,
    is_acyclic,
    random_acyclic_complex,
    ses_multiplicativity_check,
    smith_normal_form,
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
        with pytest.raises(InvalidComplex):
            BasedChainComplex((1, 1, 1), [[[1]], [[1]]])

    def test_shape_enforced(self):
        with pytest.raises(DomainError):
            BasedChainComplex((1, 2), [[[1]]])

    @pytest.mark.parametrize("payload", [{"ranks": [1]}, [1, 2]])
    def test_malformed_json_rejected(self, payload):
        with pytest.raises(DomainError):
            BasedChainComplex.from_json(payload)

    def test_json_roundtrip(self):
        c = BasedChainComplex((1, 2, 1), [[[0, 1]], [[1], [0]]])
        assert BasedChainComplex.from_json(c.to_json()).to_json() == c.to_json()


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
        with pytest.raises(NotAcyclic):
            torsion(BasedChainComplex((1, 1), [[[0]]]))

    def test_direct_sum_multiplies_up_to_sign(self):
        rng = random.Random(17)
        for _ in range(5):
            cp = random_acyclic_complex(rng)
            cpp = random_acyclic_complex(rng)
            total = torsion(direct_sum(cp, cpp))
            assert abs(total) == abs(torsion(cp) * torsion(cpp))

    def test_lift_invariance(self):
        rng = random.Random(23)
        for _ in range(5):
            c = random_acyclic_complex(rng)
            base = torsion(c)
            for seed in range(10):
                assert torsion(c, random.Random(seed)) == base

    def test_based_change_scales_by_unimodular_det(self):
        # swap the C_0 basis of the rank-2 identity complex: P has det -1
        c = BasedChainComplex(
            (2, 2), [[[0, 1], [1, 0]]]
        )
        assert torsion(c) == -1


class TestSmith:
    def verify(self, a):
        snf = smith_normal_form(a)
        rows, cols = len(a), len(a[0]) if a else 0
        u = [[Fraction(x) for x in row] for row in snf.U]
        v = [[Fraction(x) for x in row] for row in snf.V]
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        prod = [
            [
                sum(
                    u[i][k] * a[k][l] * v[l][j]
                    for k in range(rows)
                    for l in range(cols)
                )
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        d = list(snf.invariant_factors)
        for i in range(rows):
            for j in range(cols):
                expected = d[i] if i == j and i < len(d) else 0
                assert prod[i][j] == expected
        for x, y in zip(d, d[1:]):
            assert y % x == 0
        assert all(x > 0 for x in d)
        return snf

    def test_frozen_examples(self):
        assert self.verify([[2, 0], [0, 3]]).invariant_factors == (1, 6)
        assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == ()
        assert self.verify([[5]]).invariant_factors == (5,)

    def test_randomized_certification(self):
        rng = random.Random(9)
        for _ in range(15):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            self.verify(a)

    def test_det_preserved_for_nonsingular(self):
        rng = random.Random(13)
        found = 0
        while found < 8:
            a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            d = det_oracle([[Fraction(x) for x in row] for row in a])
            if d == 0:
                continue
            product = 1
            for f in smith_normal_form(a).invariant_factors:
                product *= f
            assert product == abs(d)
            found += 1


class TestOrderTheorem:
    def test_hand_cases(self):
        assert torsion_order_check(complex_5())["pass"]
        report = torsion_order_check(
            BasedChainComplex((2, 2), [[[2, 0], [0, 3]]])
        )
        assert report["pass"]
        assert report["orders"] == [6, 1]

    def test_zero_boundary_rejected(self):
        with pytest.raises(NotRationallyAcyclic):
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
        with pytest.raises(NotExact):
            ses_multiplicativity_check(cp, c, cpp, incl, bad_proj)

    def test_rank_mismatch_detected(self):
        cp = complex_5()
        cpp = complex_5()
        c = direct_sum(cp, cpp)
        incl, proj = standard_sum_maps(cp, cpp, c)
        # quotient claimed to be all of C: ranks 1 + 2 != 2
        with pytest.raises(NotExact):
            ses_multiplicativity_check(cp, c, c, incl, standard_sum_maps(cp, c, c)[1])
