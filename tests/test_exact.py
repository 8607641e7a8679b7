"""Tests for the exact arithmetic substrate.

The one row reduction, `row_reduce`, is checked against oracles that share
no code with it: ranks and pivot columns from permutation-expansion minors,
and particular solutions by multiplying them back out.
"""

import itertools
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubench.errors import DomainError, InconsistentSystem, RankDeficient
from taubench.exact import (
    MAX_RATIONAL_DIGITS,
    TruncatedSeries,
    determinant,
    double_factorial,
    monomial_name,
    rational_to_str,
    rational_rank,
    row_reduce,
    solve_linear_exact,
    t_variables,
    to_rational,
    weight_monomials,
    x_variables,
)
from taubench.fock import (
    GR_I,
    CohomologyData,
    GaussianRational,
    OscillatorParams,
    fock_space,
    oscillator_virasoro,
    target_space,
    target_virasoro_build,
)
from taubench.kdv import _masked_residual, assemble_free_energy
from taubench.ribbon import IntersectionTable, base_table
from taubench.schur import Partition, schur_lambda
from taubench.torsion import _particular_solution

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def gaussians():
    return st.builds(GaussianRational, fractions, fractions)


class TestRationalStr:
    def test_integer_omits_denominator(self):
        assert rational_to_str(Fraction(-7)) == "-7"

    def test_fraction(self):
        assert rational_to_str(Fraction(3, 4)) == "3/4"

    @given(fractions)
    def test_roundtrip(self, q):
        assert Fraction(rational_to_str(q)) == q


class TestToRational:
    @pytest.mark.parametrize(
        "x, value",
        [
            (3, 3), ("-3/4", Fraction(-3, 4)), (" 1.5 ", Fraction(3, 2)), ("2e3", 2000),
            ("1e-999", Fraction(1, 10**999)), ("9" * 1000, 10**1000 - 1),
            (Fraction(1, 10**1000 - 1), Fraction(1, 10**1000 - 1)),
        ],
    )
    def test_accepts_up_to_the_digit_bound(self, x, value):
        assert MAX_RATIONAL_DIGITS == 1000
        assert to_rational(x) == value

    @pytest.mark.parametrize(
        "x",
        [
            "1e300000", "1E-300000", "1e1001", "1e-1001", "-5e+3000000",
            "1" * 1001, "1/" + "7" * 1001, "0" * 1001, "1e" + "9" * 5000,
            10**1000, -(10**1000), Fraction(1, 10**1000), Fraction(10**1000, 3),
            "9" * 600 + "e600",
        ],
    )
    def test_refuses_over_the_digit_bound_at_once(self, x):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="over 1000 digits"):
            to_rational(x)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("x", ["x", "1/0", "1e", "e5", "", 0.5, True, None, [1]])
    def test_refuses_what_is_not_a_rational(self, x):
        with pytest.raises(DomainError):
            to_rational(x)


class TestDoubleFactorial:
    def test_table(self):
        assert [double_factorial(n) for n in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]

    def test_below_domain(self):
        with pytest.raises(DomainError):
            double_factorial(-3)


class TestGaussianRational:
    @given(gaussians(), gaussians(), gaussians())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a

    def test_i_squared(self):
        assert GR_I * GR_I == -1

    @given(st.one_of(st.integers(-50, 50), fractions), gaussians())
    def test_real_parts_mix_with_rationals(self, a, g):
        real = GaussianRational(a, 0)
        assert real == a and a == real
        assert hash(real) == hash(a)
        assert a * g == g * a
        assert a + g == g + a


def assert_rational(coeffs):
    coeffs = list(coeffs)
    assert coeffs, "no coefficient was checked"
    assert all(isinstance(c, (int, Fraction)) for c in coeffs), coeffs


def apply(op, p: TruncatedSeries) -> TruncatedSeries:
    """The operator op on the series p: its image numerators over D."""
    family = (p.variables, p.weights, p.cap)
    return TruncatedSeries(*family, op.image(family, p.terms)).scale(Fraction(1, op.denominator))


class TestOnlyFockIsComplex:
    """Q(i) is born only at the i*lambda terms of the oscillator L_k: every
    real layer keeps int or Fraction coefficients."""

    def test_free_energy_and_residuals(self):
        # the shipped table's residuals vanish in their windows; a wrong
        # <tau_0^3> leaves coefficients in both to check
        wrong = IntersectionTable({**base_table().entries, (0, (0, 0, 0)): Fraction(2)})
        fe = assemble_free_energy(wrong, cap=6)
        residuals = [_masked_residual(name, fe).series for name in ("kdv", "string")]
        for series in [fe.series, *residuals]:
            assert_rational(series.terms.values())

    def test_schur_lambda(self):
        for parts in [(1,), (2, 1), (3, 2, 1)]:
            assert_rational(schur_lambda(Partition(parts)).terms.values())

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_target_operators(self, n):
        data = CohomologyData(
            eta=[[0, 1], [1, 0]],
            cmat=[[0, 0], [1, 0]],
            b=[Fraction(-1, 2), Fraction(1, 2)],
            b_raised=[Fraction(-1, 2), Fraction(1, 2)],
        )
        names, weights, cap = target_space(data, 5, 8)
        op = target_virasoro_build(data, n, 5)
        coeffs = []
        for expo in weight_monomials(weights, 2):
            coeffs += apply(op, TruncatedSeries(names, weights, cap, {expo: 1})).terms.values()
        assert_rational(coeffs)

    def test_oscillator_closure_at_lambda_zero(self):
        params = OscillatorParams(mu=Fraction(1, 2))
        names, weights, cap = fock_space(8)
        ops = [oscillator_virasoro(k, params, cap) for k in range(-2, 3)]
        coeffs = [scalar for op in ops for scalar, _, _ in op.terms]
        for expo in weight_monomials(weights, 2):
            p = TruncatedSeries(names, weights, cap, {expo: 1})
            for l_m, l_n in itertools.product(ops, ops):
                coeffs += apply(l_m, apply(l_n, p)).terms.values()
        assert_rational(coeffs)


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, truncated at its cap."""
    if s.constant_term():
        raise DomainError("exp requires zero constant term")
    result = TruncatedSeries.constant(s.variables, s.weights, s.cap, 1)
    if s.is_zero():
        return result
    power = result
    factorial = 1
    for k in range(1, s.cap // max(1, s.min_degree()) + 1):
        power = power * s
        factorial *= k
        result = result + power.scale(Fraction(1, factorial))
    return result


def _series(cap=6):
    names, weights, c = t_variables(2, cap)
    return names, weights, c


@st.composite
def series_pairs(draw):
    """Two series over the same t-variables (weight 1) or x-variables
    (weights 1..3), each with its own cap in 0..12, so the caps may differ."""
    family = draw(st.sampled_from([t_variables, x_variables]))
    arity = draw(st.integers(1, 3))
    max_index = arity - 1 if family is t_variables else arity
    pair = []
    for _ in range(2):
        names, weights, cap = family(max_index, draw(st.integers(0, 12)))
        monomials = st.sampled_from(list(weight_monomials(weights, cap)))
        pair.append(TruncatedSeries(
            names, weights, cap, draw(st.dictionaries(monomials, fractions, max_size=8))
        ))
    return tuple(pair)


class TestTruncatedSeries:
    @settings(max_examples=300, deadline=None)
    @given(series_pairs())
    def test_unequal_caps_combine_at_the_lower(self, pair):
        a, b = pair
        cap = min(a.cap, b.cap)
        for op in (operator.add, operator.sub, operator.mul):
            result = op(a, b)
            assert result.cap == cap, op
            assert result == op(a.with_cap(cap), b.with_cap(cap)), op

    def test_differing_variables_or_weights_do_not_combine(self):
        names, weights, cap = _series()
        a = TruncatedSeries.variable(names, weights, cap, "t0")
        others = [
            TruncatedSeries.variable(("s0", "t1", "t2"), weights, cap, "t1"),
            TruncatedSeries.variable(names, (1, 2, 1), cap, "t1"),
            TruncatedSeries.variable(names[:2], weights[:2], cap, "t1"),
        ]
        for b in others:
            for op in (operator.add, operator.sub, operator.mul):
                for left, right in ((a, b), (b, a)):
                    with pytest.raises(DomainError, match="incompatible series"):
                        op(left, right)

    def test_equal_terms_at_different_caps_differ(self):
        names, weights, cap = _series()
        a = TruncatedSeries.variable(names, weights, cap, "t0")
        b = a.with_cap(cap + 1)
        assert a.terms == b.terms
        assert a != b and b != a
        assert a == b.with_cap(cap)

    def test_a_sum_or_difference_builds_one_series(self, monkeypatch):
        # other's terms fold into a copy of self's: no negated series first
        names, weights, cap = x_variables(3, 6)
        x1, x2 = (TruncatedSeries.variable(names, weights, cap, v) for v in ("x1", "x2"))
        a = (x1 + 1) * (x2 + Fraction(1, 2))
        pairs = [(a, x1 * x2), (a, a), (a, (x1 * x1).with_cap(3)), (x2.with_cap(2), a)]
        expected = [(left + (-right), left - right) for left, right in pairs]
        built = []
        init = TruncatedSeries.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(TruncatedSeries, "__init__", counted)
        for (left, right), (plus_negated, _) in zip(pairs, expected):
            for op in (operator.add, operator.sub):
                built.clear()
                result = op(left, right)
                assert built == [result], op
            assert result == plus_negated
        assert [difference.is_zero() for _, difference in expected] == [False, True, False, False]

    def test_cap_drops_terms(self):
        names, weights, cap = _series(cap=2)
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        assert (t0 * t0 * t0).is_zero()

    def test_mul_matches_hand_product(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        t1 = TruncatedSeries.variable(names, weights, cap, "t1")
        prod = (t0 + t1) * (t0 - t1)
        assert prod == t0 * t0 - t1 * t1

    def test_diff_power_rule(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        cubed = t0**3
        assert cubed.diff("t0") == (t0 * t0).scale(3)
        assert cubed.diff("t0", 3) == TruncatedSeries.constant(names, weights, cap, 6)

    def test_exp_log_roundtrip(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        t1 = TruncatedSeries.variable(names, weights, cap, "t1")
        s = t0.scale(Fraction(1, 3)) + t1 * t1 - t0 * t1 * t0
        assert series_exp(s).log() == s

    def test_exp_requires_zero_constant(self):
        names, weights, cap = _series()
        one = TruncatedSeries.constant(names, weights, cap, 1)
        with pytest.raises(DomainError):
            series_exp(one)

    def test_exp_is_multiplicative(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        t1 = TruncatedSeries.variable(names, weights, cap, "t1")
        assert series_exp(t0 + t1) == series_exp(t0) * series_exp(t1)

    def test_weighted_grading(self):
        names, weights, cap = x_variables(3, 3)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        x3 = TruncatedSeries.variable(names, weights, cap, "x3")
        # weight(x3) = 3, so x1*x3 exceeds the cap of 3
        assert (x1 * x3).is_zero()
        assert not (x1**3).is_zero()

    def test_json_roundtrip(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        s = (t0 * t0).scale(GaussianRational(Fraction(2, 7), Fraction(-1, 3))) + 5
        terms = {
            tuple(item["exponents"]): GaussianRational(
                Fraction(item["coeff_re"]), Fraction(item["coeff_im"])
            )
            for item in s.to_json()
        }
        assert TruncatedSeries(names, weights, cap, terms) == s

    @given(st.integers(min_value=0, max_value=5))
    def test_pow_matches_repeated_mul(self, n):
        names, weights, cap = _series()
        s = TruncatedSeries.variable(names, weights, cap, "t0") + 1
        expected = TruncatedSeries.constant(names, weights, cap, 1)
        for _ in range(n):
            expected = expected * s
        assert s**n == expected

    def test_repr_names_monomials(self):
        names, weights, cap = _series()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        t2 = TruncatedSeries.variable(names, weights, cap, "t2")
        s = (t0 * t0 * t2).scale(GaussianRational(Fraction(1, 2), Fraction(-1))) + 5 + t2
        assert repr(s) == "<series (5) + (1)*t2 + (1/2+-1i)*t0^2*t2>"


class TestMonomials:
    def test_monomial_name(self):
        assert monomial_name(("t0", "t1", "t2"), (2, 0, 1)) == "t0^2*t2"
        assert monomial_name(("t0", "t1"), (0, 0)) == "1"

    def test_weight_monomials_lexicographic_and_complete(self):
        weights = (1, 2, 3)
        window = list(weight_monomials(weights, 4))
        assert window == sorted(window)
        every = [
            e for e in itertools.product(range(5), repeat=3)
            if sum(k * w for k, w in zip(e, weights)) <= 4
        ]
        assert sorted(every) == window
        assert list(weight_monomials(weights, -1)) == []


class TestSolveLinearExact:
    @given(
        st.lists(fractions, min_size=3, max_size=3),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=30)
    def test_recovers_planted_solution(self, x, spread):
        # Vandermonde rows are exactly independent at distinct nodes
        nodes = [Fraction(k + 1, spread) for k in range(5)]
        a = [[node**j for j in range(3)] for node in nodes]
        y = [sum(row[j] * x[j] for j in range(3)) for row in a]
        assert solve_linear_exact(a, y) == x

    def test_inconsistent_reports_residual(self):
        a = [[Fraction(1)], [Fraction(1)]]
        with pytest.raises(InconsistentSystem) as err:
            solve_linear_exact(a, [Fraction(1), Fraction(2)])
        assert err.value.residual != 0

    def test_rank_deficient(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(RankDeficient):
            solve_linear_exact(a, [Fraction(1), Fraction(2)])

    def test_rational_rank(self):
        rows = [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(0)],
        ]
        assert rational_rank(rows) == 2


# ---------------------------------------------------------------------------
# row_reduce against independent oracles
# ---------------------------------------------------------------------------


def minor_det(m):
    """Permutation-expansion determinant."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(
            perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def rank_oracle(rows, ncols):
    """Size of the largest nonzero minor among the first ncols columns."""
    for k in range(min(len(rows), ncols), 0, -1):
        for r in itertools.combinations(range(len(rows)), k):
            for c in itertools.combinations(range(ncols), k):
                if minor_det([[rows[i][j] for j in c] for i in r]):
                    return k
    return 0


# small entries with many zeros, so rank-deficient matrices are common
entries = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)]
)


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
        )
    )


class TestRowReduce:
    @given(matrices())
    @settings(max_examples=60)
    def test_rank_is_largest_nonzero_minor(self, a):
        assert rational_rank(a) == rank_oracle(a, len(a[0]))

    @given(matrices())
    @settings(max_examples=60)
    def test_pivots_are_leftmost_independent_columns(self, a):
        expected = [
            c for c in range(len(a[0])) if rank_oracle(a, c + 1) > rank_oracle(a, c)
        ]
        assert row_reduce(a)[1] == expected

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=60)
    def test_determinant_is_permutation_expansion(self, a):
        assert determinant(a) == minor_det(a)

    @given(matrices(), st.data())
    @settings(max_examples=60)
    def test_particular_solution_solves_consistent_systems(self, a, data):
        cols = len(a[0])
        k = data.draw(st.integers(1, 3))
        planted = data.draw(
            st.lists(st.lists(entries, min_size=k, max_size=k), min_size=cols, max_size=cols)
        )
        rhs = [
            [sum((row[i] * planted[i][j] for i in range(cols)), Fraction(0)) for j in range(k)]
            for row in a
        ]
        x = _particular_solution(a, rhs)
        assert [
            [sum((row[i] * x[i][j] for i in range(cols)), Fraction(0)) for j in range(k)]
            for row in a
        ] == rhs
        pivots = row_reduce(a)[1]
        assert all(not any(x[i]) for i in range(cols) if i not in pivots)

    def test_inconsistent_residual_is_pinned(self):
        # residuals as the elimination reports them for the last zero row
        cases = [
            ([[1, 2], [3, 4], [5, 6]], [1, 2, 4], Fraction(1)),
            (
                [[Fraction(1, 2), 1], [1, Fraction(1, 3)], [2, 3]],
                [1, Fraction(2, 5), 7],
                Fraction(99, 25),
            ),
        ]
        for a, y, residual in cases:
            with pytest.raises(InconsistentSystem) as err:
                solve_linear_exact(a, y)
            assert err.value.residual == residual

    @pytest.mark.parametrize(
        "a", [[[1, 2], [3]], [[1], [2, 3]]], ids=["short-last", "short-first"]
    )
    def test_ragged_input_rejected(self, a):
        with pytest.raises(DomainError):
            solve_linear_exact(a, [1, 2])
