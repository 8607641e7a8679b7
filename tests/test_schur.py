"""Tests for Schur polynomials, Hirota operators and KP verification.

Independent oracles:
- schur_lambda (characters by Murnaghan-Nakayama) is cross-checked against
  the Jacobi-Trudi determinant det(S_{p_i - i + j}), expanded over all m!
  permutations, and its characters against row orthogonality;
- S_k is cross-checked against the recurrence k S_k = sum_j j x_j S_{k-j}
  obtained by differentiating the generating function in z;
- hirota_apply, the generic multi-index Hirota operator kept here, is
  cross-checked against a literal shift expansion of f(x+u) g(x-u) followed
  by u-derivatives at u = 0, and the written-out kp_hirota_residual against
  both, summed over the three operators of the member;
- dual Jacobi-Trudi S_{(1^k)}(x) = S_k(x_1, -x_2, x_3, -x_4, ...).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubench.errors import DegenerateSlice, DomainError
from taubench.exact import TruncatedSeries, t_variables, weight_monomials, x_variables
from taubench.schur import (
    Partition,
    _character,
    kp_checks,
    kp_hirota_residual,
    kp_pde_residual,
    partitions_of,
    restrict_to_xyt,
    schur_lambda,
)


def _series_env(max_index=3, cap=4):
    return x_variables(max_index, cap)


def elementary_schur(k: int, max_index: int) -> TruncatedSeries:
    """S_k with S_0 = 1 and S_k = 0 for k < 0, in x_1..x_{max_index}: the
    weight-k part of exp(sum_j x_j) = prod_j sum_m x_j^m / m!."""
    names, weights, cap = x_variables(max_index, max(k, 1))
    if k > 0 and max_index < k:
        raise DomainError(f"need x-variables up to index {k}")
    terms = {
        expo: Fraction(1, math.prod(map(math.factorial, expo)))
        for expo in weight_monomials(weights, k)
        if sum(e * w for e, w in zip(expo, weights)) == k
    }
    return TruncatedSeries(names, weights, cap, terms)


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def jacobi_trudi(p: Partition) -> TruncatedSeries:
    """det(S_{p_i - i + j}) over x_1..x_|p|, expanded over all m! permutations."""
    size = p.size
    names, weights, cap = x_variables(size, size)
    m = len(p.parts)

    def entry(i, j):
        k = p.parts[i] - (i + 1) + (j + 1)
        return TruncatedSeries(names, weights, cap, elementary_schur(k, size).terms)

    det = TruncatedSeries.zero(names, weights, cap)
    for perm in itertools.permutations(range(m)):
        term = TruncatedSeries.constant(names, weights, cap, _permutation_sign(perm))
        for i in range(m):
            term = term * entry(i, perm[i])
        det = det + term
    return det


@dataclass(frozen=True)
class HirotaOperator:
    """Multi-exponent a over x_1, x_2, ...; D^a acts on ordered pairs f, g."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        expo = tuple(int(a) for a in self.exponents)
        if any(a < 0 for a in expo):
            raise DomainError("Hirota exponents must be nonnegative")
        object.__setattr__(self, "exponents", expo)


def hirota_apply(op: HirotaOperator, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """D^a f.g = sum_{b <= a} prod C(a_i, b_i) (-1)^{|a - b|} d^b f d^{a-b} g."""
    if f.variables != g.variables or f.weights != g.weights:
        raise DomainError("f and g must share a variable family")
    if len(op.exponents) > len(f.variables):
        raise DomainError("operator touches variables beyond the family")
    cap = f.cap + g.cap  # products may exceed either input cap
    f = f.with_cap(cap)
    g = g.with_cap(cap)
    a = op.exponents
    result = TruncatedSeries.zero(f.variables, f.weights, cap)
    for b in itertools.product(*(range(ai + 1) for ai in a)):
        coeff = (-1) ** (sum(a) - sum(b)) * math.prod(map(math.comb, a, b))
        df, dg = f, g
        for idx, (ai, bi) in enumerate(zip(a, b)):
            if bi:
                df = df.diff(f.variables[idx], bi)
            if ai - bi:
                dg = dg.diff(g.variables[idx], ai - bi)
        result = result + (df * dg).scale(coeff)
    return result


# (D_1^4 + 3 D_2^2 - 4 D_1 D_3) as (scalar, operator) terms
KP_HIROTA_MEMBER = (
    (1, HirotaOperator((4,))),
    (3, HirotaOperator((0, 2))),
    (-4, HirotaOperator((1, 0, 1))),
)


def generic_kp_member(tau: TruncatedSeries, apply=hirota_apply) -> TruncatedSeries:
    """The first KP member summed term by term with `apply(op, tau, tau)`, on
    tau padded to x_1..x_3 as kp_hirota_residual pads it."""
    if len(tau.variables) < 3:
        tau = restrict_to_xyt(tau)
    total = TruncatedSeries.zero(tau.variables, tau.weights, 2 * tau.cap)
    for scalar, op in KP_HIROTA_MEMBER:
        total = total + apply(op, tau, tau).scale(scalar)
    return total


def shift_oracle(op: HirotaOperator, f: TruncatedSeries, g: TruncatedSeries):
    """D^a f.g by expanding f(x+u) g(x-u) and differentiating in u at 0."""
    m = len(f.variables)
    cap = f.cap + g.cap
    names = f.variables + tuple(f"u{i+1}" for i in range(m))
    weights = f.weights + f.weights
    big = lambda: TruncatedSeries.zero(names, weights, 2 * cap)  # noqa: E731

    def shifted(series, sign):
        total = big()
        for expo, coeff in series.terms.items():
            term = TruncatedSeries.constant(names, weights, 2 * cap, coeff)
            for idx, e in enumerate(expo):
                x = TruncatedSeries.variable(names, weights, 2 * cap, names[idx])
                u = TruncatedSeries.variable(names, weights, 2 * cap, names[m + idx])
                term = term * (x + u.scale(sign)) ** e
            total = total + term
        return total

    prod = shifted(f, 1) * shifted(g, -1)
    for idx, a in enumerate(op.exponents):
        if a:
            prod = prod.diff(names[m + idx], a)
    # set u = 0: keep terms with zero exponents in every u slot
    kept = {
        expo[:m]: coeff
        for expo, coeff in prod.terms.items()
        if not any(expo[m:])
    }
    return TruncatedSeries(f.variables, f.weights, cap, kept)


def small_polys():
    names, weights, cap = _series_env()

    def build(coeffs):
        monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 0, 0)]
        return TruncatedSeries(names, weights, cap, dict(zip(monos, coeffs)))

    qs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)
    return st.builds(build, st.tuples(qs, qs, qs, qs, qs, qs))


def polys_in_few_variables(max_cap=5):
    """Nonzero polynomials in x_1..x_k, 1 <= k <= 5, with up to five terms."""

    @st.composite
    def build(draw):
        names, weights, cap = x_variables(draw(st.integers(1, 5)), draw(st.integers(0, max_cap)))
        monomials = list(weight_monomials(weights, cap))
        picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True))
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
        return TruncatedSeries(names, weights, cap, {e: draw(coeffs) for e in picked})

    return build()


class TestElementarySchur:
    def test_s0_and_negative(self):
        assert elementary_schur(0, 3).constant_term().real == 1
        assert elementary_schur(-2, 3).is_zero()

    def test_s1(self):
        s1 = elementary_schur(1, 3)
        assert s1.coefficient((1, 0, 0)).real == 1
        assert len(s1.terms) == 1

    def test_s3_frozen(self):
        s3 = elementary_schur(3, 3)
        assert s3.coefficient((0, 0, 1)).real == 1  # x3
        assert s3.coefficient((1, 1, 0)).real == 1  # x1 x2
        assert s3.coefficient((3, 0, 0)).real == Fraction(1, 6)  # x1^3/6
        assert len(s3.terms) == 3

    @pytest.mark.parametrize("k", range(1, 7))
    def test_newton_recurrence(self, k):
        # k S_k = sum_{j=1}^k j x_j S_{k-j}, from d/dz of the generating fn
        names, weights, cap = x_variables(k, k)
        rhs = TruncatedSeries.zero(names, weights, cap)
        for j in range(1, k + 1):
            xj = TruncatedSeries.variable(names, weights, cap, f"x{j}")
            s = elementary_schur(k - j, k)
            rhs = rhs + (xj * TruncatedSeries(names, weights, cap, s.terms)).scale(j)
        lhs = elementary_schur(k, k).scale(k)
        assert lhs == rhs

    def test_homogeneous_of_weight_k(self):
        s4 = elementary_schur(4, 4)
        assert all(s4.degree_of(e) == 4 for e in s4.terms)


class TestSchurLambda:
    def test_single_row_is_elementary(self):
        assert schur_lambda(Partition((1,))).coefficient((1,)).real == 1
        s2 = schur_lambda(Partition((2,)))
        assert s2.coefficient((2, 0)).real == Fraction(1, 2)
        assert s2.coefficient((0, 1)).real == 1

    def test_column_frozen(self):
        s11 = schur_lambda(Partition((1, 1)))
        assert s11.coefficient((2, 0)).real == Fraction(1, 2)
        assert s11.coefficient((0, 1)).real == -1

    @pytest.mark.parametrize("k", range(1, 5))
    def test_dual_column_row(self, k):
        # S_{(1^k)}(x1, x2, x3, ...) = S_k(x1, -x2, x3, -x4, ...)
        column = schur_lambda(Partition((1,) * k))
        row = elementary_schur(k, k)
        twisted = {
            expo: coeff * Fraction((-1) ** sum(e for i, e in enumerate(expo) if i % 2))
            for expo, coeff in row.terms.items()
        }
        twisted_series = TruncatedSeries(row.variables, row.weights, row.cap, twisted)
        assert TruncatedSeries(
            column.variables, column.weights, column.cap, twisted_series.terms
        ) == column

    @pytest.mark.parametrize("size", range(1, 7))
    def test_matches_jacobi_trudi(self, size):
        for p in partitions_of(size):
            assert schur_lambda(p) == jacobi_trudi(p)

    @pytest.mark.parametrize("size", range(1, 7))
    def test_character_row_orthogonality(self, size):
        # sum_mu chi^lambda(mu)^2 / z_mu = 1, z_mu = prod_j j^{m_j} m_j!
        for p in partitions_of(size):
            beads = tuple(part + i for i, part in enumerate(reversed(p.parts)))
            memo, total = {}, Fraction(0)
            for mu in partitions_of(size):
                z = math.prod(
                    j ** mu.parts.count(j) * math.factorial(mu.parts.count(j))
                    for j in range(1, size + 1)
                )
                total += Fraction(_character(beads, mu.parts, memo) ** 2, z)
            assert total == 1

    def test_empty_partition_is_one(self):
        names, weights, cap = x_variables(1, 1)
        assert schur_lambda(Partition(())) == TruncatedSeries.constant(names, weights, cap, 1)

    def test_partition_validation(self):
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((2, 0))

    def test_partitions_of(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]
        assert partitions_of(0) == []


class TestHirota:
    @given(small_polys())
    @settings(max_examples=25, deadline=None)
    def test_odd_operator_kills_diagonal(self, f):
        for op in (HirotaOperator((1,)), HirotaOperator((1, 1, 1)), HirotaOperator((0, 0, 3))):
            assert hirota_apply(op, f, f).is_zero()

    @given(small_polys(), small_polys())
    @settings(max_examples=20, deadline=None)
    def test_matches_shift_oracle(self, f, g):
        for op in (HirotaOperator((2,)), HirotaOperator((1, 1)), HirotaOperator((0, 0, 1))):
            assert hirota_apply(op, f, g) == shift_oracle(op, f, g)

    def test_d1_squared_on_x1(self):
        names, weights, cap = _series_env()
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        # four-term expansion f''g - 2f'g' + fg'' at f = g = x1 gives -2
        result = hirota_apply(HirotaOperator((2,)), x1, x1)
        assert result.constant_term().real == -2
        assert result == shift_oracle(HirotaOperator((2,)), x1, x1)

    def test_kp_member_on_constants(self):
        names, weights, cap = _series_env()
        one = TruncatedSeries.constant(names, weights, cap, 1)
        assert kp_hirota_residual(one).is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            HirotaOperator((1, -1))

    @pytest.mark.parametrize("size", range(0, 10))
    def test_kp_member_matches_generic_operators_on_schur(self, size):
        for p in partitions_of(size) or [Partition(())]:
            tau = schur_lambda(p)
            assert kp_hirota_residual(tau) == generic_kp_member(tau)

    @pytest.mark.parametrize("size", range(0, 6))
    def test_kp_member_matches_shift_oracle_on_schur(self, size):
        for p in partitions_of(size) or [Partition(())]:
            tau = schur_lambda(p)
            assert kp_hirota_residual(tau) == generic_kp_member(tau, shift_oracle)

    @given(polys_in_few_variables())
    @settings(max_examples=60, deadline=None)
    def test_kp_member_matches_generic_operators(self, tau):
        assert kp_hirota_residual(tau) == generic_kp_member(tau)

    @given(polys_in_few_variables(max_cap=3))
    @settings(max_examples=25, deadline=None)
    def test_kp_member_matches_shift_oracle(self, tau):
        assert kp_hirota_residual(tau) == generic_kp_member(tau, shift_oracle)

    def test_kp_member_keeps_a_non_x_family(self):
        # positional: the first three variables play x, y, t whatever their names
        names, weights, cap = t_variables(3, 4)
        t = {name: TruncatedSeries.variable(names, weights, cap, name) for name in names}
        tau = t["t0"] * t["t0"] + t["t1"] * t["t3"] + t["t2"]
        residual = kp_hirota_residual(tau)
        assert (residual.variables, residual.weights, residual.cap) == (names, weights, 8)
        assert residual == generic_kp_member(tau) == generic_kp_member(tau, shift_oracle)
        assert not residual.is_zero()


class TestKP:
    def test_schur_21_solves_both(self):
        tau = schur_lambda(Partition((2, 1)))
        assert kp_hirota_residual(tau).is_zero()
        assert kp_pde_residual(tau).is_zero()

    def test_x1_squared_fails_both(self):
        names, weights, cap = x_variables(3, 2)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        tau = x1 * x1
        hirota = kp_hirota_residual(tau)
        assert hirota.constant_term().real == 24
        assert not kp_pde_residual(tau).is_zero()

    def test_tau_x1_hand_case(self):
        # u = -2/x1^2 is y- and t-independent and (3/2)u u_x + (1/4)u_xxx = 0
        names, weights, cap = x_variables(1, 1)
        tau = TruncatedSeries.variable(names, weights, cap, "x1")
        assert kp_pde_residual(tau).is_zero()

    def test_schur_22_with_constant(self):
        tau = schur_lambda(Partition((2, 2)))
        assert kp_pde_residual(tau).is_zero()
        assert kp_hirota_residual(tau).is_zero()

    def test_degenerate_slice(self):
        # x1 x4 - x1 vanishes on the slice x4 = 1
        names, weights, cap = x_variables(4, 5)
        x1, x4 = (TruncatedSeries.variable(names, weights, cap, name) for name in ("x1", "x4"))
        with pytest.raises(DegenerateSlice):
            kp_pde_residual(x1 * x4 - x1)

    def test_zero_tau_rejected(self):
        names, weights, cap = x_variables(3, 2)
        with pytest.raises(DomainError):
            kp_hirota_residual(TruncatedSeries.zero(names, weights, cap))

    @pytest.mark.parametrize("size", range(1, 6))
    def test_equivalence_on_schur_orbit(self, size):
        for p in partitions_of(size):
            report = kp_checks(schur_lambda(p))
            assert report == {"hirota_zero": True, "pde_zero": True, "agree": True}

    def test_default_slice_sets_x4_to_one(self):
        # tau = x1^2/2 + x2 x4 is s_(2) at x4 = 1 and x1^2/2 at x4 = 0
        names, weights, cap = x_variables(4, 6)
        x = {name: TruncatedSeries.variable(names, weights, cap, name) for name in names}
        tau = (x["x1"] * x["x1"]).scale(Fraction(1, 2)) + x["x2"] * x["x4"]
        assert kp_checks(tau)["pde_zero"]
        assert kp_pde_residual(tau).is_zero()
        # the x4 = 0 restriction, x1^2/2 in x1..x3, by hand
        names, weights, cap = x_variables(3, 6)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        assert not kp_pde_residual((x1 * x1).scale(Fraction(1, 2))).is_zero()
