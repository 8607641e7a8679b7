"""Tests for free-energy assembly and the KdV / string residual reports."""

import collections
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taubench.errors import BudgetError, DomainError
from taubench import kdv
from taubench.exact import TruncatedSeries, t_variables, weight_monomials, x_variables
from taubench.kdv import (
    MAX_FREE_ENERGY_MONOMIALS,
    FreeEnergy,
    MaskedSeries,
    assemble_free_energy,
    kdv_residual,
    mutation_report,
    string_residual,
)
from taubench.ribbon import IntersectionTable, base_table, block_indices


def status_of(report, expo):
    """Status of one monomial in a residual report's window."""
    for item in report["monomials"]:
        if item["exponents"] == list(expo):
            return item["status"]
    raise DomainError(f"{expo} outside the reliable window")


def nonzero_monomials(report) -> list[dict]:
    """The covered monomials of a residual report whose coefficient is nonzero."""
    return [item for item in report["monomials"] if item["status"] == "nonzero"]


@pytest.fixture(scope="module")
def table():
    return base_table()


@pytest.fixture(scope="module")
def free_energy(table):
    return assemble_free_energy(table)


class TestAssembly:
    def test_low_order_coefficients(self, free_energy):
        s = free_energy.series
        assert s.coefficient((3, 0, 0, 0, 0)).real == Fraction(1, 6)  # t0^3
        assert s.coefficient((0, 1, 0, 0, 0)).real == Fraction(1, 24)  # t1
        assert s.coefficient((3, 1, 0, 0, 0)).real == Fraction(1, 6)  # t0^3 t1
        assert s.coefficient((1, 0, 1, 0, 0)).real == Fraction(1, 24)  # t0 t2
        assert s.coefficient((0, 2, 0, 0, 0)).real == Fraction(1, 48)  # t1^2

    def test_dimension_forced_zeros_are_not_masked(self, free_energy):
        # t0^2: no genus satisfies 0 = 3g - 3 + 2, so the coefficient is an
        # exact zero, not a coverage gap
        assert free_energy.series.coefficient((2, 0, 0, 0, 0)).real == 0
        assert (2, 0, 0, 0, 0) not in free_energy.mask

    def test_gap_lists_missing_fragments(self, table, free_energy):
        gaps = {(g, n) for g, n, _ in free_energy.coverage_gap}
        assert (0, 5) in gaps  # t0^5 needs the 18-dart block
        assert (1, 3) in gaps
        assert not gaps & table.fragments()

    def test_empty_table_is_zero_with_full_gap(self):
        empty = IntersectionTable({})
        fe = assemble_free_energy(empty)
        assert fe.series.is_zero()
        assert empty.fragments() == set()
        # every dimension-consistent monomial in the cap is reported missing
        assert (0, 3, (0, 0, 0)) in fe.coverage_gap

    def test_provenance(self, table):
        assert table.fragments() == {(0, 3), (0, 4), (1, 1), (1, 2)}


class TestRecords:
    """What callers read of the FreeEnergy and IntersectionTable records."""

    def test_free_energy_equality_ignores_entry_monomials(self, table):
        fe = assemble_free_energy(table, cap=6)
        fields = dict(series=fe.series, mask=fe.mask, coverage_gap=fe.coverage_gap)
        other = FreeEnergy(**fields, entry_monomials={})
        assert fe.entry_monomials and other.entry_monomials == {}
        assert fe == other and not fe != other
        assert fe != FreeEnergy(**{**fields, "mask": frozenset()}, entry_monomials={})
        assert fe != FreeEnergy(**{**fields, "coverage_gap": ()}, entry_monomials={})
        assert fe != FreeEnergy(**{**fields, "series": fe.series.scale(2)}, entry_monomials={})

    def test_free_energy_is_a_masked_series(self, table):
        # F keeps only its gap and entry monomials: series, mask and cap are
        # the MaskedSeries's, so a formula runs on F itself
        fe = assemble_free_energy(table, cap=6)
        assert isinstance(fe, MaskedSeries)
        assert FreeEnergy.__slots__ == ("coverage_gap", "entry_monomials")
        assert not hasattr(fe, "cap") and fe.series.cap == 6

    def test_intersection_table_equality_is_by_entries(self, table):
        assert IntersectionTable(dict(table.entries)) == table
        assert not IntersectionTable(dict(table.entries)) != table
        assert IntersectionTable({}) == IntersectionTable({})
        changed = {**table.entries, (0, (0, 0, 0)): Fraction(2)}
        assert IntersectionTable(changed) != table
        assert IntersectionTable(entries={}).entries == {}


def _forced_genus(dsum, n):
    """Genus forced by sum(d_i) = 3g - 3 + n, or None if no genus fits."""
    num = dsum - n + 3
    if num < 0 or num % 3:
        return None
    return num // 3


def oracle_assemble_free_energy(table, max_genus=1, cap=8, max_index=4):
    """Reference assembly, the walk the block walk replaced: every t-monomial
    up to the cap, its genus derived from the dimension constraint, then a
    second pass over the table entries.  It has no budget, so every cap the
    block walk accepts can be compared."""
    names, weights, cap = t_variables(max_index, cap)
    fragments = table.fragments()
    mask = set()
    gap = []
    for expo in weight_monomials(weights, cap):
        n = sum(expo)
        if n == 0:
            continue  # F has no constant term
        g = _forced_genus(sum(i * k for i, k in enumerate(expo)), n)
        if g is None:
            continue  # dimension constraint forces an exact zero
        dtuple = tuple(
            sorted(
                itertools.chain.from_iterable([i] * k for i, k in enumerate(expo)),
                reverse=True,
            )
        )
        if g <= max_genus and (g, n) in fragments:
            if (g, dtuple) not in table.entries:
                raise DomainError(f"table fragment ({g},{n}) missing {dtuple}")
        else:
            mask.add(expo)
            gap.append((g, n, dtuple))
    terms = {}
    read = {}
    for (g, dtuple), value in table.entries.items():
        if (g > max_genus or not dtuple or max(dtuple) > max_index
                or _forced_genus(sum(dtuple), len(dtuple)) != g):
            continue  # an entry F leaves out
        expo = tuple(dtuple.count(i) for i in range(max_index + 1))
        weight = Fraction(1, math.prod(map(math.factorial, expo)))
        terms[expo] = value * weight
        if len(dtuple) <= cap:  # the series drops a monomial over the cap
            read[g, dtuple] = expo, weight
    return FreeEnergy(
        series=TruncatedSeries(names, weights, cap, terms),
        mask=frozenset(mask),
        coverage_gap=tuple(sorted(set(gap))),
        entry_monomials=read,
    )


def accepted_caps(max_index):
    """Every cap whose longest walk, C(cap + K, K + 1) monomials, fits the
    budget."""
    return itertools.takewhile(
        lambda cap: math.comb(cap + max_index, max_index + 1) <= MAX_FREE_ENERGY_MONOMIALS,
        itertools.count(),
    )


def genera(table, max_genus):
    """The table's entries of genus <= max_genus: the table base_table gives
    at that max_genus, from which F covers only those genera."""
    return IntersectionTable({key: v for key, v in table.entries.items() if key[0] <= max_genus})


@functools.lru_cache(maxsize=None)
def genus_two_table(max_darts):
    """The base table with genus 2 extracted too: (2, 1) at 18 darts."""
    return base_table(max_genus=2, max_darts=max_darts)


class TestBlockWalk:
    @pytest.mark.parametrize("largest", [None, 0, 1, 2, 3, 4])
    def test_block_indices_match_a_product_filter(self, largest):
        for g in range(4):
            for n in range(7):
                total = 3 * g - 3 + n
                top = total if largest is None else largest
                brute = [
                    d for d in itertools.product(range(top + 1), repeat=n)
                    if sum(d) == total and list(d) == sorted(d, reverse=True)
                ]
                assert block_indices(g, n, largest) == tuple(sorted(brute, reverse=True)), (g, n)

    def test_block_indices_are_memoized_and_immutable(self):
        first = block_indices(2, 3, 4)
        assert block_indices(2, 3, 4) is first
        assert isinstance(first, tuple) and all(isinstance(d, tuple) for d in first)
        with pytest.raises(AttributeError):
            first.append((0, 0, 0))
        with pytest.raises(TypeError):
            first[0] = (0, 0, 0)
        # the walk that assembles F reads the cache: equal tables each time
        table = genera(genus_two_table(12), 1)
        assert assemble_free_energy(table, 10) == assemble_free_energy(table, 10)

    @pytest.mark.parametrize("max_darts", [12, 18])
    @pytest.mark.parametrize("max_index", [1, 2, 3, 4, 5])
    def test_matches_the_all_monomial_walk(self, max_darts, max_index):
        table = genus_two_table(max_darts)
        for cap in accepted_caps(max_index):
            for max_genus in range(3):
                fe = assemble_free_energy(genera(table, max_genus), cap, max_index)
                oracle = oracle_assemble_free_energy(table, max_genus, cap, max_index)
                assert fe == oracle, (cap, max_genus)
                assert fe.entry_monomials == oracle.entry_monomials, (cap, max_genus)

    def test_the_budget_edge_at_each_index(self):
        for max_index in range(1, 6):
            cap = max(accepted_caps(max_index)) + 1
            with pytest.raises(BudgetError):
                assemble_free_energy(IntersectionTable({}), cap=cap, max_index=max_index)

    def test_a_covered_block_missing_an_entry(self, table):
        entries = dict(table.entries)
        del entries[(1, (2, 0))]  # (1, (1, 1)) keeps the block (1, 2) covered
        message = r"^table fragment \(1,2\) missing \(2, 0\)$"
        for assemble in (assemble_free_energy, oracle_assemble_free_energy):
            with pytest.raises(DomainError, match=message):
                assemble(IntersectionTable(entries))

    def test_an_entry_off_the_dimension_is_never_read(self, table):
        # sum(d) = 4 is not 3g - 3 + n = 1 in the covered block (1, 2)
        odd = IntersectionTable({**table.entries, (1, (2, 2)): Fraction(5)})
        fe = assemble_free_energy(odd, cap=10)
        assert fe == assemble_free_energy(table, cap=10) == oracle_assemble_free_energy(odd, cap=10)
        assert (1, (2, 2)) not in fe.entry_monomials
        assert mutation_report(odd, cap=10) == oracle_mutation_report(odd, cap=10)
        assert mutation_report(odd, cap=10)["g1:(2,2)"] == []

    def test_empty_table(self):
        fe = assemble_free_energy(IntersectionTable({}))
        assert fe == oracle_assemble_free_energy(IntersectionTable({}))
        assert fe.entry_monomials == {}
        assert len(fe.mask) == len(fe.coverage_gap)


def lower_cap(a, b):
    return min(a.series.cap, b.series.cap)


def all_pairs_mask(a, b):
    """Reference mask rule: every masked ea on one side plus every eb in the
    other side's terms or mask, kept when the sum's degree is <= the lower
    cap of the two sides."""
    cap = lower_cap(a, b)
    mask = set()
    for mask_side, support_side in (
        (a.mask, set(b.series.terms) | b.mask),
        (b.mask, set(a.series.terms) | a.mask),
    ):
        for ea in mask_side:
            for eb in support_side:
                expo = tuple(x + y for x, y in zip(ea, eb))
                if a.series.degree_of(expo) <= cap:
                    mask.add(expo)
    return frozenset(mask)


@st.composite
def masked_pairs(draw):
    """Two masked series over the same t-variables (weight 1) or
    x-variables (weights 1..3), each with its own cap in 0..12, so the caps
    may differ; either side may be empty."""
    family = draw(st.sampled_from(["t", "x"]))
    arity = draw(st.integers(1, 3))
    sides = []
    for _ in range(2):
        names, weights, cap = (
            t_variables(arity - 1, draw(st.integers(0, 12))) if family == "t"
            else x_variables(arity, draw(st.integers(0, 12)))
        )
        monomials = st.sampled_from(list(weight_monomials(weights, cap)))
        terms = draw(st.dictionaries(monomials, st.integers(1, 3), max_size=6))
        mask = draw(st.frozensets(monomials, max_size=6))
        sides.append(MaskedSeries(TruncatedSeries(names, weights, cap, terms), mask))
    return tuple(sides)


def _series(names, weights, cap, *expos):
    return TruncatedSeries(names, weights, cap, {e: 1 for e in expos})


class TestMaskedSeries:
    def _vars(self):
        return t_variables(1, 4)

    def test_mask_survives_addition(self):
        names, weights, cap = self._vars()
        zero = TruncatedSeries.zero(names, weights, cap)
        a = MaskedSeries(zero, frozenset({(1, 0)}))
        b = MaskedSeries(zero, frozenset({(0, 1)}))
        assert (a + b).mask == {(1, 0), (0, 1)}

    def test_mul_spreads_mask_over_support(self):
        names, weights, cap = self._vars()
        t0 = TruncatedSeries.variable(names, weights, cap, "t0")
        masked = MaskedSeries(t0, frozenset({(0, 1)}))  # t1 coeff unknown
        plain = MaskedSeries(t0 + 1, frozenset())
        prod = masked * plain
        # unknown t1 coefficient times known support {1, t0}
        assert prod.mask == {(0, 1), (1, 1)}

    def test_mul_by_certain_zero_clears_mask(self):
        names, weights, cap = self._vars()
        zero = TruncatedSeries.zero(names, weights, cap)
        masked = MaskedSeries(zero, frozenset({(1, 0)}))
        certain = MaskedSeries(zero, frozenset())
        assert (masked * certain).mask == frozenset()

    @settings(max_examples=300, deadline=None)
    @given(masked_pairs())
    # x1^2 masked times x1 and x2 (weights 1, 2): degree 3 lands on the cap,
    # degree 4 falls one past it
    @example((
        MaskedSeries(_series(("x1", "x2"), (1, 2), 3), frozenset({(2, 0)})),
        MaskedSeries(_series(("x1", "x2"), (1, 2), 3, (1, 0), (0, 1)), frozenset()),
    ))
    # a certain zero times a fully masked side
    @example((
        MaskedSeries(_series(("t0",), (1,), 2), frozenset()),
        MaskedSeries(_series(("t0",), (1,), 2), frozenset({(0,), (1,), (2,)})),
    ))
    # two unmasked sides with terms: the plain product, nothing masked
    @example((
        MaskedSeries(_series(("t0", "t1"), (1, 1), 3, (1, 0), (0, 1)), frozenset()),
        MaskedSeries(_series(("t0", "t1"), (1, 1), 3, (0, 0), (1, 1), (2, 1)), frozenset()),
    ))
    def test_mul_matches_all_pairs_reference(self, pair):
        a, b = pair
        cap = lower_cap(a, b)
        prod = a * b
        assert prod.mask == all_pairs_mask(a, b)
        assert prod.series.cap == cap
        assert prod.series == a.series.with_cap(cap) * b.series.with_cap(cap)

    @settings(max_examples=200, deadline=None)
    @given(masked_pairs())
    # caps 5 and 2: the higher side's terms and mask over degree 2 are cut
    @example((
        MaskedSeries(_series(("t0",), (1,), 5, (1,), (4,)), frozenset({(3,), (2,)})),
        MaskedSeries(_series(("t0",), (1,), 2, (0,)), frozenset({(1,)})),
    ))
    def test_sum_and_difference_at_the_lower_cap(self, pair):
        a, b = pair
        cap = lower_cap(a, b)
        union = {e for e in a.mask | b.mask if a.series.degree_of(e) <= cap}
        for result, series in (
            (a + b, a.series.with_cap(cap) + b.series.with_cap(cap)),
            (a - b, a.series.with_cap(cap) - b.series.with_cap(cap)),
        ):
            assert result.series.cap == cap
            assert result.series == series
            assert result.mask == union

    @pytest.mark.parametrize("family,arity,cap", [("t", 3, 8), ("t", 5, 12), ("x", 3, 9)])
    def test_a_slot_at_the_cap_does_not_carry(self, family, arity, cap):
        # the leading variable's slot reaches the cap: a masked exponent on
        # the cap is kept, and a product one degree past it is not
        names, weights, cap = (
            t_variables(arity - 1, cap) if family == "t" else x_variables(arity, cap)
        )
        zero = (0,) * arity

        def unit(slot, power):
            return tuple(power if i == slot else 0 for i in range(arity))

        top, last = unit(0, cap), unit(arity - 1, 1)
        one = MaskedSeries(TruncatedSeries.constant(names, weights, cap, 1), frozenset())
        masked_top = MaskedSeries(TruncatedSeries.zero(names, weights, cap), frozenset({top}))
        assert masked_top.mask == {top}
        assert (masked_top * one).mask == (one * masked_top).mask == {top}
        assert top in masked_top * one and zero not in masked_top * one
        # (cap - 1) + 1 lands on the cap; cap + 1 and cap + weight(last) do not fit
        below = MaskedSeries(
            _series(names, weights, cap, unit(0, 1), last), frozenset({unit(0, cap - 1)})
        )
        for a, b in ((below, masked_top), (masked_top, below), (below, below)):
            assert (a * b).mask == all_pairs_mask(a, b)
        assert top in (below * below).mask

    def test_diff_shifts_and_drops_mask(self):
        names, weights, cap = self._vars()
        zero = TruncatedSeries.zero(names, weights, cap)
        masked = MaskedSeries(zero, frozenset({(2, 1), (0, 1)}))
        d = masked.diff("t0")
        assert d.mask == {(1, 1)}  # the t0-free monomial differentiates away

    @pytest.mark.parametrize("family", ["t", "x"])
    def test_diff_lowers_the_cap_by_order_times_weight(self, family):
        names, weights, cap = t_variables(2, 9) if family == "t" else x_variables(3, 9)
        monomials = list(weight_monomials(weights, cap))
        series = TruncatedSeries(names, weights, cap, {e: i + 1 for i, e in enumerate(monomials)})
        masked = MaskedSeries(series, frozenset(monomials[::3]))
        for idx, (name, weight) in enumerate(zip(names, weights)):
            for order in range(4):
                d = masked.diff(name, order)
                lowered = cap - order * weight
                assert d.series.cap == lowered, (name, order)
                # the cut drops nothing: every shifted term and mask entry fits
                assert d.series.terms == series.diff(name, order).terms, (name, order)
                assert d.mask == {
                    tuple(k - order if i == idx else k for i, k in enumerate(e))
                    for e in masked.mask if e[idx] >= order
                }, (name, order)
                assert all(series.degree_of(e) <= lowered for e in d.mask), (name, order)

    def test_diff_of_a_slot_equal_to_the_order(self):
        names, weights, cap = x_variables(3, 9)
        zero = TruncatedSeries.zero(names, weights, cap)
        masked = MaskedSeries(zero, frozenset({(9, 0, 0), (1, 1, 2), (0, 1, 2), (2, 2, 0)}))
        assert masked.diff("x1", 9).mask == {(0, 0, 0)}
        assert masked.diff("x3", 2).mask == {(1, 1, 0), (0, 1, 0)}
        assert masked.diff("x2", 2).mask == {(2, 0, 0)}
        assert masked.diff("x2", 0).mask == masked.mask
        # each degree group shifts by order x weight: x3^2 drops 6
        assert (0, 1, 0) in masked.diff("x3", 2) and (0, 1, 2) not in masked.diff("x3", 2)


class TestResiduals:
    def test_zero_free_energy_gives_zero_kdv(self):
        fe = assemble_free_energy(IntersectionTable({}))
        assert kdv._masked_residual("kdv", fe).series.is_zero()

    def test_zero_free_energy_string_keeps_inhomogeneous_term(self):
        fe = assemble_free_energy(IntersectionTable({}))
        report = string_residual(fe)
        residual = kdv._masked_residual("string", fe).series
        assert residual.coefficient((2, 0, 0, 0, 0)).real == Fraction(-1, 2)
        # the missing <tau_0^3> contribution could cancel it, so the status
        # is uncovered rather than nonzero
        assert status_of(report, (2, 0, 0, 0, 0)) == "uncovered"

    def test_all_covered_kdv_coefficients_vanish(self, free_energy):
        report = kdv_residual(free_energy)
        assert nonzero_monomials(report) == []
        assert report["counts"]["verified_zero"] > 0

    def test_all_covered_string_coefficients_vanish(self, free_energy):
        report = string_residual(free_energy)
        assert nonzero_monomials(report) == []
        assert report["counts"]["verified_zero"] > 0

    def test_string_links_tau1_t0_cubed_to_tau0_cubed(self, free_energy, table):
        # the t0^2 t1 coefficient of S is (amplitude at (0,4)) - (amplitude
        # at (0,3)), both divided by 2; it is covered and verified zero
        report = string_residual(free_energy)
        assert status_of(report, (2, 1, 0, 0, 0)) == "verified_zero"
        assert table.entries[(0, (1, 0, 0, 0))] == table.entries[(0, (0, 0, 0))]

    def test_string_links_tau0_tau2_to_tau1(self, free_energy, table):
        report = string_residual(free_energy)
        assert status_of(report, (0, 0, 1, 0, 0)) == "verified_zero"
        assert table.entries[(1, (2, 0))] == table.entries[(1, (1,))]

    def test_window_guard(self, table):
        fe = assemble_free_energy(table, cap=4)
        with pytest.raises(DomainError):
            kdv_residual(fe)  # window 4 - 5 < 0

    @pytest.mark.parametrize("cap", range(5, 13))
    def test_each_window_is_the_cap_its_formula_leaves(self, table, cap):
        fe = assemble_free_energy(table, cap=cap)
        for name, report, loss in (("kdv", kdv_residual, 5), ("string", string_residual, 1)):
            residual = kdv._masked_residual(name, fe)
            assert residual.series.cap == report(fe)["window"] == cap - loss, name

    def test_a_new_formula_needs_no_window_entry(self, table, monkeypatch):
        # dF/dt1 - F: one t1-derivative, so reliable to cap - 1
        monkeypatch.setitem(kdv._RESIDUALS, "flow", lambda f: f.diff("t1") - f)
        fe = assemble_free_energy(table, cap=8)
        residual = kdv._masked_residual("flow", fe)
        assert residual.series.cap == 7
        direct = fe.series.diff("t1") - fe.series
        assert residual.series.terms == {
            e: c for e, c in direct.terms.items() if fe.series.degree_of(e) <= 7
        }
        assert kdv._classify("flow", residual)["window"] == 7

    def test_report_json_shape(self, free_energy):
        payload = kdv_residual(free_energy)
        assert payload["residual"] == "kdv"
        assert set(payload["counts"]) == {"verified_zero", "uncovered", "nonzero"}
        for item in payload["monomials"]:
            assert set(item) == {"monomial", "exponents", "status", "value"}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Residuals of the 12-dart base table: (mask size, digest of the sorted mask,
# digest of the report JSON).  Each mask is the one the all-pairs mask
# product gives at the full cap, restricted to the residual's window.
PINNED_RESIDUALS = {
    (8, "kdv"): (
        17,
        "b24909b1aae2e6f895f85ff25b9f2daa3e0b51bb82960c8e7bfeede343685ca7",
        "ce0c4366992e5d66d51766dd06be7067f1e3afb9ea7fb3a1bb5c829748c04fc8",
    ),
    (8, "string"): (
        251,
        "b450fe46b308e572c7ab3b0f1fc9f5eee67716b675abe721c9da7efb2477a3ec",
        "a9ec13b58a7d073ca90334606530429c3e81297538d081a441330373d8242fac",
    ),
    (10, "kdv"): (
        81,
        "368ffeb50db7f12cdfebf162eb1c4c4786d7358563d46203fcebf968da55b1f9",
        "9cfac7cad23c4bfe9ad3c8861b64f97e7e552bbde39e37c21f982030dea29507",
    ),
    (10, "string"): (
        643,
        "829c04635aa80bb0aa540cbe0193322da71fd1830f30a2e8f114dc7cb9cdf9ee",
        "09e2a79e79a7f23c0fe267842b5bb545f8a8ea86d77c6ea86618064cdaec6b01",
    ),
}

# The mutation report of the 12-dart base table at cap 10.
PINNED_MUTATION_CAP_TEN = {
    "g0:(0,0,0)": ["kdv:t0", "string:t0^2", "string:t0^2*t1"],
    "g0:(1,0,0,0)": ["kdv:t0", "string:t0^2*t1"],
    "g1:(1)": ["string:t2"],
    "g1:(1,1)": [],
    "g1:(2,0)": ["string:t2"],
}


class TestPinnedResiduals:
    @pytest.mark.parametrize("cap,name", sorted(PINNED_RESIDUALS))
    def test_report_and_mask(self, table, cap, name):
        residual = {"kdv": kdv_residual, "string": string_residual}[name]
        free_energy = assemble_free_energy(table, cap=cap)
        report = residual(free_energy)
        mask = kdv._masked_residual(name, free_energy).mask
        assert (len(mask), _digest(sorted(mask)), _digest(report)) == (
            PINNED_RESIDUALS[cap, name]
        )

    def test_mutation_report_at_cap_ten(self, table):
        assert mutation_report(table, cap=10) == PINNED_MUTATION_CAP_TEN


    def test_mutation_report_reads_only_the_masks(self, table, monkeypatch):
        # no per-monomial report is built: the report needs the masks alone
        def refuse(*args):
            raise AssertionError("a residual report was classified")

        monkeypatch.setattr(kdv, "_classify", refuse)
        assert mutation_report(table, cap=10) == PINNED_MUTATION_CAP_TEN


def _formula_run(name, fe):
    """The residual of the formula run on the masked F, no memo read."""
    return kdv._RESIDUALS[name](fe)


class TestResidualMemo:
    def test_the_memo_is_keyed_on_values(self, table):
        # zeroing <tau_0^3> keeps the coverage and so F's mask, yet flips a
        # covered KdV coefficient at cap 8: a memo keyed on the mask alone
        # would hand the zeroed F the primed F's residual
        primed = assemble_free_energy(table, cap=8)
        assert kdv_residual(primed)["counts"]["nonzero"] == 0
        zeroed = assemble_free_energy(
            IntersectionTable({**table.entries, (0, (0, 0, 0)): Fraction(0)}), cap=8
        )
        assert zeroed.mask == primed.mask
        assert kdv_residual(zeroed)["counts"]["nonzero"] == 1
        assert kdv._masked_residual("kdv", zeroed) == _formula_run("kdv", zeroed)

    @pytest.mark.parametrize("max_darts,max_genus,caps", [
        (12, 1, range(5, 13)),
        (18, 2, (8, 10)),
    ])
    def test_a_hit_equals_a_miss(self, max_darts, max_genus, caps):
        table = base_table(max_genus=max_genus, max_darts=max_darts)
        for cap in caps:
            fe = assemble_free_energy(table, cap)
            for name in kdv._RESIDUALS:
                expected = _formula_run(name, fe)
                kdv._residual_run.cache_clear()
                for hits in (0, 1):
                    residual = kdv._masked_residual(name, fe)
                    assert kdv._residual_run.cache_info().hits == hits
                    assert residual.series == expected.series, (cap, name, hits)
                    assert residual.mask == expected.mask, (cap, name, hits)
                    assert residual == expected, (cap, name, hits)

    def test_mutation_report_twice(self, table):
        kdv._residual_run.cache_clear()
        assert mutation_report(table, cap=10) == PINNED_MUTATION_CAP_TEN
        assert mutation_report(table, cap=10) == PINNED_MUTATION_CAP_TEN
        assert kdv._residual_run.cache_info().hits == 2

    def test_a_handed_out_mask_is_frozen(self, table):
        fe = assemble_free_energy(table, cap=8)
        expected = _formula_run("kdv", fe).mask
        residual = kdv._masked_residual("kdv", fe)
        assert isinstance(residual.mask, frozenset)
        with pytest.raises(AttributeError):
            residual.mask.add((0,) * 5)
        residual.mask = frozenset()  # rebinds the caller's object, not the memo's
        assert kdv._masked_residual("kdv", fe).mask == expected

    def test_the_memo_is_bounded(self, table):
        info = kdv._residual_run.cache_info()
        assert info.maxsize == kdv.MEMO_SIZE
        assert 0 < kdv.MEMO_SIZE < math.inf
        for value in range(kdv.MEMO_SIZE + 1):
            wrong = IntersectionTable({**table.entries, (0, (0, 0, 0)): Fraction(value)})
            kdv._masked_residual("kdv", assemble_free_energy(wrong, cap=5))
            assert kdv._residual_run.cache_info().currsize <= kdv.MEMO_SIZE
        assert kdv._residual_run.cache_info().currsize == kdv.MEMO_SIZE


class TestFormulaRuns:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Each _RESIDUALS formula wrapped to count its runs; memo cleared."""
        calls = collections.Counter()
        for name, formula in list(kdv._RESIDUALS.items()):
            def counted(f, name=name, formula=formula):
                calls[name] += 1
                return formula(f)
            monkeypatch.setitem(kdv._RESIDUALS, name, counted)
        kdv._residual_run.cache_clear()
        return calls

    def test_a_miss_runs_each_formula_once_and_a_hit_none(self, table, calls):
        fe = assemble_free_energy(table, cap=8)
        kdv_residual(fe)
        assert calls == {"kdv": 1}
        kdv_residual(fe)
        string_residual(fe)
        assert calls == {"kdv": 1, "string": 1}
        string_residual(fe)
        assert calls == {"kdv": 1, "string": 1}

    def test_mutation_runs_each_formula_once_per_entry(self, table, calls):
        mutation_report(table, cap=10)
        runs = len(table.entries) + 1  # the masked miss, then one per entry
        assert calls == {"kdv": runs, "string": runs}

    @pytest.mark.parametrize("max_darts", [12, 18])
    @pytest.mark.parametrize("name", sorted(kdv._RESIDUALS))
    def test_the_run_on_f_itself_is_the_masked_residual(self, max_darts, name):
        # F is a MaskedSeries, so the formula runs on F as it is, and the
        # memo hands out that run's series and mask
        table = genus_two_table(max_darts)
        for cap in (5, 8, 10, 12):
            fe = assemble_free_energy(table, cap)
            run = kdv._RESIDUALS[name](fe)
            residual = kdv._masked_residual(name, fe)
            assert run.series == residual.series, cap
            assert run.mask == residual.mask, cap

    def test_a_handed_out_series_is_fresh(self, table):
        fe = assemble_free_energy(table, cap=8)
        expected = _formula_run("string", fe)
        kdv._masked_residual("string", fe).series.terms.clear()
        assert kdv._masked_residual("string", fe) == expected

    def test_a_miss_builds_the_run_f_and_a_copy_and_a_hit_one_copy(self, table, monkeypatch):
        fe = assemble_free_energy(table, cap=8)
        built = []
        init = TruncatedSeries.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(TruncatedSeries, "__init__", counted)
        for name in kdv._RESIDUALS:
            built.clear()
            _formula_run(name, fe)
            run = len(built)
            kdv._residual_run.cache_clear()
            built.clear()
            miss = kdv._masked_residual(name, fe)
            # F from the memo's key, the formula's own series, then the copy
            assert len(built) == run + 2, name
            assert built[0] == fe.series and built[0] is not fe.series, name
            handed_out = [series is miss.series for series in built]
            assert handed_out == [False] * (run + 1) + [True], name
            built.clear()
            hit = kdv._masked_residual(name, fe)
            assert hit == miss and hit.series is not miss.series, name
            assert built == [hit.series], name  # the copy of the memo's terms


def kdv_terms(scales):
    """The KdV formula with its three terms dU/dt1, U dU/dt0 and
    (1/12) d^3U/dt0^3 scaled by scales."""
    def formula(f):
        u = f.diff("t0", 2)
        return (
            u.diff("t1").scale(scales[0])
            - (u * u.diff("t0")).scale(scales[1])
            - u.diff("t0", 3).scale(Fraction(scales[2], 12))
        )
    return formula


def string_terms(scales):
    """The string formula with its terms dF/dt0, t0^2/2 and each
    t_{i+1} dF/dt_i scaled by scales."""
    def formula(f):
        t0 = f.variable("t0")
        residual = f.diff("t0").scale(scales[0]) - (t0 * t0).scale(Fraction(scales[1], 2))
        for i in range(len(f.series.variables) - 1):
            residual = residual - (f.variable(f"t{i + 1}") * f.diff(f"t{i}")).scale(scales[i + 2])
        return residual
    return formula


TERMS = {"kdv": (kdv_terms, 3), "string": (string_terms, 6)}
TERM_TABLES = {"12-darts": (12, 1, 8), "18-darts-genus-2": (18, 2, 10)}
# Covered nonzero coefficients with one term scaled by 2, per term in
# formula order; a 0 is a term this coverage cannot see.
TERM_COUNTS = {
    ("kdv", "12-darts"): [1, 1, 0],
    ("kdv", "18-darts-genus-2"): [2, 2, 0],
    ("string", "12-darts"): [3, 1, 1, 1, 0, 0],
    ("string", "18-darts-genus-2"): [7, 1, 3, 3, 1, 0],
}
BLIND = {
    ("kdv", 2): (
        "the dispersive term (1/12) d^3U/dt0^3 reads no covered coefficient: its first"
        " covered monomial, t3, needs the 24-dart blocks (0,6) and (1,4)"
    ),
    ("string", 4): (
        "t3 dF/dt2 reads no covered coefficient at 12 darts; the coverage-frontier"
        " report (ROADMAP item 15) will name the blocks it needs"
    ),
    ("string", 5): (
        "t4 dF/dt3 reads no covered coefficient at 12 or 18 darts; the"
        " coverage-frontier report (ROADMAP item 15) will name the blocks it needs"
    ),
}


@functools.lru_cache(maxsize=None)
def term_table_energy(label):
    max_darts, max_genus, cap = TERM_TABLES[label]
    return assemble_free_energy(base_table(max_genus=max_genus, max_darts=max_darts), cap)


def term_cases():
    for (name, label), counts in TERM_COUNTS.items():
        for term, count in enumerate(counts):
            marks = () if count else pytest.mark.xfail(strict=True, reason=BLIND[name, term])
            yield pytest.param(name, label, term, count, marks=marks, id=f"{name}-{term}-{label}")


class TestEachTermIsSeen:
    """A residual check reads a term only if a fault in it shows: scaling
    that one term by 2 must leave a covered nonzero coefficient."""

    @pytest.mark.parametrize("label", sorted(TERM_TABLES))
    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_the_unscaled_terms_are_the_formula(self, name, label):
        variant, arity = TERMS[name]
        f = term_table_energy(label)
        run = variant([1] * arity)(f)
        expected = kdv._RESIDUALS[name](f)
        assert (run.series, run.mask) == (expected.series, expected.mask)

    @pytest.mark.parametrize("name,label,term,count", term_cases())
    def test_a_doubled_term_leaves_a_covered_nonzero(self, name, label, term, count):
        variant, arity = TERMS[name]
        scales = [1] * arity
        scales[term] = 2
        run = variant(scales)(term_table_energy(label))
        nonzero = [e for e in run.series.terms if e not in run.mask]
        assert nonzero, "a fault in this term would pass the check"
        assert len(nonzero) == count


class TestMutation:
    def test_each_reachable_entry_flips_a_covered_zero(self, table):
        report = mutation_report(table)
        assert report["g0:(0,0,0)"]
        assert report["g0:(1,0,0,0)"]
        assert report["g1:(1)"]
        assert report["g1:(2,0)"]

    def test_tau1_squared_is_structurally_invisible(self, table):
        # <tau_1 tau_1> sits in F as t1^2/48; KdV sees F only through two
        # t0-derivatives and the string residual reaches it only via the
        # t1*t2 coefficient, which needs the uncovered (1,3) block.  With
        # coverage capped at n+2g-2 <= 2 no residual can detect it.
        report = mutation_report(table)
        assert report["g1:(1,1)"] == []

    def test_kdv_flip_is_in_the_kdv_residual(self, table):
        report = mutation_report(table)
        assert any(flip.startswith("kdv:") for flip in report["g0:(0,0,0)"])


def oracle_mutation_report(table, cap=8, max_index=4):
    """Reference harness: re-assemble F and re-run both masked residuals for
    every perturbed entry, listing each covered nonzero coefficient.  The
    mask memo is cleared before each perturbed table's reports, so every
    mask comes from its formula run on that table's F."""
    out = {}
    for key in sorted(table.entries):
        g, dtuple = key
        mutated = IntersectionTable(dict(table.entries))
        mutated.entries[key] = mutated.entries[key] + 1
        fe = assemble_free_energy(mutated, cap, max_index)
        kdv._residual_run.cache_clear()
        flips = []
        for report in (kdv_residual(fe), string_residual(fe)):
            for item in nonzero_monomials(report):
                flips.append(f"{report['residual']}:{item['monomial']}")
        out[f"g{g}:({','.join(map(str, dtuple))})"] = sorted(flips)
    return out


@functools.lru_cache(maxsize=None)
def _base_entries(max_darts):
    return tuple(sorted(base_table(max_darts=max_darts).entries.items()))


@st.composite
def perturbed_tables(draw):
    """A 12- or 18-dart base table with each entry kept, set to 0, or made
    wrong, so the residuals of the table itself may have covered nonzeros."""
    entries = {}
    for key, value in _base_entries(draw(st.sampled_from([12, 18]))):
        entries[key] = draw(st.sampled_from([
            value,
            Fraction(0),
            value + draw(st.fractions(min_value=-3, max_value=3, max_denominator=6)),
        ]))
    return IntersectionTable(entries)


class TestMutationOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        perturbed_tables(),
        st.integers(5, 11),
        st.integers(0, 2),
        st.integers(1, 4),
    )
    # the 12-dart table as it is at caps 5 and 6: the window's edge degree
    # has a flip at cap 6 and a nonzero one degree past it at cap 5
    @example(IntersectionTable(dict(_base_entries(12))), 5, 1, 4)
    @example(IntersectionTable(dict(_base_entries(12))), 6, 1, 4)
    # a wrong <tau_0^3> gives the table's own F covered nonzeros, which every
    # report keeps, on the genus-0 table and also for the entries F leaves out
    # at max_index 1
    @example(
        IntersectionTable({**dict(_base_entries(12)), (0, (0, 0, 0)): Fraction(2)}),
        8, 0, 4,
    )
    @example(
        IntersectionTable({**dict(_base_entries(12)), (0, (0, 0, 0)): Fraction(2)}),
        8, 1, 1,
    )
    # the 18-dart table with one entry zeroed and one made wrong, at cap 11
    @example(
        IntersectionTable({
            **dict(_base_entries(18)),
            (0, (0, 0, 0)): Fraction(0),
            (1, (1, 1)): Fraction(1, 12),
        }),
        11, 1, 4,
    )
    def test_matches_per_entry_reassembly(self, table, cap, max_genus, max_index):
        table = genera(table, max_genus)
        assert mutation_report(table, cap, max_index) == (
            oracle_mutation_report(table, cap, max_index)
        )


class TestMutationContract:
    @pytest.mark.parametrize("cap", [4, 12])
    def test_empty_table_gives_empty_report(self, cap):
        assert mutation_report(IntersectionTable({}), cap=cap) == {}

    def test_cap_too_small_for_a_window(self, table):
        with pytest.raises(DomainError, match="^series cap too small for a reliable window$"):
            mutation_report(table, cap=4)

    def test_cap_over_the_monomial_budget(self, table):
        message = "6188 t-monomials up to degree 12 in t0..t4 exceed 5000"
        with pytest.raises(BudgetError, match=f"^{message}$"):
            mutation_report(table, cap=13)

    def test_cap_twelve_matches_the_oracle(self, table):
        # 4368 monomials in the string window, the largest cap under the budget
        assert mutation_report(table, cap=12) == oracle_mutation_report(table, cap=12)

    def test_entries_outside_f_flip_nothing(self, table):
        assert mutation_report(table, max_index=1, cap=10)["g1:(2,0)"] == []  # index 2 > 1
