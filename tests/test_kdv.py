"""Tests for free-energy assembly and the KdV / string residual reports."""

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
    for item in report.entries:
        if item["exponents"] == list(expo):
            return item["status"]
    raise DomainError(f"{expo} outside the reliable window")


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

    def test_gap_lists_missing_fragments(self, free_energy):
        gaps = {(g, n) for g, n, _ in free_energy.coverage_gap}
        assert (0, 5) in gaps  # t0^5 needs the 18-dart block
        assert (1, 3) in gaps
        assert not gaps & free_energy.provenance

    def test_empty_table_is_zero_with_full_gap(self):
        fe = assemble_free_energy(IntersectionTable({}))
        assert fe.series.is_zero()
        assert fe.provenance == frozenset()
        # every dimension-consistent monomial in the cap is reported missing
        assert (0, 3, (0, 0, 0)) in fe.coverage_gap

    def test_provenance(self, free_energy):
        assert free_energy.provenance == {(0, 3), (0, 4), (1, 1), (1, 2)}


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
    provenance = table.fragments()
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
        if g <= max_genus and (g, n) in provenance:
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
        provenance=frozenset(provenance),
        coverage_gap=tuple(sorted(set(gap))),
        max_index=max_index,
        cap=cap,
        entry_monomials=read,
    )


def accepted_caps(max_index):
    """Every cap whose longest walk, C(cap + K, K + 1) monomials, fits the
    budget."""
    return itertools.takewhile(
        lambda cap: math.comb(cap + max_index, max_index + 1) <= MAX_FREE_ENERGY_MONOMIALS,
        itertools.count(),
    )


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
                assert block_indices(g, n, largest) == sorted(brute, reverse=True), (g, n)

    @pytest.mark.parametrize("max_darts", [12, 18])
    @pytest.mark.parametrize("max_index", [1, 2, 3, 4, 5])
    def test_matches_the_all_monomial_walk(self, max_darts, max_index):
        table = genus_two_table(max_darts)
        for cap in accepted_caps(max_index):
            for max_genus in range(3):
                fe = assemble_free_energy(table, max_genus, cap, max_index)
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


def all_pairs_mask(a, b):
    """Reference mask rule: every masked ea on one side plus every eb in the
    other side's terms or mask, kept when the sum's degree is <= cap."""
    series = a.series * b.series
    mask = set()
    for mask_side, support_side in (
        (a.mask, set(b.series.terms) | b.mask),
        (b.mask, set(a.series.terms) | a.mask),
    ):
        for ea in mask_side:
            for eb in support_side:
                expo = tuple(x + y for x, y in zip(ea, eb))
                if series.degree_of(expo) <= series.cap:
                    mask.add(expo)
    return frozenset(mask)


@st.composite
def masked_pairs(draw):
    """Two compatible masked series over t-variables (weight 1) or
    x-variables (weights 1..3), caps 0..12; either side may be empty."""
    family = draw(st.sampled_from(["t", "x"]))
    arity = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 12))
    names, weights, cap = (
        t_variables(arity - 1, cap) if family == "t" else x_variables(arity, cap)
    )
    monomials = st.sampled_from(list(weight_monomials(weights, cap)))
    sides = []
    for _ in range(2):
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
    def test_mul_matches_all_pairs_reference(self, pair):
        a, b = pair
        prod = a * b
        assert prod.mask == all_pairs_mask(a, b)
        assert prod.series == a.series * b.series

    @pytest.mark.parametrize("family,arity,cap", [("t", 3, 8), ("t", 5, 12), ("x", 3, 9)])
    def test_a_slot_at_the_cap_does_not_carry(self, family, arity, cap):
        # the leading variable's slot reaches the cap, the largest digit the
        # packed form holds; one more would carry into the slot before it
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
        assert kdv_residual(fe).series.is_zero()

    def test_zero_free_energy_string_keeps_inhomogeneous_term(self):
        fe = assemble_free_energy(IntersectionTable({}))
        report = string_residual(fe)
        assert report.series.coefficient((2, 0, 0, 0, 0)).real == Fraction(-1, 2)
        # the missing <tau_0^3> contribution could cancel it, so the status
        # is uncovered rather than nonzero
        assert status_of(report, (2, 0, 0, 0, 0)) == "uncovered"

    def test_all_covered_kdv_coefficients_vanish(self, free_energy):
        report = kdv_residual(free_energy)
        assert report.covered_nonzero() == []
        assert report.counts()["verified_zero"] > 0

    def test_all_covered_string_coefficients_vanish(self, free_energy):
        report = string_residual(free_energy)
        assert report.covered_nonzero() == []
        assert report.counts()["verified_zero"] > 0

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

    def test_report_json_shape(self, free_energy):
        payload = kdv_residual(free_energy).to_json()
        assert payload["residual"] == "kdv"
        assert set(payload["counts"]) == {"verified_zero", "uncovered", "nonzero"}
        for item in payload["monomials"]:
            assert set(item) == {"monomial", "exponents", "status", "value"}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Residuals of the 12-dart base table, computed with the all-pairs mask
# product: (mask size, digest of the sorted mask, digest of the report JSON).
PINNED_RESIDUALS = {
    (8, "kdv"): (
        414,
        "ba6b5f810f5832a89138329c0cc5ab93660b74eafc3c392a2428fcb6f6577fea",
        "ce0c4366992e5d66d51766dd06be7067f1e3afb9ea7fb3a1bb5c829748c04fc8",
    ),
    (8, "string"): (
        412,
        "54d7b81ba0e386443e37a07a810c91bfca3b5e2baa7478f8e4f3da4e72990c3c",
        "a9ec13b58a7d073ca90334606530429c3e81297538d081a441330373d8242fac",
    ),
    (10, "kdv"): (
        965,
        "7eb9ce0613d6cacd0e4621019d461a5b027ac18cb2f1134f1586c1f7649c53cc",
        "9cfac7cad23c4bfe9ad3c8861b64f97e7e552bbde39e37c21f982030dea29507",
    ),
    (10, "string"): (
        966,
        "0048e3de496c55f1f36a8385c714d1e2ae3441603939030628f0e036a99fed9e",
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
        report = residual(assemble_free_energy(table, cap=cap))
        mask = report.residual.mask
        assert (len(mask), _digest(sorted(mask)), _digest(report.to_json())) == (
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


def oracle_mutation_report(table, max_genus=1, cap=8, max_index=4):
    """Reference harness: re-assemble F and re-run both masked residuals for
    every perturbed entry, listing each covered nonzero coefficient."""
    out = {}
    for key in sorted(table.entries):
        g, dtuple = key
        mutated = IntersectionTable(dict(table.entries))
        mutated.entries[key] = mutated.entries[key] + 1
        fe = assemble_free_energy(mutated, max_genus, cap, max_index)
        flips = []
        for report in (kdv_residual(fe), string_residual(fe)):
            for item in report.covered_nonzero():
                flips.append(f"{report.name}:{item['monomial']}")
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
    # report keeps, also for the genus-1 entries F leaves out at max_genus 0
    @example(
        IntersectionTable({**dict(_base_entries(12)), (0, (0, 0, 0)): Fraction(2)}),
        8, 0, 4,
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
        assert mutation_report(table, max_genus, cap, max_index) == (
            oracle_mutation_report(table, max_genus, cap, max_index)
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
        assert mutation_report(table, max_genus=0, cap=10)["g1:(1)"] == []  # genus 1 > 0
        assert mutation_report(table, max_index=1, cap=10)["g1:(2,0)"] == []  # index 2 > 1
