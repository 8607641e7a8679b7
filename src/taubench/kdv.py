"""Free-energy assembly and exact KdV / string-equation residuals.

The free energy F(t_0..t_K) is a MaskedSeries built from the (g, n) blocks,
the index tuples with sum(d_i) = 3g - 3 + n (the dimension of M_{g,n}), each
walked once: the entry (g, d) over prod k_i! is the coefficient of prod
t_i^{k_i}, k_i the number of d_j equal to i.  A block is covered when the
table has it (the table chose its genera); no table covers every block, so
F masks the monomials of the others, whose coefficients are not determined,
and residual coefficients are classified as verified_zero, uncovered or
nonzero accordingly.

Each residual is one formula in F, written once for a MaskedSeries, whose
cap is the degree it is reliable to: a derivative lowers it, and a sum or a
product runs at the lower cap of its sides, so a residual's window is its
cap.  A mask depends on the (g, n) fragments covered and on which covered
coefficients are nonzero, so each residual's masked run is memoized on F's
mask and terms: a first request runs each formula once, a repeated one runs
none, and the mutation harness costs one unmasked run per formula and entry.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import BudgetError, DomainError
from .exact import (
    Exponents,
    TruncatedSeries,
    monomial_name,
    t_variables,
    weight_monomials,
)
from .ribbon import IntersectionTable, block_indices, entry_key

DEFAULT_CAP = 8
DEFAULT_MAX_INDEX = 4
# Most t-monomials in the longest walk, the string window: degree <= cap - 1
# in t_0..t_K, C(cap + K, K + 1).  With K = 4 that is 1287 at cap 9, 3003 at
# cap 11 and 4368 at cap 12; cap 13 (6188) is refused.
MAX_FREE_ENERGY_MONOMIALS = 5000
MEMO_SIZE = 32  # entries per memo below (assembly layouts; residual runs, keyed on F's values)


class MaskedSeries:
    """Truncated series, reliable to its cap, plus the set of exponent tuples
    (of degree <= cap) it does not determine.

    A masked exponent means "this coefficient has unknown extra
    contributions"; masked coefficients are stored as whatever partial value
    is known (usually zero) and must never be classified as verified.  A
    derivative lowers the cap by order x weight, and a sum or product runs at
    the lower cap of its sides, so a formula's result is reliable to its cap.
    """

    __slots__ = ("series", "mask")

    def __init__(self, series: TruncatedSeries, mask: frozenset[Exponents]):
        self.series, self.mask = series, mask

    def __contains__(self, expo: Exponents) -> bool:
        return expo in self.mask

    def __eq__(self, other) -> bool:
        return isinstance(other, MaskedSeries) and (self.series, self.mask) == (
            other.series, other.mask
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.series!r}, mask={sorted(self.mask)!r})"

    def _mask_to(self, cap: int) -> frozenset[Exponents]:
        """The mask cut to cap, which is at most this side's own."""
        if cap == self.series.cap:
            return self.mask
        return frozenset(e for e in self.mask if self.series.degree_of(e) <= cap)

    def __add__(self, other: "MaskedSeries") -> "MaskedSeries":
        series = self.series + other.series
        return MaskedSeries(series, self._mask_to(series.cap) | other._mask_to(series.cap))

    def __sub__(self, other: "MaskedSeries") -> "MaskedSeries":
        series = self.series - other.series
        return MaskedSeries(series, self._mask_to(series.cap) | other._mask_to(series.cap))

    def scale(self, value) -> "MaskedSeries":
        return MaskedSeries(self.series.scale(value), self.mask if value else frozenset())

    def __mul__(self, other: "MaskedSeries") -> "MaskedSeries":
        """Product at the lower cap; its mask is every ea + eb of degree <=
        cap with ea masked on one side and eb in the other side's support
        (terms or mask).  Degrees add, so each support is bucketed by degree
        once and a masked ea visits only the buckets that fit under the cap,
        so neither side's mask needs a cut; two unmasked sides give the plain
        product."""
        series = self.series * other.series
        cap = series.cap
        mask: set[Exponents] = set()
        for masked, other_side in ((self.mask, other), (other.mask, self)):
            if not masked:
                continue
            buckets: dict[int, list[Exponents]] = {}
            for eb in other_side.series.terms.keys() | other_side.mask:
                buckets.setdefault(series.degree_of(eb), []).append(eb)
            for ea in masked:
                room = cap - series.degree_of(ea)
                for degree, group in buckets.items():
                    if degree <= room:
                        mask.update(tuple(map(operator.add, ea, eb)) for eb in group)
        return MaskedSeries(series, frozenset(mask))

    def variable(self, name: str) -> "MaskedSeries":
        """The variable `name`, unmasked, over self's variables and cap."""
        s = self.series
        variable = TruncatedSeries.variable(s.variables, s.weights, s.cap, name)
        return MaskedSeries(variable, frozenset())

    def diff(self, name: str, order: int = 1) -> "MaskedSeries":
        """The derivative, reliable to cap - order * weight(name).  A masked
        exponent loses `order` powers of `name`; one with fewer
        differentiates away.  Every term of the derivative already lies at
        or below the lowered cap, so the fresh series takes it in place."""
        series = self.series.diff(name, order)
        idx = series.variables.index(name)
        series.cap -= order * series.weights[idx]
        mask = frozenset(
            e[:idx] + (e[idx] - order,) + e[idx + 1:] for e in self.mask if e[idx] >= order
        )
        return MaskedSeries(series, mask)


class FreeEnergy(MaskedSeries):
    """Assembled free energy: a MaskedSeries whose mask holds the monomials
    of the missing (g, n, d) in coverage_gap; it adds only that gap and each
    entry's monomial.  Two are equal when their series, masks and gaps are."""

    __slots__ = ("coverage_gap", "entry_monomials")

    def __init__(
        self,
        series: TruncatedSeries,
        mask: frozenset[Exponents],
        coverage_gap: tuple[tuple[int, int, tuple[int, ...]], ...],  # missing (g,n,d)
        # (g, d) of each entry read -> (prod t_i^{k_i}, 1 / prod k_i!); not compared
        entry_monomials: dict,
    ):
        super().__init__(series, mask)
        self.coverage_gap, self.entry_monomials = coverage_gap, entry_monomials

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeEnergy):
            return NotImplemented
        return super().__eq__(other) and self.coverage_gap == other.coverage_gap


@functools.lru_cache(maxsize=MEMO_SIZE)
def _assembly_layout(cap: int, max_index: int) -> tuple:
    """(g, n, blocks) for each (g, n) with n <= cap, in walk order; blocks
    pairs each index tuple of block_indices(g, n, max_index) with its
    exponent prod t_i^{k_i}.  The weights are left to the few entries read:
    a cold process would pay a Fraction per masked monomial."""
    return tuple(
        (g, n, tuple(
            (dtuple, tuple(dtuple.count(i) for i in range(max_index + 1)))
            for dtuple in block_indices(g, n, max_index)
        ))
        for n in range(1, cap + 1)
        for g in range((max_index - 1) * n // 3 + 2)  # 3g - 3 + n <= max_index * n
    )


def assemble_free_energy(
    table: IntersectionTable, cap: int = DEFAULT_CAP, max_index: int = DEFAULT_MAX_INDEX
) -> FreeEnergy:
    """Build F from each block (g, n) with n <= cap and indices <= max_index.
    A covered block ((g, n) in the table; the table chose its genera) writes
    its entries; any other block's monomials are masked and listed in the
    coverage gap (no exception: the gap report is the contract, no finite
    table covers all)."""
    monomials = math.comb(cap + max_index, max_index + 1)
    if monomials > MAX_FREE_ENERGY_MONOMIALS:
        raise BudgetError(
            f"{monomials} t-monomials up to degree {cap - 1} in t0..t{max_index}"
            f" exceed {MAX_FREE_ENERGY_MONOMIALS}"
        )
    names, weights, cap = t_variables(max_index, cap)
    fragments = table.fragments()
    terms, read, mask, gap = {}, {}, set(), []
    for g, n, blocks in _assembly_layout(cap, max_index):
        covered = (g, n) in fragments
        for dtuple, expo in blocks:
            if not covered:
                mask.add(expo)
                gap.append((g, n, dtuple))
            elif (g, dtuple) not in table.entries:
                raise DomainError(f"table fragment ({g},{n}) missing {dtuple}")
            else:
                weight = Fraction(1, math.prod(map(math.factorial, expo)))
                read[g, dtuple] = expo, weight
                terms[expo] = table.entries[g, dtuple] * weight
    return FreeEnergy(
        TruncatedSeries(names, weights, cap, terms), frozenset(mask), tuple(sorted(gap)), read
    )


def _classify(name: str, residual: MaskedSeries) -> dict:
    """The residual report: a status per monomial of degree <= the residual's
    cap, its reliable window, and the count of each status."""
    series = residual.series
    window = series.cap
    counts = {"verified_zero": 0, "uncovered": 0, "nonzero": 0}
    monomials = []
    for expo in sorted(
        weight_monomials(series.weights, window), key=lambda e: (series.degree_of(e), e)
    ):
        coeff = series.coefficient(expo)
        if expo in residual:
            status = "uncovered"
        elif coeff:
            status = "nonzero"
        else:
            status = "verified_zero"
        counts[status] += 1
        monomials.append(
            {
                "monomial": monomial_name(series.variables, expo),
                "exponents": list(expo),
                "status": status,
                "value": str(coeff),
            }
        )
    return {"residual": name, "window": window, "counts": counts, "monomials": monomials}


def _kdv_formula(f):
    """R = dU/dt1 - U dU/dt0 - (1/12) d^3U/dt0^3 with U = d^2F/dt0^2."""
    u = f.diff("t0", 2)
    return u.diff("t1") - u * u.diff("t0") - u.diff("t0", 3).scale(Fraction(1, 12))


def _string_formula(f):
    """S = dF/dt0 - t0^2/2 - sum_i t_{i+1} dF/dt_i, with dF/dt0 taken once."""
    d0 = f.diff("t0")
    residual = d0 - (f.variable("t0") * f.variable("t0")).scale(Fraction(1, 2))
    for i in range(len(f.series.variables) - 1):
        residual = residual - f.variable(f"t{i + 1}") * (f.diff(f"t{i}") if i else d0)
    return residual


# residual -> formula; its derivatives set its window, the cap it leaves: KdV's
# is cap - 5 (two t0-derivatives into U, then up to three more), string's cap - 1
_RESIDUALS = {"kdv": _kdv_formula, "string": _string_formula}


@functools.lru_cache(maxsize=MEMO_SIZE)
def _residual_run(name: str, mask, terms, family) -> tuple:
    """One residual run on the masked F built from its frozen key, over
    family = (variables, weights, cap), frozen: its cap, its terms and its
    mask.  Keyed on F's values too: they are the run's input, and a zero
    coefficient widens no product's mask."""
    run = _RESIDUALS[name](MaskedSeries(TruncatedSeries(*family, dict(terms)), mask))
    return run.series.cap, tuple(run.series.terms.items()), run.mask


def _masked_residual(name: str, free_energy: FreeEnergy) -> MaskedSeries:
    """The residual from the memoized run (_residual_run); its cap, the
    degree its formula leaves reliable, is its window, and a negative one is
    refused.  Every call, hit or miss, gets a fresh series of the memo's
    terms with the memo's frozen mask."""
    f = free_energy.series
    window, terms, mask = _residual_run(
        name, free_energy.mask, frozenset(f.terms.items()), (f.variables, f.weights, f.cap)
    )
    if window < 0:
        raise DomainError("series cap too small for a reliable window")
    return MaskedSeries(TruncatedSeries(f.variables, f.weights, window, dict(terms)), mask)


def kdv_residual(free_energy: FreeEnergy) -> dict:
    """The report (_classify) of the KdV residual R of F, reliable to
    cap - 5; higher degrees would be truncation artifacts."""
    return _classify("kdv", _masked_residual("kdv", free_energy))


def string_residual(free_energy: FreeEnergy) -> dict:
    """The report (_classify) of the string residual S of F, reliable to
    cap - 1."""
    return _classify("string", _masked_residual("string", free_energy))


def mutation_report(
    table: IntersectionTable, cap: int = DEFAULT_CAP, max_index: int = DEFAULT_MAX_INDEX
) -> dict:
    """Perturb each table entry by +1 and record, per entry, every covered
    coefficient of the KdV or the string residual that is nonzero.

    The masks come from the two masked residuals of the table's own F
    (memoized on its mask and values, _residual_run), and each formula's run
    stops at its own window; no per-monomial report is built.  An entry
    moves the one F coefficient the assembly recorded for it by its weight,
    so each entry costs one unmasked run per formula."""
    if not table.entries:
        return {}
    fe = assemble_free_energy(table, cap, max_index)
    bases = [
        (name, formula, _masked_residual(name, fe).mask)
        for name, formula in _RESIDUALS.items()
    ]
    out = {}
    for key in sorted(table.entries):
        f = fe.series
        if key in fe.entry_monomials:
            f = f + TruncatedSeries(f.variables, f.weights, f.cap, dict([fe.entry_monomials[key]]))
        unmasked = MaskedSeries(f, frozenset())
        out[entry_key(*key)] = sorted(
            f"{name}:{monomial_name(f.variables, expo)}"
            for name, formula, masked in bases
            for expo in formula(unmasked).series.terms
            if expo not in masked
        )
    return out
