"""Free-energy assembly and exact KdV / string-equation residuals.

The free energy F(t_0..t_K) is built from the (g, n) blocks, the index
tuples with sum(d_i) = 3g - 3 + n (the dimension of M_{g,n}), each walked
once: the entry (g, d) over prod k_i! is the coefficient of prod t_i^{k_i},
k_i the number of d_j equal to i.  A table never covers every block, so
every series here carries a mask of monomials whose coefficients are not
fully determined; residual coefficients are classified as verified_zero,
uncovered or nonzero accordingly.

Each residual is one formula in F, written once for a MaskedSeries.  A
MaskedSeries holds its mask as packed integers grouped by weighted degree
(one radix-(cap + 1) digit per variable), so a mask product is one integer
addition per pair of exponents whose degrees fit under the cap, and a product
of two unmasked sides is the plain product.  A mask depends on the (g, n)
fragments covered and on which covered coefficients are nonzero, so each
residual's masked run is memoized on F's mask and terms: a first request runs
each formula once, a repeated one runs none, and the mutation harness costs
one unmasked run per formula and entry.
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
MEMO_SIZE = 32  # entries kept by each memo below (assembly layouts, residual masks)


class MaskedSeries:
    """Truncated series plus the set of exponent tuples it does not determine.

    A masked exponent means "this coefficient has unknown extra
    contributions"; masked coefficients are stored as whatever partial value
    is known (usually zero) and must never be classified as verified.

    The mask is taken and returned as a frozenset of exponent tuples, but held
    packed: a tuple is one integer in radix cap + 1, slot 0 the most
    significant digit, so integer order is tuple order.  Weights are >= 1, so
    every slot of an exponent of degree <= cap is <= cap, and adding two
    packed exponents whose degrees sum to <= cap never carries: the sum packs
    the tuple sum.  The packed exponents are grouped by weighted degree.  An
    exponent over the cap says nothing about a truncated series and is
    dropped, as a term over the cap is.
    """

    __slots__ = ("series", "_places", "_groups", "_mask")

    def __init__(self, series: TruncatedSeries, mask: frozenset[Exponents]):
        self.series = series
        k = len(series.variables)
        # place value of slot i: (cap + 1)^(k - 1 - i)
        self._places = tuple((series.cap + 1) ** (k - 1 - i) for i in range(k))
        self._groups = self._grouped(mask)
        self._mask = None

    def _like(self, series: TruncatedSeries, groups: dict[int, set[int]]) -> "MaskedSeries":
        """A masked series with packed groups, over self's variables and cap."""
        out = MaskedSeries.__new__(MaskedSeries)
        out.series, out._places, out._groups, out._mask = series, self._places, groups, None
        return out

    def _grouped(self, exponents) -> dict[int, set[int]]:
        """The exponents of degree <= cap, packed and grouped by degree."""
        places, weights, cap = self._places, self.series.weights, self.series.cap
        groups: dict[int, set[int]] = {}
        for expo in exponents:
            degree = sum(map(operator.mul, expo, weights))
            if degree <= cap:
                groups.setdefault(degree, set()).add(sum(map(operator.mul, expo, places)))
        return groups

    @property
    def mask(self) -> frozenset[Exponents]:
        if self._mask is None:
            radix = self.series.cap + 1
            self._mask = frozenset(
                tuple(packed // place % radix for place in self._places)
                for group in self._groups.values()
                for packed in group
            )
        return self._mask

    def __contains__(self, expo: Exponents) -> bool:
        group = self._groups.get(self.series.degree_of(expo), ())
        return sum(map(operator.mul, expo, self._places)) in group

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MaskedSeries)
            and self.series == other.series
            and self._groups == other._groups
        )

    def __repr__(self) -> str:
        return f"MaskedSeries({self.series!r}, mask={sorted(self.mask)!r})"

    def _union(self, other: "MaskedSeries", series: TruncatedSeries) -> "MaskedSeries":
        groups = dict(self._groups)
        for degree, group in other._groups.items():
            groups[degree] = groups[degree] | group if degree in groups else group
        return self._like(series, groups)

    def __add__(self, other: "MaskedSeries") -> "MaskedSeries":
        return self._union(other, self.series + other.series)

    def __sub__(self, other: "MaskedSeries") -> "MaskedSeries":
        return self._union(other, self.series - other.series)

    def scale(self, value) -> "MaskedSeries":
        if not value:
            return self._like(self.series.scale(0), {})
        return self._like(self.series.scale(value), self._groups)

    def _support(self) -> dict[int, set[int]]:
        """Terms and mask, packed and grouped by degree."""
        support = self._grouped(self.series.terms)
        for degree, group in self._groups.items():
            support.setdefault(degree, set()).update(group)
        return support

    def __mul__(self, other: "MaskedSeries") -> "MaskedSeries":
        """Product; its mask is every ea + eb of degree <= cap with ea masked
        on one side and eb in the other side's support (terms or mask).

        Degrees add, so only the degree pairs under the cap are visited: the
        cost is the number of pairs that fit, not |mask| x |support|, each
        pair one integer addition.
        """
        series = self.series * other.series
        if not (self._groups or other._groups):
            return self._like(series, {})
        cap = series.cap
        groups: dict[int, set[int]] = {}
        for masked, support in (
            (self._groups, other._support()),
            (other._groups, self._support()),
        ):
            for da, group_a in masked.items():
                for db, group_b in support.items():
                    if da + db > cap:
                        continue
                    few, many = sorted((group_a, group_b), key=len)
                    acc = groups.setdefault(da + db, set())
                    for packed in few:
                        acc.update(map(packed.__add__, many))
        return self._like(series, groups)

    def variable(self, name: str) -> "MaskedSeries":
        """The variable `name`, unmasked, over self's variables and cap."""
        s = self.series
        return self._like(TruncatedSeries.variable(s.variables, s.weights, s.cap, name), {})

    def diff(self, name: str, order: int = 1) -> "MaskedSeries":
        """Each degree group shifts down by order * weight(name); an exponent
        with fewer than `order` powers of `name` differentiates away."""
        series = self.series.diff(name, order)
        idx = series.variables.index(name)
        place, radix = self._places[idx], series.cap + 1
        drop, step = order * series.weights[idx], order * place
        groups = {}
        for degree, group in self._groups.items():
            shifted = {packed - step for packed in group if packed // place % radix >= order}
            if shifted:
                groups[degree - drop] = shifted
        return self._like(series, groups)


class FreeEnergy:
    """Assembled free energy: the series, the monomials it leaves undetermined
    (mask, from the (g, n, d) of coverage_gap) and each entry's monomial.
    Two are equal when their series, masks and gaps are."""

    __slots__ = ("series", "mask", "coverage_gap", "entry_monomials")

    def __init__(
        self,
        series: TruncatedSeries,
        mask: frozenset[Exponents],
        coverage_gap: tuple[tuple[int, int, tuple[int, ...]], ...],  # missing (g,n,d)
        # (g, d) of each entry read -> (prod t_i^{k_i}, 1 / prod k_i!); not compared
        entry_monomials: dict,
    ):
        self.series, self.mask, self.coverage_gap = series, mask, coverage_gap
        self.entry_monomials = entry_monomials

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeEnergy):
            return NotImplemented
        return (self.series, self.mask, self.coverage_gap) == (
            other.series, other.mask, other.coverage_gap
        )

    def __repr__(self) -> str:
        return (
            f"FreeEnergy(series={self.series!r}, mask={self.mask!r},"
            f" coverage_gap={self.coverage_gap!r})"
        )

    @property
    def cap(self) -> int:
        return self.series.cap


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
    table: IntersectionTable,
    max_genus: int = 1,
    cap: int = DEFAULT_CAP,
    max_index: int = DEFAULT_MAX_INDEX,
) -> FreeEnergy:
    """Build F from each block (g, n) with n <= cap and indices <= max_index.
    A covered block (g <= max_genus, (g, n) in the table) writes its entries;
    any other block's monomials are masked and listed in the coverage gap (no
    exception: the gap report is the contract, no finite table covers all)."""
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
        covered = g <= max_genus and (g, n) in fragments
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
        series=TruncatedSeries(names, weights, cap, terms),
        mask=frozenset(mask),
        coverage_gap=tuple(sorted(gap)),
        entry_monomials=read,
    )


def _classify(name: str, residual: MaskedSeries, window: int) -> dict:
    """The residual report: a status per monomial inside the reliable window,
    and the count of each status."""
    series = residual.series
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
    """S = dF/dt0 - t0^2/2 - sum_i t_{i+1} dF/dt_i."""
    residual = f.diff("t0") - (f.variable("t0") * f.variable("t0")).scale(Fraction(1, 2))
    for i in range(len(f.series.variables) - 1):
        residual = residual - f.variable(f"t{i + 1}") * f.diff(f"t{i}")
    return residual


# residual -> (formula, loss): a coefficient of degree d draws on F up to
# degree d + loss, so the residual is reliable to cap - loss.  KdV loses 5:
# two t0-derivatives into U, then up to three more.
_RESIDUALS = {"kdv": (_kdv_formula, 5), "string": (_string_formula, 1)}


class _Handoff:
    """A value passed into and out of a memoized call beside its key: every
    handoff equals every other and hashes alike, so it never splits a key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Handoff)

    def __hash__(self) -> int:
        return 0


@functools.lru_cache(maxsize=MEMO_SIZE)
def _residual_run(name: str, mask, terms, family, handoff: _Handoff) -> tuple:
    """One residual run on the masked F over family = (variables, weights,
    cap), frozen: its terms and its (degree, packed group) pairs.  Keyed on
    F's values too, as a zero coefficient widens no product's mask.  F's
    series (terms as a dict) comes in through the handoff, and the run's own
    series goes out through it."""
    run = _RESIDUALS[name][0](MaskedSeries(handoff.value, mask))
    handoff.value = run.series
    return tuple(run.series.terms.items()), tuple((d, frozenset(g)) for d, g in run._groups.items())


def _masked_residual(name: str, free_energy: FreeEnergy) -> tuple[int, MaskedSeries]:
    """(window, residual) from the memoized run (_residual_run): a miss hands
    out the run's own series, a hit a fresh copy of the memo's terms, each
    with the memo's frozen groups; a negative window is refused before the
    formula runs."""
    window = free_energy.cap - _RESIDUALS[name][1]
    if window < 0:
        raise DomainError("series cap too small for a reliable window")
    f = free_energy.series
    family = (f.variables, f.weights, f.cap)
    handoff = _Handoff(f)
    terms, groups = _residual_run(
        name, free_energy.mask, frozenset(f.terms.items()), family, handoff
    )
    series, handoff.value = handoff.value, None  # a miss keys the memo on this handoff
    if series is f:  # a hit: the formula did not run
        series = TruncatedSeries(*family, dict(terms))
    return window, MaskedSeries(series, frozenset())._like(series, dict(groups))


def kdv_residual(free_energy: FreeEnergy) -> dict:
    """The report (_classify) of the KdV residual R of F in the window
    cap - 5; higher degrees would be truncation artifacts."""
    window, residual = _masked_residual("kdv", free_energy)
    return _classify("kdv", residual, window)


def string_residual(free_energy: FreeEnergy) -> dict:
    """The report (_classify) of the string residual S of F, reliable to
    cap - 1."""
    window, residual = _masked_residual("string", free_energy)
    return _classify("string", residual, window)


def mutation_report(
    table: IntersectionTable,
    max_genus: int = 1,
    cap: int = DEFAULT_CAP,
    max_index: int = DEFAULT_MAX_INDEX,
) -> dict:
    """Perturb each table entry by +1 and record, per entry, every covered
    coefficient of the KdV or the string residual that is nonzero.

    The masks and windows come from the two masked residuals of the table's
    own F (memoized on its mask and values, _residual_run); no per-monomial
    report is built.  An entry moves the one F coefficient the assembly
    recorded for it by its weight, so each entry costs one unmasked run per
    formula."""
    if not table.entries:
        return {}
    fe = assemble_free_energy(table, max_genus, cap, max_index)
    bases = [
        (name, formula, *_masked_residual(name, fe))
        for name, (formula, _) in _RESIDUALS.items()
    ]
    out = {}
    for key in sorted(table.entries):
        f = fe.series
        if key in fe.entry_monomials:
            f = f + TruncatedSeries(f.variables, f.weights, f.cap, dict([fe.entry_monomials[key]]))
        unmasked = MaskedSeries(f, frozenset())
        out[entry_key(*key)] = sorted(
            f"{name}:{monomial_name(f.variables, expo)}"
            for name, formula, window, masked in bases
            for expo in formula(unmasked).series.terms
            if f.degree_of(expo) <= window and expo not in masked
        )
    return out
