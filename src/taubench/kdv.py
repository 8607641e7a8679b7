"""Free-energy assembly and exact KdV / string-equation residuals.

The free energy F(t_0..t_K) is built from the (g, n) blocks, the index
tuples with sum(d_i) = 3g - 3 + n (the dimension of M_{g,n}), each walked
once: the entry (g, d) over prod k_i! is the coefficient of prod t_i^{k_i},
k_i the number of d_j equal to i.  A table never covers every block, so
every series here carries a mask of monomials whose coefficients are not
fully determined; residual coefficients are classified as verified_zero,
uncovered or nonzero accordingly.

Each residual is one formula in F, run on a MaskedSeries or a plain series.
A MaskedSeries holds its mask as packed integers grouped by weighted degree
(one radix-(cap + 1) digit per variable), so a mask product is one integer
addition per pair of exponents whose degrees fit under the cap.  Masks
depend only on the (g, n) fragments covered, not on entry values, so the
mutation harness computes the two residual masks once and reads nothing
else of them; an entry costs one plain residual per formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class FreeEnergy:
    """Assembled free energy with provenance and coverage bookkeeping."""

    series: TruncatedSeries
    mask: frozenset[Exponents]
    provenance: frozenset[tuple[int, int]]  # (g, n) fragments consumed
    coverage_gap: tuple[tuple[int, int, tuple[int, ...]], ...]  # missing (g,n,d)
    max_index: int
    cap: int
    # (g, d) of each entry read -> (prod t_i^{k_i}, 1 / prod k_i!); not compared
    entry_monomials: dict = field(compare=False, repr=False)

    def masked(self) -> MaskedSeries:
        return MaskedSeries(self.series, self.mask)


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
    provenance = table.fragments()
    terms, read, mask, gap = {}, {}, set(), []
    for n in range(1, cap + 1):
        for g in range((max_index - 1) * n // 3 + 2):  # 3g - 3 + n <= max_index * n
            covered = g <= max_genus and (g, n) in provenance
            for dtuple in block_indices(g, n, max_index):
                expo = tuple(dtuple.count(i) for i in range(max_index + 1))
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
        provenance=frozenset(provenance),
        coverage_gap=tuple(sorted(gap)),
        max_index=max_index,
        cap=cap,
        entry_monomials=read,
    )


@dataclass
class ResidualReport:
    """Exact residual plus a status per monomial inside the reliable window."""

    name: str
    residual: MaskedSeries
    window: int
    entries: list[dict] = field(default_factory=list)

    @property
    def series(self) -> TruncatedSeries:
        return self.residual.series

    def covered_nonzero(self) -> list[dict]:
        return [e for e in self.entries if e["status"] == "nonzero"]

    def counts(self) -> dict[str, int]:
        out = {"verified_zero": 0, "uncovered": 0, "nonzero": 0}
        for item in self.entries:
            out[item["status"]] += 1
        return out

    def to_json(self) -> dict:
        return {
            "residual": self.name,
            "window": self.window,
            "counts": self.counts(),
            "monomials": self.entries,
        }


def _classify(name: str, residual: MaskedSeries, window: int) -> ResidualReport:
    series = residual.series
    entries = []
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
        entries.append(
            {
                "monomial": monomial_name(series.variables, expo),
                "exponents": list(expo),
                "status": status,
                "value": str(coeff),
            }
        )
    return ResidualReport(name=name, residual=residual, window=window, entries=entries)


def _kdv_formula(f):
    """R = dU/dt1 - U dU/dt0 - (1/12) d^3U/dt0^3 with U = d^2F/dt0^2."""
    u = f.diff("t0", 2)
    return u.diff("t1") - u * u.diff("t0") - u.diff("t0", 3).scale(Fraction(1, 12))


def _string_formula(f):
    """S = dF/dt0 - t0^2/2 - sum_i t_{i+1} dF/dt_i."""
    masked = isinstance(f, MaskedSeries)
    plain = f.series if masked else f

    def t(name):
        var = TruncatedSeries.variable(plain.variables, plain.weights, plain.cap, name)
        return MaskedSeries(var, frozenset()) if masked else var

    residual = f.diff("t0") - (t("t0") * t("t0")).scale(Fraction(1, 2))
    for i in range(len(plain.variables) - 1):
        residual = residual - t(f"t{i + 1}") * f.diff(f"t{i}")
    return residual


# residual -> (formula, loss): a coefficient of degree d draws on F up to
# degree d + loss, so the residual is reliable to cap - loss.  KdV loses 5:
# two t0-derivatives into U, then up to three more.
_RESIDUALS = {"kdv": (_kdv_formula, 5), "string": (_string_formula, 1)}


def _masked_residual(name: str, free_energy: FreeEnergy) -> tuple[int, MaskedSeries]:
    """(window, residual) of one formula run on the masked F; a negative
    window is refused before the formula runs."""
    formula, loss = _RESIDUALS[name]
    window = free_energy.cap - loss
    if window < 0:
        raise DomainError("series cap too small for a reliable window")
    return window, formula(free_energy.masked())


def kdv_residual(free_energy: FreeEnergy) -> ResidualReport:
    """The KdV residual R of F in the window cap - 5; higher degrees would be
    truncation artifacts."""
    window, residual = _masked_residual("kdv", free_energy)
    return _classify("kdv", residual, window)


def string_residual(free_energy: FreeEnergy) -> ResidualReport:
    """The string residual S of F, reliable to cap - 1."""
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
    own F, computed once; no per-monomial report is built.  An entry moves
    the one F coefficient the assembly recorded for it by its weight, so each
    entry costs one plain-series residual per formula."""
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
        out[entry_key(*key)] = sorted(
            f"{name}:{monomial_name(f.variables, expo)}"
            for name, formula, window, masked in bases
            for expo in formula(f).terms
            if f.degree_of(expo) <= window and expo not in masked
        )
    return out
