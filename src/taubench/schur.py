"""Schur polynomials in power-sum times and the two KP checks.

Variables are x_1, x_2, ... with weight(x_j) = j, where x_j = p_j / j for
the power sums p_j.  Partition-indexed Schur polynomials come from the
characters of the symmetric group (Murnaghan-Nakayama).  Both KP checks are
exact: the first Hirota bilinear member (D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau.tau,
written out in derivatives of tau, and the KP equation for u = 2 d^2 log tau
as the numerator of a rational function in tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DegenerateSlice, DomainError
from .exact import TruncatedSeries, x_variables


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts):
            raise DomainError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)


def partitions_of(size: int) -> list[Partition]:
    """All partitions of `size` in lexicographically decreasing order."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(remaining, bound), 0, -1):
            rec(remaining - p, p, prefix + [p])

    if size <= 0:
        return []
    rec(size, size, [])
    return out


# Work units of a `schur` request, each about one coefficient product (5 us on
# a 2-core x86 VM): n*p(n) for the series (p(n) n-slot terms), 2*p(n)^2 for
# the written-out Hirota member (its three products of p(n)-term series;
# --check-kp and --check-hirota share one; the slowest partition of each n
# from 16 to 19 measured 1.6 to 1.75 units per p(n)^2) and n^6 for the KP
# equation (products of x1..x3 polynomials up to weight 8n).  The series runs
# up to n = 35 (2.5 s for the slowest shapes), --check-hirota up to n = 19
# (1.9 s for (3, 3, 1^13)) and --check-kp up to n = 9 (2.8 s).
MAX_SCHUR_WORK = 600_000


def check_schur_budget(size: int, hirota: bool, pde: bool) -> None:
    """Raise BudgetError when a partition of `size`, with the Hirota residual
    if `hirota` and the KP equation if `pde`, is priced over MAX_SCHUR_WORK.
    The price grows with n, so the walk stops at the first n past it."""
    counts = [1]  # p(0), p(1), ... by Euler's pentagonal-number recurrence
    for n in range(1, size + 1):
        counts.append(sum(
            (-1) ** (k + 1) * counts[n - g]
            for k in range(1, n + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if g <= n
        ))
        if n * counts[n] + hirota * 2 * counts[n] ** 2 + pde * n**6 > MAX_SCHUR_WORK:
            raise BudgetError(f"a partition of {size} needs over {MAX_SCHUR_WORK} work units")


def _character(beads: tuple[int, ...], cycles: tuple[int, ...], memo: dict) -> int:
    """chi^lambda(mu) by the Murnaghan-Nakayama rule, for lambda given by its
    beta-set `beads` (ascending) and mu by its parts `cycles`; `memo` holds
    the values already found for (beads, cycles).

    Removing a rim hook of length r moves a bead from b to the empty place
    b - r, with sign (-1) to the number of beads strictly between.
    """
    if not cycles:
        return 1
    if (beads, cycles) not in memo:
        r, rest = cycles[0], cycles[1:]
        total = 0
        for b in beads:
            if b >= r and b - r not in beads:
                between = sum(b - r < c < b for c in beads)
                moved = tuple(sorted(b - r if c == b else c for c in beads))
                total += (-1) ** between * _character(moved, rest, memo)
        memo[beads, cycles] = total
    return memo[beads, cycles]


def schur_lambda(p: Partition) -> TruncatedSeries:
    """s_lambda over x_1..x_|lambda| at cap |lambda|.

    With x_j = p_j / j, Frobenius' s_lambda = sum_mu chi^lambda(mu) p_mu / z_mu
    puts chi^lambda(mu) / prod_j m_j! on x^m, where mu has m_j parts equal
    to j.
    """
    if not p.parts:
        names, weights, cap = x_variables(1, 1)
        return TruncatedSeries.constant(names, weights, cap, 1)
    size = p.size
    names, weights, cap = x_variables(size, size)
    beads = tuple(part + i for i, part in enumerate(reversed(p.parts)))
    terms, memo = {}, {}
    for mu in partitions_of(size):
        m = tuple(mu.parts.count(j) for j in range(1, size + 1))
        terms[m] = Fraction(
            _character(beads, mu.parts, memo), math.prod(map(math.factorial, m))
        )
    return TruncatedSeries(names, weights, cap, terms)


# ---------------------------------------------------------------------------
# KP checks with x, y, t = x_1, x_2, x_3: the first Hirota bilinear member
# and the KP equation for u = 2 d^2/dx^2 log tau
# ---------------------------------------------------------------------------


def restrict_to_xyt(tau: TruncatedSeries) -> TruncatedSeries:
    """tau on the slice x_j = 1 for j >= 4, a series in x_1..x_3: the
    coefficients that agree on x_1..x_3 add up.  A tau in fewer than three
    variables gets zero exponents in the missing slots."""
    names, weights, cap = x_variables(3, tau.cap)
    terms: dict[tuple[int, int, int], Fraction] = {}
    for expo, coeff in tau.terms.items():
        key = tuple(expo[:3]) + (0,) * max(0, 3 - len(expo))
        terms[key] = terms.get(key, 0) + coeff
    return TruncatedSeries(names, weights, cap, terms)


def kp_hirota_residual(tau: TruncatedSeries) -> TruncatedSeries:
    """(D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau.tau at twice tau's cap; zero on the
    KP orbit.

    Written out with x, y, t = x_1, x_2, x_3 (the first three variables),
    the member is 2 (tau tau_xxxx - 4 tau_x tau_xxx + 3 tau_xx^2
    + 3 tau tau_yy - 3 tau_y^2 - 4 tau tau_xt + 4 tau_x tau_t).  A tau in
    fewer than three variables is padded to x_1..x_3.
    """
    if tau.is_zero():
        raise DomainError("tau must be nonzero")
    if len(tau.variables) < 3:
        tau = restrict_to_xyt(tau)
    tau = tau.with_cap(2 * tau.cap)
    x, y, t = tau.variables[:3]
    tau_x, tau_y = tau.diff(x), tau.diff(y)
    tau_xx = tau_x.diff(x)
    total = (
        tau * (tau_xx.diff(x, 2) + tau_y.diff(y).scale(3) - tau_x.diff(t).scale(4))
        + (tau_x * (tau.diff(t) - tau_xx.diff(x))).scale(4)
        + ((tau_xx - tau_y) * (tau_xx + tau_y)).scale(3)
    )
    return total.scale(2)


@dataclass(frozen=True)
class _TauRational:
    """num / tau^power with a shared polynomial tau."""

    num: TruncatedSeries
    power: int
    tau: TruncatedSeries

    def _aligned(self, power: int) -> TruncatedSeries:
        num = self.num
        for _ in range(power - self.power):
            num = num * self.tau
        return num

    def __add__(self, other: "_TauRational") -> "_TauRational":
        power = max(self.power, other.power)
        return _TauRational(self._aligned(power) + other._aligned(power), power, self.tau)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value) -> "_TauRational":
        return _TauRational(self.num.scale(value), self.power, self.tau)

    def __mul__(self, other: "_TauRational") -> "_TauRational":
        return _TauRational(self.num * other.num, self.power + other.power, self.tau)

    def diff(self, name: str) -> "_TauRational":
        num = self.num.diff(name) * self.tau - self.num.scale(self.power) * self.tau.diff(name)
        return _TauRational(num, self.power + 1, self.tau)


def kp_pde_residual(tau: TruncatedSeries) -> TruncatedSeries:
    """Numerator of (3/4) u_yy - d/dx (u_t - (3/2) u u_x - (1/4) u_xxx).

    The residual is an exact rational function with denominator a power of
    tau; the returned polynomial is its numerator, identically zero exactly
    when tau solves the KP equation on the slice x_j = 1 for j >= 4
    (restrict_to_xyt).
    """
    tau3 = restrict_to_xyt(tau)
    if tau3.is_zero():
        raise DegenerateSlice("tau vanishes identically on the slice")
    weight = max((tau3.degree_of(e) for e in tau3.terms), default=0)
    work_cap = 8 * max(weight, 1) + 8
    tau3 = tau3.with_cap(work_cap)
    rat = lambda num, power: _TauRational(num, power, tau3)  # noqa: E731
    x, y, t = "x1", "x2", "x3"
    u = rat(
        (tau3.diff(x, 2) * tau3 - tau3.diff(x) * tau3.diff(x)).scale(2), 2
    )
    inner = (
        u.diff(t)
        - (u * u.diff(x)).scale(Fraction(3, 2))
        - u.diff(x).diff(x).diff(x).scale(Fraction(1, 4))
    )
    residual = u.diff(y).diff(y).scale(Fraction(3, 4)) - inner.diff(x)
    return residual.num


def kp_checks(tau: TruncatedSeries) -> dict:
    """Run both KP verifications and report agreement; the KP equation is
    checked on the slice x_j = 1 for j >= 4."""
    hirota = kp_hirota_residual(tau).is_zero()
    pde = kp_pde_residual(tau).is_zero()
    return {"hirota_zero": hirota, "pde_zero": pde, "agree": hirota == pde}
