"""Schur polynomials in power-sum times, Hirota operators, KP verification.

Variables are x_1, x_2, ... with weight(x_j) = j, so that the elementary
Schur polynomial S_k is the weight-k homogeneous part of exp(sum x_j z^j)
read off without a formal z.  Partition-indexed Schur polynomials come from
the Jacobi-Trudi determinant; both KP checks (the first Hirota bilinear
member and the KP equation for u = 2 d^2 log tau) are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegenerateSlice, DomainError
from .exact import TruncatedSeries, binomial, x_variables


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

    def __len__(self) -> int:
        return len(self.parts)


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


def elementary_schur(k: int, max_index: int) -> TruncatedSeries:
    """S_k with S_0 = 1 and S_k = 0 for k < 0, in x_1..x_{max_index}."""
    names, weights, cap = x_variables(max_index, max(k, 1))
    if k < 0:
        return TruncatedSeries.zero(names, weights, cap)
    if k == 0:
        return TruncatedSeries.constant(names, weights, cap, 1)
    if max_index < k:
        raise DomainError(f"need x-variables up to index {k}")
    generator = TruncatedSeries.zero(names, weights, cap)
    for name in names:
        generator = generator + TruncatedSeries.variable(names, weights, cap, name)
    return generator.exp().homogeneous_part(k)


def schur_lambda(p: Partition, max_index: int | None = None) -> TruncatedSeries:
    """Jacobi-Trudi determinant det(S_{p_i - i + j}) over x-variables."""
    if not p.parts:
        names, weights, cap = x_variables(1, 1)
        return TruncatedSeries.constant(names, weights, cap, 1)
    size = p.size
    if max_index is None:
        max_index = size
    if max_index < size:
        raise DomainError(f"need x-variables up to index {size}")
    names, weights, cap = x_variables(max_index, size)
    m = len(p)

    def entry(i, j):
        k = p.parts[i] - (i + 1) + (j + 1)
        if k < 0:
            return TruncatedSeries.zero(names, weights, cap)
        if k == 0:
            return TruncatedSeries.constant(names, weights, cap, 1)
        s = elementary_schur(k, max_index)
        return TruncatedSeries(names, weights, cap, s.terms)

    det = TruncatedSeries.zero(names, weights, cap)
    for perm in itertools.permutations(range(m)):
        sign = _permutation_sign(perm)
        term = TruncatedSeries.constant(names, weights, cap, sign)
        for i in range(m):
            term = term * entry(i, perm[i])
        det = det + term
    return det


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class HirotaOperator:
    """Multi-exponent a over x_1, x_2, ...; D^a acts on ordered pairs f, g."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        expo = tuple(int(a) for a in self.exponents)
        if any(a < 0 for a in expo):
            raise DomainError("Hirota exponents must be nonnegative")
        object.__setattr__(self, "exponents", expo)

    @property
    def order(self) -> int:
        return sum(self.exponents)


def hirota_apply(
    op: HirotaOperator, f: TruncatedSeries, g: TruncatedSeries
) -> TruncatedSeries:
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
        coeff = Fraction((-1) ** (sum(a) - sum(b)))
        for ai, bi in zip(a, b):
            coeff *= binomial(ai, bi)
        df, dg = f, g
        for idx, (ai, bi) in enumerate(zip(a, b)):
            if bi:
                df = df.diff(f.variables[idx], bi)
            if ai - bi:
                dg = dg.diff(g.variables[idx], ai - bi)
        result = result + (df * dg).scale(coeff)
    return result


KP_HIROTA_MEMBER = (
    (Fraction(1), HirotaOperator((4,))),
    (Fraction(3), HirotaOperator((0, 2))),
    (Fraction(-4), HirotaOperator((1, 0, 1))),
)


def kp_hirota_residual(tau: TruncatedSeries) -> TruncatedSeries:
    """(D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau.tau; zero on the KP orbit."""
    if tau.is_zero():
        raise DomainError("tau must be nonzero")
    if len(tau.variables) < 3:
        names, weights, cap = x_variables(3, tau.cap)
        lift = {}
        for expo, coeff in tau.terms.items():
            lift[expo + (0,) * (3 - len(expo))] = coeff
        tau = TruncatedSeries(names, weights, cap, lift)
    total = TruncatedSeries.zero(tau.variables, tau.weights, 2 * tau.cap)
    for scalar, op in KP_HIROTA_MEMBER:
        total = total + hirota_apply(op, tau, tau).scale(scalar)
    return total


# ---------------------------------------------------------------------------
# KP equation for u = 2 d^2/dx^2 log tau, with x = x_1, y = x_2, t = x_3
# ---------------------------------------------------------------------------


def restrict_to_xyt(
    tau: TruncatedSeries, eval_point: Mapping[str, Fraction]
) -> TruncatedSeries:
    """Substitute rational constants for x_4, x_5, ... leaving x_1..x_3."""
    names, weights, cap = x_variables(3, tau.cap)
    values = {name: Fraction(v) for name, v in eval_point.items()}
    terms: dict[tuple[int, int, int], object] = {}
    for expo, coeff in tau.terms.items():
        scale = Fraction(1)
        for idx in range(3, len(expo)):
            e = expo[idx]
            if not e:
                continue
            name = tau.variables[idx]
            if name not in values:
                raise DomainError(f"no evaluation value supplied for {name}")
            scale *= values[name] ** e
        key = tuple(expo[:3]) + (0,) * max(0, 3 - len(expo))
        acc = terms.get(key, None)
        contrib = coeff * scale
        terms[key] = contrib if acc is None else acc + contrib
    return TruncatedSeries(names, weights, cap, terms)


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


def kp_pde_residual(
    tau: TruncatedSeries, eval_point: Mapping[str, Fraction] | None = None
) -> TruncatedSeries:
    """Numerator of (3/4) u_yy - d/dx (u_t - (3/2) u u_x - (1/4) u_xxx).

    The residual is an exact rational function with denominator a power of
    tau; the returned polynomial is its numerator, identically zero exactly
    when tau solves the KP equation on the chosen slice.
    """
    tau3 = restrict_to_xyt(tau, eval_point or {})
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


def kp_checks(tau: TruncatedSeries, eval_point=None) -> dict:
    """Run both KP verifications and report agreement."""
    hirota = kp_hirota_residual(tau)
    pde = kp_pde_residual(tau, eval_point)
    return {
        "hirota_zero": hirota.is_zero(),
        "pde_zero": pde.is_zero(),
        "agree": hirota.is_zero() == pde.is_zero(),
    }
