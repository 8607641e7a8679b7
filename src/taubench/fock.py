"""Heisenberg/Virasoro operators on a truncated Fock space, exactly.

Every operator is an OperatorExpr: a normal-ordered sum of scalar *
(variable monomial) * (derivative monomial) terms, built once and applied
to a plain {exponent: coeff} vector by OperatorExpr.image, the only applier
here, as a sum of memoized basis columns: each monomial's image is computed
once per operator and series family.  Each operator has one denominator D,
the lcm of its scalars' denominators; its columns hold D times the image in
(Gaussian) integers, and image returns these numerators for the commutator
checks to divide by D.  Two operator families are built:

- the oscillator representation on C[x_1, x_2, ...] with a_n = d/dx_n,
  a_{-n} = n x_n, a_0 = mu, and L_k built from the quadratic a-form
  (central charge 1 + 12 lambda^2);
- the target-manifold family L_n, n >= -1, built literally from the printed
  display: a t d-block with C^(j) coefficients, a second-derivative block
  with D^(j) coefficients, and a t.t block, over cohomology data
  (eta, nilpotent C, b_alpha, independent b^alpha), at genus parameter
  lambda = 1.

Q(i) lives here and only here: GaussianRational is born where the i*lambda
terms of the oscillator L_k multiply in GR_I (with int parts in the columns).
Every other coefficient stays an exact rational (int or Fraction).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetError,
    DomainError,
    InsufficientCap,
    PoleError,
    TruncationError,
)
from .exact import (
    TruncatedSeries,
    mat_mul,
    monomial_name,
    rational_matrix,
    rational_rank,
    rational_to_str,
    rational_vector,
    solve,
    weight_monomials,
    x_variables,
)

# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """Element real + imag*i of Q(i) with rational parts.

    Mixes with int and Fraction in either order through their own .real and
    .imag; a real element equals, and hashes like, the matching Fraction.
    """

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __add__(self, other):
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __bool__(self) -> bool:
        return self.real != 0 or self.imag != 0

    def __str__(self) -> str:
        if self.imag == 0:
            return rational_to_str(self.real)
        return f"{rational_to_str(self.real)}+{rational_to_str(self.imag)}i"


GR_I = GaussianRational(Fraction(0), Fraction(1))

# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of scalar * (variable monomial) * (derivative monomial) terms.

    Monomials are sorted tuples of variable names; derivatives act first.
    The denominator D (the lcm of the denominators of the scalars' real and
    imaginary parts) and the basis columns, filled lazily per (family,
    exponent) with D times each image, and a plan per family, sit outside
    equality, hash and repr.
    """

    terms: tuple[tuple[Fraction | GaussianRational, tuple[str, ...], tuple[str, ...]], ...]
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    _numerators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = math.lcm(*(x.denominator for s, *_ in self.terms for x in (s.real, s.imag)))
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "_numerators", tuple(_times(s, d) for s, *_ in self.terms))

    @classmethod
    def build(cls, raw) -> "OperatorExpr":
        """Collect like terms among (scalar, variable names, derivative names).

        Zero scalars are skipped, so an i*lambda term at lambda = 0 brings no
        Q(i) coefficient in."""
        combined: dict[tuple[tuple[str, ...], tuple[str, ...]], Fraction] = {}
        for scalar, tmono, dmono in raw:
            if scalar:
                key = (tuple(sorted(tmono)), tuple(sorted(dmono)))
                combined[key] = combined.get(key, 0) + scalar
        return cls(tuple((c, *key) for key, c in sorted(combined.items()) if c))

    def image(self, family, vector: dict) -> dict:
        """D times the operator on a plain {exponent: coeff} vector over
        family (variables, weights, cap); zero coefficients are skipped.
        Integer coefficients give integer (or Gaussian-integer) images."""
        columns = self._columns.get(family)
        if columns is None:
            columns = self._columns[family] = _FamilyColumns(self, family)
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in vector.items():
            if not coeff:
                continue
            column = columns.get(expo)
            if column is None:  # a column that raises is never stored
                column = columns[expo] = self._column(family, columns.plan, expo)
            for key, c in column.items():
                out[key] = out.get(key, 0) + coeff * c
        return out

    def _column(self, family, plan: dict, expo: tuple[int, ...]) -> dict:
        """D times the image of one basis monomial, by exponent arithmetic over
        the plan's groups whose variable occurs in expo, in the terms' order."""
        _, weights, cap = family
        degree = sum(e * w for e, w in zip(expo, weights))
        steps = sorted(s for i, group in plan.items() if i is None or expo[i] for s in group)
        out: dict[tuple[int, ...], int] = {}
        for _, scalar, lower, raise_, outside, shift in steps:
            shifted = list(expo)
            factor = 1
            for i in lower:  # repeated names give the falling factorial
                factor *= shifted[i]
                shifted[i] -= 1
            if not factor:
                continue
            if outside is not None:
                raise TruncationError(f"operator variable {outside} outside family")
            if degree + shift > cap:
                raise TruncationError("operator application exceeds the cap")
            for i in raise_:
                shifted[i] += 1
            key = tuple(shifted)
            out[key] = out.get(key, 0) + scalar * factor
        return out


class _FamilyColumns(dict):
    """Memoized columns of one operator over one family, by exponent, and
    their plan: (position, D * scalar, lowered, raised, first outside variable,
    weight shift) of each term with no derivative outside the family, grouped
    by first derivative variable (None: no derivative)."""

    def __init__(self, op: OperatorExpr, family):
        super().__init__()
        variables, weights, _ = family
        index = {name: i for i, name in enumerate(variables)}
        self.plan: dict = {}
        for pos, (scalar, (_, tmono, dmono)) in enumerate(zip(op._numerators, op.terms)):
            if any(name not in index for name in dmono):
                continue
            lower = [index[name] for name in dmono]
            raise_ = [index[name] for name in tmono if name in index]
            outside = next((name for name in tmono if name not in index), None)
            shift = sum(weights[i] for i in raise_) - sum(weights[i] for i in lower)
            step = (pos, scalar, lower, raise_, outside, shift)
            self.plan.setdefault(lower[0] if lower else None, []).append(step)


def _times(scalar, d: int):
    """d * scalar with int parts, for a scalar whose denominators divide d."""
    parts = [int(x * d) for x in (scalar.real, scalar.imag)]
    return GaussianRational(*parts) if isinstance(scalar, GaussianRational) else parts[0]


# ---------------------------------------------------------------------------
# Oscillator representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscillatorParams:
    mu: Fraction = Fraction(0)
    lambda_param: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "lambda_param", Fraction(self.lambda_param))


def fock_space(cap: int):
    """Variable family x_1..x_cap with weight(x_j) = j."""
    return x_variables(cap, cap)


def _mode(n: int, mu: Fraction) -> tuple:
    """a_n as one raw term: d/dx_n (n > 0), a_{-n} = n x_n, a_0 = mu."""
    if n > 0:
        return (1, (), (f"x{n}",))
    if n < 0:
        return (-n, (f"x{-n}",), ())
    return (mu, (), ())


@functools.lru_cache(maxsize=128)
def oscillator_virasoro(k: int, params: OscillatorParams, cap: int) -> OperatorExpr:
    """L_0 = (mu^2 + lambda^2)/2 + sum_{j>0} a_{-j} a_j;
    L_k = (1/2) sum_{j in Z} a_{-j} a_{j+k} + i lambda k a_k for k != 0,
    with |j| <= cap + |k|.  Each product a_r a_s is written normal-ordered
    (derivatives act first), which is exact: r = -s only when k = 0, and then
    a_r is the raising factor.  Factors x_r with r > cap stay in, so applying
    the operator where they survive raises TruncationError.  Cached per
    (k, params, cap), so each column is computed once per process."""
    mu, lam = params.mu, params.lambda_param
    if k == 0:
        raw = [(Fraction(mu * mu + lam * lam, 2), (), ())]
        pairs = [(-j, j, Fraction(1)) for j in range(1, cap + 1)]
    else:
        scalar, tmono, dmono = _mode(k, mu)
        raw = [(GR_I * lam * k * scalar, tmono, dmono)]
        reach = cap + abs(k)
        pairs = [(-j, j + k, Fraction(1, 2)) for j in range(-reach, reach + 1)]
    for r, s, weight in pairs:
        (s1, t1, d1), (s2, t2, d2) = _mode(r, mu), _mode(s, mu)
        raw.append((s1 * s2 * weight, t1 + t2, d1 + d2))
    return OperatorExpr.build(raw)


DEFAULT_OSCILLATOR_CAP = 10  # x_1..x_10, the oscillator checks' cap when none is given

# Most basis monomials one commutator sweep may visit.  The largest window
# any shipped check uses is 139 monomials (weight <= 10 in x_1..x_10).
MAX_WINDOW = 1000

# Most monomial visits times arity all the sweeps of one oscillator_sweep may
# make together.  Cap 10 needs 9070 at max mode 2 (the default run) and 10510
# at 3 (criterion 6's grid); cap 12 at most 30672, cap 14 at mode 2 55664.
MAX_SWEEP_WORK = 50_000


def _window_refusal(bound: int) -> BudgetError:
    return BudgetError(f"over {MAX_WINDOW} monomials of weight <= {bound} in the window")


def _window(weights: Sequence[int], bound: int) -> list[tuple[int, ...]]:
    """Basis monomials of weighted degree <= bound, at most MAX_WINDOW."""
    window = list(itertools.islice(weight_monomials(weights, bound), MAX_WINDOW + 1))
    if len(window) > MAX_WINDOW:
        raise _window_refusal(bound)
    if not window:
        raise InsufficientCap(f"no monomials of weight <= {bound}")
    return window


def _commutator_images(a: OperatorExpr, b: OperatorExpr, c: OperatorExpr, family, expo):
    """D_A D_B [A, B] e and D_C C e, as plain dicts of numerators, for the
    basis monomial e of exponent expo over family."""
    basis = {expo: 1}
    bracket = a.image(family, b.image(family, basis))
    for key, v in b.image(family, a.image(family, basis)).items():
        bracket[key] = bracket.get(key, 0) - v
    return bracket, c.image(family, basis)


def oscillator_commutator_check(
    m: int, n: int, params: OscillatorParams, safe_cap: int = DEFAULT_OSCILLATOR_CAP
) -> dict:
    """Sweep ([L_m, L_n] - (m-n) L_{m+n} - central) p over the guarded window.

    Window: basis monomials of weight <= safe_cap - |m| - |n| - max(|m|,|n|)
    (safe_cap is DEFAULT_OSCILLATOR_CAP unless given), so no intermediate
    application can silently truncate.
    """
    family = fock_space(safe_cap)
    window = _window(family[1], _sweep_bound(m, n, safe_cap))
    lam = params.lambda_param
    central = Fraction(0)
    if m == -n:
        central = (1 + 12 * lam * lam) * Fraction(m**3 - m, 12)
    l_m, l_n, l_sum = (oscillator_virasoro(k, params, safe_cap) for k in (m, n, m + n))
    # the residual times D_m D_n D_{m+n} c_den, in (Gaussian) integers
    d_mn, d_sum, c_den = l_m.denominator * l_n.denominator, l_sum.denominator, central.denominator
    failures = []
    for expo in window:
        bracket, structure = _commutator_images(l_m, l_n, l_sum, family, expo)
        residual = {key: d_sum * c_den * v for key, v in bracket.items()}
        for key, c in structure.items():
            residual[key] = residual.get(key, 0) + (n - m) * d_mn * c_den * c
        residual[expo] = residual.get(expo, 0) - d_mn * d_sum * central.numerator
        if any(residual.values()):
            residual = TruncatedSeries(*family, residual).scale(Fraction(1, d_mn * d_sum * c_den))
            failures.append({"monomial": list(expo), "residual": repr(residual)})
    return {
        "m": m,
        "n": n,
        "lambda": str(lam),
        "central_charge": str(1 + 12 * lam * lam),
        "window_size": len(window),
        "all_zero": not failures,
        "failures": failures,
    }


def _sweep_bound(m: int, n: int, safe_cap: int) -> int:
    return safe_cap - abs(m) - abs(n) - max(abs(m), abs(n))


def oscillator_sweep(
    max_mode: int, params: OscillatorParams, safe_cap: int = DEFAULT_OSCILLATOR_CAP
) -> list[dict]:
    """oscillator_commutator_check for every m, n in [-max_mode, max_mode],
    at safe_cap (DEFAULT_OSCILLATOR_CAP unless given).

    Before the first sweep, the windows are walked in sweep order and their
    monomial visits times the arity (cap) are summed; past MAX_SWEEP_WORK
    this raises BudgetError.  The walk stops at the first empty window,
    where the sweep itself raises InsufficientCap.
    """
    if safe_cap > MAX_SWEEP_WORK:  # one x_1..x_cap tuple is already too long
        raise BudgetError(f"cap {safe_cap} is over the sweep budget {MAX_SWEEP_WORK}")
    weights = range(1, safe_cap + 1)
    max_visits = MAX_SWEEP_WORK // max(1, safe_cap)
    modes = range(-max_mode, max_mode + 1)
    visits = 0
    for m, n in ((m, n) for m in modes for n in modes):
        window = weight_monomials(weights, _sweep_bound(m, n, safe_cap))
        count = sum(1 for _ in itertools.islice(window, max_visits - visits + 1))
        if count == 0:
            break
        visits += count
        if visits > max_visits:
            raise BudgetError(
                f"the sweeps over modes up to {max_mode} at cap {safe_cap} need"
                f" over {MAX_SWEEP_WORK} monomial visits times arity"
            )
    return [oscillator_commutator_check(m, n, params, safe_cap) for m in modes for n in modes]


# ---------------------------------------------------------------------------
# C and D coefficient machinery
# ---------------------------------------------------------------------------


def _elementary_symmetric_reciprocals(j: int, lows: list[Fraction]) -> Fraction:
    """e_j of the reciprocals 1/v over the given values."""
    total = Fraction(0)
    for combo in itertools.combinations(lows, j):
        prod = Fraction(1)
        for v in combo:
            prod /= v
        total += prod
    return total


def coeff_C(j: int, m: int, n: int, b: Fraction) -> Fraction:
    """prod_{l=m}^{m+n} (b+l) / prod_{k=1}^{n} (m+k) times the elementary
    symmetric sum of j reciprocals 1/(b+l) over l in [m, m+n]."""
    if n < 1 or j < 0:
        raise DomainError("need n >= 1 and j >= 0")
    if j > n + 1:
        return Fraction(0)
    b = Fraction(b)
    values = [b + l for l in range(m, m + n + 1)]
    if j >= 1 and any(v == 0 for v in values):
        raise PoleError(f"b + l vanishes on [{m}, {m + n}]")
    denom = Fraction(1)
    for k in range(1, n + 1):
        if m + k == 0:
            raise PoleError("vanishing (m+k) factor in the denominator")
        denom *= m + k
    prefactor = Fraction(1)
    for v in values:
        prefactor *= v
    prefactor /= denom
    return prefactor * _elementary_symmetric_reciprocals(j, values)


def coeff_D(j: int, m: int, n: int, b_low: Fraction, b_high: Fraction) -> Fraction:
    """[prod_{l=0}^{m} (bHigh+l)] [prod_{l=0}^{n-m-1} (bLow+l)] /
    (m! max(0, n-m-1)!) times the elementary symmetric sum of j reciprocals
    1/(bLow + l) over l in [-m, n-m-1]; empty products are 1."""
    if j < 0 or m < 0:
        raise DomainError("need j >= 0 and m >= 0")
    b_low, b_high = Fraction(b_low), Fraction(b_high)
    window = [b_low + l for l in range(-m, n - m)]  # l in [-m, n-m-1]
    if j >= 1:
        if not window:
            return Fraction(0)
        if any(v == 0 for v in window):
            raise PoleError("bLow + l vanishes on the index window")
        if j > len(window):
            return Fraction(0)
    prefactor = Fraction(1)
    for l in range(0, m + 1):
        prefactor *= b_high + l
    for l in range(0, n - m):  # l in [0, n-m-1], empty when n-m-1 < 0
        prefactor *= b_low + l
    prefactor /= math.factorial(m) * math.factorial(max(0, n - m - 1))
    return prefactor * _elementary_symmetric_reciprocals(j, window)


def cd_identity_check(
    j_values: Sequence[int],
    m_values: Sequence[int],
    n_values: Sequence[int],
    n1_values: Sequence[int],
    b_samples: Sequence[tuple[Fraction, Fraction]],
) -> dict:
    """Evaluate both printed coefficient identities on a sample grid.

    The printed right-hand sides carry a free index j1 that is bound on the
    left and a stray k; conventions used here (documented, not repaired):
    matrix factors are dropped (scalar reading), j1 := 0 on the right, and
    k := m.  The report records pass/fail and exact discrepancies per tuple;
    report generation, not identity truth, is the contract.
    """
    entries = []
    for j, m, n, n1, (b_low, b_high) in itertools.product(
        j_values, m_values, n_values, n1_values, b_samples
    ):
        for which in (1, 2):
            entry = {
                "identity": which,
                "j": j, "m": m, "n": n, "n1": n1,
                "b_low": str(b_low), "b_high": str(b_high),
            }
            entries.append(entry)
            try:
                if which == 1:
                    # sum_{j1} C^(j-j1)(m, n1) C^(j1)(m+n1-j1, n)
                    lhs = Fraction(0)
                    for j1 in range(j + 1):
                        lhs += coeff_C(j - j1, m, n1, b_low) * coeff_C(
                            j1, m + n1 - j1, n, b_low
                        )
                    rhs = (b_low + m + n1) * coeff_C(j, m, n1 + n, b_low)
                    if j >= 1:
                        rhs += (m + n + n1 - j + 1) * coeff_C(j - 1, m, n1 + n, b_low)
                else:
                    # sum_{j1} D^(j-j1)(m, n) C^(j1)(n-m-j+j1, n1)
                    lhs = Fraction(0)
                    for j1 in range(j + 1):
                        lhs += coeff_D(j - j1, m, n, b_low, b_high) * coeff_C(
                            j1, n - m - j + j1, n1, b_low
                        )
                    rhs = (b_low + n - m - 1) * coeff_D(j, m, n + n1, b_low, b_high)
                    if j >= 1:
                        rhs += (n + n1 - m - j) * coeff_D(
                            j - 1, m, n + n1, b_low, b_high
                        )
            except PoleError as exc:
                entry.update(status="pole_excluded", detail=str(exc))
            except DomainError as exc:
                entry.update(status="out_of_domain", detail=str(exc))
            else:
                entry.update(
                    status="pass" if lhs == rhs else "fail",
                    lhs=str(lhs),
                    rhs=str(rhs),
                    discrepancy=str(lhs - rhs),
                )
    counts = {"pass": 0, "fail": 0, "pole_excluded": 0, "out_of_domain": 0}
    for e in entries:
        counts[e["status"]] += 1
    return {"counts": counts, "entries": entries}


# ---------------------------------------------------------------------------
# Target-manifold Virasoro operators
# ---------------------------------------------------------------------------


# Cohomology work: dim^4, the entry products of the up to dim successive
# dim x dim products of C that one L_n build forms.  Dimension 10 costs 1e4
# (the slowest target request tried there took 2.9 s on a 2-core x86 VM);
# dimension 11 and up are refused before the first product.
MAX_COHOMOLOGY_WORK = 10**4


@dataclass
class CohomologyData:
    """eta pairing, nilpotent C matrix, b_alpha, and independent b^alpha."""

    eta: list[list[Fraction]]
    cmat: list[list[Fraction]]
    b: list[Fraction]
    b_raised: list[Fraction]

    def __post_init__(self):
        # the one conversion of every entry, through exact.to_rational
        if not isinstance(self.eta, (list, tuple)):
            raise DomainError("eta must be a square matrix")
        d = len(self.eta)
        if not d:  # dimension 0 has the one monomial 1: every closure verdict is vacuous
            raise DomainError("eta must have dimension at least 1")
        if d**4 > MAX_COHOMOLOGY_WORK:
            raise BudgetError(
                f"cohomology work {d**4} (dim^4) exceeds the budget {MAX_COHOMOLOGY_WORK}"
            )
        self.eta = rational_matrix(self.eta, d, d, "eta")
        self.cmat = rational_matrix(self.cmat, d, d, "C")
        self.b = rational_vector(self.b, d, "b")
        self.b_raised = rational_vector(self.b_raised, d, "b_raised")
        if any(row[k] != self.eta[k][i] for i, row in enumerate(self.eta) for k in range(d)):
            raise DomainError("eta must be symmetric")
        if rational_rank(self.eta) != d:
            raise DomainError("eta must be invertible")
        # C^dim = 0 exactly when C^(2^k) = 0 for the least 2^k >= dim
        power, reach = self.cmat, 1
        while reach < d:
            power, reach = mat_mul(power, power), 2 * reach
        if any(x for row in power for x in row):
            raise DomainError("C must be nilpotent (C^dim = 0)")

    @property
    def dim(self) -> int:
        return len(self.eta)

    def eta_inverse(self) -> list[list[Fraction]]:
        d = self.dim
        return solve(self.eta, [[Fraction(i == k) for k in range(d)] for i in range(d)])[0]

    @classmethod
    def from_json(cls, payload) -> "CohomologyData":
        keys = ("eta", "cmat", "b", "b_raised")
        if not isinstance(payload, dict) or not set(keys) <= payload.keys():
            raise DomainError("cohomology JSON must be an object with eta, cmat, b and b_raised")
        return cls(*(payload[key] for key in keys))


def point_target_data() -> CohomologyData:
    """dim 1, eta = (1), C = (0); b_alpha = q_alpha - (dim M - 1)/2 = 1/2.

    b^alpha = 1/2 as well, which satisfies the printed closure condition
    (1/4) sum b^a b_a = 1/16 for the point target (Euler characteristic 1,
    vanishing first-Chern integral)."""
    return CohomologyData(
        eta=[[Fraction(1)]],
        cmat=[[Fraction(0)]],
        b=[Fraction(1, 2)],
        b_raised=[Fraction(1, 2)],
    )


def t_var(m: int, alpha: int) -> str:
    return f"t{m}a{alpha}"


def target_space(data: CohomologyData, max_m: int, cap: int):
    """Variables t^alpha_m with weight m + 1."""
    names = tuple(t_var(m, a) for m in range(max_m + 1) for a in range(data.dim))
    weights = tuple(m + 1 for m in range(max_m + 1) for _ in range(data.dim))
    return names, weights, cap


def _t0_pairs(matrix: list[list[Fraction]], scale: Fraction) -> list:
    """Raw terms scale * matrix[alpha][gamma] t^alpha_0 t^gamma_0."""
    return [
        (scale * x, (t_var(0, alpha), t_var(0, gamma)), ())
        for alpha, row in enumerate(matrix)
        for gamma, x in enumerate(row)
        if x
    ]


def target_virasoro_build(
    data: CohomologyData,
    n: int,
    max_m: int,
) -> OperatorExpr:
    """L_n, n >= -1, literally as printed, at genus parameter lambda = 1:
    the printed lambda^2 / 2 and 1 / (2 lambda^2) are both 1/2."""
    if n < -1:
        raise DomainError("target operators are defined for n >= -1")
    d = data.dim
    big_n = d - 1  # the printed N, with dim = N + 1
    half = Fraction(1, 2)
    raw = []
    if n == -1:
        for alpha in range(d):
            for m in range(1, max_m + 1):
                raw.append((Fraction(m), (t_var(m, alpha),), (t_var(m - 1, alpha),)))
        raw += _t0_pairs(data.eta, half)
        return OperatorExpr.build(raw)
    if n == 0:
        for alpha in range(d):
            for m in range(max_m + 1):
                raw.append(((m + data.b[alpha]), (t_var(m, alpha),), (t_var(m, alpha),)))
        for alpha in range(big_n):  # alpha in [0, N-1]
            for m in range(1, max_m + 1):
                scalar = Fraction((big_n + 1) * m)
                raw.append((scalar, (t_var(m, alpha),), (t_var(m - 1, alpha + 1),)))
        # rows 1..N of eta, row alpha + 1 paired with t^alpha_0
        raw += _t0_pairs(data.eta[1:], half * (big_n - 1))
        raw.append((Fraction(-(big_n - 1) * (big_n + 1) * (big_n + 3), 48), (), ()))
        return OperatorExpr.build(raw)
    # n >= 1
    eta_inv = data.eta_inverse()
    # C^j for j <= min(n + 1, d - 1)
    powers = [[[Fraction(i == k) for k in range(d)] for i in range(d)]]
    for _ in range(min(n + 1, d - 1)):
        powers.append(mat_mul(powers[-1], data.cmat))
    for j, cj in enumerate(powers):
        if not any(x for row in cj for x in row):
            continue
        for alpha in range(d):
            for beta in range(d):
                if not cj[alpha][beta]:
                    continue
                # t d block
                for m in range(max_m + 1):
                    target = m + n - j
                    if 0 <= target <= max_m:
                        scalar = coeff_C(j, m, n, data.b[alpha]) * cj[alpha][beta]
                        raw.append((scalar, (t_var(m, alpha),), (t_var(target, beta),)))
                # d d block: (1/2) D^(j)(m, n) d^alpha_m d_{n-m-j-1, beta}
                # m and its target n - m - j - 1 both in [0, max_m]
                for m in range(max(0, n - j - 1 - max_m), min(n - j, max_m + 1)):
                    target = n - m - j - 1
                    dval = coeff_D(j, m, n, data.b[alpha], data.b_raised[alpha])
                    if not dval:
                        continue
                    for gamma in range(d):
                        if eta_inv[alpha][gamma]:
                            scalar = half * dval * cj[alpha][beta] * eta_inv[alpha][gamma]
                            raw.append((scalar, (), (t_var(m, gamma), t_var(target, beta))))
    # __post_init__ checked C^dim = 0, so C^(n+1) is the last power or zero
    if n + 1 < d:
        raw += _t0_pairs(mat_mul(powers[-1], data.eta), half)
    return OperatorExpr.build(raw)


def target_commutator_report(
    n1: int,
    n: int,
    data: CohomologyData,
    window: int,
) -> dict:
    """([L_{n1}, L_n] - (n - n1) L_{n+n1}) p for window monomials; a report,
    not an assertion -- the printed operators need not close."""
    # the window * dim variables t^alpha_m of weight m + 1 <= window, and 1,
    # are window monomials: refused by their count before the family is built
    if window * data.dim >= MAX_WINDOW:
        raise _window_refusal(window)
    max_m = window + 3  # index growth is at most +1 per application
    family = target_space(data, max_m, window + 6)
    monomials = _window(family[1], window)
    l_n1 = target_virasoro_build(data, n1, max_m)
    l_n = target_virasoro_build(data, n, max_m)
    if n + n1 >= -1:
        l_sum = target_virasoro_build(data, n + n1, max_m)
    elif n != n1:
        raise DomainError("commutator target outside the represented range")
    else:
        l_sum = OperatorExpr.build([])
    entries = []
    d_bracket = l_n1.denominator * l_n.denominator
    for expo in monomials:
        bracket, structure = _commutator_images(l_n1, l_n, l_sum, family, expo)
        lhs = TruncatedSeries(*family, bracket).scale(Fraction(1, d_bracket))
        structure = TruncatedSeries(*family, structure).scale(Fraction(1, l_sum.denominator))
        residual = lhs - structure.scale(n - n1)
        # conventions differ on the structure-constant sign, (n-m) versus
        # (m-n); record the residual under both readings
        residual_swapped = lhs - structure.scale(n1 - n)
        entries.append(
            {
                "monomial": monomial_name(family[0], expo),
                "zero": residual.is_zero(),
                "zero_swapped_sign": residual_swapped.is_zero(),
                "residual": residual.to_json(),
            }
        )
    return {
        "n1": n1,
        "n": n,
        "window": window,
        "all_zero": all(e["zero"] for e in entries),
        "all_zero_swapped_sign": all(e["zero_swapped_sign"] for e in entries),
        "entries": entries,
    }

