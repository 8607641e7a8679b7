"""Exact arithmetic substrate: truncated series and linear algebra over Q.

Series are multivariate polynomials truncated at a configurable weighted
total degree; arithmetic drops every term whose weighted degree exceeds the
cap, consistently on both sides of products.  A series stores the
coefficients it is given (int or Fraction; fock's Q(i) type where an i*lambda
term enters) and only drops zeros.

Matrices over Q are plain lists of Fraction rows (`Matrix`).  Solving, rank,
determinant and the torsion pivots all rest on one Gauss-Jordan elimination,
`row_reduce`, which also fixes the pivot order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InconsistentSystem, RankDeficient

Exponents = tuple[int, ...]


def rational_to_str(q: Fraction) -> str:
    """Serialize p/q, omitting the denominator when it is 1, at any length."""
    q = Fraction(q)
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _decimal(n: int) -> str:
    """n in base 10 at any length.

    str() refuses an int over sys.get_int_max_str_digits() digits (4300 by
    default, never under 640), a guard meant for parsing input.  A computed
    value is split by a power of ten into halves, each written by str() once
    it is under 600 digits (2^1990 < 10^600).
    """
    if n.bit_length() <= 1990:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [P_i]) with D the lcm of the denominators, so values[i] = P_i/D."""
    denom = math.lcm(*(v.denominator for v in values))
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def double_factorial(n: int) -> int:
    """Odd double factorial with the convention (-1)!! = 1."""
    if n < -1:
        raise DomainError(f"double factorial undefined for {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


class TruncatedSeries:
    """Multivariate polynomial truncated at a weighted degree cap.

    Terms map exponent tuples (one slot per variable) to nonzero coefficients.
    Two series combine when their variable names and weights agree: a sum,
    difference or product runs at the lower of their caps.  Equal series
    agree in cap too.
    """

    __slots__ = ("variables", "weights", "cap", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        weights: Sequence[int],
        cap: int,
        terms: Mapping[Exponents, Fraction] | None = None,
    ):
        if len(variables) != len(weights):
            raise DomainError("variables and weights must have equal length")
        if any(w <= 0 for w in weights):
            raise DomainError("weights must be positive")
        self.variables = tuple(variables)
        self.weights = tuple(weights)
        self.cap = int(cap)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            arity, weights, cap, mul = len(self.variables), self.weights, self.cap, operator.mul
            for expo, coeff in terms.items():
                if not coeff:
                    continue
                expo = tuple(expo)
                if len(expo) != arity:
                    raise DomainError("exponent tuple has wrong arity")
                if sum(map(mul, expo, weights)) <= cap:
                    clean[expo] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables, weights, cap) -> "TruncatedSeries":
        return cls(variables, weights, cap)

    @classmethod
    def constant(cls, variables, weights, cap, value) -> "TruncatedSeries":
        zero_expo = (0,) * len(variables)
        return cls(variables, weights, cap, {zero_expo: value})

    @classmethod
    def variable(cls, variables, weights, cap, name) -> "TruncatedSeries":
        idx = list(variables).index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, weights, cap, {expo: 1})

    # -- structure ----------------------------------------------------

    def degree_of(self, expo: Exponents) -> int:
        return sum(map(operator.mul, expo, self.weights))

    def _require_compatible(self, other) -> int:
        """The lower cap of the two series, whose variables and weights agree."""
        if (self.variables, self.weights) != (other.variables, other.weights):
            raise DomainError("incompatible series (variables/weights differ)")
        return min(self.cap, other.cap)

    def coefficient(self, expo: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(expo), 0)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.variables))

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        if not self.terms:
            return self.cap + 1
        return min(self.degree_of(e) for e in self.terms)

    def with_cap(self, cap: int) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.weights, cap, self.terms)

    # -- arithmetic ---------------------------------------------------

    def _accumulate(self, other, op):
        """self op other for op in (operator.add, operator.sub): other's terms
        folded into a copy of self's, one series built at the lower cap."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variables, self.weights, self.cap, other)
        cap = self._require_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = op(terms.get(expo, 0), coeff)
            if acc:
                terms[expo] = acc
            else:
                terms.pop(expo, None)
        return TruncatedSeries(self.variables, self.weights, cap, terms)

    def __add__(self, other):
        return self._accumulate(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.variables, self.weights, self.cap,
            {e: -c for e, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self._accumulate(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        if not value:
            return TruncatedSeries.zero(self.variables, self.weights, self.cap)
        return TruncatedSeries(
            self.variables, self.weights, self.cap,
            {e: c * value for e, c in self.terms.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        cap = self._require_compatible(other)
        terms: dict[Exponents, Fraction] = {}
        degrees_b = {e: other.degree_of(e) for e in other.terms}
        for ea, ca in self.terms.items():
            da = self.degree_of(ea)
            for eb, cb in other.terms.items():
                if da + degrees_b[eb] > cap:
                    continue
                expo = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(expo, 0) + ca * cb
                if acc:
                    terms[expo] = acc
                else:
                    terms.pop(expo, None)
        return TruncatedSeries(self.variables, self.weights, cap, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined for series")
        result = TruncatedSeries.constant(self.variables, self.weights, self.cap, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and (
            self.variables, self.weights, self.cap, self.terms
        ) == (other.variables, other.weights, other.cap, other.terms)

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = []
        for expo in sorted(self.terms):
            mono = "*" + monomial_name(self.variables, expo) if any(expo) else ""
            bits.append(f"({self.terms[expo]}){mono}")
        return "<series " + " + ".join(bits) + ">"

    # -- calculus -----------------------------------------------------

    def diff(self, name: str, order: int = 1) -> "TruncatedSeries":
        """Exact partial derivative; reliable to cap - order*weight(name)."""
        if order < 0:
            raise DomainError("derivative order must be >= 0")
        if name not in self.variables:
            raise DomainError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        terms = dict(self.terms)
        for _ in range(order):
            nxt: dict[Exponents, Fraction] = {}
            for expo, coeff in terms.items():
                k = expo[idx]
                if k == 0:
                    continue
                new = list(expo)
                new[idx] = k - 1
                nxt[tuple(new)] = coeff * k
            terms = nxt
        return TruncatedSeries(self.variables, self.weights, self.cap, terms)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1, truncated at cap."""
        if self.constant_term() != 1:
            raise DomainError("log requires constant term 1")
        u = self - 1
        result = TruncatedSeries.zero(self.variables, self.weights, self.cap)
        if u.is_zero():
            return result
        power = TruncatedSeries.constant(self.variables, self.weights, self.cap, 1)
        kmax = self.cap // max(1, u.min_degree())
        for k in range(1, kmax + 1):
            power = power * u
            result = result + power.scale(Fraction((-1) ** (k + 1), k))
        return result

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for expo in sorted(self.terms):
            coeff = self.terms[expo]
            out.append(
                {
                    "exponents": list(expo),
                    "coeff_re": rational_to_str(coeff.real),
                    "coeff_im": rational_to_str(coeff.imag),
                }
            )
        return out


def t_variables(max_index: int, cap: int):
    """Variable family t_0..t_K, all of weight 1 (KdV grading)."""
    names = tuple(f"t{i}" for i in range(max_index + 1))
    return names, (1,) * len(names), cap


def x_variables(max_index: int, cap: int):
    """Variable family x_1..x_K with weight(x_j) = j (Fock grading)."""
    names = tuple(f"x{j}" for j in range(1, max_index + 1))
    return names, tuple(range(1, max_index + 1)), cap


def weight_monomials(weights: Sequence[int], bound: int) -> Iterator[Exponents]:
    """All exponent tuples with weighted degree <= bound (includes 1), in
    lexicographic order."""
    if bound < 0:
        return
    expo = [0] * len(weights)
    degree = 0
    while True:
        yield tuple(expo)
        # odometer step: bump the last slot that still fits, zeroing the
        # slots after it
        for idx in reversed(range(len(weights))):
            if degree + weights[idx] <= bound:
                expo[idx] += 1
                degree += weights[idx]
                break
            degree -= expo[idx] * weights[idx]
            expo[idx] = 0
        else:
            return


def monomial_name(variables: Sequence[str], expo: Exponents) -> str:
    """Display name of a monomial, e.g. t0^2*t3; "1" for the constant."""
    bits = [f"{v}^{e}" if e > 1 else v for v, e in zip(variables, expo) if e]
    return "*".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------


Matrix = list[list[Fraction]]


# Digits allowed in the numerator or the denominator of an outside rational,
# and characters in a rational string.  "1e300000" is refused from its
# exponent, before the 300001-digit integer is built.
MAX_RATIONAL_DIGITS = 1000


def to_rational(x) -> Fraction:
    """x as a Fraction, for an int, a Fraction or a string such as "-3/4".

    A float, a bool, None or a container is refused, and so is a string with
    a zero denominator, and a value or string over MAX_RATIONAL_DIGITS
    digits: each raises DomainError.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise DomainError(f"{x!r} is not an integer or a rational string")
    too_long = DomainError(f"a rational over {MAX_RATIONAL_DIGITS} digits is refused")
    if isinstance(x, str):
        _, e, exponent = x.lower().rpartition("e")
        if len(x) > MAX_RATIONAL_DIGITS:
            raise too_long
        try:
            shift = abs(int(exponent)) if e else 0
        except ValueError:
            shift = 0  # not a number: Fraction refuses it below
        if shift > MAX_RATIONAL_DIGITS:
            raise too_long
    try:
        q = Fraction(x)
    except ZeroDivisionError:
        raise DomainError(f"{x!r} has a zero denominator") from None
    except ValueError:
        raise DomainError(f"{x!r} is not a rational string") from None
    if max(abs(q.numerator), q.denominator) >= 10**MAX_RATIONAL_DIGITS:
        raise too_long
    return q


def rational_vector(entries, length: int, name: str) -> list[Fraction]:
    """A list of `length` entries, each through to_rational."""
    if not isinstance(entries, (list, tuple)) or len(entries) != length:
        raise DomainError(f"{name} must be a list of {length} entries")
    return [to_rational(x) for x in entries]


def rational_matrix(entries, rows: int, cols: int, name: str) -> Matrix:
    """A rows x cols matrix given as a list of rows, each through to_rational."""
    if not isinstance(entries, (list, tuple)) or len(entries) != rows:
        raise DomainError(f"{name} must be a {rows}x{cols} matrix")
    return [rational_vector(row, cols, f"row {i} of {name}") for i, row in enumerate(entries)]


def row_reduce(
    rows: Sequence[Sequence[Fraction]], ncols: int | None = None
) -> tuple[Matrix, list[int], Fraction]:
    """Gauss-Jordan reduction of a copy of `rows`; the only elimination over Q.

    Each of the first `ncols` columns (default: all) in turn pivots on its
    first nonzero entry at or below the next unpivoted row: that row is
    swapped up, scaled to a leading 1, and the column is cleared in every
    other row.  Stops once every row has a pivot.  Returns the reduced rows,
    the pivot columns in order, and the product of the pivots negated once
    per row swap -- the determinant when the pivoted block is square and of
    full rank.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    width = len(mat[0]) if mat else 0
    if any(len(row) != width for row in mat):
        raise DomainError("ragged matrix")
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(width if ncols is None else ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            det = -det
        pv = mat[r][c]
        det *= pv
        mat[r] = [x / pv for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                factor = row[c]
                mat[i] = [x - factor * p for x, p in zip(row, mat[r])]
        pivots.append(c)
    return mat, pivots, det


def solve_linear_exact(
    a: Sequence[Sequence[Fraction]], y: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = y exactly; the system may be overdetermined but consistent.

    Raises InconsistentSystem (with the offending residual) when no solution
    exists and RankDeficient when the solution is not unique.
    """
    if len(a) != len(y):
        raise DomainError("right-hand side length mismatch")
    n = len(a[0]) if a else 0
    reduced, pivots, _ = row_reduce([list(row) + [y_i] for row, y_i in zip(a, y)], n)
    for row in reduced[len(pivots):]:
        if row[n]:
            raise InconsistentSystem("no exact solution", residual=row[n])
    if len(pivots) < n:
        raise RankDeficient(f"rank {len(pivots)} < {n} unknowns")
    solution = [row[n] for row in reduced[:n]]
    # exact residual audit for the overdetermined rows
    for row, y_i in zip(a, y):
        lhs = sum((x * s for x, s in zip(row, solution)), Fraction(0))
        if lhs != y_i:
            raise InconsistentSystem("nonzero residual", residual=lhs - y_i)
    return solution


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over Q."""
    return len(row_reduce(rows)[1])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix over Q; 0 when the rank is short."""
    if any(len(row) != len(rows) for row in rows):
        raise DomainError("determinant needs a square matrix")
    _, pivots, det = row_reduce(rows)
    return det if len(pivots) == len(rows) else Fraction(0)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DomainError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    return [
        [sum((x * b_row[j] for x, b_row in zip(row, b)), Fraction(0)) for j in range(cols)]
        for row in a
    ]
