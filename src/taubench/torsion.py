"""Torsion of based acyclic chain complexes and the order-of-homology check.

A complex is stored as ranks (n_0..n_m) and boundary matrices d_i: C_i ->
C_{i-1} (n_{i-1} x n_i, column-vector convention), every C_i carrying the
standard unit-vector basis.  The torsion is the alternating product of the
determinants of the based change-of-basis matrices [b_i | lift of b_{i-1}].
One exact.row_reduce of each d_i gives its pivot columns (the leftmost
independent ones), which fix everything: b_i is d_{i+1} on the pivot
columns of d_{i+1}, and the unit vectors on the pivot columns of d_i lift
b_{i-1}, so the pivot order pins the sign.

The invariant factors of d_{i+1} over the integers give ord H_i for the
torsion-vs-homology-order theorem.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetError,
    DomainError,
    InvalidComplex,
    NotAcyclic,
    NotExact,
    NotRationallyAcyclic,
)
from .exact import (
    Matrix,
    determinant,
    mat_mul,
    rational_matrix,
    rational_rank,
    rational_to_str,
    row_reduce,
)


# Elimination work: sum over boundary maps of rows x cols x min(rows, cols) x
# the bit length of the largest numerator or denominator.  46x46 in +-1000
# costs 973,360 (2 s on a 2-core x86 VM); 60x60 (5 s) is refused.
MAX_ELIMINATION_WORK = 10**6


def _mat(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def _is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _particular_solution(a: Matrix, rhs: Matrix) -> Matrix:
    """One exact solution X of A X = RHS with free variables set to zero."""
    cols = len(a[0]) if a else 0
    k = len(rhs[0]) if rhs else 0
    reduced, pivots, _ = row_reduce([a_row + r_row for a_row, r_row in zip(a, rhs)], cols)
    if any(any(row[cols:]) for row in reduced[len(pivots):]):
        raise DomainError("inconsistent lift system")
    x = _mat(cols, k)
    for row, c in zip(reduced, pivots):
        x[c] = row[cols:]
    return x


@dataclass(frozen=True)
class BasedChainComplex:
    """ranks[i] = n_i for degrees 0..m; boundaries[i] = d_{i+1}: C_{i+1}->C_i."""

    ranks: tuple[int, ...]
    boundaries: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        # the one conversion of every boundary entry, through exact.to_rational
        ranks = self.ranks
        if not isinstance(ranks, (list, tuple)) or not ranks or any(
            type(n) is not int or n < 0 for n in ranks
        ):
            raise InvalidComplex("ranks must be a nonempty list of nonnegative integers")
        if not isinstance(self.boundaries, (list, tuple)) or len(self.boundaries) != len(ranks) - 1:
            raise InvalidComplex("need exactly len(ranks)-1 boundary maps")
        mats = [
            tuple(map(tuple, rational_matrix(raw, ranks[i], ranks[i + 1], f"d_{i + 1}")))
            for i, raw in enumerate(self.boundaries)
        ]
        bits = [max((max(abs(x.numerator), x.denominator).bit_length() for r in mat for x in r),
                    default=1) for mat in mats]
        work = sum(ranks[i] * n * min(ranks[i], n) * bits[i] for i, n in enumerate(ranks[1:]))
        if work > MAX_ELIMINATION_WORK:
            raise BudgetError(f"elimination work {work} exceeds the budget {MAX_ELIMINATION_WORK}")
        object.__setattr__(self, "ranks", tuple(ranks))
        object.__setattr__(self, "boundaries", tuple(mats))
        for i in range(len(mats) - 1):
            if not _is_zero(mat_mul(self.boundary(i + 1), self.boundary(i + 2))):
                raise InvalidComplex("boundary maps do not compose to zero")

    @functools.cached_property
    def _pivot_columns(self) -> list[list[int]]:
        """The pivot columns of d_0..d_{m+1}, from one row_reduce of each
        boundary map; the complex is immutable, so every check reuses them."""
        return [[]] + [row_reduce(mat)[1] for mat in self.boundaries] + [[]]

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def rank(self, i: int) -> int:
        """n_i; 0 above the top degree."""
        return self.ranks[i] if i <= self.length else 0

    def boundary(self, i: int) -> Matrix:
        """d_i: C_i -> C_{i-1}; zero map outside 1..length."""
        if 1 <= i <= self.length:
            return [list(row) for row in self.boundaries[i - 1]]
        target = self.ranks[i - 1] if 0 <= i - 1 <= self.length else 0
        return _mat(target, 0)

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "boundaries": [
                [[rational_to_str(x) for x in row] for row in mat] for mat in self.boundaries
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BasedChainComplex":
        if not isinstance(payload, dict) or not {"ranks", "boundaries"} <= payload.keys():
            raise DomainError("complex JSON must be an object with ranks and boundaries")
        return cls(payload["ranks"], payload["boundaries"])


def is_acyclic(c: BasedChainComplex) -> bool:
    """rank d_i + rank d_{i+1} = n_i in every degree (over the rationals)."""
    pivots = c._pivot_columns
    return all(len(pivots[i]) + len(pivots[i + 1]) == n for i, n in enumerate(c.ranks))


def torsion(c: BasedChainComplex) -> Fraction:
    """Alternating determinant product; exact nonzero rational.

    In degree i the columns of T_i are d_{i+1} e_j for the pivot columns j
    of d_{i+1} (a basis of im d_{i+1} = ker d_i) followed by e_j for the
    pivot columns j of d_i, which d_i maps onto the degree i-1 image basis;
    tau = prod det(T_i)^{(-1)^{i+1}}.
    """
    if not is_acyclic(c):
        raise NotAcyclic("torsion requires an acyclic complex")
    pivots = c._pivot_columns
    tau = Fraction(1)
    for i, n in enumerate(c.ranks):
        image = [[row[j] for j in pivots[i + 1]] for row in c.boundary(i + 1)]
        lift = [[Fraction(r == j) for j in pivots[i]] for r in range(n)]
        det = determinant([b + l for b, l in zip(image, lift)]) if n else Fraction(1)
        tau *= det if (i + 1) % 2 == 0 else 1 / det
    return tau


# ---------------------------------------------------------------------------
# Invariant factors over the integers
# ---------------------------------------------------------------------------


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of an integer matrix (its
    nonzero Smith diagonal, positive).

    Each pass moves the least nonzero entry of the trailing block to (t, t)
    and reduces its row and column by floor quotients.  A nonzero remainder
    is smaller than the pivot, so it leads the next pass; a row of the block
    with an entry the pivot does not divide is first added into row t, whose
    remainder then leads.  The pivot shrinks, so the passes end.
    """
    m = [[int(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    t = 0
    while t < min(rows, cols):
        best = min(
            ((i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
            default=None,
        )
        if best is None:
            break
        m[t], m[best[0]] = m[best[0]], m[t]
        for row in m:
            row[t], row[best[1]] = row[best[1]], row[t]
        p = m[t][t]
        for i in range(t + 1, rows):
            if q := m[i][t] // p:
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
        for j in range(t + 1, cols):
            if q := m[t][j] // p:
                for row in m:
                    row[j] -= q * row[t]
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, rows) if any(x % p for x in m[i][t + 1:])), None)
        if bad is None:
            t += 1
        else:
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
    return tuple(abs(m[i][i]) for i in range(t))


def torsion_order_check(c: BasedChainComplex) -> dict:
    """|tau(Q (x) C)| vs prod ord H_i ^ (-1)^{i+1} for an integer complex."""
    if any(x.denominator != 1 for mat in c.boundaries for row in mat for x in row):
        raise DomainError("order check needs integer boundaries")
    if not is_acyclic(c):
        raise NotRationallyAcyclic("some H_i has positive rank")
    # Rationally acyclic: ker d_i is the saturation of im d_{i+1}, so H_i is
    # the torsion of Z^{n_i} / im d_{i+1}, of order the product of the
    # invariant factors of d_{i+1}
    orders = [math.prod(invariant_factors(mat)) for mat in c.boundaries] + [1]
    tau = torsion(c)
    predicted = Fraction(1)
    for i, order in enumerate(orders):
        predicted = predicted * order if (i + 1) % 2 == 0 else predicted / order
    return {
        "orders": orders,
        "torsion": rational_to_str(tau),
        "predicted_abs": rational_to_str(predicted),
        "pass": abs(tau) == predicted,
    }


# ---------------------------------------------------------------------------
# Short exact sequences and randomized generators
# ---------------------------------------------------------------------------


def direct_sum(cp: BasedChainComplex, cpp: BasedChainComplex) -> BasedChainComplex:
    """C' (+) C'' with the concatenated standard basis (C' block first)."""
    m = max(cp.length, cpp.length)
    ranks = [cp.rank(i) + cpp.rank(i) for i in range(m + 1)]
    boundaries = []
    for i in range(1, m + 1):
        rows_a, cols_a = cp.rank(i - 1), cp.rank(i)
        block = _mat(rows_a + cpp.rank(i - 1), cols_a + cpp.rank(i))
        for r, row in enumerate(cp.boundary(i)):
            block[r][:cols_a] = row
        for r, row in enumerate(cpp.boundary(i)):
            block[rows_a + r][cols_a:] = row
        boundaries.append(block)
    return BasedChainComplex(ranks, boundaries)


def ses_multiplicativity_check(
    cp: BasedChainComplex,
    c: BasedChainComplex,
    cpp: BasedChainComplex,
    inclusions: Sequence[Sequence[Sequence[Fraction]]],
    projections: Sequence[Sequence[Sequence[Fraction]]],
) -> dict:
    """Verify |tau(C)| = |prod det A_i| |tau(C')| |tau(C'')| for a degreewise
    short exact sequence, A_i = [inclusion | lift of the quotient basis]."""
    m = c.length
    if len(inclusions) != m + 1 or len(projections) != m + 1:
        raise NotExact("need one inclusion and one projection per degree")
    basis_factor = Fraction(1)
    for i in range(m + 1):
        n_p, n, n_pp = cp.rank(i), c.ranks[i], cpp.rank(i)
        incl = rational_matrix(inclusions[i], n, n_p, f"inclusion {i}")
        proj = rational_matrix(projections[i], n_pp, n, f"projection {i}")
        if n_p + n_pp != n:
            raise NotExact(f"rank mismatch in degree {i}")
        if n_p and rational_rank(incl) != n_p:
            raise NotExact(f"inclusion not injective in degree {i}")
        if n_pp and rational_rank(proj) != n_pp:
            raise NotExact(f"projection not surjective in degree {i}")
        if n_p and n_pp and not _is_zero(mat_mul(proj, incl)):
            raise NotExact(f"projection o inclusion != 0 in degree {i}")
        lift = (
            _particular_solution(proj, [[Fraction(r == s) for s in range(n_pp)] for r in range(n_pp)])
            if n_pp
            else _mat(n, 0)
        )
        a_i = [incl[r] + lift[r] for r in range(n)]
        det = determinant(a_i) if a_i else Fraction(1)
        if det == 0:
            raise NotExact(f"sequence not split-compatible in degree {i}")
        basis_factor *= abs(det)
    tau_c = torsion(c)
    tau_p = torsion(cp)
    tau_pp = torsion(cpp)
    lhs = abs(tau_c)
    rhs = basis_factor * abs(tau_p) * abs(tau_pp)
    return {
        "torsion_C": rational_to_str(tau_c),
        "torsion_Cprime": rational_to_str(tau_p),
        "torsion_Cdoubleprime": rational_to_str(tau_pp),
        "basis_factor": rational_to_str(basis_factor),
        "abs_equal": lhs == rhs,
        "sign": "+" if tau_c * tau_p * tau_pp > 0 else "-",
    }


def standard_sum_maps(cp: BasedChainComplex, cpp: BasedChainComplex, c: BasedChainComplex):
    """Inclusion/projection matrices for the standard direct-sum splitting."""
    inclusions, projections = [], []
    for i in range(c.length + 1):
        n_p, n, n_pp = cp.rank(i), c.ranks[i], cpp.rank(i)
        inclusions.append([[Fraction(r == s) for s in range(n_p)] for r in range(n)])
        projections.append([[Fraction(s == n_p + r) for s in range(n)] for r in range(n_pp)])
    return inclusions, projections


# random_acyclic_complex draws a length in 1..MAX_RANDOM_LENGTH and, per
# degree, 0..MAX_RANDOM_BLOCKS elementary blocks
MAX_RANDOM_LENGTH = 3
MAX_RANDOM_BLOCKS = 4


def random_acyclic_complex(rng: random.Random) -> BasedChainComplex:
    """Rationally acyclic integer complex: elementary d-blocks twisted by
    unimodular based changes with small entries."""
    length = rng.randint(1, MAX_RANDOM_LENGTH)
    blocks_per_degree = [0] + [rng.randint(0, MAX_RANDOM_BLOCKS) for _ in range(length)]
    if not any(blocks_per_degree):
        blocks_per_degree[1] = 1
    # layout: in degree i the first blocks_per_degree[i] basis vectors are
    # block sources, the rest are targets of degree i+1 blocks
    ranks = [a + b for a, b in zip(blocks_per_degree, blocks_per_degree[1:] + [0])]
    mats = [_mat(ranks[i - 1], ranks[i]) for i in range(1, length + 1)]
    for i in range(1, length + 1):
        target_offset = blocks_per_degree[i - 1]  # skip degree i-1 sources
        for b in range(blocks_per_degree[i]):
            d = rng.choice([1, 1, 2, 3, 5, -2, -3])
            mats[i - 1][target_offset + b][b] = Fraction(d)
    # twist by unimodular based changes: d_i -> P_{i-1} d_i P_i^{-1}
    for i in range(length + 1):
        n = ranks[i]
        if n < 2:
            continue
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(n), 2)
            q = rng.randint(-2, 2)
            # unimodular based change on C_i: d_i picks up a column
            # operation, d_{i+1} the inverse row operation
            if i >= 1:
                m_i = mats[i - 1]
                for row in range(len(m_i)):
                    m_i[row][a] += q * m_i[row][b]
            # matrices of d_{i+1} (codomain C_i): row b -= q * row a
            if i < length:
                m_next = mats[i]
                m_next[b] = [x - q * y for x, y in zip(m_next[b], m_next[a])]
    return BasedChainComplex(ranks, mats)
