"""Gaussian Hermitian matrix moments by exact Wick contraction.

The measure is exp(-tr(M^2 Lambda)/2) with Lambda = diag(lambda_1..N), so
the propagator is <M_ij M_kl> = 2 delta_il delta_jk / (lambda_i + lambda_j)
(fixed by the N = 1 case and validated numerically at N = 2 by
gaussian_normalization_check).  Scalar mode replaces the propagator by 1/N
and tracks moments as exact Laurent polynomials in N.

Both modes read one memoized shape table per trace word: a single walk over
the (d-1)!! Wick matchings counts how many give each face multigraph (edges
between index loops, up to relabeling).  Scalar mode sums mult * N^{faces -
pairs}; diagonal mode sums the face colorings of each shape in integers,
after scaling the lambda_i to a common denominator, and divides once.

Also here: the 't Hooft genus regrouping, the perturbative match between
the Wick expansion of the cubic matrix integral and the ribbon-graph sum,
and two numeric cross-checks: the normalization constant by a product of
one-dimensional Gauss-Legendre rules, one per independent real coordinate
of M, and the rank-2 Harish-Chandra/Itzykson-Zuber formula by Monte Carlo
over Haar unitaries.  Only these two import numpy, inside the functions.

The Monte Carlo reads one number per unitary.  For U in U(2), unitarity
gives |U_01|^2 = |U_10|^2 = 1 - p and |U_11|^2 = p with p = |U_00|^2, so
tr(X U Y U*) = (x0 y0 + x1 y1) p + (x0 y1 + x1 y0)(1 - p).  Gram-Schmidt on
a complex Gaussian draw z normalizes its first column, so
p = |z_00|^2 / (|z_00|^2 + |z_10|^2) and the unitary is never formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetError,
    ConventionMismatch,
    DomainError,
    NumericError,
    Unsupported,
)
from .exact import TruncatedSeries, common_denominator, double_factorial, rational_to_str
from .ribbon import kontsevich_sum

DEFAULT_MAX_MATCHINGS = 20_000
MAX_WORD_FACTORS = 10**6  # a longer word is refused before its factor list is built


@dataclass(frozen=True)
class TraceWord:
    """Product of traces prod_i tr(M^{k_i}); powers kept sorted descending."""

    powers: tuple[int, ...]

    def __post_init__(self):
        powers = tuple(sorted((int(k) for k in self.powers), reverse=True))
        if any(k < 1 for k in powers):
            raise DomainError("trace powers must be >= 1")
        object.__setattr__(self, "powers", powers)

    @property
    def degree(self) -> int:
        return sum(self.powers)

    @classmethod
    def from_string(cls, text: str) -> "TraceWord":
        """Parse words like "tr3^2,tr4" (tr M^3 squared times tr M^4)."""
        powers = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk.startswith("tr"):
                raise DomainError(f"cannot parse trace factor {chunk!r}")
            body = chunk[2:]
            if "^" in body:
                base, _, mult = body.partition("^")
                if int(mult) < 0:
                    raise DomainError(f"negative multiplicity in {chunk!r}")
                if len(powers) + int(mult) > MAX_WORD_FACTORS:
                    raise BudgetError(f"the word has over {MAX_WORD_FACTORS} trace factors")
                powers.extend([int(base)] * int(mult))
            else:
                powers.append(int(body))
        return cls(tuple(powers))


@dataclass(frozen=True)
class GaussianSpec:
    """Diagonal external source (lambda_diag given) or scalar 1/N mode."""

    N: int
    lambda_diag: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("matrix size must be positive")
        if self.lambda_diag is not None:
            lams = tuple(Fraction(v) for v in self.lambda_diag)
            if len(lams) != self.N:
                raise DomainError("need exactly N diagonal entries")
            if any(v <= 0 for v in lams):
                raise DomainError("lambda entries must be positive")
            object.__setattr__(self, "lambda_diag", lams)

    @property
    def scalar_mode(self) -> bool:
        return self.lambda_diag is None


def _slot_cycles(word: TraceWord) -> list[int]:
    """Successor of each slot 0..d-1 around its trace cycle."""
    nxt, base = [], 0
    for k in word.powers:
        nxt.extend(base + (i + 1) % k for i in range(k))
        base += k
    return nxt


def _shape(partner: list[int], nxt: list[int]) -> tuple:
    """Face multigraph of one Wick matching, as a key shared by equal shapes.

    Slot s carries the entry M_{a_s b_s} with b_s = a_{nxt(s)}; pairing s~t
    forces a_s = b_t = a_{nxt(t)}, so the index loops (faces) are the cycles
    of s -> nxt(partner(s)), and the pair s~t is an edge between the faces
    of s and t.  Face ids are relabeled by first appearance and the edge
    list is sorted.  Returns (edges as face-id pairs, face count).
    """
    face = [-1] * len(nxt)
    faces = 0
    for start in range(len(nxt)):
        if face[start] >= 0:
            continue
        s = start
        while face[s] < 0:
            face[s] = faces
            s = nxt[partner[s]]
        faces += 1
    relabel: dict[int, int] = {}
    edges = []
    for s, t in enumerate(partner):
        if s < t:
            a = relabel.setdefault(face[s], len(relabel))
            b = relabel.setdefault(face[t], len(relabel))
            edges.append((a, b) if a <= b else (b, a))
    return tuple(sorted(edges)), faces


@functools.lru_cache(maxsize=32)
def _shape_table(word: TraceWord) -> tuple[tuple[tuple, int, int], ...]:
    """(edges, faces, matchings) for each shape of the word's Wick matchings.

    The one walk over all (d-1)!! perfect matchings of the d slots; both
    modes of wick_moment read its result.
    """
    nxt = _slot_cycles(word)
    partner = [-1] * len(nxt)
    counts: dict[tuple, int] = {}

    def walk(first: int) -> None:
        while first < len(partner) and partner[first] >= 0:
            first += 1
        if first == len(partner):
            key = _shape(partner, nxt)
            counts[key] = counts.get(key, 0) + 1
            return
        for t in range(first + 1, len(partner)):
            if partner[t] < 0:
                partner[first], partner[t] = t, first
                walk(first + 1)
                partner[first] = partner[t] = -1

    walk(0)
    return tuple((edges, faces, mult) for (edges, faces), mult in counts.items())


# Face colorings the diagonal sum may walk: sum over shapes of N^faces.  The
# largest shipped use, tr3^4 at N = 3 in `matrix match --order 4`, needs
# 17,019; tr8 at N = 20 needs 4.5e7 (26 s on a 2-core x86 VM).
MAX_COLORINGS = 10**6
# Diagonal work: colorings x pairs x the bit length of L, the size of each
# edge weight.  tr3^4 at N = 3 costs 1.2e6 at lambda = 3,4,5 and 2.0e8 at
# three 150-digit lambda (0.9 s on a 2-core x86 VM); three 1000-digit lambda
# (1.4e9, 27.6 s) are refused.
MAX_DIAGONAL_WORK = 2 * 10**8
# Weight-table work, priced before the pair sums are formed: N^2 quotients
# L/(P_a + P_b), each about bits(L) x words(P_a + P_b).  L divides
# lcm(1..top), top = 2 P_max, which has under 1.5 top bits (Rosser-Schoenfeld),
# and divides the product of the at most S distinct pair sums; the smaller
# bound prices bits(L).  lambda = 1..1000 costs 3.0e9 (1.2 s on a 2-core x86 VM) and 100
# ten-digit lambda 1.8e9 (1.4 s); 130 ten-digit lambda (5.0e9, 3.4 s) and
# lambda = 1..2000 (2.4e10) are refused.
MAX_DIAGONAL_TABLE_WORK = 4 * 10**9


def _diagonal_sum(table, lams: Sequence[Fraction], pairs: int) -> Fraction:
    """Sum over shapes and face colorings of prod_e 2/(lambda_a + lambda_b).

    With lambda_i = P_i/D and L = lcm(P_a + P_b), each edge factor is
    (2D/L) * L/(P_a + P_b), so the colorings are summed in integers and
    divided once.  Over MAX_COLORINGS colorings, over MAX_DIAGONAL_TABLE_WORK
    before the pair sums are formed, or over MAX_DIAGONAL_WORK before the
    walk, raises BudgetError.
    """
    colorings = sum(len(lams) ** faces for _, faces, _ in table)
    if colorings > MAX_COLORINGS:
        raise BudgetError(f"{colorings} face colorings exceed the budget of {MAX_COLORINGS}")
    denom, scaled = common_denominator(lams)
    size, top = len(scaled), 2 * max(scaled)
    sums = min(size * (size + 1) // 2, top - 2 * min(scaled) + 1)
    bits = min(sums * top.bit_length(), 3 * top // 2 + 1)
    table_work = size * size * bits * (top.bit_length() // 64 + 1)
    if table_work > MAX_DIAGONAL_TABLE_WORK:
        raise BudgetError(
            f"diagonal table work {table_work} (N^2 x bits x words)"
            f" exceeds the budget {MAX_DIAGONAL_TABLE_WORK}"
        )
    lcm = math.lcm(*{a + b for a in scaled for b in scaled})
    work = colorings * pairs * lcm.bit_length()
    if work > MAX_DIAGONAL_WORK:
        raise BudgetError(
            f"diagonal work {work} (colorings x pairs x bits) exceeds the budget {MAX_DIAGONAL_WORK}"
        )
    weight = [[lcm // (a + b) for b in scaled] for a in scaled]
    total = 0
    for edges, faces, mult in table:
        colored = 0
        for colors in itertools.product(range(len(weight)), repeat=faces):
            prod = 1
            for a, b in edges:
                prod *= weight[colors[a]][colors[b]]
            colored += prod
        total += mult * colored
    return Fraction(total * (2 * denom) ** pairs, lcm**pairs)


MAX_COUNTED_MATCHINGS = 10**18  # (d-1)!! is not formed in full past this


def _check_budget(word: TraceWord, max_matchings: int) -> None:
    """Refuse a word whose (d-1)!! matchings exceed max_matchings.  The product
    stops past both the budget and MAX_COUNTED_MATCHINGS, so a long word costs
    a few factors and its message stays short."""
    limit = max(max_matchings, MAX_COUNTED_MATCHINGS)
    count, factor = 1, word.degree - 1
    while factor > 1 and count <= limit:
        count, factor = count * factor, factor - 2
    if count > max_matchings:
        shown = f"over {limit}" if count > limit else count
        raise BudgetError(f"{shown} matchings exceed the budget of {max_matchings}")


def wick_moment(
    spec: GaussianSpec,
    word: TraceWord,
    max_matchings: int = DEFAULT_MAX_MATCHINGS,
):
    """<word> under the Gaussian measure.

    Diagonal mode: exact Fraction, summing 2/(lambda_i + lambda_j) edge
    factors over all matchings and index-loop colorings.  Scalar mode:
    Laurent polynomial in N as a dict {power: coefficient}, each matching
    contributing N^{faces - pairs}.  The budget counts the (d-1)!! matchings
    the shape table walks, and is checked even when the table is cached.
    """
    if word.degree % 2:
        return {} if spec.scalar_mode else Fraction(0)
    _check_budget(word, max_matchings)
    table = _shape_table(word)
    pairs = word.degree // 2
    if not spec.scalar_mode:
        return _diagonal_sum(table, spec.lambda_diag, pairs)
    laurent: dict[int, int] = {}
    for _, faces, mult in table:
        laurent[faces - pairs] = laurent.get(faces - pairs, 0) + mult
    return {p: Fraction(c) for p, c in sorted(laurent.items())}


def genus_expansion(
    word: TraceWord, max_matchings: int = DEFAULT_MAX_MATCHINGS
) -> dict[int, Fraction]:
    """Regroup the scalar-mode moment of a single trace by genus.

    For tr M^{2k} each matching has one vertex, k edges and F faces with
    1 - F + k = 2g, so the N-power F - k equals 1 - 2g.
    """
    if len(word.powers) != 1:
        raise DomainError("genus bookkeeping is defined for single-trace words")
    laurent = wick_moment(GaussianSpec(1), word, max_matchings)
    out: dict[int, Fraction] = {}
    for power, coeff in laurent.items():
        g2 = 1 - power
        if g2 < 0 or g2 % 2:
            raise DomainError(f"unexpected N-power {power} for a single trace")
        out[g2 // 2] = coeff
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Perturbative Kontsevich match
# ---------------------------------------------------------------------------


def source_times(lams: Sequence[Fraction], count: int) -> list[Fraction]:
    """t_i(Lambda) = -(2i-1)!! sum_r lambda_r^{-(2i+1)} for i < count."""
    return [
        -Fraction(double_factorial(2 * i - 1))
        * sum((Fraction(1) / Fraction(lam) ** (2 * i + 1) for lam in lams), Fraction(0))
        for i in range(count)
    ]


MAX_VERTEX_ORDER = 4  # the largest eps power kontsevich_match expands to


def kontsevich_match(
    N: int,
    lambda_diag: Sequence[Fraction],
    vertex_order: int = 2,
    max_darts: int = 12,
    max_matchings: int = DEFAULT_MAX_MATCHINGS,
) -> dict:
    """Match the cubic Wick expansion against the colored ribbon-graph sum.

    Wick side: coefficient of eps^V in log <exp(i eps tr M^3 / 6)>, an exact
    rational (i^V is real at even V, odd moments vanish).  Graph side: for
    2(n + 2g - 2) = V, sum over face colorings r in {1..N}^n of the
    trivalent graph sum at (lambda_{r_1}, ..., lambda_{r_n}) times
    (-1)^n / n!, summed as one call per multiset of colors.  At V = 2 also
    compares with t_0^3/6 + t_1/24.
    Raises ConventionMismatch (report attached) if any side disagrees.
    """
    if vertex_order < 0 or vertex_order % 2:
        raise DomainError("vertex order must be even and nonnegative")
    if vertex_order > MAX_VERTEX_ORDER:
        raise BudgetError(f"vertex order {vertex_order} exceeds cap {MAX_VERTEX_ORDER}")
    spec = GaussianSpec(N, tuple(lambda_diag))
    lams = spec.lambda_diag

    wick = {(0,): 1}  # series in eps, truncated at eps^vertex_order
    for v in range(2, vertex_order + 1, 2):
        moment = wick_moment(spec, TraceWord((3,) * v), max_matchings)
        wick[(v,)] = Fraction((-1) ** (v // 2), 6**v * math.factorial(v)) * moment
    log_series = TruncatedSeries(("eps",), (1,), vertex_order, wick).log()
    wick_log = [log_series.coefficient((v,)) for v in range(vertex_order + 1)]

    graph = {v: Fraction(0) for v in range(2, vertex_order + 1, 2)}
    for v in graph:
        for n in range(1, v // 2 + 3):
            g2 = v // 2 - n + 2  # 2g
            if g2 < 0 or g2 % 2:
                continue
            g = g2 // 2
            # the graph sum is symmetric in lambda: one call per multiset of
            # colors, weighted by its n!/prod m_i! orderings
            block = Fraction(0)
            for colors in itertools.combinations_with_replacement(range(N), n):
                orderings = math.factorial(n)
                for r in set(colors):
                    orderings //= math.factorial(colors.count(r))
                block += orderings * kontsevich_sum(
                    g, n, tuple(lams[r] for r in colors), max_darts
                )
            graph[v] += block * Fraction((-1) ** n, math.factorial(n))

    report = {
        "N": N,
        "lambda": [rational_to_str(v) for v in lams],
        "vertex_order": vertex_order,
        "wick_log": {str(v): rational_to_str(wick_log[v]) for v in graph},
        "graph_side": {str(v): rational_to_str(graph[v]) for v in graph},
        "agree": all(wick_log[v] == graph[v] for v in graph),
    }
    if vertex_order >= 2:
        t = source_times(lams, 2)
        free_energy = t[0] ** 3 / 6 + t[1] / 24
        report["free_energy_order2"] = rational_to_str(free_energy)
        report["order2_agrees"] = wick_log[2] == free_energy
    if not report["agree"] or not report.get("order2_agrees", True):
        raise ConventionMismatch("Wick/graph expansion mismatch", ratios=report)
    return report


# ---------------------------------------------------------------------------
# Numeric checks: normalization constant and rank-2 Harish-Chandra formula
# ---------------------------------------------------------------------------

MEASURE_CONVENTION = (
    "dM = prod_i dM_ii * prod_{i<j} 2 dRe(M_ij) dIm(M_ij); the factor 2 per "
    "off-diagonal pair reproduces the printed 2^{N(N-1)/2} constant"
)


def _formula_value(lams: Sequence[float]) -> float:
    n = len(lams)
    value = 2.0 ** (n * (n - 1) / 2) * (2 * math.pi) ** (n * n / 2)
    for lam in lams:
        value /= math.sqrt(lam)
    for i in range(n):
        for j in range(i + 1, n):
            value /= lams[i] + lams[j]
    return value


@functools.lru_cache(maxsize=8)
def _legendre_rule(points: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per
    point count: every coordinate of every quadrature shares them."""
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(scale: float, points: int) -> float:
    """Gauss-Legendre rule for int exp(-scale x^2/2) dx over +-14 std devs."""
    import numpy as np
    nodes, weights = _legendre_rule(points)
    half = 14.0 / math.sqrt(scale)
    x = nodes * half
    return float(np.dot(weights * half, np.exp(-0.5 * scale * x * x)))


def _quadrature(lams: Sequence[float], points: int) -> float:
    """Tensor Gauss-Legendre rule for int exp(-tr(Lambda M^2)/2) dM.

    tr(Lambda M^2) = sum_i lambda_i M_ii^2 + sum_{i<j} (lambda_i + lambda_j)
    (Re^2 + Im^2)(M_ij), a sum over independent coordinates, so the tensor
    rule is the product of one 1-dim rule per coordinate.
    """
    value = 1.0
    for i, lam in enumerate(lams):
        value *= _gauss_legendre(lam, points)
        for other in lams[i + 1 :]:
            # MEASURE_CONVENTION: factor 2 per off-diagonal pair
            value *= 2.0 * _gauss_legendre(lam + other, points) ** 2
    return value


def gaussian_normalization_check(
    N: int, lambda_diag: Sequence[Fraction], tol: float
) -> dict:
    """Quadrature of int exp(-tr(Lambda M^2)/2) dM against the closed form."""
    if N not in (1, 2):
        raise Unsupported("quadrature check is guarded to N <= 2")
    exact = [Fraction(v) for v in lambda_diag]
    if len(exact) != N or any(v <= 0 for v in exact):
        raise DomainError("need N positive diagonal entries")
    try:
        lams = [float(v) for v in exact]
    except OverflowError:
        lams = [math.inf]
    if not all(0 < v < math.inf for v in lams):
        raise DomainError("lambda out of float range")
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and > 0")
    coarse = _quadrature(lams, 60)
    value = _quadrature(lams, 80)
    if not math.isfinite(value) or abs(value - coarse) > max(tol, 1e-9) * abs(value):
        raise NumericError(f"{N * N}-dim quadrature did not converge")
    formula = _formula_value(lams)
    rel = abs(value - formula) / abs(formula)
    return {
        "N": N,
        "lambda": [str(Fraction(v)) for v in lambda_diag],
        "quadrature": format(value, ".17g"),
        "formula": format(formula, ".17g"),
        "relative_error": format(rel, ".17g"),
        "tol": format(tol, ".17g"),
        "pass": rel < tol,
        "convention": MEASURE_CONVENTION,
    }


def hciz_closed_form(x: Sequence[float], y: Sequence[float]) -> float:
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    if x1 == x2:
        return math.exp(x1 * (y1 + y2))
    if y1 == y2:
        return math.exp(y1 * (x1 + x2))
    return (math.exp(x1 * y1 + x2 * y2) - math.exp(x1 * y2 + x2 * y1)) / (
        (x1 - x2) * (y1 - y2)
    )


MAX_HCIZ_SAMPLES = 10**7  # 80 MB of float64 samples, refused before numpy loads
HCIZ_CHUNK = 50_000  # unitaries drawn at a time


def _sampled_traces(
    x: Sequence[float], y: Sequence[float], sample_count: int, seed: int
) -> np.ndarray:
    """tr(X U Y U*) for each of sample_count Haar U(2), as a float array.

    Each chunk draws the real and then the imaginary parts of complex
    Gaussian 2x2 matrices z, as Gram-Schmidt sampling does, and reads only
    p from their first columns (see hciz_check).
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    same = x[0] * y[0] + x[1] * y[1]
    cross = x[0] * y[1] + x[1] * y[0]
    traces = np.empty(sample_count)
    done = 0
    while done < sample_count:
        size = min(HCIZ_CHUNK, sample_count - done)
        re = rng.standard_normal((size, 2, 2))
        im = rng.standard_normal((size, 2, 2))
        column = re[:, :, 0] ** 2 + im[:, :, 0] ** 2
        p = column[:, 0] / (column[:, 0] + column[:, 1])
        traces[done : done + size] = same * p + cross * (1.0 - p)
        done += size
        # freed before the next chunk is drawn, so two chunks never coexist
        del re, im, column, p
    return traces


def hciz_check(
    x: Sequence[float],
    y: Sequence[float],
    sample_count: int = 200_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo of <exp tr(X U Y U*)> over Haar U(2) vs the closed form.

    By unitarity the integrand depends on U only through p = |U_00|^2:
    tr(X U Y U*) = (x0 y0 + x1 y1) p + (x0 y1 + x1 y0)(1 - p), and the
    Gram-Schmidt unitary of a Gaussian draw z has p = |z_00|^2 /
    (|z_00|^2 + |z_10|^2), read from z's first column (_sampled_traces).
    Over MAX_HCIZ_SAMPLES samples raises BudgetError before numpy loads.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != 2 or len(y) != 2:
        raise DomainError("rank-2 check needs two x values and two y values")
    if sample_count < 2:
        raise DomainError("need at least two samples")
    if sample_count > MAX_HCIZ_SAMPLES:
        raise BudgetError(f"{sample_count} samples exceed the budget of {MAX_HCIZ_SAMPLES}")
    try:  # a zero division is (x1 - x2)(y1 - y2) underflowing
        peak = math.exp(max(a * b for a in x for b in y))
        closed = hciz_closed_form(x, y)
    except (OverflowError, ZeroDivisionError):
        peak = closed = math.inf
    if not (math.isfinite(peak) and math.isfinite(closed)):
        raise DomainError("exp(x_i y_j) or the closed form is out of float range")
    import numpy as np
    values = _sampled_traces(x, y, sample_count, seed)
    np.exp(values, out=values)
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(sample_count))
    # an infinite stderr would make the 5 * stderr tolerance pass anything
    if not (math.isfinite(estimate) and math.isfinite(stderr)):
        raise DomainError("the sample mean or variance is out of float range")
    diff = abs(estimate - closed)
    return {
        "x": [format(v, ".17g") for v in x],
        "y": [format(v, ".17g") for v in y],
        "samples": sample_count,
        "seed": seed,
        "estimate": format(estimate, ".17g"),
        "stderr": format(stderr, ".17g"),
        "closed_form": format(closed, ".17g"),
        "degenerate": x[0] == x[1] or y[0] == y[1],
        # the epsilon floor covers degenerate inputs where the integrand is
        # analytically constant and the only error is roundoff
        "pass": bool(diff <= 5 * stderr + 16 * np.finfo(float).eps * abs(closed)),
    }
