"""Gaussian Hermitian matrix moments by exact Wick contraction.

The measure is exp(-tr(M^2 Lambda)/2) with Lambda = diag(lambda_1..N), so
the propagator is <M_ij M_kl> = 2 delta_il delta_jk / (lambda_i + lambda_j)
(fixed by the N = 1 case and validated numerically at N = 2 by
gaussian_normalization_check).  Scalar mode replaces the propagator by 1/N
and tracks moments as exact Laurent polynomials in N.

Also here: the 't Hooft genus regrouping, the perturbative match between
the Wick expansion of the cubic matrix integral and the ribbon-graph sum,
and two numeric cross-checks: the normalization constant by a product of
one-dimensional Gauss-Legendre rules, one per independent real coordinate
of M, and the rank-2 Harish-Chandra/Itzykson-Zuber formula by Monte Carlo
over Haar unitaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetError,
    ConventionMismatch,
    DomainError,
    NumericError,
    Unsupported,
)
from .exact import TruncatedSeries, double_factorial
from .ribbon import kontsevich_sum

DEFAULT_MAX_MATCHINGS = 20_000


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


def _matchings(slots: list[int]):
    """All perfect matchings of the given slots as lists of pairs."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _matchings(remaining):
            yield [(first, partner)] + tail


def _matching_faces(pairs, nxt):
    """Face structure of one Wick matching.

    Slot s carries the entry M_{a_s b_s} with b_s = a_{nxt(s)}; pairing s~t
    forces a_s = b_t = a_{nxt(t)}, so the index loops (faces) are the cycles
    of s -> nxt(partner(s)).  Returns (edge list as face-id pairs, face count).
    """
    partner = [0] * len(nxt)
    for s, t in pairs:
        partner[s], partner[t] = t, s
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
    return [(face[s], face[nxt[s]]) for s, _ in pairs], faces


def _canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    """Relabel face ids by first appearance so equal shapes share a key."""
    relabel: dict[int, int] = {}
    out = []
    for a, b in edges:
        for r in (a, b):
            if r not in relabel:
                relabel[r] = len(relabel)
        ra, rb = relabel[a], relabel[b]
        out.append((ra, rb) if ra <= rb else (rb, ra))
    return tuple(out)


def _colored_sum(
    edges: tuple[tuple[int, int], ...], faces: int, weight: list[list[Fraction]]
) -> Fraction:
    """Sum over face colorings 1..N of the product of edge propagators."""
    total = Fraction(0)
    for colors in itertools.product(range(len(weight)), repeat=faces):
        prod = Fraction(1)
        for a, b in edges:
            prod *= weight[colors[a]][colors[b]]
        total += prod
    return total


def _check_budget(word: TraceWord, max_matchings: int) -> None:
    count = double_factorial(word.degree - 1)
    if count > max_matchings:
        raise BudgetError(
            f"{count} matchings exceed the budget of {max_matchings}"
        )


def wick_moment(
    spec: GaussianSpec,
    word: TraceWord,
    max_matchings: int = DEFAULT_MAX_MATCHINGS,
):
    """<word> under the Gaussian measure.

    Diagonal mode: exact Fraction, summing 2/(lambda_i + lambda_j) edge
    factors over all matchings and index-loop colorings.  Scalar mode:
    Laurent polynomial in N as a dict {power: coefficient}, each matching
    contributing N^{faces - pairs}.
    """
    if word.degree % 2:
        return {} if spec.scalar_mode else Fraction(0)
    _check_budget(word, max_matchings)
    nxt = _slot_cycles(word)
    slots = list(range(word.degree))
    if spec.scalar_mode:
        laurent: dict[int, Fraction] = {}
        pair_count = word.degree // 2
        for pairs in _matchings(slots):
            _, faces = _matching_faces(pairs, nxt)
            power = faces - pair_count
            laurent[power] = laurent.get(power, Fraction(0)) + 1
        return {p: c for p, c in sorted(laurent.items()) if c}
    lams = spec.lambda_diag
    weight = [[Fraction(2, 1) / (a + b) for b in lams] for a in lams]
    cache: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for pairs in _matchings(slots):
        edges, faces = _matching_faces(pairs, nxt)
        key = _canonical_edges(edges)
        value = cache.get(key)
        if value is None:
            value = _colored_sum(key, faces, weight)
            cache[key] = value
        total += value
    return total


def laurent_eval(laurent: dict[int, Fraction], n: Fraction) -> Fraction:
    return sum((c * Fraction(n) ** p for p, c in laurent.items()), Fraction(0))


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


def kontsevich_match(
    N: int,
    lambda_diag: Sequence[Fraction],
    vertex_order: int = 2,
    max_order: int = 4,
    max_darts: int = 12,
    max_matchings: int = DEFAULT_MAX_MATCHINGS,
) -> dict:
    """Match the cubic Wick expansion against the colored ribbon-graph sum.

    Wick side: coefficient of eps^V in log <exp(i eps tr M^3 / 6)>, an exact
    rational (i^V is real at even V, odd moments vanish).  Graph side: for
    2(n + 2g - 2) = V, sum over face colorings r in {1..N}^n of the
    trivalent graph sum at (lambda_{r_1}, ..., lambda_{r_n}) times
    (-1)^n / n!.  At V = 2 also compares with t_0^3/6 + t_1/24.
    Raises ConventionMismatch (report attached) if any side disagrees.
    """
    if vertex_order < 0 or vertex_order % 2:
        raise DomainError("vertex order must be even and nonnegative")
    if vertex_order > max_order:
        raise BudgetError(f"vertex order {vertex_order} exceeds cap {max_order}")
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
            block = Fraction(0)
            for colors in itertools.product(range(N), repeat=n):
                block += kontsevich_sum(
                    g, n, tuple(lams[r] for r in colors), max_darts
                )
            graph[v] += block * Fraction((-1) ** n, math.factorial(n))

    report = {
        "N": N,
        "lambda": [str(v) for v in lams],
        "vertex_order": vertex_order,
        "wick_log": {str(v): str(wick_log[v]) for v in graph},
        "graph_side": {str(v): str(graph[v]) for v in graph},
        "agree": all(wick_log[v] == graph[v] for v in graph),
    }
    if vertex_order >= 2:
        t = source_times(lams, 2)
        free_energy = t[0] ** 3 / 6 + t[1] / 24
        report["free_energy_order2"] = str(free_energy)
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


def _gauss_legendre(scale: float, points: int) -> float:
    """Gauss-Legendre rule for int exp(-scale x^2/2) dx over +-14 std devs."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
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


def _haar_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """Batch of Haar U(2) by Gram-Schmidt with positive-real diagonal R."""
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q1 = z[:, :, 0]
    q1 = q1 / np.linalg.norm(q1, axis=1, keepdims=True)
    v = z[:, :, 1] - np.sum(np.conj(q1) * z[:, :, 1], axis=1, keepdims=True) * q1
    q2 = v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([q1, q2], axis=2)


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


def hciz_check(
    x: Sequence[float],
    y: Sequence[float],
    sample_count: int = 200_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo of <exp tr(X U Y U*)> over Haar U(2) vs the closed form."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != 2 or len(y) != 2:
        raise DomainError("rank-2 check needs two x values and two y values")
    if sample_count < 2:
        raise DomainError("need at least two samples")
    try:  # a zero division is (x1 - x2)(y1 - y2) underflowing
        peak = math.exp(max(a * b for a in x for b in y))
        closed = hciz_closed_form(x, y)
    except (OverflowError, ZeroDivisionError):
        peak = closed = math.inf
    if not (math.isfinite(peak) and math.isfinite(closed)):
        raise DomainError("exp(x_i y_j) or the closed form is out of float range")
    rng = np.random.default_rng(seed)
    values = np.empty(sample_count)
    chunk = 50_000
    done = 0
    while done < sample_count:
        size = min(chunk, sample_count - done)
        u = _haar_unitaries(rng, size)
        absq = np.abs(u) ** 2
        # tr(X U Y U*) = sum_ij x_i y_j |U_ij|^2
        trace = np.einsum("i,j,sij->s", np.asarray(x), np.asarray(y), absq)
        values[done : done + size] = np.exp(trace)
        done += size
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(sample_count))
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
