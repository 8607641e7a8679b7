"""Trivalent ribbon graph enumeration and the graph side of the main identity.

A ribbon (fat) graph on d darts is a pair of permutations: sigma, whose
3-cycles are the vertices with their cyclic dart order, and alpha, a
fixed-point-free involution whose transpositions are the edges.  Faces are
the cycles of sigma o alpha and carry labels 1..n.  Isomorphisms are dart
bijections conjugating sigma to sigma and alpha to alpha while preserving
every face label.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetError, ConventionMismatch, DomainError, PoleError
from .exact import common_denominator, double_factorial, rational_to_str, solve_linear_exact

DEFAULT_MAX_DARTS = 12
# rooted maps x face labelings x roots; the 18-dart block (0, 5) needs
# 1105 x 5! x 18 = 2386800.  An upper bound: each labeling compares only the
# roots tied at the least unlabeled encoding, and the graph sum compares none.
MAX_GRAPH_WORK = 2_500_000

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the extraction samples lambda_i = p_i + (k + 1)/SAMPLE_DENOMINATOR
SAMPLE_DENOMINATOR = 11


def face_numbers(sigma: Sequence[int], alpha: Sequence[int]) -> tuple[list[int], int]:
    """(face of each dart, face count): the faces are the cycles of
    sigma o alpha, numbered 0, 1, ... in first-dart order."""
    face = [-1] * len(sigma)
    count = 0
    for start in range(len(sigma)):
        if face[start] < 0:
            x = start
            while face[x] < 0:
                face[x] = count
                x = sigma[alpha[x]]
            count += 1
    return face, count


def _rooted_encoding(sigma, alpha, root):
    """Relabel darts by breadth-first discovery from root (sigma then alpha).

    Returns (sigma', alpha', old-dart-per-new-label).  Rooted connected maps
    have no nontrivial automorphisms fixing the root, so the encoding is a
    complete isomorphism invariant of the rooted map.
    """
    d = len(sigma)
    label = [-1] * d
    order = [root]
    label[root] = 0
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for y in (sigma[x], alpha[x]):
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
    sig2 = [0] * d
    alf2 = [0] * d
    for x in range(d):
        sig2[label[x]] = label[sigma[x]]
        alf2[label[x]] = label[alpha[x]]
    return tuple(sig2), tuple(alf2), order


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class RibbonGraphClass(NamedTuple):
    """Isomorphism class of a trivalent ribbon graph with labeled faces: its
    canonical encoding and the order of its automorphism group."""

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    face_labels: tuple[int, ...]  # per dart, values in 1..n
    aut_order: int

    def to_json(self) -> dict:
        return {
            "darts": len(self.sigma),
            "sigma": list(self.sigma),
            "alpha": list(self.alpha),
            "face_labels": list(self.face_labels),
            "aut_order": self.aut_order,
        }


def _canonical_sigma(darts: int) -> tuple[int, ...]:
    sigma = [0] * darts
    for v in range(darts // 3):
        a = 3 * v
        sigma[a], sigma[a + 1], sigma[a + 2] = a + 1, a + 2, a
    return tuple(sigma)


def _rooted_maps(darts: int) -> Iterator[tuple[int, ...]]:
    """Alpha of each rooted connected trivalent map on _canonical_sigma, once.

    Darts are paired in breadth-first order from the root dart 0.  Vertices
    open in index order, so the open darts are 0..3*opened-1, and each
    unpaired dart pairs with a later unpaired open dart or with the entry
    dart 3*opened of the next vertex, which opens it.  A rooted connected
    map has no nontrivial automorphism fixing its root, so each comes once.
    """
    alpha = [-1] * darts

    def rec(x: int, opened: int):
        while x < 3 * opened and alpha[x] >= 0:
            x += 1
        if x == 3 * opened:
            if x == darts:
                yield tuple(alpha)
            return
        for y in range(x + 1, min(3 * opened + 1, darts)):
            if alpha[y] < 0:
                alpha[x], alpha[y] = y, x
                yield from rec(x + 1, opened + (y == 3 * opened))
                alpha[x] = alpha[y] = -1

    yield from rec(0, 1)


def _faced_maps(darts: int, n: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(alpha, face) for each rooted map of _rooted_maps(darts) with n faces,
    face[x] the face of dart x as face_numbers numbers it (0..n-1)."""
    sigma = _canonical_sigma(darts)
    for alpha in _rooted_maps(darts):
        face, count = face_numbers(sigma, alpha)
        if count == n:
            yield alpha, face


def _rooted_map_counts() -> Iterator[int]:
    """a(0), a(1), ...: rooted connected trivalent maps on 6k darts, all
    genera (OEIS A062980).

    a(0) = 1, a(k) = (6k - 2) a(k-1) + sum_{i<k} a(i) a(k-1-i).
    """
    a = [1]
    while True:
        yield a[-1]
        k = len(a)
        a.append((6 * k - 2) * a[-1] + sum(a[i] * a[k - 1 - i] for i in range(k)))


def _graph_work_fits(k: int, n: int) -> bool:
    """Whether rooted maps x n! face labelings x 6k roots <= MAX_GRAPH_WORK.

    a(k) grows with k, so the count stops at the first term whose maps
    times roots alone pass the budget; n! is formed only for small k,
    since n <= k + 2.
    """
    for j, maps in enumerate(_rooted_map_counts()):
        if maps * 6 * k > MAX_GRAPH_WORK:
            return False
        if j == k:
            return maps * math.factorial(n) * 6 * k <= MAX_GRAPH_WORK


def _trivalent_darts(g: int, n: int, max_darts: int) -> int:
    """Dart count 6(n + 2g - 2) of a trivalent (g, n) graph, within budget.

    Besides max_darts, the enumeration work (rooted maps x n! labelings x
    roots) must fit MAX_GRAPH_WORK.
    """
    if g < 0 or n < 1:
        raise DomainError("need genus >= 0 and at least one face")
    k = n + 2 * g - 2
    if k < 1:
        raise DomainError(f"no trivalent graph for (g, n) = ({g}, {n})")
    darts = 6 * k
    if darts > max_darts:
        raise BudgetError(f"{darts} darts exceeds budget {max_darts}")
    if not _graph_work_fits(k, n):
        raise BudgetError(
            f"(g, n) = ({g}, {n}) needs more than {MAX_GRAPH_WORK} rooted maps "
            f"x face labelings x roots"
        )
    return darts


def enumerate_trivalent(
    g: int, n: int, max_darts: int = DEFAULT_MAX_DARTS
) -> tuple[RibbonGraphClass, ...]:
    """Complete duplicate-free list of labeled-face trivalent classes.

    Vertices V = 2(n+2g-2), edges E = 3(n+2g-2) and faces n (_faced_maps
    keeps only the maps with n faces), so V - E + F = 2 - 2g: every class is
    connected with Euler genus g.  Each rooted connected map with n faces is
    generated once (_faced_maps); its class under every face labeling is
    the minimum encoding over all roots, so the result does not depend on
    which map of a class comes first.  Face labels come last in an encoding,
    so that minimum lies among the roots whose unlabeled encoding is least
    (an orbit of the unlabeled map's automorphisms), and each labeling
    compares only those.
    """
    darts = _trivalent_darts(g, n, max_darts)
    sigma = _canonical_sigma(darts)
    classes: dict[tuple, RibbonGraphClass] = {}
    labelings = list(itertools.permutations(range(1, n + 1)))
    for alpha, face_index in _faced_maps(darts, n):
        # rooted encodings computed once; labelings only permute face ids, so
        # the least labeled encoding is among the roots of least (sig2, alf2)
        rooted = [_rooted_encoding(sigma, alpha, root) for root in range(darts)]
        least = min(enc[:2] for enc in rooted)
        tied = [
            tuple(face_index[x] for x in order)
            for sig2, alf2, order in rooted
            if (sig2, alf2) == least
        ]
        for lab in labelings:
            encodings = [tuple(lab[f] for f in fidx) for fidx in tied]
            labels = min(encodings)
            canon = (*least, labels)
            if canon in classes:
                continue
            classes[canon] = RibbonGraphClass(*canon, encodings.count(labels))
    return tuple(classes[key] for key in sorted(classes))


# ---------------------------------------------------------------------------
# Graph side of the main identity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _graph_sum_table(g: int, n: int, max_darts: int) -> tuple:
    """The block's graph sum as one integer polynomial in the edge factors.

    A class with automorphism group Aut is d/|Aut| rooted maps with labeled
    faces (orbit-stabilizer), and a rooted map's n! face labelings are
    distinct, so sum_classes 2^{-V}/|Aut| prod_e = 1/(d * 2^V) sum over
    rooted maps and labelings of prod_e: no class or aut_order is formed.
    Returns (pairs, E, den, terms): the sorted face pairs, the edge count,
    den = d * 2^V and (pair indices, c) per sorted tuple of edge face pairs,
    c its labeled rooted maps, with den and every c divided by their gcd.
    """
    darts = _trivalent_darts(g, n, max_darts)
    counts: Counter[tuple[tuple[int, int], ...]] = Counter()
    for alpha, face in _faced_maps(darts, n):
        edges = [(face[x], face[alpha[x]]) for x in range(darts) if x < alpha[x]]
        for lab in itertools.permutations(range(1, n + 1)):
            key = sorted(
                (lab[a], lab[b]) if lab[a] <= lab[b] else (lab[b], lab[a]) for a, b in edges
            )
            counts[tuple(key)] += 1
    den = darts * 2 ** (darts // 3)
    divisor = math.gcd(den, *counts.values())
    pairs = tuple(sorted({pair for key in counts for pair in key}))
    index = {pair: i for i, pair in enumerate(pairs)}
    terms = tuple((tuple(map(index.get, key)), c // divisor) for key, c in counts.items())
    return pairs, darts // 2, den // divisor, terms


@lru_cache(maxsize=None)
def _graph_sum_plan(g: int, n: int, max_darts: int) -> tuple:
    """(pairs, E, den, steps, start): a trie over each term's sorted pair indices,
    with (node, pair, parent) per non-root node in reverse preorder and c at each
    term's last node in start; one product per node, (0, 4) 221 against 354."""
    pairs, edges, den, terms = _graph_sum_table(g, n, max_darts)
    steps, start, path, prev = [], [0], [0], (None,) * edges  # path: prev's nodes
    for key, c in sorted(terms):
        depth = 0
        while key[depth] == prev[depth]:  # the keys are distinct, so it stops
            depth += 1
        del path[depth + 1 :]
        for pair in key[depth:]:
            steps.append((len(start), pair, path[-1]))
            path.append(len(start))
            start.append(0)
        start[-1] = c
        prev = key
    return pairs, edges, den, tuple(reversed(steps)), tuple(start)


def _walk(steps, start, weight: Sequence[int]) -> int:
    """sum_terms c * prod_e weight[pair] on a _graph_sum_plan, by Horner."""
    acc = list(start)
    for node, pair, parent in steps:
        acc[parent] += weight[pair] * acc[node]
    return acc[0]


def kontsevich_sum(
    g: int, n: int, lams: Sequence[Fraction], max_darts: int = DEFAULT_MAX_DARTS
) -> Fraction:
    """Sum over classes of 2^{-V}/|Aut| * prod_e 2/(lambda_i + lambda_j),
    read from the rooted maps (orbit-stabilizer; see _graph_sum_table).

    With lambda_i = P_i/D and L = lcm(P_a + P_b) over the block's face
    pairs, each edge factor is (2D/L) * L/(P_a + P_b), so the terms are
    summed in integers over _graph_sum_table's den and divided once:
    sum = sum_terms c * prod_e L/(P_a + P_b) * (2D)^E / (den * L^E), the
    integer sum walked (_walk) on the block's Horner plan (_graph_sum_plan):
    data, no source compiled.  A zero pair sum raises PoleError on the least
    vanishing face pair (a, b).
    """
    lams = [x if type(x) is Fraction else Fraction(x) for x in lams]
    if len(lams) != n:
        raise DomainError("need one lambda per face")
    pairs, edges, den, steps, start = _graph_sum_plan(g, n, max_darts)
    denom, scaled = common_denominator(lams)
    sums = []
    for f1, f2 in pairs:
        s = scaled[f1 - 1] + scaled[f2 - 1]
        if s == 0:
            raise PoleError(f"lambda_{f1} + lambda_{f2} = 0")
        sums.append(s)
    lcm = math.lcm(*sums)
    total = _walk(steps, start, [lcm // s for s in sums])
    return Fraction(total * (2 * denom) ** edges, den * lcm**edges)


class IntersectionTable(NamedTuple):
    """Map (genus, descending exponent tuple) -> exact amplitude."""

    entries: dict[tuple[int, tuple[int, ...]], Fraction]

    def fragments(self) -> set[tuple[int, int]]:
        """The (g, n) blocks this table covers."""
        return {(g, len(d)) for g, d in self.entries}

    def to_json(self) -> dict:
        return {entry_key(g, d): rational_to_str(v) for (g, d), v in sorted(self.entries.items())}


def entry_key(g: int, d: tuple[int, ...]) -> str:
    """The JSON key g{g}:(d_1,...,d_n) of one table entry."""
    return f"g{g}:({','.join(map(str, d))})"


@lru_cache(maxsize=None)
def block_indices(g: int, n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Descending tuples (d_1 >= ... >= d_n >= 0) of block (g, n): sum(d_i) =
    3g - 3 + n, each d_i <= largest when given.  A branch stops once the
    slots left cannot hold the remaining sum.  Memoized, so the result is a
    tuple no caller can change."""
    total = 3 * g - 3 + n
    out = []

    def rec(remaining, slots, bound, prefix):
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        # the later slots are each at most d, so d >= remaining / slots
        for d in range(min(remaining, bound), -(-remaining // slots) - 1, -1):
            rec(remaining - d, slots - 1, d, prefix + (d,))

    if total >= 0:
        rec(total, n, total if largest is None else largest, ())
    return tuple(out)


def _sample_points(n: int, count: int) -> list[list[Fraction]]:
    """Deterministic pole-free, rank-robust lambda tuples."""
    return [
        [Fraction(_PRIMES[i]) + Fraction(k + 1, SAMPLE_DENOMINATOR) for i in range(n)]
        for k in range(count)
    ]


@lru_cache(maxsize=None)
def _convention_ratios(max_darts: int) -> tuple[Fraction, Fraction]:
    """Graph side over normalized LHS at the two base cases.

    The base normalisations <tau_0^3> = 1 and <tau_1> = 1/24 are forced by
    the string equation and the genus-one one-point value; both ratios must
    be exactly 1 for the 2^{-V} convention used here.
    """
    r03 = kontsevich_sum(0, 3, [Fraction(1)] * 3, max_darts) / Fraction(1)
    r11 = kontsevich_sum(1, 1, [Fraction(2)], max_darts) / Fraction(1, 192)
    return r03, r11


def extract_intersection_numbers(
    g: int, n: int, max_darts: int = DEFAULT_MAX_DARTS
) -> IntersectionTable:
    """Solve the main identity for all amplitudes with sum(d_i) = 3g-3+n: the
    checks on every call, the solve once per block, a fresh table each call."""
    _trivalent_darts(g, n, max_darts)  # refuse a bad or over-budget block before any sum
    ratios = _convention_ratios(max_darts)
    if ratios != (Fraction(1), Fraction(1)):
        raise ConventionMismatch(
            "graph-sum normalisation does not close at the base cases",
            ratios=ratios,
        )
    return IntersectionTable(dict(_block_amplitudes(g, n, max_darts)))


@lru_cache(maxsize=None)
def _block_amplitudes(g: int, n: int, max_darts: int) -> tuple:
    """((g, d), amplitude) per index tuple d of block (g, n), solved from the
    graph sum at >= 25% more deterministic sample points than unknowns with
    an exactly zero overdetermination residual."""
    multisets = block_indices(g, n)
    unknowns = len(multisets)
    count = max(unknowns + 1, -(-unknowns * 5 // 4))
    points = _sample_points(n, count)
    rows, rhs = [], []
    for lams in points:
        row = []
        for ms in multisets:
            acc = Fraction(0)
            for perm in set(itertools.permutations(ms)):
                term = Fraction(1)
                for lam, d in zip(lams, perm):
                    term /= lam ** (2 * d + 1)
                acc += term
            factor = 1
            for d in ms:
                factor *= double_factorial(2 * d - 1)
            row.append(acc * factor)
        rows.append(row)
        rhs.append(kontsevich_sum(g, n, lams, max_darts))
    solution = solve_linear_exact(rows, rhs)
    return tuple(((g, ms), value) for ms, value in zip(multisets, solution))


def base_table(max_genus: int = 1, max_darts: int = DEFAULT_MAX_DARTS) -> IntersectionTable:
    """All fragments with n + 2g - 2 <= max_darts/6 and g <= max_genus."""
    entries = {}
    kmax = max_darts // 6
    for g in range(max_genus + 1):
        for k in range(1, kmax + 1):
            n = k + 2 - 2 * g
            if n >= 1:
                entries.update(extract_intersection_numbers(g, n, max_darts).entries)
    return IntersectionTable(entries)
