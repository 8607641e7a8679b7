"""Tests for ribbon graph enumeration and amplitude extraction.

Oracles used here are independent of the production code paths:
- automorphism orders are cross-checked against a brute-force search over
  the full symmetric group on darts;
- class lists are cross-checked against orbit counting over every labeled
  dart structure (all vertex permutations, not just the canonical one);
- class lists are cross-checked against a brute-force walk over every
  fixed-point-free involution on the canonical vertex permutation;
- face_numbers, and the Wick shape table that reads it, are checked
  against a test-side cycle walk (face_cycles), which validate also uses;
- extracted amplitudes are checked against hand-frozen table values;
- kontsevich_sum, built from the rooted maps with no class, is checked
  against the per-class Fraction loop (oracle_kontsevich_sum), its
  integer table against the class-by-class fold and its Horner plan
  against the flat sum over that table's terms, and the class lists up
  to 18 darts against sha256 digests of the `graphs enumerate` bytes.

The per-structure oracles validate, canonical_encoding and
automorphism_order check one dart structure (DartStructure, a test-side
record) at a time; enumerate_trivalent computes the same canonical form and
automorphism order inline.
"""

import functools
import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubench import ribbon, wick
from taubench.cli import RunConfig, run
from taubench.errors import BudgetError, ConventionMismatch, DomainError, PoleError
from taubench.ribbon import (
    RibbonGraphClass,
    _canonical_sigma,
    _rooted_map_counts,
    _rooted_encoding,
    _rooted_maps,
    base_table,
    enumerate_trivalent,
    extract_intersection_numbers,
    face_numbers,
    kontsevich_sum,
)
from taubench.suite import run_suite
from taubench.wick import kontsevich_match


@dataclass(frozen=True)
class DartStructure:
    """Trivalent combinatorial map with labeled faces: the record the
    per-structure oracles read."""

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    face_labels: tuple[int, ...]  # per dart, values in 1..n

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def vertex_count(self) -> int:
        return self.dart_count // 3

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    @property
    def face_count(self) -> int:
        return len(set(self.face_labels))

    @property
    def genus(self) -> int:
        chi = self.vertex_count - self.edge_count + self.face_count
        if chi % 2:
            raise DomainError("odd Euler characteristic")
        return (2 - chi) // 2


def structure(cls: RibbonGraphClass) -> DartStructure:
    """The canonical dart structure of a class."""
    return DartStructure(cls.sigma, cls.alpha, cls.face_labels)


def face_cycles(sigma, alpha) -> list[tuple[int, ...]]:
    """Cycles of sigma o alpha, one per face, each listed from its least
    dart and in order of that dart: the oracle for face_numbers."""
    cycles, seen = [], set()
    for start in range(len(sigma)):
        if start not in seen:
            cycle = [start]
            while (x := sigma[alpha[cycle[-1]]]) != start:
                cycle.append(x)
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return cycles


def _is_connected(sigma, alpha) -> bool:
    d = len(sigma)
    seen = [False] * d
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in (sigma[x], alpha[x]):
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == d


def validate(struct: DartStructure) -> None:
    """Raise DomainError unless struct is a connected trivalent map whose
    face labels are constant on faces and exactly 1..n."""
    d = struct.dart_count
    if d % 6:
        raise DomainError("dart count must be divisible by 6")
    if sorted(struct.sigma) != list(range(d)) or sorted(struct.alpha) != list(range(d)):
        raise DomainError("sigma/alpha are not permutations")
    for i in range(d):
        if struct.sigma[i] == i or struct.sigma[struct.sigma[struct.sigma[i]]] != i:
            raise DomainError("sigma is not a product of 3-cycles")
        if struct.alpha[i] == i or struct.alpha[struct.alpha[i]] != i:
            raise DomainError("alpha is not a fixed-point-free involution")
    if not _is_connected(struct.sigma, struct.alpha):
        raise DomainError("dart structure is not connected")
    for cycle in face_cycles(struct.sigma, struct.alpha):
        labels = {struct.face_labels[x] for x in cycle}
        if len(labels) != 1:
            raise DomainError("face labels are not constant on faces")
    n = struct.face_count
    if sorted(set(struct.face_labels)) != list(range(1, n + 1)):
        raise DomainError("face labels must be exactly 1..n")


def _root_encodings(struct: DartStructure) -> list[tuple]:
    """Rooted encoding with face labels, one per root dart."""
    encodings = []
    for root in range(struct.dart_count):
        sig2, alf2, order = _rooted_encoding(struct.sigma, struct.alpha, root)
        encodings.append((sig2, alf2, tuple(struct.face_labels[x] for x in order)))
    return encodings


def canonical_encoding(struct: DartStructure) -> tuple:
    """Minimum rooted encoding over all roots, including face labels."""
    return min(_root_encodings(struct))


def automorphism_order(struct: DartStructure) -> int:
    """Order of the dart-permutation group commuting with sigma and alpha
    and fixing every face label.

    Automorphisms of a connected map act freely on darts, so the order equals
    the number of roots whose encoding attains the canonical one.
    """
    encodings = _root_encodings(struct)
    best = min(encodings)
    return sum(1 for enc in encodings if enc == best)


def edge_face_pairs(struct: DartStructure) -> tuple[tuple[int, int], ...]:
    """The sorted (lesser, greater) face labels across each edge."""
    return tuple(sorted(
        tuple(sorted((struct.face_labels[x], struct.face_labels[struct.alpha[x]])))
        for x in range(struct.dart_count)
        if x < struct.alpha[x]
    ))


@functools.lru_cache(maxsize=None)
def classes_of(g, n, max_darts):
    """enumerate_trivalent's classes, memoized for the oracles below, which
    read a block once per drawn example; the library keeps no such memo."""
    return enumerate_trivalent(g, n, max_darts)


def class_fold(g, n, max_darts) -> dict[tuple, Fraction]:
    """Sum of 2^{-V}/|Aut| over the classes, per edge_face_pairs tuple."""
    fold = {}
    for cls in classes_of(g, n, max_darts):
        key = edge_face_pairs(structure(cls))
        weight = Fraction(1, 2 ** structure(cls).vertex_count * cls.aut_order)
        fold[key] = fold.get(key, 0) + weight
    return fold


def oracle_kontsevich_sum(g, n, lams, max_darts=12) -> Fraction:
    """The graph sum class by class, one Fraction product per class.  The
    face pairs of every class are checked first in sorted order, so a zero
    sum raises PoleError on the least pair (a, b) whose sum vanishes."""
    lams = [Fraction(x) for x in lams]
    if len(lams) != n:
        raise DomainError("need one lambda per face")
    classes = [
        (cls, edge_face_pairs(structure(cls))) for cls in classes_of(g, n, max_darts)
    ]
    pair_weight = {}
    for f1, f2 in sorted({pair for _, pairs in classes for pair in pairs}):
        denom = lams[f1 - 1] + lams[f2 - 1]
        if denom == 0:
            raise PoleError(f"lambda_{f1} + lambda_{f2} = 0")
        pair_weight[f1, f2] = Fraction(2) / denom
    total = Fraction(0)
    for cls, pairs in classes:
        weight = Fraction(1, 2 ** structure(cls).vertex_count * cls.aut_order)
        for pair in pairs:
            weight *= pair_weight[pair]
        total += weight
    return total


def brute_force_aut_order(struct: DartStructure) -> int:
    """Count dart permutations commuting with sigma/alpha and fixing labels."""
    d = struct.dart_count
    count = 0
    for perm in itertools.permutations(range(d)):
        if all(
            perm[struct.sigma[x]] == struct.sigma[perm[x]]
            and perm[struct.alpha[x]] == struct.alpha[perm[x]]
            and struct.face_labels[perm[x]] == struct.face_labels[x]
            for x in range(d)
        ):
            count += 1
    return count


def brute_force_labeled_count(g: int, n: int) -> int:
    """Number of labeled dart structures on 6(n+2g-2) darts with the given
    invariants, iterating over *all* vertex permutations."""
    d = 6 * (n + 2 * g - 2)
    darts = range(d)
    count = 0
    trivalents = set()
    for split in itertools.permutations(darts):
        cycles = tuple(
            sorted(
                tuple(min((c[i:] + c[:i]) for i in range(3)))
                for c in (split[j : j + 3] for j in range(0, d, 3))
            )
        )
        trivalents.add(cycles)
    sigmas = []
    for cycles in trivalents:
        sigma = [0] * d
        for a, b, c in cycles:
            sigma[a], sigma[b], sigma[c] = b, c, a
        sigmas.append(tuple(sigma))
    involutions = []
    for perm in itertools.permutations(darts):
        if all(perm[perm[x]] == x and perm[x] != x for x in darts):
            involutions.append(perm)
    involutions = sorted(set(involutions))
    for sigma in sigmas:
        for alpha in involutions:
            faces = face_cycles(sigma, alpha)
            if len(faces) != n:
                continue
            reach = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for y in (sigma[x], alpha[x]):
                    if y not in reach:
                        reach.add(y)
                        frontier.append(y)
            if len(reach) != d:
                continue
            chi = d // 3 - d // 2 + n
            if chi != 2 - 2 * g:
                continue
            count += len(list(itertools.permutations(range(1, n + 1))))
    return count


def brute_force_classes(g: int, n: int) -> tuple[RibbonGraphClass, ...]:
    """Classes from every fixed-point-free involution on the canonical sigma:
    keep the connected ones with n faces and canonicalize each face labeling."""
    d = 6 * (n + 2 * g - 2)
    sigma = _canonical_sigma(d)
    partner = [-1] * d
    classes = {}

    def involutions(lo):
        while lo < d and partner[lo] >= 0:
            lo += 1
        if lo == d:
            yield tuple(partner)
            return
        for hi in range(lo + 1, d):
            if partner[hi] < 0:
                partner[lo], partner[hi] = hi, lo
                yield from involutions(lo + 1)
                partner[lo] = partner[hi] = -1

    for alpha in involutions(0):
        faces = face_cycles(sigma, alpha)
        if len(faces) != n:
            continue
        try:
            validate(DartStructure(sigma, alpha, (1,) * d))
        except DomainError:  # disconnected
            continue
        for lab in itertools.permutations(range(1, n + 1)):
            labels = [0] * d
            for fi, cycle in enumerate(faces):
                for x in cycle:
                    labels[x] = lab[fi]
            struct = DartStructure(sigma, alpha, tuple(labels))
            canon = canonical_encoding(struct)
            if canon not in classes:
                classes[canon] = RibbonGraphClass(*canon, automorphism_order(struct))
    return tuple(classes[key] for key in sorted(classes))


def perfect_matchings(slots):
    if not slots:
        yield []
        return
    for i in range(1, len(slots)):
        for rest in perfect_matchings(slots[1:i] + slots[i + 1 :]):
            yield [(slots[0], slots[i])] + rest


def oracle_shape_counts(word) -> Counter:
    """Matchings per Wick shape of the word: the slots of each trace factor
    form one cycle of sigma, a matching is alpha, the faces are
    face_cycles(sigma, alpha), and each pair is an edge between the faces
    of its slots, face ids renumbered by first appearance over the pairs."""
    sigma, base = [], 0
    for k in word.powers:
        sigma += [base + (i + 1) % k for i in range(k)]
        base += k
    counts = Counter()
    for matching in perfect_matchings(list(range(base))):
        alpha = [0] * base
        for s, t in matching:
            alpha[s], alpha[t] = t, s
        cycles = face_cycles(sigma, alpha)
        face = {x: fi for fi, cycle in enumerate(cycles) for x in cycle}
        relabel = {}
        edges = []
        for s, t in sorted(matching):
            a = relabel.setdefault(face[s], len(relabel))
            b = relabel.setdefault(face[t], len(relabel))
            edges.append((min(a, b), max(a, b)))
        counts[tuple(sorted(edges)), len(cycles)] += 1
    return counts


ROOTED_MAPS = {6: 5, 12: 60, 18: 1105}  # OEIS A062980
BLOCKS_BY_DARTS = {6: [(0, 3), (1, 1)], 12: [(0, 4), (1, 2)], 18: [(0, 5), (1, 3), (2, 1)]}
BLOCKS_UP_TO_18 = [block for blocks in BLOCKS_BY_DARTS.values() for block in blocks]
# sha256 of `taubench --max-darts 18 graphs enumerate --genus g --faces n`
# stdout, taken from the enumerator that compared every root per labeling
ENUMERATE_DIGESTS = {
    (0, 3): "3e2df3e9b2227c48063a70cbca305dd63f4e29d4d58dff76693aa8f27529b78e",
    (1, 1): "223aef450c7c0e1b32c312b673bca7738006d325b1b8dcaa9649eaec425e3335",
    (0, 4): "ca60b589ab4da430c707839168b9d63af241b0739c5b6f44087bbb7d54d9ccc4",
    (1, 2): "ffadc884af022e592e1d6405485c75d5832df4dbe61a9d30f3e3279987a3bc97",
    (0, 5): "cb69d61906436c8ed5bc8e7b8c4a7c6e8ea13c859e03c34ce055a4dfe7003896",
    (1, 3): "269ad871fa204014f2b24f11da26996f847049b8c1bb18823d5576a759f5bd9b",
    (2, 1): "1e040255515feb1d6fb1a2bf9b3546ebcdf763503124c56f3064adfe93c954c3",
}


class TestRootedMapGeneration:
    def test_rooted_map_counts(self):
        # the recurrence prices the graph work budget; 27120 is at 24 darts
        recurrence = list(itertools.islice(_rooted_map_counts(), 5))
        assert recurrence[4] == 27120
        for darts, count in ROOTED_MAPS.items():
            assert sum(1 for _ in _rooted_maps(darts)) == count == recurrence[darts // 6]

    def test_generated_maps_are_connected_and_distinct(self):
        sigma = _canonical_sigma(12)
        maps = list(_rooted_maps(12))
        assert len(set(maps)) == len(maps)
        for alpha in maps:
            validate(DartStructure(sigma, alpha, (1,) * 12))

    def test_face_numbers_match_the_cycle_walk(self):
        for darts in ROOTED_MAPS:
            sigma = _canonical_sigma(darts)
            for alpha in _rooted_maps(darts):
                cycles = face_cycles(sigma, alpha)
                face = [0] * darts
                for fi, cycle in enumerate(cycles):
                    for x in cycle:
                        face[x] = fi
                assert face_numbers(sigma, alpha) == (face, len(cycles))

    @pytest.mark.parametrize("text", ["tr3^4", "tr4^2,tr2", "tr8", "tr3^2,tr1^2", "tr5,tr3"])
    def test_wick_shape_table_matches_the_cycle_walk(self, text):
        word = wick.TraceWord.from_string(text)
        assert dict(oracle_shape_counts(word)) == {
            (edges, faces): mult for edges, faces, mult in wick._shape_table(word)
        }

    def test_orbit_count_identity(self):
        # each class of n labeled faces and automorphism group Aut is
        # d/|Aut| rooted maps once the n! face labelings are forgotten
        for darts, blocks in BLOCKS_BY_DARTS.items():
            total = sum(
                Fraction(darts, cls.aut_order * factorial(n))
                for g, n in blocks
                for cls in enumerate_trivalent(g, n, 18)
            )
            assert total == ROOTED_MAPS[darts]

    @pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (1, 2)])
    def test_classes_match_involution_walk(self, g, n):
        assert enumerate_trivalent(g, n) == brute_force_classes(g, n)

    @pytest.mark.parametrize("g, n", BLOCKS_UP_TO_18)
    def test_enumerate_bytes_match_the_digest(self, capsys, g, n):
        # `--max-darts 18 graphs enumerate` stdout, hashed at the all-roots
        # enumerator: no class may move, be relabeled or change aut_order
        code = run(["--max-darts", "18", "graphs", "enumerate", "--genus", str(g), "--faces", str(n)])
        out = capsys.readouterr().out.encode()
        assert (code, hashlib.sha256(out).hexdigest()) == (0, ENUMERATE_DIGESTS[g, n])

    def test_eighteen_dart_extraction(self):
        table = extract_intersection_numbers(1, 3, 18)
        assert table.entries == {
            (1, (3, 0, 0)): Fraction(1, 24),
            (1, (2, 1, 0)): Fraction(1, 12),
            (1, (1, 1, 1)): Fraction(1, 12),
        }


class TestEnumeration:
    def test_unstable_cases_raise(self):
        for g, n in [(0, 1), (0, 2)]:
            with pytest.raises(DomainError, match=rf"^no trivalent graph for \(g, n\) = \({g}, {n}\)$"):
                enumerate_trivalent(g, n)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            enumerate_trivalent(0, 5)  # 18 darts > default budget of 12

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            enumerate_trivalent(-1, 3)
        with pytest.raises(DomainError):
            enumerate_trivalent(0, 0)

    def test_all_canonical_structures_validate(self):
        # V - E + F = 2 - 2g holds by construction in enumerate_trivalent
        for g, n in BLOCKS_UP_TO_18:
            for cls in enumerate_trivalent(g, n, 18):
                validate(structure(cls))
                assert structure(cls).genus == g
                assert structure(cls).face_count == n

    def test_canonicalize_is_idempotent(self):
        for cls in enumerate_trivalent(1, 2):
            c = structure(cls)
            assert canonical_encoding(c) == (c.sigma, c.alpha, c.face_labels)

    @pytest.mark.parametrize("g, n", [(1, 3), (2, 1)])
    def test_eighteen_dart_classes_match_all_roots(self, g, n):
        # the oracles compare every root; enumerate_trivalent compares only
        # the roots tied at the least unlabeled encoding
        for cls in enumerate_trivalent(g, n, 18):
            c = structure(cls)
            assert canonical_encoding(c) == (c.sigma, c.alpha, c.face_labels)
            assert automorphism_order(c) == cls.aut_order

    def test_no_duplicate_classes(self):
        for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
            classes = enumerate_trivalent(g, n)
            keys = {
                (cls.sigma, cls.alpha, cls.face_labels)
                for cls in classes
            }
            assert len(keys) == len(classes)

    def test_aut_orders_match_brute_force(self):
        for g, n in [(0, 3), (1, 1)]:  # 6 darts: 6! brute force is feasible
            for cls in enumerate_trivalent(g, n):
                assert cls.aut_order == brute_force_aut_order(structure(cls))
                assert automorphism_order(structure(cls)) == cls.aut_order

    def test_orbit_count_matches_brute_force(self):
        # sum over classes of d!/|Aut| must equal the number of labeled
        # structures, counted by independent brute force over all of S_d
        for g, n in [(0, 3), (1, 1)]:
            classes = enumerate_trivalent(g, n)
            d = structure(classes[0]).dart_count
            orbit_total = sum(factorial(d) // cls.aut_order for cls in classes)
            assert orbit_total == brute_force_labeled_count(g, n)

    def test_genus_one_one_face_class(self):
        (cls,) = enumerate_trivalent(1, 1)
        assert cls.aut_order == 6
        assert structure(cls).vertex_count == 2

    def test_classes_compare_and_hash_by_their_fields(self):
        classes = enumerate_trivalent(0, 3)
        copies = [RibbonGraphClass(c.sigma, c.alpha, c.face_labels, c.aut_order) for c in classes]
        assert copies == list(classes)
        assert [hash(c) for c in copies] == [hash(c) for c in classes]
        assert len(set(classes) | set(copies)) == len(classes) == 4
        first = classes[0]
        other = RibbonGraphClass(first.sigma, first.alpha, first.face_labels, first.aut_order + 1)
        assert other != first and not other == first
        assert first.to_json() == {
            "darts": 6,
            "sigma": list(first.sigma),
            "alpha": list(first.alpha),
            "face_labels": list(first.face_labels),
            "aut_order": first.aut_order,
        }


class TestKontsevichSum:
    def test_base_case_sphere(self):
        lams = [Fraction(1), Fraction(1), Fraction(1)]
        assert kontsevich_sum(0, 3, lams) == 1

    def test_base_case_torus(self):
        assert kontsevich_sum(1, 1, [Fraction(2)]) == Fraction(1, 192)

    def test_sphere_closed_form(self):
        # genus 0, 3 faces: the amplitude side is 1/(l1*l2*l3)
        lams = [Fraction(3), Fraction(5, 2), Fraction(7, 3)]
        assert kontsevich_sum(0, 3, lams) == 1 / (lams[0] * lams[1] * lams[2])

    def test_torus_closed_form(self):
        # genus 1, 1 face: amplitude side is (1!!)*(1/24)/l^3 = 1/(24 l^3)
        lam = Fraction(7, 2)
        assert kontsevich_sum(1, 1, [lam]) == Fraction(1, 24) / lam**3

    @given(st.permutations([Fraction(2), Fraction(3), Fraction(5), Fraction(7)]))
    @settings(max_examples=12, deadline=None)
    def test_symmetric_under_face_relabeling(self, lams):
        base = kontsevich_sum(0, 4, [Fraction(2), Fraction(3), Fraction(5), Fraction(7)])
        assert kontsevich_sum(0, 4, lams) == base

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            kontsevich_sum(0, 3, [Fraction(1), Fraction(-1), Fraction(2)])

    @pytest.mark.parametrize(
        "g,lams,message",
        [
            (0, [2, 1, -1], "lambda_2 + lambda_3 = 0"),
            (0, [3, -3, -3], "lambda_1 + lambda_2 = 0"),
            (0, [1, 2, -1, 3], "lambda_1 + lambda_3 = 0"),
            (1, [1, -1], "lambda_1 + lambda_2 = 0"),
            # (1, 4), (2, 4) and (3, 4) all vanish; the least pair is named
            (0, [-2, -2, -2, 2], "lambda_1 + lambda_4 = 0"),
        ],
    )
    def test_first_pole_is_reported(self, g, lams, message):
        # pair sums are checked in sorted pair order, so the least vanishing
        # face pair raises, with the oracle's message
        for graph_sum in (kontsevich_sum, oracle_kontsevich_sum):
            with pytest.raises(PoleError) as info:
                graph_sum(g, len(lams), [Fraction(v) for v in lams])
            assert str(info.value) == message

    def test_lambda_arity_check(self):
        with pytest.raises(DomainError):
            kontsevich_sum(0, 3, [Fraction(1)])

    def test_arity_is_checked_before_any_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the arity check")

        monkeypatch.setattr(ribbon, "enumerate_trivalent", refuse)
        monkeypatch.setattr(ribbon, "_graph_sum_table", refuse)
        # (0, 5) is also over the default dart budget: the arity error wins
        for g, n, lams in [(0, 3, [1]), (0, 5, [1, 2]), (1, 2, [1, 2, 3])]:
            with pytest.raises(DomainError, match="^need one lambda per face$"):
                kontsevich_sum(g, n, lams)

    @given(
        st.sampled_from(BLOCKS_UP_TO_18),
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_sum_equals_the_oracle(self, block, values):
        # negative lambdas allowed: a zero pair sum must raise the same
        # PoleError as the oracle, on the same pair
        g, n = block
        lams = values[:n]
        try:
            expected = oracle_kontsevich_sum(g, n, lams, 18)
        except PoleError as exc:
            with pytest.raises(PoleError) as info:
                kontsevich_sum(g, n, lams, 18)
            assert str(info.value) == str(exc)
        else:
            assert kontsevich_sum(g, n, lams, 18) == expected

    @pytest.mark.parametrize("g, n", BLOCKS_UP_TO_18)
    def test_integer_sum_at_fixed_points(self, g, n):
        # wide numerators and denominators, and one tie among the lambdas
        points = [
            [Fraction(p, q) for p, q in zip((3, 7, 11, 13, 17), (2, 5, 9, 4, 7))],
            [Fraction(10**40 + k, 3**k) for k in range(5)],
            [Fraction(2), Fraction(-1, 3), Fraction(2), Fraction(5, 7), Fraction(9)],
        ]
        for lams in points:
            assert kontsevich_sum(g, n, lams[:n], 18) == oracle_kontsevich_sum(g, n, lams[:n], 18)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "lams", [(Fraction(3), Fraction(4), Fraction(5)), (Fraction(1, 2), Fraction(7, 3))]
    )
    def test_kontsevich_match_agrees_with_the_oracle_sum(self, monkeypatch, order, lams):
        report = kontsevich_match(len(lams), lams, order)
        assert report["agree"] and report["order2_agrees"]
        monkeypatch.setattr(wick, "kontsevich_sum", oracle_kontsevich_sum)
        assert kontsevich_match(len(lams), lams, order) == report

    def test_block_table_merges_equal_pair_tuples(self):
        # one integer coefficient per sorted pair tuple: the labeled rooted
        # maps over d * 2^V equal 2^{-V}/|Aut| summed over the tuple's classes
        for g, n, max_darts in [(g, n, 18) for g, n in BLOCKS_UP_TO_18] + [(2, 2, 24)]:
            pairs, edges, den, terms = ribbon._graph_sum_table(g, n, max_darts)
            fold = class_fold(g, n, max_darts)
            assert edges == 3 * (n + 2 * g - 2)
            assert list(pairs) == sorted({p for key in fold for p in key})
            assert {tuple(pairs[i] for i in key): Fraction(c, den) for key, c in terms} == fold
            assert gcd(den, *(c for _, c in terms)) == 1

    @given(
        st.sampled_from([(g, n, 18) for g, n in BLOCKS_UP_TO_18] + [(2, 2, 24)]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_walked_plan_equals_the_flat_sum(self, block, data):
        # oracle: the flat sum over the table's terms that kontsevich_sum
        # once took, at integer weights 0, small and 200 bits wide
        pairs, edges, den, terms = ribbon._graph_sum_table(*block)
        plan = ribbon._graph_sum_plan(*block)
        assert plan[:3] == (pairs, edges, den)
        weight = data.draw(
            st.lists(
                st.just(0) | st.integers(1, 9) | st.integers(2**199, 2**200),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        flat = sum(c * prod(map(weight.__getitem__, key)) for key, c in terms)
        assert ribbon._walk(*plan[3:], weight) == flat

    def test_the_sum_needs_no_classes(self, monkeypatch, capsys):
        lams = [Fraction(3), Fraction(5, 2)]
        expected = oracle_kontsevich_sum(1, 2, lams)

        def refuse(*args):
            raise AssertionError("the graph sum enumerated classes")

        # the caches are bypassed, so every table is built afresh
        monkeypatch.setattr(ribbon, "enumerate_trivalent", refuse)
        monkeypatch.setattr(ribbon, "_graph_sum_table", ribbon._graph_sum_table.__wrapped__)
        monkeypatch.setattr(ribbon, "_graph_sum_plan", ribbon._graph_sum_plan.__wrapped__)
        monkeypatch.setattr(ribbon, "_convention_ratios", ribbon._convention_ratios.__wrapped__)
        monkeypatch.setattr(ribbon, "_block_amplitudes", ribbon._block_amplitudes.__wrapped__)
        assert kontsevich_sum(1, 2, lams) == expected
        assert extract_intersection_numbers(1, 2).entries == {
            (1, (1, 1)): Fraction(1, 24),
            (1, (2, 0)): Fraction(1, 24),
        }
        assert run(["intersect", "-g", "0", "-n", "4"]) == 0
        assert capsys.readouterr().out == '{"genus":0,"n":4,"numbers":{"(1,0,0,0)":"1"}}\n'


FROZEN_TABLE = {
    (0, (0, 0, 0)): Fraction(1),
    (1, (1,)): Fraction(1, 24),
    (0, (1, 0, 0, 0)): Fraction(1),
    (1, (1, 1)): Fraction(1, 24),
    (1, (2, 0)): Fraction(1, 24),
}


class TestExtraction:
    def test_known_values(self):
        table = base_table()
        for key, value in FROZEN_TABLE.items():
            assert table.entries[key] == value, key
        assert table.fragments() == {(0, 3), (1, 1), (0, 4), (1, 2)}

    def test_extraction_independent_of_sample_family(self, monkeypatch):
        # the shipped grid, and a grid of denominator 13
        for g, n in [(0, 4), (1, 2)]:
            a = extract_intersection_numbers(g, n)
            monkeypatch.setattr(ribbon, "SAMPLE_DENOMINATOR", 13)
            monkeypatch.setattr(ribbon, "_block_amplitudes", ribbon._block_amplitudes.__wrapped__)
            assert ribbon._sample_points(n, 2)[0][0] == Fraction(2) + Fraction(1, 13)
            b = extract_intersection_numbers(g, n)
            monkeypatch.undo()
            assert a.entries == b.entries

    def test_two_block_table_json(self):
        # the 6-dart base table holds the blocks (0, 3) and (1, 1)
        table = base_table(max_darts=6)
        assert table.fragments() == {(0, 3), (1, 1)}
        assert table.to_json() == {"g0:(0,0,0)": "1", "g1:(1)": "1/24"}

    def test_a_changed_table_leaves_the_next_call_alone(self):
        first = extract_intersection_numbers(1, 2)
        expected = dict(first.entries)
        first.entries[(1, (1, 1))] = Fraction(7)
        first.entries[(1, (3, -1))] = Fraction(1)
        assert extract_intersection_numbers(1, 2).entries == expected
        table = base_table()
        table.entries.clear()
        assert base_table().entries[(1, (2, 0))] == Fraction(1, 24)

    def test_refusals_run_on_every_call_before_any_sum(self, monkeypatch):
        extract_intersection_numbers(1, 2)  # the block's amplitudes are memoized

        def refuse(*args):
            raise AssertionError("summed before the refusal")

        monkeypatch.setattr(ribbon, "kontsevich_sum", refuse)
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^no trivalent graph for \(g, n\) = \(0, 2\)$"):
                extract_intersection_numbers(0, 2)
            with pytest.raises(BudgetError, match="^12 darts exceeds budget 6$"):
                extract_intersection_numbers(1, 2, 6)
        monkeypatch.setattr(ribbon, "MAX_GRAPH_WORK", 10)
        for _ in range(2):
            with pytest.raises(BudgetError, match="rooted maps x face labelings x roots$"):
                extract_intersection_numbers(1, 2)
        monkeypatch.undo()
        monkeypatch.setattr(ribbon, "_convention_ratios", lambda max_darts: (Fraction(2), 1))
        with pytest.raises(ConventionMismatch):
            extract_intersection_numbers(1, 2)

    def test_suite_quick_extracts_each_block_once(self, monkeypatch):
        # from an empty memo, one extraction per block; unmemoized, criteria
        # 1-4 extracted each of the 4 blocks 3 times (12 calls)
        calls = Counter()
        sample_points = ribbon._sample_points

        def counted(n, count):
            calls[n] += 1
            return sample_points(n, count)

        cold = functools.lru_cache(maxsize=None)(ribbon._block_amplitudes.__wrapped__)
        monkeypatch.setattr(ribbon, "_block_amplitudes", cold)
        monkeypatch.setattr(ribbon, "_sample_points", counted)
        for _ in range(2):
            assert run_suite("quick", RunConfig())["all_pass"]
        assert calls == {3: 1, 1: 1, 4: 1, 2: 1}

    def test_unstable_guard(self):
        with pytest.raises(DomainError, match=r"^no trivalent graph for \(g, n\) = \(0, 2\)$"):
            extract_intersection_numbers(0, 2)
