"""Reference values computed apart from the taubench package.

Nothing here imports taubench.  Each function is a closed form, a known
value or a recursion from the literature, so a benchmark output that agrees
with it agrees with mathematics rather than with a stored copy of an earlier
output.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# <tau_{d_1} ... tau_{d_n}>_1 for the blocks (1,1) and (1,2), keyed by the
# descending exponent tuple: <tau_1> = 1/24, <tau_2 tau_0> = <tau_1^2> = 1/24.
GENUS_ONE = {
    (1,): Fraction(1, 24),
    (2, 0): Fraction(1, 24),
    (1, 1): Fraction(1, 24),
}

# Rooted trivalent maps with 2k vertices, k = 1, 2 (OEIS A062980).
ROOTED_TRIVALENT_MAPS = {6: 5, 12: 60}


def genus_zero(dtuple) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_0 = (n-3)! / prod d_i!, zero off dimension."""
    n = len(dtuple)
    if n < 3 or sum(dtuple) != n - 3:
        return Fraction(0)
    denom = 1
    for d in dtuple:
        denom *= math.factorial(d)
    return Fraction(math.factorial(n - 3), denom)


def intersection(g: int, dtuple) -> Fraction:
    """Reference amplitude for genus 0 (closed form) or the genus-1 table."""
    key = tuple(sorted(dtuple, reverse=True))
    if g == 0:
        return genus_zero(key)
    if g == 1:
        if sum(key) != len(key):
            return Fraction(0)
        return GENUS_ONE[key]
    raise KeyError(f"no reference for genus {g}")


def odd_double_factorial(n: int) -> int:
    """n!! for odd n, with (-1)!! = 1."""
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def exponent_tuples(g: int, n: int):
    """Ordered tuples (d_1..d_n) with sum 3g - 3 + n."""
    total = 3 * g - 3 + n
    return [d for d in itertools.product(range(total + 1), repeat=n) if sum(d) == total]


def main_identity_rhs(g: int, lams) -> Fraction:
    """sum_d <tau_d>_g prod (2d_i - 1)!! / lambda_i^(2d_i + 1), over ordered d."""
    lams = [Fraction(x) for x in lams]
    total = Fraction(0)
    for d in exponent_tuples(g, len(lams)):
        term = intersection(g, d)
        for lam, di in zip(lams, d):
            term *= Fraction(odd_double_factorial(2 * di - 1)) / lam ** (2 * di + 1)
        total += term
    return total


def colored_graph_side(vertex_order: int, lams) -> Fraction:
    """Order-V graph side of the matrix integral: for each block with
    2(n + 2g - 2) = V, (-1)^n / n! times the main-identity right-hand side
    summed over face colorings by the diagonal entries."""
    total = Fraction(0)
    for n in range(1, vertex_order // 2 + 3):
        g2 = vertex_order // 2 - n + 2
        if g2 < 0 or g2 % 2:
            continue
        block = sum(
            (main_identity_rhs(g2 // 2, colors) for colors in itertools.product(lams, repeat=n)),
            Fraction(0),
        )
        total += block * Fraction((-1) ** n, math.factorial(n))
    return total


def free_energy_order2(lams) -> Fraction:
    """t_0^3/6 + t_1/24 with t_i = -(2i-1)!! sum_r lambda_r^-(2i+1)."""
    t0 = -sum((1 / Fraction(x) for x in lams), Fraction(0))
    t1 = -sum((1 / Fraction(x) ** 3 for x in lams), Fraction(0))
    return t0**3 / 6 + t1 / 24


def harer_zagier(k: int) -> list[int]:
    """Genus counts of tr M^{2k}: number of gluings of a 2k-gon into genus g.

    (k+1) e_g(k) = 2(2k-1) e_g(k-1) + (k-1)(2k-1)(2k-3) e_{g-1}(k-2),
    with e_0(0) = 1.
    """
    table = {(0, 0): 1}
    for m in range(1, k + 1):
        for g in range(m // 2 + 1):
            value = 2 * (2 * m - 1) * table.get((g, m - 1), 0)
            if m >= 2 and g >= 1:
                value += (m - 1) * (2 * m - 1) * (2 * m - 3) * table.get((g - 1, m - 2), 0)
            table[(g, m)] = value // (m + 1)
    return [table[(g, k)] for g in range(k // 2 + 1)]


def rooted_trivalent_maps(darts: int) -> int:
    """Orbit count #connected pairings * d / (3^V V!) over the fixed vertex
    rotation, by brute force over all pairings of the darts."""
    vertices = darts // 3
    connected = 0
    for pairing in _pairings(list(range(darts))):
        parent = list(range(vertices))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for a, b in pairing:
            ra, rb = find(a // 3), find(b // 3)
            parent[ra] = rb
        if len({find(v) for v in range(vertices)}) == 1:
            connected += 1
    count, remainder = divmod(connected * darts, 3**vertices * math.factorial(vertices))
    if remainder:
        raise ArithmeticError("orbit count is not an integer")
    return count


def _pairings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + tail


def rooted_count_from_classes(classes, faces: int) -> Fraction:
    """sum over labeled-face classes of d / (|Aut| n!): the rooted map count
    contributed by one (g, n) block of `graphs enumerate` output."""
    return sum(
        (Fraction(c["darts"], c["aut_order"] * math.factorial(faces)) for c in classes),
        Fraction(0),
    )


def class_is_valid(cls: dict, genus: int, faces: int) -> bool:
    """A class is a connected trivalent map of the stated genus whose face
    labels are constant on faces and run over 1..faces."""
    d = cls["darts"]
    sigma, alpha, labels = cls["sigma"], cls["alpha"], cls["face_labels"]
    if not (len(sigma) == len(alpha) == len(labels) == d) or d % 6:
        return False
    if sorted(sigma) != list(range(d)) or sorted(alpha) != list(range(d)):
        return False
    for x in range(d):
        if sigma[x] == x or sigma[sigma[sigma[x]]] != x:
            return False
        if alpha[x] == x or alpha[alpha[x]] != x:
            return False
    seen, face_count = [False] * d, 0
    for start in range(d):
        if seen[start]:
            continue
        face_count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            if labels[x] != labels[start]:
                return False
            x = sigma[alpha[x]]
    if face_count != faces or sorted(set(labels)) != list(range(1, faces + 1)):
        return False
    reach, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for y in (sigma[x], alpha[x]):
            if y not in reach:
                reach.add(y)
                stack.append(y)
    euler = d // 3 - d // 2 + faces
    return len(reach) == d and euler == 2 - 2 * genus
