"""Reference checks that share no code with the package.

The harness checks every answer with these, outside the timed region, so a
defect in the package's own verifier cannot make a wrong answer pass.
Graphs are lists of adjacency bitmasks; sets are bitmasks.
"""

from __future__ import annotations

import itertools


def holds(adj: list[int], s: int, k: int) -> bool:
    """k-fold open domination and k-fold separation of every pair."""
    codes = [a & s for a in adj]
    if any(c.bit_count() < k for c in codes):
        return False
    n = len(codes)
    for u in range(n):
        cu = codes[u]
        for v in range(u + 1, n):
            if (cu ^ codes[v]).bit_count() < k:
                return False
    return True


def optima_bruteforce(adj: list[int], k: int) -> tuple[int | None, list[int]]:
    """Minimum size and every minimum set, in lexicographic order of their
    sorted index tuples; (None, []) when even V fails."""
    n = len(adj)
    if not holds(adj, (1 << n) - 1, k):
        return None, []
    for size in range(n + 1):
        found = []
        for combo in itertools.combinations(range(n), size):
            s = 0
            for v in combo:
                s |= 1 << v
            if holds(adj, s, k):
                found.append(s)
        if found:
            return size, found
    raise AssertionError("unreachable: V holds")


def satisfiable(num_vars: int, clauses: list[tuple[int, int, int]]) -> bool:
    for bits in range(1 << num_vars):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in c) for c in clauses):
            return True
    return False


_OFFSETS = {
    "sq": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "tri": ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)),
    "king": ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def lattice_neighbors(lattice: str, x: int, y: int) -> list[tuple[int, int]]:
    """Open neighborhood in the package's coordinate conventions: HEX is the
    brick wall with (0,+1) at even x+y and (0,-1) at odd x+y."""
    if lattice == "hex":
        return [(x + 1, y), (x - 1, y), (x, y + 1 if (x + y) % 2 == 0 else y - 1)]
    return [(x + dx, y + dy) for dx, dy in _OFFSETS[lattice]]


def cross_check_dims(period: tuple[int, int]) -> tuple[int, int]:
    """Smallest period multiples that are >= 3x the period and >= 6."""
    px, py = period
    return px * max(3, -(-6 // px)), py * max(3, -(-6 // py))


def pattern_holds_on_torus(lattice: str, period, cells, width: int, height: int, k: int) -> bool:
    """Verify a periodic pattern on a width x height torus (multiples of the
    period, >= 3x it, so distance-2 balls do not wrap onto themselves)."""
    px, py = period
    cellset = {tuple(c) for c in cells}
    adj = []
    s = 0
    for y in range(height):
        for x in range(width):
            m = 0
            for nx, ny in lattice_neighbors(lattice, x, y):
                m |= 1 << ((ny % height) * width + (nx % width))
            adj.append(m)
            if (x % px, y % py) in cellset:
                s |= 1 << (y * width + x)
    return holds(adj, s, k)


def pattern_code(lattice: str, period, cells, v: tuple[int, int]) -> set[tuple[int, int]]:
    """Pattern members among the open neighbors of lattice vertex v."""
    px, py = period
    cellset = {tuple(c) for c in cells}
    return {w for w in lattice_neighbors(lattice, *v) if (w[0] % px, w[1] % py) in cellset}
