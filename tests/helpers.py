"""Shared test utilities: spec builders and independent brute-force oracles.

The oracles here deliberately avoid the library's elimination code paths:
ranks and invariant factors are recovered from raw minor determinants
(gcds of i x i minors), and small cokernels are additionally enumerated
element by element.  That keeps every dual-route check honest.
"""

from __future__ import annotations

from itertools import permutations, product
from math import gcd
from typing import Iterable, Sequence

from kgraph_ktheory.abgroup import FinAbGroup
from kgraph_ktheory.intmat import IntMatrix, determinantal_divisor
from kgraph_ktheory.kgraph import ColorKind, ColorSpec, GraphSpec, Involution


def spec_of(colors: Sequence[tuple[str, int]], involution: str = "trivial") -> GraphSpec:
    return GraphSpec(
        tuple(ColorSpec(ColorKind(kind), size) for kind, size in colors),
        Involution(involution),
    )


def random_matrix(rng, max_rows: int = 5, max_cols: int = 5, bound: int = 9) -> IntMatrix:
    m = rng.randint(0, max_rows)
    n = rng.randint(0, max_cols)
    return IntMatrix(m, n, tuple(rng.randint(-bound, bound) for _ in range(m * n)))


def scalar_gcds(spec: GraphSpec) -> tuple[int, int]:
    """(h, k): the gcds of 1 - 2m, 1 - 2n and of 1 - 2m, 1 + 2n over the colors."""
    h = k = 0
    for c in spec.colors:
        h = gcd(h, 1 - 2 * c.size)
        k = gcd(k, 1 - 2 * c.size if c.kind is ColorKind.DIAGONAL else 1 + 2 * c.size)
    return h, k


def spec_with_gcds(rng, rank: int, involution: str, h: int, k: int) -> GraphSpec:
    """A seeded spec of this rank, with a crossing color, whose (h, k) is exactly (h, k)."""
    for _ in range(10_000):
        kinds = [rng.choice(list(ColorKind)) for _ in range(rank)]
        kinds[rng.randrange(rank)] = ColorKind.OFF_DIAGONAL
        sizes = []
        for kind in kinds:
            # sizes in 2..4000 with h | 1 - 2s and k | 1 -+ 2s, if there are any
            fits = [
                s
                for s in range(2, 4001)
                if (1 - 2 * s) % h == 0
                and (1 - 2 * s if kind is ColorKind.DIAGONAL else 1 + 2 * s) % k == 0
            ]
            if not fits:
                break
            sizes.append(rng.choice(fits))
        else:
            spec = GraphSpec(tuple(map(ColorSpec, kinds, sizes)), Involution(involution))
            if scalar_gcds(spec) == (h, k):
                return spec
    raise ValueError(f"no rank-{rank} spec found with (h, k) = ({h}, {k})")


# ---------------------------------------------------------------------------
# minor-determinant oracles (independent of the elimination-based snf path)


def oracle_rank(a: IntMatrix) -> int:
    """Rank = largest i whose i x i minors do not all vanish."""
    r = 0
    for i in range(1, min(a.rows, a.cols) + 1):
        if determinantal_divisor(a, i) == 0:
            break
        r = i
    return r


def oracle_invariant_factors(a: IntMatrix) -> list[int]:
    """Invariant factors as ratios of successive minor gcds."""
    r = oracle_rank(a)
    divisors = [1] + [determinantal_divisor(a, i) for i in range(1, r + 1)]
    return [divisors[i] // divisors[i - 1] for i in range(1, r + 1)]


def oracle_cokernel(a: IntMatrix) -> FinAbGroup:
    """Cokernel of a: Z^cols -> Z^rows, built from minor gcds only."""
    factors = oracle_invariant_factors(a)
    return FinAbGroup.from_parts(a.rows - len(factors), factors)


# ---------------------------------------------------------------------------
# enumerative cokernel oracle for small full-rank square matrices


def _dividing_chains(order: int, max_len: int) -> list[tuple[int, ...]]:
    """All chains d_1 | d_2 | ... (each >= 2) with product `order`."""
    if order == 1:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, prev: int, acc: tuple[int, ...]):
        if remaining == 1:
            out.append(acc)
            return
        if len(acc) == max_len:
            return
        for d in range(2, remaining + 1):
            if remaining % d == 0 and d % prev == 0:
                rec(remaining // d, d, acc + (d,))

    rec(order, 1, ())
    return out


def enumerated_cokernel(a: IntMatrix, det_abs: int) -> FinAbGroup:
    """Z^n / column span by explicit enumeration modulo det_abs.

    Requires a square matrix with |det a| = det_abs > 0, so det_abs * Z^n lies
    inside the column span and the quotient can be computed inside (Z_D)^n.
    The invariant factors are identified through the m-torsion counts
    |G[m]| = prod_i gcd(d_i, m), which pin down the isomorphism type.
    """
    n = a.rows
    D = det_abs
    assert n == a.cols and D > 0

    gens = [tuple(a.at(i, j) % D for i in range(n)) for j in range(n)]
    subgroup = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((b + x) % D for b, x in zip(base, g))
            if nxt not in subgroup:
                subgroup.add(nxt)
                frontier.append(nxt)

    order = D**n // len(subgroup)

    def torsion_count(m: int) -> int:
        hits = 0
        for x in product(range(D), repeat=n):
            if tuple((m * c) % D for c in x) in subgroup:
                hits += 1
        return hits // len(subgroup)

    candidates = _dividing_chains(order, n)
    mods = sorted({c for chain in candidates for c in chain} | {1})
    counts = {m: torsion_count(m) for m in mods}
    matches = [
        chain
        for chain in candidates
        if all(counts[m] == _predicted_torsion(chain, m) for m in mods)
    ]
    assert len(matches) == 1, (a, order, matches)
    return FinAbGroup.from_parts(0, matches[0])


def _predicted_torsion(chain: Sequence[int], m: int) -> int:
    out = 1
    for d in chain:
        out *= gcd(d, m)
    return out


# ---------------------------------------------------------------------------
# abelian groups of a given order (for the coprime-extension uniqueness check)


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, max_part: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(n, n, ())
    return out


def abelian_groups_of_order(n: int) -> list[FinAbGroup]:
    """Every abelian group of order n, one partition choice per prime."""
    fact = factorize(n)
    primes = sorted(fact)
    per_prime = [_partitions(fact[p]) for p in primes]
    groups = []
    for choice in product(*per_prime):
        moduli = [p**e for p, parts in zip(primes, choice) for e in parts]
        groups.append(FinAbGroup.from_parts(0, moduli))
    return groups


def sylow_part(group: FinAbGroup, primes: Iterable[int]) -> FinAbGroup:
    """The summand of a finite group supported on the given primes."""
    keep = []
    for t in group.torsion:
        piece = 1
        for p in primes:
            while t % p == 0:
                piece *= p
                t //= p
        keep.append(piece)
    return FinAbGroup.from_parts(0, keep)


# ---------------------------------------------------------------------------
# signed-permutation matrix equivalence (reference matrices fix other conventions)


def _sign_canonical_column(col: tuple[int, ...]) -> tuple[int, ...]:
    for x in col:
        if x > 0:
            return col
        if x < 0:
            return tuple(-y for y in col)
    return col


def signed_perm_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """True iff b = (row signs + permutation) a (column signs + permutation)."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    if a.rows > 6:
        raise ValueError("brute-force checker is for small matrices")
    b_cols = sorted(
        _sign_canonical_column(tuple(b.at(i, j) for i in range(b.rows)))
        for j in range(b.cols)
    )
    for perm in permutations(range(a.rows)):
        for signs in product((1, -1), repeat=a.rows):
            a_cols = sorted(
                _sign_canonical_column(
                    tuple(signs[i] * a.at(perm[i], j) for i in range(a.rows))
                )
                for j in range(a.cols)
            )
            if a_cols == b_cols:
                return True
    return False
