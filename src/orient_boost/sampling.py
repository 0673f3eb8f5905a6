"""Block-randomized tournaments over a decomposition.

Each block is oriented independently: complete blocks receive the fixed
regular base tournament of their kind (``BaseTournaments.of``) under a
uniformly random vertex relabeling; cycles, star-paths and single edges are
oriented along ``Block.arcs()`` or all reversed, on one fair coin.  For odd n the
result is always a regular tournament; the even-n star-path layer yields a
balanced one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .designs import Block, BlockKind, Decomposition
from .errors import BudgetExceededError, InvalidTournamentError
from .orientations import Tournament
from .rng import Stream, stream_for


def circulant_regular_tournament(m: int) -> Tournament:
    """Vertex i beats i+1, ..., i+(m-1)/2 (mod m)."""
    if m < 3 or m % 2 == 0:
        raise InvalidTournamentError(f"circulant tournament needs odd m >= 3, got {m}")
    rows = [0] * m
    for i in range(m):
        for d in range(1, (m - 1) // 2 + 1):
            rows[i] |= 1 << ((i + d) % m)
    return Tournament(m, tuple(rows))


def quadratic_residue_tournament(p: int) -> Tournament:
    """i beats j iff j-i is a nonzero square mod p (p prime, p = 3 mod 4)."""
    if p < 3 or p % 4 != 3 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise InvalidTournamentError(f"need a prime p = 3 (mod 4), got {p}")
    squares = {(x * x) % p for x in range(1, p)}
    rows = [0] * p
    for i in range(p):
        for j in range(p):
            if i != j and (j - i) % p in squares:
                rows[i] |= 1 << j
    return Tournament(p, tuple(rows))


@dataclass(frozen=True)
class BaseTournaments:
    """The fixed regular tournaments placed on complete blocks: size t and 2t-1."""

    r: Tournament
    rstar: Tournament

    def __post_init__(self):
        if not self.r.is_regular():
            raise InvalidTournamentError("base tournament on t vertices is not regular")
        if not self.rstar.is_regular():
            raise InvalidTournamentError("base tournament on 2t-1 vertices is not regular")
        if self.rstar.n != 2 * self.r.n - 1:
            raise InvalidTournamentError(
                f"size mismatch: got {self.r.n} and {self.rstar.n}, expected t and 2t-1"
            )

    @classmethod
    def circulant(cls, t: int) -> "BaseTournaments":
        return cls(circulant_regular_tournament(t), circulant_regular_tournament(2 * t - 1))

    def of(self, kind: BlockKind) -> Tournament:
        """The base tournament relabelled onto a complete block of this kind."""
        return self.r if kind == BlockKind.KT else self.rstar


@dataclass(frozen=True)
class SampleSeed:
    """(master seed, sample index); the pair fully determines the draw."""

    master: int
    index: int = 0

    def stream(self) -> Stream:
        return stream_for(self.master, self.index)


def _orient_block(block: Block, bases: BaseTournaments, stream: Stream, rows: list[int]) -> None:
    vs = block.vertices
    if block.kind in (BlockKind.KT, BlockKind.K2T1):
        base = bases.of(block.kind)
        sigma = stream.permutation(len(vs))
        # the pairs of arcs(), inlined: this loop is most of the cost of sample()
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                if base.beats(sigma[a], sigma[b]):
                    rows[vs[a]] |= 1 << vs[b]
                else:
                    rows[vs[b]] |= 1 << vs[a]
    elif stream.coin():
        for u, v in block.arcs():
            rows[u] |= 1 << v
    else:
        for u, v in block.arcs():
            rows[v] |= 1 << u


def sample(d: Decomposition, bases: BaseTournaments, seed: SampleSeed) -> Tournament:
    """Draw one block-randomized tournament; pure in (d, bases, seed)."""
    if bases.r.n != d.t:
        raise InvalidTournamentError(f"base tournament has {bases.r.n} vertices, decomposition t={d.t}")
    stream = seed.stream()
    rows = [0] * d.n
    for block in d.blocks:
        _orient_block(block, bases, stream, rows)
    return Tournament(d.n, tuple(rows))


def _block_outcomes(block: Block, bases: BaseTournaments) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """Distinct edge orientations of one block with their probabilities."""
    arcs = tuple(block.arcs())
    if block.kind not in (BlockKind.KT, BlockKind.K2T1):
        return [(arcs, Fraction(1, 2)), (tuple((v, u) for u, v in arcs), Fraction(1, 2))]
    base = bases.of(block.kind)
    k = len(block.vertices)
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    for sigma in permutations(range(k)):
        label = dict(zip(block.vertices, sigma))
        key = tuple((u, v) if base.beats(label[u], label[v]) else (v, u) for u, v in arcs)
        counts[key] = counts.get(key, 0) + 1
    total = math.factorial(k)
    return [(key, Fraction(cnt, total)) for key, cnt in sorted(counts.items())]


def enumerate_support(d: Decomposition, bases: BaseTournaments, *, budget: int = 1_000_000):
    """Yield every (tournament, probability) of the block-randomized space.

    Identical block orientations reached by different relabelings are merged
    first, so the yielded outcomes are distinct per block.  Weights sum to 1.
    The budget bounds the product of the per-block distinct outcome counts;
    a complete block whose t! relabelings alone are over it is refused
    before they are listed, and the count stops at the first block that
    takes the product over the budget.
    """
    if bases.r.n != d.t:
        raise InvalidTournamentError(f"base tournament has {bases.r.n} vertices, decomposition t={d.t}")
    per_block = []
    size = 1
    for block in d.blocks:
        if block.kind in (BlockKind.KT, BlockKind.K2T1):
            relabelings = math.factorial(len(block.vertices))
            if relabelings > budget:
                raise BudgetExceededError(
                    f"block {block.vertices} has {relabelings} relabelings, over the budget of {budget}",
                    size=relabelings, budget=budget,
                )
        per_block.append(_block_outcomes(block, bases))
        size *= len(per_block[-1])
        if size > budget:
            raise BudgetExceededError(
                f"support has at least {size} distinct outcomes, over the budget of {budget}",
                size=size, budget=budget,
            )

    def rec(idx: int, rows: list[int], weight: Fraction):
        if idx == len(per_block):
            yield Tournament(d.n, tuple(rows)), weight
            return
        for edges, w in per_block[idx]:
            nxt = list(rows)
            for u, v in edges:
                nxt[u] |= 1 << v
            yield from rec(idx + 1, nxt, weight * w)

    yield from rec(0, [0] * d.n, Fraction(1))
