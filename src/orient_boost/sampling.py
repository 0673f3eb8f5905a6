"""Block-randomized tournaments over a decomposition.

Each block is oriented independently, by the rule ``BlockKind.complete``
names: complete blocks receive the fixed regular base tournament of their
kind (``BaseTournaments.of``) under a uniformly random vertex relabeling;
cycles, star-paths and single edges are oriented along ``Block.arcs()`` or
all reversed, on one fair coin.  For odd n the result is always a regular
tournament; the even-n star-path layer yields a balanced one.

A sample walks the blocks in order on one stream: a complete block of size k
takes the k - 1 draws of ``Stream.permutation(k)``, a coin block one
``Stream.coin()``.  ``SamplingPlan`` lays that walk out once per (design,
bases) pair as an ``rng.ResidueLayout`` of its moduli and their rejection
limits, so a sample is one packed pass of that layout, which draws the
residues and handles their rejection, and a table lookup per block.
``sampling_plan`` keeps the plan of the last pair drawn from, matched by
identity and then by equality.

Every draw is a tournament exactly when the blocks partition the pairs of
K_n, a property of the design alone: the plan checks it once, by
``checked_pair_index``, which ``enumerate_support`` and ``CopyKernel`` also
run, and its draws skip the per-pair check of ``Tournament``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .designs import Block, BlockKind, Decomposition
from .errors import BudgetExceededError, InvalidTournamentError
from .orientations import Tournament, _unchecked_tournament, searched_orbits
from .rng import ResidueLayout, rejection_limits


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


# a complete kind's local out-masks are memoised per relabeling only when it has
# at most 7! relabelings, so the memo never outgrows 5040 entries per kind; the
# K9 of t = 5 and the K13 of t = 7 are oriented afresh on every draw
_MEMO_RELABELINGS = 5040
_SUPPORT_BUDGET = 1_000_000  # distinct outcomes ``enumerate_support`` may list


def checked_pair_index(d: Decomposition, bases: BaseTournaments) -> list[list[int]]:
    """``d.pair_block_index()``, once the bases are checked to fit d's t: the
    one check of a (design, bases) pair; bases of another size raise
    InvalidTournamentError."""
    if bases.r.n != d.t:
        raise InvalidTournamentError(f"base tournament has {bases.r.n} vertices, decomposition t={d.t}")
    return d.pair_block_index()


def _out_masks(draws, base_out, bits) -> tuple[int, ...]:
    """Out-masks of a complete block's vertices under one relabeling.

    ``draws`` are the residues of ``Stream.permutation(k)``'s Fisher-Yates
    steps, which pick the relabeling sigma; vertex a beats vertex b iff base
    vertex sigma[a] beats sigma[b].  ``base_out[s]`` lists the base vertices
    s beats and ``bits[b]`` is the bit of vertex b.
    """
    sigma = list(range(len(bits)))
    for i, j in zip(range(len(bits) - 1, 0, -1), draws):
        sigma[i], sigma[j] = sigma[j], sigma[i]
    bit_of_label = [0] * len(base_out)
    for s, bit in zip(sigma, bits):
        bit_of_label[s] = bit
    get = bit_of_label.__getitem__
    return tuple(sum(map(get, base_out[s])) for s in sigma)


def _coin_masks(arcs) -> tuple[tuple[int, int], ...]:
    """(vertex, out-mask) of each tail of ``arcs``."""
    masks: dict[int, int] = {}
    for u, v in arcs:
        masks[u] = masks.get(u, 0) | 1 << v
    return tuple(masks.items())


class SamplingPlan:
    """The block walk of ``sample`` for one (decomposition, bases) pair, laid out once.

    Draw ``i`` of a sample is ``Stream.below(mods[i])``: a complete block of
    size k owns the moduli k, k-1, ..., 2 of ``Stream.permutation(k)``, a coin
    block one modulus 2^64, the raw word whose top bit is ``Stream.coin()``.
    ``layout``, an ``rng.ResidueLayout``, holds the moduli, their rejection
    limits and the packing constants of the draw.  A complete block keeps
    a table spreading local bit masks onto its vertices, and its kind's
    memo of local out-masks by draws; a block of a kind with too many
    relabelings to memoise gets its global out-masks straight from the
    draws.  A coin block keeps its out-masks along ``Block.arcs()`` and
    reversed.

    A design whose blocks do not partition the pairs of K_n is refused here
    by ``checked_pair_index``, run for its check alone, before any draw; so
    every pair of a draw is oriented by exactly one block, and
    ``orient`` builds its ``Tournament`` without checking the pairs again.
    """

    def __init__(self, d: Decomposition, bases: BaseTournaments):
        checked_pair_index(d, bases)  # the index is not kept
        self.n = d.n
        mods: list[int] = []
        kinds: dict[BlockKind, tuple] = {}
        self._complete, self._coins = [], []
        for block in d.blocks:
            vs, at = block.vertices, len(mods)
            if block.kind.complete:
                mods.extend(range(len(vs), 1, -1))
                if block.kind not in kinds:
                    base = bases.of(block.kind)
                    kinds[block.kind] = (tuple(tuple(v for v in range(base.n) if row >> v & 1) for row in base.rows), {})
                base_out, memo = kinds[block.kind]
                if math.factorial(len(vs)) <= _MEMO_RELABELINGS:
                    spread = [0]
                    for v in vs:
                        spread += [mask | 1 << v for mask in spread]
                    local = tuple(1 << b for b in range(len(vs)))
                    self._complete.append((at, len(mods), vs, base_out, local, memo, spread))
                else:
                    self._complete.append((at, len(mods), vs, base_out, tuple(1 << v for v in vs), None, None))
            else:
                mods.append(1 << 64)
                arcs = block.arcs()
                self._coins.append((at, _coin_masks(arcs), _coin_masks((v, u) for u, v in arcs)))
        self.layout = ResidueLayout(mods, rejection_limits(mods))

    def orient(self, residues: tuple[int, ...]) -> Tournament:
        """The tournament the draws pick, each block ORed into the rows, unchecked."""
        rows = [0] * self.n
        for lo, hi, vs, base_out, bits, memo, spread in self._complete:
            draws = residues[lo:hi]
            if memo is None:
                for v, mask in zip(vs, _out_masks(draws, base_out, bits)):
                    rows[v] |= mask
                continue
            masks = memo.get(draws)
            if masks is None:
                masks = memo[draws] = _out_masks(draws, base_out, bits)
            for v, mask in zip(vs, masks):
                rows[v] |= spread[mask]
        for at, forward, reverse in self._coins:
            for v, mask in forward if residues[at] >> 63 else reverse:
                rows[v] |= mask
        return _unchecked_tournament(self.n, tuple(rows))


# (design, bases, plan) of the last ``sampling_plan`` call
_last_plan: tuple = (None, None, None)


def sampling_plan(d: Decomposition, bases: BaseTournaments) -> SamplingPlan:
    """The plan of this pair, built (its design checked) on its first draw and reused after.

    One plan is kept, that of the pair of the last call.  It is matched by
    identity first, and then by equality, which compares the whole design
    block by block, so an equal design read afresh shares the plan.
    """
    global _last_plan
    last_d, last_bases, plan = _last_plan
    if d is last_d and bases is last_bases:
        return plan
    if not (d == last_d and bases == last_bases):
        plan = SamplingPlan(d, bases)
    _last_plan = d, bases, plan
    return plan


def sample(d: Decomposition, bases: BaseTournaments, seed: SampleSeed) -> Tournament:
    """Draw one block-randomized tournament; pure in (d, bases, seed).

    The draws are ``Stream.below`` of the plan's moduli on the seed's stream,
    taken in one packed pass of the plan's ``layout``.
    """
    plan = sampling_plan(d, bases)
    return plan.orient(plan.layout.residues(seed.master, seed.index))


def _block_outcomes(block: Block, bases: BaseTournaments) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """Distinct edge orientations of one block with their probabilities.

    For every automorphism a of the base, the relabelings sigma and a∘sigma
    orient a complete block alike, and an a that maps base vertex x to r
    pairs the relabelings sending the block's first vertex to x one to one
    with those sending it to r.  So only the relabelings that send the first
    vertex to one representative r per vertex orbit of the base are listed,
    each counted |orbit| times.  The orbits are searched as those of a
    pattern (``vertex_orbits``) on the base's rows.
    """
    arcs = tuple(block.arcs())
    if not block.kind.complete:
        return [(arcs, Fraction(1, 2)), (tuple((v, u) for u, v in arcs), Fraction(1, 2))]
    base = bases.of(block.kind)
    k = len(block.vertices)
    labels = [[0 if x == y else 1 if base.beats(x, y) else 2 for y in range(k)] for x in range(k)]
    orbits = searched_orbits(labels, (0, 1, 2), range(k))
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    for orbit in orbits:
        r = orbit[0]
        for rest in permutations([x for x in range(k) if x != r]):
            label = dict(zip(block.vertices, (r, *rest)))
            key = tuple((u, v) if base.beats(label[u], label[v]) else (v, u) for u, v in arcs)
            counts[key] = counts.get(key, 0) + len(orbit)
    total = math.factorial(k)
    return [(key, Fraction(cnt, total)) for key, cnt in sorted(counts.items())]


def enumerate_support(d: Decomposition, bases: BaseTournaments):
    """Every (tournament, probability) of the block-randomized space, as an iterator.

    Identical block orientations reached by different relabelings are merged
    first, so the yielded outcomes are distinct per block.  Weights sum to 1.
    ``_SUPPORT_BUDGET`` bounds the product of the per-block distinct outcome
    counts; a complete block whose t! relabelings alone are over it is
    refused before they are listed, and the count stops at the first block
    that takes the product over the budget.  These refusals, and that of a
    design that ``checked_pair_index`` refuses, are raised by the call
    itself, before any outcome.
    """
    checked_pair_index(d, bases)
    per_block = []
    size = 1
    for block in d.blocks:
        if block.kind.complete:
            relabelings = math.factorial(len(block.vertices))
            if relabelings > _SUPPORT_BUDGET:
                raise BudgetExceededError(f"listing the relabelings of block {block.vertices}", relabelings,
                                          _SUPPORT_BUDGET, "outcomes")
        per_block.append(_block_outcomes(block, bases))
        size *= len(per_block[-1])
        if size > _SUPPORT_BUDGET:
            raise BudgetExceededError(f"the support on {d.n} vertices", size, _SUPPORT_BUDGET, "outcomes")

    def rec(idx: int, rows: list[int], weight: Fraction):
        if idx == len(per_block):
            yield Tournament(d.n, tuple(rows)), weight
            return
        for edges, w in per_block[idx]:
            nxt = list(rows)
            for u, v in edges:
                nxt[u] |= 1 << v
            yield from rec(idx + 1, nxt, weight * w)

    return rec(0, [0] * d.n, Fraction(1))
