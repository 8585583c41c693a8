"""Space-bounded pseudorandomness and derandomized sketch execution.

NisanGenerator expands a seed of b*(2d+1) bits into k = 2^d blocks of b
bits through a binary tree of pairwise-independent affine hashes over
GF(2^b); any single block is recomputable with d hash applications, which
is what lets a streaming sketch regenerate matrix rows on demand instead
of storing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .seeding import derived_rng

__all__ = [
    "Gf2Field",
    "NisanGenerator",
    "FSMSpec",
    "FsmDistanceResult",
    "fsm_distance",
    "block_parity_counter",
    "RowTemplate",
    "derandomized_apply",
]

# Minimal-weight irreducible polynomials over GF(2), degrees 1..64
# (represented as ints including the leading term).
_GF2_MODULI = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: (1 << 8) + (1 << 4) + (1 << 3) + (1 << 1) + 1,
    9: (1 << 9) + (1 << 1) + 1,
    10: (1 << 10) + (1 << 3) + 1,
    11: (1 << 11) + (1 << 2) + 1,
    12: (1 << 12) + (1 << 3) + 1,
    13: (1 << 13) + (1 << 4) + (1 << 3) + (1 << 1) + 1,
    14: (1 << 14) + (1 << 5) + 1,
    15: (1 << 15) + (1 << 1) + 1,
    16: (1 << 16) + (1 << 5) + (1 << 3) + (1 << 1) + 1,
    20: (1 << 20) + (1 << 3) + 1,
    24: (1 << 24) + (1 << 4) + (1 << 3) + (1 << 1) + 1,
    32: (1 << 32) + (1 << 7) + (1 << 3) + (1 << 2) + 1,
    48: (1 << 48) + (1 << 5) + (1 << 3) + (1 << 2) + 1,
    64: (1 << 64) + (1 << 4) + (1 << 3) + (1 << 1) + 1,
}

_LOG_TABLE_MAX_BITS = 16


class Gf2Field:
    """Arithmetic in GF(2^b); log/exp tables for small b, shift-mul beyond."""

    def __init__(self, bits: int):
        if bits not in _GF2_MODULI:
            raise ValueError(
                f"unsupported field size 2^{bits}; supported: {sorted(_GF2_MODULI)}"
            )
        self.bits = bits
        self.modulus = _GF2_MODULI[bits]
        self.order = (1 << bits) - 1
        self._log = None
        self._exp = None
        if 1 < bits <= _LOG_TABLE_MAX_BITS:
            self._build_tables()

    def _mul_slow(self, x: int, y: int) -> int:
        out = 0
        while y:
            if y & 1:
                out ^= x
            y >>= 1
            x <<= 1
            if x >> self.bits:
                x ^= self.modulus
        return out

    def _build_tables(self):
        for g in range(2, 1 << self.bits):
            acc = 1
            seen_one_early = False
            exp = [0] * (self.order)
            for i in range(self.order):
                exp[i] = acc
                acc = self._mul_slow(acc, g)
                if acc == 1 and i < self.order - 1:
                    seen_one_early = True
                    break
            if not seen_one_early and acc == 1:
                log = [0] * (1 << self.bits)
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = np.asarray(exp + exp, dtype=np.int64)  # doubled: no mod
                self._log = np.asarray(log, dtype=np.int64)
                return
        raise RuntimeError("no generator found (non-irreducible modulus?)")

    def mul(self, x, y):
        """x * y in the field: ints give an int, int64 arrays multiply
        elementwise."""
        if self.bits == 1:
            return x & y
        if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
            if self._log is None:
                return self._mul_slow(x, y)
            if x == 0 or y == 0:
                return 0
            return int(self._exp[self._log[x] + self._log[y]])
        if self._log is None:
            return np.vectorize(self._mul_slow, otypes=[np.int64])(x, y)
        return np.where((x == 0) | (y == 0), 0, self._exp[self._log[x] + self._log[y]])


def _seed_words(seed, bits: int, count: int) -> list:
    """The first `count` b-bit words of a seed, lowest bits first;
    elementwise on an array of seeds."""
    mask = (1 << bits) - 1
    return [(seed >> (bits * w)) & mask for w in range(count)]


def _tree_block(field: Gf2Field, words: Sequence, index: int):
    """Block `index` from seed words (base, a_1, c_1, ..., a_d, c_d): apply
    h_j(x) = a_j*x + c_j for every set bit j-1 of index, highest level
    first.  Words are ints, or int64 arrays holding one seed per entry."""
    x = words[0]
    for j in range((len(words) - 1) // 2, 0, -1):
        if (index >> (j - 1)) & 1:
            x = field.mul(words[2 * j - 1], x) ^ words[2 * j]
    return x


@dataclass(frozen=True, eq=False)
class NisanGenerator:
    """Tree generator: k = 2^d blocks of b bits from b*(2d+1) seed bits.

    Seed layout (little-endian bit offsets): base block in [0, b), then for
    level j = 1..d the hash pair a_j in [b(2j-1), 2bj) and c_j in
    [2bj, b(2j+1)).  Block i applies h_j = a_j*x + c_j for every set bit
    j-1 of i, highest level first.
    """

    block_bits: int
    block_count: int
    seed: int

    def __post_init__(self):
        if self.block_count < 1 or self.block_count & (self.block_count - 1):
            raise ValueError("block count must be a power of two")
        if not 0 <= self.seed < 1 << self.seed_bits:
            raise ValueError("seed does not fit the declared layout")
        object.__setattr__(self, "field", Gf2Field(self.block_bits))
        words = _seed_words(int(self.seed), self.block_bits, 2 * self.depth + 1)
        object.__setattr__(self, "_words", words)

    @property
    def depth(self) -> int:
        return self.block_count.bit_length() - 1

    @property
    def seed_bits(self) -> int:
        return self.block_bits * (2 * self.depth + 1)

    def block(self, index: int) -> int:
        """The b bits at block position index, via O(depth) hash steps."""
        if not 0 <= index < self.block_count:
            raise IndexError(f"block index {index} out of range")
        return _tree_block(self.field, self._words, index)


@dataclass(frozen=True)
class FSMSpec:
    """A deterministic machine consuming k blocks of b random bits.

    transition is a dense (n_states, 2^block_bits) table.
    """

    n_states: int
    block_bits: int
    initial: int
    table: tuple  # row per state, 2^block_bits next-states each

    def step(self, state: int, block: int) -> int:
        return self.table[state][block]

    def run(self, blocks: Sequence[int]) -> int:
        s = self.initial
        for blk in blocks:
            s = self.table[s][blk]
        return s

    def table_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)


def block_parity_counter(n_states: int, block_bits: int) -> FSMSpec:
    """Counter mod n_states of the parities of the incoming blocks."""
    rows = []
    for s in range(n_states):
        row = [
            (s + (bin(blk).count("1") & 1)) % n_states
            for blk in range(1 << block_bits)
        ]
        rows.append(tuple(row))
    return FSMSpec(n_states, block_bits, 0, tuple(rows))


@dataclass
class FsmDistanceResult:
    l1: float
    exact: bool
    samples: int
    true_dist: np.ndarray
    prg_dist: np.ndarray
    stderr: float


def fsm_distance(
    fsm: FSMSpec,
    block_bits: int,
    block_count: int,
    samples: int = 100_000,
    seed: int = 0,
    exact_seed_limit: int = 1 << 24,
) -> FsmDistanceResult:
    """L1 distance between the FSM's final-state distribution under true
    randomness (exact rational DP over blocks) and under the generator
    (exact when the seed space is small, sampled otherwise).
    """
    if fsm.block_bits != block_bits:
        raise ValueError("FSM block width does not match the generator")
    if fsm.n_states > 1 << 10 or block_bits * block_count > 1 << 14:
        raise ValueError("instance too large for exact truth computation")

    n_blocks = 1 << block_bits
    table = fsm.table_array()
    # exact one-block transition probabilities (counts / 2^b)
    counts = np.zeros((fsm.n_states, fsm.n_states), dtype=np.int64)
    for s in range(fsm.n_states):
        np.add.at(counts[s], table[s], 1)
    dist = [Fraction(0)] * fsm.n_states
    dist[fsm.initial] = Fraction(1)
    for _ in range(block_count):
        nxt = [Fraction(0)] * fsm.n_states
        for s, p in enumerate(dist):
            if p:
                for s2 in range(fsm.n_states):
                    if counts[s, s2]:
                        nxt[s2] += p * Fraction(int(counts[s, s2]), n_blocks)
        dist = nxt
    true_dist = np.asarray([float(p) for p in dist])

    gen = NisanGenerator(block_bits, block_count, 0)
    exact = 1 << gen.seed_bits <= exact_seed_limit
    if exact:
        seeds = np.arange(1 << gen.seed_bits, dtype=np.int64)
    else:  # seeds wider than 64 bits: Python ints in an object array
        rng = derived_rng(seed, "fsm-distance")
        seeds = [rng.getrandbits(gen.seed_bits) for _ in range(samples)]
        seeds = np.asarray(seeds, dtype=object)
    # every seed at once: word w of all seeds is one int64 array
    words = _seed_words(seeds, block_bits, 2 * gen.depth + 1)
    words = [np.asarray(w, dtype=np.int64) for w in words]
    states = np.full(len(seeds), fsm.initial, dtype=np.int64)
    for idx in range(block_count):
        states = table[states, _tree_block(gen.field, words, idx)]
    prg_dist = np.bincount(states, minlength=fsm.n_states) / len(seeds)
    stderr = 0.0 if exact else float(
        np.sum(np.sqrt(np.maximum(prg_dist * (1 - prg_dist), 0) / len(seeds)))
    )
    l1 = float(np.sum(np.abs(true_dist - prg_dist)))
    return FsmDistanceResult(l1, exact, len(seeds), true_dist, prg_dist, stderr)


@dataclass(frozen=True, eq=False)
class RowTemplate:
    """A sketch matrix whose rows are defined by generator blocks.

    Row i (the s coefficients applied to coordinate i, each ceil(log2 p)
    bits wide) occupies blocks_per_row consecutive blocks starting at
    i * blocks_per_row, so any row is recomputable on demand from the seed.
    """

    n: int
    s: int
    p: int
    block_bits: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "field_bits", max((self.p - 1).bit_length(), 1))
        bpr = -(-(self.s * self.field_bits) // self.block_bits)
        object.__setattr__(self, "blocks_per_row", bpr)
        count = 1
        while count < self.n * bpr:
            count *= 2
        object.__setattr__(
            self, "generator", NisanGenerator(self.block_bits, count, self.seed)
        )

    @property
    def seed_bits(self) -> int:
        return self.generator.seed_bits

    @staticmethod
    def required_seed_bits(n: int, s: int, p: int, block_bits: int) -> int:
        field_bits = max((p - 1).bit_length(), 1)
        bpr = -(-(s * field_bits) // block_bits)
        count = 1
        while count < n * bpr:
            count *= 2
        depth = count.bit_length() - 1
        return block_bits * (2 * depth + 1)

    def row(self, i: int) -> tuple[int, ...]:
        """Regenerate row i; identical across invocations by construction."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        start = i * self.blocks_per_row
        acc = 0
        for off in range(self.blocks_per_row):
            acc |= self.generator.block(start + off) << (off * self.block_bits)
        w = self.field_bits
        mask = (1 << w) - 1
        return tuple(((acc >> (j * w)) & mask) % self.p for j in range(self.s))

    def materialize(self) -> np.ndarray:
        """The full n x s matrix (for offline checks; defeats the low-memory
        point of streaming execution, so the stream path never calls it)."""
        return np.asarray([self.row(i) for i in range(self.n)], dtype=np.int64)


def derandomized_apply(
    template: RowTemplate, updates: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Run a stream through the template sketch, regenerating each row on
    demand; the result is order-invariant because coordinate contributions
    commute."""
    state = np.zeros(template.s, dtype=np.int64)
    for coord, inc in updates:
        row = template.row(coord)
        for j in range(template.s):
            state[j] = (state[j] + row[j] * inc) % template.p
    return state
