"""Space-bounded pseudorandomness and derandomized sketch execution.

NisanGenerator expands a seed of b*(2d+1) bits into k = 2^d blocks of b
bits through a binary tree of pairwise-independent affine hashes over
GF(2^b).  Any single block is recomputable with at most d hash
applications (_tree_block), which is what lets a streaming sketch
regenerate matrix rows on demand instead of storing them; a reader of
every block in order (fsm_distance) walks the tree instead, one hash per
block after the first (_tree_blocks_in_order).

A stream of (coordinate, increment) updates acts on a linear sketch only
through its per-coordinate totals mod p, so the stream path reads updates
in chunks of at most STREAM_CHUNK, sums each chunk by coordinate, and
regenerates the rows of the distinct coordinates at once: its working
memory is O(STREAM_CHUNK * s) whatever n and the stream length are.  A
chunk of at least n updates is summed into a dense array of n totals, a
shorter one by sorting it, so no array is longer than the chunk; the sums
are exact, with increments reduced first when their raw int64 sum might
overflow, and Python ints past moduli of INT64_MAX // len.  The
sketch states of sketch.py share both steps: _coordinate_totals sums
their queued updates, and _fold adds the totals times the sketch's image
matrix to the state, so every stream in the library folds the same way.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .seeding import derived_rng

__all__ = [
    "Gf2Field",
    "NisanGenerator",
    "FSMSpec",
    "FsmDistanceResult",
    "fsm_distance",
    "check_fsm_size",
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
_FSM_TABLE_LIMIT = 1 << 20  # entries of an FSM transition table
STREAM_CHUNK = 1 << 16  # updates read at once by the stream path
_INT64_MAX = (1 << 63) - 1
_SEED_DRAW = 1 << 16  # sampled seeds drawn per getrandbits call in fsm_distance


def _check_field_bits(bits: int):
    if bits not in _GF2_MODULI:
        raise ValueError(
            f"unsupported field size 2^{bits}; supported: {sorted(_GF2_MODULI)}"
        )


def _gf2_mul(x: int, y: int, bits: int, modulus: int) -> int:
    """x * y in GF(2^bits) by shift-and-add."""
    out = 0
    while y:
        if y & 1:
            out ^= x
        y >>= 1
        x <<= 1
        if x >> bits:
            x ^= modulus
    return out


@functools.cache
def _log_exp_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) of GF(2^bits) for the least generator, built once per
    width and shared read-only by every field of that width.  exp is
    doubled, so a sum of two logs needs no mod; log[0] is a sentinel
    2*order that sends any product with 0 into exp's zero tail (4*order,
    for two zeros, is its last entry)."""
    modulus, order = _GF2_MODULI[bits], (1 << bits) - 1
    for g in range(2, 1 << bits):
        exp = [1]  # powers of g until they return to 1
        while len(exp) < order and (v := _gf2_mul(exp[-1], g, bits, modulus)) != 1:
            exp.append(v)
        if len(exp) == order:
            break
    else:
        raise RuntimeError("no generator found (non-irreducible modulus?)")
    log = np.full(1 << bits, 2 * order, dtype=np.int64)
    log[exp] = np.arange(order)
    exp = np.asarray(exp + exp + [0] * (2 * order + 1), dtype=np.int64)
    log.flags.writeable = exp.flags.writeable = False
    return log, exp


class Gf2Field:
    """Arithmetic in GF(2^b); log/exp tables for small b, shift-mul beyond."""

    def __init__(self, bits: int):
        _check_field_bits(bits)
        self.bits = bits
        self.modulus = _GF2_MODULI[bits]
        self.order = (1 << bits) - 1
        small = 1 < bits <= _LOG_TABLE_MAX_BITS
        self._log, self._exp = _log_exp_tables(bits) if small else (None, None)

    def _mul_slow(self, x: int, y: int) -> int:
        return _gf2_mul(x, y, self.bits, self.modulus)

    def mul(self, x, y):
        """x * y in the field: ints give an int, int64 arrays multiply
        elementwise (a 64-bit element is held as its two's-complement bit
        pattern)."""
        if self.bits == 1:
            return x & y
        if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
            if self._log is None:
                return self._mul_slow(x, y)
            if x == 0 or y == 0:
                return 0
            return int(self._exp[self._log[x] + self._log[y]])
        if self._log is None:
            return self._mul_array(x, y)
        return self._exp[self._log[x] + self._log[y]]

    def _mul_array(self, x, y) -> np.ndarray:
        """Shift-and-add on uint64 bit patterns, exact up to 64 bits."""
        x = np.asarray(x, dtype=np.int64).view(np.uint64)
        y = np.asarray(y, dtype=np.int64).view(np.uint64)
        one, zero = np.uint64(1), np.uint64(0)
        top = np.uint64(self.bits - 1)
        reduce_by = np.uint64(self.modulus & 0xFFFF_FFFF_FFFF_FFFF)  # x^b wraps away at b=64
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.uint64)
        for i in range(self.bits):
            out ^= np.where((y >> np.uint64(i)) & one, x, zero)
            x = (x << one) ^ np.where((x >> top) & one, reduce_by, zero)
        return out.view(np.int64)


def _seed_words(seed, bits: int, count: int) -> list:
    """The first `count` b-bit words of a seed, lowest bits first;
    elementwise on an array of seeds."""
    mask = (1 << bits) - 1
    return [(seed >> (bits * w)) & mask for w in range(count)]


def _hash_step(field: Gf2Field, words: Sequence, level: int, x):
    """h_level(x) = a_level*x + c_level, with the seed words laid out as
    (base, a_1, c_1, ..., a_d, c_d)."""
    return field.mul(words[2 * level - 1], x) ^ words[2 * level]


def _tree_block(field: Gf2Field, words: Sequence, index):
    """Block `index` from seed words (base, a_1, c_1, ..., a_d, c_d): apply
    h_j for every set bit j-1 of index, highest level first.  For an int
    index the words are ints, or int64 arrays holding one seed per entry;
    an int64 array of indices takes one seed's words as int64 scalars and
    gives every block at once."""
    many = isinstance(index, np.ndarray)
    x = np.full(index.shape, words[0], dtype=np.int64) if many else words[0]
    for j in range((len(words) - 1) // 2, 0, -1):
        bit = (index >> (j - 1)) & 1
        if many:
            x = np.where(bit, _hash_step(field, words, j, x), x)
        elif bit:
            x = _hash_step(field, words, j, x)
    return x


def _tree_blocks_in_order(field: Gf2Field, words: Sequence):
    """Blocks 0, 1, ..., 2^d - 1 of the seed words, as _tree_block gives
    them, with one hash per block after the first.  level[j] holds the
    value after the hashes of the index bits from d-1 down to j; block i
    keeps i-1's bits above its lowest set bit t, so it is h_{t+1} of
    level[t+1], and that value fills level[0..t]."""
    depth = (len(words) - 1) // 2
    level = [words[0]] * (depth + 1)
    yield level[0]
    for i in range(1, 1 << depth):
        t = (i & -i).bit_length() - 1
        level[:t + 1] = [_hash_step(field, words, t + 1, level[t + 1])] * (t + 1)
        yield level[0]


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


def check_fsm_size(n_states: int, block_bits: int, block_count: int):
    """ValueError unless an FSM instance fits fsm_distance: a supported
    field, at most 2^10 states, at most 2^14 random bits and a transition
    table of at most _FSM_TABLE_LIMIT entries.  Allocates nothing, so
    callers run it before building the table."""
    _check_field_bits(block_bits)
    if n_states > 1 << 10 or block_bits * block_count > 1 << 14:
        raise ValueError("instance too large for exact truth computation")
    if n_states << block_bits > _FSM_TABLE_LIMIT:
        raise ValueError(
            f"transition table of {n_states} x 2^{block_bits} entries exceeds the cap"
        )


def block_parity_counter(n_states: int, block_bits: int) -> FSMSpec:
    """Counter mod n_states of the parities of the incoming blocks."""
    parity = np.bitwise_count(np.arange(1 << block_bits, dtype=np.uint64)) & 1
    table = (np.arange(n_states)[:, None] + parity) % n_states
    return FSMSpec(n_states, block_bits, 0, tuple(map(tuple, table.tolist())))


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
    randomness (exact integer-count DP over blocks) and under the generator
    (exact when the seed space is small, sampled otherwise).  The machine
    reads every seed's blocks in order, one hash per block
    (_tree_blocks_in_order).  A sampled run needs samples >= 1
    (ValueError).
    """
    if fsm.block_bits != block_bits:
        raise ValueError("FSM block width does not match the generator")
    check_fsm_size(fsm.n_states, block_bits, block_count)
    gen = NisanGenerator(block_bits, block_count, 0)
    seed_bits, n_words = gen.seed_bits, 2 * gen.depth + 1
    exact = 1 << seed_bits <= exact_seed_limit
    if not exact and samples < 1:
        raise ValueError(f"2^{seed_bits} seeds exceed exact_seed_limit, so samples must be >= 1")

    table = fsm.table_array()
    # exact truth as integer counts: count[s] of the 2^(b*t) block sequences
    # of length t end in state s.  Counts stay below 2^(b*k), so int64 holds
    # them while b*k <= 62; past that they are Python ints.
    src = np.repeat(np.arange(fsm.n_states), 1 << block_bits)
    edges, mult = np.unique(src * fsm.n_states + table.reshape(-1), return_counts=True)
    src, dst = np.divmod(edges, fsm.n_states)
    dtype = np.int64 if block_bits * block_count <= 62 else object
    count = np.zeros(fsm.n_states, dtype=dtype)
    count[fsm.initial] = 1
    mult = mult.astype(dtype)
    for _ in range(block_count):
        nxt = np.zeros(fsm.n_states, dtype=dtype)
        np.add.at(nxt, dst, count[src] * mult)
        count = nxt
    total = 1 << (block_bits * block_count)
    true_dist = np.asarray([int(c) / total for c in count])  # int / int is correctly rounded

    # every seed at once: word w of all seeds is one int64 array
    if exact:
        words = _seed_words(np.arange(1 << seed_bits, dtype=np.int64), block_bits, n_words)
    else:  # seeds wider than 64 bits: one little-endian byte row per seed
        seed_bytes = _sampled_seed_bytes(derived_rng(seed, "fsm-distance"), seed_bits, samples)
        words = [_byte_word(seed_bytes, block_bits * w, block_bits) for w in range(n_words)]
    n_seeds = len(words[0])
    states = np.full(n_seeds, fsm.initial, dtype=np.int64)
    flat = table.reshape(-1)  # state s on block v goes to flat[s << block_bits | v]
    for block in _tree_blocks_in_order(gen.field, words):
        states = flat[(states << block_bits) | block]
    prg_dist = np.bincount(states, minlength=fsm.n_states) / n_seeds
    stderr = 0.0 if exact else float(
        np.sum(np.sqrt(np.maximum(prg_dist * (1 - prg_dist), 0) / n_seeds))
    )
    l1 = float(np.sum(np.abs(true_dist - prg_dist)))
    return FsmDistanceResult(l1, exact, n_seeds, true_dist, prg_dist, stderr)


def _sampled_seed_bytes(rng, seed_bits: int, samples: int) -> np.ndarray:
    """The seeds of `samples` successive rng.getrandbits(seed_bits) calls,
    one little-endian byte row each, drawn _SEED_DRAW seeds per call.

    getrandbits(k) takes w = ceil(k/32) 32-bit outputs, least significant
    first, and keeps the top k % 32 bits of the last one; so one
    getrandbits(32*w*m) yields the words of m seeds in the same order, and
    shifting every w-th word right by 32 - k % 32 leaves each seed's own.
    """
    n_words, nbytes = -(-seed_bits // 32), -(-seed_bits // 8)
    out = np.empty((samples, nbytes), dtype=np.uint8)
    for lo in range(0, samples, _SEED_DRAW):
        m = min(_SEED_DRAW, samples - lo)
        raw = rng.getrandbits(32 * n_words * m).to_bytes(4 * n_words * m, "little")
        words = np.frombuffer(raw, dtype="<u4").reshape(m, n_words).copy()
        if seed_bits % 32:
            words[:, -1] >>= 32 - seed_bits % 32
        out[lo:lo + m] = words.view(np.uint8)[:, :nbytes]
    return out


def _byte_word(seed_bytes: np.ndarray, lo: int, bits: int) -> np.ndarray:
    """Bits [lo, lo + bits) of every row of a little-endian byte matrix, as
    int64 (bits <= 56)."""
    acc = np.zeros(len(seed_bytes), dtype=np.int64)
    for k in range((lo + bits - 1) // 8, lo // 8 - 1, -1):
        acc = (acc << 8) | seed_bytes[:, k]
    return (acc >> (lo % 8)) & ((1 << bits) - 1)


def _row_layout(n: int, s: int, p: int, block_bits: int) -> tuple[int, int, int]:
    """(field_bits, blocks_per_row, block_count) of a RowTemplate: w =
    ceil(log2 p) bits per coefficient, enough blocks for s of them per row,
    and the least power of two holding n rows' blocks."""
    field_bits = max((p - 1).bit_length(), 1)
    bpr = -(-(s * field_bits) // block_bits)
    return field_bits, bpr, 1 << max(n * bpr - 1, 0).bit_length()


@dataclass(frozen=True, eq=False)
class RowTemplate:
    """A sketch matrix whose rows are defined by generator blocks.

    Row i (the s coefficients applied to coordinate i) occupies
    blocks_per_row consecutive blocks starting at i * blocks_per_row, so
    any row is recomputable on demand from the seed.  Read those blocks as
    one little-endian bit string; coefficient j is its w-bit field
    [j*w, (j+1)*w) reduced mod p, with w = field_bits = ceil(log2 p).

    The coefficients are not uniform mod p unless p is a power of two.
    Over a uniform seed every block is uniform and any two consecutive
    blocks are jointly uniform, so a field lying within two consecutive
    blocks (always, when w <= block_bits + 1) is uniform on [0, 2^w), and
    a coefficient equals c with probability #{v < 2^w : v mod p = c} / 2^w.
    For p = 3 that is 1/2 for 0 and 1/4 each for 1 and 2.  A wider field
    spans three or more blocks, which the tree does not make jointly
    uniform, and its law is only close to this one.
    """

    n: int
    s: int
    p: int
    block_bits: int
    seed: int

    def __post_init__(self):
        field_bits, bpr, count = _row_layout(self.n, self.s, self.p, self.block_bits)
        object.__setattr__(self, "field_bits", field_bits)
        object.__setattr__(self, "blocks_per_row", bpr)
        object.__setattr__(
            self, "generator", NisanGenerator(self.block_bits, count, self.seed)
        )

    @property
    def seed_bits(self) -> int:
        return self.generator.seed_bits

    @staticmethod
    def required_seed_bits(n: int, s: int, p: int, block_bits: int) -> int:
        depth = _row_layout(n, s, p, block_bits)[2].bit_length() - 1
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


def _template_rows(template: RowTemplate, coords: np.ndarray) -> np.ndarray:
    """Rows of the distinct coordinates `coords` as a (len, s) int64 array:
    the generator's tree runs once per block offset over every coordinate,
    then each coefficient is cut from the blocks it spans."""
    gen, b, w = template.generator, template.block_bits, template.field_bits
    words = np.asarray(gen._words, dtype=np.uint64).view(np.int64)
    start = coords * template.blocks_per_row
    blocks = [
        _tree_block(gen.field, words, start + off).view(np.uint64)
        for off in range(template.blocks_per_row)
    ]
    rows = np.empty((len(coords), template.s), dtype=np.int64)
    for j in range(template.s):
        field = np.zeros(len(coords), dtype=np.uint64)
        lo = pos = j * w
        while pos < lo + w:  # one piece per block the field touches
            off, shift = divmod(pos, b)
            take = min(b - shift, lo + w - pos)
            piece = (blocks[off] >> np.uint64(shift)) & np.uint64((1 << take) - 1)
            field |= piece << np.uint64(pos - lo)
            pos += take
        rows[:, j] = field % np.uint64(template.p)
    return rows


def _fold_group(moduli) -> int:
    """Rows per int64-safe group of _fold, from the largest of the moduli;
    0 when one product might overflow int64."""
    top = int(np.max(moduli))
    return max((_INT64_MAX - top) // (top - 1) ** 2, 0)


def _fold(state: np.ndarray, totals: np.ndarray, rows: np.ndarray, moduli, per_group: int) -> np.ndarray:
    """(state + totals @ rows) % moduli, moduli an int or one int64 per
    column, exact for entries below the largest modulus: summed in groups
    of per_group = _fold_group(moduli) rows, or as Python ints at 0."""
    if per_group == 0:
        out = state.astype(object) + totals.astype(object) @ rows.astype(object)
        return (out % np.asarray(moduli, dtype=object)).astype(np.int64)
    for lo in range(0, len(totals), per_group):
        state = (state + totals[lo:lo + per_group] @ rows[lo:lo + per_group]) % moduli
    return state


def _stream_chunks(updates: Iterable[tuple[int, int]]):
    """The stream as flat [coordinate, increment, coordinate, ...] lists of
    at most STREAM_CHUNK updates each, none held here (nor, by contract, by
    the caller) while the next is read: one chunk is live, not two."""
    updates = iter(updates)
    while chunk := list(itertools.islice(updates, STREAM_CHUNK)):
        try:
            pairs = operator.countOf(map(len, chunk), 2) == len(chunk)
        except TypeError:  # an update with no length, such as an int or None
            pairs = False
        if not pairs:
            raise ValueError("every update must be a (coordinate, increment) pair")
        chunk = list(itertools.chain.from_iterable(chunk))
        yield chunk
        del chunk


def _int64_pairs(flat: list, n: int) -> np.ndarray:
    """A flat [coordinate, increment, ...] list as one int64 array, checked
    as a whole before anything uses it.  A value that is not an integer (by
    operator.index: bools and numpy integers are, floats and strings are
    not) raises TypeError, a coordinate outside [0, n) IndexError and an
    increment outside int64 ValueError, each naming the first such value.
    """
    try:
        pairs = np.frombuffer(struct.pack(f"{len(flat)}q", *flat), dtype=np.int64)
    except struct.error:
        pairs = None  # a value to name, found by the scan below
    # one unsigned maximum: a negative coordinate wraps above 2^63
    if pairs is None or pairs[0::2].view(np.uint64).max() >= min(n, 1 << 63):
        for at, value in enumerate(flat):
            what = "increment" if at % 2 else "coordinate"
            try:
                number = operator.index(value)
            except TypeError:
                raise TypeError(f"{what} {value!r} is not an integer") from None
            if not at % 2 and not 0 <= number < n:
                raise IndexError(f"coordinate {number} out of range")
            if at % 2 and not -_INT64_MAX - 1 <= number <= _INT64_MAX:
                raise ValueError(f"increment {number} does not fit int64")
    return pairs


def _coordinate_totals(flat: list, n: int, moduli) -> tuple[np.ndarray, np.ndarray]:
    """By linearity, what a run of updates does to a sketch: (coords,
    totals), coords the distinct coordinates whose increments do not
    cancel, in increasing order, and totals their summed increments
    reduced mod the coordinate's modulus (an int, or an int64 array with
    one modulus per coordinate).  `flat` is checked first (_int64_pairs).

    With n no larger than the run, the increments are added into a dense
    array of n sums (np.add.at) and each sum is reduced once; otherwise
    they are sorted into one run per coordinate (np.add.reduceat), so no
    array is ever longer than the run, whatever n is.  Both sum exactly:
    raw increments in int64 when len * max|increment| fits; otherwise each
    increment is first reduced mod its modulus, and summed as a Python int
    when a modulus exceeds INT64_MAX // len."""
    pairs = _int64_pairs(flat, n)
    coords, incs = pairs[0::2], pairs[1::2]
    size = len(incs)
    if size * int(np.abs(incs).view(np.uint64).max()) > _INT64_MAX:  # raw sums may overflow
        mod = moduli[coords] if np.ndim(moduli) else moduli
        if np.max(mod) > _INT64_MAX // size:  # and so may sums of reduced increments
            incs = incs.astype(object)
        incs = incs % mod
    if n <= size:  # a dense accumulator no longer than the queue
        keys, sums = np.arange(n), np.zeros(n, dtype=incs.dtype)
        np.add.at(sums, coords, incs)
    else:  # sorted runs, so memory stays O(queue) at any n
        order = coords.argsort()
        coords = coords[order]
        first = np.empty(size, dtype=bool)  # each run's first entry
        first[0] = True
        np.not_equal(coords[1:], coords[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        keys, sums = coords[starts], np.add.reduceat(incs[order], starts)
    totals = sums % (moduli[keys] if np.ndim(moduli) else moduli)
    keep = np.flatnonzero(totals)
    return keys[keep], totals[keep].astype(np.int64, copy=False)


def derandomized_apply(
    template: RowTemplate, updates: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Run a stream through the template sketch, regenerating rows on
    demand: per chunk of updates, the rows of the distinct coordinates are
    regenerated at once and applied to their increment totals mod p.  The
    result is order-invariant because coordinate contributions commute.
    Coordinates and increments must be integers (TypeError otherwise) and
    increments must fit int64 (ValueError otherwise); working memory is
    O(STREAM_CHUNK * s), independent of n and of the stream length.
    """
    p, per_group = template.p, _fold_group(template.p)
    state = np.zeros(template.s, dtype=np.int64)
    for flat in _stream_chunks(updates):
        coords, totals = _coordinate_totals(flat, template.n, p)
        del flat  # released before the next chunk is read
        state = _fold(state, totals, _template_rows(template, coords), p, per_group)
    return state
