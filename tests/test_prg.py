"""Nisan generator, FSM fooling, and derandomized sketch execution."""

import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch import prg
from modsketch.prg import (
    FSMSpec,
    Gf2Field,
    NisanGenerator,
    RowTemplate,
    block_parity_counter,
    check_fsm_size,
    derandomized_apply,
    fsm_distance,
)
from modsketch.seeding import derived_rng

from oracles import (
    accumulate_stream,
    coordinate_totals,
    derandomized_apply_per_update,
    fsm_prg_dist_per_block,
    fsm_true_distribution,
    prg_expand_tree,
    seed_bytes_per_sample,
)


def test_gf2_field_properties():
    for bits in (1, 2, 8, 16, 32):
        field = Gf2Field(bits)
        rng = random.Random(bits)
        for _ in range(50):
            x = rng.getrandbits(bits)
            y = rng.getrandbits(bits)
            z = rng.getrandbits(bits)
            assert field.mul(x, y) == field.mul(y, x)
            assert field.mul(x, field.mul(y, z)) == field.mul(field.mul(x, y), z)
            assert field.mul(x, 1 if bits > 0 else x) == x
            assert field.mul(x, y) ^ field.mul(x, z) == field.mul(x, y ^ z)


def test_gf2_tables_are_built_once_per_width():
    # every field of a width shares one read-only table pair, and its
    # products are the shift-and-add ones
    a, b = Gf2Field(16), Gf2Field(16)
    assert a._log is b._log and a._exp is b._exp
    assert not a._log.flags.writeable and not a._exp.flags.writeable
    assert Gf2Field(12)._log is not a._log
    rng = random.Random(16)
    pairs = [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(3000)]
    pairs += [(0, 5), (5, 0), (0, 0), (1, 0xFFFF), (0xFFFF, 0xFFFF)]
    want = [a._mul_slow(x, y) for x, y in pairs]
    assert [b.mul(x, y) for x, y in pairs] == want
    xs, ys = (np.asarray(v, dtype=np.int64) for v in zip(*pairs))
    assert b.mul(xs, ys).tolist() == want


def test_gf2_vectorized_matches_scalar():
    # 1 bit is a plain AND, 2 to 16 use log tables, 20 the shift-multiply
    rng = np.random.default_rng(0)
    for bits in (1, 2, 4, 8, 16, 20):
        field = Gf2Field(bits)
        xs = rng.integers(0, 1 << bits, size=200)
        ys = rng.integers(0, 1 << bits, size=200)
        ys[:3] = (0, 1, (1 << bits) - 1)
        xs[3] = 0
        for y in (0, 1, 37 % (1 << bits), (1 << bits) - 1):
            vec = field.mul(xs, y)
            assert vec.dtype == np.int64
            assert all(int(v) == field.mul(int(x), y) for x, v in zip(xs, vec))
        pairwise = field.mul(xs, ys)
        assert all(
            int(v) == field.mul(int(x), int(y)) for x, y, v in zip(xs, ys, pairwise)
        )


def test_seed_length_formula():
    for b, k in ((8, 16), (4, 64), (1, 8), (16, 2)):
        gen = NisanGenerator(b, k, 0)
        d = k.bit_length() - 1
        assert gen.seed_bits == b * (2 * d + 1)


def test_block_determinism_and_range():
    gen = NisanGenerator(8, 16, 0x1234567890ABCDEF12)
    first = [gen.block(i) for i in range(16)]
    second = [gen.block(i) for i in range(16)]
    assert first == second
    assert all(0 <= b < 256 for b in first)
    with pytest.raises(IndexError):
        gen.block(16)


def test_single_block_generator_returns_base():
    gen = NisanGenerator(8, 1, 0xAB)
    assert gen.block(0) == 0xAB


def test_blocks_match_full_expansion_oracle():
    rng = random.Random(1)
    b, k = 8, 16
    field = Gf2Field(b)
    gen0 = NisanGenerator(b, k, 0)
    for _ in range(4096):
        seed = rng.getrandbits(gen0.seed_bits)
        gen = NisanGenerator(b, k, seed)
        words = [(seed >> (b * w)) & 0xFF for w in range(2 * 4 + 1)]
        base, hashes = words[0], list(zip(words[1::2], words[2::2]))
        expanded = prg_expand_tree(base, hashes, field.mul)
        assert [gen.block(i) for i in range(k)] == expanded


def test_fsm_distance_trivial_cases():
    # machine ignoring its input: distance exactly 0
    fsm_ignore = block_parity_counter(1, 4)
    res = fsm_distance(fsm_ignore, 4, 8, samples=100)
    assert res.l1 == 0.0
    # k = 1: the single block is the uniformly random base block
    fsm = block_parity_counter(4, 4)
    res1 = fsm_distance(fsm, 4, 1, samples=0, exact_seed_limit=1 << 24)
    assert res1.exact and res1.l1 < 1e-12


def test_fsm_distance_needs_a_sample_past_the_exact_limit():
    # 16 bits x 2 blocks: 2^48 seeds, so the generator side is sampled
    fsm = block_parity_counter(4, 16)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="2\\^48 seeds exceed exact_seed_limit, so samples must be >= 1"):
            fsm_distance(fsm, 16, 2, samples=samples)
    assert fsm_distance(fsm, 16, 2, samples=1).samples == 1


def test_fsm_distance_block_parity_counter():
    fsm = block_parity_counter(8, 8)
    res = fsm_distance(fsm, 8, 16, samples=30000, seed=5)
    assert not res.exact
    assert res.l1 <= 0.05
    assert abs(res.true_dist.sum() - 1) < 1e-12
    assert abs(res.prg_dist.sum() - 1) < 1e-9


def test_fsm_distance_matches_scalar_generator():
    # the batched chain over all seeds must give the histogram of final
    # states that the scalar generator gives seed by seed
    rng = random.Random(11)
    for bits, count, samples in ((2, 4, 0), (1, 8, 0), (4, 2, 0), (8, 16, 1500), (16, 4, 40)):
        n_states = 5
        table = tuple(
            tuple(rng.randrange(n_states) for _ in range(1 << bits))
            for _ in range(n_states)
        )
        fsm = FSMSpec(n_states, bits, 1, table)
        res = fsm_distance(fsm, bits, count, samples=samples, seed=3)
        seed_bits = NisanGenerator(bits, count, 0).seed_bits
        if res.exact:
            seeds = range(1 << seed_bits)
        else:
            draw = derived_rng(3, "fsm-distance")
            seeds = [draw.getrandbits(seed_bits) for _ in range(samples)]
        finals = []
        for seed in seeds:
            gen = NisanGenerator(bits, count, seed)
            finals.append(fsm.run([gen.block(i) for i in range(count)]))
        assert res.exact == (samples == 0)
        assert res.samples == len(finals)
        want = np.bincount(finals, minlength=n_states) / len(finals)
        assert np.array_equal(res.prg_dist, want)


@pytest.mark.parametrize("count", [1, 2, 16, 1024])
@pytest.mark.parametrize("bits", [1, 2, 4, 8, 16, 20])
def test_in_order_blocks_equal_tree_expansion_and_random_access(bits, count):
    # the in-order walk gives, per seed, the oracle's full expansion and the
    # random-access block of every index, on int words and on int64 arrays
    # of words (one seed per entry)
    gen = NisanGenerator(bits, count, 0)
    field, n_words = gen.field, 2 * gen.depth + 1
    rng = random.Random(bits * count)
    seeds = [rng.getrandbits(gen.seed_bits) for _ in range(16)]
    per_seed = [prg._seed_words(seed, bits, n_words) for seed in seeds]
    for seed, words in zip(seeds[:3], per_seed):
        walk = list(prg._tree_blocks_in_order(field, words))
        assert walk == _expand_seed(seed, bits, gen.depth, field.mul)
        assert walk == [prg._tree_block(field, words, i) for i in range(count)]
        one_seed = np.asarray(words, dtype=np.int64)
        assert walk == prg._tree_block(field, one_seed, np.arange(count)).tolist()
    columns = [np.asarray(col, dtype=np.int64) for col in zip(*per_seed)]
    walk = list(prg._tree_blocks_in_order(field, columns))
    assert len(walk) == count
    for i, blocks in enumerate(walk):
        assert blocks.dtype == np.int64
        assert np.array_equal(blocks, prg._tree_block(field, columns, i))


@pytest.mark.parametrize("bits, count, samples, limit", [
    (2, 4, 0, 1 << 24), (1, 8, 0, 1 << 24), (8, 1, 0, 1 << 24), (4, 2, 0, 1 << 24),
    (8, 16, 3000, 1 << 24), (16, 4, 500, 1 << 24), (3, 8, 400, 1), (4, 1024, 300, 1 << 24),
    (1, 1024, 500, 1),
])
def test_fsm_distance_equals_per_block_loop(bits, count, samples, limit):
    rng = random.Random(bits * 1000 + count)
    n_states = 6
    table = tuple(tuple(rng.randrange(n_states) for _ in range(1 << bits)) for _ in range(n_states))
    fsm = FSMSpec(n_states, bits, 2, table)
    res = fsm_distance(fsm, bits, count, samples=samples, seed=4, exact_seed_limit=limit)
    want, exact = fsm_prg_dist_per_block(fsm, bits, count, samples, 4, limit)
    assert res.exact == exact == (samples == 0)
    assert res.samples == (1 << NisanGenerator(bits, count, 0).seed_bits if exact else samples)
    assert np.array_equal(res.prg_dist, want)
    assert res.l1 == float(np.sum(np.abs(res.true_dist - want)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from([(1, 4), (2, 8), (4, 16), (8, 4), (8, 8), (8, 16), (16, 4)]),
       st.integers(0, 2**32 - 1))
def test_fsm_distance_truth_matches_fraction_oracle(n_states, shape, seed):
    # b*k from 4 to 128: the int64 counts and the Python-int counts past 62 bits
    bits, count = shape
    rng = random.Random(seed)
    table = tuple(tuple(rng.randrange(n_states) for _ in range(1 << bits)) for _ in range(n_states))
    initial = rng.randrange(n_states)
    res = fsm_distance(FSMSpec(n_states, bits, initial, table), bits, count, samples=50, seed=1)
    assert res.true_dist.tolist() == fsm_true_distribution(table, initial, bits, count)


def test_row_template_layout_and_regeneration():
    t = RowTemplate(n=16, s=4, p=3, block_bits=8, seed=0x123456789)
    assert t.blocks_per_row == 1
    rows = [t.row(i) for i in range(16)]
    assert rows == [t.row(i) for i in range(16)]  # regeneration consistent
    assert all(all(0 <= v < 3 for v in row) for row in rows)
    assert RowTemplate.required_seed_bits(16, 4, 3, 8) == t.seed_bits
    with pytest.raises(IndexError):
        t.row(16)


def test_derandomized_apply_empty_stream():
    t = RowTemplate(n=8, s=4, p=2, block_bits=8, seed=0xFEED)
    assert np.array_equal(derandomized_apply(t, []), np.zeros(4, dtype=np.int64))


def test_derandomized_apply_matches_explicit_matrix():
    rng = random.Random(2)
    t = RowTemplate(
        n=64, s=8, p=2, block_bits=8,
        seed=rng.getrandbits(RowTemplate.required_seed_bits(64, 8, 2, 8)),
    )
    updates = [(rng.randrange(64), 1) for _ in range(640)]
    state = derandomized_apply(t, updates)
    x = np.asarray(accumulate_stream(64, 2, updates))
    matrix = t.materialize()
    assert np.array_equal((matrix.T @ x) % 2, state)


def test_derandomized_apply_order_invariance_and_sorted_order():
    rng = random.Random(3)
    t = RowTemplate(
        n=32, s=6, p=5, block_bits=8,
        seed=rng.getrandbits(RowTemplate.required_seed_bits(32, 6, 5, 8)),
    )
    updates = [(rng.randrange(32), rng.randrange(-4, 5)) for _ in range(200)]
    base = derandomized_apply(t, updates)
    for _ in range(25):
        perm = updates[:]
        rng.shuffle(perm)
        assert np.array_equal(base, derandomized_apply(t, perm))
    by_coord = sorted(updates, key=lambda u: u[0])
    assert np.array_equal(base, derandomized_apply(t, by_coord))


def test_derandomized_apply_coordinate_out_of_range():
    t = RowTemplate(n=4, s=2, p=2, block_bits=8, seed=0x1)
    with pytest.raises(IndexError):
        derandomized_apply(t, [(4, 1)])


# ------------------------------------------------------ batched stream path
# derandomized_apply sums each chunk of updates by coordinate and regenerates
# the distinct rows at once; it must agree with the per-update oracle at every
# field width, modulus and chunk size.

_WIDTHS = (1, 4, 8, 16, 32, 64)
_MODULI = (2, 3, 5, 7, 2**31 - 1)


def test_gf2_array_mul_is_exact_at_wide_fields():
    # 32, 48 and 64 bits: arrays hold two's-complement bit patterns
    rng = random.Random(9)
    for bits in (32, 48, 64):
        field = Gf2Field(bits)
        xs = [rng.getrandbits(bits) for _ in range(100)] + [0, 1, (1 << bits) - 1]
        ys = [rng.getrandbits(bits) for _ in range(100)] + [(1 << bits) - 1, 0, 1]
        arr = field.mul(np.asarray(xs, dtype=np.uint64).view(np.int64),
                        np.asarray(ys, dtype=np.uint64).view(np.int64))
        assert arr.dtype == np.int64
        assert arr.view(np.uint64).tolist() == [field.mul(x, y) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("block_bits", _WIDTHS)
@pytest.mark.parametrize("p", _MODULI)
def test_batched_rows_equal_scalar_rows(p, block_bits):
    n, s = 9, 3
    rng = random.Random(p * 131 + block_bits)
    t = RowTemplate(n, s, p, block_bits, rng.getrandbits(RowTemplate.required_seed_bits(n, s, p, block_bits)))
    coords = np.arange(n, dtype=np.int64)
    assert prg._template_rows(t, coords).tolist() == [list(t.row(i)) for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_derandomized_apply_matches_per_update_oracle(data):
    p = data.draw(st.sampled_from(_MODULI))
    b = data.draw(st.sampled_from(_WIDTHS))
    n, s = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    t = RowTemplate(n, s, p, b, data.draw(st.integers(0, (1 << RowTemplate.required_seed_bits(n, s, p, b)) - 1)))
    incs = st.one_of(st.integers(-3 * p, 3 * p), st.integers(-(2**63), 2**63 - 1))
    updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1), incs), max_size=40))
    chunk = data.draw(st.integers(1, 8))  # several chunks flush per stream
    with mock.patch.object(prg, "STREAM_CHUNK", chunk):
        state = derandomized_apply(t, updates)
    assert state.dtype == np.int64
    assert state.tolist() == derandomized_apply_per_update(t, updates)


def test_derandomized_apply_stream_longer_than_a_chunk():
    rng = np.random.default_rng(4)
    t = RowTemplate(64, 8, 5, 8, int(rng.integers(0, 2**62)))
    length = prg.STREAM_CHUNK + 4321
    updates = list(zip(rng.integers(0, 64, length).tolist(), rng.integers(-20, 21, length).tolist()))
    x = np.asarray(accumulate_stream(64, 5, updates))
    assert np.array_equal(derandomized_apply(t, updates), t.materialize().T @ x % 5)


_INT64_MAX = 2**63 - 1


@st.composite
def _totals_case(draw):
    """(updates, n, moduli) on one side of n <= len(updates): increments
    small, at the int64 bounds or anywhere in int64, sometimes followed by
    their negations so the run cancels to nothing, and moduli small or just
    below, at or above the Python-int cut INT64_MAX // len."""
    dense = draw(st.booleans())
    incs = st.one_of(st.integers(-20, 20), st.sampled_from([-(2**63), -(2**63) + 1, 2**62, _INT64_MAX]),
                     st.integers(-(2**63), _INT64_MAX))
    updates = draw(st.lists(st.tuples(st.integers(0, 2**40 - 1), incs), min_size=1, max_size=24))
    if draw(st.booleans()):  # the run cancels to nothing
        updates = [(c, max(i, -_INT64_MAX)) for c, i in updates]
        updates = draw(st.permutations(updates + [(c, -i) for c, i in updates]))
    size = len(updates)
    if dense:
        n = draw(st.integers(1, size))
    else:
        n = draw(st.sampled_from([size + 1, size + 7, 2**40]))
    updates = [(c % n, i) for c, i in updates]
    cut = _INT64_MAX // size
    modulus = st.sampled_from(sorted({2, 3, 7, cut - 1, cut, min(cut + 1, _INT64_MAX), _INT64_MAX}))
    if n <= 64 and draw(st.booleans()):
        return updates, n, draw(st.lists(modulus, min_size=n, max_size=n))
    return updates, n, draw(modulus)


@settings(max_examples=300, deadline=None)
@given(_totals_case())
def test_coordinate_totals_match_python_int_oracle(case):
    # a dense sum when n <= len(updates), sorted runs past it; each exact
    # with raw, pre-reduced or Python-int sums
    updates, n, moduli = case
    flat = [v for update in updates for v in update]
    arg = np.asarray(moduli, dtype=np.int64) if isinstance(moduli, list) else moduli
    coords, totals = prg._coordinate_totals(flat, n, arg)
    assert coords.dtype == totals.dtype == np.int64
    assert (coords.tolist(), totals.tolist()) == coordinate_totals(updates, moduli)


def _peak_bytes(fn) -> int:
    """Peak bytes traced while fn runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_short_runs_at_huge_n_allocate_for_the_run_not_for_n():
    n = 2**40  # an array of n int64 would be 8 TiB
    updates = [(n - 1, 5), (7, -3), (n - 1, 1)]
    flat = [v for update in updates for v in update]
    assert _peak_bytes(lambda: prg._coordinate_totals(flat, n, 5)) < 64 << 10
    coords, totals = prg._coordinate_totals(flat, n, 5)
    assert (coords.tolist(), totals.tolist()) == ([7, n - 1], [2, 1])
    rng = random.Random(40)
    t = RowTemplate(n, 4, 5, 8, rng.getrandbits(RowTemplate.required_seed_bits(n, 4, 5, 8)))
    assert _peak_bytes(lambda: derandomized_apply(t, updates)) < 64 << 10
    assert derandomized_apply(t, updates).tolist() == derandomized_apply_per_update(t, updates)


@pytest.mark.parametrize("n", [7, 2**40])  # dense sums and sorted runs
@pytest.mark.parametrize("chunk", [2**10, 2**13])
def test_stream_memory_is_proportional_to_the_chunk(n, chunk):
    # three chunks of a lazily made stream: the peak follows the chunk, not
    # the stream length or n
    rng = random.Random(chunk)
    flat = [v for _ in range(chunk) for v in (rng.randrange(n), rng.randrange(-9, 10))]
    assert _peak_bytes(lambda: prg._coordinate_totals(flat, n, 5)) < 128 * chunk + (16 << 10)
    t = RowTemplate(n, 4, 5, 8, rng.getrandbits(RowTemplate.required_seed_bits(n, 4, 5, 8)))
    stream = ((rng.randrange(n), rng.randrange(-9, 10)) for _ in range(3 * chunk))
    with mock.patch.object(prg, "STREAM_CHUNK", chunk):
        assert _peak_bytes(lambda: derandomized_apply(t, stream)) < 512 * chunk + (64 << 10)


def test_stream_path_never_regenerates_rows_one_by_one(monkeypatch):
    rng = random.Random(8)
    t = RowTemplate(40, 6, 7, 8, rng.getrandbits(RowTemplate.required_seed_bits(40, 6, 7, 8)))
    updates = [(rng.randrange(40), rng.randrange(-50, 50)) for _ in range(500)]
    want = derandomized_apply_per_update(t, updates)

    def forbidden(*args):
        raise AssertionError("the stream path called a scalar row generator")

    for owner, attr in ((RowTemplate, "materialize"), (RowTemplate, "row"), (NisanGenerator, "block")):
        monkeypatch.setattr(owner, attr, forbidden)
    assert derandomized_apply(t, updates).tolist() == want


def test_derandomized_apply_rejects_increments_outside_int64():
    t = RowTemplate(n=4, s=2, p=3, block_bits=8, seed=0xA5F3C1)  # rows (1,0) (0,2) (0,0) (1,1)
    for inc in (2**63, -(2**63) - 1, 10**30):
        with pytest.raises(ValueError, match=f"increment {inc} does not fit int64"):
            derandomized_apply(t, [(0, 1), (1, inc)])
    with pytest.raises(IndexError):
        derandomized_apply(t, [(2**64, 1)])
    for updates in ([(1, 2**63 - 1), (1, -(2**63))], [(1, 2**63 - 1)] * 3, [(3, -(2**63))] * 5):
        assert derandomized_apply(t, updates).tolist() == derandomized_apply_per_update(t, updates)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_derandomized_apply_is_exact_at_large_moduli(p):
    # products of totals and coefficients near p^2, summed over 48
    # coordinates, and (at 2^61 - 1) per-coordinate sums past int64
    rng = random.Random(p)
    t = RowTemplate(48, 4, p, 16, rng.getrandbits(RowTemplate.required_seed_bits(48, 4, p, 16)))
    updates = [(i, p - 1 - k) for i in range(48) for k in range(6)] + [(0, p - 1)] * 64
    assert derandomized_apply(t, updates).tolist() == derandomized_apply_per_update(t, updates)


def _fold_by_python_ints(state, totals, rows, moduli) -> list[int]:
    return [(v + sum(t * row[j] for t, row in zip(totals, rows))) % m
            for j, (v, m) in enumerate(zip(state, moduli))]


@pytest.mark.parametrize("moduli", [
    3,
    1_600_000_000,  # 3 rows per int64-safe group
    3_037_000_499,  # 1 row per group: (p - 1)^2 just below 2^63
    2**61 - 1,  # one product may overflow: Python ints
    [3, 5, 2**31 - 1, 7],
    [2, 3_037_000_499, 5],
    [2**61 - 1, 3],
])
def test_fold_matches_python_ints(moduli):
    # totals and entries at the top of their range, with row counts just
    # below, at and past the group size and past two groups
    top = max(moduli) if isinstance(moduli, list) else moduli
    k = len(moduli) if isinstance(moduli, list) else 4
    arg = np.asarray(moduli, dtype=np.int64) if isinstance(moduli, list) else moduli
    per_group = prg._fold_group(arg)
    assert per_group == max((2**63 - 1 - top) // (top - 1) ** 2, 0)
    rng = random.Random(top)
    column_moduli = moduli if isinstance(moduli, list) else [moduli] * k
    for count in sorted({0, 1, 2, 3, 4, 7, per_group - 1, per_group, per_group + 1, 2 * per_group + 1} & set(range(9))):
        state = [rng.randrange(m) for m in column_moduli]
        totals = [top - 1 - rng.randrange(2) for _ in range(count)]
        rows = [[top - 1 - rng.randrange(2) for _ in range(k)] for _ in range(count)]
        got = prg._fold(np.asarray(state, dtype=np.int64), np.asarray(totals, dtype=np.int64),
                        np.asarray(rows, dtype=np.int64).reshape(count, k), arg, per_group)
        assert got.dtype == np.int64
        assert got.tolist() == _fold_by_python_ints(state, totals, rows, column_moduli)


# ------------------------------------------------- coefficient distribution

def _expand_seed(seed: int, bits: int, depth: int, mul) -> list[int]:
    """Every block of a seed, by the oracle's full tree expansion."""
    mask = (1 << bits) - 1
    words = [(seed >> (bits * k)) & mask for k in range(2 * depth + 1)]
    return prg_expand_tree(words[0], list(zip(words[1::2], words[2::2])), mul)


@pytest.mark.parametrize("n, s, p, block_bits", [(2, 2, 5, 2), (2, 3, 3, 2), (2, 2, 7, 2), (3, 1, 3, 1)])
def test_row_coefficients_follow_the_documented_law(n, s, p, block_bits):
    # every seed: coefficient j of row i is bits [j*w, (j+1)*w) of the row's
    # blocks in the full tree expansion, mod p; over all seeds each occurs
    # with probability #{v < 2^w : v mod p = c} / 2^w
    seed_bits = RowTemplate.required_seed_bits(n, s, p, block_bits)
    mul = Gf2Field(block_bits).mul
    w = max((p - 1).bit_length(), 1)
    counts = np.zeros((n, s, p), dtype=np.int64)
    for seed in range(1 << seed_bits):
        t = RowTemplate(n, s, p, block_bits, seed)
        blocks = _expand_seed(seed, block_bits, t.generator.depth, mul)
        for i in range(n):
            bpr = t.blocks_per_row
            acc = sum(blk << (off * block_bits) for off, blk in enumerate(blocks[i * bpr:(i + 1) * bpr]))
            row = t.row(i)
            assert row == tuple(((acc >> (j * w)) & ((1 << w) - 1)) % p for j in range(s))
            counts[i, np.arange(s), row] += 1
    law = np.bincount(np.arange(1 << w) % p, minlength=p)  # out of 2^w
    assert np.array_equal(counts, np.broadcast_to(law << (seed_bits - w), counts.shape))


# ------------------------------------------------------------ size checks

def test_check_fsm_size_bounds_before_any_table():
    check_fsm_size(8, 8, 16)
    check_fsm_size(1024, 10, 16)  # 2^20 entries: at the cap
    for args, message in (((1100, 12, 16), "instance too large"), ((8, 8, 1 << 12), "instance too large"),
                          ((1024, 16, 16), "transition table of 1024 x 2^16"), ((2, 17, 4), "field size 2^17")):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_fsm_size(*args)
    with pytest.raises(ValueError, match="transition table"):
        fsm_distance(FSMSpec(1024, 16, 0, ()), 16, 16)


def test_block_parity_counter_table():
    for n_states, bits in ((1, 1), (3, 4), (8, 8)):
        fsm = block_parity_counter(n_states, bits)
        assert fsm.table == tuple(
            tuple((s + bin(blk).count("1") % 2) % n_states for blk in range(1 << bits))
            for s in range(n_states)
        )
        assert all(type(v) is int for v in fsm.table[-1])


def test_fsm_distance_sampled_seed_words_straddle_bytes():
    # 3-, 5- and 12-bit words cut from little-endian seed bytes must be the
    # seed's words: compare with the full tree expansion seed by seed
    for bits, count in ((3, 8), (5, 4), (12, 2)):
        fsm = block_parity_counter(3, bits)
        res = fsm_distance(fsm, bits, count, samples=400, seed=7, exact_seed_limit=1)
        depth, mul = count.bit_length() - 1, Gf2Field(bits).mul
        draw = derived_rng(7, "fsm-distance")
        finals = [fsm.run(_expand_seed(draw.getrandbits(bits * (2 * depth + 1)), bits, depth, mul))
                  for _ in range(400)]
        assert not res.exact and res.samples == 400
        assert np.array_equal(res.prg_dist, np.bincount(finals, minlength=3) / 400)


@pytest.mark.parametrize("seed_bits", [1, 8, 31, 32, 33, 40, 64, 72, 96, 100, 200])
def test_one_draw_seeds_equal_per_sample_draws(seed_bits):
    # one getrandbits call for many seeds must give the bytes of one call per
    # seed, and leave the rng where the per-seed calls leave it
    for samples in (0, 1, 7, 1000):
        rng, draw = random.Random(seed_bits), random.Random(seed_bits)
        got = prg._sampled_seed_bytes(rng, seed_bits, samples)
        assert got.dtype == np.uint8
        assert np.array_equal(got, seed_bytes_per_sample(draw, seed_bits, samples))
        assert rng.getrandbits(64) == draw.getrandbits(64)


@pytest.mark.parametrize("seed_bits", [8, 33, 72])
def test_one_draw_seeds_continue_across_draws(seed_bits):
    samples = prg._SEED_DRAW + 5
    got = prg._sampled_seed_bytes(random.Random(seed_bits), seed_bits, samples)
    assert np.array_equal(got, seed_bytes_per_sample(random.Random(seed_bits), seed_bits, samples))


def test_derandomized_apply_rejects_malformed_updates():
    t = RowTemplate(4, 2, 3, 8, 0)
    for updates in ([(0, 1, 1), (1,)], [(0, 1), (1, 1, 1)], [(0,)], [5], [(0, 1), None]):
        with pytest.raises(ValueError, match="every update must be a \\(coordinate, increment\\) pair"):
            derandomized_apply(t, updates)


def test_derandomized_apply_rejects_non_integer_updates():
    t = RowTemplate(4, 2, 3, 8, 0)
    for update, name in (((0, 1.5), "increment 1.5"), ((1.9, 1), "coordinate 1.9"), (("2", 1), "coordinate '2'")):
        with pytest.raises(TypeError, match=f"{name} is not an integer"):
            derandomized_apply(t, [(0, 1), update])
    updates = [(0, 1), (1, 2), (3, 1)]
    assert derandomized_apply(t, [(np.int64(c), np.int8(i)) for c, i in updates]).tolist() == \
        derandomized_apply_per_update(t, updates)
