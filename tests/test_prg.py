"""Nisan generator, FSM fooling, and derandomized sketch execution."""

import random

import numpy as np
import pytest

from modsketch.prg import (
    FSMSpec,
    Gf2Field,
    NisanGenerator,
    RowTemplate,
    block_parity_counter,
    derandomized_apply,
    fsm_distance,
)
from modsketch.seeding import derived_rng

from oracles import accumulate_stream, prg_expand_tree


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


def test_gf2_vectorized_matches_scalar():
    # 1 bit is a plain AND, 8 and 16 use log tables, 20 the shift-multiply
    rng = np.random.default_rng(0)
    for bits in (1, 8, 16, 20):
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
    for bits, count, samples in ((2, 4, 0), (1, 8, 0), (4, 2, 0), (8, 16, 1500)):
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
