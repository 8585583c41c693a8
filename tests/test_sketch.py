"""Sketch evaluation, streaming maintenance, quality measures, serialization."""

import math
import random
from fractions import Fraction
from unittest import mock

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch import prg
from modsketch.algebra import GroupSpec, SubgroupEnum, subgroup_generated
from modsketch.fourier import DenseFunction
from modsketch.sketch import (
    Distribution,
    HInvariantSketch,
    LinearJuntaF2,
    RandomizedSketch,
    SketchState,
    ZpJunta,
    apply_stream,
    approx_error,
    deserialize_sketch,
    eval_sketch,
    serialize_sketch,
    success_probability,
)

from oracles import accumulate_stream, read_at, step_stream


def parity_junta(n: int) -> LinearJuntaF2:
    return LinearJuntaF2(n, ((1 << n) - 1,), (0, 1))


def random_junta(rng: random.Random, n: int, k: int) -> LinearJuntaF2:
    rows = tuple(rng.getrandbits(n) for _ in range(k))
    post = tuple(rng.getrandbits(1) for _ in range(1 << k))
    return LinearJuntaF2(n, rows, post)


def test_constant_sketch():
    sk = LinearJuntaF2(4, (), (1,))
    assert all(eval_sketch(sk, x) == 1 for x in range(16))
    assert sk.cost == 0


def test_parity_junta_eval():
    sk = parity_junta(5)
    for x in range(32):
        assert eval_sketch(sk, x) == x.bit_count() % 2


def test_random_junta_matches_direct_recomputation():
    rng = random.Random(0)
    for _ in range(20):
        sk = random_junta(rng, 10, rng.randrange(1, 5))
        x = rng.getrandbits(10)
        z = 0
        for j, row in enumerate(sk.rows):
            z |= ((row & x).bit_count() & 1) << j
        assert eval_sketch(sk, x) == sk.post[z]


def test_junta_well_definedness_exhaustive():
    rng = random.Random(1)
    sk = random_junta(rng, 8, 3)
    buckets = {}
    for x in range(256):
        z = sk.sketch_value(x)
        buckets.setdefault(z, set()).add(eval_sketch(sk, x))
    assert all(len(v) == 1 for v in buckets.values())


def test_zp_junta_eval_and_smp_value():
    sk = ZpJunta(4, 3, ((1, 1, 1, 1),), (1, 0, 0))
    spec = sk.group
    for x in range(spec.size):
        coords = spec.decode(x)
        assert sk.eval(coords) == (1 if sum(coords) % 3 == 0 else 0)


def test_h_invariant_reproduces_f2_junta():
    # H = kernel of the rows; cosets carry exactly the junta buckets
    rng = random.Random(2)
    n, k = 6, 2
    sk = random_junta(rng, n, k)
    spec = GroupSpec.boolean(n)
    kernel = [
        x
        for x in range(spec.size)
        if all((row & x).bit_count() % 2 == 0 for row in sk.rows)
    ]
    sub = subgroup_generated(spec, kernel)
    assert len(sub) == len(kernel)
    # linear complexity of a k-junta is (at most) 2^k
    assert sub.n_cosets <= 1 << k
    ids = sub.coset_ids()
    post = [None] * sub.n_cosets
    for x in range(spec.size):
        post[ids[x]] = sk.eval(x)
    hsk = HInvariantSketch(sub, tuple(post))
    for x in range(spec.size):
        assert hsk.eval(x) == sk.eval(x)


def test_apply_stream_xor_cancellation():
    sk = parity_junta(6)
    state = apply_stream(sk, [(3, 1), (3, 1)])
    assert state.values() == 0
    assert state.output() == 0
    assert state.updates == 2


def test_apply_stream_mod_p_identity():
    sk = ZpJunta(3, 5, ((1, 2, 3), (0, 1, 4)), tuple(range(25)))
    state = apply_stream(sk, [(1, 1)] * 5)
    assert state.values() == (0, 0)


def test_apply_stream_matches_offline_accumulation():
    rng = random.Random(3)
    n = 10
    sk = random_junta(rng, n, 4)
    updates = [(rng.randrange(n), 1) for _ in range(10 * n)]
    state = apply_stream(sk, updates)
    x_coords = accumulate_stream(n, 2, updates)
    x = sum(b << i for i, b in enumerate(x_coords))
    assert state.values() == sk.sketch_value(x)
    assert state.output() == eval_sketch(sk, x)
    # permutation invariance
    for _ in range(5):
        perm = updates[:]
        rng.shuffle(perm)
        assert apply_stream(sk, perm).values() == state.values()


def test_apply_stream_zp_matches_offline():
    rng = random.Random(4)
    n, p = 6, 3
    rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
    sk = ZpJunta(n, p, rows, tuple(range(p**2)))
    updates = [(rng.randrange(n), rng.randrange(-4, 5)) for _ in range(50)]
    state = apply_stream(sk, updates)
    x = accumulate_stream(n, p, updates)
    expected = tuple(sum(r * c for r, c in zip(row, x)) % p for row in rows)
    assert state.values() == expected


def test_apply_stream_group_action_composition():
    rng = random.Random(5)
    sk = random_junta(rng, 8, 3)
    u1 = [(rng.randrange(8), 1) for _ in range(20)]
    u2 = [(rng.randrange(8), 1) for _ in range(20)]
    both = apply_stream(sk, u1 + u2)
    staged = apply_stream(sk, u1)
    for c, i in u2:
        staged.apply(c, i)
    assert both.values() == staged.values()


def test_apply_stream_h_invariant():
    rng = random.Random(6)
    cases = (
        ((3, 3, 3, 3), [(1, 2, 0, 0), (0, 1, 2, 0), (0, 0, 1, 2)]),
        ((4, 6, 2), [(2, 3, 0), (0, 2, 1)]),  # mixed moduli
        ((3,) * 7, [(1, 0, 2, 0, 1, 0, 0), (0, 1, 1, 2, 0, 0, 1)]),  # 243 cosets
    )
    for moduli, gens in cases:
        spec = GroupSpec(moduli)
        sub = subgroup_generated(spec, [spec.encode(g) for g in gens])
        ids = sub.coset_ids()
        sk = HInvariantSketch(sub, tuple(range(sub.n_cosets)))
        n, lcm = spec.n, math.lcm(*moduli)
        updates = [(rng.randrange(n), rng.randrange(-lcm, lcm + 1)) for _ in range(60)]
        state = SketchState(sk)
        for i, (coord, inc) in enumerate(updates):
            state.apply(coord, inc)
            x = spec.encode(tuple(accumulate_stream(n, lcm, updates[: i + 1])))
            assert state.values() == ids[x]
            assert state.output() == sk.eval(x)
        assert apply_stream(sk, updates).values() == state.values()
    assert sub.n_cosets == 243


def test_apply_stream_coordinate_range_error():
    sk = parity_junta(4)
    with pytest.raises(IndexError):
        apply_stream(sk, [(4, 1)])


def test_apply_stream_rejects_malformed_updates():
    for sk in (parity_junta(4), ZpJunta(2, 3, ((1, 2),), (0, 1, 1))):
        for inc in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"increment {inc} does not fit int64"):
                apply_stream(sk, [(0, 1), (1, inc)])
        with pytest.raises(IndexError):
            apply_stream(sk, [(-(2**70), 1)])
        with pytest.raises(ValueError, match="pair"):
            apply_stream(sk, [(0, 1, 1), (1, 1)])
        with pytest.raises(ValueError, match="pair"):  # lengths 3 and 1 flatten to two pairs' worth
            apply_stream(sk, [(0, 1, 1), (1,)])
        for updates in ([5], [(0, 1), None]):  # updates with no length
            with pytest.raises(ValueError, match="every update must be a \\(coordinate, increment\\) pair"):
                apply_stream(sk, updates)


def test_f2_image_matches_bit_definition_beyond_64_bits():
    rng = random.Random(200)
    rows = tuple(rng.getrandbits(200) for _ in range(12)) + ((1 << 199) | 1, 0)
    gamma, moduli, _ = LinearJuntaF2(200, rows, (0,) * (1 << 14)).image()
    assert moduli == 2 and gamma.dtype == np.int64 and gamma.shape == (200, 14)
    assert gamma.tolist() == [[row >> i & 1 for row in rows] for i in range(200)]
    empty, _, _ = LinearJuntaF2(5, (), (1,)).image()
    assert empty.shape == (5, 0)


def test_non_integer_updates_raise_type_error():
    sk = ZpJunta(2, 3, ((1, 2),), (0, 1, 1))
    for update, name in (((0, 1.5), "increment 1.5"), ((1.9, 1), "coordinate 1.9"),
                         (("2", 1), "coordinate '2'"), ((0, "2"), "increment '2'")):
        with pytest.raises(TypeError, match=f"{name} is not an integer"):
            apply_stream(sk, [(0, 1), update])
    state = SketchState(sk)
    state.apply(0, 1.5)
    with pytest.raises(TypeError, match="increment 1.5 is not an integer"):
        state.values()
    # bools and numpy integers are integers
    want = apply_stream(sk, [(0, 1), (1, 2), (1, 1)])
    got = apply_stream(sk, [(False, True), (np.int8(1), np.uint64(2)), (np.int64(1), 1)])
    assert (got.values(), got.output(), got.updates) == (want.values(), want.output(), 3)


@pytest.mark.parametrize("bad", [(0, 2**63), (0, -(2**63) - 1), (0, 1.5), (1, "1")])
def test_failed_flush_applies_none_of_its_queue(bad):
    # a read flushes the queue; a bad value in it raises there, applies none
    # of the queued updates and empties the queue
    for sk in (parity_junta(4), ZpJunta(2, 3, ((1, 2),), (0, 1, 1)),
               HInvariantSketch(subgroup_generated(GroupSpec((4, 6)), [2 + 4 * 3]), tuple(range(12)))):
        state = SketchState(sk)
        state.apply(0, 1)
        state.apply(1, 3)
        before = (state.values(), state.output())
        for coord, inc in ((0, 1), (1, 1), bad, (1, 2)):
            state.apply(coord, inc)
        assert state.updates == 6
        with pytest.raises(ValueError if isinstance(bad[1], int) else TypeError, match=repr(bad[1])):
            state.values()
        assert state.updates == 2
        assert (state.values(), state.output()) == before
        state.apply(0, 1)
        assert (state.values(), state.output(), state.updates) == (*step_stream(sk, [(0, 1), (1, 3), (0, 1)]), 3)


def test_full_queue_flushes_at_the_apply_that_fills_it():
    sk = ZpJunta(2, 3, ((1, 2),), (0, 1, 1))
    with mock.patch.object(prg, "STREAM_CHUNK", 3):
        state = SketchState(sk)
    state.apply(0, 1)
    state.apply(1, 2**63)
    with pytest.raises(ValueError, match="increment 9223372036854775808 does not fit int64"):
        state.apply(1, 1)
    assert state.updates == 0 and state.values() == (0,)
    for _ in range(4):
        state.apply(0, 1)
    assert state.updates == 4 and state.values() == (1,)


def test_apply_checks_the_coordinate_at_the_call():
    state = SketchState(parity_junta(4))
    for coord in (4, -1):
        with pytest.raises(IndexError, match=f"coordinate {coord} out of range"):
            state.apply(coord, 1)
    with pytest.raises(TypeError, match="coordinate '2' is not an integer"):
        state.apply("2", 1)
    assert state.updates == 0


def test_flushes_on_both_sides_of_the_dense_totals_cut_match_stepping():
    # n = 6 with chunks of 8: full flushes sum into a dense array, reads
    # after fewer than 6 queued updates sort them
    rng = random.Random(19)
    sk = ZpJunta(6, 7, tuple(tuple(rng.randrange(7) for _ in range(6)) for _ in range(2)),
                 tuple(rng.randrange(2) for _ in range(49)))
    updates = [(rng.randrange(6), rng.choice([rng.randrange(-30, 31), 2**63 - 1, -(2**63)])) for _ in range(60)]
    dense = []
    totals = prg._coordinate_totals

    def spy(flat, n, moduli):
        dense.append(n <= len(flat) // 2)
        return totals(flat, n, moduli)

    with mock.patch.object(prg, "STREAM_CHUNK", 8), mock.patch.object(prg, "_coordinate_totals", spy):
        state = SketchState(sk)
        for at, update in enumerate(updates, 1):
            state.apply(*update)
            if at % 11 in (0, 3):
                assert (state.values(), state.output()) == step_stream(sk, updates[:at])
        assert (state.values(), state.output()) == step_stream(sk, updates)
        for prefix in (13, 60):  # one full chunk and a short tail, or seven and a tail
            assert apply_stream(sk, updates[:prefix]).values() == step_stream(sk, updates[:prefix])[0]
    assert True in dense and False in dense


def test_apply_stream_longer_than_a_chunk_matches_per_update_apply():
    rng = np.random.default_rng(12)
    n, p = 16, 5
    sk = ZpJunta(n, p, tuple(tuple(r) for r in rng.integers(0, p, (3, n)).tolist()),
                 tuple(rng.integers(0, 2, p**3).tolist()))
    length = prg.STREAM_CHUNK + 999
    updates = list(zip(rng.integers(0, n, length).tolist(), rng.integers(-9, 10, length).tolist()))
    state = apply_stream(sk, updates)
    assert (state.values(), state.output(), state.updates) == (*step_stream(sk, updates), length)


def test_success_probability_perfect_parity():
    n = 5
    sk = parity_junta(n)
    spec = GroupSpec.boolean(n)
    f = DenseFunction(spec, np.array([x.bit_count() % 2 for x in range(32)], dtype=float))
    per_x = success_probability(sk, f)
    assert per_x == [Fraction(1)] * 32


def test_success_probability_fair_coin_half():
    n = 4
    spec = GroupSpec.boolean(n)
    f = DenseFunction(spec, np.array([x & 1 for x in range(16)], dtype=float))
    coin = RandomizedSketch(
        [
            (Fraction(1, 2), LinearJuntaF2(n, (), (0,))),
            (Fraction(1, 2), LinearJuntaF2(n, (), (1,))),
        ]
    )
    per_x = success_probability(coin, f)
    assert per_x == [Fraction(1, 2)] * 16
    # correct/incorrect fractions partition the whole support
    err = success_probability(coin, DenseFunction(spec, 1.0 - f.values))
    assert all(a + b == 1 for a, b in zip(per_x, err))


def test_success_probability_montecarlo_near_exact():
    rng = random.Random(7)
    n = 6
    spec = GroupSpec.boolean(n)
    f = DenseFunction(spec, np.array([rng.getrandbits(1) for _ in range(64)], dtype=float))
    entries = [
        (Fraction(1, 4), random_junta(rng, n, 2)),
        (Fraction(3, 4), random_junta(rng, n, 2)),
    ]
    rsk = RandomizedSketch(entries)
    exact = np.array([float(p) for p in success_probability(rsk, f)])
    est, stderr = success_probability(rsk, f, mode="montecarlo", samples=4000, seed=1)
    assert np.all(np.abs(est - exact) <= 3 * np.maximum(stderr, 1e-3))


def test_approx_error_cases():
    n = 5
    spec = GroupSpec.boolean(n)
    rng = random.Random(8)
    vals = np.array([rng.random() for _ in range(32)])
    f = DenseFunction(spec, vals)
    # g = f exactly: zero error (dense post over all of F2^n)
    rows = tuple(1 << i for i in range(n))
    reorder = [0] * 32
    for x in range(32):
        z = 0
        for j, row in enumerate(rows):
            z |= ((row & x).bit_count() & 1) << j
        reorder[z] = vals[x]
    g = LinearJuntaF2(n, rows, tuple(reorder))
    assert approx_error(g, f) < 1e-12
    # constant offset: g = f + 0.1 on a clip-free copy gives exactly 0.01
    base = np.minimum(vals, 0.85)
    f3 = DenseFunction(spec, base)
    reorder3 = [0.0] * 32
    for x in range(32):
        z = 0
        for j, row in enumerate(rows):
            z |= ((row & x).bit_count() & 1) << j
        reorder3[z] = base[x] + 0.1
    g3 = LinearJuntaF2(n, rows, tuple(reorder3))
    assert abs(approx_error(g3, f3) - 0.01) < 1e-12


def test_approx_error_matches_enumeration():
    rng = random.Random(9)
    n = 5
    spec = GroupSpec.boolean(n)
    f = DenseFunction(spec, np.array([rng.random() for _ in range(32)]))
    entries = []
    for w in (Fraction(1, 3), Fraction(2, 3)):
        post = tuple(rng.random() for _ in range(4))
        entries.append((w, LinearJuntaF2(n, (rng.getrandbits(n), rng.getrandbits(n)), post)))
    rsk = RandomizedSketch(entries)
    per_x = np.zeros(32)
    for w, sk in entries:
        out = np.array([eval_sketch(sk, x) for x in range(32)])
        per_x += float(w) * (out - f.values) ** 2
    assert abs(approx_error(rsk, f) - per_x.max()) < 1e-9
    D = Distribution.uniform(spec)
    assert abs(approx_error(rsk, f, D=D) - per_x.mean()) < 1e-9


def test_approx_error_rejects_out_of_range():
    spec = GroupSpec.boolean(3)
    f = DenseFunction(spec, np.full(8, 1.5))
    sk = LinearJuntaF2(3, (), (0.5,))
    with pytest.raises(ValueError):
        approx_error(sk, f)


def test_eval_sketch_dimension_checks():
    sk = parity_junta(4)
    with pytest.raises(ValueError):
        eval_sketch(sk, 16)
    zp = ZpJunta(3, 3, ((1, 1, 1),), (0, 1, 2))
    with pytest.raises(ValueError):
        eval_sketch(zp, (1, 2))
    with pytest.raises(ValueError):
        eval_sketch(zp, (1, 2, 3))


def test_bernoulli_round_reproducible_and_mean_recovers_table():
    from modsketch.sketch import bernoulli_round

    rng = random.Random(12)
    rows = (rng.getrandbits(5), rng.getrandbits(5))
    post = tuple(rng.random() for _ in range(4))
    sk = LinearJuntaF2(5, rows, post)
    a = bernoulli_round(sk, seed=7)
    assert a == bernoulli_round(sk, seed=7)
    assert set(a.post) <= {0, 1}
    trials = 3000
    means = np.zeros(4)
    for s in range(trials):
        means += np.asarray(bernoulli_round(sk, seed=s).post)
    means /= trials
    assert np.max(np.abs(means - np.asarray(post))) < 0.05


def test_randomized_sketch_weights_validated():
    sk = LinearJuntaF2(3, (), (1,))
    with pytest.raises(ValueError):
        RandomizedSketch([(Fraction(1, 2), sk)])


def test_randomized_sketch_sampling_reproducible():
    rng_sketches = [LinearJuntaF2(3, (), (i % 2,)) for i in range(4)]
    rsk = RandomizedSketch.uniform_mixture(rng_sketches, seed=5)
    import random as _r

    a = [rsk.sample(_r.Random(99)) for _ in range(10)]
    b = [rsk.sample(_r.Random(99)) for _ in range(10)]
    assert a == b


def test_serialization_round_trip_all_kinds():
    rng = random.Random(10)
    f2 = random_junta(rng, 6, 3)
    assert deserialize_sketch(serialize_sketch(f2)) == f2

    zp = ZpJunta(4, 3, ((1, 0, 2, 1),), (0, 1, 1))
    assert deserialize_sketch(serialize_sketch(zp)) == zp

    spec = GroupSpec((4, 2))
    sub = subgroup_generated(spec, [spec.encode((2, 0))])
    h = HInvariantSketch(sub, tuple(range(sub.n_cosets)))
    h2 = deserialize_sketch(serialize_sketch(h))
    assert h2.subgroup.elements == h.subgroup.elements and h2.post == h.post

    rsk = RandomizedSketch(
        [(Fraction(1, 3), f2), (Fraction(2, 3), random_junta(rng, 6, 1))], seed=3
    )
    back = deserialize_sketch(serialize_sketch(rsk))
    assert back.entries[0][0] == Fraction(1, 3)
    assert back.entries[0][1] == rsk.entries[0][1]


def test_serialization_rejects_wrong_format():
    with pytest.raises(ValueError):
        deserialize_sketch('{"format": "something-else"}')


def test_distribution_validation_and_sampling():
    spec = GroupSpec.boolean(3)
    with pytest.raises(ValueError):
        Distribution(spec, np.full(8, 0.5))
    for probs in (np.full(8, np.nan), np.asarray([np.inf] + [0.0] * 7)):
        with pytest.raises(ValueError, match="finite"):
            Distribution(spec, probs)
    D = Distribution.from_weights(spec, [1, 2, 3, 4, 0, 0, 0, 0])
    assert abs(D.probs.sum() - 1) < 1e-12
    rng = random.Random(11)
    draws = D.sample(rng, 1000)
    assert all(d < 4 for d in draws)


def test_dense_evaluation_checks_size_before_allocating():
    # 2^48 and 5^32 inputs: far past EXACT_EVAL_LIMIT and the address space
    small = DenseFunction(GroupSpec.boolean(2), np.zeros(4))
    for sk in (LinearJuntaF2(48, (1, 2), (0, 1, 1, 0)), ZpJunta(32, 5, ((1,) * 32,), (0, 1, 0, 1, 0))):
        for dense in (sk.buckets, sk.eval_all):
            with pytest.raises(ValueError, match="input space"):
                dense()
        for measure in (success_probability, approx_error):
            for mode in ("exact", "montecarlo"):
                with pytest.raises(ValueError, match="input space"):
                    measure(sk, small, mode=mode, samples=1)


def test_h_invariant_sketch_checks_coset_count_before_building_cosets(monkeypatch):
    # the trivial subgroup of Z_3^14 has 3^14 cosets, past POST_TABLE_LIMIT;
    # the coset table alone would take a Python loop over all 4.8M inputs
    def no_coset_table(self):
        raise AssertionError("coset table built before the size check")

    monkeypatch.setattr(SubgroupEnum, "coset_ids", no_coset_table)
    with pytest.raises(ValueError, match="post-processing table of size 4782969"):
        HInvariantSketch(SubgroupEnum(GroupSpec.cyclic_power(3, 14), [0]), (0,))


# ---------------------------------------------------------------- properties
# Small sketches of all three kinds, checked against tests/oracles.py: the
# dense path against eval_sketch, stream states against the offline fold of
# the stream, and the v1 text form.


@st.composite
def _sketches(draw):
    """(sketch, moduli of its input group) for one of the three kinds."""
    kind = draw(st.sampled_from(["f2", "zp", "h"]))
    if kind == "f2":
        n, k = draw(st.integers(1, 6)), draw(st.integers(0, 4))
        rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k)))
        post = tuple(draw(st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k)))
        return LinearJuntaF2(n, rows, post), (2,) * n
    if kind == "zp":
        p, n, k = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)), draw(st.integers(0, 2))
        rows = tuple(tuple(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))) for _ in range(k))
        post = tuple(draw(st.lists(st.integers(0, 3), min_size=p**k, max_size=p**k)))
        return ZpJunta(n, p, rows, post), (p,) * n
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    spec = GroupSpec(moduli)
    gens = draw(st.lists(st.integers(0, spec.size - 1), max_size=2))
    sub = subgroup_generated(spec, gens)
    post = tuple(draw(st.lists(st.integers(0, 3), min_size=sub.n_cosets, max_size=sub.n_cosets)))
    return HInvariantSketch(sub, post), moduli


@settings(max_examples=60, deadline=None)
@given(_sketches())
def test_eval_all_matches_pointwise_eval(case):
    sk, moduli = case
    dense = sk.eval_all()
    assert len(dense) == math.prod(moduli)
    assert [int(v) for v in dense] == [eval_sketch(sk, x) for x in range(len(dense))]


@settings(max_examples=60, deadline=None)
@given(_sketches(), st.data())
def test_stream_state_matches_offline_fold(case, data):
    sk, moduli = case
    n = len(moduli)
    updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-7, 7)), max_size=40))
    coords = [c % m for c, m in zip(accumulate_stream(n, math.lcm(*moduli), updates), moduli)]
    state = apply_stream(sk, updates)
    assert (state.values(), state.output()) == read_at(sk, coords)
    assert state.updates == len(updates)
    shuffled = data.draw(st.permutations(updates))
    assert apply_stream(sk, shuffled).values() == state.values()


@settings(max_examples=60, deadline=None)
@given(_sketches(), st.data())
def test_apply_stream_matches_per_update_apply_across_chunks(case, data):
    # apply_stream folds each chunk once; a small chunk makes every stream
    # cross several chunk boundaries
    sk, moduli = case
    n = len(moduli)
    incs = st.one_of(st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1))
    updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1), incs), max_size=40))
    with mock.patch.object(prg, "STREAM_CHUNK", data.draw(st.integers(1, 6))):
        state = apply_stream(sk, updates)
    assert (state.values(), state.output(), state.updates) == (*step_stream(sk, updates), len(updates))


@settings(max_examples=60, deadline=None)
@given(_sketches(), st.data())
def test_queued_apply_reads_match_stepping_every_prefix(case, data):
    # the queue flushes when full (a chunk of 1-6 updates here) and on every
    # read; each read must be the state after the whole prefix
    sk, moduli = case
    n = len(moduli)
    incs = st.one_of(st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1))
    updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1), incs), max_size=30))
    reads = set(data.draw(st.lists(st.integers(0, len(updates)), max_size=6)))
    with mock.patch.object(prg, "STREAM_CHUNK", data.draw(st.integers(1, 6))):
        state = SketchState(sk)
    for at in range(len(updates) + 1):
        if at in reads:
            assert state.updates == at
            assert (state.values(), state.output()) == step_stream(sk, updates[:at])
        if at < len(updates):
            state.apply(*updates[at])
    assert (state.values(), state.output(), state.updates) == (*step_stream(sk, updates), len(updates))


@settings(max_examples=60, deadline=None)
@given(_sketches())
def test_serialization_round_trip_property(case):
    sk, _ = case
    back = deserialize_sketch(serialize_sketch(sk))
    assert type(back) is type(sk) and back.group == sk.group and back.post == sk.post
    assert serialize_sketch(back) == serialize_sketch(sk)


def test_serialization_format_v1_golden():
    spec = GroupSpec((4, 2))
    golden = [
        (LinearJuntaF2(3, (5, 3), (0, 1, 1, 0)),
         '{"format": "modsketch.sketch", "version": 1, "kind": "linear-junta-f2", "n": 3, '
         '"rows": [5, 3], "post": [0, 1, 1, 0]}'),
        (ZpJunta(2, 3, ((1, 2),), (0, 1, 1)),
         '{"format": "modsketch.sketch", "version": 1, "kind": "zp-junta", "n": 2, "p": 3, '
         '"rows": [[1, 2]], "post": [0, 1, 1]}'),
        (HInvariantSketch(subgroup_generated(spec, [spec.encode((2, 0))]), (0, 1, 1, 0)),
         '{"format": "modsketch.sketch", "version": 1, "kind": "h-invariant", "moduli": [4, 2], '
         '"subgroup": [0, 2], "post": [0, 1, 1, 0]}'),
    ]
    for sk, text in golden:
        assert serialize_sketch(sk) == json.dumps(json.loads(text), indent=2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(3,), (2, 2, 2), (5, 4), (2,) * 10]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.9),
    st.integers(2, 40),
)
def test_distribution_sample_draws_what_choices_draws(moduli, seed, zero_share, count):
    # bisecting the kept cumulative weights reproduces rng.choices draw for
    # draw from the same state, zero weights included
    group = GroupSpec(moduli)
    gen = np.random.default_rng(seed)
    weights = gen.random(group.size) * (gen.random(group.size) >= zero_share)
    weights[gen.integers(group.size)] += 0.5  # keep the sum positive
    D = Distribution.from_weights(group, weights)
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(3):  # the second and third calls reuse the kept weights
        draws = D.sample(got, count)
        assert draws == want.choices(range(group.size), weights=D.probs, k=count)
        assert all(type(x) is int and weights[x] > 0 for x in draws)
    assert got.random() == want.random()

