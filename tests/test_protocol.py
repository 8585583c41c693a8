"""Protocol simulators: broadcast runs, FSM lifting, SMP, additive lifts."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch import protocol as protocol_module
from modsketch.algebra import GroupSpec, subgroup_generated
from modsketch.protocol import (
    BroadcastProtocol,
    StreamFSM,
    additive_lift,
    fsm_to_players,
    run_smp,
    smp_from_linear_sketch,
)
from modsketch.sketch import HInvariantSketch, LinearJuntaF2, ZpJunta, eval_sketch
from modsketch.zoo import zoo_function, zoo_protocol

from oracles import group_add


def test_constant_protocol_fixed_transcript():
    family = zoo_protocol("constant", n=3, value=0)
    protocol = family(4)
    msgs1, out1 = protocol.run([0, 1, 2, 3])
    msgs2, out2 = protocol.run([7, 7, 7, 7])
    assert msgs1 == msgs2 and out1 == out2 == 0


def test_parity_chain_exhaustive_n3_players4():
    n, players = 3, 4
    family = zoo_protocol("parity-chain", n=n)
    protocol = family(players)
    for inputs in itertools.product(range(1 << n), repeat=players):
        _, out = protocol.run(list(inputs))
        total = 0
        for x in inputs:
            total ^= x
        assert out == total.bit_count() % 2


def test_protocol_ignoring_randomness():
    family = zoo_protocol("parity-chain", n=4)
    protocol = family(3)
    inputs = [3, 9, 14]
    assert protocol.run(inputs, 0) == protocol.run(inputs, 12345)


def test_run_broadcast_arity_mismatch():
    protocol = zoo_protocol("parity-chain", n=4)(3)
    with pytest.raises(ValueError):
        protocol.run([1, 2])


def test_message_width_validation():
    def bad(x, prev, r):
        return 2  # does not fit in 1 bit

    protocol = BroadcastProtocol(
        group=GroupSpec.boolean(2),
        n_players=2,
        message_bits=1,
        msg_fns=(bad, bad),
    )
    with pytest.raises(ValueError):
        protocol.run([0, 1])


def test_fsm_to_players_parity_exhaustive():
    n, players = 3, 3
    spec = GroupSpec.boolean(n)
    fsm = StreamFSM(
        group=spec,
        n_states=2,
        initial=0,
        step=lambda s, coord, inc: s ^ (inc & 1),
        emit=lambda s: s,
        name="parity",
    )
    assert fsm.state_bits == 1
    protocol = fsm_to_players(fsm, players)
    assert protocol.message_bits == 1
    for inputs in itertools.product(range(1 << n), repeat=players):
        _, out = protocol.run(list(inputs))
        total = 0
        for x in inputs:
            total ^= x
        assert out == total.bit_count() % 2
        # and it matches the FSM run on the concatenated stream
        stream = []
        for x in inputs:
            stream.extend(spec.unit_updates(x))
        assert out == fsm.emit(fsm.run_stream(stream))


def test_fsm_to_players_message_width_and_budget():
    fsm = StreamFSM(
        group=GroupSpec.cyclic_power(3, 2),
        n_states=3,
        initial=0,
        step=lambda s, c, i: (s + i) % 3,
        emit=lambda s: int(s == 0),
    )
    assert fsm_to_players(fsm, 4).message_bits == 2
    with pytest.raises(ValueError):
        fsm_to_players(fsm, 4, max_state_bits=1)


def test_fsm_ignoring_updates_gives_constant_protocol():
    fsm = StreamFSM(
        group=GroupSpec.boolean(3),
        n_states=2,
        initial=1,
        step=lambda s, c, i: s,
        emit=lambda s: s,
    )
    protocol = fsm_to_players(fsm, 3)
    outs = {protocol.run([a, b, c])[1] for a in range(8) for b in range(8) for c in range(2)}
    assert outs == {1}


def test_fsm_to_players_randomized_equivalence_mod_p():
    rng = random.Random(0)
    spec = GroupSpec.cyclic_power(3, 4)
    fsm = StreamFSM(
        group=spec,
        n_states=3,
        initial=0,
        step=lambda s, c, i: (s + i) % 3,
        emit=lambda s: int(s == 0),
    )
    protocol = fsm_to_players(fsm, 6)
    for _ in range(200):
        inputs = [rng.randrange(spec.size) for _ in range(6)]
        _, out = protocol.run(inputs)
        total = sum(sum(spec.decode(x)) for x in inputs) % 3
        assert out == int(total == 0)


def test_additive_lift():
    spec = GroupSpec.boolean(6)
    f = zoo_function("parity", n=6)
    F1 = additive_lift(f, 1)
    assert all(F1([x]) == f.values[x] for x in range(64))
    F2 = additive_lift(f, 2)
    assert F2([13, 13]) == f.values[0]
    rng = random.Random(2)
    F5 = additive_lift(f, 5)
    for _ in range(1000):
        inputs = [rng.randrange(64) for _ in range(5)]
        acc = 0
        for x in inputs:
            acc ^= x
        assert F5(inputs) == f.values[acc]


def test_additive_lift_group_case():
    f = zoo_function("mod-p-sum-zero", n=3, p=3)
    spec = f.group
    F = additive_lift(f, 4)
    rng = random.Random(3)
    for _ in range(200):
        inputs = [rng.randrange(spec.size) for _ in range(4)]
        acc = 0
        for x in inputs:
            acc = spec.add(acc, x)
        assert F(inputs) == f.values[acc]


def test_run_smp_full_forwarding():
    spec = GroupSpec.boolean(4)
    f = zoo_function("majority", n=4)
    F = additive_lift(f, 3)

    players = [lambda x, r: x] * 3

    def coordinator(messages, r):
        return F(list(messages))

    rng = random.Random(4)
    for _ in range(100):
        inputs = [rng.randrange(16) for _ in range(3)]
        assert run_smp(players, coordinator, inputs) == F(inputs)


def test_smp_from_f2_sketch_matches_eval_on_sum():
    rng = random.Random(5)
    n, k, players = 6, 2, 5
    sk = LinearJuntaF2(
        n,
        tuple(rng.getrandbits(n) for _ in range(k)),
        tuple(rng.getrandbits(1) for _ in range(1 << k)),
    )
    fns, coordinator, bits = smp_from_linear_sketch(sk, players)
    assert bits == players * k
    for _ in range(200):
        inputs = [rng.randrange(1 << n) for _ in range(players)]
        out = run_smp(fns, coordinator, inputs)
        acc = 0
        for x in inputs:
            acc ^= x
        assert out == eval_sketch(sk, acc)


def test_smp_from_zp_sketch_matches_eval_on_sum():
    rng = random.Random(6)
    n, p, players = 4, 3, 4
    sk = ZpJunta(
        n,
        p,
        (tuple(rng.randrange(p) for _ in range(n)),),
        tuple(rng.getrandbits(1) for _ in range(p)),
    )
    fns, coordinator, bits = smp_from_linear_sketch(sk, players)
    assert bits == players * 1 * 2  # k * ceil(log2 3)
    spec = sk.group
    for _ in range(200):
        inputs = [rng.randrange(spec.size) for _ in range(players)]
        out = run_smp(fns, coordinator, inputs)
        acc = 0
        for x in inputs:
            acc = spec.add(acc, x)
        assert out == sk.eval(spec.decode(acc))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_smp_lowering_equals_eval_at_the_group_sum(data):
    # F2 and Z_p juntas with k = 0 to 3 forms; the lowering's bits are one
    # ceil(log2 p)-bit coordinate per form per player
    players = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    post = tuple(data.draw(st.lists(st.integers(0, 1), min_size=p**k, max_size=p**k)))
    if p == 2 and data.draw(st.booleans()):
        sk = LinearJuntaF2(n, tuple(data.draw(st.integers(0, 2**n - 1)) for _ in range(k)), post)
    else:
        rows = tuple(tuple(data.draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(k))
        sk = ZpJunta(n, p, rows, post)
    fns, coordinator, bits = smp_from_linear_sketch(sk, players)
    assert bits == players * k * {2: 1, 3: 2, 5: 3, 7: 3}[p]
    inputs = data.draw(st.lists(st.integers(0, p**n - 1), min_size=players, max_size=players))
    total = 0
    for x in inputs:
        total = group_add((p,) * n, total, x)
    assert run_smp(fns, coordinator, inputs) == eval_sketch(sk, total)


def test_smp_lowering_refuses_a_subgroup_sketch():
    spec = GroupSpec((4, 2))
    sk = HInvariantSketch(subgroup_generated(spec, [spec.encode((2, 0))]), (0, 1, 1, 0))
    with pytest.raises(TypeError, match="SMP lowering needs a linear junta"):
        smp_from_linear_sketch(sk, 3)


def test_streaming_table_fn_lookup():
    from modsketch.protocol import streaming_table_fn

    table = [[x % 2, 1 - x % 2] for x in range(8)]
    fn = streaming_table_fn(table)
    assert fn(3, (), 0) == 1  # player one reads column 0
    assert fn(3, (0, 1), 0) == 0  # later players read the last message
    protocol = BroadcastProtocol(
        group=GroupSpec.boolean(3),
        n_players=3,
        message_bits=1,
        msg_fns=(fn, fn, fn),
        streaming=True,
    )
    _, out = protocol.run([3, 4, 5])
    assert out in (0, 1)


def test_zoo_state_passing_protocol():
    from modsketch.zoo import zoo_protocol

    family = zoo_protocol("state-passing", fsm="running-sum", n=3, p=4)
    protocol = family(4)
    assert protocol.message_bits == 2
    spec = protocol.group
    rng = random.Random(8)
    for _ in range(50):
        inputs = [rng.randrange(spec.size) for _ in range(4)]
        _, out = protocol.run(inputs)
        total = sum(sum(spec.decode(x)) for x in inputs) % 4
        assert out == int(total == 0)


def test_streaming_protocol_is_broadcast_special_case():
    # a streaming runner that drops all but the last message agrees with
    # the broadcast runner on a streaming protocol
    family = zoo_protocol("parity-chain", n=4)
    protocol = family(5)
    assert protocol.streaming
    rng = random.Random(7)
    for _ in range(100):
        inputs = [rng.randrange(16) for _ in range(5)]
        messages, out = protocol.run(inputs)
        state = 0
        for i, fn in enumerate(protocol.msg_fns):
            state = fn(inputs[i], (state,) if i else (), 0)
        assert state == out


@st.composite
def random_fsms(draw, binary_emit=False):
    """A StreamFSM with random transition and output tables on mixed
    moduli, Z_3^k or F2^k; its outputs are floats or ints unless
    binary_emit."""
    moduli = draw(st.one_of(
        st.lists(st.integers(2, 5), min_size=1, max_size=3),
        st.integers(1, 4).map(lambda k: [3] * k),
        st.integers(1, 5).map(lambda k: [2] * k),
    ))
    group = GroupSpec(moduli)
    n_states = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    moves = {(s, j, d): rng.randrange(n_states)
             for s in range(n_states) for j, m in enumerate(moduli) for d in range(1, m)}
    if binary_emit or draw(st.booleans()):
        outputs = [rng.getrandbits(1) for _ in range(n_states)]
    else:
        outputs = [rng.random() for _ in range(n_states)]
    return StreamFSM(group=group, n_states=n_states, initial=rng.randrange(n_states),
                     step=lambda s, j, d: moves[s, j, d], emit=lambda s: outputs[s], name="random")


def _assert_batch_matches_calls(fn, size, states, r=0):
    for state in states:
        prev = () if state is None else (state,)
        got = fn.batch(state, r)
        assert got.shape == (size,)
        assert got.tolist() == [fn(x, prev, r) for x in range(size)]


def _chain_closed_forms():
    """(protocol, incoming states, middle, tail) for every zoo chain on F2^n,
    n <= 5, with every mask (every pair for the blend), and constant on F2
    and Z_3: middle(state, x) and tail(state, x) are the chain's messages in
    closed form, state 0 standing for player one's missing state."""
    def par(v):
        return v.bit_count() & 1

    def quantized(z, w1=0.3, w2=0.2, levels=5):
        value = 0.5 + w1 * (1 - 2 * (z & 1)) + w2 * (1 - 2 * (z >> 1 & 1))
        return round(value * (levels - 1)) / (levels - 1)

    for n in range(1, 6):
        for m in range(1 << n):
            def parity(s, x, m=m):
                return s ^ par(x & m)

            yield zoo_protocol("parity-chain", n=n, mask=m)(3), (None, 0, 1), parity, parity
        for a, b in itertools.product(range(1 << n), repeat=2):
            def pair(s, x, a=a, b=b):
                return (s & 1 ^ par(x & a)) | (s >> 1 & 1 ^ par(x & b)) << 1

            yield (zoo_protocol("two-parity-blend-chain", n=n, a=a, b=b)(3), (None, 0, 1, 2, 3), pair,
                   lambda s, x, pair=pair: quantized(pair(s, x)))
        for value, p in itertools.product((0, 1), (2, 3)):
            yield (zoo_protocol("constant", n=n, value=value, p=p)(3), (None, 0),
                   lambda s, x: 0, lambda s, x, value=value: value)


def test_zoo_chains_match_their_closed_forms():
    for protocol, states, *forms in _chain_closed_forms():
        size = protocol.group.size
        for fn, form in zip(protocol.msg_fns[1:], forms):
            for state in states:
                want = [form(state or 0, x) for x in range(size)]
                assert fn.batch(state, 0).tolist() == want
                prev = () if state is None else (state,)
                assert [fn(x, prev, 0) for x in range(size)] == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_zoo_chain_array_forms_match_per_input_calls(data):
    n = data.draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    parity = zoo_protocol("parity-chain", n=n, mask=data.draw(masks))(3)
    w1 = data.draw(st.floats(0, 0.5))
    blend = zoo_protocol("two-parity-blend-chain", n=n, a=data.draw(masks), b=data.draw(masks),
                         w1=w1, w2=data.draw(st.floats(0, 0.5 - w1)), levels=data.draw(st.integers(2, 9)))(3)
    constant = zoo_protocol("constant", n=n, value=data.draw(st.integers(0, 1)),
                            p=data.draw(st.sampled_from([2, 3])))(3)
    for proto, states in ((parity, [None, 0, 1]), (blend, [None, 0, 1, 2, 3]), (constant, [None, 0])):
        for fn in set(proto.msg_fns):
            _assert_batch_matches_calls(fn, proto.group.size, states, r=data.draw(st.integers(0, 3)))


@settings(max_examples=80, deadline=None)
@given(random_fsms())
def test_fsm_array_forms_match_per_input_calls(fsm):
    middle, last = fsm_to_players(fsm, 3).msg_fns[1:]
    states = [None, *range(fsm.n_states)]
    _assert_batch_matches_calls(middle, fsm.group.size, states)
    _assert_batch_matches_calls(last, fsm.group.size, states)


def test_fsm_states_outside_n_states_raise_in_the_array_form():
    fsm = StreamFSM(group=GroupSpec((2, 3)), n_states=2, initial=0,
                    step=lambda s, j, d: s + d if j == 1 else s, emit=lambda s: s)
    middle = fsm_to_players(fsm, 3).msg_fns[0]
    with pytest.raises(ValueError, match=r"step\(state=0, coordinate=1, digit=2\) = 2 is outside \[0, 2\)"):
        middle.batch(None, 0)
    outside = StreamFSM(group=GroupSpec((2,)), n_states=2, initial=2, step=lambda s, j, d: s, emit=lambda s: s)
    with pytest.raises(ValueError, match=r"state 2 outside \[0, 2\)"):
        fsm_to_players(outside, 3).msg_fns[0].batch(None, 0)


def test_fsm_over_the_table_cap_gets_no_array_form():
    # 2^19 states x 1 coordinate x modulus 3 > TRANSFORM_SIZE_LIMIT = 2^20
    fsm = StreamFSM(group=GroupSpec((3,)), n_states=1 << 19, initial=0,
                    step=lambda s, j, d: (s + d) % 3, emit=lambda s: int(s == 0))
    assert fsm.n_states * 3 > protocol_module.TRANSFORM_SIZE_LIMIT
    protocol = fsm_to_players(fsm, 4)
    assert not any(hasattr(fn, "batch") for fn in protocol.msg_fns)
    assert protocol.run([1, 2, 0, 0]) == ((1, 0, 0, 1), 1)
