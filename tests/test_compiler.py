"""The protocol-to-sketch pipeline, stage by stage and end to end."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch import compiler
from modsketch import protocol as protocol_module
from modsketch.algebra import GroupSpec, orthogonal_complement, rank_basis, span_mask
from modsketch.compiler import (
    CompilerError,
    PlayerSets,
    ReductionConfig,
    TranscriptSearchError,
    approx_encode,
    build_invariant_structure,
    build_junta,
    conversion_bounds,
    heavy_set,
    minimax_boost,
    reduce,
    sample_and_select_transcript,
)
from modsketch.fourier import (DFT_BLOCK_ORDER, ChangBoundError, DenseFunction, NormalizedIndicator,
                              normalized_indicator)
from modsketch.protocol import BroadcastProtocol, StreamFSM, fsm_to_players
from modsketch.seeding import derive_seed, derived_rng
from modsketch.sketch import Distribution, RandomizedSketch, serialize_sketch
from modsketch.zoo import zoo_fsm, zoo_function, zoo_protocol

from oracles import (bucket_reduce, group_add, group_sub, player_set_oracle, transcript_frequencies,
                     transcript_success)
from test_protocol import random_fsms


def random_table_protocol(group, n_players, c, rng, binary_tail=True):
    """Streaming protocol with random dense message tables."""
    fns = []
    for _ in range(n_players - 1):
        table = [[rng.getrandbits(c) for _ in range(1 << c)] for _ in range(group.size)]
        fns.append(lambda x, prev, r, t=table: t[x][prev[-1] if prev else 0])
    bits = 1 if binary_tail else 53
    tail = [
        [rng.getrandbits(1) if binary_tail else rng.random() for _ in range(1 << c)]
        for _ in range(group.size)
    ]
    fns.append(lambda x, prev, r, t=tail: t[x][prev[-1] if prev else 0])
    return BroadcastProtocol(
        group=group,
        n_players=n_players,
        message_bits=c,
        msg_fns=tuple(fns),
        streaming=True,
        name="random-table",
    )


def masked_chain_protocol(group, n_players, masks, tail_rng):
    """1-bit chain where player i forwards prev xor parity(x & masks[i]);
    the tail is a random function of (input, last bit).  The per-player
    sets are affine half-spaces, so the heavy spectrum is nontrivial."""
    fns = []
    for i in range(n_players - 1):
        m = masks[i % len(masks)]
        fns.append(
            lambda x, prev, r, mm=m: (prev[-1] if prev else 0)
            ^ ((x & mm).bit_count() & 1)
        )
    tail = [[tail_rng.getrandbits(1) for _ in range(2)] for _ in range(group.size)]
    fns.append(lambda x, prev, r, t=tail: t[x][prev[-1]])
    return BroadcastProtocol(
        group=group,
        n_players=n_players,
        message_bits=1,
        msg_fns=tuple(fns),
        streaming=True,
        name="masked-chain",
    )


def test_constant_protocol_transcript_accounting():
    f = zoo_function("parity", n=4)
    family = zoo_protocol("constant", n=4, value=0)
    cfg = ReductionConfig(players=12, transcript_trials=4, seed=0)
    sel = sample_and_select_transcript(
        family(13), f, Distribution.uniform(f.group), cfg, "exact"
    )
    assert sel.transcript.a == 1
    assert all(d == 1 for d in sel.player_sets.densities)
    # h == 0 against parity: success is exactly 1/2 under uniform D
    assert abs(sel.transcript.b - 0.5) < 1e-12


def test_parity_chain_transcript_densities_and_quality():
    n, N = 4, 40
    f = zoo_function("parity", n=n)
    family = zoo_protocol("parity-chain", n=n)
    cfg = ReductionConfig(players=N, transcript_trials=8, target_q=1.0, seed=2)
    sel = sample_and_select_transcript(
        family(N + 1), f, Distribution.uniform(f.group), cfg, "exact"
    )
    assert all(d == Fraction(1, 2) for d in sel.player_sets.densities)
    assert sel.transcript.a == Fraction(1, 2**N)
    assert sel.transcript.a >= Fraction(1, 2 ** (2 * N))  # condition (i)
    assert sel.transcript.b == 1.0


@pytest.mark.parametrize("n", [4, 12])
def test_parity_chain_joint_spectrum_is_exactly_signed(n):
    # each player set is a half-space: its spectrum is 1 at 0, +-1 at the
    # mask and 0 elsewhere, and so is every product of them, exactly
    N = 10 * n
    f = zoo_function("parity", n=n)
    cfg = ReductionConfig(players=N, transcript_trials=8, target_q=1.0, seed=3)
    sel = sample_and_select_transcript(
        zoo_protocol("parity-chain", n=n)(N + 1), f, Distribution.uniform(f.group), cfg, "exact"
    )
    joint = sel.player_sets.joint().coeffs
    assert joint.dtype == np.float64
    assert np.all(np.isin(joint, (-1.0, 0.0, 1.0)))
    assert joint[0] == 1.0 and np.count_nonzero(joint) > 1


def test_zero_trial_budget_errors():
    f = zoo_function("parity", n=4)
    family = zoo_protocol("constant", n=4)
    cfg = ReductionConfig(players=4, transcript_trials=0, seed=0)
    with pytest.raises(TranscriptSearchError):
        sample_and_select_transcript(
            family(5), f, Distribution.uniform(f.group), cfg, "exact"
        )


def test_quality_gate_reports_best_candidate():
    f = zoo_function("parity", n=4)
    family = zoo_protocol("constant", n=4, value=0)
    cfg = ReductionConfig(players=12, transcript_trials=4, target_q=0.9, seed=0)
    with pytest.raises(TranscriptSearchError) as err:
        reduce(family, f, None, cfg, "exact_f2")
    assert err.value.best is not None
    assert abs(err.value.best.b - 0.5) < 1e-12


def test_heavy_set_full_space_and_boundary():
    spec = GroupSpec.boolean(4)
    full = [normalized_indicator(spec, range(16)) for _ in range(6)]
    ps = PlayerSets(full)
    B, S, _ = heavy_set(ps, message_bits=1)
    assert B == list(range(6))
    assert list(S) == [0]

    # one set of density exactly 2^(-2(c+1)) is kept (inclusive threshold)
    c = 1
    small = normalized_indicator(spec, [0])  # density 1/16 = 2^-4
    ps2 = PlayerSets([small] + full[:5])
    B2, _, _ = heavy_set(ps2, message_bits=c)
    assert 0 in B2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.data())
def test_heavy_sets_match_the_rational_density_test(n, c, data):
    spec = GroupSpec.boolean(n)
    sizes = data.draw(st.lists(st.integers(1, spec.size), min_size=1, max_size=5))
    sets = [normalized_indicator(spec, range(k)) for k in sizes]
    ps = PlayerSets(data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=12)))
    thresh = Fraction(1, 2 ** (2 * (c + 1)))
    assert ps.heavy(c) == [ind for ind in ps.distinct if ind.density >= thresh]
    B, _, _ = heavy_set(ps, c)
    assert B == [i for i, ind in enumerate(ps.indicators) if ind.density >= thresh]


def test_heavy_set_parity_chain_spectrum():
    n, N = 4, 40
    f = zoo_function("parity", n=n)
    family = zoo_protocol("parity-chain", n=n)
    cfg = ReductionConfig(players=N, transcript_trials=8, target_q=1.0, seed=3)
    sel = sample_and_select_transcript(
        family(N + 1), f, Distribution.uniform(f.group), cfg, "exact"
    )
    B, S, _ = heavy_set(sel.player_sets, 1)
    assert len(B) == N
    assert sorted(S) == [0, (1 << n) - 1]


def test_heavy_set_weights_equal_the_per_player_sum():
    # parity chain: 40 players share at most 5 indicator objects, one per
    # (incoming bit or none, message); a lone low-density player is left out of B
    n, N = 5, 40
    f = zoo_function("parity", n=n)
    cfg = ReductionConfig(players=N, transcript_trials=8, seed=6)
    sel = sample_and_select_transcript(
        zoo_protocol("parity-chain", n=n)(N + 1), f, Distribution.uniform(f.group), cfg, "exact"
    )
    ps = PlayerSets([normalized_indicator(f.group, [3])] + sel.player_sets.indicators)
    assert len(ps.distinct) <= 1 + 5 and sum(ps.distinct.values()) == N + 1
    B, _, weights = heavy_set(ps, 1)
    assert B == list(range(1, N + 1))
    want = sum(np.abs(ps.indicators[i].spectrum().coeffs) ** 2 for i in B)
    assert np.allclose(weights, want, rtol=1e-12, atol=1e-12)


def test_joint_spectrum_formed_once_per_candidate_passing_the_threshold(monkeypatch):
    # delta = 1/2 on random 2-bit tables rejects some candidates by
    # condition (i); each other candidate forms its joint spectrum once,
    # and mixing and the junta reuse the selected one
    from modsketch import compiler

    formed = []
    selected = []
    joint_spectrum = compiler.joint_spectrum
    select = compiler.sample_and_select_transcript
    monkeypatch.setattr(compiler, "joint_spectrum", lambda *a: formed.append(1) or joint_spectrum(*a))
    monkeypatch.setattr(compiler, "sample_and_select_transcript", lambda *a: selected.append(select(*a)) or selected[-1])
    rng = random.Random(0)
    group, N = GroupSpec.boolean(4), 12
    protocol = random_table_protocol(group, N + 1, 2, rng)
    f = DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(16)], dtype=float))
    cfg = ReductionConfig(players=N, transcript_trials=16, delta=Fraction(1, 2), seed=0)
    reduce(protocol, f, None, cfg, "exact_f2")
    sel = selected[0]
    assert sel.rejected_condition_i > 0
    assert len(formed) == sel.candidates_evaluated - sel.rejected_condition_i > 1


def test_chang_check_records_the_tightest_set_and_can_fail(monkeypatch):
    f = zoo_function("parity", n=4)
    family = zoo_protocol("parity-chain", n=4)
    cfg = ReductionConfig(players=40, transcript_trials=8, target_q=1.0, seed=1)
    rec = reduce(family, f, None, cfg, "exact_f2").report.checks["chang-per-player"]
    # every heavy set is a half-space with |phihat(1111)|^2 = 1 and alpha = 1/2
    assert rec == {"lhs": pytest.approx(1.0, abs=1e-12), "rhs": 8.0, "player": 0, "ok": True}
    monkeypatch.setattr(compiler, "CHANG_CONSTANT", 0.5)
    with pytest.raises(ChangBoundError, match="player 0"):
        reduce(family, f, None, cfg, "exact_f2")


@pytest.mark.parametrize("p", [257, 1021, 1031, 2003])
def test_chang_record_names_the_first_of_sets_tied_in_exact_arithmetic(p):
    # on Z_p every heavy set's slack is the same up to rounding (within 3e-14)
    cfg = ReductionConfig(players=100, transcript_trials=4, seed=0)
    res = reduce(zoo_protocol("running-sum-mod-p", n=1, p=p), zoo_function("mod-p-sum-zero", n=1, p=p),
                 None, cfg, "exact_group")
    assert res.report.checks["chang-per-player"]["player"] == 0


def test_build_invariant_structure_trivial_and_parity():
    spec = GroupSpec.boolean(5)
    st = build_invariant_structure(spec, [0], np.ones(32), "subspace")
    assert st.cost == 0 and st.invariant.dim == 5 and st.complexity == 1

    all_ones = 0b11111
    weights = np.zeros(32)
    weights[0] = weights[all_ones] = 40.0
    st2 = build_invariant_structure(spec, [0, all_ones], weights, "subspace")
    assert st2.generators == [all_ones]
    even = orthogonal_complement(rank_basis([all_ones], 5))
    assert st2.invariant.basis == even.basis


def test_build_invariant_structure_group_case():
    z4 = GroupSpec((4,))
    weights = np.zeros(4)
    weights[2] = 3.0
    st = build_invariant_structure(z4, [0, 2], weights, "subgroup")
    assert st.generators == [2]
    assert st.invariant.elements == (0, 2)
    assert st.complexity == 2 <= 4
    # H is the annihilator of S, and dual, a bool mask, is the span of the generators
    for moduli, gammas in (((3, 3), [1, 3, 4]), ((2, 6), [7, 3, 10]), ((5,), [2, 3])):
        g = GroupSpec(moduli)
        st = build_invariant_structure(g, gammas, np.ones(g.size), "subgroup")
        assert st.invariant == compiler.annihilator(g, gammas)
        assert st.dual.dtype == bool and np.array_equal(st.dual, span_mask(g, st.generators))


def test_junta_w_values_coset_constant_exhaustive():
    # reduce's coset-constancy check reads coset_deviation; re-verified here over all cosets
    rng = random.Random(4)
    n, N = 6, 20
    spec = GroupSpec.boolean(n)
    f = zoo_function("parity", n=n)
    protocol = masked_chain_protocol(
        spec, N + 1, [0b111000, 0b000111], rng
    )
    cfg = ReductionConfig(players=N, transcript_trials=8, seed=4)
    D = Distribution.uniform(spec)
    sel = sample_and_select_transcript(protocol, f, D, cfg, "exact")
    B, S, weights = heavy_set(sel.player_sets, 1)
    st = build_invariant_structure(spec, S, weights, "subspace")
    res = build_junta(sel.tail, sel.player_sets.joint(), st, D, f, "exact")
    assert res.coset_deviation <= 1e-9
    assert np.all(res.w >= 0) and np.all(res.w <= 1)
    for x in range(spec.size):
        for v in st.invariant.elements():
            assert abs(res.w[x] - res.w[x ^ v]) <= 1e-9


def test_reduce_parity_end_to_end():
    f = zoo_function("parity", n=8)
    family = zoo_protocol("parity-chain", n=8)
    cfg = ReductionConfig(players=80, transcript_trials=64, target_q=1.0, seed=42)
    res = reduce(family, f, None, cfg, "exact_f2")
    assert res.report.cost == 1
    assert res.sketch.rows == (255,)
    assert res.report.quality == 1.0
    assert all(c["ok"] for c in res.report.checks.values())
    # the produced junta really is parity
    assert np.array_equal(res.sketch.eval_all(), f.values.astype(int))


def test_reduce_dictator_masked_chain():
    f = zoo_function("dictator", n=6, i=0)
    family = zoo_protocol("parity-chain", n=6, mask=1)
    cfg = ReductionConfig(players=60, transcript_trials=16, target_q=1.0, seed=1)
    res = reduce(family, f, None, cfg, "exact_f2")
    assert res.report.cost == 1
    assert res.sketch.rows == (1,)
    assert res.report.quality == 1.0


def test_reduce_group_running_sum():
    f = zoo_function("mod-p-sum-zero", n=4, p=3)
    family = zoo_protocol("running-sum-mod-p", n=4, p=3)
    cfg = ReductionConfig(players=64, transcript_trials=32, target_q=1.0, seed=7)
    res = reduce(family, f, None, cfg, "exact_group")
    r = res.report
    assert r.complexity <= 3
    assert r.quality >= 0.99
    assert all(c["ok"] for c in r.checks.values())
    assert len(res.sketch.subgroup) == 27


def test_group_variant_agrees_with_f2_on_boolean_groups():
    f = zoo_function("parity", n=6)
    family = zoo_protocol("parity-chain", n=6)
    cfg = ReductionConfig(players=60, transcript_trials=16, target_q=1.0, seed=2)
    res_f2 = reduce(family, f, None, cfg, "exact_f2")
    res_gr = reduce(family, f, None, cfg, "exact_group")
    assert res_gr.report.complexity == 2 ** res_f2.report.cost == 2
    assert (res_f2.report.subgroups_built, res_gr.report.subgroups_built) == (0, 1)
    assert np.array_equal(
        np.asarray(res_f2.sketch.eval_all()),
        np.asarray(res_gr.sketch.eval_all()),
    )


def test_reduce_group_composite_modulus():
    # Z_4^5: non-prime modulus exercises the general dissociated/annihilator
    # path rather than anything field-specific
    f = zoo_function("mod-p-sum-zero", n=5, p=4)
    family = zoo_protocol("running-sum-mod-p", n=5, p=4)
    cfg = ReductionConfig(players=100, transcript_trials=16, target_q=1.0, seed=9)
    res = reduce(family, f, None, cfg, "exact_group")
    assert res.report.complexity <= 4
    assert res.report.quality >= 0.99


def test_reduce_approx_group_quantized_tail():
    spec = GroupSpec.cyclic_power(3, 3)
    sums = spec.coords_matrix().sum(axis=1) % 3
    f = DenseFunction(spec, sums / 2.0)
    fsm = StreamFSM(
        group=spec,
        n_states=3,
        initial=0,
        step=lambda s, c, i: (s + i) % 3,
        emit=lambda s: s / 2.0,
    )
    cfg = ReductionConfig(players=48, transcript_trials=32, target_eps=0.0, seed=5)
    res = reduce(lambda n_players: fsm_to_players(fsm, n_players), f, None, cfg, "approx_group")
    assert res.report.quality <= 1e-12  # lossless tail: zero squared error
    assert res.report.complexity <= 3


def test_reduce_variant_validation():
    f = zoo_function("mod-p-sum-zero", n=3, p=3)
    family = zoo_protocol("running-sum-mod-p", n=3, p=3)
    cfg = ReductionConfig(players=8, transcript_trials=4)
    with pytest.raises(ValueError):
        reduce(family, f, None, cfg, "exact_f2")  # non-boolean group
    with pytest.raises(ValueError):
        reduce(family, f, None, cfg, "no_such_variant")


@pytest.mark.parametrize("field", ["target_q", "target_eps"])
def test_reduction_config_targets_lie_in_the_unit_interval(field):
    for value in (0.0, 0.5, 1.0):
        ReductionConfig(players=4, **{field: value})
    for value in (-0.1, 1.5, 2.0, math.nan):
        with pytest.raises(ValueError, match=f"{field} must lie in \\[0, 1\\]"):
            ReductionConfig(players=4, **{field: value})


def test_reduce_rejects_wrong_player_count():
    f = zoo_function("parity", n=4)
    fixed = zoo_protocol("parity-chain", n=4)(7)
    cfg = ReductionConfig(players=12, transcript_trials=4)
    with pytest.raises(ValueError):
        reduce(fixed, f, None, cfg, "exact_f2")


def test_quality_transfer_on_random_protocols():
    # success >= b(pi) - mixing_gap on every successful run
    checked = 0
    for trial in range(8):
        rng = random.Random(500 + trial)
        n = rng.choice([4, 5, 6])
        group = GroupSpec.boolean(n)
        f = DenseFunction(
            group,
            np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float),
        )
        if trial % 2 == 0:
            N = rng.choice([12, 20])
            protocol = random_table_protocol(group, N + 1, rng.choice([1, 2]), rng)
        else:
            N = 40
            masks = [rng.getrandbits(n) or 1, rng.getrandbits(n) or 1]
            protocol = masked_chain_protocol(group, N + 1, masks, rng)
        cfg = ReductionConfig(players=N, transcript_trials=16, seed=trial)
        res = reduce(protocol, f, None, cfg, "exact_f2")
        r = res.report
        assert r.quality >= r.transcript_quality - r.mixing_gap - 1e-9
        checked += 1
    assert checked == 8


def test_r_star_search_finds_the_good_tape():
    # four shared-randomness tapes; only tape 3 wires the full parity mask,
    # the others compute a dictator and agree with parity on half the inputs
    n, N = 4, 40
    group = GroupSpec.boolean(n)
    full = (1 << n) - 1

    def mask_for(r: int) -> int:
        return full if r == 3 else 1

    def middle(x: int, prev: tuple, r: int) -> int:
        return (prev[-1] if prev else 0) ^ ((x & mask_for(r)).bit_count() & 1)

    protocol = BroadcastProtocol(
        group=group,
        n_players=N + 1,
        message_bits=1,
        msg_fns=(middle,) * (N + 1),
        randomness_bits=2,
        streaming=True,
        name="tape-gated-parity",
    )
    f = zoo_function("parity", n=n)
    cfg = ReductionConfig(players=N, transcript_trials=16, target_q=1.0, seed=6)
    res = reduce(protocol, f, None, cfg, "exact_f2")
    assert res.report.r_star == 3
    assert res.report.quality == 1.0
    assert res.sketch.rows == (full,)


def test_transcript_probabilities_match_exhaustive_enumeration():
    # a(pi) from the density product equals the exact frequency over all
    # |G|^(N+1) input tuples, in rational arithmetic
    n, N, c = 2, 3, 1
    group = GroupSpec.boolean(n)
    rng = random.Random(11)
    for protocol in (
        zoo_protocol("parity-chain", n=n)(N + 1),
        random_table_protocol(group, N + 1, c, rng),
    ):
        freqs = transcript_frequencies(protocol, N + 1)
        assert sum(freqs.values()) == 1
        for messages, frequency in freqs.items():
            prob = Fraction(1)
            for i in range(N):
                fn = protocol.msg_fns[i]
                count = sum(
                    1
                    for x in range(group.size)
                    if fn(x, tuple(messages[:i]), 0) == messages[i]
                )
                prob *= Fraction(count, group.size)
            assert prob == frequency


@st.composite
def _small_protocols(draw):
    """(protocol, f) on F2^1, F2^2, Z_3 or Z_5 with N = 2 or 3 players and
    1- or 2-bit messages.  A streaming protocol shares one random table
    fn(x, prev[-1]) among its middle players (and, for 1-bit messages,
    sometimes the tail), so its player sets repeat; the streaming=False one
    reads prev[0] instead, which a set memoized under prev[-1] would get
    wrong."""
    group = draw(st.sampled_from([GroupSpec.boolean(1), GroupSpec.boolean(2),
                                  GroupSpec.cyclic_power(3, 1), GroupSpec.cyclic_power(5, 1)]))
    N, c = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    streaming = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table = [[rng.getrandbits(c) for _ in range(1 << c)] for _ in range(group.size)]
    tail = [[rng.getrandbits(1) for _ in range(1 << c)] for _ in range(group.size)]
    read = (lambda prev: prev[-1]) if streaming else (lambda prev: prev[0])

    def msg(x, prev, r):
        return table[x][read(prev) if prev else 0]

    def last(x, prev, r):
        return tail[x][read(prev)]

    shared_tail = streaming and c == 1 and draw(st.booleans())
    protocol = BroadcastProtocol(
        group=group, n_players=N + 1, message_bits=c,
        msg_fns=(msg,) * N + ((msg,) if shared_tail else (last,)),
        streaming=streaming,
    )
    f = DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float))
    return protocol, f


@settings(max_examples=80, deadline=None)
@given(_small_protocols(), st.integers(0, 2**16))
def test_selected_transcript_matches_exhaustive_enumeration(case, seed):
    protocol, f = case
    group, N = protocol.group, protocol.n_players - 1
    cfg = ReductionConfig(players=N, transcript_trials=12, seed=seed)
    D = Distribution.uniform(group)
    sel = sample_and_select_transcript(protocol, f, D, cfg, "exact")
    messages = sel.transcript.messages
    assert sel.transcript.a == transcript_frequencies(protocol, N + 1)[messages]
    assert sel.transcript.a == math.prod(sel.player_sets.densities)
    assert sel.transcript.b == pytest.approx(float(transcript_success(protocol, f.values)[messages]), abs=1e-9)
    for i, ind in enumerate(sel.player_sets.indicators):
        members = [x for x in range(group.size) if protocol.msg_fns[i](x, messages[:i], 0) == messages[i]]
        assert np.flatnonzero(ind.members).tolist() == members
        assert sel.player_sets.densities[i] == Fraction(len(members), group.size)
    tail = [protocol.msg_fns[N](x, messages, 0) for x in range(group.size)]
    assert sel.tail.h.values.tolist() == tail
    assert sel.player_sets_built + sel.player_set_hits == N * sel.candidates_evaluated
    # every evaluated candidate looks up all N player sets, which are shared by content
    rng, candidates = derived_rng(seed, "transcripts"), set()
    for _ in range(sel.trials_used):
        candidates.add(protocol.run(compiler._sample_inputs(group, D, N, rng)[1], 0)[0][:N])
    assert len(candidates) == sel.candidates_evaluated
    bitmaps = {tuple(protocol.msg_fns[i](x, messages[:i], 0) == messages[i] for x in range(group.size))
               for messages in candidates for i in range(N)}
    assert sel.player_sets_built == len(bitmaps)
    if not protocol.streaming:
        assert sel.message_calls == (N + 1) * (sel.trials_used + group.size * sel.candidates_evaluated)


@st.composite
def _player_set_cases(draw):
    """(protocol, f): a random table protocol (see _small_protocols), or a
    parity chain on F2^1..3 or a running sum on Z_3^1..2, linear machines
    whose players with other incoming states and messages hold equal sets."""
    kind = draw(st.sampled_from(["table", "parity-chain", "running-sum-mod-p"]))
    if kind == "table":
        return draw(_small_protocols())
    N = draw(st.integers(2, 6))
    if kind == "parity-chain":
        group = GroupSpec.boolean(draw(st.integers(1, 3)))
        protocol = zoo_protocol(kind, n=group.n)(N + 1)
    else:
        group = GroupSpec.cyclic_power(3, draw(st.integers(1, 2)))
        protocol = zoo_protocol(kind, n=group.n, p=3)(N + 1)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return protocol, DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float))


@settings(max_examples=60, deadline=None)
@given(_player_set_cases(), st.integers(0, 2**16))
def test_shared_player_sets_match_the_per_player_oracle(case, seed):
    protocol, f = case
    cfg = ReductionConfig(players=protocol.n_players - 1, transcript_trials=6, seed=seed)
    sel = sample_and_select_transcript(protocol, f, Distribution.uniform(protocol.group), cfg)
    ps = sel.player_sets
    # one indicator per distinct bitmap among the players
    assert len(ps.distinct) == len({ind.members.tobytes() for ind in ps.indicators})
    joint, B, S, weights = player_set_oracle(protocol, sel.transcript.messages)
    got_B, got_S, got_weights = heavy_set(ps, protocol.message_bits)
    assert np.allclose(ps.joint().coeffs, joint, rtol=0, atol=1e-12)
    assert got_B == B
    assert np.allclose(got_weights, weights, rtol=0, atol=1e-12)
    assert got_S.tolist() == S.tolist()


def _counted(protocol):
    """The protocol with every message function wrapped by one call counter
    (a function shared by several players stays shared).  A wrapper keeps
    the function's `initial` and drops its array form."""
    calls = [0]

    def count(fn):
        def wrapper(x, prev, r):
            calls[0] += 1
            return fn(x, prev, r)

        if hasattr(fn, "initial"):
            wrapper.initial = fn.initial
        return wrapper

    wrapped = {fn: count(fn) for fn in protocol.msg_fns}
    return replace(protocol, msg_fns=tuple(wrapped[fn] for fn in protocol.msg_fns)), calls


@pytest.mark.parametrize("function, family, n, params, cfg, variant, sets", [
    # the parity chain's players hold the two parity classes
    ("parity", "parity-chain", 6, {}, ReductionConfig(players=60, transcript_trials=8, target_q=1.0, seed=4),
     "exact_f2", 2),
    # reduce-f2's blend at seed 1: the four classes of (a.x, b.x), over 18 keys
    ("two-parity-blend", "two-parity-blend-chain", 13, {"a": 4382, "b": 8001},
     ReductionConfig(players=130, transcript_trials=2, seed=524232077), "approx_f2", 4),
])
def test_reduce_transforms_one_indicator_per_distinct_player_set(monkeypatch, function, family, n, params,
                                                                 cfg, variant, sets):
    transformed = []
    phi = NormalizedIndicator.phi  # each indicator's transform reads phi() once
    monkeypatch.setattr(NormalizedIndicator, "phi", lambda ind: transformed.append(ind.members.tobytes()) or phi(ind))
    res = reduce(zoo_protocol(family, n=n, **params), zoo_function(function, n=n, **params), None, cfg, variant)
    assert len(transformed) == len(set(transformed)) == res.report.player_sets_built == sets


def test_streaming_reduce_tabulates_each_message_function_once_per_state():
    # parity chain, n=6, N=60: one middle table per incoming state (0, 1; player one
    # reads the initial state 0) serves all 60 player sets, one more the tail, and
    # sampling reads the same tables; the sets are the two parity classes
    n, N = 6, 60
    protocol, calls = _counted(zoo_protocol("parity-chain", n=n)(N + 1))
    cfg = ReductionConfig(players=N, transcript_trials=8, target_q=1.0, seed=4)
    res = reduce(protocol, zoo_function("parity", n=n), None, cfg, "exact_f2")
    assert res.report.quality == 1.0
    assert calls[0] == 3 * 2**n
    assert res.report.message_calls == calls[0]
    assert res.report.player_sets_built == 2
    assert res.report.player_sets_built + res.report.player_set_hits == N * res.report.candidates_evaluated
    back = res.report.to_dict()
    assert back["message_calls"] == calls[0] and back["player_set_hits"] == res.report.player_set_hits

    # the tape search's calls are counted too: 4 tapes x 256 samples x 9 players
    def middle(x, prev, r):
        return (prev[-1] if prev else 0) ^ ((x & (3 if r == 1 else 1)).bit_count() & 1)

    gated, calls = _counted(BroadcastProtocol(
        group=GroupSpec.boolean(2), n_players=9, message_bits=1, msg_fns=(middle,) * 9,
        randomness_bits=2, streaming=True,
    ))
    res = reduce(gated, zoo_function("parity", n=2), None, ReductionConfig(players=8, seed=1), "exact_f2")
    assert res.report.r_star == 1
    assert res.report.message_calls == calls[0] > 4 * 256 * 9


@st.composite
def _walked_protocols(draw):
    """A streaming protocol with array forms (a zoo chain or the lifted
    running sum), or one of them wrapped per input with its forms dropped."""
    kind = draw(st.sampled_from(["parity", "blend", "running-sum"]))
    players = draw(st.integers(1, 12))
    if kind == "running-sum":
        n, p = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3, 5]))
        protocol = zoo_protocol("running-sum-mod-p", n=n, p=p)(players)
    else:
        n = draw(st.integers(1, 5))
        mask = st.integers(0, (1 << n) - 1)
        params = {"mask": draw(mask)} if kind == "parity" else {"a": draw(mask), "b": draw(mask)}
        name = "parity-chain" if kind == "parity" else "two-parity-blend-chain"
        protocol = zoo_protocol(name, n=n, **params)(players)
    return _counted(protocol)[0] if draw(st.booleans()) else protocol


@settings(max_examples=80, deadline=None)
@given(_walked_protocols(), st.data())
def test_table_walk_gives_the_messages_of_protocol_run(protocol, data):
    source = compiler._PlayerSetSource(protocol, 0)
    n, walked = protocol.n_players - 1, set()
    for _ in range(3):
        xs = data.draw(st.lists(st.integers(0, protocol.group.size - 1),
                                min_size=protocol.n_players, max_size=protocol.n_players))
        want = protocol.run(xs, 0)[0][:-1]
        got = source.transcript(xs)
        assert got == want and [type(m) for m in got] == [type(m) for m in want]
        walked |= {source._key(i, got) for i in range(n)}
    # the walk builds only the tables the candidates' player sets read
    assert set(source.tables) == walked
    assert source.message_calls == protocol.group.size * len(walked)


@pytest.mark.parametrize("batched", [False, True])
def test_table_walk_rejects_an_oversized_message_like_protocol_run(batched):
    def msg(x, prev, r):  # inputs of F2^2 as 1-bit messages: 2 and 3 do not fit
        return x

    if batched:
        msg.batch = lambda last, r: np.arange(4)
    protocol = BroadcastProtocol(group=GroupSpec.boolean(2), n_players=3, message_bits=1,
                                 msg_fns=(msg,) * 3, streaming=True)
    with pytest.raises(ValueError) as want:
        protocol.run([1, 3, 0])
    with pytest.raises(ValueError) as got:
        compiler._PlayerSetSource(protocol, 0).transcript([1, 3, 0])
    assert str(got.value) == str(want.value) == "player 1 message 3 does not fit in 1 bits"


def test_transcript_probability_check_can_fail(monkeypatch):
    from modsketch.compiler import InvariantViolation
    from modsketch.fourier import NormalizedIndicator

    # the search multiplies the sets' counts; the check recounts their members
    monkeypatch.setattr(NormalizedIndicator, "count", property(lambda ind: ind._count + 1))
    cfg = ReductionConfig(players=40, transcript_trials=4, seed=3)
    with pytest.raises(InvariantViolation, match="transcript-probability") as err:
        reduce(zoo_protocol("parity-chain", n=5), zoo_function("parity", n=5), None, cfg, "exact_f2")
    assert err.value.stage == "transcript-search"


def _assert_same_selection(got, want):
    assert got.transcript == want.transcript
    assert got.player_sets.densities == want.player_sets.densities
    for a, b in zip(got.player_sets.indicators, want.player_sets.indicators, strict=True):
        assert np.array_equal(a.members, b.members)
    assert np.array_equal(got.tail.h.values, want.tail.h.values)
    assert got.message_calls == want.message_calls


@st.composite
def _batched_searches(draw):
    """(protocol, f, mode, N) for a protocol whose message functions carry
    array forms: a zoo chain or a lifted random FSM."""
    kind = draw(st.sampled_from(["parity", "blend", "constant", "running-sum", "fsm"]))
    N = draw(st.integers(2, 8))
    if kind == "fsm":
        fsm = draw(random_fsms(binary_emit=True))
        protocol, group = fsm_to_players(fsm, N + 1), fsm.group
    elif kind == "running-sum":
        group = GroupSpec.cyclic_power(3, draw(st.integers(1, 3)))
        protocol = zoo_protocol("running-sum-mod-p", n=group.n, p=3)(N + 1)
    else:
        n = draw(st.integers(1, 5))
        group, masks = GroupSpec.boolean(n), st.integers(0, (1 << n) - 1)
        params = {"parity": {"mask": draw(masks)}, "blend": {"a": draw(masks), "b": draw(masks)},
                  "constant": {"value": draw(st.integers(0, 1))}}[kind]
        name = {"parity": "parity-chain", "blend": "two-parity-blend-chain", "constant": "constant"}[kind]
        protocol = zoo_protocol(name, n=n, **params)(N + 1)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    f = DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float))
    return protocol, f, "approx" if kind == "blend" else "exact", N


@settings(max_examples=60, deadline=None)
@given(_batched_searches(), st.integers(0, 2**16))
def test_array_forms_give_the_per_input_selection(case, seed):
    protocol, f, mode, N = case
    assert all(hasattr(fn, "batch") for fn in protocol.msg_fns)
    cfg = ReductionConfig(players=N, transcript_trials=6, seed=seed)
    D = Distribution.uniform(protocol.group)
    batched = sample_and_select_transcript(protocol, f, D, cfg, mode)
    per_x = sample_and_select_transcript(_counted(protocol)[0], f, D, cfg, mode)  # wrappers drop batch
    _assert_same_selection(batched, per_x)
    assert per_x.message_batches == 0 < batched.message_batches
    if protocol.group.size ** (N + 1) <= 4096:
        messages = batched.transcript.messages
        assert batched.transcript.a == transcript_frequencies(protocol, N + 1)[messages]


def test_array_form_of_the_wrong_shape_is_rejected():
    def msg(x, prev, r):
        return 0

    msg.batch = lambda last, r: np.zeros(1, dtype=np.int64)
    protocol = BroadcastProtocol(group=GroupSpec.boolean(2), n_players=3, message_bits=1,
                                 msg_fns=(msg,) * 3, streaming=True)
    with pytest.raises(CompilerError, match=r"player 0's batch form returned shape \(1,\), not \(4,\)"):
        sample_and_select_transcript(protocol, zoo_function("parity", n=2), Distribution.uniform(protocol.group),
                                     ReductionConfig(players=2, seed=0))


def test_fsm_over_the_table_cap_takes_the_per_input_path(monkeypatch):
    fsm = zoo_fsm("running-sum", n=3, p=3)
    f = zoo_function("mod-p-sum-zero", n=3, p=3)
    cfg = ReductionConfig(players=6, transcript_trials=6, seed=2)
    D = Distribution.uniform(fsm.group)
    batched = sample_and_select_transcript(fsm_to_players(fsm, 7), f, D, cfg)
    monkeypatch.setattr(protocol_module, "TRANSFORM_SIZE_LIMIT", 3 * 3 * 3 - 1)
    capped = fsm_to_players(fsm, 7)
    assert not any(hasattr(fn, "batch") for fn in capped.msg_fns)
    per_x = sample_and_select_transcript(capped, f, D, cfg)
    _assert_same_selection(per_x, batched)
    assert per_x.message_batches == 0 < batched.message_batches


def test_approx_encode_and_conversion_bounds():
    enc = approx_encode(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(np.abs(enc), 1.0)
    assert np.allclose(enc, np.exp(1j * np.array([0.0, 0.5, 1.0])))
    with pytest.raises(ValueError):
        approx_encode(np.array([1.5]))

    lo, hi = conversion_bounds(0.0)
    assert lo == hi == 1.0
    lo1, hi1 = conversion_bounds(1.0)
    assert lo1 == 0.5 and abs(hi1 - 2 / 3) < 1e-12
    assert lo1 <= math.cos(1.0) <= hi1
    assert abs(math.cos(1.0) - 0.5403023058681398) < 1e-15
    with pytest.raises(ValueError):
        conversion_bounds(1.5)


def test_conversion_bounds_grid():
    for i in range(201):
        z = -1.0 + i * 0.01
        lo, hi = conversion_bounds(z)
        assert lo - 1e-12 <= math.cos(z) <= hi + 1e-12


def test_minimax_boost_constant_function():
    spec = GroupSpec.boolean(4)
    f = DenseFunction(spec, np.zeros(16))
    family = zoo_protocol("constant", n=4, value=0)
    cfg = ReductionConfig(players=12, transcript_trials=4, target_q=1.0, seed=0)
    res = minimax_boost(f, family, cfg, rounds=1)
    assert res.min_success == 1
    assert all(p == 1 for p in res.per_x_success)


def test_minimax_boost_parity_and_weight_normalization():
    f = zoo_function("parity", n=6)
    family = zoo_protocol("parity-chain", n=6)
    cfg = ReductionConfig(players=60, transcript_trials=8, target_q=1.0, seed=9)
    res = minimax_boost(f, family, cfg, rounds=10)
    assert res.min_success >= Fraction(99, 100)
    assert len(res.per_x_success) == 64
    hedge = res.checks["hedge-regret"]
    assert hedge["ok"] and hedge["lhs"] <= hedge["rhs"]
    eta = min(0.5, math.sqrt(math.log(64) / 10))
    assert hedge["lhs"] == pytest.approx((1 - math.exp(-eta)) * sum(r.quality for r in res.round_reports))
    # exact per-x success of the mixture agrees with the collected reports
    assert len(res.mixture.entries) == 10


def test_minimax_boost_hedge_check_catches_false_quality(monkeypatch):
    from modsketch import compiler
    from modsketch.compiler import InvariantViolation, ReduceResult
    from modsketch.sketch import LinearJuntaF2

    f = zoo_function("parity", n=2)
    wrong = LinearJuntaF2(2, (0b11,), (1, 0))  # the negated parity: wrong on every x

    def lying_reduce(*args, **kwargs):
        return ReduceResult(wrong, SimpleNamespace(quality=1.0))

    monkeypatch.setattr(compiler, "_reduce", lying_reduce)  # each boost round's pipeline
    cfg = ReductionConfig(players=4, transcript_trials=2)
    with pytest.raises(InvariantViolation, match="hedge-regret"):
        minimax_boost(f, zoo_protocol("parity-chain", n=2), cfg, rounds=20)


def test_minimax_boost_input_validation():
    spec = GroupSpec.boolean(3)
    f = DenseFunction(spec, np.full(8, 0.5))
    family = zoo_protocol("constant", n=3)
    cfg = ReductionConfig(players=4, transcript_trials=2)
    with pytest.raises(ValueError):
        minimax_boost(f, family, cfg, rounds=2)  # non-binary target
    with pytest.raises(ValueError):
        minimax_boost(zoo_function("parity", n=3), family, cfg, rounds=0)
    # an approx round reports a squared error, which the Hedge check would sum as a success
    for variant in ("approx_f2", "approx_group"):
        with pytest.raises(ValueError, match="exact variant"):
            minimax_boost(zoo_function("parity", n=3), family, cfg, rounds=2, variant=variant)


def tape_mask_chain(n_players: int) -> BroadcastProtocol:
    """A streaming parity chain on F2^3 whose tape r picks the mask each
    player xors into the message.  No mask computes the target, bit 0 of
    the input sum, so every tape succeeds half the time and r* moves with
    D and with the sampling noise of its estimate."""
    masks = (0b011, 0b101, 0b110, 0b111)

    def step(x, prev, r):
        return (prev[-1] if prev else 0) ^ ((x & masks[r]).bit_count() & 1)

    return BroadcastProtocol(GroupSpec.boolean(3), n_players, 1, (step,) * n_players,
                             randomness_bits=2, streaming=True, name="tape-mask-chain")


BOOST_CASES = {
    "f2": (zoo_function("parity", n=4), zoo_protocol("parity-chain", n=4),
           ReductionConfig(players=40, transcript_trials=4, target_q=1.0), "exact_f2"),
    "z3": (zoo_function("mod-p-sum-zero", n=3, p=3), zoo_protocol("running-sum-mod-p", n=3, p=3),
           ReductionConfig(players=48, transcript_trials=4, target_q=1.0), "exact_group"),
    "tape": (DenseFunction(GroupSpec.boolean(3), (np.arange(8) & 1).astype(float)), tape_mask_chain,
             ReductionConfig(players=30, transcript_trials=4), "exact_f2"),
}
TAPE_EVAL_SAMPLES = 8  # few samples per tape estimate, so the tape case's r* moves with D and noise
PER_ROUND_COUNTERS = ("message_calls", "player_sets_built", "player_set_hits", "message_batches",
                      "subgroups_built")


def boost_by_fresh_reduces(f, source, cfg, rounds, variant):
    """minimax_boost's loop with every round a separate reduce call."""
    group, fv = f.group, f.real_values()
    eta = min(0.5, math.sqrt(math.log(group.size) / rounds))
    weights = np.full(group.size, 1.0 / group.size)
    corrects = np.zeros(group.size, dtype=np.int64)
    sketches, reports = [], []
    for t in range(rounds):
        D_t = Distribution(group, weights / weights.sum(), name=f"boost-round-{t}")
        res = reduce(source, f, D_t, replace(cfg, seed=derive_seed(cfg.seed, f"boost-{t}")), variant)
        sketches.append(res.sketch)
        reports.append(res.report)
        correct = (np.asarray(res.sketch.eval_all()) == fv).astype(np.float64)
        corrects += correct.astype(np.int64)
        weights = weights * np.exp(-eta * correct)
        weights = weights / weights.sum()
    lhs = (1 - math.exp(-eta)) * sum(r.quality for r in reports)
    rhs = eta * int(corrects.min()) + math.log(group.size)
    checks = {"hedge-regret": {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + compiler.BOUNDARY_TOL}}
    per_x = [Fraction(int(k), rounds) for k in corrects]
    return RandomizedSketch.uniform_mixture(sketches, seed=cfg.seed), per_x, checks, reports


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(BOOST_CASES)), st.integers(0, 2**16), st.integers(1, 4))
def test_minimax_boost_matches_fresh_reduce_per_round(name, seed, rounds):
    f, source, cfg, variant = BOOST_CASES[name]
    cfg = replace(cfg, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "R_EVAL_SAMPLES", TAPE_EVAL_SAMPLES)
        res = minimax_boost(f, source, cfg, rounds, variant)
        mixture, per_x, checks, reports = boost_by_fresh_reduces(f, source, cfg, rounds, variant)
    assert serialize_sketch(res.mixture) == serialize_sketch(mixture)
    assert res.per_x_success == per_x
    assert res.checks == checks
    skip = ("timings",) + PER_ROUND_COUNTERS
    for got, want in zip(res.round_reports, reports, strict=True):
        assert {k: v for k, v in got.to_dict().items() if k not in skip} == \
            {k: v for k, v in want.to_dict().items() if k not in skip}
        # each round counts its own lookups only: one per player and candidate
        assert got.player_sets_built + got.player_set_hits == cfg.players * got.candidates_evaluated


def test_minimax_boost_shares_tables_within_one_call_only():
    # the boost-zp shape: Z_3^7 at the mixing threshold, four rounds
    f = zoo_function("mod-p-sum-zero", n=7, p=3)
    family = zoo_protocol("running-sum-mod-p", n=7, p=3)
    cfg = ReductionConfig(players=111, transcript_trials=4, target_q=1.0, seed=1)
    first, again = (minimax_boost(f, family, cfg, 4, "exact_group") for _ in range(2))
    head, *rest = first.round_reports
    assert head.message_batches > 0
    assert all(r.message_batches < head.message_batches for r in rest)
    assert all(r.player_sets_built < head.player_sets_built for r in rest)
    counts = [[getattr(r, c) for c in PER_ROUND_COUNTERS] for r in first.round_reports]
    assert counts == [[getattr(r, c) for c in PER_ROUND_COUNTERS] for r in again.round_reports]


def test_minimax_boost_shares_annihilators_within_one_call_only():
    # the boost-zp shape: the tied characters 1093 and 2186 (its negative) both
    # reach the heavy set, and every round keeps 1093, the lex-first of the
    # pair; one annihilator, so one subgroup
    f = zoo_function("mod-p-sum-zero", n=7, p=3)
    family = zoo_protocol("running-sum-mod-p", n=7, p=3)
    cfg = ReductionConfig(players=111, transcript_trials=4, target_q=1.0, seed=3025046857)
    first, again = (minimax_boost(f, family, cfg, 4, "exact_group") for _ in range(2))
    assert [r.generators for r in first.round_reports] == [[1093]] * 4
    held = [sketch.subgroup for _, sketch in first.mixture.entries]
    assert all(sub is held[0] for sub in held)
    assert len(held[0]) == 729
    assert [r.subgroups_built for r in first.round_reports] == [1, 0, 0, 0]
    # a second call builds its own subgroup: the memo lives for one call
    other = again.mixture.entries[0][1].subgroup
    assert other is not held[0] and other == held[0]
    assert [r.subgroups_built for r in again.round_reports] == [1, 0, 0, 0]


def _counting_annihilator(mp) -> list:
    """Patch compiler.annihilator to record its calls; returns the record."""
    calls, inner = [], compiler.annihilator

    def counted(group, gammas):
        calls.append(list(gammas))
        return inner(group, gammas)

    mp.setattr(compiler, "annihilator", counted)
    return calls


def _recording(mp, owner, attr) -> list:
    """Patch owner.attr to record the positional arguments of its calls;
    returns the record."""
    calls, inner = [], getattr(owner, attr)

    def recorded(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    mp.setattr(owner, attr, recorded)
    return calls


def test_boost_rounds_with_one_span_compute_one_annihilator(monkeypatch):
    # the boost-zp shape, whose four rounds all keep the generator 1093
    from modsketch import fourier

    calls = _counting_annihilator(monkeypatch)
    extracted = _recording(monkeypatch, compiler, "extract_dissociated")
    spanned = _recording(monkeypatch, compiler, "span_mask")
    transforms = _recording(monkeypatch, fourier, "transform")
    per_round = []
    reduce_round = compiler._reduce

    def counted_round(*args, **kwargs):
        before = len(transforms)
        res = reduce_round(*args, **kwargs)
        per_round.append(len(transforms) - before)
        return res

    monkeypatch.setattr(compiler, "_reduce", counted_round)
    f = zoo_function("mod-p-sum-zero", n=7, p=3)
    family = zoo_protocol("running-sum-mod-p", n=7, p=3)
    cfg = ReductionConfig(players=111, transcript_trials=4, target_q=1.0, seed=3025046857)
    res = minimax_boost(f, family, cfg, 4, "exact_group")
    assert [r.subgroups_built for r in res.round_reports] == [1, 0, 0, 0]
    assert calls == [[1093]]
    # the rounds share S = {0, 1093, 2186} in heaviest_first order: one greedy and one span per call
    assert all(r.heavy_set_members == [0, 1093, 2186] for r in res.round_reports)
    assert len(extracted) == 1 and len(spanned) == 1
    # a round transforms only the player sets it builds and, when its tail (keyed by the
    # last message, on one tape) is new, h and (-1)^h once; a repeat round transforms no tail
    tails = [(r.r_star, r.transcript[-1]) for r in res.round_reports]
    new = [tail not in tails[:t] for t, tail in enumerate(tails)]
    assert not all(new)
    assert per_round == [r.player_sets_built + 2 * fresh for r, fresh in zip(res.round_reports, new)]


def test_a_streaming_source_keeps_each_tail_with_its_transforms():
    protocol = zoo_protocol("parity-chain", n=4)(9)
    messages = (1,) * 8
    source = compiler._PlayerSetSource(protocol, 0)
    # each tail is checked once per (last function, incoming message, mode) and kept
    tail = source.tail(messages, "exact")
    assert source.tail(messages, "exact") is tail and source.tail(messages, "approx") is not tail
    assert source.tail((1,) * 7 + (0,), "exact") is not tail and len(source.tails) == 3
    # operand(view) is the transform of that view, made once and kept
    hat, signed = tail.operand(), tail.operand("signed")
    assert tail.operand() is hat and tail.operand("signed") is signed
    assert np.array_equal(hat.coeffs, compiler.fourier.transform(tail.h).coeffs)
    assert np.array_equal(signed.coeffs, compiler.fourier.transform(DenseFunction(tail.h.group, 1 - 2 * tail.h.values)).coeffs)
    # a protocol that is not streaming reads all of prev, so its tails are not kept
    other = compiler._PlayerSetSource(replace(protocol, streaming=False), 0)
    assert other.tail(messages, "exact") is not other.tail(messages, "exact") and not other.tails


@pytest.mark.parametrize("variant, f, family, params", [
    ("exact_f2", "parity", "parity-chain", {"n": 4}),
    ("exact_f2", "majority", "parity-chain", {"n": 4}),
    ("approx_f2", "two-parity-blend", "two-parity-blend-chain", {"n": 4, "a": 3, "b": 12}),
])
def test_a_plain_reduce_transforms_the_selected_tail_once(monkeypatch, variant, f, family, params):
    # the conditional quality and the junta both read h's transform: one transform serves both
    transforms = _recording(monkeypatch, compiler.fourier, "transform")
    juntas = _recording(monkeypatch, compiler, "build_junta")
    cfg = ReductionConfig(players=40, transcript_trials=4, seed=3)
    reduce(zoo_protocol(family, **params), zoo_function(f, **params), None, cfg, variant)
    ((tail, *_),) = juntas
    assert sum(args[0].values is tail.h.values for args in transforms) == 1


def test_structure_memo_is_keyed_by_the_heaviest_first_order(monkeypatch):
    extracted = _recording(monkeypatch, compiler, "extract_dissociated")
    g, memo = GroupSpec((3, 3)), {}
    weights = np.zeros(9)
    weights[[1, 3, 4]] = [3.0, 2.0, 1.0]
    first = build_invariant_structure(g, [1, 3, 4], weights, "subgroup", structures=memo)
    # other weights with the same order, S listed in another order: the stored structure
    weights[[1, 3, 4]] = [5.0, 4.0, 0.5]
    assert build_invariant_structure(g, [4, 3, 1], weights, "subgroup", structures=memo) is first
    assert len(extracted) == 1 and len(memo) == 1
    # another order is another key; here it spans the same group
    weights[[1, 3, 4]] = [1.0, 2.0, 3.0]
    other = build_invariant_structure(g, [1, 3, 4], weights, "subgroup", structures=memo)
    assert len(extracted) == 2 and len(memo) == 2
    assert other is not first and other.invariant == first.invariant and other.generators == [4, 3]
    # with no memo given, each call builds its own
    assert build_invariant_structure(g, [1, 3, 4], weights, "subgroup") is not other
    assert len(extracted) == 3 and len(memo) == 2


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
def test_minimax_boost_rejects_eta_without_a_hedge_bound(monkeypatch, eta):
    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(compiler, "_reduce", no_round)
    cfg = ReductionConfig(players=4, transcript_trials=2)
    with pytest.raises(ValueError, match="eta"):
        minimax_boost(zoo_function("parity", n=3), zoo_protocol("parity-chain", n=3), cfg,
                      rounds=2, eta=eta)


def test_minimax_boost_keys_shared_sources_by_tape(monkeypatch):
    monkeypatch.setattr(compiler, "R_EVAL_SAMPLES", TAPE_EVAL_SAMPLES)
    f, source, cfg, variant = BOOST_CASES["tape"]
    res = minimax_boost(f, source, replace(cfg, seed=1), 4, variant)
    tapes = [r.r_star for r in res.round_reports]
    assert len(set(tapes)) > 1
    for t, r in enumerate(res.round_reports):
        # a round on a tape no earlier round selected builds every distinct set afresh
        if r.r_star not in tapes[:t]:
            assert r.player_sets_built > 0


def test_coset_constancy_check_can_fail(monkeypatch):
    from modsketch import fourier
    from modsketch.compiler import InvariantViolation

    def uneven(joint, h, keep=None):
        w = fourier.averaged_shift(joint, h, keep)
        if keep is None:
            return w
        vals = w.real_values(tol=1e-7)
        odd = np.arange(len(vals)) & 1  # varies inside each parity bucket
        return DenseFunction(w.group, np.where(vals > 0.5, vals - 1e-6 * odd, vals + 1e-6 * odd))

    f = zoo_function("parity", n=4)
    cfg = ReductionConfig(players=40, transcript_trials=4, target_q=1.0, seed=3)
    monkeypatch.setattr(compiler, "averaged_shift", uneven)
    with pytest.raises(InvariantViolation, match="coset-constancy") as err:
        reduce(zoo_protocol("parity-chain", n=4), f, None, cfg, "exact_f2")
    assert err.value.stage == "build-junta"


def _returning(corrupt):
    """A patch of a stage whose output is corrupted."""
    return lambda inner: lambda *args, **kwargs: corrupt(inner(*args, **kwargs))


def _without_search_gate(target):
    """A patch of the transcript search that drops its own gate on target_q
    or target_eps, leaving the final budget check to catch the miss."""
    return lambda inner: lambda protocol, f, D, cfg, *rest: inner(protocol, f, D, replace(cfg, **{target: None}), *rest)


_PARITY = (("parity", {"n": 4}), ("parity-chain", {"n": 4}), 40)
_SUM_ZERO = (("mod-p-sum-zero", {"n": 3, "p": 3}), ("running-sum-mod-p", {"n": 3, "p": 3}), 48)
_MASKS = {"n": 4, "a": 3, "b": 12}
_BLEND = (("two-parity-blend", _MASKS), ("two-parity-blend-chain", {**_MASKS, "levels": 2}), 80)  # error 0.08

# check -> (stage, variant, (function, protocol, N), reduction settings, (patched stage, patch))
FAILING_CHECKS = {
    "heavy-majority": ("heavy-set", "exact_f2", _PARITY, {},
                       ("heavy_set", _returning(lambda res: (res[0][:len(res[0]) // 2 - 1], *res[1:])))),
    "cost-bound": ("structure", "exact_f2", _PARITY, {},
                   ("build_invariant_structure",  # parity's one generator, 65 > 32(c + 1)
                    _returning(lambda st: replace(st, generators=st.generators * 65)))),
    "complexity-bound": ("structure", "exact_group", _SUM_ZERO, {},
                         ("build_invariant_structure",
                          _returning(lambda st: replace(st, sketch=SimpleNamespace(post=(0,) * 3 ** (st.cost + 1)))))),
    # parity-chain on F2^4, N = 40: every player is heavy, so the bounds read
    # 16 * 2^(-40/4) (heavy) and 16 * 2^(-40/8) = 0.5 (player)
    "mixing-heavy-bound": ("mixing", "exact_f2", _PARITY, {}, ("mixing_gap", _returning(lambda gap: 0.25))),
    "mixing-player-bound": ("mixing", "exact_f2", _PARITY, {}, ("mixing_gap", _returning(lambda gap: 1.0))),
    "quality-transfer": ("quality", "exact_f2", _PARITY, {},
                         ("build_junta", _returning(lambda junta: replace(junta, quality=0.0)))),
    # the constant protocol succeeds on half of F2^4; at N = 80 the budget is 1 - 16 * 2^(-10)
    "success-budget": ("quality", "exact_f2", (_PARITY[0], ("constant", {"n": 4}), 80), {"target_q": 1.0},
                       ("sample_and_select_transcript", _without_search_gate("target_q"))),
    "error-conversion-chain": ("quality", "approx_f2", _BLEND, {},
                               ("build_junta", _returning(lambda junta: replace(junta, quality=1.0)))),
    "error-transfer": ("quality", "approx_f2", _BLEND, {},  # rhs 1.5 b + 3 gap with b = gap = 0
                       ("sample_and_select_transcript",
                        _returning(lambda sel: replace(sel, transcript=replace(sel.transcript, b=0.0))))),
    # error 0.08 against 2 * 0 + 16 * 2^(-10)
    "error-budget": ("quality", "approx_f2", _BLEND, {"target_eps": 0.0},
                     ("sample_and_select_transcript", _without_search_gate("target_eps"))),
}


@pytest.mark.parametrize("check", sorted(FAILING_CHECKS))
def test_report_checks_can_fail(tmp_path, capsys, monkeypatch, check):
    import json

    from modsketch.cli import main
    from modsketch.compiler import InvariantViolation

    stage, variant, (f, family, players), settings, (attr, patch) = FAILING_CHECKS[check]
    monkeypatch.setattr(compiler, attr, patch(getattr(compiler, attr)))
    cfg = ReductionConfig(players=players, transcript_trials=4, seed=3, **settings)
    with pytest.raises(InvariantViolation, match=f"{check}: ") as err:
        reduce(zoo_protocol(family[0], **family[1]), zoo_function(f[0], **f[1]), None, cfg, variant)
    assert err.value.stage == stage
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "reduce", "variant": variant,
        "function": {"name": f[0], "params": f[1]},
        "protocol": {"name": family[0], "params": family[1]},
        "reduction": {"players": players, "trials": 4, **settings},
    }))
    assert main(["reduce", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"stage failure: [{stage}] {check}: ")


def test_f2_reduces_and_boosts_build_no_coordinate_matrix(monkeypatch):
    # F2 element arithmetic is xor: no |G| x n coordinate matrix past the DFT blocks' own
    coords_matrix = GroupSpec.coords_matrix

    def small_only(spec):
        assert spec.size <= 32, f"coordinate matrix of {spec!r} built"
        return coords_matrix(spec)

    monkeypatch.setattr(GroupSpec, "coords_matrix", small_only)
    n, a, b = 10, 0b1100110011, 0b0101010101
    for fn, proto, variant, params in (("parity", "parity-chain", "exact_f2", {}),
                                       ("majority", "parity-chain", "exact_f2", {}),
                                       ("two-parity-blend", "two-parity-blend-chain", "approx_f2", {"a": a, "b": b})):
        cfg = ReductionConfig(players=10 * n, transcript_trials=2, seed=5)
        reduce(zoo_protocol(proto, n=n, **params), zoo_function(fn, n=n, **params), None, cfg, variant)
    cfg = ReductionConfig(players=10 * n, transcript_trials=2, target_q=1.0, seed=5)
    minimax_boost(zoo_function("parity", n=n), zoo_protocol("parity-chain", n=n), cfg, 2, "exact_f2")


def test_message_tables_build_no_coordinate_matrix(monkeypatch):
    # the array forms walk the digits; mod-p-sum-zero reads the matrix, so targets come first
    cases = [(zoo_protocol("running-sum-mod-p", n=8, p=3), zoo_function("mod-p-sum-zero", n=8, p=3)),
             (zoo_protocol("state-passing", fsm="running-sum", n=12, p=2),
              zoo_function("mod-p-sum-zero", n=12, p=2))]
    rng = random.Random(11)
    group = GroupSpec((3, 2, 5, 4))
    moves = {(s, j, d): rng.randrange(3) for s in range(3) for j, m in enumerate(group.moduli) for d in range(1, m)}
    fsm = StreamFSM(group=group, n_states=3, initial=1, step=lambda s, j, d: moves[s, j, d], emit=lambda s: s % 2)
    coords_matrix = GroupSpec.coords_matrix

    def small_only(spec):
        assert spec.size <= DFT_BLOCK_ORDER, f"coordinate matrix of {spec!r} built"
        return coords_matrix(spec)

    monkeypatch.setattr(GroupSpec, "coords_matrix", small_only)
    for family, f in cases:
        cfg = ReductionConfig(players=40, transcript_trials=4, seed=5)
        sel = sample_and_select_transcript(family(41), f, Distribution.uniform(f.group), cfg)
        assert sel.message_batches > 0
    for fn in fsm_to_players(fsm, 3).msg_fns[1:]:
        for state in (None, 0, 1, 2):
            prev = () if state is None else (state,)
            assert fn.batch(state, 0).tolist() == [fn(x, prev, 0) for x in range(group.size)]


def test_report_serializes_to_plain_json():
    import json

    f = zoo_function("parity", n=5)
    family = zoo_protocol("parity-chain", n=5)
    cfg = ReductionConfig(players=50, transcript_trials=8, target_q=1.0, seed=13)
    res = reduce(family, f, None, cfg, "exact_f2")
    text = json.dumps(res.report.to_dict())
    back = json.loads(text)
    assert back["cost"] == 1
    assert back["transcript_probability"] == f"1/{2**50}"
    assert back["checks"]["quality-transfer"]["ok"] is True


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.integers(0, 12), st.integers(0, 2**32))
def test_sample_inputs_matches_group_add_fold(moduli, n_uniform, seed):
    # the rng draws are those of one D.sample and n_uniform randrange calls,
    # and the last input is x minus the fold of the uniform ones
    group = GroupSpec(moduli)
    D = Distribution.uniform(group)
    x, xs = compiler._sample_inputs(group, D, n_uniform, random.Random(seed))
    draw = random.Random(seed)
    assert x == D.sample(draw, 1)[0]
    assert xs[:-1] == [draw.randrange(group.size) for _ in range(n_uniform)]
    acc = 0
    for xi in xs[:-1]:
        acc = group_add(moduli, acc, xi)
    assert xs[-1] == group_sub(moduli, x, acc)
    assert type(xs[-1]) is int


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_bucket_sums_and_extremes_match_scatter_oracle(n_buckets, data):
    # ids leave some buckets empty (first, middle or last); sums are
    # bincount's, extremes come from one stable sort of the ids
    ids = np.asarray(data.draw(st.lists(st.integers(0, n_buckets - 1), min_size=1, max_size=60)))
    values = np.asarray(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=len(ids), max_size=len(ids))))
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(n_buckets))
    sums, mins, maxs = bucket_reduce(ids, n_buckets, values)
    got_mins, got_maxs = compiler._bucket_extremes(values, order, starts)
    assert np.bincount(ids, weights=values, minlength=n_buckets).tobytes() == sums.tobytes()
    assert got_mins.tobytes() == mins.tobytes() and got_maxs.tobytes() == maxs.tobytes()
