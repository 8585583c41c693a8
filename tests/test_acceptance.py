"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is either trivially forced, verified against
an independent brute-force oracle from oracles.py, or computed exactly in
rational arithmetic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from modsketch.algebra import GroupSpec
from modsketch.compiler import (
    PlayerSets,
    ReductionConfig,
    build_invariant_structure,
    conversion_bounds,
    heavy_set,
    minimax_boost,
    reduce,
    sample_and_select_transcript,
)
from modsketch.fourier import (
    DenseFunction,
    chang_sum,
    convolve,
    extract_dissociated,
    annihilator,
    is_dissociated,
    mixing_gap,
    normalized_indicator,
    transform,
)
from modsketch.prg import RowTemplate, block_parity_counter, derandomized_apply, fsm_distance
from modsketch.protocol import BroadcastProtocol
from modsketch.sketch import Distribution, LinearJuntaF2, ZpJunta, apply_stream
from modsketch.zoo import zoo_function, zoo_protocol

from oracles import (
    accumulate_stream,
    exhaustive_annihilator,
    is_dissociated_bruteforce,
    naive_dft,
    naive_rank_masks,
    naive_wht,
    shift_average_oracle,
    transcript_frequencies,
)

_module_started = time.perf_counter()


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_end_to_end_parity():
    started = time.perf_counter()
    f = zoo_function("parity", n=8)
    family = zoo_protocol("parity-chain", n=8)
    cfg = ReductionConfig(players=80, transcript_trials=64, target_q=1.0, seed=42)
    res = reduce(family, f, None, cfg, "exact_f2")
    elapsed = time.perf_counter() - started
    r = res.report
    ok = (
        r.cost == 1
        and r.cost <= 32 * (r.message_bits + 1) == 64
        and r.quality >= 0.99
        and elapsed < 30.0
    )
    _report(
        1,
        ok,
        f"parity/F2^8/N=80: k={r.cost} (bound 64), success={r.quality:.6f}, "
        f"runtime={elapsed:.2f}s < 30s",
    )


def _random_table_protocol(group, n_players, c, rng):
    fns = []
    for _ in range(n_players - 1):
        table = [[rng.getrandbits(c) for _ in range(1 << c)] for _ in range(group.size)]
        fns.append(lambda x, prev, r, t=table: t[x][prev[-1] if prev else 0])
    tail = [[rng.getrandbits(1) for _ in range(1 << c)] for _ in range(group.size)]
    fns.append(lambda x, prev, r, t=tail: t[x][prev[-1] if prev else 0])
    return BroadcastProtocol(
        group=group, n_players=n_players, message_bits=c,
        msg_fns=tuple(fns), streaming=True, name="random-table",
    )


def _masked_chain_protocol(group, n_players, masks, rng):
    fns = []
    for i in range(n_players - 1):
        m = masks[i % len(masks)]
        fns.append(
            lambda x, prev, r, mm=m: (prev[-1] if prev else 0)
            ^ ((x & mm).bit_count() & 1)
        )
    tail = [[rng.getrandbits(1) for _ in range(2)] for _ in range(group.size)]
    fns.append(lambda x, prev, r, t=tail: t[x][prev[-1]])
    return BroadcastProtocol(
        group=group, n_players=n_players, message_bits=1,
        msg_fns=tuple(fns), streaming=True, name="masked-chain",
    )


def test_criterion_02_quality_transfer_twenty_instances():
    worst_margin = math.inf
    for trial in range(20):
        rng = random.Random(9000 + trial)
        n = rng.choice([4, 5, 6])
        group = GroupSpec.boolean(n)
        f = DenseFunction(
            group, np.array([rng.getrandbits(1) for _ in range(group.size)], dtype=float)
        )
        if trial % 2 == 0:
            N = rng.choice([12, 16, 20])
            protocol = _random_table_protocol(group, N + 1, rng.choice([1, 2]), rng)
        else:
            N = 40
            masks = [rng.getrandbits(n) or 1, rng.getrandbits(n) or 1]
            protocol = _masked_chain_protocol(group, N + 1, masks, rng)
        cfg = ReductionConfig(players=N, transcript_trials=16, seed=trial)
        res = reduce(protocol, f, None, cfg, "exact_f2")
        r = res.report
        margin = r.quality - (r.transcript_quality - r.mixing_gap)
        worst_margin = min(worst_margin, margin)
        assert margin >= -1e-9, f"instance {trial}: transfer violated by {-margin}"
    _report(
        2,
        worst_margin >= -1e-9,
        f"success >= b(pi) - gap on 20/20 runs; worst margin {worst_margin:.3e}",
    )


def test_criterion_03_chang_suite():
    rng = random.Random(77)
    spec = GroupSpec.boolean(8)
    violations = 0
    worst_slack = math.inf
    for _ in range(500):
        count = rng.randrange(64, 257)  # density >= 1/4
        members = rng.sample(range(256), count)
        ind = normalized_indicator(spec, members)
        gammas: list[int] = []
        while len(gammas) < rng.randrange(1, 9):
            cand = rng.randrange(1, 256)
            if naive_rank_masks(gammas + [cand], 8) == len(gammas) + 1:
                gammas.append(cand)
        total = chang_sum(ind, gammas)
        bound = 8 * math.log2(1 / ind.density)
        worst_slack = min(worst_slack, bound - total)
        if total > bound + 1e-9:
            violations += 1
    _report(
        3,
        violations == 0,
        f"500 trials, 0 violations of sum <= 8*log2(1/alpha); "
        f"smallest slack {worst_slack:.4f}",
    )


def test_criterion_04_mixing_claim_with_enumeration_oracle():
    rng = random.Random(55)
    n, N, c = 4, 40, 1
    spec = GroupSpec.boolean(n)
    bound = spec.size * 2 ** (-N / 8)
    assert bound == 16 * 2**-5
    worst_gap = 0.0
    worst_mismatch = 0.0
    nonzero_gaps = 0
    for inst in range(100):
        member_lists = []
        indicators = []
        for i in range(N):
            if i == 0 and inst % 3 == 0:
                members = [rng.randrange(16)]  # density exactly 2^(-2(c+1))
            else:
                # odd size >= 9: density >= 1/2 and every Fourier
                # coefficient is a nonzero integer multiple of 1/|A|,
                # so the shift products stay nonzero
                count = rng.choice([9, 11, 13, 15])
                members = sorted(rng.sample(range(16), count))
            member_lists.append(members)
            indicators.append(normalized_indicator(spec, members))
        hp_vals = np.array([1.0 if rng.getrandbits(1) else -1.0 for _ in range(16)])
        hp = DenseFunction(spec, hp_vals)
        ps = PlayerSets(indicators)
        B, S, weights = heavy_set(ps, c)
        structure = build_invariant_structure(spec, S, weights, "subspace")
        gap = mixing_gap(ps.joint(), structure.dual, hp)
        # independent oracle: both expectations by stepwise naive convolution
        from modsketch.fourier import averaged_shift

        plain_lib = averaged_shift(ps.joint(), hp).values
        shifted_lib = averaged_shift(ps.joint(), hp, structure.dual).values
        plain = shift_average_oracle(spec.moduli, member_lists, hp_vals)
        shifted = shift_average_oracle(
            spec.moduli, member_lists, hp_vals, structure.invariant.elements()
        )
        mismatch = max(
            float(np.max(np.abs(plain_lib - plain))),
            float(np.max(np.abs(shifted_lib - shifted))),
            abs(gap - float(np.max(np.abs(plain - shifted)))),
        )
        worst_mismatch = max(worst_mismatch, mismatch)
        worst_gap = max(worst_gap, gap)
        nonzero_gaps += gap > 0
        assert mismatch < 1e-9
        assert gap <= bound + 1e-9
    _report(
        4,
        worst_gap <= bound + 1e-9 and worst_mismatch < 1e-9,
        f"100 instances ({nonzero_gaps} with nonzero gap): max gap {worst_gap:.3e} "
        f"<= 2^4*2^-5 = {bound}, oracle mismatch <= {worst_mismatch:.2e}",
    )


def test_criterion_05_fourier_core():
    rng = np.random.default_rng(12)
    # fast WHT vs the defining sum at n = 10
    spec10 = GroupSpec.boolean(10)
    f10 = DenseFunction(spec10, rng.normal(size=1024))
    wht_err = float(np.max(np.abs(transform(f10).coeffs - naive_wht(f10.values))))
    # group DFT vs the defining double sum, mixed moduli up to |G| = 4096
    dft_err = 0.0
    for moduli in ((6, 4, 4), (12, 18), (16, 8, 4, 2, 4)):
        spec = GroupSpec(moduli)
        f = DenseFunction(spec, rng.normal(size=spec.size))
        dft_err = max(
            dft_err,
            float(np.max(np.abs(transform(f).coeffs - naive_dft(moduli, f.values)))),
        )
    # Parseval and the convolution theorem on 100 random functions each
    parseval_err = conv_err = 0.0
    for spec in (GroupSpec.boolean(6), GroupSpec((6, 4, 3))):
        for _ in range(50):
            f = DenseFunction(spec, rng.normal(size=spec.size))
            g = DenseFunction(spec, rng.normal(size=spec.size))
            sp = transform(f)
            parseval_err = max(
                parseval_err, abs(sp.energy() - float(np.mean(f.values**2)))
            )
            lhs = transform(convolve(f, g)).coeffs
            rhs = sp.coeffs * transform(g).coeffs
            conv_err = max(conv_err, float(np.max(np.abs(lhs - rhs))))
    ok = max(wht_err, dft_err, parseval_err, conv_err) < 1e-9
    _report(
        5,
        ok,
        f"WHT err {wht_err:.2e}, DFT err {dft_err:.2e} (|G| up to 4096, mixed), "
        f"Parseval {parseval_err:.2e}, convolution {conv_err:.2e}, all < 1e-9",
    )


def test_criterion_06_approximate_pipeline_and_conversion():
    n = 6
    a_mask, b_mask = 0b000111, 0b111000
    f = zoo_function("two-parity-blend", n=n, a=a_mask, b=b_mask)
    family = zoo_protocol("two-parity-blend-chain", n=n, a=a_mask, b=b_mask, levels=5)
    # the protocol's exact epsilon: per-input squared quantization error
    quantized = np.round(f.values * 4) / 4
    eps = float(np.max((quantized - f.values) ** 2))
    assert abs(eps - 0.01) < 1e-12
    cfg = ReductionConfig(players=60, transcript_trials=32, target_eps=eps, seed=3)
    res = reduce(family, f, None, cfg, "approx_f2")
    err = res.report.quality
    budget = 2 * eps + 0.02

    grid_violations = sum(
        1
        for i in range(201)
        if not (
            conversion_bounds(-1.0 + i * 0.01)[0] - 1e-12
            <= math.cos(-1.0 + i * 0.01)
            <= conversion_bounds(-1.0 + i * 0.01)[1] + 1e-12
        )
    )
    ok = err <= budget and grid_violations == 0
    _report(
        6,
        ok,
        f"c=2 protocol at n=6 with exact eps={eps}: junta error {err:.6f} <= "
        f"2*eps+0.02 = {budget}; cosine sandwich 201-point grid violations: {grid_violations}",
    )


def test_criterion_07_group_pipeline_and_subroutine_oracles():
    f = zoo_function("mod-p-sum-zero", n=4, p=3)
    family = zoo_protocol("running-sum-mod-p", n=4, p=3)
    cfg = ReductionConfig(players=64, transcript_trials=32, target_q=1.0, seed=7)
    res = reduce(family, f, None, cfg, "exact_group")
    r = res.report
    pipeline_ok = r.complexity <= 3 and r.quality >= 0.99

    # exhaustive subroutine oracles at |G| <= 4096
    rng = random.Random(21)
    oracle_ok = True
    for moduli in ((6, 6), (4, 4, 4), (8, 8, 8, 8)):
        spec = GroupSpec(moduli)
        for _ in range(8):
            gammas = [rng.randrange(spec.size) for _ in range(rng.randrange(0, 3))]
            sub = annihilator(spec, gammas)
            oracle_ok &= list(sub.elements) == exhaustive_annihilator(moduli, gammas)
            oracle_ok &= sub.verify_closed()
            k = len(extract_dissociated(spec, gammas, [1.0] * len(gammas)))
            oracle_ok &= len(sub) >= spec.size / spec.exponent**k
        for _ in range(8):
            k = rng.randrange(1, 5)
            gammas = [rng.randrange(spec.size) for _ in range(k)]
            oracle_ok &= is_dissociated(spec, gammas) == is_dissociated_bruteforce(
                moduli, gammas
            )
    _report(
        7,
        pipeline_ok and oracle_ok,
        f"Z_3^4 running-sum N=64: |G/H|={r.complexity} <= 3, success={r.quality:.4f} "
        f">= 0.99; annihilator/dissociated oracles up to |G|=4096: {'ok' if oracle_ok else 'FAIL'}",
    )


def test_criterion_08_bruteforce_transcript_equivalence():
    n, N, c = 2, 3, 1
    group = GroupSpec.boolean(n)
    rng = random.Random(13)
    checked = 0
    for protocol in (
        zoo_protocol("parity-chain", n=n)(N + 1),
        _random_table_protocol(group, N + 1, c, rng),
    ):
        freqs = transcript_frequencies(protocol, N + 1)  # all |G|^(N+1) tuples
        assert sum(freqs.values()) == 1
        for messages, frequency in freqs.items():
            prob = Fraction(1)
            for i in range(N):
                fn = protocol.msg_fns[i]
                count = sum(
                    1 for x in range(group.size)
                    if fn(x, tuple(messages[:i]), 0) == messages[i]
                )
                prob *= Fraction(count, group.size)
            assert prob == frequency
            checked += 1
        # the pipeline's selected transcript carries the same exact a(pi)
        f = DenseFunction(group, np.array([rng.getrandbits(1) for _ in range(4)], dtype=float))
        cfg = ReductionConfig(players=N, transcript_trials=8, seed=1)
        sel = sample_and_select_transcript(
            protocol, f, Distribution.uniform(group), cfg, "exact"
        )
        assert sel.transcript.a == freqs[sel.transcript.messages]
    _report(
        8,
        True,
        f"prod(alpha_i) equals exhaustive 2^(n(N+1)) = 256-tuple frequencies exactly "
        f"for {checked} transcripts across 2 protocols (rational arithmetic)",
    )


def test_criterion_09_derandomized_streaming():
    rng = random.Random(97)
    n, s, p, b = 64, 8, 2, 8
    template = RowTemplate(
        n=n, s=s, p=p, block_bits=b,
        seed=rng.getrandbits(RowTemplate.required_seed_bits(n, s, p, b)),
    )
    updates = [(rng.randrange(n), 1) for _ in range(10 * n)]
    base = derandomized_apply(template, updates)
    invariant = all(
        np.array_equal(base, derandomized_apply(template, perm))
        for perm in (random.Random(i).sample(updates, len(updates)) for i in range(100))
    )
    x = np.asarray(accumulate_stream(n, p, updates))
    explicit_ok = bool(np.array_equal((template.materialize().T @ x) % p, base))

    fsm = block_parity_counter(8, b)
    dist = fsm_distance(fsm, b, 16, samples=100_000, seed=5)
    ok = invariant and explicit_ok and dist.l1 <= 0.05
    _report(
        9,
        ok,
        f"order-invariant under 100 permutations: {invariant}; matches explicit "
        f"matrix: {explicit_ok}; Nisan FSM L1 = {dist.l1:.4f} <= 0.05 "
        f"({dist.samples} seeds, stderr {dist.stderr:.4f})",
    )


def test_criterion_10_minimax_boost_parity():
    f = zoo_function("parity", n=6)
    family = zoo_protocol("parity-chain", n=6)
    cfg = ReductionConfig(players=60, transcript_trials=16, target_q=1.0, seed=11)
    res = minimax_boost(f, family, cfg, rounds=10)
    ok = len(res.per_x_success) == 64 and all(
        p >= Fraction(99, 100) for p in res.per_x_success
    )
    _report(
        10,
        ok,
        f"parity n=6, T=10: min per-x success {res.min_success} >= 0.99 "
        f"on all 64 inputs (exact)",
    )


def test_criterion_11_stream_semantics():
    rng = random.Random(31)
    failures = 0
    # double-update cancellation and mod-p wraparound, explicitly
    sk0 = LinearJuntaF2(6, (0b111111,), (0, 1))
    assert apply_stream(sk0, [(2, 1), (2, 1)]).values() == 0
    skp = ZpJunta(4, 5, ((1, 1, 1, 1),), tuple(range(5)))
    assert apply_stream(skp, [(0, 1)] * 5).values() == (0,)

    for trial in range(1000):
        if trial % 2 == 0:
            n = rng.randrange(4, 11)
            k = rng.randrange(1, 5)
            sk = LinearJuntaF2(
                n,
                tuple(rng.getrandbits(n) for _ in range(k)),
                tuple(rng.getrandbits(1) for _ in range(1 << k)),
            )
            updates = [(rng.randrange(n), 1) for _ in range(rng.randrange(0, 3 * n))]
            state = apply_stream(sk, updates)
            x = sum(
                bit << i
                for i, bit in enumerate(accumulate_stream(n, 2, updates))
            )
            if state.values() != sk.sketch_value(x):
                failures += 1
        else:
            n, p = rng.randrange(3, 7), rng.choice([3, 5, 7])
            rows = tuple(
                tuple(rng.randrange(p) for _ in range(n))
                for _ in range(rng.randrange(1, 3))
            )
            sk = ZpJunta(n, p, rows, tuple(range(p ** len(rows))))
            updates = [
                (rng.randrange(n), rng.randrange(-2 * p, 2 * p + 1))
                for _ in range(rng.randrange(0, 3 * n))
            ]
            state = apply_stream(sk, updates)
            x = accumulate_stream(n, p, updates)
            expected = tuple(
                sum(r * c for r, c in zip(row, x)) % p for row in rows
            )
            if state.values() != expected:
                failures += 1
    elapsed = time.perf_counter() - _module_started
    ok = failures == 0 and elapsed < 300.0
    _report(
        11,
        ok,
        f"1000 random streams, {failures} failures; cancellation and wraparound "
        f"hold; acceptance module wall time {elapsed:.1f}s < 300s",
    )
