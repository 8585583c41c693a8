"""The benchmark's workloads: seeded inputs and the operations of one job.

Each workload has a set-up (imports are done by the caller; this builds zoo
tables and generates every input from the seed) and a fixed list of
operations.  One repetition of the job runs every operation once; the
benchmark times repetitions and checks every operation's output with
``checks.py``.  Sizes never depend on the seed, only the inputs do.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from modsketch import compiler, prg, sketch, zoo
from modsketch.algebra import GroupSpec, SubgroupEnum


def _rng(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{label}/{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def _bits(rng: np.random.Generator, bits: int) -> int:
    return int.from_bytes(rng.bytes(-(-bits // 8)), "little") >> (-bits % 8)


# ---------------------------------------------------------------- reduce-f2

@dataclass
class ReduceCase:
    name: str
    f: object
    family: object
    variant: str
    cfg: compiler.ReductionConfig
    message_bits: int


def reduce_cases(seed: int, tr, n_parity: int = 14, n_other: int = 13):
    """parity (one candidate, largest transform), majority (every trial a new
    candidate) and an approximating two-parity blend with 2-bit messages."""
    rng = _rng(seed, "reduce-f2")
    a, b = (int(m) for m in rng.choice(np.arange(1, 1 << n_other), size=2, replace=False))
    with tr.span("zoo.build"):
        parity = (zoo.zoo_function("parity", n=n_parity), zoo.zoo_protocol("parity-chain", n=n_parity))
        majority = (zoo.zoo_function("majority", n=n_other), zoo.zoo_protocol("parity-chain", n=n_other))
        blend = (zoo.zoo_function("two-parity-blend", n=n_other, a=a, b=b),
                 zoo.zoo_protocol("two-parity-blend-chain", n=n_other, a=a, b=b))
    return [
        ReduceCase("parity", *parity, "exact_f2",
                   compiler.ReductionConfig(players=10 * n_parity, transcript_trials=8, target_q=1.0,
                                            seed=_bits(rng, 32)), 1),
        ReduceCase("majority", *majority, "exact_f2",
                   compiler.ReductionConfig(players=10 * n_other, transcript_trials=2,
                                            seed=_bits(rng, 32)), 1),
        ReduceCase("blend", *blend, "approx_f2",
                   compiler.ReductionConfig(players=10 * n_other, transcript_trials=2,
                                            seed=_bits(rng, 32)), 2),
    ]


def _reduce_op(case: ReduceCase):
    def op(tr):
        return compiler.reduce(tr.protocol(case.family), case.f, None, case.cfg, case.variant)

    return op


# ----------------------------------------------------------------- boost-zp

@dataclass
class BoostCase:
    f: object
    family: object
    cfg: compiler.ReductionConfig
    rounds: int
    p: int


def boost_case(seed: int, tr, n: int = 7, p: int = 3, rounds: int = 4) -> BoostCase:
    with tr.span("zoo.build"):
        f = zoo.zoo_function("mod-p-sum-zero", n=n, p=p)
        family = zoo.zoo_protocol("running-sum-mod-p", n=n, p=p)
    players = math.ceil(10 * n * math.log2(p))  # the mixing threshold, so no warning
    cfg = compiler.ReductionConfig(players=players, transcript_trials=4, target_q=1.0,
                                   seed=_bits(_rng(seed, "boost-zp"), 32))
    return BoostCase(f, family, cfg, rounds, p)


def _boost_op(case: BoostCase):
    def op(tr):
        with tr.span("compiler.boost"):
            return compiler.minimax_boost(case.f, tr.protocol(case.family), case.cfg, case.rounds,
                                          variant="exact_group")

    return op


# ------------------------------------------------------------ stream-replay

def make_stream(rng: np.random.Generator, n: int, length: int, p: int) -> list[tuple[int, int]]:
    """Updates with negative increments, increments beyond +-p (wrap-around)
    and, one in ten, the exact cancellation of an earlier update."""
    coords = rng.integers(0, n, length)
    incs = rng.integers(-3 * p, 3 * p + 1, length)
    cancels = np.flatnonzero(rng.random(length) < 0.1)
    cancels = cancels[cancels > 0]
    for i, j in zip(cancels.tolist(), rng.integers(0, cancels).tolist()):
        coords[i], incs[i] = coords[j], -incs[j]
    return list(zip(coords.tolist(), incs.tolist()))


@dataclass
class StreamCase:
    """One sketch (or its recipe), a stream, and the stream shuffled and cut
    into segments at whose ends the state is read."""

    kind: str
    sketch: object
    stream: list
    segments: list


def _shuffled(rng, stream: list) -> list:
    return [stream[i] for i in rng.permutation(len(stream))]


def _shuffled_segments(rng, stream, count: int = 16) -> list[list]:
    perm = _shuffled(rng, stream)
    step = -(-len(perm) // count)
    return [perm[i:i + step] for i in range(0, len(perm), step)]


def _subgroup_elements(rng, spec: GroupSpec, order: int) -> list[int]:
    """Elements of a random subgroup of Z_p^n of the given order, built by
    the benchmark's own coordinate arithmetic."""
    p = spec.moduli[0]
    while True:
        elems = {(0,) * spec.n}
        for _ in range(round(math.log(order, p))):
            g = rng.integers(0, p, spec.n).tolist()
            elems = {tuple((e[i] + k * g[i]) % p for i in range(spec.n)) for e in elems for k in range(p)}
        idx = {sum(c * p**i for i, c in enumerate(e)) for e in elems}
        if len(idx) == order:
            return sorted(idx)


STREAM_SIZES = {"f2": 300_000, "zp": 100_000, "h": 40_000, "derand": 8_000}


def stream_cases(seed: int, tr, sizes: dict = STREAM_SIZES):
    rng = _rng(seed, "stream-replay")
    n = 32
    f2 = sketch.LinearJuntaF2(n, tuple(_bits(rng, n) for _ in range(8)),
                              tuple(rng.integers(0, 2, 1 << 8).tolist()))
    p = 5
    zp = sketch.ZpJunta(n, p, tuple(tuple(row) for row in rng.integers(0, p, (4, n)).tolist()),
                        tuple(rng.integers(0, 2, p**4).tolist()))
    spec = GroupSpec.cyclic_power(3, 7)
    elements = _subgroup_elements(rng, spec, 9)  # 243 cosets
    h_recipe = (spec, elements, tuple(rng.integers(0, 2, spec.size // 9).tolist()))
    cases = []
    for kind, sk, dim, mod in (("f2", f2, n, 2), ("zp", zp, n, p), ("h", h_recipe, spec.n, 3)):
        stream = make_stream(rng, dim, sizes[kind], mod)
        cases.append(StreamCase(kind, sk, stream, _shuffled_segments(rng, stream)))
    seed_bits = prg.RowTemplate.required_seed_bits(64, 8, 3, 8)
    template = prg.RowTemplate(n=64, s=8, p=3, block_bits=8, seed=_bits(rng, seed_bits))
    stream = make_stream(rng, 64, sizes["derand"], 3)
    derand = (template, stream, _shuffled(rng, stream))
    # prg-check defaults: an 8-state block-parity counter, 16 blocks of 8 bits
    fsm = (prg.block_parity_counter(8, 8), 8, 16, 100_000, _bits(rng, 32))
    return cases, derand, fsm


def _replay_op(case: StreamCase):
    def op(tr):
        with tr.span(f"sketch.replay.{case.kind}"):
            sk = case.sketch
            if case.kind == "h":
                spec, elements, post = sk
                sk = sketch.HInvariantSketch(SubgroupEnum(spec, elements), post)
            state = sketch.apply_stream(sk, case.stream)
            final = (state.values(), state.output())
            state = sketch.SketchState(sk)
            reads = []
            for segment in case.segments:
                for coord, inc in segment:
                    state.apply(coord, inc)
                reads.append((state.values(), state.output()))
        tr.count(f"sketch.{case.kind}_updates", 2 * len(case.stream))
        return final, reads

    return op


def _derand_op(derand):
    template, stream, perm = derand

    def op(tr):
        with tr.span("prg.derandomized"):
            out = prg.derandomized_apply(template, stream), prg.derandomized_apply(template, perm)
        tr.count("prg.derand_updates", 2 * len(stream))
        return out

    return op


def _fsm_op(fsm):
    machine, bits, count, samples, seed = fsm

    def op(tr):
        with tr.span("prg.fsm_distance"):
            return prg.fsm_distance(machine, bits, count, samples=samples, seed=seed)

    return op


# ------------------------------------------------------------------- driver

def setup(workload: str, seed: int, tr):
    """Build the inputs; returns [(operation name, input, op(tracer))]."""
    if workload == "reduce-f2":
        return [(c.name, c, _reduce_op(c)) for c in reduce_cases(seed, tr)]
    if workload == "boost-zp":
        case = boost_case(seed, tr)
        return [("boost", case, _boost_op(case))]
    if workload == "stream-replay":
        cases, derand, fsm = stream_cases(seed, tr)
        ops = [(c.kind, c, _replay_op(c)) for c in cases]
        return ops + [("derand", derand, _derand_op(derand)), ("fsm", fsm, _fsm_op(fsm))]
    raise ValueError(f"unknown workload {workload!r}")
