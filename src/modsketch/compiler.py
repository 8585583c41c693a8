"""Constructive reduction from one-way protocols to linear sketches.

Given a protocol for the additive lift of f and a distribution D over
inputs, the pipeline (i) fixes a good randomness tape, (ii) samples and
exactly verifies a transcript of the first N players, (iii) collects the
per-player consistent input sets and their joint heavy spectrum,
(iv) builds the invariant structure (orthogonal subspace over F2, or the
annihilator subgroup of a maximal dissociated set in general), and
(v) averages the tail function into a low-cost junta, derandomizing by a
weighted argmax per sketch bucket.  Every inequality used along the way is
checked exactly on the actual run and recorded in the report.

A minimax boosting loop (multiplicative weights over inputs) upgrades the
per-distribution juntas into one distribution-free randomized sketch.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import fourier  # fourier.transform is looked up per call, so a patched transform sees it
from .algebra import (GroupSpec, SubgroupEnum, SubspaceF2, heaviest_first, max_independent_subset,
                      orthogonal_complement, rank_basis, span_mask)
from .fourier import (
    ChangBoundError,
    DenseFunction,
    NormalizedIndicator,
    Spectrum,
    annihilator,
    averaged_shift,
    chang_sum,
    extract_dissociated,
    joint_spectrum,
    mixing_gap,
)
from .protocol import BroadcastProtocol, StreamFSM, Transcript, fsm_to_players
from .sketch import Distribution, HInvariantSketch, LinearJuntaF2, RandomizedSketch
from .seeding import derive_seed, derived_rng

__all__ = [
    "ReductionConfig",
    "PlayerSets",
    "TailFunction",
    "InvariantStructure",
    "ReductionReport",
    "ReduceResult",
    "CompilerError",
    "TranscriptSearchError",
    "InvariantViolation",
    "VARIANTS",
    "sample_and_select_transcript",
    "heavy_set",
    "build_invariant_structure",
    "build_junta",
    "reduce",
    "approx_encode",
    "conversion_bounds",
    "minimax_boost",
]

VARIANTS = ("exact_f2", "approx_f2", "exact_group", "approx_group")
BOUNDARY_TOL = 1e-9
# _select_r_star tries every tape up to this many, else this many random tapes
R_TAPE_EXHAUSTIVE_LIMIT = 1 << 16
R_TAPE_SAMPLES = 256
R_EVAL_SAMPLES = 256  # quality samples per tape
CHANG_CONSTANT = 8.0  # C in Chang's bound sum |phihat_A(gamma)|^2 <= C log2(1/density)


class CompilerError(Exception):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class TranscriptSearchError(CompilerError):
    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__("transcript-search", message)


class InvariantViolation(CompilerError, AssertionError):
    pass


@dataclass
class ReductionConfig:
    """Knobs for one reduction run.

    players is N; the pipeline internally runs N+1 players, with the extra
    player providing the tail function.  delta defaults to
    min(2^-N, 1e-4); the transcript-probability threshold is
    delta * 2^(-c*N), compared exactly in rational arithmetic.
    """

    players: int
    transcript_trials: int = 64
    delta: Fraction | None = None
    target_q: float | None = None
    target_eps: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.players < 1:
            raise ValueError("need at least one player")
        if self.transcript_trials < 0:
            raise ValueError("negative trial budget")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        for name in ("target_q", "target_eps"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def resolved_delta(self) -> Fraction:
        if self.delta is not None:
            return Fraction(self.delta) if not isinstance(self.delta, Fraction) else self.delta
        return min(Fraction(1, 2**self.players), Fraction(1, 10**4))

    def threshold_warnings(self, group: GroupSpec) -> list[str]:
        """Warnings when N is below the mixing threshold the analysis wants."""
        out = []
        need = 10 * group.n * math.log2(group.exponent)
        if self.players < need:
            kind = "10*n" if group.is_boolean else "10*n*log2(m)"
            out.append(
                f"N={self.players} is below the {kind} = {need:g} mixing threshold; "
                "bounds are still checked exactly but may fail"
            )
        return out


@dataclass
class PlayerSets:
    """Per-player consistent input sets for a fixed transcript.

    Players holding the same indicator object (see _PlayerSetSource) share
    one distinct set: `distinct` maps each to its player count, in
    first-seen order, and `joint()` is their spectral product, formed on
    first use and kept.
    """

    indicators: list[NormalizedIndicator]

    def __post_init__(self):
        self.distinct = Counter(self.indicators)
        self._joint = None

    @property
    def densities(self) -> list[Fraction]:
        return [ind.density for ind in self.indicators]

    def heavy(self, message_bits: int) -> list[NormalizedIndicator]:
        """The distinct sets of density >= 2^(-2(c+1)), in first-seen order,
        by the exact integer test count * 2^(2(c+1)) >= |G|."""
        shift = 2 * (message_bits + 1)
        return [ind for ind in self.distinct if ind.count << shift >= ind.group.size]

    def joint(self) -> Spectrum:
        """prod_j phihat_j^(count_j) over the distinct sets."""
        if self._joint is None:
            self._joint = joint_spectrum(self.indicators[0].group, self.distinct)
        return self._joint


# The views of a tail h that averaged_shift and mixing_gap read: h, h^2, and the
# unit-modulus (-1)^h (exact mode, binary h) or e^(-i h) (approx mode, h in [0,1])
TAIL_VIEWS = {"h": lambda h: h, "h2": lambda h: h**2, "signed": lambda h: 1.0 - 2.0 * h,
              "exponential": lambda h: np.exp(-1j * h)}


@dataclass
class TailFunction:
    """The last player's output as a function of its own input.

    operand(view) gives the transform of a view of h (see TAIL_VIEWS), as
    averaged_shift and mixing_gap take it, made on first use and kept.
    """

    h: DenseFunction

    def __post_init__(self):
        self._spectra: dict[str, Spectrum] = {}

    @classmethod
    def checked(cls, group: GroupSpec, table: np.ndarray, mode: str) -> "TailFunction":
        """The tail with values `table`: binary in exact mode, in [0,1] (up to
        1e-12, then clipped) in approx mode, else CompilerError."""
        h_vals = table.astype(np.float64)
        if mode == "exact":
            if not np.all(np.isin(h_vals, (0.0, 1.0))):
                raise CompilerError(
                    "transcript-search", "exact mode needs a binary tail function"
                )
        else:
            if np.any(h_vals < -1e-12) or np.any(h_vals > 1 + 1e-12):
                raise CompilerError(
                    "transcript-search", "approximating tail must take values in [0,1]"
                )
            h_vals = np.clip(h_vals, 0.0, 1.0)
        return cls(DenseFunction(group, h_vals))

    def operand(self, view: str = "h") -> Spectrum:
        if view not in self._spectra:
            view_fn = DenseFunction(self.h.group, TAIL_VIEWS[view](self.h.values))
            self._spectra[view] = fourier.transform(view_fn)
        return self._spectra[view]


@dataclass
class SelectedTranscript:
    transcript: Transcript
    player_sets: PlayerSets
    tail: TailFunction
    r_star: int
    trials_used: int
    candidates_evaluated: int
    rejected_condition_i: int
    message_calls: int
    player_sets_built: int
    player_set_hits: int
    message_batches: int


@dataclass
class InvariantStructure:
    """The sketch-defining structure extracted from the heavy spectrum."""

    kind: str  # "subspace" or "subgroup"
    generators: list[int]  # dual indices, greedy order
    invariant: SubspaceF2 | SubgroupEnum
    dual: np.ndarray  # the characters trivial on the invariant: the span of the generators
    sketch: LinearJuntaF2 | HInvariantSketch  # the sketch it emits, all-zero post

    @property
    def cost(self) -> int:
        return len(self.generators)

    @property
    def complexity(self) -> int:
        return len(self.sketch.post)


@dataclass
class ReductionReport:
    variant: str
    group_moduli: tuple[int, ...]
    players: int
    message_bits: int
    delta: Fraction
    seed: int
    r_star: int
    transcript: tuple[int, ...]
    transcript_probability: Fraction
    transcript_quality: float
    quality_kind: str
    densities: list[Fraction]
    heavy_count: int
    heavy_set_size: int
    heavy_set_members: list[int]
    generators: list[int]
    invariant_structure: dict
    cost: int
    complexity: int
    mixing_gap: float
    quality: float
    tolerance: float
    checks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    trials_used: int = 0
    candidates_evaluated: int = 0
    message_calls: int = 0
    player_sets_built: int = 0
    player_set_hits: int = 0
    message_batches: int = 0
    subgroups_built: int = 0

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v

        return {k: enc(v) for k, v in self.__dict__.items()}


@dataclass
class ReduceResult:
    sketch: LinearJuntaF2 | HInvariantSketch
    report: ReductionReport


def _as_protocol(source, n_players: int, group: GroupSpec) -> BroadcastProtocol:
    if isinstance(source, StreamFSM):
        protocol = fsm_to_players(source, n_players)
    elif isinstance(source, BroadcastProtocol):
        protocol = source
    elif callable(source):
        protocol = source(n_players)
    else:
        raise TypeError("protocol source must be an FSM, a protocol, or a builder")
    if protocol.n_players != n_players:
        raise ValueError(
            f"protocol has {protocol.n_players} players; this run needs {n_players}"
        )
    if protocol.group != group:
        raise ValueError("protocol input group does not match the function")
    return protocol


def _sample_inputs(group: GroupSpec, D: Distribution, n_uniform: int, rng):
    """Draw x ~ D and uniform x_1..x_N; the extra player gets x - sum(x_i)."""
    x = D.sample(rng, 1)[0]
    xs = [rng.randrange(group.size) for _ in range(n_uniform)]
    if group.is_boolean:  # the group sum over F2^n is an xor
        xs.append(functools.reduce(operator.xor, xs, x))
        return x, xs
    moduli = np.asarray(group.moduli, dtype=np.int64)
    coords = np.asarray(xs, dtype=np.int64)[:, None] // group.strides % moduli
    xs.append(group.sub(x, int(coords.sum(axis=0) % moduli @ group.strides)))
    return x, xs


def _protocol_quality_estimate(
    protocol: BroadcastProtocol,
    f: DenseFunction,
    D: Distribution,
    r: int,
    samples: int,
    rng,
    mode: str,
) -> float:
    """Monte Carlo distributional quality of the protocol under one tape."""
    n_uniform = protocol.n_players - 1
    fv = f.real_values()
    good = 0.0
    for _ in range(samples):
        x, xs = _sample_inputs(protocol.group, D, n_uniform, rng)
        _, out = protocol.run(xs, r)
        if mode == "exact":
            good += 1.0 if out == fv[x] else 0.0
        else:
            good -= abs(float(out) - fv[x]) ** 2
    return good / samples


def _select_r_star(protocol, f, D, cfg, mode) -> tuple[int, int]:
    """The tape with the best estimated quality, and the message-function
    calls the estimates made."""
    if protocol.randomness_bits == 0:
        return 0, 0
    rng = derived_rng(cfg.seed, "r-star")
    space = 1 << protocol.randomness_bits
    if space <= R_TAPE_EXHAUSTIVE_LIMIT:
        tapes = range(space)
    else:
        tapes = [rng.getrandbits(protocol.randomness_bits) for _ in range(R_TAPE_SAMPLES)]
    best_r, best_val = 0, -math.inf
    for r in tapes:
        val = _protocol_quality_estimate(protocol, f, D, r, R_EVAL_SAMPLES, rng, mode)
        if val > best_val:
            best_r, best_val = r, val
    return best_r, len(tapes) * R_EVAL_SAMPLES * protocol.n_players


class _PlayerSetSource:
    """Message tables and player sets A_i of the transcript searches on one
    protocol with the tape fixed: one reduce, or every round of one
    minimax_boost call that selects this tape.

    A streaming protocol's message function reads only its input, prev[-1]
    and r, so its table over all inputs is kept per (fn, prev[-1] or None)
    and A_i per (fn, prev[-1] or None, m_i): every player and candidate
    with the same key shares one table and one indicator (and so one
    spectrum).  Other protocols get a fresh table per player.  A streaming
    protocol's table comes from one call of the function's array form when
    it has one (see BroadcastProtocol); message_calls counts the messages
    computed either way, and batches the tables built by array forms.
    A streaming protocol's checked tails are kept too, per (fn_N, prev[-1],
    mode), each with the transforms its operand() has made.
    """

    def __init__(self, protocol: BroadcastProtocol, r_star: int):
        self.protocol = protocol
        self.r_star = r_star
        self.memo = protocol.streaming
        self.tables: dict = {}
        self.sets: dict = {}
        self.tails: dict = {}
        self.message_calls = 0
        self.batches = 0
        self.built = 0
        self.hits = 0

    def counters(self) -> tuple[int, int, int, int]:
        """(message_calls, built, hits, batches) so far."""
        return self.message_calls, self.built, self.hits, self.batches

    def _key(self, i: int, messages: tuple):
        return self.protocol.msg_fns[i], messages[i - 1] if i else None

    def table(self, i: int, messages: Sequence) -> np.ndarray:
        """fn_i(x, messages[:i], r_star) for every input x."""
        key = self._key(i, messages)
        table = self.tables.get(key)
        if table is not None:
            return table
        fn, size = key[0], self.protocol.group.size
        batch = getattr(fn, "batch", None) if self.memo else None
        if batch is None:
            prev = tuple(messages[:i])
            table = np.array([fn(x, prev, self.r_star) for x in range(size)])
        else:
            table = np.asarray(batch(key[1], self.r_star))
            if table.shape != (size,):
                raise CompilerError("transcript-search",
                                    f"player {i}'s batch form returned shape {table.shape}, not ({size},)")
            self.batches += 1
        self.message_calls += len(table)
        if self.memo:
            self.tables[key] = table
        return table

    def transcript(self, xs: Sequence[int]) -> tuple:
        """The first N messages on inputs xs, as protocol.run gives them; a
        streaming protocol's are read off the tables its player sets use."""
        protocol = self.protocol
        n = protocol.n_players - 1
        if not self.memo:
            self.message_calls += protocol.n_players
            return protocol.run(xs, self.r_star)[0][:n]
        limit, fns = 1 << protocol.message_bits, protocol.msg_fns
        messages, m = [], None
        for i in range(n):
            table = self.tables.get((fns[i], m))  # _key(i, messages), inlined
            if table is None:
                table = self.table(i, messages)
            m = table.item(xs[i])
            if not 0 <= int(m) < limit:
                raise ValueError(f"player {i} message {m} does not fit in {protocol.message_bits} bits")
            messages.append(m)
        return tuple(messages)

    def indicator(self, i: int, messages: tuple) -> NormalizedIndicator:
        """The normalized indicator of A_i = {x : fn_i(x, messages[:i]) = m_i}."""
        key = (*self._key(i, messages), messages[i])
        if self.memo and key in self.sets:
            self.hits += 1
            return self.sets[key]
        ind = NormalizedIndicator(self.protocol.group, self.table(i, messages) == messages[i])
        self.built += 1
        if self.memo:
            self.sets[key] = ind
        return ind

    def tail(self, messages: tuple, mode: str) -> TailFunction:
        """The last player's output on its input x, messages fixed, checked
        for `mode` (see TailFunction.checked); kept for a streaming protocol."""
        n = self.protocol.n_players - 1
        key = (*self._key(n, messages), mode)
        tail = self.tails.get(key)
        if tail is None:
            tail = TailFunction.checked(self.protocol.group, self.table(n, messages), mode)
            if self.memo:
                self.tails[key] = tail
        return tail


def _evaluate_candidate(
    source: _PlayerSetSource,
    messages: tuple,
    f: DenseFunction,
    D: Distribution,
    threshold: Fraction,
    mode: str,
):
    """Exact per-transcript accounting: sets A_i, prod of densities against
    the probability threshold, the tail function, and the conditional
    quality via spectral products.  Returns None if condition (i) fails."""
    group = source.protocol.group
    n = source.protocol.n_players - 1
    indicators = [source.indicator(i, messages) for i in range(n)]
    prob = Fraction(math.prod(ind.count for ind in indicators), group.size**n)
    if prob < threshold:
        return None

    tail = source.tail(messages, mode)
    fv = f.real_values()
    ps = PlayerSets(indicators)

    shifted = averaged_shift(ps.joint(), tail.operand()).real_values(tol=1e-7)
    if mode == "exact":
        per_x = fv * shifted + (1.0 - fv) * (1.0 - shifted)
        quality = float(np.dot(D.probs, per_x))
    else:
        shifted_sq = averaged_shift(ps.joint(), tail.operand("h2")).real_values(tol=1e-7)
        per_x = shifted_sq - 2.0 * fv * shifted + fv**2
        quality = float(np.dot(D.probs, per_x))
    return prob, quality, ps, tail


def sample_and_select_transcript(
    protocol: BroadcastProtocol,
    f: DenseFunction,
    D: Distribution,
    cfg: ReductionConfig,
    mode: str = "exact",
    sources: dict | None = None,
) -> SelectedTranscript:
    """Sample transcripts of the first N players, verify the probability
    condition exactly for each distinct candidate, and keep the best
    conditional quality.

    Exact mode maximizes the conditional success and requires it to reach
    target_q - delta; approx mode minimizes the conditional squared error
    and requires (target_eps + delta) / (1 - delta).  Raises
    TranscriptSearchError (carrying the best candidate) otherwise.  For a
    streaming protocol, player sets are memoized across players and
    candidates and trials are sampled from the same message tables (see
    _PlayerSetSource); `sources` maps each tape r* to its
    source and may be shared by several searches on the same protocol.
    The counters returned are this search's work only.
    """
    if cfg.transcript_trials < 1:
        raise TranscriptSearchError("transcript_trials must be at least 1")
    group = protocol.group
    n = protocol.n_players - 1
    delta = cfg.resolved_delta()
    threshold = delta * Fraction(1, 2 ** (protocol.message_bits * n))
    r_star, r_calls = _select_r_star(protocol, f, D, cfg, mode)
    sources = {} if sources is None else sources
    source = sources.setdefault(r_star, _PlayerSetSource(protocol, r_star))
    before = source.counters()
    rng = derived_rng(cfg.seed, "transcripts")

    seen: set[tuple] = set()
    best = None  # (quality key, prob, quality, ps, tail, messages)
    rejected = 0
    trials = 0
    for trials in range(1, cfg.transcript_trials + 1):
        _, xs = _sample_inputs(group, D, n, rng)
        key = source.transcript(xs)
        if key in seen:
            continue
        seen.add(key)
        res = _evaluate_candidate(source, key, f, D, threshold, mode)
        if res is None:
            rejected += 1
            continue
        prob, quality, ps, tail = res
        score = quality if mode == "exact" else -quality
        if best is None or score > best[0]:
            best = (score, prob, quality, ps, tail, key)
        if mode == "exact" and quality >= 1.0 - 1e-12:
            break
        if mode == "approx" and quality <= 1e-12:
            break

    if best is None:
        raise TranscriptSearchError(
            f"no transcript met the probability threshold in {trials} trials "
            f"({rejected} rejected)"
        )
    _, prob, quality, ps, tail, key = best
    if mode == "exact":
        gate = cfg.target_q is not None and quality < cfg.target_q - float(delta) - BOUNDARY_TOL
        gate_msg = f"best conditional success {quality:.6g} < q - delta"
    else:
        bound = (cfg.target_eps + float(delta)) / (1 - float(delta)) if cfg.target_eps is not None else None
        gate = bound is not None and quality > bound + BOUNDARY_TOL
        gate_msg = f"best conditional error {quality:.6g} > (eps + delta)/(1 - delta)"
    if gate:
        raise TranscriptSearchError(
            gate_msg + f" after {len(seen)} candidates",
            best=Transcript(key, prob, quality, "success" if mode == "exact" else "sq_error"),
        )
    transcript = Transcript(
        key, prob, quality, "success" if mode == "exact" else "sq_error"
    )
    calls, built, hits, batches = (a - b for a, b in zip(source.counters(), before))
    return SelectedTranscript(
        transcript, ps, tail, r_star, trials, len(seen), rejected,
        message_calls=r_calls + calls,
        player_sets_built=built,
        player_set_hits=hits,
        message_batches=batches,
    )


def heavy_set(
    player_sets: PlayerSets, message_bits: int, tol: float = BOUNDARY_TOL
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The high-density player set B and the jointly heavy spectrum S.

    B keeps players of density >= 2^(-2(c+1)) (inclusive, exact, decided
    once per distinct set by PlayerSets.heavy); S keeps dual indices whose
    spectral energy summed over B reaches |B|/2 (inclusive with float
    tolerance), the sum taken as count * |phihat|^2 over the distinct sets.
    Returns (B, S indices, per-gamma energy weights).
    """
    if not player_sets.indicators:
        raise ValueError("empty player sets")
    heavy = player_sets.heavy(message_bits)
    keep = set(heavy)
    B = [i for i, ind in enumerate(player_sets.indicators) if ind in keep]
    weights = np.zeros(player_sets.indicators[0].group.size, dtype=np.float64)
    for ind in heavy:
        weights += player_sets.distinct[ind] * np.abs(ind.spectrum().coeffs) ** 2
    S = np.nonzero(weights >= len(B) / 2 - tol)[0]
    return B, S, weights


def build_invariant_structure(
    group: GroupSpec,
    S: Sequence[int],
    weights: np.ndarray,
    kind: str,
    structures: dict | None = None,
) -> InvariantStructure:
    """Span the heavy spectrum and return the structure the junta lives on.

    Over F2: a greedy max-weight independent subset of S spans U; the
    sketch buckets are the sign patterns against those generators (cosets
    of the orthogonal subspace).  Over general groups: a greedy max-weight
    dissociated subset, whose annihilator subgroup H defines the buckets
    as cosets of H.  Either way `dual`, the characters trivial on the
    invariant, is the span of the generators (Ann(Ann(S)) = <S>).
    `structures` memoizes the structure by the group, kind and S in
    heaviest_first order, which is all the greedy reads: a repeat returns
    the stored structure, with its H and coset table, without extracting
    generators, spanning them or computing an annihilator.
    """
    structures = {} if structures is None else structures
    s_list = [int(g) for g in S]
    w_list = [float(weights[g]) for g in s_list]
    order = heaviest_first(w_list, [group.decode(g) for g in s_list])
    key = (group, kind, tuple(s_list[i] for i in order))
    if key in structures:
        return structures[key]
    if kind == "subspace":
        gens = max_independent_subset(s_list, w_list, n=group.n)
        invariant = orthogonal_complement(rank_basis(gens, group.n))
        shape = LinearJuntaF2(group.n, tuple(gens), (0,) * (1 << len(gens)))
        structure = InvariantStructure("subspace", gens, invariant, span_mask(group, gens), shape)
    elif kind == "subgroup":
        gens = extract_dissociated(group, s_list, w_list)
        sub, dual = annihilator(group, gens), span_mask(group, gens)
        structure = InvariantStructure("subgroup", gens, sub, dual, HInvariantSketch(sub, (0,) * sub.n_cosets))
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    structures[key] = structure
    return structure


@dataclass
class JuntaResult:
    sketch: LinearJuntaF2 | HInvariantSketch
    w: np.ndarray
    quality: float
    coset_deviation: float


def _bucket_extremes(values: np.ndarray, order: np.ndarray, starts: np.ndarray):
    """(min, max) of values per bucket, from the stable sort `order` of the
    bucket ids and each bucket's first position `starts` in it (the position
    of the next bucket when empty); an empty bucket reads +inf and -inf."""
    mins = np.full(len(starts), np.inf)
    maxs = np.full(len(starts), -np.inf)
    filled = np.flatnonzero(np.diff(starts, append=len(order)))
    if len(filled):
        by_bucket = values[order]
        mins[filled] = np.minimum.reduceat(by_bucket, starts[filled])
        maxs[filled] = np.maximum.reduceat(by_bucket, starts[filled])
    return mins, maxs


def build_junta(
    tail: TailFunction,
    joint: Spectrum,
    structure: InvariantStructure,
    D: Distribution,
    f: DenseFunction,
    mode: str = "exact",
) -> JuntaResult:
    """Average the tail over the player sets (given by their joint
    spectrum) and the invariant shift, and emit the deterministic sketch.

    w(x) = E[h(x - y_1 - ... - y_N + v)] is constant on sketch buckets by
    construction; the result carries its largest spread within a bucket
    as coset_deviation, which reduce's coset-constancy check reads, and
    the post table reads w at each bucket's first member.  Exact mode
    derandomizes by picking per bucket the output maximizing D-weighted
    agreement with f (ties resolved by rounding w), which weakly dominates
    averaging over Bernoulli roundings.  Approx mode keeps the
    [0,1]-valued bucket averages as the post table.
    """
    ids, n_buckets = structure.sketch.buckets(), structure.complexity
    w_fn = averaged_shift(joint, tail.operand(), structure.dual)
    w = w_fn.real_values(tol=1e-7)
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(n_buckets))
    mins, maxs = _bucket_extremes(w, order, starts)
    deviation = float(np.max(maxs - mins)) if n_buckets else 0.0
    if np.min(w) < -1e-9 or np.max(w) > 1 + 1e-9:
        raise InvariantViolation("build-junta", "averaged tail escapes [0,1]")
    w = np.clip(w, 0.0, 1.0)
    bucket_w = w[order[starts]]  # at each bucket's first member

    fv = f.real_values()
    if mode == "exact":
        agree1 = np.bincount(ids, weights=D.probs * fv, minlength=n_buckets)
        agree0 = np.bincount(ids, weights=D.probs * (1.0 - fv), minlength=n_buckets)
        post = np.where(
            agree1 > agree0, 1, np.where(agree0 > agree1, 0, (bucket_w >= 0.5).astype(int))
        )
        out = post[ids]
        quality = float(np.dot(D.probs, (out == fv).astype(np.float64)))
        post_values = tuple(int(v) for v in post)
    else:
        post = bucket_w
        out = post[ids]
        quality = float(np.dot(D.probs, (out - fv) ** 2))
        post_values = tuple(float(v) for v in post)

    return JuntaResult(replace(structure.sketch, post=post_values), w, quality, deviation)


def approx_encode(values: np.ndarray) -> np.ndarray:
    """Unit-circle encoding e^(i*value) of [0,1]-valued data."""
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("values must lie in [0, 1]")
    return np.exp(1j * arr)


def conversion_bounds(z: float) -> tuple[float, float]:
    """The sandwich (1 - z^2/2, 1 - z^2/3) around cos(z), valid on [-1,1]."""
    if not -1.0 <= z <= 1.0:
        raise ValueError("bound holds on [-1, 1] only")
    lo, hi = 1 - z * z / 2, 1 - z * z / 3
    c = math.cos(z)
    assert lo - 1e-12 <= c <= hi + 1e-12, "cosine sandwich violated"
    return lo, hi


def _record(checks: dict, name: str, lhs, rhs, stage: str, ok: bool | None = None):
    """Record a check, lhs <= rhs + BOUNDARY_TOL unless ok is given, and
    raise InvariantViolation if it fails."""
    if ok is None:
        ok = lhs <= rhs + BOUNDARY_TOL
    checks[name] = {"lhs": lhs, "rhs": rhs, "ok": bool(ok)}
    if not ok:
        raise InvariantViolation(stage, f"{name}: {lhs} vs {rhs}")


def reduce(
    protocol_source,
    f: DenseFunction,
    D: Distribution | None,
    cfg: ReductionConfig,
    variant: str = "exact_f2",
) -> ReduceResult:
    """Run the whole pipeline and exactly verify every inequality it uses.

    Exact variants emit a binary sketch whose D-success is checked against
    q - tol and against the transfer bound b(pi) - mixing_gap; approx
    variants emit a [0,1]-valued sketch whose D-squared-error is checked
    against the conversion chain and 2*eps + tol.  All intermediate
    quantities land in the report.
    """
    _check_variant(variant, f.group)
    if D is None:
        D = Distribution.uniform(f.group)
    if D.group != f.group:
        raise ValueError("distribution group mismatch")
    protocol = _as_protocol(protocol_source, cfg.players + 1, f.group)
    return _reduce(protocol, f, D, cfg, variant)


def _check_variant(variant: str, group: GroupSpec):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant.endswith("_f2") and not group.is_boolean:
        raise ValueError("F2 variants need an all-2 group")


def _reduce(
    protocol: BroadcastProtocol,
    f: DenseFunction,
    D: Distribution,
    cfg: ReductionConfig,
    variant: str,
    sources: dict | None = None,
    structures: dict | None = None,
) -> ReduceResult:
    """reduce's pipeline on a built protocol and a checked variant, the
    transcript search drawing on `sources` (see sample_and_select_transcript;
    with None its tables are freed before the later stages run) and the
    invariant structure on `structures` (see build_invariant_structure)."""
    mode = "exact" if variant.startswith("exact") else "approx"
    kind = "subspace" if variant.endswith("_f2") else "subgroup"
    group = f.group
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    n, c = cfg.players, protocol.message_bits
    delta = cfg.resolved_delta()
    warnings = cfg.threshold_warnings(group)

    sel = sample_and_select_transcript(protocol, f, D, cfg, mode, sources)
    timings["transcript"] = time.perf_counter() - t0
    checks: dict = {}
    # a recomputed from the members of each distinct set, not from the search's counts
    a = Fraction(math.prod(int(np.count_nonzero(ind.members)) ** k for ind, k in sel.player_sets.distinct.items()),
                 group.size**n)
    ok = a == sel.transcript.a and a >= delta * Fraction(1, 2 ** (c * n))
    _record(checks, "transcript-probability", str(sel.transcript.a), f"{delta}*2^-{c * n}",
            "transcript-search", ok)

    t1 = time.perf_counter()
    B, S, weights = heavy_set(sel.player_sets, c)
    _record(checks, "heavy-majority", len(B), f">= {n}/2", "heavy-set", 2 * len(B) >= n)
    structures = {} if structures is None else structures
    known = len(structures)
    structure = build_invariant_structure(group, S, weights, kind, structures)
    timings["structure"] = time.perf_counter() - t1
    if kind == "subspace":
        _record(checks, "cost-bound", structure.cost, 32 * (c + 1), "structure")
    else:
        _record(checks, "complexity-bound", structure.complexity, group.exponent**structure.cost, "structure")
    # Chang's bound once per distinct heavy set.  The least slack decides; the record
    # keeps the first-seen set whose slack ties it at heaviest_first's rounding
    chang = [(chang_sum(ind, structure.generators), CHANG_CONSTANT * math.log2(1 / ind.density), ind)
             for ind in sel.player_sets.heavy(c)]
    slack = [rhs - lhs for lhs, rhs, _ in chang]
    lhs, rhs, least = chang[slack.index(min(slack))]
    if not lhs <= rhs + BOUNDARY_TOL:
        raise ChangBoundError(f"player {sel.player_sets.indicators.index(least)}: spectral sum {lhs:.6g} "
                              f"exceeds {CHANG_CONSTANT} * log2(1/alpha) = {rhs:.6g}")
    lhs, rhs, tightest = chang[heaviest_first([-s for s in slack], range(len(chang)))[0]]
    player = sel.player_sets.indicators.index(tightest)
    checks["chang-per-player"] = {"lhs": lhs, "rhs": rhs, "player": player, "ok": lhs <= rhs + BOUNDARY_TOL}

    t2 = time.perf_counter()
    joint = sel.player_sets.joint()
    gap = mixing_gap(joint, structure.dual, sel.tail.operand("signed" if mode == "exact" else "exponential"))
    # |B| >= N/2 makes the heavy bound the tighter, so the N-based one is tested first (a gap
    # above it fails it, one between the two fails the heavy bound); the report lists heavy first
    checks["mixing-heavy-bound"] = None
    _record(checks, "mixing-player-bound", gap, group.size * 2.0 ** (-n / 8), "mixing")
    _record(checks, "mixing-heavy-bound", gap, group.size * 2.0 ** (-len(B) / 4), "mixing")
    timings["mixing"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    junta = build_junta(sel.tail, joint, structure, D, f, mode)
    timings["junta"] = time.perf_counter() - t3
    _record(checks, "coset-constancy", junta.coset_deviation, 1e-9, "build-junta",
            junta.coset_deviation <= 1e-9)

    tol = max(group.size * 2.0 ** (-n / 8), 10 * float(delta))
    b = sel.transcript.b
    q = junta.quality
    if mode == "exact":
        _record(checks, "quality-transfer", q, b - gap, "quality", q >= b - gap - BOUNDARY_TOL)
        if cfg.target_q is not None:
            budget = cfg.target_q - tol
            _record(checks, "success-budget", q, budget, "quality", q >= budget - BOUNDARY_TOL)
    else:
        out = np.asarray(junta.sketch.eval_all(), dtype=np.float64)
        chain = 3.0 * (1.0 - float(np.dot(D.probs, np.cos(f.real_values() - out))))
        _record(checks, "error-conversion-chain", q, chain, "quality")
        _record(checks, "error-transfer", q, 1.5 * b + 3.0 * gap, "quality")
        if cfg.target_eps is not None:
            _record(checks, "error-budget", q, 2 * cfg.target_eps + tol, "quality")

    report = ReductionReport(
        variant=variant,
        group_moduli=group.moduli,
        players=n,
        message_bits=c,
        delta=delta,
        seed=cfg.seed,
        r_star=sel.r_star,
        transcript=sel.transcript.messages,
        transcript_probability=sel.transcript.a,
        transcript_quality=b,
        quality_kind=sel.transcript.quality_kind,
        densities=list(sel.player_sets.densities),
        heavy_count=len(B),
        heavy_set_size=int(len(S)),
        heavy_set_members=[int(g) for g in S[:4096]],
        generators=list(structure.generators),
        invariant_structure=(
            {
                "kind": "subspace",
                "dim": structure.invariant.dim,
                "basis": list(structure.invariant.basis),
            }
            if kind == "subspace"
            else {
                "kind": "subgroup",
                "order": len(structure.invariant),
                "generators": structure.invariant.generators(),
            }
        ),
        cost=structure.cost,
        complexity=structure.complexity,
        mixing_gap=gap,
        quality=junta.quality,
        tolerance=tol,
        checks=checks,
        warnings=warnings,
        timings=timings,
        trials_used=sel.trials_used,
        candidates_evaluated=sel.candidates_evaluated,
        message_calls=sel.message_calls,
        player_sets_built=sel.player_sets_built,
        player_set_hits=sel.player_set_hits,
        message_batches=sel.message_batches,
        subgroups_built=int(kind == "subgroup" and len(structures) > known),
    )
    return ReduceResult(junta.sketch, report)


@dataclass
class BoostResult:
    mixture: RandomizedSketch
    min_success: Fraction
    per_x_success: list[Fraction]
    round_reports: list[ReductionReport]
    checks: dict


def minimax_boost(
    f: DenseFunction,
    protocol_source,
    cfg: ReductionConfig,
    rounds: int,
    variant: str = "exact_f2",
    eta: float | None = None,
) -> BoostResult:
    """Multiplicative-weights loop over inputs: repeatedly reduce against
    the current hardest distribution, downweight inputs the new junta gets
    right, and return the uniform mixture of the collected juntas with its
    exact per-input success profile.  Checks the Hedge regret bound on the
    reported qualities q_t: (1 - e^-eta) sum_t q_t <= eta min_x L(x) + ln|G|.
    Only exact variants: an approx round reports a squared error, not a
    success probability, so the bound would not constrain it.

    The protocol is built once, and the rounds share, for this call only,
    what does not depend on their distribution.  The rounds that select the
    same tape r* share one _PlayerSetSource: its message tables, player
    sets (with their spectra) and tails (checked once, with the transforms
    of h, h^2 and the view the mixing gap reads).  The rounds whose heavy
    spectra S agree in heaviest_first order share one invariant structure,
    with its SubgroupEnum and coset table, so a repeat round extracts no
    generators, spans none and computes no annihilator.  Each round's
    report counts that round's work.  eta must be finite and > 0 (at
    eta <= 0 the regret check could never fail)."""
    if rounds < 1:
        raise ValueError("need at least one round")
    if not variant.startswith("exact"):
        raise ValueError(f"boosting needs an exact variant, got {variant!r}")
    group = f.group
    fv = f.real_values()
    if not np.all(np.isin(fv, (0.0, 1.0))):
        raise ValueError("boosting needs a binary target function")
    if eta is None:
        eta = min(0.5, math.sqrt(math.log(group.size) / rounds))
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and > 0, got {eta!r}")

    _check_variant(variant, group)
    protocol = _as_protocol(protocol_source, cfg.players + 1, group)
    # for this call's rounds only: r* -> _PlayerSetSource, (G, kind, S) -> structure
    sources, structures = {}, {}
    weights = np.full(group.size, 1.0 / group.size)
    sketches = []
    corrects = np.zeros(group.size, dtype=np.int64)
    reports = []
    for t in range(rounds):
        D_t = Distribution(group, weights / weights.sum(), name=f"boost-round-{t}")
        round_cfg = replace(cfg, seed=derive_seed(cfg.seed, f"boost-{t}"))
        res = _reduce(protocol, f, D_t, round_cfg, variant, sources, structures)
        sketches.append(res.sketch)
        reports.append(res.report)
        out = np.asarray(res.sketch.eval_all())
        correct = (out == fv).astype(np.float64)
        corrects += correct.astype(np.int64)
        weights = weights * np.exp(-eta * correct)
        weights = weights / weights.sum()

    checks: dict = {}
    lhs = (1 - math.exp(-eta)) * sum(r.quality for r in reports)
    rhs = eta * int(corrects.min()) + math.log(group.size)
    _record(checks, "hedge-regret", lhs, rhs, "boost")
    shares = [Fraction(k, rounds) for k in range(rounds + 1)]
    per_x = [shares[k] for k in corrects.tolist()]
    mixture = RandomizedSketch.uniform_mixture(sketches, seed=cfg.seed)
    return BoostResult(mixture, shares[int(corrects.min())], per_x, reports, checks)
