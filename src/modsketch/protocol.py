"""One-way broadcasting / streaming protocol models and simulators.

A protocol has N players speaking once, in order; player i sees the
shared randomness, its own input and all earlier messages, and the last
message is the protocol output.  A streaming protocol is the special case
where player i only reads message i-1; a small-space streaming algorithm
becomes such a protocol by passing its state along the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import prg
from .algebra import GroupSpec
from .fourier import TRANSFORM_SIZE_LIMIT, DenseFunction

__all__ = [
    "BroadcastProtocol",
    "StreamFSM",
    "Transcript",
    "AdditiveFunction",
    "streaming_table_fn",
    "fsm_to_players",
    "additive_lift",
    "run_smp",
    "smp_from_linear_sketch",
]

# A message function maps (input index, previous messages, randomness tape)
# to a c-bit int; the last player's function returns the protocol output
# (binary int, or a [0,1] float for approximating protocols).
MessageFn = Callable[[int, tuple, int], int | float]


def streaming_table_fn(table) -> MessageFn:
    """Message function from a dense table indexed [input, previous message].

    This is the lookup-table representation for exhaustive analysis; player
    one reads column 0.  Structured protocols use named builders instead
    (see the zoo registry).
    """
    return lambda x, prev, r: table[x][prev[-1] if prev else 0]


@dataclass(frozen=True)
class BroadcastProtocol:
    """N ordered players with c-bit messages; the last message is the output.

    streaming=True is a contract: every message function reads only its
    input, prev[-1] (the incoming state; prev is empty for player one) and
    r.  The compiler relies on it and memoizes each function's table of
    messages per incoming state, so a streaming protocol whose functions
    read other earlier messages gets wrong player sets; leave such a
    protocol at streaming=False.

    A message function may carry an array form as its attribute
    `batch(last, r)`: last is prev[-1] (None for player one), and the
    result is the function's table over all of G, the array equal to
    [fn(x, prev, r) for x in range(group.size)].  The compiler builds a
    streaming protocol's message tables from it when it is there (it sees
    only prev[-1], so it is never used when streaming is False).  A wrapper
    that does not copy the attribute just falls back to per-x calls.
    A message function may also carry `initial`, the incoming state it
    reads when prev is empty; the compiler then keys player one's table by
    it, so player one shares the table of every later player whose
    incoming message equals it.
    """

    group: GroupSpec
    n_players: int
    message_bits: int
    msg_fns: tuple[MessageFn, ...]
    randomness_bits: int = 0
    streaming: bool = False
    name: str = ""

    def __post_init__(self):
        if len(self.msg_fns) != self.n_players:
            raise ValueError("need one message function per player")
        if self.n_players < 1:
            raise ValueError("need at least one player")

    def run(self, inputs: Sequence[int], r: int = 0):
        """Returns (messages, output); messages are the first N-1 entries
        plus the output as the last one."""
        if len(inputs) != self.n_players:
            raise ValueError(
                f"protocol has {self.n_players} players, got {len(inputs)} inputs"
            )
        messages: list = []
        limit = 1 << self.message_bits
        for i, (fn, x) in enumerate(zip(self.msg_fns, inputs)):
            m = fn(x, tuple(messages), r)
            if i < self.n_players - 1 and not 0 <= int(m) < limit:
                raise ValueError(
                    f"player {i} message {m} does not fit in {self.message_bits} bits"
                )
            messages.append(m)
        return tuple(messages), messages[-1]


@dataclass(frozen=True)
class Transcript:
    """A fixed message sequence of the first N players with its exact
    probability a = prod(densities) and conditional quality b."""

    messages: tuple[int, ...]
    a: Fraction
    b: float
    quality_kind: str = "success"  # or "sq_error"

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise ValueError("transcript probability must be in (0, 1]")
        if not -1e-9 <= self.b <= 1 + 1e-9:
            raise ValueError("conditional quality must lie in [0, 1]")


@dataclass(frozen=True)
class StreamFSM:
    """A deterministic small-space streaming algorithm over one group input.

    step(state, coordinate, increment) -> state consumes single-coordinate
    updates; emit(state) is the output map.  The space budget is
    ceil(log2(n_states)) bits.

    n_states is a contract: the initial state and every state step returns
    lie in [0, n_states), and step and emit are deterministic functions of
    their arguments (fsm_to_players tabulates both over all states).
    """

    group: GroupSpec
    n_states: int
    initial: int
    step: Callable[[int, int, int], int]
    emit: Callable[[int], int | float]
    name: str = ""

    @property
    def state_bits(self) -> int:
        return max((self.n_states - 1).bit_length(), 1)

    def run_input(self, state: int, x: int) -> int:
        """Feed the updates encoding one group element (coordinates
        ascending, one update per nonzero coordinate)."""
        for coord, inc in self.group.unit_updates(x):
            state = self.step(state, coord, inc)
        return state

    def run_stream(self, updates) -> int:
        state = self.initial
        for coord, inc in updates:
            state = self.step(state, coord, inc)
        return state


def fsm_to_players(fsm: StreamFSM, n_players: int, max_state_bits: int | None = None) -> BroadcastProtocol:
    """Lift a streaming algorithm to an N-player streaming protocol.

    Player i decodes the previous message as the machine state, replays the
    updates encoding its own input, and forwards the new state; the last
    player applies the output map instead.

    Both message functions carry an array form (see BroadcastProtocol):
    a walk over the digits with one take per coordinate from that
    coordinate's step table (see _fsm_tables), the states of every prefix
    so far in index order (no coordinate matrix), and for the last player
    a read of the emit table at the walk's end.  A machine whose tables
    would exceed TRANSFORM_SIZE_LIMIT entries gets no array form.  Both
    carry the machine's initial state as `initial`.
    """
    c = fsm.state_bits
    if max_state_bits is not None and c > max_state_bits:
        raise ValueError(f"FSM needs {c} state bits, over the declared budget {max_state_bits}")

    def middle(x: int, prev: tuple, r: int) -> int:
        state = prev[-1] if prev else fsm.initial
        return fsm.run_input(state, x)

    def last(x: int, prev: tuple, r: int):
        return fsm.emit(middle(x, prev, r))

    group = fsm.group
    if fsm.n_states * group.n * max(group.moduli) <= TRANSFORM_SIZE_LIMIT:

        def run_all(state, r: int) -> np.ndarray:
            steps = _fsm_tables(fsm)[0]
            state = fsm.initial if state is None else state
            if not 0 <= state < fsm.n_states:
                raise ValueError(f"state {state} outside [0, {fsm.n_states})")
            st = np.array([state], dtype=np.int64)
            for step in steps:  # digit j is the slowest axis so far: index order
                st = step.take(st, axis=1).reshape(-1)
            return st

        middle.batch = run_all
        last.batch = lambda state, r: _fsm_tables(fsm)[1][run_all(state, r)]
    middle.initial = last.initial = fsm.initial

    return BroadcastProtocol(
        group=group,
        n_players=n_players,
        message_bits=c,
        msg_fns=(middle,) * (n_players - 1) + (last,),
        streaming=True,
        name=f"state-passing({fsm.name or 'fsm'})",
    )


def _fsm_tables(fsm: StreamFSM) -> tuple[list[np.ndarray], np.ndarray]:
    """One contiguous (m_j, n_states) step table per coordinate j, whose row
    d holds the state after digit d (row 0 keeps the state), and the emit
    table over the states.  Built on the first call, with one step call per
    state, coordinate and nonzero digit, and kept on the machine, so every
    protocol lifted from it shares them."""
    tables = fsm.__dict__.get("_tables")
    if tables is not None:
        return tables
    steps = [np.tile(np.arange(fsm.n_states, dtype=np.int64), (m, 1)) for m in fsm.group.moduli]
    for state in range(fsm.n_states):
        for j, step in enumerate(steps):
            for digit in range(1, len(step)):
                nxt = fsm.step(state, j, digit)
                if not 0 <= nxt < fsm.n_states:
                    raise ValueError(
                        f"step(state={state}, coordinate={j}, digit={digit}) = {nxt} "
                        f"is outside [0, {fsm.n_states})"
                    )
                step[digit, state] = nxt
    tables = steps, np.array([fsm.emit(state) for state in range(fsm.n_states)])
    object.__setattr__(fsm, "_tables", tables)  # StreamFSM is frozen
    return tables


@dataclass(frozen=True, eq=False)
class AdditiveFunction:
    """F(x_1, ..., x_N) = f(x_1 + ... + x_N) on the base group."""

    base: DenseFunction
    arity: int

    def evaluate(self, inputs: Sequence[int]):
        if len(inputs) != self.arity:
            raise ValueError(f"expected {self.arity} inputs")
        spec = self.base.group
        acc = 0
        for x in inputs:
            acc = spec.add(acc, x)
        return self.base.values[acc]

    __call__ = evaluate


def additive_lift(f: DenseFunction, n_players: int) -> AdditiveFunction:
    if n_players < 1:
        raise ValueError("need at least one player")
    return AdditiveFunction(f, n_players)


def run_smp(
    players: Sequence[Callable[[int, int], object]],
    coordinator: Callable[[tuple, int], object],
    inputs: Sequence[int],
    r: int = 0,
):
    """Simultaneous-message game: players send one message each to a
    coordinator who sees them all at once and produces the output."""
    if len(players) != len(inputs):
        raise ValueError("arity mismatch")
    messages = tuple(fn(x, r) for fn, x in zip(players, inputs))
    return coordinator(messages, r)


def smp_from_linear_sketch(sketch, n_players: int):
    """SMP protocol computing an additive function from a linear sketch.

    Each player sends the image coords(x) @ gamma mod p of its own input
    (sketch.image()); the coordinator folds the images (linearity) and
    applies the post-processing table at their read.  A subgroup-invariant
    sketch's image is the whole input, so it has no lowering (TypeError).
    Returns (players, coordinator, total_communication_bits).
    """
    from .sketch import HInvariantSketch

    if isinstance(sketch, HInvariantSketch):
        raise TypeError("SMP lowering needs a linear junta (F2 or Z_p)")
    gamma, p, read = sketch.image()
    per_group, zero = prg._fold_group(p), np.zeros(gamma.shape[1], dtype=np.int64)

    def player(x, r: int) -> tuple[int, ...]:
        x = sketch.check_input(x)
        coords = np.asarray(sketch.group.decode(x) if isinstance(x, int) else x, dtype=np.int64)
        return tuple(prg._fold(zero, coords, gamma, p, per_group).tolist())

    def coordinator(messages: tuple, r: int):
        images = np.asarray(messages, dtype=np.int64).reshape(len(messages), len(zero))
        ones = np.ones(len(messages), dtype=np.int64)
        return sketch.post[read(prg._fold(zero, ones, images, p, per_group))[1]]

    bits = n_players * len(zero) * max((p - 1).bit_length(), 1)
    return [player] * n_players, coordinator, bits
