"""Registry of benchmark functions, protocols and streaming machines.

Functions are dense tables over their input group; protocols are families
parameterized by the player count so the compiler can instantiate N+1
players.  Everything is addressed by string name plus integer parameters,
which is what the CLI exposes.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .algebra import GroupSpec
from .fourier import TRANSFORM_SIZE_LIMIT, DenseFunction
from .protocol import BroadcastProtocol, StreamFSM, fsm_to_players

__all__ = [
    "ProtocolFamily",
    "zoo_function",
    "zoo_protocol",
    "zoo_fsm",
    "zoo_list",
    "UnknownZooEntry",
]


class UnknownZooEntry(KeyError):
    pass


def _as_index(value) -> int | None:
    """value as an int if it is an integer (numpy integers too) or an
    integral float, never a bool; None otherwise."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _group(n, p=2) -> GroupSpec:
    """Z_p^n, checked against TRANSFORM_SIZE_LIMIT before any tuple of n
    moduli, 2^n or p^n is built: n >= 1 and p >= 2 must be integers."""
    n_int, p_int = _as_index(n), _as_index(p)
    if n_int is None or n_int < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if p_int is None or p_int < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    # p >= 2, so n past log2 of the limit is too large without computing p^n
    if n_int >= TRANSFORM_SIZE_LIMIT.bit_length() or p_int**n_int > TRANSFORM_SIZE_LIMIT:
        raise ValueError(f"|G| = {p_int}^{n_int} exceeds the transform limit {TRANSFORM_SIZE_LIMIT}")
    return GroupSpec.cyclic_power(p_int, n_int)


@dataclass(frozen=True)
class ProtocolFamily:
    """A protocol builder parameterized by the number of players."""

    group: GroupSpec
    message_bits: int
    build: Callable[[int], BroadcastProtocol]
    name: str

    def __call__(self, n_players: int) -> BroadcastProtocol:
        return self.build(n_players)


def _check_mask(group: GroupSpec, mask, name: str = "mask") -> int:
    """mask as a subset of group's n coordinates, as an int in [0, 2^n) (see
    _as_index)."""
    value = _as_index(mask)
    if value is None or not 0 <= value < 1 << group.n:
        raise ValueError(f"{name} must be an integer in [0, 2^{group.n}), got {mask!r}")
    return value


def _check_weights(w1: float, w2: float) -> None:
    """The blend's weights keep it in [0, 1]; NaN is rejected."""
    if not (w1 >= 0 and w2 >= 0 and w1 + w2 <= 0.5):
        raise ValueError("need w1, w2 >= 0 with w1 + w2 <= 1/2")


def _parity(n: int) -> DenseFunction:
    group = _group(n)
    xs = np.arange(group.size, dtype=np.uint64)
    return DenseFunction(group, (np.bitwise_count(xs) & 1).astype(np.float64))


def _junta_parity(n: int, mask: int) -> DenseFunction:
    group = _group(n)
    mask = _check_mask(group, mask)
    xs = np.arange(group.size, dtype=np.uint64)
    vals = (np.bitwise_count(xs & np.uint64(mask)) & 1).astype(np.float64)
    return DenseFunction(group, vals)


def _dictator(n: int, i: int = 0) -> DenseFunction:
    group = _group(n)
    i = _as_index(i)
    if i is None or not 0 <= i < group.n:
        raise ValueError("dictator coordinate out of range")
    return _junta_parity(group.n, 1 << i)


def _majority(n: int) -> DenseFunction:
    group = _group(n)
    xs = np.arange(group.size, dtype=np.uint64)
    vals = (2 * np.bitwise_count(xs) >= group.n).astype(np.float64)
    return DenseFunction(group, vals)


def _mod_p_sum_zero(n: int, p: int) -> DenseFunction:
    group = _group(n, p)
    sums = group.coords_matrix().sum(axis=1) % group.exponent
    return DenseFunction(group, (sums == 0).astype(np.float64))


def _two_parity_blend(
    n: int, a: int, b: int, w1: float = 0.3, w2: float = 0.2
) -> DenseFunction:
    """0.5 + w1*(-1)^<a,x> + w2*(-1)^<b,x>, a [0,1]-valued test target."""
    _check_weights(w1, w2)
    group = _group(n)
    a, b = _check_mask(group, a, "a"), _check_mask(group, b, "b")
    xs = np.arange(group.size, dtype=np.uint64)
    sa = 1.0 - 2.0 * (np.bitwise_count(xs & np.uint64(a)) & 1)
    sb = 1.0 - 2.0 * (np.bitwise_count(xs & np.uint64(b)) & 1)
    return DenseFunction(group, 0.5 + w1 * sa + w2 * sb)


def _lifted(fsm: StreamFSM, family: str, name: str | None = None) -> ProtocolFamily:
    """The players fsm_to_players makes of fsm, as a family; name, when given,
    replaces the protocol's state-passing name."""

    def build(n_players: int) -> BroadcastProtocol:
        protocol = fsm_to_players(fsm, n_players)
        return protocol if name is None else replace(protocol, name=name)

    return ProtocolFamily(fsm.group, fsm.state_bits, build, family)


def _parity_chain(n: int, mask: int | None = None) -> ProtocolFamily:
    """2-state machine: an odd increment at coordinate j flips the state when
    mask bit j is set, so the state is the masked parity."""
    group = _group(n)
    m = (1 << group.n) - 1 if mask is None else _check_mask(group, mask)
    fsm = StreamFSM(group=group, n_states=2, initial=0,
                    step=lambda s, j, inc: s ^ (m >> j & inc & 1), emit=lambda s: s,
                    name=f"parity-chain(mask={m:#x})")
    return _lifted(fsm, "parity-chain", fsm.name)


def _running_sum_fsm(n: int, p: int) -> StreamFSM:
    group = _group(n, p)
    p = group.exponent
    return StreamFSM(
        group=group,
        n_states=p,
        initial=0,
        step=lambda s, coord, inc: (s + inc) % p,
        emit=lambda s: int(s == 0),
        name=f"running-sum-mod-{p}",
    )


def _running_sum_protocol(n: int, p: int) -> ProtocolFamily:
    return _lifted(_running_sum_fsm(n, p), "running-sum-mod-p")


def _constant_protocol(n: int, value: int = 0, p: int = 2) -> ProtocolFamily:
    if not isinstance(value, numbers.Real):
        raise ValueError(f"value must be a number, got {value!r}")
    fsm = StreamFSM(group=_group(n, p), n_states=1, initial=0, step=lambda s, j, inc: 0,
                    emit=lambda s: value, name=f"constant({value})")
    return _lifted(fsm, "constant", fsm.name)


def _two_parity_blend_chain(
    n: int, a: int, b: int, w1: float = 0.3, w2: float = 0.2, levels: int = 5
) -> ProtocolFamily:
    """4-state machine carrying both masked parities (state bit 0 for a, bit 1
    for b); the output map reconstructs the blend and snaps it to a uniform
    grid, so the protocol's squared error is the exact quantization error."""
    _check_weights(w1, w2)
    levels = _as_index(levels)
    if levels is None or levels < 2:
        raise ValueError("need at least 2 quantization levels")
    group = _group(n)
    a, b = _check_mask(group, a, "a"), _check_mask(group, b, "b")
    flips = [(a >> j & 1) | (b >> j & 1) << 1 for j in range(group.n)]

    def emit(z: int) -> float:
        value = 0.5 + w1 * (1 - 2 * (z & 1)) + w2 * (1 - 2 * ((z >> 1) & 1))
        return round(value * (levels - 1)) / (levels - 1)

    fsm = StreamFSM(group=group, n_states=4, initial=0,
                    step=lambda s, j, inc: s ^ flips[j] * (inc & 1), emit=emit,
                    name="two-parity-blend-chain")
    return _lifted(fsm, "two-parity-blend-chain", fsm.name)


def _state_passing_protocol(fsm: str, **fsm_params) -> ProtocolFamily:
    """Lift any registered streaming machine into a protocol family."""
    return _lifted(zoo_fsm(fsm, **fsm_params), f"state-passing({fsm})")


FUNCTIONS = {
    "parity": (_parity, "n"),
    "dictator": (_dictator, "n, i=0"),
    "junta-parity": (_junta_parity, "n, mask"),
    "majority": (_majority, "n"),
    "mod-p-sum-zero": (_mod_p_sum_zero, "n, p"),
    "two-parity-blend": (_two_parity_blend, "n, a, b, w1=0.3, w2=0.2"),
}

PROTOCOLS = {
    "parity-chain": (_parity_chain, "n, mask=None"),
    "running-sum-mod-p": (_running_sum_protocol, "n, p"),
    "constant": (_constant_protocol, "n, value=0, p=2"),
    "two-parity-blend-chain": (
        _two_parity_blend_chain,
        "n, a, b, w1=0.3, w2=0.2, levels=5",
    ),
    "state-passing": (_state_passing_protocol, "fsm, **fsm_params"),
}

FSMS = {
    "running-sum": (_running_sum_fsm, "n, p"),
}


def zoo_function(name: str, **params) -> DenseFunction:
    if name not in FUNCTIONS:
        raise UnknownZooEntry(f"unknown function {name!r}; see zoo-list")
    return FUNCTIONS[name][0](**params)


def zoo_protocol(name: str, **params) -> ProtocolFamily:
    if name not in PROTOCOLS:
        raise UnknownZooEntry(f"unknown protocol {name!r}; see zoo-list")
    return PROTOCOLS[name][0](**params)


def zoo_fsm(name: str, **params) -> StreamFSM:
    if name not in FSMS:
        raise UnknownZooEntry(f"unknown FSM {name!r}; see zoo-list")
    return FSMS[name][0](**params)


def zoo_list() -> dict:
    return {
        "functions": {k: sig for k, (_, sig) in FUNCTIONS.items()},
        "protocols": {k: sig for k, (_, sig) in PROTOCOLS.items()},
        "fsms": {k: sig for k, (_, sig) in FSMS.items()},
    }
