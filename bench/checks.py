"""Output checks, computed apart from the library.

Each check takes an operation's input and its output and returns a list of
failure messages (empty when the output is right).  Expected values come
from the benchmark's own arithmetic: popcounts, dot products mod p,
mixed-radix coordinates (coordinate 0 least significant) and coset minima.
The library is called only where a check names its result (``eval_all``,
``RowTemplate.materialize``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def _popcount_parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.int64)


def _f2_image(rows, xs: np.ndarray) -> np.ndarray:
    """Sketch value of each packed x: bit j is <rows[j], x> over F2."""
    xs = np.asarray(xs, dtype=np.uint64)
    z = np.zeros(xs.shape, dtype=np.int64)
    for j, row in enumerate(rows):
        z |= _popcount_parity(xs & np.uint64(row)) << j
    return z


def _coords(p: int, n: int, index: np.ndarray) -> np.ndarray:
    return np.stack([(index // p**i) % p for i in range(n)], axis=-1)


def _encode(p: int, coords: np.ndarray) -> np.ndarray:
    return ((coords % p) * p ** np.arange(coords.shape[-1])).sum(axis=-1)


def _coset_minima(p: int, n: int, elements, xs: np.ndarray) -> np.ndarray:
    """Smallest index in x + H for each x."""
    x = _coords(p, n, np.asarray(xs, dtype=np.int64))
    mins = np.full(x.shape[0], p**n, dtype=np.int64)
    for h in _coords(p, n, np.asarray(elements, dtype=np.int64)):
        np.minimum(mins, _encode(p, x + h), out=mins)
    return mins


def _coset_eval(p: int, n: int, elements, post) -> np.ndarray:
    """A coset-invariant sketch on every x: coset ids count cosets in
    increasing order of their smallest element."""
    mins = _coset_minima(p, n, elements, np.arange(p**n))
    ids = np.searchsorted(np.unique(mins), mins)
    return np.asarray(post)[ids]


# ---------------------------------------------------------------- reduce-f2

def check_reduce(case, res) -> list[str]:
    errs = []
    rep = res.report
    n, N, c = case.f.group.n, case.cfg.players, case.message_bits
    if rep.densities != [Fraction(1, 2**c)] * N:
        errs.append(f"{case.name}: player-set densities are not all 2^-{c}")
    if rep.transcript_probability != Fraction(1, 2 ** (c * N)):
        errs.append(f"{case.name}: transcript probability {rep.transcript_probability} != 2^-{c * N}")
    xs = np.arange(1 << n, dtype=np.uint64)
    z = _f2_image(res.sketch.rows, xs)
    post = np.asarray(res.sketch.post)
    out = np.asarray(res.sketch.eval_all())
    if not np.array_equal(post[z], out):
        errs.append(f"{case.name}: eval_all differs from rows and post")
    fv = np.asarray(case.f.values, dtype=np.float64)
    exact = case.variant.startswith("exact")
    measured = float(np.mean(out == fv)) if exact else float(np.mean((out - fv) ** 2))
    if abs(measured - rep.quality) > 1e-9:
        errs.append(f"{case.name}: recomputed quality {measured} != reported {rep.quality}")
    if case.name == "parity" and not np.array_equal(post[z], _popcount_parity(xs)):
        errs.append("parity: sketch is not the popcount parity")
    if exact:
        k = len(post)
        ones = np.bincount(z, weights=fv, minlength=k)
        zeros = np.bincount(z, minlength=k) - ones
        if np.any((post == 1) & (ones < zeros)) or np.any((post == 0) & (zeros < ones)):
            errs.append(f"{case.name}: post table is not the best constant on every bucket")
    return errs


# ----------------------------------------------------------------- boost-zp

def check_boost(case, res) -> list[str]:
    errs = []
    p, n, rounds = case.p, case.f.group.n, case.rounds
    f = (_coords(p, n, np.arange(p**n)).sum(axis=-1) % p == 0).astype(np.int64)
    if len(res.round_reports) != rounds or len(res.mixture.entries) != rounds:
        errs.append("boost: round count differs from the request")
    correct = np.zeros(p**n, dtype=np.int64)
    for t, (w, sk) in enumerate(res.mixture.entries):
        if w != Fraction(1, rounds):
            errs.append(f"boost: round {t} weight {w} != 1/{rounds}")
        out = _coset_eval(p, n, sk.subgroup.elements, sk.post)
        if not np.array_equal(out, f):
            errs.append(f"boost: round {t} sketch differs from the coordinate-sum test")
        correct += out == f
    for t, rr in enumerate(res.round_reports):
        if rr.transcript_probability != Fraction(1, p**case.cfg.players):
            errs.append(f"boost: round {t} transcript probability != {p}^-{case.cfg.players}")
    per_x = [Fraction(int(k), rounds) for k in correct]
    if list(res.per_x_success) != per_x:
        errs.append("boost: per-x success differs from the recount over round sketches")
    if res.min_success != min(per_x):
        errs.append("boost: min success differs from the recount")
    return errs


# ------------------------------------------------------------ stream-replay

def _accumulate(dim: int, updates) -> np.ndarray:
    acc = np.zeros(dim, dtype=np.int64)
    if updates:
        coords, incs = zip(*updates)
        np.add.at(acc, np.asarray(coords), np.asarray(incs, dtype=np.int64))
    return acc


def _expected_read(case, acc: np.ndarray):
    """(values(), output()) of the sketch on the accumulated input."""
    if case.kind == "f2":
        x = int(sum(int(b) << i for i, b in enumerate(acc % 2)))
        z = int(_f2_image(case.sketch.rows, np.asarray([x]))[0])
        return z, case.sketch.post[z]
    if case.kind == "zp":
        sk = case.sketch
        v = (np.asarray(sk.rows, dtype=np.int64) @ (acc % sk.p)) % sk.p
        return tuple(int(c) for c in v), sk.post[int(_encode(sk.p, v))]
    spec, elements, post = case.sketch
    p, n = spec.moduli[0], spec.n
    all_minima = np.unique(_coset_minima(p, n, elements, np.arange(p**n)))
    x = int(_encode(p, acc % p))
    q = int(np.searchsorted(all_minima, _coset_minima(p, n, elements, np.asarray([x]))[0]))
    return q, post[q]


def _norm(read):
    values, output = read
    values = tuple(int(v) for v in values) if isinstance(values, tuple) else int(values)
    return values, output


def check_replay(case, result) -> list[str]:
    """The final state of the stream and every read of its shuffled replay
    against the offline accumulation; the last read covers the whole
    shuffled stream, so it also checks order invariance."""
    errs = []
    final, reads = result
    dim = case.sketch[0].n if case.kind == "h" else case.sketch.n
    want = _expected_read(case, _accumulate(dim, case.stream))
    if _norm(final) != want:
        errs.append(f"{case.kind}: final state {final} != offline {want}")
    if len(reads) != len(case.segments):
        errs.append(f"{case.kind}: {len(reads)} reads for {len(case.segments)} segments")
    acc = np.zeros(dim, dtype=np.int64)
    for i, (segment, read) in enumerate(zip(case.segments, reads)):
        acc += _accumulate(dim, segment)
        if _norm(read) != _expected_read(case, acc):
            errs.append(f"{case.kind}: read after shuffled segment {i} differs from the offline prefix")
            break
    return errs


def check_derand(derand, result) -> list[str]:
    template, stream, perm = derand
    x = _accumulate(template.n, stream) % template.p
    want = (template.materialize().T @ x) % template.p
    errs = []
    if not np.array_equal(np.asarray(result[0]), want):
        errs.append("derand: state differs from materialize().T @ x mod p")
    if not np.array_equal(np.asarray(result[1]), np.asarray(result[0])):
        errs.append("derand: shuffled stream gives another state")
    return errs


def check_fsm(fsm, res) -> list[str]:
    """Block-parity counter mod k over b-bit blocks: under true randomness the
    count of odd blocks is Binomial(blocks, 1/2), taken mod k."""
    machine, bits, count, samples, seed = fsm
    k = machine.n_states
    truth = [Fraction(0)] * k
    for j in range(count + 1):
        truth[j % k] += Fraction(comb(count, j), 2**count)
    errs = []
    if not np.array_equal(np.asarray(res.true_dist), np.asarray([float(t) for t in truth])):
        errs.append("fsm: true distribution is not Binomial mod k")
    prg_dist = np.asarray(res.prg_dist)
    hits = prg_dist * samples
    if res.exact or res.samples != samples or np.any(np.abs(hits - np.round(hits)) > 1e-6) \
            or abs(prg_dist.sum() - 1.0) > 1e-12:
        errs.append("fsm: generator distribution is not a histogram of the sampled seeds")
    l1 = float(np.sum(np.abs(np.asarray(res.true_dist) - prg_dist)))
    if abs(l1 - res.l1) > 1e-12:
        errs.append(f"fsm: l1 {res.l1} != recomputed {l1}")
    if res.l1 > 0.05:
        errs.append(f"fsm: l1 distance {res.l1} above the prg-check tolerance 0.05")
    return errs


def check(workload: str, op: str, inp, out) -> list[str]:
    if workload == "reduce-f2":
        return check_reduce(inp, out)
    if workload == "boost-zp":
        return check_boost(inp, out)
    return {"derand": check_derand, "fsm": check_fsm}.get(op, check_replay)(inp, out)
