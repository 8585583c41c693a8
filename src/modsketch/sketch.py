"""Linear sketches over F2, Z_p and general finite abelian groups.

A deterministic sketch of every kind is post[bucket(x)]: a dense table
read at a linear image of the input.  Each kind has the same members:
group, check_input (the input as eval takes it, or ValueError), eval,
buckets (the bucket of every input), eval_all, and image, the (gamma,
moduli, read) a SketchState folds: row i of gamma is the image of e_i mod
moduli, and read(vec) gives (values, bucket) at an image vector.  A
randomized sketch is a finite, exactly weighted distribution over
deterministic ones.  Sketches can be evaluated offline, maintained online
through update streams, measured exactly or by Monte Carlo, and
serialized to a versioned JSON text format.

A stream acts on a sketch only through each coordinate's increment total
mod its modulus, so a SketchState queues updates and flushes them in one
fold through the image matrix (prg._coordinate_totals, then prg._fold, as
derandomized_apply does); apply_stream feeds it one chunk at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import GroupSpec, SubgroupEnum, dot_f2, subgroup_from_elements
from .fourier import DenseFunction
from . import prg
from .seeding import derived_rng

__all__ = [
    "LinearJuntaF2",
    "ZpJunta",
    "HInvariantSketch",
    "RandomizedSketch",
    "SketchState",
    "Distribution",
    "eval_sketch",
    "bernoulli_round",
    "apply_stream",
    "success_probability",
    "approx_error",
    "serialize_sketch",
    "deserialize_sketch",
    "POST_TABLE_LIMIT",
]

POST_TABLE_LIMIT = 1 << 20
EXACT_EVAL_LIMIT = 1 << 24  # input space of a dense evaluation; support x input space exactly


def _check_size(size: int, limit: int = POST_TABLE_LIMIT, what: str = "post-processing table"):
    if size > limit:
        raise ValueError(f"{what} of size {size} exceeds the cap")


@dataclass(frozen=True)
class LinearJuntaF2:
    """g(x) = post[(l_1(x), ..., l_k(x))] with l_j(x) = <rows[j], x> over F2.

    Rows are packed ints; the post table is indexed by the k-bit sketch
    value (bit j = l_j(x)).  Outputs may be binary ints or [0,1] floats.
    """

    n: int
    rows: tuple[int, ...]
    post: tuple

    def __post_init__(self):
        _check_size(1 << len(self.rows))
        if len(self.post) != 1 << len(self.rows):
            raise ValueError("post table must have size 2^k")
        if any(not 0 <= r < (1 << self.n) for r in self.rows):
            raise ValueError("row out of range")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def cost(self) -> int:
        return len(self.rows)

    @property
    def group(self) -> GroupSpec:
        return GroupSpec.boolean(self.n)

    def check_input(self, x) -> int:
        x = x.bits if hasattr(x, "bits") else int(x)
        if not 0 <= x < 1 << self.n:
            raise ValueError(f"input {x} out of range for n={self.n}")
        return x

    def sketch_value(self, x: int) -> int:
        z = 0
        for j, row in enumerate(self.rows):
            z |= dot_f2(row, x) << j
        return z

    def eval(self, x: int):
        return self.post[self.sketch_value(x)]

    def buckets(self) -> np.ndarray:
        _check_size(1 << self.n, EXACT_EVAL_LIMIT, "input space")
        xs = np.arange(1 << self.n, dtype=np.uint64)
        z = np.zeros(1 << self.n, dtype=np.int64)
        for j, row in enumerate(self.rows):
            z |= ((np.bitwise_count(xs & np.uint64(row)) & 1) << j).astype(np.int64)
        return z

    def eval_all(self) -> np.ndarray:
        return np.asarray(self.post)[self.buckets()]

    def image(self):
        """gamma[i, j] = bit i of rows[j], mod 2; values = bucket = the sketch value."""
        width = (self.n + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in self.rows), dtype=np.uint8)
        bits = np.unpackbits(packed.reshape(self.k, width), axis=1, count=self.n, bitorder="little")

        def read(vec: np.ndarray):
            z = sum(v << j for j, v in enumerate(vec.tolist()))
            return z, z

        return bits.T.astype(np.int64, order="C"), 2, read


@dataclass(frozen=True)
class ZpJunta:
    """g(x) = post[(l_1(x), ..., l_k(x))] with linear forms over Z_p."""

    n: int
    p: int
    rows: tuple[tuple[int, ...], ...]
    post: tuple

    def __post_init__(self):
        _check_size(self.p ** len(self.rows))
        if len(self.post) != self.p ** len(self.rows):
            raise ValueError("post table must have size p^k")
        for row in self.rows:
            if len(row) != self.n or any(not 0 <= c < self.p for c in row):
                raise ValueError("malformed row")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def cost(self) -> int:
        return len(self.rows)

    @property
    def group(self) -> GroupSpec:
        return GroupSpec.cyclic_power(self.p, self.n)

    def check_input(self, x) -> Sequence[int]:
        if hasattr(x, "coords"):
            x = x.coords
        elif isinstance(x, (int, np.integer)):
            x = self.group.decode(int(x))
        if len(x) != self.n or any(not 0 <= c < self.p for c in x):
            raise ValueError("input coordinates do not match the sketch shape")
        return x

    def sketch_value(self, coords: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            sum(r * c for r, c in zip(row, coords)) % self.p for row in self.rows
        )

    def _post_index(self, value: Sequence[int]) -> int:
        idx = 0
        for v in reversed(value):
            idx = idx * self.p + v
        return idx

    def eval(self, coords: Sequence[int]):
        return self.post[self._post_index(self.sketch_value(coords))]

    def buckets(self) -> np.ndarray:
        group = self.group
        _check_size(group.size, EXACT_EVAL_LIMIT, "input space")
        rows = np.asarray(self.rows, dtype=np.int64).reshape(self.k, self.n)
        values = group.coords_matrix() @ rows.T % self.p
        return values @ self.p ** np.arange(self.k, dtype=np.int64)

    def eval_all(self) -> np.ndarray:
        return np.asarray(self.post)[self.buckets()]

    def image(self):
        """gamma = rows transposed, mod p; values = the k forms, bucket = their base-p index."""

        def read(vec: np.ndarray):
            values = tuple(vec.tolist())
            return values, self._post_index(values)

        return np.asarray(self.rows, dtype=np.int64).reshape(self.k, self.n).T, self.p, read


@dataclass(frozen=True, eq=False)
class HInvariantSketch:
    """A function constant on every coset of a subgroup H.

    post is indexed by coset id (see SubgroupEnum.coset_ids); the linear
    complexity is the number of cosets |G/H|.
    """

    subgroup: SubgroupEnum
    post: tuple

    def __post_init__(self):
        # |G/H| by Lagrange, checked before n_cosets builds the O(|G|) coset table
        _check_size(self.group.size // len(self.subgroup))
        if len(self.post) != self.subgroup.n_cosets:
            raise ValueError("post table must have one entry per coset")

    @property
    def group(self) -> GroupSpec:
        return self.subgroup.spec

    @property
    def complexity(self) -> int:
        return self.subgroup.n_cosets

    def check_input(self, x) -> int:
        x = x.index if hasattr(x, "index") else int(x)
        if not 0 <= x < self.group.size:
            raise ValueError(f"input index {x} outside the group")
        return x

    def eval(self, x: int):
        return self.post[self.subgroup.coset_ids()[x]]

    def buckets(self) -> np.ndarray:
        _check_size(self.group.size, EXACT_EVAL_LIMIT, "input space")
        return self.subgroup.coset_ids()

    def eval_all(self) -> np.ndarray:
        return np.asarray(self.post)[self.buckets()]

    def image(self):
        """gamma = identity, mod the group's moduli; values = bucket = the coset id of x."""
        ids = self.subgroup.coset_ids()
        strides = np.asarray(self.group.strides, dtype=np.int64)

        def read(vec: np.ndarray):
            q = int(ids[vec @ strides])
            return q, q

        return np.eye(self.group.n, dtype=np.int64), np.asarray(self.group.moduli), read


Sketch = LinearJuntaF2 | ZpJunta | HInvariantSketch


def eval_sketch(sketch: Sketch, x):
    """Evaluate a deterministic sketch on an input (dimension-checked)."""
    return sketch.eval(sketch.check_input(x))


@dataclass
class RandomizedSketch:
    """Finite distribution over deterministic sketches with exact weights."""

    entries: list[tuple[Fraction, Sketch]]
    seed: int = 0
    error_budget: float | None = None

    def __post_init__(self):
        total = sum(w for w, _ in self.entries)
        if total != 1:
            raise ValueError(f"weights must sum to 1 exactly, got {total}")
        if any(w < 0 for w, _ in self.entries):
            raise ValueError("negative weight")

    @classmethod
    def uniform_mixture(cls, sketches: Sequence[Sketch], seed: int = 0) -> "RandomizedSketch":
        w = Fraction(1, len(sketches))
        return cls([(w, s) for s in sketches], seed=seed)

    def sample(self, rng) -> Sketch:
        u = Fraction(rng.getrandbits(64), 1 << 64)
        acc = Fraction(0)
        for w, s in self.entries:
            acc += w
            if u < acc:
                return s
        return self.entries[-1][1]


def bernoulli_round(sketch: Sketch, seed: int = 0) -> Sketch:
    """Fix the internal randomness of a [0,1]-valued sketch.

    Each post-table bucket z independently becomes 1 with probability
    post[z], drawn from a seeded stream, yielding a binary sketch of the
    same shape; averaging over seeds recovers the original table.
    """
    rng = derived_rng(seed, "bernoulli-round")
    post = tuple(
        1 if rng.random() < float(v) else 0 for v in sketch.post
    )
    return replace(sketch, post=post)


class SketchState:
    """Online state of one sketch under a stream of updates (single writer).

    apply(coordinate, increment) checks the coordinate at once (IndexError
    outside [0, n)) and queues the update.  The queue is flushed when it
    holds prg.STREAM_CHUNK updates (as set when the state is made) and on
    every values() / output(): by linearity the flush sums the queue per
    coordinate mod the moduli and adds them in one fold through the image
    matrix, so working memory is O(STREAM_CHUNK).  `updates` counts every
    accepted update, queued or folded.

    A flush checks the whole queue before it folds anything.  An increment
    outside int64 (ValueError) or a coordinate or increment that is not an
    integer (TypeError) makes it raise, naming the first bad value; none of
    the queued updates is applied and the queue is emptied, so the state
    reads, and counts, as it did before that queue.
    """

    def __init__(self, sketch: Sketch):
        self.sketch = sketch
        self.n = sketch.group.n
        self._gamma, self._image_moduli, self._read = sketch.image()
        self._per_group = prg._fold_group(self._image_moduli)
        self._vec = np.zeros(self._gamma.shape[1], dtype=np.int64)
        self._reading = self._read(self._vec)  # (values, bucket), renewed per fold
        self._moduli = np.asarray(sketch.group.moduli, dtype=np.int64)
        self._queue = []  # flat: coordinate, increment, coordinate, ...
        self._limit = 2 * prg.STREAM_CHUNK
        self._folded = 0

    @property
    def updates(self) -> int:
        return self._folded + len(self._queue) // 2

    def apply(self, coordinate: int, increment: int):
        try:
            if not 0 <= coordinate < self.n:
                raise IndexError(f"coordinate {coordinate} out of range")
        except TypeError:
            raise TypeError(f"coordinate {coordinate!r} is not an integer") from None
        queue = self._queue
        queue.append(coordinate)
        queue.append(increment)
        if len(queue) >= self._limit:
            self._flush()

    def _flush(self):
        flat, self._queue = self._queue, []
        if flat:
            coords, totals = prg._coordinate_totals(flat, self.n, self._moduli)
            rows = self._gamma.take(coords, axis=0)
            self._vec = prg._fold(self._vec, totals, rows, self._image_moduli, self._per_group)
            self._reading = self._read(self._vec)
            self._folded += len(flat) // 2

    def values(self):
        """The maintained linear image of the accumulated input."""
        self._flush()
        return self._reading[0]

    def output(self):
        self._flush()
        return self.sketch.post[self._reading[1]]


def apply_stream(sketch: Sketch, updates: Iterable[tuple[int, int]]) -> SketchState:
    """Run a sequence of (coordinate, increment) updates through a sketch:
    a SketchState fed one chunk of at most STREAM_CHUNK updates at a time.

    The state depends only on each coordinate's increment total mod its
    modulus (every kind's image is linear in the input), so each chunk is
    one fold through the image matrix.
    Raises as a SketchState flush does, and IndexError for a coordinate
    outside [0, n).
    """
    state = SketchState(sketch)
    for flat in prg._stream_chunks(updates):
        state._queue = flat
        state._flush()
    return state


@dataclass(eq=False)
class Distribution:
    """A probability distribution over group elements (dense weights)."""

    group: GroupSpec
    probs: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (self.group.size,):
            raise ValueError("probability vector must have length |G|")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        s = float(self.probs.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s}, not 1")
        self._cum = None  # cumulative weights, on the first sample()

    @classmethod
    def uniform(cls, group: GroupSpec) -> "Distribution":
        return cls(group, np.full(group.size, 1.0 / group.size), name="uniform")

    @classmethod
    def from_weights(cls, group: GroupSpec, weights) -> "Distribution":
        w = np.asarray(weights, dtype=np.float64)
        if not 0 < w.sum() < np.inf:
            raise ValueError(f"weights sum to {w.sum()}, want a positive finite sum")
        return cls(group, w / w.sum(), name="weighted")

    def sample(self, rng, count: int = 1) -> list[int]:
        """count draws by bisecting the cumulative weights (built once):
        the draws rng.choices(range(|G|), weights=probs, k=count) makes
        from the same rng state."""
        if self._cum is None:
            self._cum = np.cumsum(self.probs)
        points = np.array([rng.random() for _ in range(count)]) * float(self._cum[-1])
        idx = np.searchsorted(self._cum, points, side="right")
        return np.minimum(idx, self.group.size - 1).tolist()

    def mean(self, values: np.ndarray) -> float:
        return float(np.dot(self.probs, values))


def _support(rsk: RandomizedSketch | Sketch) -> tuple[list[tuple[Fraction, Sketch]], GroupSpec]:
    """The weighted sketches and their input group, which must fit
    EXACT_EVAL_LIMIT for a dense measurement."""
    entries = rsk.entries if isinstance(rsk, RandomizedSketch) else [(Fraction(1), rsk)]
    group = entries[0][1].group
    _check_size(group.size, EXACT_EVAL_LIMIT, "input space")
    return entries, group


def success_probability(
    rsk: RandomizedSketch | Sketch,
    f: DenseFunction,
    mode: str = "exact",
    D: Distribution | None = None,
    samples: int = 10000,
    seed: int = 0,
):
    """Per-input probability that the sketch output equals f.

    exact mode enumerates the declared support and returns exact rationals
    (one Fraction per input), or their D-weighted mean if D is given.
    montecarlo mode samples sketches and returns (estimates, standard
    errors) as arrays, or scalars under D.
    """
    entries, group = _support(rsk)
    if f.group != group:
        raise ValueError("function group does not match the sketch")
    target = f.real_values()
    if not np.all(np.isin(target, (0.0, 1.0))):
        raise ValueError("success probability needs a binary target; use approx_error")

    if mode == "exact":
        if len(entries) * group.size > EXACT_EVAL_LIMIT:
            raise ValueError("support x input space too large for exact mode")
        per_x = [Fraction(0)] * group.size
        for w, sk in entries:
            for x in np.nonzero(sk.eval_all() == target)[0]:
                per_x[int(x)] += w
        if D is None:
            return per_x
        return float(np.dot(D.probs, [float(p) for p in per_x]))

    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    rng = derived_rng(seed, "success-mc")
    counts = np.zeros(group.size, dtype=np.int64)
    mixture = RandomizedSketch(entries)
    for _ in range(samples):
        sk = mixture.sample(rng)
        counts += sk.eval_all() == target
    est = counts / samples
    stderr = np.sqrt(np.maximum(est * (1 - est), 1e-300) / samples)
    if D is None:
        return est, stderr
    return float(np.dot(D.probs, est)), float(np.dot(D.probs, stderr))


def approx_error(
    rsk: RandomizedSketch | Sketch,
    f: DenseFunction,
    mode: str = "exact",
    D: Distribution | None = None,
    samples: int = 10000,
    seed: int = 0,
):
    """E |g(x) - f(x)|^2 per input (max over x), or its D-weighted mean.

    Both the sketch outputs and f must take values in [0, 1].
    """
    entries, group = _support(rsk)
    target = f.real_values()
    if np.any(target < -1e-12) or np.any(target > 1 + 1e-12):
        raise ValueError("f must take values in [0, 1]")

    if mode == "exact":
        if len(entries) * group.size > EXACT_EVAL_LIMIT:
            raise ValueError("support x input space too large for exact mode")
        per_x = np.zeros(group.size, dtype=np.float64)
        for w, sk in entries:
            out = np.asarray(sk.eval_all(), dtype=np.float64)
            if np.any(out < -1e-12) or np.any(out > 1 + 1e-12):
                raise ValueError("sketch outputs must lie in [0, 1]")
            per_x += float(w) * (out - target) ** 2
    elif mode == "montecarlo":
        rng = derived_rng(seed, "error-mc")
        mixture = RandomizedSketch(entries)
        per_x = np.zeros(group.size, dtype=np.float64)
        for _ in range(samples):
            sk = mixture.sample(rng)
            out = np.asarray(sk.eval_all(), dtype=np.float64)
            per_x += (out - target) ** 2
        per_x /= samples
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if D is None:
        return float(np.max(per_x))
    return float(np.dot(D.probs, per_x))


_FORMAT = "modsketch.sketch"
_VERSION = 1


def _sketch_to_dict(sk: Sketch) -> dict:
    if isinstance(sk, LinearJuntaF2):
        return {
            "kind": "linear-junta-f2",
            "n": sk.n,
            "rows": list(sk.rows),
            "post": list(sk.post),
        }
    if isinstance(sk, ZpJunta):
        return {
            "kind": "zp-junta",
            "n": sk.n,
            "p": sk.p,
            "rows": [list(r) for r in sk.rows],
            "post": list(sk.post),
        }
    return {
        "kind": "h-invariant",
        "moduli": list(sk.group.moduli),
        "subgroup": list(sk.subgroup.elements),
        "post": list(sk.post),
    }


def _sketch_from_dict(d: dict) -> Sketch:
    kind = d["kind"]
    if kind == "linear-junta-f2":
        return LinearJuntaF2(d["n"], tuple(d["rows"]), tuple(d["post"]))
    if kind == "zp-junta":
        return ZpJunta(
            d["n"], d["p"], tuple(tuple(r) for r in d["rows"]), tuple(d["post"])
        )
    if kind == "h-invariant":
        spec = GroupSpec(d["moduli"])
        return HInvariantSketch(subgroup_from_elements(spec, d["subgroup"]), tuple(d["post"]))
    raise ValueError(f"unknown sketch kind {kind!r}")


def serialize_sketch(sk: Sketch | RandomizedSketch) -> str:
    """Versioned JSON text form of a sketch (round-trips exactly)."""
    if isinstance(sk, RandomizedSketch):
        body = {
            "kind": "randomized",
            "seed": sk.seed,
            "entries": [
                {"weight": f"{w.numerator}/{w.denominator}", "sketch": _sketch_to_dict(s)}
                for w, s in sk.entries
            ],
        }
    else:
        body = _sketch_to_dict(sk)
    return json.dumps({"format": _FORMAT, "version": _VERSION, **body}, indent=2)


def deserialize_sketch(text: str) -> Sketch | RandomizedSketch:
    d = json.loads(text)
    if d.get("format") != _FORMAT:
        raise ValueError("not a sketch file")
    if d.get("version") != _VERSION:
        raise ValueError(f"unsupported sketch format version {d.get('version')}")
    if d["kind"] == "randomized":
        entries = []
        for e in d["entries"]:
            num, den = e["weight"].split("/")
            entries.append((Fraction(int(num), int(den)), _sketch_from_dict(e["sketch"])))
        return RandomizedSketch(entries, seed=d.get("seed", 0))
    return _sketch_from_dict(d)
