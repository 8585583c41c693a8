"""Exact linear algebra over F2 and arithmetic in finite abelian groups.

F2 vectors are packed into Python ints (bit i = coordinate i), so all F2
arithmetic is exact integer work.  General group elements live in
Z_{m1} x ... x Z_{mn} and are addressed either as coordinate tuples or as
mixed-radix indices (coordinate 0 is the fastest-varying digit).

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVec",
    "GroupSpec",
    "GroupVec",
    "SubspaceF2",
    "SubgroupEnum",
    "CharacterIndex",
    "dot_f2",
    "rank_basis",
    "orthogonal_complement",
    "coset_rep",
    "max_independent_subset",
    "heaviest_first",
    "char_eval",
    "subgroup_from_elements",
]


def dot_f2(a: int, b: int) -> int:
    """Inner product of two packed F2 vectors."""
    return (a & b).bit_count() & 1


@dataclass(frozen=True)
class BitVec:
    """An element of F2^n, packed into an int (bit i = coordinate i)."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits:#x} out of range for n={self.n}")

    def __add__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return BitVec(self.bits ^ other.bits, self.n)

    __xor__ = __add__
    __sub__ = __add__

    def __getitem__(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()


class GroupSpec:
    """Descriptor of Z_{m1} x ... x Z_{mn}; doubles as its own dual group.

    Elements are addressed by mixed-radix index: index = sum_j a_j * stride_j
    with stride_0 = 1.  For the all-2 ("boolean") case the index coincides
    with the packed F2 bitmask.
    """

    __slots__ = (
        "moduli",
        "n",
        "size",
        "exponent",
        "strides",
        "_char_tables",
        "_coords",
    )

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("need at least one coordinate")
        if any(m < 2 for m in moduli):
            raise ValueError("all moduli must be >= 2")
        self.moduli = moduli
        self.n = len(moduli)
        size = 1
        strides = []
        for m in moduli:
            strides.append(size)
            size *= m
        self.size = size
        self.strides = tuple(strides)
        self.exponent = math.lcm(*moduli)
        self._char_tables = None
        self._coords = None

    @classmethod
    def boolean(cls, n: int) -> "GroupSpec":
        return cls((2,) * n)

    @classmethod
    def cyclic_power(cls, p: int, n: int) -> "GroupSpec":
        """Z_p^n."""
        return cls((p,) * n)

    @property
    def is_boolean(self) -> bool:
        return all(m == 2 for m in self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpec) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        if self.is_boolean:
            return f"GroupSpec.boolean({self.n})"
        return f"GroupSpec({list(self.moduli)})"

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n:
            raise ValueError("coordinate count mismatch")
        idx = 0
        for c, m, s in zip(coords, self.moduli, self.strides):
            idx += (c % m) * s
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        out = []
        for m in self.moduli:
            out.append(index % m)
            index //= m
        return tuple(out)

    def add(self, i: int, j: int) -> int:
        """Index of the group sum of elements i and j."""
        idx = 0
        for m, s in zip(self.moduli, self.strides):
            idx += ((i % m + j % m) % m) * s
            i //= m
            j //= m
        return idx

    def neg(self, i: int) -> int:
        idx = 0
        for m, s in zip(self.moduli, self.strides):
            idx += ((m - i % m) % m) * s
            i //= m
        return idx

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def coords_matrix(self) -> np.ndarray:
        """All elements as a (size, n) int64 coordinate matrix (cached)."""
        if self._coords is None:
            cols = []
            idx = np.arange(self.size, dtype=np.int64)
            for m, s in zip(self.moduli, self.strides):
                cols.append((idx // s) % m)
            self._coords = np.stack(cols, axis=1)
            self._coords.setflags(write=False)
        return self._coords

    def encode_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized mixed-radix encoding of a (k, n) coordinate array."""
        moduli = np.asarray(self.moduli, dtype=np.int64)
        strides = np.asarray(self.strides, dtype=np.int64)
        return ((coords % moduli) * strides).sum(axis=1)

    def char_table(self, j: int) -> np.ndarray:
        """Roots of unity exp(2*pi*i*k/m_j) for coordinate j."""
        if self._char_tables is None:
            tables = []
            for m in self.moduli:
                tables.append(
                    np.exp(2j * np.pi * np.arange(m) / m).astype(np.complex128)
                )
            self._char_tables = tuple(tables)
        return self._char_tables[j]

    def unit_updates(self, index: int) -> list[tuple[int, int]]:
        """Stream updates (coordinate, increment) encoding one element,
        coordinates ascending, one update per nonzero coordinate."""
        out = []
        for j, m in enumerate(self.moduli):
            a = index % m
            index //= m
            if a:
                out.append((j, a))
        return out


@dataclass(frozen=True)
class GroupVec:
    """An element of a finite abelian group, in mixed-radix coordinates."""

    coords: tuple[int, ...]
    spec: GroupSpec

    def __post_init__(self):
        if len(self.coords) != self.spec.n:
            raise ValueError("coordinate count mismatch")
        if any(not 0 <= c < m for c, m in zip(self.coords, self.spec.moduli)):
            raise ValueError("coordinate out of range")

    @property
    def index(self) -> int:
        return self.spec.encode(self.coords)

    def __add__(self, other: "GroupVec") -> "GroupVec":
        if self.spec != other.spec:
            raise ValueError("group mismatch")
        coords = tuple(
            (a + b) % m
            for a, b, m in zip(self.coords, other.coords, self.spec.moduli)
        )
        return GroupVec(coords, self.spec)

    def __neg__(self) -> "GroupVec":
        coords = tuple((m - a) % m for a, m in zip(self.coords, self.spec.moduli))
        return GroupVec(coords, self.spec)

    def __sub__(self, other: "GroupVec") -> "GroupVec":
        return self + (-other)


# A character of G is indexed by a group element gamma of the (isomorphic)
# dual group: gamma(x) = prod_j exp(2*pi*i*gamma_j*x_j/m_j).
CharacterIndex = GroupVec


def char_eval(gamma: GroupVec, x: GroupVec) -> complex:
    """Evaluate the character indexed by gamma at x (unit modulus)."""
    if gamma.spec != x.spec:
        raise ValueError("group mismatch")
    spec = gamma.spec
    out = complex(1.0)
    for j, (g, a) in enumerate(zip(gamma.coords, x.coords)):
        out *= spec.char_table(j)[(g * a) % spec.moduli[j]]
    return out


@dataclass(frozen=True)
class SubspaceF2:
    """A subspace of F2^n given by a reduced row-echelon basis.

    Basis rows are packed ints sorted by pivot (lowest set bit) ascending;
    each pivot coordinate appears in exactly one row, so reduction against
    the basis is a deterministic normal form.
    """

    n: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, x: int) -> int:
        """Normal form of x modulo the subspace (canonical coset member)."""
        for row in self.basis:
            if x & (row & -row):
                x ^= row
        return x

    def elements(self) -> list[int]:
        """All 2^dim members (for desk-scale dims only)."""
        out = [0]
        for row in self.basis:
            out += [v ^ row for v in out]
        return sorted(out)


def rank_basis(rows: Iterable[int | BitVec], n: int | None = None) -> SubspaceF2:
    """Reduced echelon basis of the span of the given F2 row vectors.

    Accepts packed ints (n required) or BitVec values (n inferred).
    """
    packed: list[int] = []
    for r in rows:
        if isinstance(r, BitVec):
            if n is None:
                n = r.n
            elif r.n != n:
                raise ValueError("dimension mismatch among rows")
            packed.append(r.bits)
        else:
            packed.append(int(r))
    if n is None:
        raise ValueError("dimension n required when rows are packed ints")
    if any(not 0 <= r < (1 << n) for r in packed):
        raise ValueError("row out of range for given dimension")

    basis: list[int] = []  # kept with distinct pivots (lowest set bits)
    for v in packed:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v:
            # clear the new pivot from existing rows to stay fully reduced
            p = v & -v
            basis = [b ^ v if b & p else b for b in basis]
            basis.append(v)
    basis.sort(key=lambda b: b & -b)
    return SubspaceF2(n, tuple(basis))


def orthogonal_complement(space: SubspaceF2) -> SubspaceF2:
    """The subspace of all vectors orthogonal (mod 2) to the given one."""
    n = space.n
    pivots = [(row & -row).bit_length() - 1 for row in space.basis]
    pivot_set = set(pivots)
    comp: list[int] = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = 1 << j
        for row, p in zip(space.basis, pivots):
            if (row >> j) & 1:
                v |= 1 << p
        comp.append(v)
    return rank_basis(comp, n)


def coset_rep(space: SubspaceF2, x: int | BitVec) -> int:
    """Canonical representative of x + V; equal reps iff same coset."""
    if isinstance(x, BitVec):
        x = x.bits
    return space.reduce(x)


def heaviest_first(weights: Sequence[float], keys: Sequence) -> list[int]:
    """Indices by decreasing weight, ties by increasing key.

    Weights are compared rounded to 9 digits relative to the largest, so
    weights that are equal in exact arithmetic (those of gamma and -gamma,
    say) tie whatever rounding their transform left in them.
    """
    top = max(map(abs, weights), default=0.0) or 1.0
    return sorted(range(len(weights)), key=lambda i: (-round(weights[i] / top, 9), keys[i]))


def max_independent_subset(
    vectors: Sequence[int | BitVec],
    weights: Sequence[float],
    n: int | None = None,
) -> list[int]:
    """Greedy maximal linearly independent subset, heaviest first.

    Ties (see heaviest_first) are broken lexicographically on the
    coordinate sequence (coordinate 0 first).  Returns packed ints in
    selection order; the output spans the same space as the input.
    """
    if len(vectors) != len(weights):
        raise ValueError("weights length must match vectors")
    packed = []
    for v in vectors:
        if isinstance(v, BitVec):
            if n is None:
                n = v.n
            packed.append(v.bits)
        else:
            packed.append(int(v))
    if n is None:
        raise ValueError("dimension n required when vectors are packed ints")

    lex_keys = [tuple((bits >> i) & 1 for i in range(n)) for bits in packed]
    chosen: list[int] = []
    basis: list[int] = []
    for i in heaviest_first(weights, lex_keys):
        v = packed[i]
        w = v
        for b in basis:
            if w & (b & -b):
                w ^= b
        if w:
            p = w & -w
            basis = [b ^ w if b & p else b for b in basis]
            basis.append(w)
            chosen.append(v)
    return chosen


class SubgroupEnum:
    """A subgroup of a finite abelian group as an explicit element list."""

    __slots__ = ("spec", "elements", "_member_set", "_coset_ids", "_n_cosets", "_generators", "_dual_mask")

    def __init__(self, spec: GroupSpec, elements: Iterable[int]):
        self.spec = spec
        self.elements = tuple(sorted(set(int(e) for e in elements)))
        if not self.elements or self.elements[0] != 0:
            raise ValueError("subgroup must contain the identity")
        self._member_set = frozenset(self.elements)
        self._coset_ids = None
        self._n_cosets = None
        self._generators = None
        self._dual_mask = None  # set by fourier.dual_annihilator_mask

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, index: int) -> bool:
        return index in self._member_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupEnum)
            and self.spec == other.spec
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.elements))

    def verify_closed(self) -> bool:
        """Closure check, linear in the span: the subgroup that generators()
        span contains H, so H is closed iff that span has |H| members."""
        closure, members = _trivial_closure(self.spec)
        for g in self.generators():
            members = _grow_closure(self.spec, closure, members, g)
        return len(members) == len(self.elements)

    def generators(self) -> list[int]:
        """A small generating set, found by greedy closure growth: each
        element not yet in the closure, in ascending order, is a generator."""
        if self._generators is None:
            closure, members = _trivial_closure(self.spec)
            elements = np.asarray(self.elements, dtype=np.int64)
            gens = []
            while (rest := elements[~closure[elements]]).size:
                gens.append(int(rest[0]))
                members = _grow_closure(self.spec, closure, members, gens[-1])
            self._generators = tuple(gens)
        return list(self._generators)

    @property
    def n_cosets(self) -> int:
        self.coset_ids()
        return self._n_cosets

    def coset_ids(self) -> np.ndarray:
        """Map every group element index to a coset id in [0, |G|/|H|).

        Coset ids are assigned in increasing order of the smallest element
        of the coset, so id 0 is the subgroup itself.  The least element of
        x + H is a minimum over x + <g> for each generator g in turn.
        """
        if self._coset_ids is None:
            spec = self.spec
            cols = spec.coords_matrix().T
            idx = np.arange(spec.size, dtype=np.int64)
            least = idx
            for g in self.generators():
                shift = idx.copy()  # x -> x + g, one nonzero coordinate of g at a time
                for j, gj in enumerate(spec.decode(g)):
                    if gj:
                        shift += ((cols[j] + gj) % spec.moduli[j] - cols[j]) * spec.strides[j]
                for _ in range((spec.exponent - 1).bit_length()):  # 2^k >= the order of g
                    least = np.minimum(least, least[shift])
                    shift = shift[shift]
            is_least = least == idx
            ids = (np.cumsum(is_least) - 1)[least]
            ids.setflags(write=False)
            self._coset_ids = ids
            self._n_cosets = int(np.count_nonzero(is_least))
        return self._coset_ids

    def quotient_add_table(self) -> np.ndarray:
        """Addition table of the quotient group on coset ids (quadratic in
        the number of cosets; a streaming state folds its coordinate totals
        through the sketch's image matrix instead)."""
        ids = self.coset_ids()
        reps = [int(np.argmax(ids == q)) for q in range(self.n_cosets)]
        table = np.empty((self.n_cosets, self.n_cosets), dtype=np.int64)
        for a, ra in enumerate(reps):
            for b, rb in enumerate(reps):
                table[a, b] = ids[self.spec.add(ra, rb)]
        return table


def subgroup_from_elements(spec: GroupSpec, elements: Iterable[int]) -> SubgroupEnum:
    """Build a SubgroupEnum after checking that the elements lie in G and
    are closed under its operation."""
    sub = SubgroupEnum(spec, elements)
    if not 0 <= sub.elements[-1] < spec.size:
        raise ValueError(f"element {sub.elements[-1]} outside the group of order {spec.size}")
    if not sub.verify_closed():
        raise ValueError("element set is not closed under the group operation")
    return sub


def subgroup_generated(spec: GroupSpec, generators: Iterable[int]) -> SubgroupEnum:
    """Closure of a generator list (desk scale: closure fits in memory)."""
    closure, members = _trivial_closure(spec)
    for g in generators:
        members = _grow_closure(spec, closure, members, g)
    return SubgroupEnum(spec, members.tolist())


def _trivial_closure(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The subgroup {0} as a membership bitmap over G and a member array."""
    closure = np.zeros(spec.size, dtype=bool)
    closure[0] = True
    return closure, np.zeros(1, dtype=np.int64)


def _grow_closure(spec: GroupSpec, closure: np.ndarray, members: np.ndarray, e: int) -> np.ndarray:
    """Members of H + <e>, given the members of a subgroup H (members[0] = 0)
    and its bitmap, which is updated in place.  H + k*e is H again or
    disjoint from it, and it is H exactly when k*e (its entry 0) is in H."""
    coords = spec.coords_matrix()
    grown, shifted = [members], members
    while True:
        shifted = spec.encode_matrix(coords[shifted] + coords[e])
        if closure[shifted[0]]:
            return np.concatenate(grown)
        closure[shifted] = True
        grown.append(shifted)
