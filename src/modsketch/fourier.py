"""Fourier analysis on F2^n and finite abelian groups.

Conventions: for f on G, the coefficient at character gamma is
fhat(gamma) = E_x f(x) * conj(gamma(x)), so the point mass |G|*1_{0} has
all-ones spectrum and f(x) = sum_gamma fhat(gamma) * gamma(x).
Convolution is (f*g)(x) = E_y f(y) g(x-y), hence hat(f*g) = fhat * ghat.

Every transform, forward or inverse and on any group, applies the DFT
matrix of G as a Kronecker product of dense DFT blocks, one matrix product
each; a coordinate of modulus above 32 (other than a prime up to 170) goes
through np.fft instead.  Over F2^n the blocks are real Hadamard matrices, so
real functions keep float64 spectra and complex ones take one pass over
their float64 view.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    GroupSpec,
    SubgroupEnum,
    SubspaceF2,
    heaviest_first,
    max_independent_subset,
    orthogonal_complement,
)

__all__ = [
    "DenseFunction",
    "Spectrum",
    "NormalizedIndicator",
    "transform",
    "inverse_transform",
    "normalized_indicator",
    "convolve",
    "joint_spectrum",
    "averaged_shift",
    "mixing_gap",
    "chang_sum",
    "is_dissociated",
    "extract_dissociated",
    "annihilator",
    "dual_annihilator_mask",
    "TransformLimitError",
    "DissociationLimitError",
    "ChangBoundError",
]

TRANSFORM_SIZE_LIMIT = 1 << 20
# Largest order m^k of a dense DFT block for a run of equal moduli.  On one
# BLAS thread at 2^13 to 2^20, Hadamard blocks of 2^5 were as fast as 2^6 or
# faster, faster than 2^7 and 2^8, and not slower than smaller ones; on
# Z_3^12, Z_4^9 and Z_5^8 block orders from 9 to 64 timed alike.
DFT_BLOCK_ORDER = 32
# Largest prime modulus transformed by its dense block; other moduli above
# DFT_BLOCK_ORDER go through np.fft, whose generic radix is slower on such
# primes (BENCH_large-moduli.json).
DENSE_PRIME_LIMIT = 170
DISSOCIATED_DEFAULT_LIMIT = 16


class TransformLimitError(ValueError):
    pass


class DissociationLimitError(ValueError):
    pass


class ChangBoundError(AssertionError):
    pass


@dataclass(eq=False)
class DenseFunction:
    """A function on a finite abelian group, stored densely by index."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.group.size,):
            raise ValueError("value array must have length |G|")

    @classmethod
    def constant(cls, group: GroupSpec, value: float = 1.0) -> "DenseFunction":
        return cls(group, np.full(group.size, value, dtype=np.float64))

    @classmethod
    def point_mass(cls, group: GroupSpec, at: int = 0) -> "DenseFunction":
        """The normalized point mass |G| * 1_{x=at} (all-ones spectrum at 0)."""
        v = np.zeros(group.size, dtype=np.float64)
        v[at] = group.size
        return cls(group, v)

    def real_values(self, tol: float = 1e-9) -> np.ndarray:
        if np.iscomplexobj(self.values):
            if np.max(np.abs(self.values.imag), initial=0.0) > tol:
                raise ValueError("function has a non-negligible imaginary part")
            return self.values.real.copy()
        return self.values


@dataclass(eq=False)
class Spectrum:
    """Fourier coefficients indexed by the (mixed-radix) dual group.

    coeffs are float64 when given real values and complex128 otherwise.
    transform() gives float64 exactly for a real function on an all-2
    group (every character is +-1), and complex128 for complex input and
    on every other group; inverse_transform() maps a float64 spectrum on
    an all-2 group back to real values.
    """

    group: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        self.coeffs = coeffs.astype(
            np.complex128 if np.iscomplexobj(coeffs) else np.float64, copy=False
        )
        if self.coeffs.shape != (self.group.size,):
            raise ValueError("coefficient array must have length |G|")

    def energy(self) -> float:
        """sum |fhat(gamma)|^2; equals E|f|^2 by Parseval."""
        return float(np.sum(np.abs(self.coeffs) ** 2))


@functools.lru_cache(maxsize=64)
def _blocks(moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The factors (m, k), F_{m^k} over k coordinates of modulus m, from the highest
    coordinate down: each run of equal moduli split as evenly as possible, larger first,
    into the fewest blocks of order m^k <= DFT_BLOCK_ORDER (one coordinate at least)."""
    out = []
    for m, run in itertools.groupby(reversed(moduli)):
        n, most = len(list(run)), 1
        while m ** (most + 1) <= DFT_BLOCK_ORDER:
            most += 1
        parts = -(-n // most)
        q, r = divmod(n, parts)
        out += [(m, q + 1)] * r + [(m, q)] * (parts - r)
    return tuple(out)


def _roots(m: int, exponents: np.ndarray, inverse: bool) -> np.ndarray:
    """exp(-+2 pi i e / m) of integer exponents e, reduced mod m so every angle is exact."""
    return np.exp((2j if inverse else -2j) * np.pi / m * (exponents % m))


@functools.cache
def _dft_block(m: int, k: int, inverse: bool) -> np.ndarray:
    """The unnormalized DFT matrix of Z_m^k, read-only (for m = 2 the real Sylvester-Hadamard
    matrix), kept once built."""
    coords = GroupSpec.cyclic_power(m, k).coords_matrix()
    pairing = coords @ coords.T
    block = 1.0 - 2.0 * (pairing % 2) if m == 2 else _roots(m, pairing, inverse)
    block.flags.writeable = False
    return block


def _dft_pass(x: np.ndarray, m: int, k: int, inverse: bool) -> np.ndarray:
    """The DFT over Z_m^k of the leading axis of x seen as (m^k, rest), as (rest, m^k).

    One dense block up to DFT_BLOCK_ORDER, or for a prime m up to DENSE_PRIME_LIMIT;
    np.fft for every other modulus (k = 1 above DFT_BLOCK_ORDER).
    """
    if m**k <= DFT_BLOCK_ORDER or (m <= DENSE_PRIME_LIMIT and all(m % d for d in range(2, math.isqrt(m) + 1))):
        return x.reshape(m**k, -1).T @ _dft_block(m, k, inverse)
    x = x.reshape(m, -1).T
    return np.fft.ifft(x, norm="forward") if inverse else np.fft.fft(x)


def _kron_transform(values: np.ndarray, moduli: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Unnormalized DFT (inverse: conjugate characters) of values on prod_j Z_{m_j}, by one
    _dft_pass per block of _blocks(moduli); each leaves its axis last, so the axes end in
    order.  On all-2 groups real input stays float64 and complex input takes the same
    passes over its float64 view (a trailing axis of 2 rides along); else complex128."""
    blocks = _blocks(moduli)
    real = all(m == 2 for m, _ in blocks)
    if as_view := real and np.iscomplexobj(values):
        x = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    else:
        x = np.asarray(values, dtype=np.float64 if real else np.complex128)
    size = len(values)
    for m, k in blocks:
        x = _dft_pass(x, m, k, inverse)
    x = x.reshape(-1, size).T
    if as_view:
        return np.ascontiguousarray(x).view(np.complex128).reshape(size)
    return x.reshape(size)


def _check_size(group: GroupSpec):
    if group.size > TRANSFORM_SIZE_LIMIT:
        raise TransformLimitError(
            f"|G| = {group.size} exceeds the transform limit {TRANSFORM_SIZE_LIMIT}"
        )


def transform(f: DenseFunction) -> Spectrum:
    """Fourier transform fhat(gamma) = E_x f(x) conj(gamma(x)), float64 for
    real values on an all-2 group and complex128 otherwise."""
    _check_size(f.group)
    return Spectrum(f.group, _kron_transform(f.values, f.group.moduli, False) / f.group.size)


def inverse_transform(spectrum: Spectrum) -> DenseFunction:
    """Inverse of transform(): real values from a float64 spectrum on an
    all-2 group, complex values otherwise."""
    _check_size(spectrum.group)
    return DenseFunction(spectrum.group, _kron_transform(spectrum.coeffs, spectrum.group.moduli, True))


@dataclass(eq=False)
class NormalizedIndicator:
    """phi_A = (|G|/|A|) * 1_A, normalized so phihat(0) = 1."""

    group: GroupSpec
    members: np.ndarray  # boolean bitmap over element indices

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=bool)
        if self.members.shape != (self.group.size,):
            raise ValueError("membership bitmap must have length |G|")
        self._count = int(np.count_nonzero(self.members))
        if self._count == 0:
            raise ValueError("indicator of the empty set is undefined")
        self._density = Fraction(self._count, self.group.size)
        self._spectrum = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def density(self) -> Fraction:
        return self._density

    def phi(self) -> DenseFunction:
        values = np.where(self.members, self.group.size / self._count, 0.0)
        return DenseFunction(self.group, values)

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = transform(self.phi())
        return self._spectrum


def normalized_indicator(
    group: GroupSpec, members: Iterable[int] | np.ndarray
) -> NormalizedIndicator:
    """Normalized indicator of a non-empty subset (indices or bool bitmap)."""
    arr = np.asarray(members)
    if arr.dtype == bool and arr.shape == (group.size,):
        bitmap = arr.copy()
    else:
        bitmap = np.zeros(group.size, dtype=bool)
        bitmap[np.asarray(list(members), dtype=np.int64)] = True
    return NormalizedIndicator(group, bitmap)


def convolve(f: DenseFunction, g: DenseFunction) -> DenseFunction:
    """(f*g)(x) = E_y f(y) g(x-y), computed by spectral product."""
    if f.group != g.group:
        raise ValueError("group mismatch")
    fh = transform(f).coeffs
    gh = transform(g).coeffs
    return inverse_transform(Spectrum(f.group, fh * gh))


def dual_annihilator_mask(
    group: GroupSpec, invariant: SubspaceF2 | SubgroupEnum
) -> np.ndarray:
    """Boolean mask over dual indices gamma with gamma(h) = 1 for all h in H.

    This is exactly the support of the spectrum of phi_H.  Computed by exact
    integer arithmetic, not by transform: over F2 the annihilator is the
    orthogonal complement of H, whose members are spanned by doubling over
    its basis in O(|H^perp|), a fresh array per call.  A SubgroupEnum's mask
    is computed once, on the first call with its own group, and every call
    returns that array read-only.
    """
    if isinstance(invariant, SubspaceF2):
        if not group.is_boolean or group.n != invariant.n:
            raise ValueError("subspace dimension does not match the group")
        members = np.zeros(1, dtype=np.int64)
        for row in orthogonal_complement(invariant).basis:
            members = np.concatenate((members, members ^ row))
        mask = np.zeros(group.size, dtype=bool)
        mask[members] = True
        return mask
    if invariant.spec != group:
        raise ValueError("subgroup does not live in the given group")
    if invariant._dual_mask is None:
        mask = _pairing_mask(group, invariant.generators())
        mask.flags.writeable = False
        invariant._dual_mask = mask
    return invariant._dual_mask


def _pairing_mask(spec: GroupSpec, gammas: Iterable[int]) -> np.ndarray:
    """Boolean mask over G of the x with gamma(x) = 1 for every listed gamma.

    Exact: gamma(x) = 1 iff sum_j (m/m_j) gamma_j x_j = 0 mod m, m = lcm.
    Each gamma is paired only with the x that every gamma before it kept.
    """
    m = spec.exponent
    weights = np.asarray([m // mj for mj in spec.moduli], dtype=np.int64)
    coords = spec.coords_matrix()
    decoded = np.asarray([spec.decode(g) for g in gammas], dtype=np.int64)
    pairings = decoded.reshape(-1, spec.n) * weights
    kept = np.arange(spec.size)
    for w in pairings:
        rows = coords if len(kept) == spec.size else coords[kept]
        kept = kept[(rows @ w) % m == 0]
    mask = np.zeros(spec.size, dtype=bool)
    mask[kept] = True
    return mask


def joint_spectrum(group: GroupSpec, sets: Mapping[NormalizedIndicator, int]) -> Spectrum:
    """prod_j phihat_j^(k_j): the spectrum of the normalized density of a
    sum of independent uniform draws, k_j of them from the j-th set.

    The product is taken in the dtype of the spectra (float64 on F2^n).
    Powers go by repeated squaring, so spectra of 0 and +-1 stay exact
    (complex pow switches to exp/log from exponent 100 on).
    """
    if any(ind.group != group for ind in sets):
        raise ValueError("indicator group mismatch")
    bases = {ind: ind.spectrum().coeffs for ind in sets}
    prod = np.ones(group.size, dtype=np.result_type(np.float64, *bases.values()))
    for ind, k in sets.items():
        base = bases[ind]
        while k:
            if k & 1:
                prod *= base
            k >>= 1
            if k:
                base = base * base
    return Spectrum(group, prod)


def averaged_shift(
    joint: Spectrum,
    f: DenseFunction,
    invariant: SubspaceF2 | SubgroupEnum | None = None,
) -> DenseFunction:
    """E[f(x - y_1 - ... - y_N + v)] as a function of x.

    joint is the joint spectrum of the sets the y_i are uniform on (see
    joint_spectrum) and v is uniform on the invariant subgroup (omitted if
    None): one spectral product with f and one inverse transform.
    """
    if joint.group != f.group:
        raise ValueError("spectrum group mismatch")
    prod = transform(f).coeffs * joint.coeffs
    if invariant is not None:
        prod *= dual_annihilator_mask(f.group, invariant)
    return inverse_transform(Spectrum(f.group, prod))


def mixing_gap(
    joint: Spectrum,
    invariant: SubspaceF2 | SubgroupEnum,
    hp: DenseFunction,
) -> float:
    """Largest deviation the invariant shift can cause to a shift average.

    Returns max over x of |E[hp(x - sum y_i)] - E[hp(x - sum y_i + v)]|
    with the y_i uniform on the sets whose joint spectrum is given and v
    uniform on the invariant subgroup: the inverse transform of
    hphat * joint off the annihilator of the invariant.  (Over F2 the
    signs are immaterial; over general groups this subtracted-shift
    orientation is the one the sketch compiler consumes.)  The compiler
    compares the result against |G| * 2^(-N/8) itself.
    """
    if joint.group != hp.group:
        raise ValueError("spectrum group mismatch")
    if np.max(np.abs(np.abs(hp.values) - 1.0)) > 1e-6:
        raise ValueError("hp must take unit-modulus values")
    keep = ~dual_annihilator_mask(hp.group, invariant)
    diff = inverse_transform(Spectrum(hp.group, transform(hp).coeffs * joint.coeffs * keep))
    return float(np.max(np.abs(diff.values)))


def chang_sum(indicator: NormalizedIndicator, gammas: Sequence[int]) -> float:
    """sum over gamma of |phihat_A(gamma)|^2 for the given dual indices.

    The caller guarantees gammas are linearly independent (F2) or
    dissociated (general), and compares the sum with Chang's bound
    C * log2(1/density) itself (the compiler's chang-per-player check).
    """
    coeffs = indicator.spectrum().coeffs
    idx = np.asarray(list(gammas), dtype=np.int64)
    return float(np.sum(np.abs(coeffs[idx]) ** 2)) if idx.size else 0.0


def _greedy_dissociated(
    spec: GroupSpec, gammas: Iterable[int], limit: int | None = None
) -> list[int]:
    """Keep each gamma, in order, unless it is a {-1,0,1}-combination of
    those kept before it.

    The kept set stays dissociated; reach is a bitmap over G of every
    signed sum of the kept elements, grown by reach |= (reach + gamma) |
    (reach - gamma).  Each shifted copy is rolled one axis at a time,
    skipping the zero coordinates of gamma: numpy rolls several axes at
    once as up to 2^n slice copies.  Raises DissociationLimitError when a
    candidate arrives while `limit` elements are already kept.
    """
    chosen: list[int] = []
    reach = None
    for g in gammas:
        if limit is not None and len(chosen) >= limit:
            raise DissociationLimitError(
                f"dissociated set would exceed the enumeration limit {limit}"
            )
        if reach is None:
            _check_size(spec)
            reach = np.zeros(spec.moduli[::-1], dtype=bool)  # axis -1 = coordinate 0
            reach.flat[0] = True
        shift = spec.decode(g)[::-1]
        if reach[shift]:
            continue
        chosen.append(g)
        plus = minus = reach
        for axis, a in enumerate(shift):
            if a:
                plus, minus = np.roll(plus, a, axis), np.roll(minus, -a, axis)
        reach |= plus | minus
    return chosen


def is_dissociated(spec: GroupSpec, gammas: Sequence[int]) -> bool:
    """No nontrivial {-1,0,1}-combination of the dual elements sums to zero.

    Equivalently, the greedy scan keeps every element: each one is outside
    the signed sums of those before it.  Over F2 this coincides with
    linear independence.
    """
    return len(_greedy_dissociated(spec, gammas)) == len(gammas)


def extract_dissociated(
    spec: GroupSpec,
    gammas: Sequence[int],
    weights: Sequence[float],
    limit: int = DISSOCIATED_DEFAULT_LIMIT,
) -> list[int]:
    """Greedy maximal dissociated subset, heaviest first (ties by the lex
    rule of heaviest_first).

    Raises DissociationLimitError if a candidate arrives once the set
    holds `limit` elements.  Over F2 the result provably equals the greedy
    maximal independent subset, and this is asserted.
    """
    if len(gammas) != len(weights):
        raise ValueError("weights length must match gammas")
    order = heaviest_first(weights, [spec.decode(g) for g in gammas])
    chosen = _greedy_dissociated(spec, [gammas[i] for i in order], limit)
    if spec.is_boolean:
        independent = max_independent_subset(
            list(gammas), list(weights), n=spec.n
        )
        assert chosen == independent, "F2 dissociated/independent greedy mismatch"
    return chosen


def annihilator(spec: GroupSpec, gammas: Sequence[int], memo: dict | None = None) -> SubgroupEnum:
    """The subgroup of all x with gamma(x) = 1 for every listed character.

    `memo` maps (group, member bitmap bytes) to the subgroups built so far:
    a subgroup already there is returned as the stored object, and only a
    new one is built (and added)."""
    _check_size(spec)
    mask = _pairing_mask(spec, gammas)
    memo, key = {} if memo is None else memo, (spec, mask.tobytes())
    if key not in memo:
        memo[key] = SubgroupEnum(spec, np.flatnonzero(mask).tolist())
    return memo[key]
