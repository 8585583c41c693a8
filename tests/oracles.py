"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from definitions, using plain
loops or defining sums, and deliberately avoids the library's fast paths
(butterflies, spectral products, packed-int elimination, hash trees) so a
bug cannot cancel between the implementation and its check.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np


def naive_rank(rows: list[list[int]]) -> int:
    """Row reduction on 0/1 lists (no bit packing)."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] == 1:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] == 1:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return rank


def mask_to_list(mask: int, n: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(n)]


def naive_rank_masks(masks, n: int) -> int:
    return naive_rank([mask_to_list(m, n) for m in masks])


def group_decode(moduli, index: int) -> tuple[int, ...]:
    out = []
    for m in moduli:
        out.append(index % m)
        index //= m
    return tuple(out)


def group_encode(moduli, coords) -> int:
    idx = 0
    stride = 1
    for c, m in zip(coords, moduli):
        idx += (c % m) * stride
        stride *= m
    return idx


def group_add(moduli, i: int, j: int) -> int:
    a, b = group_decode(moduli, i), group_decode(moduli, j)
    return group_encode(moduli, [x + y for x, y in zip(a, b)])


def group_neg(moduli, i: int) -> int:
    a = group_decode(moduli, i)
    return group_encode(moduli, [-x for x in a])


def group_sub(moduli, i: int, j: int) -> int:
    return group_add(moduli, i, group_neg(moduli, j))


def char_value(moduli, gamma: int, x: int) -> complex:
    """Defining product of per-coordinate roots of unity."""
    g, a = group_decode(moduli, gamma), group_decode(moduli, x)
    out = complex(1.0)
    for gj, aj, m in zip(g, a, moduli):
        out *= cmath.exp(2j * cmath.pi * gj * aj / m)
    return out


def naive_dft(moduli, values) -> np.ndarray:
    """The defining double sum fhat(g) = E_x f(x) conj(g(x)).

    Builds explicit character rows from the definition (blocked so the
    |G| x |G| matrix never fully materializes at the largest sizes).
    """
    size = len(values)
    vals = np.asarray(values, dtype=np.complex128)
    coords = np.stack(
        [np.asarray(group_decode(moduli, x), dtype=np.float64) for x in range(size)]
    )
    out = np.empty(size, dtype=np.complex128)
    block = 256
    mod = np.asarray(moduli, dtype=np.float64)
    for start in range(0, size, block):
        stop = min(start + block, size)
        g = coords[start:stop]  # (b, n)
        phases = (g / mod) @ coords.T  # (b, size) of sum_j g_j x_j / m_j
        chars = np.exp(-2j * np.pi * phases)
        out[start:stop] = chars @ vals / size
    return out


def naive_inverse_dft(moduli, coeffs) -> np.ndarray:
    """The defining sum f(x) = sum_g fhat(g) g(x), from explicit character
    rows (blocked like naive_dft)."""
    size = len(coeffs)
    cf = np.asarray(coeffs, dtype=np.complex128)
    coords = np.stack(
        [np.asarray(group_decode(moduli, x), dtype=np.float64) for x in range(size)]
    )
    out = np.empty(size, dtype=np.complex128)
    block = 256
    mod = np.asarray(moduli, dtype=np.float64)
    for start in range(0, size, block):
        stop = min(start + block, size)
        x = coords[start:stop]  # (b, n)
        phases = (x / mod) @ coords.T  # (b, size) of sum_j x_j g_j / m_j
        out[start:stop] = np.exp(2j * np.pi * phases) @ cf
    return out


def fft_reference(moduli, values, inverse: bool = False) -> np.ndarray:
    """The transform (or its inverse) by numpy's complex FFT over the grid
    with coordinate 0 as the last, fastest-varying axis."""
    size = len(values)
    grid = np.asarray(values, dtype=np.complex128).reshape(tuple(moduli)[::-1])
    if inverse:
        return np.fft.ifftn(grid).reshape(size) * size
    return np.fft.fftn(grid).reshape(size) / size


def naive_wht(values) -> np.ndarray:
    """Defining sum over F2^n with (-1)^<x, gamma> characters."""
    size = len(values)
    out = np.zeros(size, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    for g in range(size):
        acc = 0.0
        for x in range(size):
            sign = -1.0 if bin(x & g).count("1") % 2 else 1.0
            acc += vals[x] * sign
        out[g] = acc / size
    return out


def fwht_butterfly(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform by the radix-2 butterfly, one
    level per bit (the library's transform before the Kronecker-factored
    one)."""
    a = np.array(values, copy=True)
    size = a.shape[0]
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(size)
        h *= 2
    return a


def annihilator_mask_rows(n: int, basis) -> np.ndarray:
    """Boolean mask over F2^n of the gamma orthogonal to every basis row,
    one parity pass over all of F2^n per row."""
    gammas = np.arange(1 << n, dtype=np.uint64)
    mask = np.ones(1 << n, dtype=bool)
    for row in basis:
        parity = np.bitwise_count(gammas & np.uint64(row)) & 1
        mask &= parity == 0
    return mask


def naive_convolve(moduli, f, g) -> np.ndarray:
    """(f*g)(x) = E_y f(y) g(x - y), plain double loop."""
    size = len(f)
    out = np.zeros(size, dtype=np.complex128)
    for x in range(size):
        acc = 0.0 + 0.0j
        for y in range(size):
            acc += f[y] * g[group_sub(moduli, x, y)]
        out[x] = acc / size
    return out


def exhaustive_annihilator(moduli, gammas) -> list[int]:
    """Elements where every listed character equals 1 (unit tolerance)."""
    size = 1
    for m in moduli:
        size *= m
    out = []
    for x in range(size):
        if all(abs(char_value(moduli, g, x) - 1.0) < 1e-9 for g in gammas):
            out.append(x)
    return out


def pairing_mask_per_gamma(spec, gammas) -> np.ndarray:
    """Mask of the x with gamma(x) = 1 for every listed gamma, one exact
    pairing sum_j (m/m_j) gamma_j x_j mod m (m = lcm) per gamma."""
    m = spec.exponent
    weights = np.asarray([m // mj for mj in spec.moduli], dtype=np.int64)
    coords = spec.coords_matrix()
    mask = np.ones(spec.size, dtype=bool)
    for g in gammas:
        mask &= (coords @ (np.asarray(spec.decode(g), dtype=np.int64) * weights)) % m == 0
    return mask


def is_dissociated_bruteforce(moduli, gammas) -> bool:
    """Direct 3^k scan of all signed combinations."""
    import itertools

    k = len(gammas)
    zero = 0
    for coeffs in itertools.product((-1, 0, 1), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        acc = zero
        for c, g in zip(coeffs, gammas):
            if c == 1:
                acc = group_add(moduli, acc, g)
            elif c == -1:
                acc = group_sub(moduli, acc, g)
        if acc == 0:
            return False
    return True


def stepwise_shift_distribution(moduli, member_lists, subgroup_elements=None):
    """Distribution of -(y_1 + ... + y_N) + v by iterated naive convolution.

    member_lists are element-index lists; returns a float probability
    vector.  Matches the library's subtracted-shift orientation: the
    distribution returned is that of the value added to x inside
    E[h(x - sum y_i + v)].
    """
    size = 1
    for m in moduli:
        size *= m
    dist = np.zeros(size)
    dist[0] = 1.0
    for members in member_lists:
        nxt = np.zeros(size)
        w = 1.0 / len(members)
        for s in range(size):
            if dist[s] == 0.0:
                continue
            for y in members:
                nxt[group_sub(moduli, s, y)] += dist[s] * w
        dist = nxt
    if subgroup_elements is not None:
        nxt = np.zeros(size)
        w = 1.0 / len(subgroup_elements)
        for s in range(size):
            if dist[s] == 0.0:
                continue
            for v in subgroup_elements:
                nxt[group_add(moduli, s, v)] += dist[s] * w
        dist = nxt
    return dist


def shift_average_oracle(moduli, member_lists, h, subgroup_elements=None) -> np.ndarray:
    """E[h(x - sum y_i + v)] for every x, from the stepwise distribution."""
    size = len(h)
    dist = stepwise_shift_distribution(moduli, member_lists, subgroup_elements)
    out = np.zeros(size, dtype=np.complex128)
    for x in range(size):
        acc = 0.0 + 0.0j
        for s in range(size):
            if dist[s]:
                acc += dist[s] * h[group_add(moduli, x, s)]
        out[x] = acc
    return out


def prg_expand_tree(base: int, hashes, mul) -> list[int]:
    """Full 2^d-block expansion of the hash tree, recursively.

    Level-j hashes act on the second half at level j, so the hash with the
    smallest level is composed last.
    """

    def expand(x: int, level: int) -> list[int]:
        if level == 0:
            return [x]
        a, c = hashes[level - 1]
        return expand(x, level - 1) + expand(mul(a, x) ^ c, level - 1)

    return expand(base, len(hashes))


def fsm_prg_dist_per_block(fsm, block_bits: int, block_count: int, samples: int, seed: int,
                           exact_seed_limit: int = 1 << 24):
    """(prg_dist, exact) of fsm_distance with every block rebuilt from the
    root by random access (prg._tree_block) and the machine stepped through
    its 2-d table, over the same seeds fsm_distance reads."""
    from modsketch import prg
    from modsketch.seeding import derived_rng

    gen = prg.NisanGenerator(block_bits, block_count, 0)
    n_words = 2 * gen.depth + 1
    exact = 1 << gen.seed_bits <= exact_seed_limit
    if exact:
        words = prg._seed_words(np.arange(1 << gen.seed_bits, dtype=np.int64), block_bits, n_words)
    else:
        seed_bytes = prg._sampled_seed_bytes(derived_rng(seed, "fsm-distance"), gen.seed_bits, samples)
        words = [prg._byte_word(seed_bytes, block_bits * w, block_bits) for w in range(n_words)]
    table = fsm.table_array()
    states = np.full(len(words[0]), fsm.initial, dtype=np.int64)
    for idx in range(block_count):
        states = table[states, prg._tree_block(gen.field, words, idx)]
    return np.bincount(states, minlength=fsm.n_states) / len(words[0]), exact


def derandomized_apply_per_update(template, updates) -> list[int]:
    """The per-update stream path: regenerate the row of every update and
    add it times the increment, in Python ints (exact at any p)."""
    state = [0] * template.s
    for coord, inc in updates:
        row = template.row(coord)
        state = [(v + r * inc) % template.p for v, r in zip(state, row)]
    return state


def read_at(sketch, coords):
    """(values(), output()) of a sketch at the input with these coordinates,
    from the definitions: parities, linear forms mod p, or the rank of the
    coset's least member among all cosets' least members."""
    moduli = sketch.group.moduli
    if hasattr(sketch, "subgroup"):
        size = 1
        for m in moduli:
            size *= m
        least = {x: min(group_add(moduli, x, h) for h in sketch.subgroup.elements) for x in range(size)}
        q = sorted(set(least.values())).index(least[group_encode(moduli, coords)])
        return q, sketch.post[q]
    if hasattr(sketch, "p"):
        v = tuple(sum(a * c for a, c in zip(row, coords)) % sketch.p for row in sketch.rows)
        return v, sketch.post[sum(c * sketch.p**j for j, c in enumerate(v))]
    z = sum((sum(coords[i] for i in range(sketch.n) if row >> i & 1) % 2) << j
            for j, row in enumerate(sketch.rows))
    return z, sketch.post[z]


def step_stream(sketch, updates):
    """(values, output) after a stream: every update is added to its
    coordinate in Python ints, in stream order, with no queue, chunk or
    array, and the sum is read from the definitions (read_at)."""
    moduli = sketch.group.moduli
    coords = [0] * len(moduli)
    for coord, inc in updates:
        coords[coord] += inc
    return read_at(sketch, [c % m for c, m in zip(coords, moduli)])


def seed_bytes_per_sample(rng, seed_bits: int, samples: int) -> np.ndarray:
    """One rng.getrandbits(seed_bits) call per sample, each seed written as
    a little-endian byte row."""
    nbytes = -(-seed_bits // 8)
    raw = b"".join(rng.getrandbits(seed_bits).to_bytes(nbytes, "little") for _ in range(samples))
    return np.frombuffer(raw, dtype=np.uint8).reshape(samples, nbytes)


def bucket_reduce(ids, n_buckets: int, values):
    """(sum, min, max) of values per bucket by unbuffered scatter: an empty
    bucket reads 0, +inf and -inf."""
    sums = np.zeros(n_buckets, dtype=np.float64)
    np.add.at(sums, ids, values)
    mins = np.full(n_buckets, np.inf)
    maxs = np.full(n_buckets, -np.inf)
    np.minimum.at(mins, ids, values)
    np.maximum.at(maxs, ids, values)
    return sums, mins, maxs


def accumulate_stream(n: int, p: int, updates) -> list[int]:
    """Offline fold of an update stream into the input vector."""
    x = [0] * n
    for coord, inc in updates:
        x[coord] = (x[coord] + inc) % p
    return x


def coordinate_totals(updates, moduli) -> tuple[list[int], list[int]]:
    """(coords, totals) of a run of updates from the definition: each
    coordinate's increments summed as Python ints and reduced mod its
    modulus (moduli an int, or a sequence with one per coordinate), the
    nonzero totals in increasing coordinate order."""
    sums = {}
    for coord, inc in updates:
        sums[coord] = sums.get(coord, 0) + inc
    coords, totals = [], []
    for coord in sorted(sums):
        total = sums[coord] % (moduli if isinstance(moduli, int) else int(moduli[coord]))
        if total:
            coords.append(coord)
            totals.append(total)
    return coords, totals


def transcript_frequencies(protocol, n_tail_players: int) -> dict[tuple, Fraction]:
    """Exhaustive exact transcript distribution over all input tuples.

    Enumerates every tuple of (N+1) player inputs and counts the messages
    of the first N players; x_{N+1} is included in the enumeration even
    though the transcript ignores it, so the denominator is |G|^(N+1).
    """
    size = protocol.group.size
    total = size**protocol.n_players
    counts: dict[tuple, int] = {}
    import itertools

    for inputs in itertools.product(range(size), repeat=protocol.n_players):
        messages, _ = protocol.run(list(inputs), 0)
        key = tuple(messages[: protocol.n_players - 1])
        counts[key] = counts.get(key, 0) + 1
    return {k: Fraction(v, total) for k, v in counts.items()}


def transcript_success(protocol, f_values) -> dict[tuple, Fraction]:
    """Exact P[output = f(x_1 + ... + x_{N+1}) | transcript] for every
    transcript of the first N players, over all uniform input tuples."""
    import itertools

    moduli = protocol.group.moduli
    hits: dict[tuple, list[int]] = {}
    for inputs in itertools.product(range(protocol.group.size), repeat=protocol.n_players):
        messages, out = protocol.run(list(inputs), 0)
        total = 0
        for x in inputs:
            total = group_add(moduli, total, x)
        tally = hits.setdefault(tuple(messages[: protocol.n_players - 1]), [0, 0])
        tally[0] += out == f_values[total]
        tally[1] += 1
    return {k: Fraction(good, count) for k, (good, count) in hits.items()}


def coset_ids_loop(spec, elements) -> list[int]:
    """Coset ids of the subgroup with these elements, by visiting the
    elements of G in increasing order and labelling the whole coset of each
    one not yet labelled with the next id."""
    ids = [-1] * spec.size
    next_id = 0
    for x in range(spec.size):
        if ids[x] == -1:
            for h in elements:
                ids[spec.add(x, h)] = next_id
            next_id += 1
    return ids


def greedy_generators(moduli, elements) -> list[int]:
    """Greedy generating set of a subgroup given by its elements: each
    element not yet in the closure, in ascending order, is a generator; the
    closure is grown one multiple at a time as a set."""
    gens: list[int] = []
    closure = {0}
    for e in sorted(elements):
        if e in closure:
            continue
        gens.append(e)
        for c in list(closure):
            v = group_add(moduli, c, e)
            while v not in closure:
                closure.add(v)
                v = group_add(moduli, v, e)
    return gens


def fsm_true_distribution(table, initial: int, block_bits: int, block_count: int) -> list[float]:
    """Exact final-state law of a block FSM (table[state][block] -> state)
    under uniformly random blocks, as Fractions propagated one block at a
    time, rounded to floats at the end."""
    from collections import Counter

    n_states = len(table)
    moves = [Counter(row) for row in table]
    dist = [Fraction(0)] * n_states
    dist[initial] = Fraction(1)
    for _ in range(block_count):
        nxt = [Fraction(0)] * n_states
        for s, p in enumerate(dist):
            if p:
                for s2, c in moves[s].items():
                    nxt[s2] += p * Fraction(c, 1 << block_bits)
        dist = nxt
    return [float(p) for p in dist]
