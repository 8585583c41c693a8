"""Transforms, indicators, spectral bounds, dissociated sets, annihilators."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.algebra import (
    GroupSpec,
    max_independent_subset,
    rank_basis,
    subgroup_generated,
)
from modsketch.fourier import (
    DFT_BLOCK_ORDER,
    DenseFunction,
    DissociationLimitError,
    Spectrum,
    TransformLimitError,
    annihilator,
    averaged_shift,
    chang_sum,
    convolve,
    dual_annihilator_mask,
    _blocks,
    extract_dissociated,
    inverse_transform,
    is_dissociated,
    joint_spectrum,
    mixing_gap,
    normalized_indicator,
    transform,
    _pairing_mask,
)

from oracles import (
    annihilator_mask_rows,
    exhaustive_annihilator,
    fft_reference,
    fwht_butterfly,
    group_decode,
    is_dissociated_bruteforce,
    naive_convolve,
    naive_dft,
    naive_inverse_dft,
    naive_wht,
    pairing_mask_per_gamma,
    shift_average_oracle,
)


def test_point_mass_spectrum_all_ones():
    for spec in (GroupSpec.boolean(4), GroupSpec((3, 2, 2))):
        sp = transform(DenseFunction.point_mass(spec, 0))
        assert np.allclose(sp.coeffs, 1.0, atol=1e-12)


def test_constant_function_spectrum_is_delta():
    for spec in (GroupSpec.boolean(5), GroupSpec((6, 4))):
        sp = transform(DenseFunction.constant(spec, 1.0))
        expected = np.zeros(spec.size)
        expected[0] = 1.0
        assert np.allclose(sp.coeffs, expected, atol=1e-12)


def test_wht_matches_naive_oracle():
    rng = np.random.default_rng(0)
    spec = GroupSpec.boolean(8)
    f = DenseFunction(spec, rng.normal(size=spec.size))
    assert np.max(np.abs(transform(f).coeffs - naive_wht(f.values))) < 1e-9


def test_group_dft_matches_naive_oracle():
    rng = np.random.default_rng(1)
    spec = GroupSpec((6, 4, 4))
    f = DenseFunction(spec, rng.normal(size=spec.size))
    assert np.max(np.abs(transform(f).coeffs - naive_dft(spec.moduli, f.values))) < 1e-9


def test_round_trip_and_parseval_random_functions():
    rng = np.random.default_rng(2)
    for spec in (GroupSpec.boolean(7), GroupSpec((5, 3, 2)), GroupSpec((12,))):
        for _ in range(10):
            f = DenseFunction(spec, rng.normal(size=spec.size))
            sp = transform(f)
            back = inverse_transform(sp)
            assert np.max(np.abs(back.values - f.values)) < 1e-9
            assert abs(sp.energy() - np.mean(f.values**2)) < 1e-9


def test_transform_size_limit():
    spec = GroupSpec.boolean(3)
    f = DenseFunction(spec, np.zeros(8))
    import modsketch.fourier as fourier

    old = fourier.TRANSFORM_SIZE_LIMIT
    fourier.TRANSFORM_SIZE_LIMIT = 4
    try:
        with pytest.raises(TransformLimitError):
            transform(f)
    finally:
        fourier.TRANSFORM_SIZE_LIMIT = old


def test_normalized_indicator_trivial_cases():
    spec = GroupSpec.boolean(4)
    whole = normalized_indicator(spec, range(16))
    assert np.allclose(whole.phi().values, 1.0)
    sp = transform(whole.phi())
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(sp.coeffs, expected, atol=1e-12)
    point = normalized_indicator(spec, [0])
    assert point.phi().values[0] == 16
    assert np.allclose(transform(point.phi()).coeffs, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        normalized_indicator(spec, [])


def test_normalized_indicator_spectral_invariants():
    rng = random.Random(3)
    spec = GroupSpec.boolean(8)
    for _ in range(100):
        members = [x for x in range(spec.size) if rng.random() < 0.4]
        if not members:
            members = [rng.randrange(spec.size)]
        ind = normalized_indicator(spec, members)
        coeffs = ind.spectrum().coeffs
        assert abs(coeffs[0] - 1.0) < 1e-12
        assert np.max(np.abs(coeffs)) <= 1.0 + 1e-12


def test_convolution_identities():
    spec = GroupSpec((3, 4))
    rng = np.random.default_rng(4)
    f = DenseFunction(spec, rng.normal(size=spec.size))
    whole = normalized_indicator(spec, range(spec.size)).phi()
    out = convolve(whole, f)
    assert np.allclose(out.values, np.mean(f.values), atol=1e-9)
    point = normalized_indicator(spec, [0]).phi()
    assert np.max(np.abs(convolve(point, f).values - f.values)) < 1e-9


def test_convolve_matches_naive_oracle():
    spec = GroupSpec((12,))
    rng = np.random.default_rng(5)
    f = DenseFunction(spec, rng.normal(size=12))
    g = DenseFunction(spec, rng.normal(size=12))
    expected = naive_convolve(spec.moduli, f.values, g.values)
    assert np.max(np.abs(convolve(f, g).values - expected)) < 1e-9


def test_convolution_theorem_random():
    rng = np.random.default_rng(6)
    spec = GroupSpec((4, 3, 2))
    for _ in range(20):
        f = DenseFunction(spec, rng.normal(size=spec.size))
        g = DenseFunction(spec, rng.normal(size=spec.size))
        lhs = transform(convolve(f, g)).coeffs
        rhs = transform(f).coeffs * transform(g).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_chang_sum_trivial_and_halfspace():
    spec = GroupSpec.boolean(6)
    whole = normalized_indicator(spec, range(spec.size))
    assert chang_sum(whole, [1, 2, 3]) == 0.0
    # A = {x : coordinate 0 is 0}: spectrum at e_0 has modulus exactly 1
    half = normalized_indicator(spec, [x for x in range(64) if not x & 1])
    val = chang_sum(half, [1])
    assert abs(val - 1.0) < 1e-12
    assert 8 * math.log2(1 / half.density) == 8.0


def test_is_dissociated_examples():
    z5 = GroupSpec((5,))
    assert is_dissociated(z5, [1, 2])
    assert not is_dissociated(z5, [1, 4])  # 1 + 4 = 0
    assert is_dissociated(z5, [3])
    assert is_dissociated(z5, [])
    assert not is_dissociated(GroupSpec((7,)), [0])


def test_is_dissociated_matches_bruteforce():
    rng = random.Random(9)
    for moduli in ((5,), (4, 3), (6, 6), (2, 2, 2, 2)):
        spec = GroupSpec(moduli)
        for _ in range(40):
            k = rng.randrange(1, 5)
            gammas = [rng.randrange(spec.size) for _ in range(k)]
            assert is_dissociated(spec, gammas) == is_dissociated_bruteforce(
                moduli, gammas
            )


def test_is_dissociated_meet_in_middle_agrees():
    # 13 elements over a big boolean cube (3^13 signed combinations)
    spec = GroupSpec.boolean(16)
    gammas = [1 << i for i in range(13)]
    assert is_dissociated(spec, gammas)
    assert not is_dissociated(spec, gammas + [gammas[0] ^ gammas[5]])


def test_extract_dissociated_examples():
    b3 = GroupSpec.boolean(3)
    out = extract_dissociated(b3, [0b001, 0b010, 0b011], [3.0, 2.0, 1.0])
    assert out == [0b001, 0b010]
    z5 = GroupSpec((5,))
    assert extract_dissociated(z5, [1, 2], [1.0, 1.0]) == [1, 2]
    assert extract_dissociated(z5, [3], [1.0]) == [3]


def test_tied_weights_keep_their_generators_under_ulp_noise():
    # weights equal in exact arithmetic (gamma and -gamma here) come out of a
    # transform a few ulps apart, either way; the lex rule decides them alike
    z3 = GroupSpec.cyclic_power(3, 7)
    b7 = GroupSpec.boolean(7)
    cases = [(z3, [2186, 1093, 2 * 3**4, 3**4], 0.7), (b7, [0b1100, 0b0011, 0b1111, 0b0101], 1 / 3)]
    for spec, gammas, w in cases:
        want = extract_dissociated(spec, gammas, [w] * len(gammas))
        assert want[0] == min(gammas, key=spec.decode)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = [float(w + ulps * np.spacing(w)) for ulps in rng.integers(-4, 5, size=len(gammas))]
            assert extract_dissociated(spec, gammas, noisy) == want
            if spec.is_boolean:
                assert max_independent_subset(gammas, noisy, n=spec.n) == want


def test_extract_dissociated_equals_independent_greedy_over_f2():
    rng = random.Random(14)
    spec = GroupSpec.boolean(7)
    for _ in range(30):
        gammas = [rng.randrange(128) for _ in range(rng.randrange(1, 12))]
        weights = [rng.random() for _ in gammas]
        got = extract_dissociated(spec, gammas, weights)
        want = max_independent_subset(gammas, weights, n=7)
        assert got == want


def _greedy_oracle(moduli, gammas, weights, limit):
    """extract_dissociated's greedy, testing each candidate by brute force."""
    order = sorted(
        range(len(gammas)), key=lambda i: (-weights[i], group_decode(moduli, gammas[i]))
    )
    chosen = []
    for i in order:
        if len(chosen) >= limit:
            return None  # the limit error
        if is_dissociated_bruteforce(moduli, chosen + [gammas[i]]):
            chosen.append(gammas[i])
    return chosen


@st.composite
def _dissociation_inputs(draw):
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    size = math.prod(moduli)
    gammas = draw(st.lists(st.integers(0, size - 1), max_size=6))
    weights = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=len(gammas),
                            max_size=len(gammas)))
    return moduli, gammas, weights, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(_dissociation_inputs())
def test_extract_dissociated_matches_bruteforce_greedy(inputs):
    moduli, gammas, weights, limit = inputs
    spec = GroupSpec(moduli)
    want = _greedy_oracle(moduli, gammas, weights, limit)
    if want is None:
        with pytest.raises(DissociationLimitError):
            extract_dissociated(spec, gammas, weights, limit=limit)
    else:
        assert extract_dissociated(spec, gammas, weights, limit=limit) == want
    assert is_dissociated(spec, gammas) == is_dissociated_bruteforce(moduli, gammas)


@st.composite
def _sparse_shifts(draw):
    """Two to four coordinates of distinct moduli, and up to six elements each
    with at least one zero coordinate (the rolls that _greedy_dissociated skips)."""
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=4, unique=True)))
    spec = GroupSpec(moduli)
    gammas = []
    for _ in range(draw(st.integers(1, 6))):
        coords = [draw(st.integers(0, m - 1)) for m in moduli]
        coords[draw(st.integers(0, len(moduli) - 1))] = 0
        gammas.append(spec.encode(coords))
    return moduli, gammas


@settings(max_examples=150, deadline=None)
@given(_sparse_shifts())
def test_is_dissociated_matches_bruteforce_on_sparse_shifts(inputs):
    moduli, gammas = inputs
    assert is_dissociated(GroupSpec(moduli), gammas) == is_dissociated_bruteforce(moduli, gammas)


@settings(max_examples=150, deadline=None)
@given(_dissociation_inputs())
def test_annihilator_matches_exhaustive_oracle(inputs):
    moduli, gammas, _, _ = inputs
    sub = annihilator(GroupSpec(moduli), gammas)
    assert list(sub.elements) == exhaustive_annihilator(moduli, gammas)


@settings(max_examples=100, deadline=None)
@given(_dissociation_inputs())
def test_annihilator_memo_is_keyed_by_the_member_bitmap(inputs):
    moduli, gammas, _, _ = inputs
    g, memo = GroupSpec(moduli), {}
    sub = annihilator(g, gammas, memo)
    assert len(memo) == 1 and sub == annihilator(g, gammas)
    # other characters with the same annihilator hit the stored object
    same = [g.neg(x) for x in gammas] + [0]
    assert annihilator(g, same, memo) is sub and len(memo) == 1
    # a hit is a lookup only: no subgroup is built for it
    key = next(iter(memo))
    memo[key] = stored = object()
    assert annihilator(g, gammas, memo) is stored
    bigger = GroupSpec(moduli + (2,))
    assert annihilator(bigger, gammas, memo) is not stored and len(memo) == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=4).flatmap(
    lambda moduli: st.tuples(st.just(tuple(moduli)),
                             st.lists(st.integers(0, math.prod(moduli) - 1), max_size=10))))
def test_pairing_mask_matches_per_gamma_loop(inputs):
    # up to 10 gammas, repeats and 0 included, on up to 4 mixed coordinates
    moduli, gammas = inputs
    spec = GroupSpec(moduli)
    got = _pairing_mask(spec, iter(gammas))
    assert got.dtype == bool
    assert np.array_equal(got, pairing_mask_per_gamma(spec, gammas))


@pytest.mark.parametrize("gamma", [-1, 9, 2**70])
def test_annihilator_rejects_characters_outside_the_group(gamma):
    with pytest.raises(ValueError, match=f"index {gamma} out of range"):
        annihilator(GroupSpec((3, 3)), [0, gamma])


def test_extract_dissociated_limit_error():
    spec = GroupSpec.boolean(8)
    gammas = [1 << i for i in range(8)]
    with pytest.raises(DissociationLimitError):
        extract_dissociated(spec, gammas, [1.0] * 8, limit=4)


def test_annihilator_examples_and_size_bound():
    z4 = GroupSpec((4,))
    assert annihilator(z4, []).elements == tuple(range(4))
    assert annihilator(z4, [2]).elements == (0, 2)
    g = GroupSpec((6, 6))
    rng = random.Random(10)
    for _ in range(20):
        gammas = [rng.randrange(g.size) for _ in range(rng.randrange(0, 3))]
        sub = annihilator(g, gammas)
        assert sub.verify_closed()
        assert list(sub.elements) == exhaustive_annihilator(g.moduli, gammas)
        k = len(extract_dissociated(g, gammas, [1.0] * len(gammas)))
        assert len(sub) >= g.size / g.exponent**k


@settings(max_examples=100, deadline=None)
@given(_dissociation_inputs(), st.lists(st.integers(0, 215), max_size=3))
def test_dual_annihilator_mask_is_computed_once(inputs, generators):
    moduli, gammas, _, _ = inputs
    g = GroupSpec(moduli)
    ann = annihilator(g, gammas)
    for sub in (ann, subgroup_generated(g, [x % g.size for x in generators])):
        mask = dual_annihilator_mask(g, sub)
        assert dual_annihilator_mask(g, sub) is mask
        assert not mask.flags.writeable
        assert np.array_equal(mask, _pairing_mask(g, sub.generators()))
        with pytest.raises(ValueError, match="does not live"):  # the group is checked first
            dual_annihilator_mask(GroupSpec(moduli + (2,)), sub)
    # duality: the characters trivial on ann(gammas) are those trivial on its members
    assert np.flatnonzero(dual_annihilator_mask(g, ann)).tolist() == \
        exhaustive_annihilator(moduli, ann.elements)


def test_dual_annihilator_mask_matches_spectrum_support():
    # for a subgroup H, the mask equals the support of phihat_H
    g = GroupSpec((6, 4))
    sub = subgroup_generated(g, [g.encode((3, 0)), g.encode((0, 2))])
    mask = dual_annihilator_mask(g, sub)
    phi = normalized_indicator(g, list(sub.elements)).phi()
    coeffs = transform(phi).coeffs
    assert np.allclose(coeffs[mask], 1.0, atol=1e-9)
    assert np.allclose(coeffs[~mask], 0.0, atol=1e-9)
    # F2 subspace flavor
    b = GroupSpec.boolean(6)
    V = rank_basis([0b110001, 0b001110], 6)
    maskb = dual_annihilator_mask(b, V)
    phib = np.zeros(64)
    for v in V.elements():
        phib[v] = 64 / (1 << V.dim)
    coeffsb = transform(DenseFunction(b, phib)).coeffs
    assert np.allclose(coeffsb[maskb], 1.0, atol=1e-9)
    assert np.allclose(coeffsb[~maskb], 0.0, atol=1e-9)


def test_averaged_shift_matches_stepwise_oracle():
    rng = random.Random(12)
    for moduli in ((2, 2, 2), (3, 4)):
        spec = GroupSpec(moduli)
        member_lists = []
        indicators = []
        for _ in range(4):
            members = sorted(
                rng.sample(range(spec.size), rng.randrange(2, spec.size))
            )
            member_lists.append(members)
            indicators.append(normalized_indicator(spec, members))
        h = DenseFunction(spec, np.array([rng.random() for _ in range(spec.size)]))
        # distinct objects, then repeated ones: one draw per occurrence
        for picks in (range(4), (0, 2, 0, 0, 3, 2, 0)):
            inds = [indicators[i] for i in picks]
            lists = [member_lists[i] for i in picks]
            joint = joint_spectrum(spec, Counter(inds))
            got = averaged_shift(joint, h).values
            want = shift_average_oracle(moduli, lists, h.values)
            assert np.max(np.abs(got - want)) < 1e-9
            sub = subgroup_generated(spec, [spec.encode(tuple(1 for _ in moduli))])
            got_v = averaged_shift(joint, h, sub).values
            want_v = shift_average_oracle(moduli, lists, h.values, sub.elements)
            assert np.max(np.abs(got_v - want_v)) < 1e-9


def test_mixing_gap_trivial_cases():
    spec = GroupSpec.boolean(4)
    whole = [normalized_indicator(spec, range(16)) for _ in range(5)]
    V = rank_basis([0b0011], 4)
    hp = DenseFunction(spec, np.where(np.arange(16) % 2 == 0, 1.0, -1.0))
    assert mixing_gap(joint_spectrum(spec, Counter(whole)), V, hp) < 1e-12
    const = DenseFunction(spec, np.ones(16))
    some = [normalized_indicator(spec, [0, 1, 5]) for _ in range(5)]
    assert mixing_gap(joint_spectrum(spec, Counter(some)), V, const) < 1e-12


def test_mixing_gap_rejects_non_unit_values():
    spec = GroupSpec.boolean(3)
    inds = [normalized_indicator(spec, [0, 1])]
    V = rank_basis([], 3)
    with pytest.raises(ValueError):
        mixing_gap(joint_spectrum(spec, Counter(inds)), V, DenseFunction(spec, np.full(8, 0.5)))


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


@st.composite
def _f2_values(draw):
    """A function on F2^n, n = 1..10, with real or complex values."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=1 << n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=1 << n)
    return GroupSpec.boolean(n), values


@settings(max_examples=60, deadline=None)
@given(_f2_values())
def test_wht_matches_defining_sums(case):
    spec, values = case
    sp = transform(DenseFunction(spec, values))
    assert _rel_err(sp.coeffs, naive_dft(spec.moduli, values)) <= 1e-12
    back = inverse_transform(sp)
    assert _rel_err(back.values, naive_inverse_dft(spec.moduli, sp.coeffs)) <= 1e-12
    # round trip: the inverse gives f back, in f's own kind of values
    assert np.iscomplexobj(back.values) == np.iscomplexobj(values)
    assert _rel_err(back.values, values) <= 1e-12


_MIXED_GROUPS = [(2, 3, 5, 5), (4, 4, 4), (7, 7), (2, 2, 2, 3, 3), (6, 4, 4), (3,) * 5, (12,), (5, 2, 5, 2),
                 (37, 2), (64, 3), (2, 1031)]


@st.composite
def _mixed_values(draw):
    """A function on a mixed-radix group, with real or complex values."""
    spec = GroupSpec(draw(st.sampled_from(_MIXED_GROUPS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=spec.size) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=spec.size)
    return spec, values


@settings(max_examples=60, deadline=None)
@given(_mixed_values())
def test_group_transform_matches_defining_sums(case):
    spec, values = case
    sp = transform(DenseFunction(spec, values))
    assert sp.coeffs.dtype == np.complex128
    assert _rel_err(sp.coeffs, naive_dft(spec.moduli, values)) <= 1e-12
    back = inverse_transform(sp)
    assert _rel_err(back.values, naive_inverse_dft(spec.moduli, sp.coeffs)) <= 1e-12
    assert _rel_err(back.values, values) <= 1e-12


@pytest.mark.parametrize("moduli", [(2,) * 20, (3,) * 12, (5,) * 8, (7,) * 7, (2, 3, 5, 5),
                                    (4, 4, 4), (6, 4, 4), (12,), (2, 2, 2, 3, 3), (3, 2, 3), (1031,)])
def test_blocks_factor_the_group(moduli):
    blocks = _blocks(moduli)
    assert math.prod(m**k for m, k in blocks) == math.prod(moduli)
    # blocks cover the coordinates from the highest down, one modulus each
    assert [m for m, k in blocks for _ in range(k)] == list(moduli[::-1])
    assert all(k == 1 or m**k <= DFT_BLOCK_ORDER for m, k in blocks)


def test_blocks_split_runs_evenly():
    assert _blocks((3,) * 7) == ((3, 3), (3, 2), (3, 2))
    assert _blocks((2, 2, 4, 4, 4)) == ((4, 2), (4, 1), (2, 2))
    assert _blocks((7, 7)) == ((7, 1), (7, 1))
    for n in range(1, 21):
        # the Walsh-Hadamard split: the fewest parts of at most 5 bits, as even as possible
        parts = -(-n // 5)
        q, r = divmod(n, parts)
        assert _blocks((2,) * n) == ((2, q + 1),) * r + ((2, q),) * (parts - r)


@pytest.mark.parametrize("moduli", [(3,) * 12, (33,), (64, 3), (74,), (96, 2), (1024,), (37, 41), (1021, 2),
                                    (1031,), (2003,), (2 * 1031,), (4099, 3), (3, 128, 5)])
def test_transform_matches_numpy_fft(moduli):
    # moduli above 32: dense blocks for primes up to DENSE_PRIME_LIMIT, np.fft for the rest
    rng = np.random.default_rng(math.prod(moduli))
    spec = GroupSpec(moduli)
    values = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    sp = transform(DenseFunction(spec, values))
    assert _rel_err(sp.coeffs, fft_reference(moduli, values)) <= 1e-12
    back = inverse_transform(sp).values
    assert _rel_err(back, fft_reference(moduli, sp.coeffs, inverse=True)) <= 1e-12
    assert _rel_err(back, values) <= 1e-12


@pytest.mark.parametrize("m", [37, 74, 128, 163, 1031, 2062])
def test_large_modulus_matches_defining_sums(m):
    # both sides of the dense-prime rule, checked against an oracle other than np.fft
    rng = np.random.default_rng(m)
    spec = GroupSpec((m,))
    values = rng.normal(size=m) + 1j * rng.normal(size=m)
    sp = transform(DenseFunction(spec, values))
    assert _rel_err(sp.coeffs, naive_dft(spec.moduli, values)) <= 1e-12
    back = inverse_transform(sp).values
    assert _rel_err(back, naive_inverse_dft(spec.moduli, sp.coeffs)) <= 1e-12


@pytest.mark.parametrize("n", [14, 20])
def test_factored_wht_equals_butterfly_on_indicators(n):
    # 0/1 inputs keep every partial sum an integer, so the two agree exactly
    rng = np.random.default_rng(n)
    spec = GroupSpec.boolean(n)
    bits = (rng.random(spec.size) < 0.3).astype(np.float64)
    want = fwht_butterfly(bits.astype(np.complex128))
    assert not np.any(want.imag)
    got = transform(DenseFunction(spec, bits)).coeffs
    assert got.dtype == np.float64
    assert np.array_equal(got, want.real / spec.size)
    back = inverse_transform(Spectrum(spec, bits)).values
    assert np.array_equal(back, want.real)


def test_transform_dtype_contract():
    rng = np.random.default_rng(5)
    f2 = GroupSpec.boolean(6)
    real = DenseFunction(f2, rng.normal(size=64))
    assert transform(real).coeffs.dtype == np.float64
    assert inverse_transform(transform(real)).values.dtype == np.float64
    assert transform(DenseFunction(f2, np.arange(64) % 3)).coeffs.dtype == np.float64
    cplx = DenseFunction(f2, np.exp(1j * rng.normal(size=64)))
    assert transform(cplx).coeffs.dtype == np.complex128
    assert inverse_transform(transform(cplx)).values.dtype == np.complex128
    z3 = GroupSpec.cyclic_power(3, 3)
    real3 = DenseFunction(z3, rng.normal(size=27))
    assert transform(real3).coeffs.dtype == np.complex128
    assert inverse_transform(transform(real3)).values.dtype == np.complex128
    # the joint spectrum multiplies in the dtype of its bases
    inds = Counter([normalized_indicator(f2, [0, 3, 9]), normalized_indicator(f2, range(32))])
    assert joint_spectrum(f2, inds).coeffs.dtype == np.float64
    inds3 = Counter([normalized_indicator(z3, [0, 4])])
    assert joint_spectrum(z3, inds3).coeffs.dtype == np.complex128


def test_heavy_weights_read_alike_for_both_dtypes():
    spec = GroupSpec.boolean(7)
    ind = normalized_indicator(spec, [1, 5, 6, 40, 77, 100])
    real = ind.spectrum()
    as_complex = Spectrum(spec, real.coeffs.astype(np.complex128))
    assert np.array_equal(np.abs(real.coeffs) ** 2, np.abs(as_complex.coeffs) ** 2)
    assert real.energy() == as_complex.energy()


@st.composite
def _f2_subspaces(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return n, rank_basis(rows, n)


@settings(max_examples=120, deadline=None)
@given(_f2_subspaces())
def test_dual_annihilator_mask_matches_row_oracle(case):
    n, V = case
    got = dual_annihilator_mask(GroupSpec.boolean(n), V)
    assert np.array_equal(got, annihilator_mask_rows(n, V.basis))
    assert int(got.sum()) == 1 << (n - V.dim)
