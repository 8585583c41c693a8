"""Exact F2 linear algebra and group arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.algebra import (
    BitVec,
    GroupSpec,
    GroupVec,
    char_eval,
    coset_rep,
    max_independent_subset,
    orthogonal_complement,
    rank_basis,
    subgroup_from_elements,
    subgroup_generated,
)

from oracles import coset_ids_loop, coset_partition, char_value, greedy_generators, naive_rank_masks


def test_bitvec_self_inverse():
    v = BitVec(0b1011, 4)
    assert (v + v).bits == 0
    assert (v + BitVec(0b0110, 4)).bits == 0b1101


def test_bitvec_dimension_mismatch():
    with pytest.raises(ValueError):
        BitVec(0b101, 4) + BitVec(0b1, 1)


def test_rank_basis_trivial_cases():
    # coordinate strings 110, 011, 101: the third is the sum of the others
    assert rank_basis([0b011, 0b110, 0b101], 3).dim == 2
    assert rank_basis([], 5).dim == 0
    assert rank_basis([0], 4).dim == 0


def test_rank_basis_idempotent_and_reduced():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randrange(3, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 2 * n))]
        sp = rank_basis(rows, n)
        again = rank_basis(sp.basis, n)
        assert again.basis == sp.basis
        # each pivot appears in exactly one basis row
        for row in sp.basis:
            p = row & -row
            assert sum(1 for b in sp.basis if b & p) == 1


def test_rank_matches_naive_oracle_on_random_rows():
    rng = random.Random(7)
    n = 12
    rows = [rng.getrandbits(n) for _ in range(200)]
    assert rank_basis(rows, n).dim == naive_rank_masks(rows, n)


def test_orthogonal_complement_all_ones():
    V = orthogonal_complement(rank_basis([(1 << 6) - 1], 6))
    assert V.dim == 5
    assert all(b.bit_count() % 2 == 0 for b in V.basis)


def test_orthogonal_complement_of_zero_space():
    V = orthogonal_complement(rank_basis([], 5))
    assert V.dim == 5


def test_orthogonal_complement_exhaustive_f2_10():
    rng = random.Random(3)
    n = 10
    U = rank_basis([rng.getrandbits(n) for _ in range(4)], n)
    V = orthogonal_complement(U)
    assert U.dim + V.dim == n
    for u in U.elements():
        for v in V.elements():
            assert (u & v).bit_count() % 2 == 0


def test_orthogonal_complement_involution():
    rng = random.Random(5)
    for n in range(2, 11):
        U = rank_basis([rng.getrandbits(n) for _ in range(n // 2 + 1)], n)
        W = orthogonal_complement(orthogonal_complement(U))
        assert W.basis == U.basis


def test_coset_rep_even_parity_depends_only_on_parity():
    n = 6
    V = orthogonal_complement(rank_basis([(1 << n) - 1], n))
    reps = {x: coset_rep(V, x) for x in range(1 << n)}
    by_parity = {0: set(), 1: set()}
    for x, r in reps.items():
        by_parity[x.bit_count() & 1].add(r)
    assert len(by_parity[0]) == 1 and len(by_parity[1]) == 1
    assert by_parity[0] != by_parity[1]


def test_coset_rep_members_map_to_identity_rep():
    rng = random.Random(11)
    V = rank_basis([rng.getrandbits(8) for _ in range(3)], 8)
    for v in V.elements():
        assert coset_rep(V, v) == coset_rep(V, 0)


def test_coset_rep_matches_bruteforce_partition():
    rng = random.Random(13)
    n = 8
    V = rank_basis([rng.getrandbits(n) for _ in range(4)], n)
    brute = coset_partition(V.basis, n)
    for x in range(1 << n):
        for y in range(x, 1 << n):
            same_lib = coset_rep(V, x) == coset_rep(V, y)
            assert same_lib == (brute[x] == brute[y])
    # class count is 2^(n - dim V)
    assert len({coset_rep(V, x) for x in range(1 << n)}) == 1 << (n - V.dim)


def test_max_independent_subset_examples():
    assert max_independent_subset([0], [1.0], n=3) == []
    out = max_independent_subset([0b001, 0b010, 0b011], [3.0, 2.0, 1.0], n=3)
    assert out == [0b001, 0b010]


def test_max_independent_subset_spans_input():
    rng = random.Random(17)
    n = 10
    vectors = [rng.getrandbits(n) for _ in range(50)]
    weights = [rng.random() for _ in vectors]
    out = max_independent_subset(vectors, weights, n=n)
    assert rank_basis(out, n).dim == rank_basis(vectors, n).dim
    assert rank_basis(out, n).dim == len(out)
    # heaviest-first: weights of chosen vectors appear in greedy order
    chosen_weights = [max(w for v, w in zip(vectors, weights) if v == o) for o in out]
    assert chosen_weights == sorted(chosen_weights, reverse=True)


def test_group_spec_basics():
    g = GroupSpec((6, 4))
    assert g.size == 24 and g.exponent == 12 and not g.is_boolean
    assert g.decode(g.encode((5, 3))) == (5, 3)
    assert g.add(g.encode((5, 3)), g.encode((1, 1))) == g.encode((0, 0))
    assert g.neg(g.encode((1, 3))) == g.encode((5, 1))
    assert GroupSpec.boolean(4).is_boolean
    with pytest.raises(ValueError):
        GroupSpec((1, 3))


def test_group_vec_arithmetic_and_order():
    g = GroupSpec((6, 4))
    x = GroupVec((1, 3), g)
    acc = x
    for _ in range(g.exponent - 1):
        acc = acc + x
    assert acc.coords == (0, 0)  # order divides the exponent


def test_char_eval_examples_and_multiplicativity():
    z4 = GroupSpec((4,))
    assert abs(char_eval(GroupVec((2,), z4), GroupVec((1,), z4)) - (-1)) < 1e-12
    g = GroupSpec((6, 4))
    rng = random.Random(23)
    for _ in range(50):
        gamma = GroupVec(g.decode(rng.randrange(g.size)), g)
        x = GroupVec(g.decode(rng.randrange(g.size)), g)
        y = GroupVec(g.decode(rng.randrange(g.size)), g)
        assert abs(char_eval(gamma, GroupVec((0, 0), g)) - 1) < 1e-12
        lhs = char_eval(gamma, x + y)
        rhs = char_eval(gamma, x) * char_eval(gamma, y)
        assert abs(lhs - rhs) < 1e-12
        # matches the defining product
        assert abs(lhs - char_value(g.moduli, gamma.index, (x + y).index)) < 1e-12


def test_char_eval_respects_orders():
    g = GroupSpec((6, 4, 3))
    rng = random.Random(29)
    for _ in range(30):
        gamma = GroupVec(g.decode(rng.randrange(g.size)), g)
        x = GroupVec(g.decode(rng.randrange(g.size)), g)
        assert abs(char_eval(gamma, x) ** g.exponent - 1) < 1e-10


def test_subgroup_enum_closure_and_cosets():
    g = GroupSpec((6, 6))
    sub = subgroup_generated(g, [g.encode((2, 0)), g.encode((0, 3))])
    assert sub.verify_closed()
    assert len(sub) == 6  # Z_3 x Z_2
    ids = sub.coset_ids()
    assert sub.n_cosets == g.size // len(sub)
    # cosets are exactly the translates
    for x in range(g.size):
        for h in sub.elements:
            assert ids[g.add(x, h)] == ids[x]


def test_subgroup_from_elements_rejects_non_closed():
    g = GroupSpec((4,))
    with pytest.raises(ValueError):
        subgroup_from_elements(g, [0, 1])
    sub = subgroup_from_elements(g, [0, 2])
    assert sub.elements == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subgroup_generators_match_greedy_closure_oracle(data):
    moduli = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    g = GroupSpec(moduli)
    seeds = data.draw(st.lists(st.integers(0, g.size - 1), max_size=4))
    sub = subgroup_generated(g, seeds)
    gens = sub.generators()
    assert gens == greedy_generators(moduli, sub.elements)
    assert subgroup_generated(g, gens) == sub
    gens.append(-1)  # the cached list is not handed out
    assert sub.generators() == gens[:-1]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coset_ids_match_the_coset_loop(data):
    moduli = data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=4))
    g = GroupSpec(moduli)
    sub = subgroup_generated(g, data.draw(st.lists(st.integers(0, g.size - 1), max_size=4)))
    ids = sub.coset_ids()
    assert ids.tolist() == coset_ids_loop(g, sub.elements)
    assert sub.n_cosets == g.size // len(sub) and not ids.flags.writeable


def test_quotient_add_table_is_group():
    g = GroupSpec((4, 2))
    sub = subgroup_generated(g, [g.encode((2, 0))])
    table = sub.quotient_add_table()
    q = sub.n_cosets
    assert table.shape == (q, q)
    # identity coset and inverses exist
    assert all(table[0, a] == a for a in range(q))
    for a in range(q):
        assert 0 in table[a]
