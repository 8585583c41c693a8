"""Exact F2 linear algebra and group arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.algebra import (
    GroupSpec,
    max_independent_subset,
    orthogonal_complement,
    rank_basis,
    subgroup_from_elements,
    subgroup_generated,
)

from oracles import coset_ids_loop, greedy_generators, naive_rank_masks


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
