import itertools
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from flagfibers.ideals import (
    Ideal,
    all_ideals,
    enumerate_balanced_ideals,
    minimal_anosov_type,
    thickening_membership,
)
from flagfibers.weyl import (
    Family,
    RootSystem,
    WeylElement,
    double_cosets,
    parabolic_elements,
    sign_vector,
)

import oracles

A2 = RootSystem(Family.A, 2)
A3 = RootSystem(Family.A, 3)
C2 = RootSystem(Family.C, 2)

FULL = {
    A2: frozenset({1, 2}),
    A3: frozenset({1, 2, 3}),
    C2: frozenset({1, 2}),
}


def poset_of(system, eta):
    return double_cosets(system, FULL[system], frozenset(eta))


def leq_table(poset):
    return [[poset.leq(i, j) for j in range(len(poset))] for i in range(len(poset))]


def oracle_balanced(poset):
    return set(oracles.balanced_ideals_oracle(leq_table(poset), list(poset.w0_action)))


def full_left_type_cases(max_cosets):
    """(system, eta) for A2-A4 and C2-C3, every eta, at most ``max_cosets`` cosets."""
    cases = []
    for family, rank in ((Family.A, 2), (Family.A, 3), (Family.A, 4), (Family.C, 2), (Family.C, 3)):
        system = RootSystem(family, rank)
        for size in range(rank + 1):
            for eta in itertools.combinations(system.simple_indices, size):
                eta = frozenset(eta)
                if system.order() // len(parabolic_elements(system, eta)) <= max_cosets:
                    cases.append((system, eta))
    return cases


def case_id(case):
    system, eta = case
    return f"{system.family.value}{system.rank}:{','.join(map(str, sorted(eta)))}"


SMALL_CASES = full_left_type_cases(48)
TINY_CASES = full_left_type_cases(24)


# ---------------------------------------------------------------------------
# validation and predicates


def test_ideal_must_be_downward_closed():
    poset = poset_of(A3, {1})  # a 4-chain
    Ideal(poset, frozenset({0, 1}))
    with pytest.raises(ValueError):
        Ideal(poset, frozenset({1}))
    with pytest.raises(ValueError):
        Ideal(poset, frozenset({5}))


def test_fat_slim_extremes():
    poset = poset_of(C2, {2})
    everything = Ideal(poset, frozenset(range(len(poset))))
    nothing = Ideal(poset)
    assert everything.is_fat() and not everything.is_slim()
    assert nothing.is_slim() and not nothing.is_fat()
    assert not everything.is_balanced() and not nothing.is_balanced()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_check_matches_leq_scan(data):
    system, eta = data.draw(st.sampled_from(TINY_CASES), label="poset")
    poset = double_cosets(system, frozenset(system.simple_indices), eta)
    n = len(poset)
    leq = leq_table(poset)
    subset = data.draw(st.frozensets(st.integers(0, n - 1)), label="subset")
    if data.draw(st.booleans(), label="close it, then drop at most one"):
        subset = frozenset(i for i in range(n) if any(leq[i][j] for j in subset))
        subset -= data.draw(st.frozensets(st.integers(0, n - 1), max_size=1))
    try:
        Ideal(poset, subset)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == oracles.is_ideal_oracle(leq, subset)


def test_all_ideals_of_a_chain():
    poset = poset_of(A3, {1})
    assert sorted(all_ideals(poset), key=len) == [
        frozenset(),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({0, 1, 2, 3}),
    ]


# ---------------------------------------------------------------------------
# balanced ideal enumeration, pinned examples and oracle


def test_unique_balanced_ideal_of_s3():
    poset = poset_of(A2, {1, 2})
    balanced = enumerate_balanced_ideals(poset)
    assert len(balanced) == 1
    assert balanced[0].labels() == {"123", "213", "132"}
    assert balanced[0].is_balanced()
    assert {b.members for b in balanced} == oracle_balanced(poset)


def test_balanced_ideal_of_projective_chain():
    poset = poset_of(A3, {1})
    balanced = enumerate_balanced_ideals(poset)
    assert len(balanced) == 1
    assert balanced[0].members == frozenset({0, 1})
    assert balanced[0].labels() == {"1234", "2134"}
    assert {b.members for b in balanced} == oracle_balanced(poset)


def test_balanced_ideal_of_lagrangian_chain():
    poset = poset_of(C2, {2})
    balanced = enumerate_balanced_ideals(poset)
    assert len(balanced) == 1
    signs = {sign_vector(poset.cosets[i].min_rep) for i in balanced[0].members}
    assert signs == {(1, 1), (1, -1)}
    assert {b.members for b in balanced} == oracle_balanced(poset)


def test_balanced_ideals_of_full_c2_poset_match_oracle():
    poset = poset_of(C2, {1, 2})
    balanced = enumerate_balanced_ideals(poset)
    assert {b.members for b in balanced} == oracle_balanced(poset)
    for b in balanced:
        assert len(b.members) == len(poset) // 2


@pytest.mark.parametrize("case", SMALL_CASES, ids=case_id)
def test_search_and_left_action_match_antichain_and_product_oracles(case):
    system, eta = case
    poset = double_cosets(system, frozenset(system.simple_indices), eta)
    balanced = enumerate_balanced_ideals(poset)
    assert [b.members for b in balanced] == oracles.balanced_ideals_antichain_oracle(poset)
    for b in balanced:
        assert minimal_anosov_type(b) == oracles.minimal_anosov_type_oracle(b)


def test_full_type_a4_balanced_ideals():
    # 4608 is this package's own count, pinned to catch regressions; it is
    # not a value quoted from the literature.
    A4 = RootSystem(Family.A, 4)
    full = frozenset(A4.simple_indices)
    poset = double_cosets(A4, full, full)
    balanced = enumerate_balanced_ideals(poset)
    assert len({b.members for b in balanced}) == len(balanced) == 4608
    for b in balanced:
        assert Ideal(poset, b.members).is_balanced()


def test_odd_poset_returns_empty_without_warning():
    poset = poset_of(A2, {1})  # CP^2 positions: a 3-chain
    assert len(poset) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert enumerate_balanced_ideals(poset) == []


def test_balance_needs_w0_action():
    poset = double_cosets(A2, frozenset({1}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        Ideal(poset).is_balanced()


# ---------------------------------------------------------------------------
# minimal Anosov types


def test_minimal_type_projective_sl4():
    poset = poset_of(A3, {1})
    ideal = Ideal(poset, frozenset({0, 1}))
    assert minimal_anosov_type(ideal) == frozenset({2})


def test_minimal_type_lagrangian_sp4():
    poset = poset_of(C2, {2})
    ideal = Ideal(poset, frozenset({0, 1}))
    assert minimal_anosov_type(ideal) == frozenset({1})


def test_minimal_type_full_flags_sl3():
    poset = poset_of(A2, {1, 2})
    [ideal] = enumerate_balanced_ideals(poset)
    assert minimal_anosov_type(ideal) == frozenset({1, 2})


def test_minimal_type_needs_full_left_type():
    poset = double_cosets(C2, frozenset({2}), frozenset({2}))
    with pytest.raises(ValueError):
        minimal_anosov_type(Ideal(poset))


# ---------------------------------------------------------------------------
# thickenings


def test_thickening_membership():
    poset = poset_of(C2, {2})
    ideal = Ideal(poset, frozenset({0, 1}))
    assert thickening_membership(ideal, poset.cosets[1])
    assert not thickening_membership(ideal, poset.cosets[3])
    # any representative of the coset works, not just the minimal one
    w = WeylElement(C2, (-1, 2))  # lies in the coset of (2, -1)
    assert not thickening_membership(ideal, w)
    assert thickening_membership(ideal, WeylElement(C2, (-2, 1)))
