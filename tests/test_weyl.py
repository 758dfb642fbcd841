import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagfibers import weyl
from flagfibers.weyl import (
    GROUP_ORDER_LIMIT,
    DoubleCoset,
    Family,
    RootSystem,
    WeylElement,
    bruhat_leq,
    coset_inverse,
    double_coset_of,
    double_cosets,
    group_elements,
    identity,
    longest_element,
    opposition_involution,
    parabolic_elements,
    sign_vector,
    simple_reflection,
    simple_reflections,
)

import oracles
from oracles import reduced_word

A2 = RootSystem(Family.A, 2)
A3 = RootSystem(Family.A, 3)
A4 = RootSystem(Family.A, 4)
C2 = RootSystem(Family.C, 2)
C3 = RootSystem(Family.C, 3)


def w(system, *window):
    return WeylElement(system, tuple(window))


# ---------------------------------------------------------------------------
# elements and multiplication


def test_simple_reflections_c2():
    assert [s.window for s in simple_reflections(C2)] == [(2, 1), (1, -2)]


def test_multiply_type_a_example():
    assert (w(A2, 2, 1, 3) * w(A2, 1, 3, 2)).window == (2, 3, 1)


def test_multiply_type_c_against_matrix_oracle():
    # The signed-permutation-matrix product is the ground truth here; the
    # composition below comes out as (-2, 1), not (2, -1).
    expected = oracles.multiply_windows_via_matrices((1, -2), (2, 1))
    assert expected == (-2, 1)
    assert (w(C2, 1, -2) * w(C2, 2, 1)).window == expected


@settings(max_examples=60)
@given(st.data())
def test_multiply_matches_matrix_oracle_everywhere(data):
    system = data.draw(st.sampled_from([A2, A3, C2]))
    elems = group_elements(system)
    w1 = data.draw(st.sampled_from(elems))
    w2 = data.draw(st.sampled_from(elems))
    assert (w1 * w2).window == oracles.multiply_windows_via_matrices(
        w1.window, w2.window
    )


def test_window_validation():
    with pytest.raises(ValueError):
        WeylElement(A2, (1, 1, 2))
    with pytest.raises(ValueError):
        WeylElement(C2, (1, 3))
    with pytest.raises(ValueError):
        WeylElement(A2, (1, 2))


def test_records_compare_hash_and_read_back_as_their_fields():
    # Every record type of the package, compared, hashed and shown field by field.
    from flagfibers import _Record
    from flagfibers.dims import CaseRow, FlagVarietyDescriptor, GroupFamily
    from flagfibers.flags import ExactFlag, GaussianRational, Signature, SymplecticForm
    from flagfibers.flags import full_signature
    from flagfibers.sl2reps import Partition, WeightedBasis
    from flagfibers.twg import Classification, FixedLocus, FixedSurface, IsolatedFixedFlag
    from flagfibers.twg import WeightGraph

    e = w(A2, 2, 1, 3)
    samples = [
        A2,
        e,
        DoubleCoset(A2, frozenset({1}), frozenset(), e),
        GaussianRational(1, "1/2"),
        Signature((1,), 2),
        ExactFlag.standard(full_signature(2)),
        SymplecticForm.standard(1),
        Partition((2, 1)),
        WeightedBasis(("a", "b"), (1, -1)),
        IsolatedFixedFlag((("a",),), ("b",)),
        FixedSurface((), ("a", "b")),
        FixedLocus((), ()),
        WeightGraph([("p", 1), ("q", -1)], [], [("q", "p", 2)]),
        Classification(None, None, "no match"),
        FlagVarietyDescriptor(GroupFamily.SL, 3, (1,)),
        CaseRow(("SL(3,C)",), "Flag(C^3)", (Partition((3,)), Partition((2, 1)))),
    ]
    assert {type(record) for record in samples} == set(_Record.__subclasses__())
    for record in samples:
        values = tuple(getattr(record, name) for name in record.__slots__)
        assert hash(record) == hash(values)
        assert record == type(record)(*values) and record != values
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(record.__slots__, values))
        assert repr(record) == f"{type(record).__name__}({shown})"
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert repr(e) == "WeylElement(system=RootSystem(family=<Family.A: 'A'>, rank=2), window=(2, 1, 3))"
    assert repr(samples[12]) == "WeightGraph(rounds=(('p', 1), ('q', -1)), squares=(), edges=(('p', 'q', 2),))"
    assert w(A2, 1, 2, 3) < e <= e < w(A2, 3, 1, 2) and e >= w(A2, 1, 3, 2) > w(A2, 1, 2, 3)
    with pytest.raises(TypeError):
        e < w(C2, 1, 2)


def test_act_on_negative_letters():
    assert w(C2, 1, -2).act(-2) == 2
    with pytest.raises(ValueError):
        w(A2, 1, 2, 3).act(-1)


def test_inverse():
    for system in (A3, C2):
        for elem in group_elements(system):
            assert (elem * elem.inverse()).is_identity()
            assert elem.inverse().inverse() == elem


# ---------------------------------------------------------------------------
# length


def test_length_of_negative_window_is_three_by_bfs():
    # BFS word length over the 8-element group; the closed form must agree.
    lengths = oracles.bfs_lengths("C", 2)
    assert lengths[(-2, -1)] == 3
    assert w(C2, -2, -1).length() == 3


@pytest.mark.parametrize(
    "family,rank,system",
    [("A", 2, A2), ("A", 3, A3), ("C", 2, C2), ("C", 3, C3)],
)
def test_length_matches_bfs_everywhere(family, rank, system):
    lengths = oracles.bfs_lengths(family, rank)
    assert len(lengths) == system.order()
    for elem in group_elements(system):
        assert elem.length() == lengths[elem.window], elem.window


def test_longest_element():
    assert longest_element(A3).window == (4, 3, 2, 1)
    assert longest_element(C2).window == (-1, -2)
    assert longest_element(C2).length() == 4  # = number of positive roots, n^2
    assert longest_element(A3).length() == 6
    for system in (A2, A3, C2, C3):
        w0 = longest_element(system)
        assert max(e.length() for e in group_elements(system)) == w0.length()
        assert (w0 * w0).is_identity()


def test_group_orders():
    assert len(group_elements(A3)) == 24
    assert len(group_elements(C2)) == 8
    assert len(group_elements(C3)) == 48


# ---------------------------------------------------------------------------
# Bruhat order


def test_reduced_word_roundtrip():
    for system in (A3, C2, C3):
        for elem in group_elements(system):
            word = reduced_word(elem)
            assert len(word) == elem.length()
            product = identity(system)
            for i in word:
                product = product * simple_reflection(system, i)
            assert product == elem


@pytest.mark.parametrize(
    "family,rank,system",
    [("A", 2, A2), ("A", 3, A3), ("C", 2, C2), ("A", 4, A4), ("C", 3, C3)],
)
def test_bruhat_matches_reflection_reachability_oracle(family, rank, system):
    oracle = oracles.bruhat_order_oracle(family, rank)
    for u, v in itertools.product(group_elements(system), repeat=2):
        expected = u == v or oracle[(u.window, v.window)]
        assert bruhat_leq(u, v) == expected, (u.window, v.window)


def test_bruhat_spot_checks():
    assert bruhat_leq(w(A2, 2, 1, 3), w(A2, 3, 1, 2))
    assert not bruhat_leq(w(A2, 2, 3, 1), w(A2, 3, 1, 2))
    assert bruhat_leq(w(C2, 1, -2), w(C2, -2, -1))


@settings(max_examples=40)
@given(st.data())
def test_bruhat_is_a_partial_order(data):
    elems = group_elements(C2)
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    if bruhat_leq(a, b) and bruhat_leq(b, a):
        assert a == b
    if bruhat_leq(a, b) and bruhat_leq(b, c):
        assert bruhat_leq(a, c)


# ---------------------------------------------------------------------------
# parabolic subgroups and double cosets

FULL_A3 = frozenset({1, 2, 3})
FULL_C2 = frozenset({1, 2})


def test_parabolic_complement_convention():
    # the full type marks every level, leaving the trivial subgroup
    assert len(parabolic_elements(A3, FULL_A3)) == 1
    assert len(parabolic_elements(A3, frozenset({1}))) == 6  # <s2, s3>
    assert len(parabolic_elements(C2, frozenset({2}))) == 2  # <s1>
    assert len(parabolic_elements(A3, frozenset())) == 24


def test_double_cosets_full_type_gives_singletons():
    poset = double_cosets(A2, frozenset({1, 2}), frozenset({1, 2}))
    assert len(poset) == 6
    assert sorted(dc.label() for dc in poset.cosets) == sorted(
        e.window_str() for e in group_elements(A2)
    )
    # induced order is plain Bruhat order
    for i, a in enumerate(poset.cosets):
        for j, b in enumerate(poset.cosets):
            assert poset.leq(i, j) == bruhat_leq(a.min_rep, b.min_rep)


def test_projective_space_chain_a3():
    poset = double_cosets(A3, FULL_A3, frozenset({1}))
    assert [dc.label() for dc in poset.cosets] == ["1234", "2134", "3124", "4123"]
    for i in range(4):
        for j in range(4):
            assert poset.leq(i, j) == (i <= j)
    assert poset.w0_action == (3, 2, 1, 0)


def test_lagrangian_chain_c2():
    poset = double_cosets(C2, FULL_C2, frozenset({2}))
    assert [dc.min_rep.window for dc in poset.cosets] == [
        (1, 2),
        (1, -2),
        (2, -1),
        (-2, -1),
    ]
    for i in range(4):
        for j in range(4):
            assert poset.leq(i, j) == (i <= j)
    assert poset.w0_action == (3, 2, 1, 0)
    assert [sign_vector(dc.min_rep) for dc in poset.cosets] == [
        (1, 1),
        (1, -1),
        (-1, 1),
        (-1, -1),
    ]


def test_sign_vector_constant_on_cosets():
    right = parabolic_elements(C2, frozenset({2}))
    for elem in group_elements(C2):
        signs = {sign_vector(elem * v) for v in right}
        assert len(signs) == 1


def test_w0_action_reverses_order():
    poset = double_cosets(C2, FULL_C2, frozenset({2}))
    perm = poset.w0_action
    for i in range(len(poset)):
        for j in range(len(poset)):
            assert poset.leq(i, j) == poset.leq(perm[j], perm[i])


def test_w0_action_requires_self_opposite_type():
    assert opposition_involution(A2, frozenset({1})) == frozenset({2})
    poset = double_cosets(A2, frozenset({1}), frozenset({1, 2}))
    assert poset.w0_action is None
    assert opposition_involution(C3, frozenset({1, 3})) == frozenset({1, 3})


def test_double_coset_of_and_inverse():
    poset = double_cosets(C2, FULL_C2, frozenset({2}))
    for dc in poset.cosets:
        same = double_coset_of(C2, FULL_C2, frozenset({2}), dc.min_rep)
        assert same == dc
        flipped = coset_inverse(dc)
        assert isinstance(flipped, DoubleCoset)
        assert flipped.left_type == frozenset({2})
        assert flipped.right_type == FULL_C2
        assert coset_inverse(flipped) == dc


@pytest.mark.parametrize("family,rank,system", [("A", 3, A3), ("C", 3, C3)])
def test_min_reps_match_orbit_minimum_oracle(family, rank, system):
    subsets = [
        frozenset(c)
        for size in range(rank + 1)
        for c in itertools.combinations(system.simple_indices, size)
    ]
    for theta, eta in itertools.product(subsets, repeat=2):
        expected = oracles.double_coset_min_oracle(family, rank, theta, eta)
        poset = double_cosets(system, theta, eta)
        assert len(poset) == len(set(expected.values()))
        for elem in group_elements(system):
            want = expected[elem.window]
            assert double_coset_of(system, theta, eta, elem).min_rep.window == want
            assert poset.cosets[poset.coset_index(elem)].min_rep.window == want


@pytest.mark.parametrize("system", [A2, A3, A4, C2, C3], ids=["A2", "A3", "A4", "C2", "C3"])
def test_double_cosets_match_product_and_scan_oracle(system):
    # Every (theta, eta): a theta other than the full type makes the
    # representatives drop left descents too, and lookups strip them.
    subsets = [
        frozenset(c)
        for size in range(system.rank + 1)
        for c in itertools.combinations(system.simple_indices, size)
    ]
    for theta, eta in itertools.product(subsets, repeat=2):
        want = oracles.double_cosets_oracle(system, theta, eta)
        poset = double_cosets(system, theta, eta)
        assert poset.cosets == want.cosets
        assert {e.window: poset.coset_index(e) for e in group_elements(system)} == want.coset_index
        assert poset.up == want.up
        assert poset.down == want.down
        assert poset.covers() == want.covers
        assert poset.w0_action == want.w0_action
        assert poset.left_masks == oracles.left_masks_oracle(want.left_action)


@pytest.mark.parametrize(
    "system", [RootSystem(Family.A, 5), RootSystem(Family.C, 4)], ids=["A5", "C4"]
)
def test_full_type_poset_matches_oracle(system):
    # The largest posets the pairwise oracle checks: one coset per element.
    full = frozenset(system.simple_indices)
    want = oracles.double_cosets_oracle(system, full, full)
    poset = double_cosets(system, full, full)
    assert poset.cosets == want.cosets
    assert poset.up == want.up
    assert poset.down == want.down
    assert poset.covers() == want.covers


EVERY_SYSTEM = [RootSystem(Family.A, rank) for rank in range(1, 7)] + [
    RootSystem(Family.C, rank) for rank in range(1, 6)
]


def system_id(system):
    return f"{system.family.value}{system.rank}"


def every_eta(system):
    for size in range(system.rank + 1):
        for eta in itertools.combinations(system.simple_indices, size):
            yield frozenset(eta)


@pytest.mark.parametrize("system", EVERY_SYSTEM, ids=system_id)
def test_descent_slot_fields_and_left_actions_match_earlier_routes(system):
    # Every eta of the full left type, but the full-type posets of A6 and
    # C5 (covered by the pairwise oracle up to A5 and C4), to keep the time
    # budget: descent-slot up-sets against every count field, w0_action and
    # left_masks against stripping each product to its representative.
    full = frozenset(system.simple_indices)
    for eta in every_eta(system):
        if system.order() > 1000 and eta == full:
            continue
        poset = double_cosets(system, full, eta)
        assert poset.up == oracles.up_sets_all_fields_oracle(poset.cosets)
        assert poset.w0_action == oracles.w0_action_min_rep_oracle(poset)
        table = oracles.left_action_min_rep_oracle(poset)
        assert poset.left_masks == oracles.left_masks_oracle(table)


@pytest.mark.parametrize("system", EVERY_SYSTEM, ids=system_id)
def test_quotient_closure_matches_inverse_and_filter_oracle(system):
    # Every eta, so type C checks the s_n rule both with s_n in W_eta and not.
    every = list(system.simple_indices)
    for eta in every_eta(system):
        right = [i for i in every if i not in eta]
        want = oracles.quotient_closure_filter_oracle(system, every, right)
        assert weyl._closure(system, every, right) == want


@pytest.mark.parametrize("system", [A4, C3], ids=system_id)
def test_grown_closure_pairs_each_window_with_its_inverse(system):
    every = list(system.simple_indices)
    for eta in every_eta(system):
        right = [i for i in every if i not in eta]
        if right:
            pairs = weyl._closure(system, every, right, True)
            assert [w for w, _ in pairs] == weyl._closure(system, every, right)
            one = tuple(range(1, len(pairs[0][0]) + 1))
            assert all(oracles.multiply_windows_via_matrices(w, u) == one for w, u in pairs)


@pytest.mark.parametrize("system", [A4, C3], ids=system_id)
def test_full_left_type_cosets_strip_no_descent(system):
    # w0 * w * w0_eta is the representative of [w0 * w] when w is: it has no
    # right descent s_i, i not in eta, to strip.
    w0 = longest_element(system)
    for eta in every_eta(system):
        poset = double_cosets(system, frozenset(system.simple_indices), eta)
        right = [i for i in system.simple_indices if i not in eta]
        w0_eta = parabolic_elements(system, eta)[-1]
        for c, dc in enumerate(poset.cosets):
            flip = (w0 * dc.min_rep * w0_eta).window
            assert not any(weyl._descends(flip, i) for i in right), (eta, dc.label())
            assert poset.cosets[poset.w0_action[c]].min_rep.window == flip


@pytest.mark.parametrize("system", [A4, C3, RootSystem(Family.A, 6)], ids=system_id)
def test_double_cosets_grow_the_smaller_quotient(system, monkeypatch):
    orders = {eta: len(parabolic_elements(system, eta)) for eta in every_eta(system)}
    grown = []

    def counted(*args):
        windows = closure(*args)
        grown.append(len(windows))
        return windows

    closure = weyl._closure
    monkeypatch.setattr(weyl, "_closure", counted)
    pairs = itertools.product(orders, repeat=2)
    if system.rank == 6:  # one coset, from a left quotient of one element
        pairs = [(frozenset(), frozenset(system.simple_indices))]
    for theta, eta in pairs:
        grown.clear()
        double_cosets(system, theta, eta)
        assert sum(grown) <= system.order() // max(orders[theta], orders[eta])


def test_group_order_limit():
    for largest in (RootSystem(Family.A, 6), RootSystem(Family.C, 5)):
        assert len(group_elements(largest)) == largest.order() <= GROUP_ORDER_LIMIT
    for big in (RootSystem(Family.A, 7), RootSystem(Family.C, 6)):
        with pytest.raises(ValueError, match=f"order {big.order()}.*{GROUP_ORDER_LIMIT}"):
            group_elements(big)
        with pytest.raises(ValueError):
            double_cosets(big, frozenset(big.simple_indices), frozenset({1}))
    # descent stripping needs no enumeration of the group
    a7 = RootSystem(Family.A, 7)
    dc = double_coset_of(a7, frozenset({1}), frozenset({7}), longest_element(a7))
    assert dc.min_rep.window == (2, 3, 4, 5, 6, 7, 8, 1)


def test_covers_of_s3():
    poset = double_cosets(A2, frozenset({1, 2}), frozenset({1, 2}))
    labels = [dc.label() for dc in poset.cosets]
    covers = {(labels[i], labels[j]) for i, j in poset.covers()}
    assert covers == {
        ("123", "213"),
        ("123", "132"),
        ("213", "231"),
        ("213", "312"),
        ("132", "231"),
        ("132", "312"),
        ("231", "321"),
        ("312", "321"),
    }
