"""Tests for fixed loci, tangent weights, weight graphs, and classification.

The Hirzebruch catalogue is cross-checked against an independent model: the
tangent-weight multisets at the four fixed points of the weight-(a, b)
torus-subgroup action on the q-twisted surface are {a, b}, {-a, b},
{-b, a+qb}, {-b, -a-qb}, from which signs and sphere weights follow without
using the production graph builder.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagfibers.flags import (
    ExactFlag,
    ExactMatrix,
    GaussianRational,
    Signature,
    SymplecticForm,
)
from flagfibers.sl2reps import (
    Partition,
    WeightedBasis,
    admits_symplectic_form,
    invariant_symplectic_form,
    partitions_of,
    so2_weight_basis,
)
from flagfibers import flags, twg
from flagfibers.twg import (
    ActionAnalysis,
    CircleGroup,
    Classification,
    WeightGraph,
    ambient_to_fiber_graph,
    analyze_action,
    chart_directions,
    chart_index_set,
    check_almost_complex_obstruction,
    classify_fiber,
    complete_intersection_c1_coeff,
    connected_sum,
    fiber_tangent_weights,
    fiber_weight_graph,
    fixed_flags,
    fixed_surface_euler,
    form_partners,
    graphs_isomorphic,
    hirzebruch_graph,
    sign_of_fixed_point,
    _canonical_name,
    _catalogue_order,
    _hirzebruch_ring,
    _reading,
    _rings,
)
from flagfibers import weyl

import oracles
from oracles import is_isotropic


SIX_CASES = [
    ((3,), "full", CircleGroup.PSO2),
    ((2, 1), "full", CircleGroup.SO2),
    ((4,), "proj", CircleGroup.PSO2),
    ((2, 2), "proj", CircleGroup.PSO2),
    ((4,), "lag", CircleGroup.PSO2),
    ((2, 1, 1), "lag", CircleGroup.SO2),
]


def analysis(parts, kind, group) -> ActionAnalysis:
    return analyze_action(Partition(parts), kind, group)


# ---------------------------------------------------------------------------
# circle groups and chart indices


def test_circle_group_weights():
    assert CircleGroup.SO2.hyperbolic_weight == 2
    assert CircleGroup.PSO2.hyperbolic_weight == 1
    assert CircleGroup.SO2.scaled(-3) == -3
    assert CircleGroup.PSO2.scaled(-4) == -2
    with pytest.raises(ValueError):
        CircleGroup.PSO2.scaled(3)
    CircleGroup.PSO2.check_weights([2, 0, -2])
    CircleGroup.PSO2.check_weights([3, 1, -1])
    CircleGroup.SO2.check_weights([1, 0, -1])
    with pytest.raises(ValueError):
        CircleGroup.PSO2.check_weights([1, 0, -1])


def test_chart_index_set():
    assert chart_index_set(Signature((1, 2), 3)) == ((2, 1), (3, 1), (3, 2))
    assert chart_index_set(Signature((1,), 4)) == ((2, 1), (3, 1), (4, 1))
    assert chart_index_set(Signature((2,), 4)) == ((3, 1), (3, 2), (4, 1), (4, 2))
    # Complete flags: all strictly-lower pairs.
    full = chart_index_set(Signature((1, 2, 3), 4))
    assert len(full) == 6
    assert set(full) == {(i, j) for i in range(2, 5) for j in range(1, i)}


# ---------------------------------------------------------------------------
# flag charts


def weights_of(directions) -> list[int]:
    return [w for w, _ in directions]


def spheres_of(directions) -> list[tuple[tuple[str, ...], int]]:
    """(far end, edge weight) of each direction that closes to a sphere."""
    return [(far, abs(w)) for w, far in directions if abs(w) >= 2]


def test_difference_matrix_full_flag_example():
    basis = so2_weight_basis(Partition((3,)))
    order = oracles.permuted(basis, ["f2", "f-2", "f0"])
    directions = chart_directions(order, Signature((1, 2), 3), CircleGroup.PSO2)
    # Directions follow chart_index_set: (2, 1), (3, 1), (3, 2).
    assert weights_of(directions) == [-2, -1, 1]


def test_difference_matrix_projective_example():
    basis = so2_weight_basis(Partition((4,)))
    directions = chart_directions(basis, Signature((1,), 4), CircleGroup.PSO2)
    assert sorted(weights_of(directions)) == [-3, -2, -1]


def test_difference_matrix_all_equal_weights():
    basis = so2_weight_basis(Partition((1, 1, 1)))
    directions = chart_directions(basis, Signature((1, 2), 3), CircleGroup.SO2)
    assert weights_of(directions) == [0, 0, 0]


def test_difference_matrix_entry_count_is_dimension():
    for parts, sig, dim in [
        ((3,), Signature((1, 2), 3), 3),
        ((4,), Signature((1,), 4), 3),
        ((4,), Signature((2,), 4), 4),
        ((4,), Signature((1, 2, 3), 4), 6),
    ]:
        basis = so2_weight_basis(Partition(parts))
        directions = chart_directions(basis, sig, CircleGroup.SO2)
        assert len(directions) == dim == len(chart_index_set(sig))


def test_difference_matrix_validation():
    basis = so2_weight_basis(Partition((3,)))
    with pytest.raises(ValueError, match="basis size"):
        chart_directions(basis, Signature((1,), 4), CircleGroup.SO2)
    mixed = so2_weight_basis(Partition((2, 1)))
    with pytest.raises(ValueError, match="parity"):
        chart_directions(mixed, Signature((1, 2), 3), CircleGroup.PSO2)


# ---------------------------------------------------------------------------
# fixed loci


def test_fixed_flags_full_flag_isolated():
    basis = so2_weight_basis(Partition((3,)))
    locus = fixed_flags(basis, Signature((1, 2), 3), CircleGroup.PSO2)
    assert not locus.surfaces
    assert {f.id for f in locus.isolated} == {
        "f2|f0", "f2|f-2", "f0|f2", "f0|f-2", "f-2|f2", "f-2|f0",
    }
    by_id = {f.id: f for f in locus.isolated}
    assert by_id["f2|f-2"].flag_order == ("f2", "f-2", "f0")
    assert by_id["f2|f-2"].levels == (("f2",), ("f-2",))


def test_fixed_flags_projective_surfaces():
    basis = so2_weight_basis(Partition((2, 2)))
    locus = fixed_flags(basis, Signature((1,), 4), CircleGroup.PSO2)
    assert not locus.isolated
    assert [s.id for s in locus.surfaces] == ["C(e-1,f-1)", "C(e1,f1)"]
    assert locus.surfaces[0].anchored == ()
    assert locus.surfaces[0].pencil == ("e-1", "f-1")


def test_fixed_flags_lagrangian_families():
    p = Partition((2, 1, 1))
    basis = so2_weight_basis(p)
    omega = invariant_symplectic_form(p)
    partner = form_partners(basis, omega)
    locus = fixed_flags(basis, Signature((2,), 4), CircleGroup.SO2, partner=partner)
    assert not locus.isolated
    assert [s.id for s in locus.surfaces] == ["C(f-1;X2,Y2)", "C(f1;X2,Y2)"]
    # Without the isotropy filter the non-isotropic members show up too.
    plain = fixed_flags(basis, Signature((2,), 4), CircleGroup.SO2)
    assert {f.id for f in plain.isolated} == {"f1,f-1", "X2,Y2"}


def test_fixed_flags_lagrangian_isolated():
    p = Partition((4,))
    basis = so2_weight_basis(p)
    omega = invariant_symplectic_form(p)
    partner = form_partners(basis, omega)
    locus = fixed_flags(basis, Signature((2,), 4), CircleGroup.PSO2, partner=partner)
    assert not locus.surfaces
    assert {f.id for f in locus.isolated} == {
        "f3,f1", "f3,f-1", "f1,f-3", "f-1,f-3",
    }


def coordinate_flag_is_isotropic(basis, sig, flag, omega) -> bool:
    """The matrix route: build the coordinate flag and test its top level."""
    identity = ExactMatrix.identity(len(basis))
    top = flag.flag_order[: sig.top]
    columns = oracles.from_columns(
        [oracles.column(identity, oracles.index_of(basis, label)) for label in top]
    )
    return is_isotropic(ExactFlag.from_columns(sig, columns), omega)


def test_isotropy_rule_matches_matrix_route():
    cases = [(4,), (2, 1, 1)] + [
        p.parts for p in partitions_of(6) if admits_symplectic_form(p)
    ]
    checked, dropped = [], 0
    for parts in cases:
        p = Partition(parts)
        basis = so2_weight_basis(p)
        omega = invariant_symplectic_form(p)
        partner = form_partners(basis, omega)
        half = p.total // 2
        for group in CircleGroup:
            if group is CircleGroup.PSO2 and len({w % 2 for w in basis.weights}) > 1:
                continue
            for size in range(1, half + 1):
                for dims in itertools.combinations(range(1, half + 1), size):
                    sig = Signature(dims, p.total)
                    try:
                        plain = fixed_flags(basis, sig, group)
                    except NotImplementedError:
                        continue
                    kept = fixed_flags(basis, sig, group, partner=partner).isolated
                    expected = tuple(
                        flag
                        for flag in plain.isolated
                        if coordinate_flag_is_isotropic(basis, sig, flag, omega)
                    )
                    assert kept == expected, (parts, group, dims)
                    checked.append((parts, group, dims))
                    dropped += len(plain.isolated) - len(kept)
    for group in CircleGroup:
        for dims in [(1,), (2,), (1, 2)]:
            assert ((4,), group, dims) in checked
    for dims in [(1,), (2,)]:
        assert ((2, 1, 1), CircleGroup.SO2, dims) in checked
    assert any(parts in cases[2:] for parts, _, _ in checked)
    assert dropped > 0


def test_fixed_flags_parity_error():
    basis = so2_weight_basis(Partition((2, 1)))
    with pytest.raises(ValueError):
        fixed_flags(basis, Signature((1, 2), 3), CircleGroup.PSO2)


@pytest.mark.parametrize(
    "parts, dims, message",
    [
        ((1, 1, 1), (1,), "beyond isolated flags and line pencils"),
        ((2, 2), (2,), "more than one pencil factor"),
        ((3, 1), (1, 2), "coincident fixed-surface families"),
    ],
    ids=["big-eigenspace", "two-pencils", "coincident"],
)
def test_fixed_flags_big_locus_out_of_scope(parts, dims, message):
    basis = so2_weight_basis(Partition(parts))
    with pytest.raises(NotImplementedError, match=message):
        fixed_flags(basis, Signature(dims, len(basis)), CircleGroup.SO2)


def test_fixed_flags_match_the_permutation_oracle():
    answered = 0
    for n in range(2, 7):
        for p in partitions_of(n):
            basis = so2_weight_basis(p)
            partner = None
            if n % 2 == 0 and admits_symplectic_form(p):
                partner = form_partners(basis, invariant_symplectic_form(p))
            for size in range(1, n):
                for dims in itertools.combinations(range(1, n), size):
                    sig = Signature(dims, n)
                    try:
                        locus = fixed_flags(basis, sig, CircleGroup.SO2)
                    except NotImplementedError:
                        continue
                    isolated, pencils = oracles.fixed_flags_oracle(basis, dims)
                    assert len(locus.isolated) == len(isolated), (p.parts, dims)
                    assert {(f.levels, f.completion) for f in locus.isolated} == isolated
                    assert {(frozenset(s.anchored), s.pencil) for s in locus.surfaces} == pencils
                    if partner is not None:
                        kept = fixed_flags(basis, sig, CircleGroup.SO2, partner).isolated
                        isolated, _ = oracles.fixed_flags_oracle(basis, dims, partner)
                        assert {(f.levels, f.completion) for f in kept} == isolated
                    answered += 1
    assert answered == 122


def test_fixed_flags_ambient_mismatch():
    basis = so2_weight_basis(Partition((3,)))
    with pytest.raises(ValueError):
        fixed_flags(basis, Signature((1,), 4), CircleGroup.SO2)


# ---------------------------------------------------------------------------
# signs and spheres


def test_sign_of_fixed_point():
    assert sign_of_fixed_point([-2, -1, 1]) == 1
    assert sign_of_fixed_point([-1, -2, -3]) == -1
    assert sign_of_fixed_point([1, 1]) == 1
    with pytest.raises(ValueError):
        sign_of_fixed_point([1, 0, 2])


def test_exceptional_sphere_targets_full_flag():
    basis = so2_weight_basis(Partition((3,)))
    order = oracles.permuted(basis, ["f2", "f-2", "f0"])
    directions = chart_directions(order, Signature((1, 2), 3), CircleGroup.PSO2)
    assert spheres_of(directions) == [(("f-2", "f2", "f0"), 2)]


def test_exceptional_sphere_targets_projective():
    basis = so2_weight_basis(Partition((4,)))
    order = oracles.permuted(basis, ["f-3", "f3", "f1", "f-1"])
    directions = chart_directions(order, Signature((1,), 4), CircleGroup.PSO2)
    assert {(far[0], w) for far, w in spheres_of(directions)} == {("f3", 3), ("f1", 2)}


def test_weight_one_directions_are_principal():
    basis = so2_weight_basis(Partition((2, 1)))
    order = oracles.permuted(basis, ["f1", "f0", "f-1"])
    directions = chart_directions(order, Signature((1, 2), 3), CircleGroup.SO2)
    # Of the directions (2, 1), (3, 1), (3, 2), only (3, 1) has weight 2.
    assert weights_of(directions) == [-1, -2, -1]
    # analyze_action closes only that one to a sphere, to the flag f-1|f0.
    edges = analyze_action(Partition((2, 1)), "full", CircleGroup.SO2).ambient_graph.edges
    assert [edge for edge in edges if "f1|f0" in edge[:2]] == [("f-1|f0", "f1|f0", 2)]
    assert all(weight >= 2 for _, _, weight in edges)


# ---------------------------------------------------------------------------
# Lagrangian charts


LAGRANGIAN = Signature((2,), 4)


def lag_chart_at(p: Partition, order: list[str], group: CircleGroup):
    basis = so2_weight_basis(p)
    partner = form_partners(basis, invariant_symplectic_form(p))
    return chart_directions(oracles.permuted(basis, order), LAGRANGIAN, group, partner)


def test_tangent_weights_lagrangian_examples():
    directions = lag_chart_at(Partition((4,)), ["f3", "f1", "f-1", "f-3"], CircleGroup.PSO2)
    assert sorted(weights_of(directions), reverse=True) == [-1, -2, -3]
    directions = lag_chart_at(Partition((4,)), ["f-1", "f-3", "f3", "f1"], CircleGroup.PSO2)
    assert sorted(weights_of(directions), reverse=True) == [3, 2, 1]


def test_tangent_weights_lagrangian_trivial_weights():
    directions = lag_chart_at(Partition((1, 1, 1, 1)), ["X1", "X2", "Y1", "Y2"], CircleGroup.SO2)
    assert weights_of(directions) == [0, 0, 0]


def test_tangent_weights_lagrangian_rejects_non_lagrangian():
    with pytest.raises(ValueError, match="not Lagrangian"):
        lag_chart_at(Partition((4,)), ["f3", "f-3", "f1", "f-1"], CircleGroup.PSO2)


def test_lagrangian_sphere_targets():
    directions = lag_chart_at(Partition((4,)), ["f3", "f1", "f-1", "f-3"], CircleGroup.PSO2)
    moved = dict(spheres_of(directions))
    # The weight -2 direction {f3, f1} moves both spanning vectors: both swap.
    assert moved == {
        ("f-1", "f-3", "f3", "f1"): 2,
        ("f-3", "f1", "f-1", "f3"): 3,
    }


def weight_basis_lagrangians(totals):
    """(basis, form, order, group) for each Lagrangian spanned by weight vectors.

    One label of each partner pair spans it, in basis order, and the rest
    complete it in basis order, as at a fixed point of ``analyze_action``.
    """
    for total in totals:
        for p in partitions_of(total):
            if not admits_symplectic_form(p):
                continue
            basis = so2_weight_basis(p)
            omega = invariant_symplectic_form(p)
            partner = form_partners(basis, omega)
            position = partial(oracles.index_of, basis)
            pairs = {tuple(sorted((a, b), key=position)) for a, b in partner.items()}
            for group in CircleGroup:
                if group is CircleGroup.PSO2 and len({w % 2 for w in basis.weights}) > 1:
                    continue
                for span in itertools.product(*sorted(pairs)):
                    top = sorted(span, key=position)
                    order = top + [label for label in basis.labels if label not in span]
                    yield basis, omega, order, group


def test_lagrangian_charts_match_the_isotropy_oracle():
    checked = refused = 0
    for basis, omega, order, group in weight_basis_lagrangians((2, 4, 6, 8)):
        weights, spheres = oracles.lagrangian_chart_oracle(basis, omega, order, group)
        n = len(order) // 2
        w = [oracles.weight_of(basis, label) for label in order[:n]]
        sym2 = sorted(
            (-group.scaled(w[i] + w[j]) for i in range(n) for j in range(i, n)),
            reverse=True,
        )
        assert list(weights) == sym2
        partner = form_partners(basis, omega)
        sig = Signature((n,), 2 * n)
        if None in spheres.values():
            with pytest.raises(NotImplementedError, match="multiplicity"):
                chart_directions(oracles.permuted(basis, order), sig, group, partner)
            refused += 1
            continue
        directions = chart_directions(oracles.permuted(basis, order), sig, group, partner)
        assert sorted(weights_of(directions), reverse=True) == list(weights)
        assert {w: far for w, far in directions if abs(w) >= 2} == spheres
        checked += 1
    assert checked + refused == 476
    assert checked and refused


def test_scaled_forms_give_the_same_chart_data():
    def chart_data(order, group, partner):
        n = len(order) // 2
        try:
            return chart_directions(order, Signature((n,), 2 * n), group, partner)
        except NotImplementedError as refusal:
            return str(refusal)

    for basis, omega, order, group in weight_basis_lagrangians((2, 4, 6)):
        expected = chart_data(oracles.permuted(basis, order), group, form_partners(basis, omega))
        wanted = oracles.lagrangian_chart_oracle(basis, omega, order, group)
        size = len(basis)
        for scale in (Fraction(1, 3), Fraction(-1, 2)):
            scaled = SymplecticForm(ExactMatrix([
                [omega.gram.entry(i, j).real * scale for j in range(size)]
                for i in range(size)
            ]))
            scaled_partner = form_partners(basis, scaled)
            assert chart_data(oracles.permuted(basis, order), group, scaled_partner) == expected
            assert oracles.lagrangian_chart_oracle(basis, scaled, order, group) == wanted


def test_form_partners_refuse_forms_the_closed_form_does_not_cover():
    standard = SymplecticForm.standard(2)
    with pytest.raises(ArithmeticError, match="the form does not respect the weights"):
        form_partners(WeightedBasis(("a", "b", "c", "d"), (3, 1, -3, -1)), standard)
    assert form_partners(WeightedBasis(("a", "b", "c", "d"), (3, 1, -1, -3)), standard) == {
        "a": "d", "b": "c", "c": "b", "d": "a",
    }
    crossed = SymplecticForm(ExactMatrix([[0, 0, 1, 1], [0, 0, 0, 1], [-1, 0, 0, 0], [-1, -1, 0, 0]]))
    with pytest.raises(NotImplementedError, match="more than one"):
        form_partners(WeightedBasis(("a", "b", "c", "d"), (0, 0, 0, 0)), crossed)
    with pytest.raises(ValueError, match="sizes differ"):
        form_partners(so2_weight_basis(Partition((2,))), standard)


# ---------------------------------------------------------------------------
# weight graphs as data


def test_weight_graph_normalization_and_json():
    g = WeightGraph(
        rounds=(("b", -1), ("a", 1)),
        squares=(("s", 3),),
        edges=(("b", "a", 2),),
    )
    assert g.rounds == (("a", 1), ("b", -1))
    assert g.edges == (("a", "b", 2),)
    again = WeightGraph.from_json(g.to_json())
    assert again == g
    dot = g.to_dot()
    assert '"a" [shape=circle, label="+"];' in dot
    assert '"s" [shape=box, label="3"];' in dot
    assert '"a" -- "b" [label="2"];' in dot


ID_PIECES = ["f1", "|", ",", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", "\u2028", "𝄞"]


def json_sample_graphs(rng: random.Random, count: int) -> list[WeightGraph]:
    """Empty and squares-only graphs, then graphs of up to 6 round vertices and 2
    squares, with ids of awkward characters and Euler numbers of up to 400 digits."""
    out = [WeightGraph(), WeightGraph(squares=(("s", 0),))]
    while len(out) < count:
        sizes = rng.randrange(7), rng.randrange(3)
        ids: set[str] = set()
        while len(ids) < sum(sizes):
            ids.add("".join(rng.choice(ID_PIECES) for _ in range(rng.randint(1, 4))))
        order = rng.sample(sorted(ids), len(ids))
        rounds = tuple((i, rng.choice((1, -1))) for i in order[: sizes[0]])
        squares = tuple(
            (i, rng.choice((-1, 1)) * rng.choice((rng.randrange(6), 10 ** rng.randint(19, 400))))
            for i in order[sizes[0] :]
        )
        degree = dict.fromkeys((i for i, _ in rounds), 0)
        edges = []
        for _ in range(rng.randrange(2 * sizes[0] + 1) if sizes[0] > 1 else 0):
            a, b = rng.sample(sorted(degree), 2)
            if degree[a] < 2 and degree[b] < 2:
                degree[a] += 1
                degree[b] += 1
                edges.append((a, b, rng.choice((rng.randint(2, 9), 10**30 + rng.randrange(9)))))
        out.append(WeightGraph(rounds, squares, tuple(edges)))
    return out


def test_to_json_matches_the_json_module_oracle():
    graphs = json_sample_graphs(random.Random(34), 200)
    assert any(g.edges and not g.squares for g in graphs)
    assert any(g.squares and not g.rounds for g in graphs)
    assert any(any(abs(e) > 10**300 for _, e in g.squares) for g in graphs)
    for g in graphs:
        text = g.to_json()
        assert text == oracles.weight_graph_json(g), g
        assert WeightGraph.from_json(text) == g and text.isascii()


def test_weight_graph_validation():
    with pytest.raises(ValueError):
        WeightGraph(rounds=(("a", 2),))
    with pytest.raises(ValueError):
        WeightGraph(rounds=(("a", 1), ("a", -1)))
    with pytest.raises(ValueError):
        WeightGraph(rounds=(("a", 1), ("b", -1)), edges=(("a", "b", 1),))
    with pytest.raises(ValueError):
        WeightGraph(rounds=(("a", 1),), edges=(("a", "a", 2),))
    with pytest.raises(ValueError):
        WeightGraph(rounds=(("a", 1),), squares=(("s", 2),), edges=(("a", "s", 2),))
    with pytest.raises(ValueError):
        WeightGraph(
            rounds=(("a", 1), ("b", -1), ("c", 1), ("d", -1)),
            edges=(("a", "b", 2), ("a", "c", 2), ("a", "d", 2)),
        )


def test_weight_graph_incident_weights():
    g = WeightGraph(
        rounds=(("a", 1), ("b", -1), ("c", 1)),
        edges=(("a", "b", 3), ("b", "c", 2)),
    )
    assert g.incident_weights("b") == (2, 3)
    assert g.incident_weights("a") == (3,)
    assert g.sign_of("c") == 1
    with pytest.raises(KeyError):
        g.sign_of("missing")


# ---------------------------------------------------------------------------
# fiber transfer


def test_fiber_tangent_weights():
    assert fiber_tangent_weights((2, 1, -1), CircleGroup.SO2) == (1, -1)
    # Removing the negative normal weight flips one remaining sign.
    assert fiber_tangent_weights((1, -1, -2), CircleGroup.SO2) == (1, 1)
    assert fiber_tangent_weights((-1, -2, -3), CircleGroup.PSO2) == (2, -3)
    with pytest.raises(ValueError):
        fiber_tangent_weights((1, -1, 3), CircleGroup.SO2)


def test_fiber_tangent_weights_preserve_sign():
    rng = random.Random(7)
    for _ in range(200):
        group = rng.choice([CircleGroup.SO2, CircleGroup.PSO2])
        h = group.hyperbolic_weight
        weights = [rng.choice([w for w in range(-4, 5) if w]) for _ in range(2)]
        weights.append(rng.choice([h, -h]))
        rng.shuffle(weights)
        fiber = fiber_tangent_weights(tuple(weights), group)
        assert sign_of_fixed_point(fiber) == sign_of_fixed_point(weights)
        assert len(fiber) == 2


def test_ambient_to_fiber_pso2_identity():
    a = analysis((3,), "full", CircleGroup.PSO2)
    assert a.fiber_graph == ambient_to_fiber_graph(
        a.ambient_graph, CircleGroup.PSO2, a.ambient_tangents
    )
    assert a.fiber_graph.edges == a.ambient_graph.edges


def test_ambient_to_fiber_so2_deletes_weight_two():
    a = analysis((2, 1), "full", CircleGroup.SO2)
    assert len(a.ambient_graph.edges) == 3
    assert a.fiber_graph.edges == ()
    assert a.fiber_graph.rounds == a.ambient_graph.rounds


def test_ambient_to_fiber_so2_keeps_higher_weights():
    ambient = WeightGraph(
        rounds=(("x", -1), ("y", 1)),
        edges=(("x", "y", 3),),
    )
    data = {"x": (2, 3, -1), "y": (2, -3, -1)}
    fiber = ambient_to_fiber_graph(ambient, CircleGroup.SO2, data)
    assert fiber.edges == (("x", "y", 3),)


def test_ambient_to_fiber_requires_tangent_data():
    ambient = WeightGraph(rounds=(("x", 1),))
    with pytest.raises(ValueError):
        ambient_to_fiber_graph(ambient, CircleGroup.SO2, {})
    with pytest.raises(ValueError):
        ambient_to_fiber_graph(ambient, CircleGroup.SO2, {"x": (1, 1, -1)})


# ---------------------------------------------------------------------------
# Euler numbers of fixed surfaces


def test_fixed_surface_euler():
    assert fixed_surface_euler(4, 2, 1) == 2
    assert fixed_surface_euler(3, 2, 1) == 1
    assert fixed_surface_euler(2, 2, 1) == 0


def test_complete_intersection_c1_coeff():
    assert complete_intersection_c1_coeff(3) == 4
    assert complete_intersection_c1_coeff(4, (2,)) == 3
    assert complete_intersection_c1_coeff(5, (2, 3)) == 1


# ---------------------------------------------------------------------------
# the Hirzebruch catalogue


def hirzebruch_tangent_oracle(q: int, a: int, b: int) -> dict[str, dict[str, int]]:
    """Tangent weights of the (a, b)-action on the q-surface.

    ``oracle[u][v]`` is the weight at the fixed point ``u`` along the
    invariant sphere toward the neighboring fixed point ``v``.
    """
    return {
        "p1": {"p2": a, "p3": b},
        "p2": {"p1": -a, "p4": b},
        "p3": {"p4": a + q * b, "p1": -b},
        "p4": {"p3": -(a + q * b), "p2": -b},
    }


def valid_hirzebruch_params(limit=3):
    for q in range(0, 2 * limit):
        for a in range(-limit, limit + 1):
            for b in range(-limit, limit + 1):
                if a and b and math.gcd(abs(a), abs(b)) == 1 and a + q * b != 0:
                    yield q, a, b


def test_hirzebruch_chain_example():
    g = hirzebruch_graph(2, -1, 2)
    assert g.rounds == (("p1", -1), ("p2", 1), ("p3", -1), ("p4", 1))
    assert g.edges == (("p1", "p3", 2), ("p2", "p4", 2), ("p3", "p4", 3))


def test_hirzebruch_square_regime():
    g = hirzebruch_graph(1, 1, 0)
    assert g.rounds == ()
    assert sorted(e for _, e in g.squares) == [-1, 1]
    g = hirzebruch_graph(2, 1, 0)
    assert sorted(e for _, e in g.squares) == [-2, 2]


def test_hirzebruch_disjoint_edges_example():
    g = hirzebruch_graph(0, 1, 2)
    assert g.edges == (("p1", "p3", 2), ("p2", "p4", 2))
    for a, b, _ in g.edges:
        assert g.sign_of(a) + g.sign_of(b) == 0


def test_hirzebruch_parameter_validation():
    with pytest.raises(ValueError):
        hirzebruch_graph(-1, 1, 2)
    with pytest.raises(ValueError):
        hirzebruch_graph(1, 0, 2)
    with pytest.raises(ValueError):
        hirzebruch_graph(1, 2, 0)
    with pytest.raises(ValueError):
        hirzebruch_graph(1, 2, 2)
    with pytest.raises(ValueError):
        hirzebruch_graph(2, -2, 1)


def test_hirzebruch_signs_balance():
    for q, a, b in valid_hirzebruch_params():
        g = hirzebruch_graph(q, a, b)
        assert sum(s for _, s in g.rounds) == 0


def test_hirzebruch_graph_against_tangent_oracle():
    for q, a, b in valid_hirzebruch_params():
        g = hirzebruch_graph(q, a, b)
        oracle = hirzebruch_tangent_oracle(q, a, b)
        for vertex, toward in oracle.items():
            assert g.sign_of(vertex) == sign_of_fixed_point(list(toward.values()))
            for other, w in toward.items():
                assert oracle[other][vertex] == -w
        expected_edges = sorted(
            (*sorted((u, v)), abs(w))
            for u, toward in oracle.items()
            for v, w in toward.items()
            if u < v and abs(w) >= 2
        )
        assert list(g.edges) == expected_edges


def dihedral_least(signs: tuple, weights: tuple) -> tuple:
    """The least of a ring's rotations and reflections, weight k joining point k to k+1."""
    n = len(signs)
    images = []
    for s, w in ((signs, weights), (signs[:1] + signs[:0:-1], weights[::-1])):
        images += [(s[k:] + s[:k], w[k:] + w[:k]) for k in range(n)]
    return min(images)


def test_reading_round_trips_the_box():
    # Every valid triple with q <= 12 and |a|, |b| <= 8: all of largest weight <= 6 and more.
    box = [
        (q, a, b)
        for q in range(13)
        for a, b in itertools.product(range(-8, 9), repeat=2)
        if a and b and math.gcd(abs(a), abs(b)) == 1 and a + q * b != 0
    ]
    assert len(box) == 2220
    by_ring, by_key = {}, {}
    for p in box:
        by_ring.setdefault(dihedral_least(*_hirzebruch_ring(*p)), []).append(p)
        by_key.setdefault(hirzebruch_graph(*p).canonical_key(), []).append(p)
    for p in box:
        ring, key = _hirzebruch_ring(*p), hirzebruch_graph(*p).canonical_key()
        got = _reading(*ring)
        assert hirzebruch_graph(*got).canonical_key() == key, p
        assert got == min(by_ring[dihedral_least(*ring)], key=_catalogue_order), p
        # A graph closes into every ring of its key, and the least reading names it.
        least = min(by_key[key], key=_catalogue_order)
        assert classify_fiber(hirzebruch_graph(*p)).model == _canonical_name(*least), p
    assert _reading((1, 1, -1, -1), (2, 3, 5, 3)) is None


def test_rings_match_the_cyclic_order_oracle():
    rng = random.Random(20)
    graphs = [
        # a double edge, alone and beside a point; a triangle, alone and beside points
        WeightGraph((("a", 1), ("b", -1)), (), (("a", "b", 2), ("a", "b", 3))),
        WeightGraph((("a", 1), ("b", -1), ("c", 1)), (), (("a", "b", 2), ("a", "b", 3))),
        WeightGraph((("a", 1), ("b", -1), ("c", 1)), (), (("a", "b", 2), ("b", "c", 3), ("a", "c", 4))),
        WeightGraph(
            (("a", 1), ("b", -1), ("c", 1), ("d", -1)), (), (("a", "b", 2), ("b", "c", 3), ("a", "c", 4))
        ),
    ]
    for _ in range(300):
        n = rng.randint(3, 6)
        ids = [f"r{k}" for k in range(n)]
        rounds = tuple((i, rng.choice((1, -1))) for i in ids)
        if rng.random() < 0.2:
            # a full cycle
            order = rng.sample(ids, n)
            edges = [(order[k], order[k - 1], rng.randint(2, 4)) for k in range(n)]
        else:
            degree = dict.fromkeys(ids, 0)
            edges = []
            for _ in range(rng.randrange(n + 2)):
                a, b = rng.sample(ids, 2)
                if degree[a] < 2 and degree[b] < 2:
                    degree[a] += 1
                    degree[b] += 1
                    edges.append((a, b, rng.randint(2, 4)))
        graphs.append(WeightGraph(rounds, (), tuple(edges)))
    kinds = set()
    for g in graphs:
        got = {dihedral_least(*ring) for ring in _rings(g)}
        expected = {dihedral_least(*ring) for ring in oracles.rings_oracle(g)}
        assert got == expected, g
        kinds.add((len(got) > 0, len(g.edges) == len(g.rounds)))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    # The paper's (2, 1) full SO2 fiber is six lone points, three of each
    # sign: after the lead, 5!/(2! 3!) = 10 orders, each built once.
    edgeless = fiber_weight_graph(Partition((2, 1)), "full", CircleGroup.SO2)
    assert len(_rings(edgeless)) == len(set(_rings(edgeless))) == 10


# ---------------------------------------------------------------------------
# connected sums


def test_connected_sum_spec_example():
    g = hirzebruch_graph(0, 1, 2)
    plus = next(i for i, s in g.rounds if s == 1)
    minus = next(i for i, s in g.rounds if s == -1)
    total = connected_sum(g, plus, g, minus)
    assert len(total.rounds) == 6
    assert len(total.edges) == 3
    assert all(w == 2 for _, _, w in total.edges)
    for u, v, _ in total.edges:
        assert total.sign_of(u) + total.sign_of(v) == 0
    case1 = fiber_weight_graph(Partition((3,)), "full", CircleGroup.PSO2)
    assert graphs_isomorphic(total, case1)


def test_connected_sum_edgeless_example():
    g = hirzebruch_graph(0, 1, 1)
    assert g.edges == ()
    plus = next(i for i, s in g.rounds if s == 1)
    minus = next(i for i, s in g.rounds if s == -1)
    total = connected_sum(g, plus, g, minus)
    assert len(total.rounds) == 6
    assert total.edges == ()
    case2 = fiber_weight_graph(Partition((2, 1)), "full", CircleGroup.SO2)
    assert graphs_isomorphic(total, case2)


def test_connected_sum_degenerate_single_vertices():
    g1 = WeightGraph(rounds=(("only", 1),))
    g2 = WeightGraph(rounds=(("only", -1),))
    with pytest.warns(UserWarning):
        total = connected_sum(g1, "only", g2, "only")
    assert total.rounds == ()
    assert total.edges == ()


def test_connected_sum_validation():
    g = hirzebruch_graph(0, 1, 2)
    plus = next(i for i, s in g.rounds if s == 1)
    minus = next(i for i, s in g.rounds if s == -1)
    with pytest.raises(ValueError):
        connected_sum(g, plus, g, plus)
    chain = hirzebruch_graph(2, -1, 2)
    # p4 has incident weights (2, 3); the disjoint-edge graph has only (2,).
    assert chain.sign_of("p4") == 1
    with pytest.raises(ValueError):
        connected_sum(chain, "p4", g, minus)


def test_connected_sum_commutes_up_to_isomorphism():
    g1 = hirzebruch_graph(0, 1, 2)
    g2 = hirzebruch_graph(1, 1, 2)
    v1 = next(i for i, s in g1.rounds if s == 1 and g1.incident_weights(i) == (2,))
    v2 = next(i for i, s in g2.rounds if s == -1 and g2.incident_weights(i) == (2,))
    left = connected_sum(g1, v1, g2, v2)
    right = connected_sum(g2, v2, g1, v1)
    assert graphs_isomorphic(left, right)


# ---------------------------------------------------------------------------
# graph isomorphism


def relabeled(g: WeightGraph, rng: random.Random) -> WeightGraph:
    names = [i for i, _ in g.rounds] + [i for i, _ in g.squares]
    fresh = [f"v{k}" for k in range(len(names))]
    rng.shuffle(fresh)
    table = dict(zip(names, fresh))
    return WeightGraph(
        rounds=tuple((table[i], s) for i, s in g.rounds),
        squares=tuple((table[i], e) for i, e in g.squares),
        edges=tuple((table[a], table[b], w) for a, b, w in g.edges),
    )


def test_graphs_isomorphic_reflexive_and_relabeled():
    rng = random.Random(3)
    samples = [
        hirzebruch_graph(2, -1, 2),
        hirzebruch_graph(0, 1, 2),
        hirzebruch_graph(1, 1, 0),
        fiber_weight_graph(Partition((3,)), "full", CircleGroup.PSO2),
    ]
    for g in samples:
        assert graphs_isomorphic(g, g)
        for _ in range(5):
            assert graphs_isomorphic(g, relabeled(g, rng))


def test_graphs_isomorphic_distinguishes():
    case3 = fiber_weight_graph(Partition((4,)), "proj", CircleGroup.PSO2)
    assert graphs_isomorphic(case3, hirzebruch_graph(2, -1, 2))
    assert not graphs_isomorphic(case3, hirzebruch_graph(1, -1, 3))
    # Same weights and sign counts, different sign placement along the chain.
    assert not graphs_isomorphic(case3, hirzebruch_graph(1, 1, 2))
    # Euler labels matter.
    assert not graphs_isomorphic(hirzebruch_graph(1, 1, 0), hirzebruch_graph(2, 1, 0))


def test_graphs_isomorphic_symmetric_transitive():
    rng = random.Random(11)
    g = fiber_weight_graph(Partition((4,)), "lag", CircleGroup.PSO2)
    h = relabeled(g, rng)
    k = relabeled(h, rng)
    assert graphs_isomorphic(g, h) == graphs_isomorphic(h, g)
    assert graphs_isomorphic(g, h) and graphs_isomorphic(h, k)
    assert graphs_isomorphic(g, k)


@given(st.integers(0, 4), st.integers(-3, 3), st.integers(-3, 3), st.randoms())
def test_graphs_isomorphic_relabeling_property(q, a, b, rng):
    if not (a and b) or math.gcd(abs(a), abs(b)) != 1 or a + q * b == 0:
        return
    g = hirzebruch_graph(q, a, b)
    assert graphs_isomorphic(g, relabeled(g, rng))


@st.composite
def degree_two_graphs(draw) -> WeightGraph:
    """Up to 7 round vertices, weights 2-3, at most two edges at a vertex.

    Edges are drawn between random ends and kept while both ends have room,
    so paths, cycles, double edges (2-cycles) and isolated vertices occur,
    next to up to two squares.
    """
    signs = draw(st.lists(st.sampled_from((1, -1)), max_size=7))
    ids = [f"r{k}" for k in range(len(signs))]
    edges, degree = [], dict.fromkeys(ids, 0)
    if len(ids) >= 2:
        ends = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        for (a, b), w in draw(st.lists(st.tuples(ends, st.sampled_from((2, 3))), max_size=9)):
            if degree[a] < 2 and degree[b] < 2:
                degree[a] += 1
                degree[b] += 1
                edges.append((a, b, w))
    eulers = draw(st.lists(st.integers(-2, 2), max_size=2))
    squares = tuple((f"s{k}", e) for k, e in enumerate(eulers))
    return WeightGraph(tuple(zip(ids, signs)), squares, tuple(edges))


def perturbed(rng: random.Random, g: WeightGraph) -> WeightGraph:
    """One sign flipped, one weight or Euler number changed, or two swapped.

    Swapping two signs or two weights keeps every count, so only the shape
    tells the graphs apart, and the swap may give an isomorphic graph.
    """
    rounds, squares, edges = list(g.rounds), list(g.squares), list(g.edges)
    moves = [m for m, items in (("sign", rounds), ("euler", squares), ("weight", edges)) if items]
    moves += [m for m, items in (("signs", rounds), ("weights", edges)) if len(items) >= 2]
    move = rng.choice(moves)
    if move == "sign":
        k = rng.randrange(len(rounds))
        rounds[k] = (rounds[k][0], -rounds[k][1])
    elif move == "euler":
        k = rng.randrange(len(squares))
        squares[k] = (squares[k][0], squares[k][1] + 1)
    elif move == "weight":
        k = rng.randrange(len(edges))
        edges[k] = (*edges[k][:2], 5 - edges[k][2])
    elif move == "signs":
        j, k = rng.sample(range(len(rounds)), 2)
        rounds[j], rounds[k] = (rounds[j][0], rounds[k][1]), (rounds[k][0], rounds[j][1])
    else:
        j, k = rng.sample(range(len(edges)), 2)
        edges[j], edges[k] = (*edges[j][:2], edges[k][2]), (*edges[k][:2], edges[j][2])
    return WeightGraph(tuple(rounds), tuple(squares), tuple(edges))


@settings(max_examples=300, deadline=None)
@given(degree_two_graphs(), degree_two_graphs(), st.randoms())
def test_canonical_key_matches_isomorphism_oracle(g, other, rng):
    copy = relabeled(g, rng)
    pairs = [copy, other]
    if g.rounds or g.squares:
        pairs.append(relabeled(perturbed(rng, g), rng))
    for h in pairs:
        assert (g.canonical_key() == h.canonical_key()) == oracles.graphs_isomorphic_oracle(g, h)
    assert graphs_isomorphic(g, copy)
    assert g.canonical_key() == oracles.canonical_key_oracle(g)


@st.composite
def cycle_graphs(draw) -> WeightGraph:
    """One cycle of 2 to 12 vertices, a double edge at 2, often periodic.

    A block of (sign, weight) pairs is repeated around the cycle, so its
    rotations tie; the all-+ block of weight 2 ties at every rotation.
    """
    block = draw(
        st.one_of(
            st.just([(1, 2)]),
            st.lists(st.tuples(st.sampled_from((1, -1)), st.sampled_from((2, 3))), min_size=1, max_size=6),
        )
    )
    repeats = draw(st.integers(1, 12 // len(block)))
    ring = block * repeats
    if len(ring) < 2:
        ring = ring * 2
    ids = [f"c{k}" for k in range(len(ring))]
    rounds = tuple((i, s) for i, (s, _) in zip(ids, ring))
    edges = tuple((ids[k], ids[k - len(ids) + 1], w) for k, (_, w) in enumerate(ring))
    return WeightGraph(rounds, (), edges)


@settings(max_examples=300, deadline=None)
@given(cycle_graphs(), st.randoms())
def test_cycle_keys_match_the_rotation_oracle(g, rng):
    key = g.canonical_key()
    assert key == oracles.canonical_key_oracle(g)
    assert relabeled(g, rng).canonical_key() == key


def test_graphs_isomorphic_scales_to_long_cycles():
    def cycles(*sizes: int) -> WeightGraph:
        rounds, edges = [], []
        for c, size in enumerate(sizes):
            ids = [f"c{c}v{k}" for k in range(size)]
            rounds += [(i, 1) for i in ids]
            edges += [(ids[k - 1], ids[k], 2) for k in range(size)]
        return WeightGraph(tuple(rounds), (), tuple(edges))

    # Equal sign, weight and degree at every vertex: only the cycle lengths differ.
    start = time.perf_counter()
    assert not graphs_isomorphic(cycles(300), cycles(*[3] * 100))
    assert time.perf_counter() - start < 1.0
    big = cycles(3000)
    assert graphs_isomorphic(big, relabeled(big, random.Random(7)))


# ---------------------------------------------------------------------------
# the six case studies, end to end


def expected_case_data():
    # id structure, sign, and edge data verified against the fixed-point
    # bookkeeping by hand for each action.
    return {
        ((3,), "full"): {
            "rounds": {
                "f2|f0": -1, "f2|f-2": 1, "f0|f2": 1,
                "f0|f-2": -1, "f-2|f2": -1, "f-2|f0": 1,
            },
            "ambient_edges": {
                ("f-2|f2", "f2|f-2", 2),
                ("f-2|f0", "f2|f0", 2),
                ("f0|f-2", "f0|f2", 2),
            },
            "fiber_edges": 3,
            "squares": {},
        },
        ((2, 1), "full"): {
            "rounds": {
                "f1|f-1": 1, "f1|f0": -1, "f-1|f1": -1,
                "f-1|f0": 1, "f0|f1": 1, "f0|f-1": -1,
            },
            "ambient_edges": {
                ("f-1|f1", "f1|f-1", 2),
                ("f-1|f0", "f1|f0", 2),
                ("f0|f-1", "f0|f1", 2),
            },
            "fiber_edges": 0,
            "squares": {},
        },
        ((4,), "proj"): {
            "rounds": {"f3": -1, "f1": 1, "f-1": -1, "f-3": 1},
            "ambient_edges": {
                ("f-3", "f3", 3), ("f-1", "f3", 2), ("f-3", "f1", 2),
            },
            "fiber_edges": 3,
            "squares": {},
        },
        ((2, 2), "proj"): {
            "rounds": {},
            "ambient_edges": set(),
            "fiber_edges": 0,
            "squares": {"C(e-1,f-1)": 2, "C(e1,f1)": -2},
        },
        ((4,), "lag"): {
            "rounds": {"f3,f1": -1, "f3,f-1": 1, "f1,f-3": -1, "f-1,f-3": 1},
            "ambient_edges": {
                ("f-1,f-3", "f3,f1", 2),
                ("f1,f-3", "f3,f1", 3),
                ("f-1,f-3", "f3,f-1", 3),
            },
            "fiber_edges": 3,
            "squares": {},
        },
        ((2, 1, 1), "lag"): {
            "rounds": {},
            "ambient_edges": set(),
            "fiber_edges": 0,
            "squares": {"C(f-1;X2,Y2)": 1, "C(f1;X2,Y2)": -1},
        },
    }


@pytest.mark.parametrize("parts,kind,group", SIX_CASES)
def test_case_graphs(parts, kind, group):
    a = analysis(parts, kind, group)
    expected = expected_case_data()[(parts, kind)]
    assert dict(a.ambient_graph.rounds) == expected["rounds"]
    assert set((x, y, w) for x, y, w in a.ambient_graph.edges) == expected["ambient_edges"]
    assert dict(a.ambient_graph.squares) == expected["squares"]
    assert len(a.fiber_graph.edges) == expected["fiber_edges"]
    assert a.fiber_graph.rounds == a.ambient_graph.rounds
    assert a.fiber_graph.squares == a.ambient_graph.squares


@pytest.mark.parametrize("parts,kind,group", SIX_CASES)
def test_case_euler_characteristic_transfer(parts, kind, group):
    a = analysis(parts, kind, group)
    chi = len(a.locus.isolated) + 2 * len(a.locus.surfaces)
    n = Partition(parts).total
    if kind == "full":
        system = weyl.RootSystem(weyl.Family.A, n - 1)
        stabilizer_free = set(range(1, n))
    elif kind == "proj":
        system = weyl.RootSystem(weyl.Family.A, n - 1)
        stabilizer_free = {1}
    else:
        system = weyl.RootSystem(weyl.Family.C, n // 2)
        stabilizer_free = {n // 2}
    cells = system.order() // len(weyl.parabolic_elements(system, frozenset(stabilizer_free)))
    assert chi == cells


@pytest.mark.parametrize("parts,kind,group", SIX_CASES)
def test_case_fiber_signs_match_ambient(parts, kind, group):
    a = analysis(parts, kind, group)
    for vertex, sign in a.fiber_graph.rounds:
        fiber = fiber_tangent_weights(a.ambient_tangents[vertex], group)
        assert len(fiber) == 2
        assert sign_of_fixed_point(fiber) == sign


def test_case_tangent_multisets():
    a = analysis((3,), "full", CircleGroup.PSO2)
    assert sorted(a.ambient_tangents["f2|f-2"]) == [-2, -1, 1]
    a = analysis((4,), "proj", CircleGroup.PSO2)
    assert a.ambient_tangents["f3"] == (-1, -2, -3)
    a = analysis((4,), "lag", CircleGroup.PSO2)
    assert a.ambient_tangents["f3,f1"] == (-1, -2, -3)
    assert a.ambient_tangents["f-1,f-3"] == (3, 2, 1)


def test_analyze_action_eliminates_only_to_build_the_form(monkeypatch):
    # The chart data of every fixed point is in closed form: the only exact
    # elimination is the rank check that builds the invariant form.
    calls = 0
    reduce_into = flags._reduce_into

    def counting(echelon, vector):
        nonlocal calls
        calls += 1
        return reduce_into(echelon, vector)

    monkeypatch.setattr(flags, "_reduce_into", counting)
    for parts, kind, group in SIX_CASES:
        calls = 0
        if kind == "lag":
            invariant_symplectic_form(Partition(parts))
        form_calls, calls = calls, 0
        analysis(parts, kind, group)
        assert calls == form_calls, (parts, kind)


def test_analyze_action_validation():
    with pytest.raises(ValueError):
        analyze_action(Partition((4,)), "full", CircleGroup.PSO2)
    with pytest.raises(ValueError):
        analyze_action(Partition((3,)), "proj", CircleGroup.PSO2)
    with pytest.raises(ValueError):
        analyze_action(Partition((3, 3)), "lag", CircleGroup.PSO2)
    with pytest.raises(ValueError):
        analyze_action(Partition((3,)), "grassmann", CircleGroup.PSO2)
    with pytest.raises(ValueError):
        analyze_action(Partition((3, 1)), "lag", CircleGroup.SO2)


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "parts,kind,group,model,diffeotype",
    [
        ((3,), "full", CircleGroup.PSO2,
         "Hir(0;1,2) # Hir(0;1,2)", "(S^2 x S^2) # (S^2 x S^2)"),
        ((2, 1), "full", CircleGroup.SO2,
         "Hir(0;1,1) # Hir(0;1,1)", "(S^2 x S^2) # (S^2 x S^2)"),
        ((4,), "proj", CircleGroup.PSO2, "Hir(2;-1,2)", "S^2 x S^2"),
        ((2, 2), "proj", CircleGroup.PSO2, "Hir(2;1,0)", "S^2 x S^2"),
        ((4,), "lag", CircleGroup.PSO2, "Hir(1;-1,3)", "CP^2 # -CP^2"),
        ((2, 1, 1), "lag", CircleGroup.SO2, "Hir(1;1,0)", "CP^2 # -CP^2"),
    ],
)
def test_classify_six_cases(parts, kind, group, model, diffeotype):
    record = classify_fiber(fiber_weight_graph(Partition(parts), kind, group))
    assert record.matched
    assert record.model == model
    assert record.diffeotype == diffeotype


def test_classify_catalogue_round_trip():
    for q, a, b in valid_hirzebruch_params(limit=2):
        record = classify_fiber(hirzebruch_graph(q, a, b))
        assert record.matched
        assert record.diffeotype == (
            "S^2 x S^2" if q % 2 == 0 else "CP^2 # -CP^2"
        )


def test_classify_unmatched():
    assert not classify_fiber(WeightGraph(rounds=(("x", 1),))).matched
    assert not classify_fiber(
        WeightGraph(squares=(("s", 2), ("t", 3)))
    ).matched
    record = classify_fiber(WeightGraph(rounds=(("x", 1),)))
    assert record.model is None and record.diffeotype is None


def test_classify_unmatched_reasons():
    cases = {
        WeightGraph(squares=(("s", 2), ("t", 3))): "the fixed surfaces are not a lone +q/-q pair",
        WeightGraph(squares=(("s", 2), ("t", -2)), rounds=(("x", 1),)):
            "the fixed surfaces are not a lone +q/-q pair",
        WeightGraph(rounds=(("x", 1),)): "a match needs 4 or 6 round vertices, the graph has 1",
        WeightGraph(rounds=tuple((f"x{k}", 1 - 2 * (k % 2)) for k in range(5))):
            "a match needs 4 or 6 round vertices, the graph has 5",
        WeightGraph(rounds=(("a", 1), ("b", 1), ("c", 1), ("d", -1))):
            "the signs are unbalanced (3 +, 1 -)",
        WeightGraph(rounds=(("a", 1), ("b", -1), ("c", 1), ("d", -1)), edges=(("a", "c", 5),)):
            "no Hir(q;a,b) or two-term connected sum is isomorphic",
    }
    for graph, reason in cases.items():
        record = classify_fiber(graph)
        assert (record.model, record.diffeotype, record.reason) == (None, None, reason)
    assert classify_fiber(hirzebruch_graph(2, -1, 2)).reason is None


def hirzebruch_params_up_to(largest: int) -> list[tuple[int, int, int]]:
    """Every Hir(q;a,b) with b > 0 whose edge weights are at most ``largest``."""
    return [
        (q, a, b)
        for q in range(2 * largest + 1)
        for a in range(-largest, largest + 1)
        for b in range(1, largest + 1)
        if a and math.gcd(abs(a), b) == 1 and 0 < abs(a + q * b) <= largest
    ]


def sum_sample(rng: random.Random, factors: list, count: int) -> list[WeightGraph]:
    """Seeded connected sums of Hirzebruch graphs with the given parameters."""
    out = []
    while len(out) < count:
        g1, g2 = (hirzebruch_graph(*rng.choice(factors)) for _ in range(2))
        gluings = [
            (v1, v2)
            for v1, s1 in g1.rounds
            for v2, s2 in g2.rounds
            if s1 == -s2 and g1.incident_weights(v1) == g2.incident_weights(v2)
        ]
        if gluings:
            v1, v2 = rng.choice(gluings)
            out.append(connected_sum(g1, v1, g2, v2))
    return out


def flip_one_sign(rng: random.Random, g: WeightGraph) -> WeightGraph:
    k = rng.randrange(len(g.rounds))
    rounds = tuple((i, -s if n == k else s) for n, (i, s) in enumerate(g.rounds))
    return WeightGraph(rounds, g.squares, g.edges)


def bump_one_weight(rng: random.Random, g: WeightGraph) -> WeightGraph:
    k = rng.randrange(len(g.edges))
    edges = tuple((a, b, w + (n == k)) for n, (a, b, w) in enumerate(g.edges))
    return WeightGraph(g.rounds, g.squares, edges)


def test_classify_matches_catalogue_oracle():
    rng = random.Random(20260)
    hirs = [hirzebruch_graph(*p) for p in hirzebruch_params_up_to(4)]
    sums = sum_sample(rng, hirzebruch_params_up_to(3), 6)
    light_sums = sum_sample(rng, hirzebruch_params_up_to(2), 2)
    graphs = hirs + sums + light_sums
    graphs += [flip_one_sign(rng, g) for g in rng.sample(hirs, 4) + light_sums]
    graphs += [bump_one_weight(rng, g) for g in rng.sample(hirs, 4) + light_sums if g.edges]
    for g in graphs:
        record, expected = classify_fiber(g), oracles.classify_fiber_oracle(g)
        assert (record.model, record.diffeotype) == (expected.model, expected.diffeotype), g
        assert (record.reason is None) == record.matched


def test_classify_builds_no_candidate_graphs(monkeypatch):
    rng = random.Random(29)
    built, factors = [], []
    init, build = WeightGraph.__init__, twg.hirzebruch_graph

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def building(*params):
        factors.append(params)
        return build(*params)

    hirs = [relabeled(hirzebruch_graph(*p), rng) for p in [(2, -1, 2), (1, -1, 3), (3, 2, 5)]]
    hirs += [flip_one_sign(rng, g) for g in hirs]
    sums = [fiber_weight_graph(Partition((3,)), "full", CircleGroup.PSO2)]
    sums += sum_sample(rng, hirzebruch_params_up_to(3), 6)
    sums += [flip_one_sign(rng, g) for g in sums]
    graphs = hirs + sums + random_balanced_graphs(rng, 20)
    expected = [classify_fiber(g) for g in graphs]
    assert {record.matched for record in expected} == {True, False}
    monkeypatch.setattr(WeightGraph, "__init__", counting)
    monkeypatch.setattr(twg, "hirzebruch_graph", building)
    for g, record in zip(graphs, expected):
        assert classify_fiber(g) == record
        assert (built, factors) == ([], []), g


def random_balanced_graphs(rng: random.Random, count: int) -> list[WeightGraph]:
    """Graphs of 4 or 6 round vertices, half of each sign, weights 2-5."""
    out = []
    for _ in range(count):
        n = rng.choice((4, 6))
        signs = [1] * (n // 2) + [-1] * (n // 2)
        rng.shuffle(signs)
        ids = [f"r{k}" for k in range(n)]
        degree = dict.fromkeys(ids, 0)
        edges = []
        for _ in range(rng.randrange(n + 2)):
            a, b = rng.sample(ids, 2)
            if degree[a] < 2 and degree[b] < 2:
                degree[a] += 1
                degree[b] += 1
                edges.append((a, b, rng.randint(2, 5)))
        out.append(WeightGraph(tuple(zip(ids, signs)), (), tuple(edges)))
    return out


def pinned_graphs() -> list[WeightGraph]:
    """889 relabelled graphs: every Hir of largest weight <= 5, either sign of
    b, and Hir(q;1,0) for q <= 10 (251); 238 seeded sums; 400 random graphs."""
    rng = random.Random(13)
    hirs = [
        (q, a, b)
        for q in range(11)
        for a in range(-5, 6)
        for b in (s * m for m in range(1, 6) for s in (1, -1))
        if a and math.gcd(abs(a), abs(b)) == 1 and 0 < abs(a + q * b) <= 5
    ]
    out = [relabeled(hirzebruch_graph(*p), rng) for p in hirs]
    out += [relabeled(hirzebruch_graph(q, 1, 0), rng) for q in range(11)]
    out += [relabeled(g, rng) for g in sum_sample(rng, hirzebruch_params_up_to(3), 200)]
    out += [relabeled(g, rng) for g in sum_sample(rng, hirzebruch_params_up_to(4), 38)]
    return out + random_balanced_graphs(rng, 400)


def test_classify_output_is_pinned():
    # Recorded from the route that built and keyed a graph for every candidate.
    lines = (Path(__file__).parent / "classify_pins.jsonl").read_text().splitlines()
    graphs = pinned_graphs()
    assert len(graphs) == len(lines) == 889
    for g, line in zip(graphs, lines):
        record = classify_fiber(g)
        assert [record.model, record.diffeotype, record.reason] == json.loads(line), g


def test_classify_large_weights():
    start = time.perf_counter()
    record = classify_fiber(hirzebruch_graph(1, 99999, 100000))
    assert (record.model, record.diffeotype) == ("Hir(1;99999,100000)", "CP^2 # -CP^2")
    # Hir(1;99999,100000) glued to itself cuts into a lesser pair of factors too.
    h = hirzebruch_graph(1, 99999, 100000)
    total = connected_sum(h, "p1", h, "p2")
    record = classify_fiber(relabeled(total, random.Random(5)))
    assert record.model == "Hir(0;100000,199999) # Hir(1;99999,100000)"
    assert record.diffeotype == "(S^2 x S^2) # (CP^2 # -CP^2)"
    assert graphs_isomorphic(connected_sum(hirzebruch_graph(0, 100000, 199999), "p1", h, "p3"), total)
    pair = WeightGraph(rounds=(("x", 1), ("y", -1)), edges=(("x", "y", 100000),))
    record = classify_fiber(pair)
    assert not record.matched
    assert record.reason == "a match needs 4 or 6 round vertices, the graph has 2"
    assert time.perf_counter() - start < 1.0


def test_classification_record():
    record = Classification("Hir(2;1,0)", "S^2 x S^2")
    assert record.matched


# ---------------------------------------------------------------------------
# the almost-complex obstruction


def test_check_almost_complex_obstruction():
    assert not check_almost_complex_obstruction(0, 6)
    assert check_almost_complex_obstruction(0, 4)
    assert check_almost_complex_obstruction(1, 5)
