"""Acceptance gate: twelve end-to-end checks with explicit budgets.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion (add ``-s`` to also see the measured numbers).
"""

import math
import random
import time

from flagfibers.dims import enumerate_3dim_flag_varieties, fullcases_table
from flagfibers.flags import (
    SymplecticForm,
    relative_position_full,
    relative_position_symplectic,
)
from flagfibers.ideals import enumerate_balanced_ideals, minimal_anosov_type
from flagfibers.sl2reps import (
    Partition,
    admits_symplectic_form,
    anosov_type,
    cartan_projection,
    partitions_of,
)
from flagfibers.twg import (
    CircleGroup,
    WeightGraph,
    analyze_action,
    classify_fiber,
    graphs_isomorphic,
)
from flagfibers.weyl import Family, RootSystem, double_cosets, sign_vector

import oracles
from oracles import intersection_dim
from test_flags import gq_columns, random_full_flag, random_isotropic_flag

A2 = RootSystem(Family.A, 2)
A3 = RootSystem(Family.A, 3)
C2 = RootSystem(Family.C, 2)

SIX_CASES = [
    ((3,), "full", CircleGroup.PSO2),
    ((2, 1), "full", CircleGroup.SO2),
    ((4,), "proj", CircleGroup.PSO2),
    ((2, 2), "proj", CircleGroup.PSO2),
    ((4,), "lag", CircleGroup.PSO2),
    ((2, 1, 1), "lag", CircleGroup.SO2),
]


def full_poset(system, eta):
    return double_cosets(system, frozenset(system.simple_indices), frozenset(eta))


def oracle_balanced_members(poset):
    leq = [[poset.leq(i, j) for j in range(len(poset))] for i in range(len(poset))]
    return set(oracles.balanced_ideals_oracle(leq, list(poset.w0_action)))


def test_criterion_01_s3_hasse_diagram():
    start = time.perf_counter()
    poset = full_poset(A2, {1, 2})
    labels = [dc.label() for dc in poset.cosets]
    covers = {(labels[i], labels[j]) for i, j in poset.covers()}
    elapsed = time.perf_counter() - start
    assert len(poset) == 6
    assert covers == {
        ("123", "213"), ("123", "132"),
        ("213", "231"), ("213", "312"),
        ("132", "231"), ("132", "312"),
        ("231", "321"), ("312", "321"),
    }
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 6 elements, 8 covers in {elapsed:.3f}s")


def test_criterion_02_balanced_ideal_uniqueness():
    timings = []

    start = time.perf_counter()
    poset = full_poset(A2, {1, 2})
    [ideal] = enumerate_balanced_ideals(poset)
    assert ideal.labels() == {"123", "213", "132"}
    assert {ideal.members} == oracle_balanced_members(poset)
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    poset = full_poset(A3, {1})
    [ideal] = enumerate_balanced_ideals(poset)
    assert ideal.members == frozenset({0, 1})  # chain positions 1 and 2
    assert {ideal.members} == oracle_balanced_members(poset)
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    poset = full_poset(C2, {2})
    [ideal] = enumerate_balanced_ideals(poset)
    signs = {sign_vector(poset.cosets[i].min_rep) for i in ideal.members}
    assert signs == {(1, 1), (1, -1)}
    assert {ideal.members} == oracle_balanced_members(poset)
    timings.append(time.perf_counter() - start)

    assert all(t < 1.0 for t in timings)
    print(
        "criterion 2 PASS: unique balanced ideals in "
        + ", ".join(f"{t:.3f}s" for t in timings)
    )


def test_criterion_03_minimal_anosov_types():
    [flags_ideal] = enumerate_balanced_ideals(full_poset(A2, {1, 2}))
    [proj_ideal] = enumerate_balanced_ideals(full_poset(A3, {1}))
    [lag_ideal] = enumerate_balanced_ideals(full_poset(C2, {2}))
    assert minimal_anosov_type(proj_ideal) == frozenset({2})
    assert minimal_anosov_type(lag_ideal) == frozenset({1})
    assert minimal_anosov_type(flags_ideal) == frozenset({1, 2})
    print("criterion 3 PASS: minimal types {2}, {1}, {1,2}")


def test_criterion_04_position_matches_brute_force():
    rng = random.Random(2024)
    start = time.perf_counter()
    checked = 0
    for n, rounds in ((3, 300), (4, 250)):
        for _ in range(rounds):
            F = random_full_flag(rng, n)
            H = random_full_flag(rng, n)
            window = relative_position_full(F, H).window
            expected = oracles.position_search_oracle(
                gq_columns(F.basis), gq_columns(H.basis)
            )
            assert window == expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 500
    assert elapsed < 30.0
    print(f"criterion 4 PASS: {checked} flag pairs in {elapsed:.1f}s, 0 mismatches")


def test_criterion_05_symplectic_positions_and_signs():
    rng = random.Random(2025)
    omega = SymplecticForm.standard(2)
    checked = 0
    for _ in range(200):
        F = random_isotropic_flag(rng, omega)
        H = random_isotropic_flag(rng, omega)
        w = relative_position_symplectic(F, H, omega)
        assert sorted(abs(j) for j in w.window) == [1, 2]
        first_sign = 1 if 1 in w.window else -1
        contained = intersection_dim(F.basis.prefix_columns(1), H.basis.prefix_columns(2)) == 1
        assert (first_sign == 1) == contained
        checked += 1
    assert checked >= 200
    print(f"criterion 5 PASS: {checked} isotropic pairs, signs match containment")


def test_criterion_06_anosov_types_and_symplectic_partitions():
    assert anosov_type(Partition((3, 2, 1))) == {1, 2, 4, 5}
    assert 2 in anosov_type(Partition((2, 2)))
    symplectic = [p for p in partitions_of(4) if admits_symplectic_form(p)]
    assert [p.parts for p in symplectic] == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    print("criterion 6 PASS: gap formula and symplectic partition list")


def chain(signs, weights):
    ids = [f"v{k}" for k in range(len(signs))]
    return WeightGraph(
        rounds=tuple(zip(ids, signs)),
        edges=tuple((a, b, w) for a, b, w in zip(ids, ids[1:], weights)),
    )


def test_criterion_07_six_case_weight_graphs():
    start = time.perf_counter()
    graphs = {
        case: analyze_action(Partition(case[0]), case[1], case[2]).fiber_graph
        for case in SIX_CASES
    }
    elapsed = time.perf_counter() - start

    matching = WeightGraph(
        rounds=(("a", 1), ("b", -1), ("c", 1), ("d", -1), ("e", 1), ("f", -1)),
        edges=(("a", "b", 2), ("c", "d", 2), ("e", "f", 2)),
    )
    assert graphs_isomorphic(graphs[SIX_CASES[0]], matching)

    edgeless = WeightGraph(
        rounds=(("a", 1), ("b", -1), ("c", 1), ("d", -1), ("e", 1), ("f", -1)),
    )
    assert graphs_isomorphic(graphs[SIX_CASES[1]], edgeless)

    assert graphs_isomorphic(graphs[SIX_CASES[2]], chain((1, 1, -1, -1), (2, 3, 2)))
    assert graphs_isomorphic(graphs[SIX_CASES[4]], chain((1, 1, -1, -1), (3, 2, 3)))

    assert sorted(e for _, e in graphs[SIX_CASES[3]].squares) == [-2, 2]
    assert not graphs[SIX_CASES[3]].rounds
    assert sorted(e for _, e in graphs[SIX_CASES[5]].squares) == [-1, 1]
    assert not graphs[SIX_CASES[5]].rounds

    assert elapsed < 5.0
    print(f"criterion 7 PASS: six case graphs in {elapsed:.3f}s")


def test_criterion_08_classification_matches():
    expected = {
        SIX_CASES[0]: ("Hir(0;1,2) # Hir(0;1,2)", "(S^2 x S^2) # (S^2 x S^2)"),
        SIX_CASES[1]: ("Hir(0;1,1) # Hir(0;1,1)", "(S^2 x S^2) # (S^2 x S^2)"),
        SIX_CASES[2]: ("Hir(2;-1,2)", "S^2 x S^2"),
        SIX_CASES[3]: ("Hir(2;1,0)", "S^2 x S^2"),
        SIX_CASES[4]: ("Hir(1;-1,3)", "CP^2 # -CP^2"),
        SIX_CASES[5]: ("Hir(1;1,0)", "CP^2 # -CP^2"),
    }
    for case, (model, diffeotype) in expected.items():
        graph = analyze_action(Partition(case[0]), case[1], case[2]).fiber_graph
        record = classify_fiber(graph)
        assert record.matched, case
        assert (record.model, record.diffeotype) == (model, diffeotype), case
    print("criterion 8 PASS: all six classifications match")


def test_criterion_09_euler_characteristics():
    cells = {"full": 6, "proj": 4, "lag": 4}
    for parts, kind, group in SIX_CASES:
        locus = analyze_action(Partition(parts), kind, group).locus
        chi = len(locus.isolated) + 2 * len(locus.surfaces)
        assert chi == cells[kind], (parts, kind)
    print("criterion 9 PASS: fixed-locus Euler counts 6, 6, 4, 4, 4, 4")


def test_criterion_10_census_and_case_table():
    census = enumerate_3dim_flag_varieties(6)
    groups = []
    for d in census:
        if d.group_label not in groups:
            groups.append(d.group_label)
    assert groups == ["SL(3,C)", "SL(4,C)", "Sp(4,C)", "SO(5,C)", "SO(6,C)"]
    assert len(census) == 9

    rows = fullcases_table()
    assert [
        (row.groups, row.variety, tuple(str(p) for p in row.partitions))
        for row in rows
    ] == [
        (("SL(3,C)",), "Flag(C^3)", ("(3)", "(2,1)")),
        (("SL(4,C)", "Sp(4,C)"), "CP^3", ("(4)", "(2,2)")),
        (("Sp(4,C)",), "Lag(C^4)", ("(4)", "(2,1,1)")),
    ]
    print("criterion 10 PASS: five census groups and three case rows")


def test_criterion_11_almost_complex_obstruction():
    from flagfibers.twg import check_almost_complex_obstruction

    assert check_almost_complex_obstruction(0, 6) is False
    print("criterion 11 PASS: (signature 0, Euler 6) admits no compatible pairing")


def test_criterion_12_cartan_projection():
    for delta in (0.1, 1.0, 10.0):
        out = cartan_projection(
            [[math.exp(delta / 2), 0.0], [0.0, math.exp(-delta / 2)]]
        )
        assert abs(out[0] - delta / 2) < 1e-9
        assert abs(out[1] + delta / 2) < 1e-9
    print("criterion 12 PASS: log singular values within 1e-9 for all deltas")
