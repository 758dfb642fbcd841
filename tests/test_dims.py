"""Tests for flag-variety dimension formulas and the census.

Dimensions in types A and C are cross-checked against an independent
root-system computation: the complex dimension of the variety of flags with
jumps eta equals l(w0) - l(w0 of the subgroup generated by the reflections
away from eta).
"""

import itertools

import pytest

from flagfibers.dims import (
    CaseRow,
    FlagVarietyDescriptor,
    GroupFamily,
    enumerate_3dim_flag_varieties,
    flag_dim,
    fullcases_table,
)
from flagfibers.ideals import enumerate_balanced_ideals, minimal_anosov_type
from flagfibers.sl2reps import Partition, admits_symplectic_form, anosov_type, partitions_of
from flagfibers.weyl import (
    Family,
    RootSystem,
    double_cosets,
    group_elements,
    parabolic_elements,
)

import oracles


def sl(n, *indices, tag=""):
    return FlagVarietyDescriptor(GroupFamily.SL, n, tuple(indices), tag)


def so(n, *indices, tag=""):
    return FlagVarietyDescriptor(GroupFamily.SO, n, tuple(indices), tag)


def sp(n, *indices, tag=""):
    return FlagVarietyDescriptor(GroupFamily.Sp, n, tuple(indices), tag)


def weyl_dim_oracle(family: Family, rank: int, eta: set[int]) -> int:
    """dim of the eta-flag variety from Coxeter lengths."""
    system = RootSystem(family, rank)
    levi = parabolic_elements(system, frozenset(eta))
    return (
        max(w.length() for w in group_elements(system))
        - max(w.length() for w in levi)
    )


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_validation():
    with pytest.raises(ValueError):
        sl(1, 1)
    with pytest.raises(ValueError):
        sl(4)
    with pytest.raises(ValueError):
        sl(4, 2, 2)
    with pytest.raises(ValueError):
        sl(4, 4)
    with pytest.raises(ValueError):
        so(5, 3)
    with pytest.raises(ValueError):
        sp(2, 3)
    with pytest.raises(ValueError):
        sl(4, 1, tag="+")
    with pytest.raises(ValueError):
        so(5, 2, tag="+")
    with pytest.raises(ValueError):
        so(6, 2, tag="+")
    with pytest.raises(ValueError):
        so(6, 3, tag="x")
    so(6, 3, tag="+")
    so(6, 1, 3, tag="-")


def test_descriptor_ambient_and_labels():
    assert sl(4, 1).ambient == 4
    assert sp(2, 1).ambient == 4
    assert so(5, 1).ambient == 5
    assert sl(3, 1, 2).group_label == "SL(3,C)"
    assert sp(2, 2).group_label == "Sp(4,C)"
    assert so(6, 3, tag="+").group_label == "SO(6,C)"


def test_descriptor_symbols():
    assert sl(4, 1).symbol == "CP^3"
    assert sl(4, 3).symbol == "Gr_3(C^4)"
    assert sl(3, 1, 2).symbol == "Flag(C^3)"
    assert sl(4, 1, 3).symbol == "Flag_1,3(C^4)"
    assert sp(2, 1).symbol == "CP^3"
    assert sp(2, 2).symbol == "Lag(C^4)"
    assert sp(3, 2).symbol == "IsoFlag_2(C^6)"
    assert so(5, 1).symbol == "Quad_3"
    assert so(5, 2).symbol == "IsoFlag_2(C^5)"
    assert so(6, 3, tag="+").symbol == "IsoFlag_3^+(C^6)"
    assert so(6, 3, tag="-").symbol == "IsoFlag_3^-(C^6)"


def test_descriptor_json_dict():
    record = so(6, 3, tag="+").to_json_dict()
    assert record == {
        "family": "SO",
        "n": 6,
        "indices": [3],
        "symbol": "IsoFlag_3^+(C^6)",
        "dim": 3,
        "tag": "+",
    }
    assert "tag" not in sl(4, 1).to_json_dict()


# ---------------------------------------------------------------------------
# dimensions


def test_flag_dim_three_dimensional_examples():
    assert flag_dim(sl(4, 1)) == 3
    assert flag_dim(sp(2, 2)) == 3
    assert flag_dim(so(5, 1)) == 3


def test_flag_dim_grassmannians():
    for n in range(2, 9):
        for k in range(1, n):
            assert flag_dim(sl(n, k)) == k * (n - k)


def test_flag_dim_full_flags_count_positive_roots():
    for n in range(2, 9):
        assert flag_dim(sl(n, *range(1, n))) == n * (n - 1) // 2
    for n in range(1, 7):
        assert flag_dim(sp(n, *range(1, n + 1))) == n * n
    for p in range(2, 7):
        assert flag_dim(so(2 * p + 1, *range(1, p + 1))) == p * p
        assert flag_dim(so(2 * p, *range(1, p + 1), tag="+")) == p * (p - 1)


def test_flag_dim_matches_weyl_length_oracle_type_a():
    for n in range(3, 7):
        for size in range(1, n):
            for eta in itertools.combinations(range(1, n), size):
                assert flag_dim(sl(n, *eta)) == weyl_dim_oracle(
                    Family.A, n - 1, set(eta)
                )


def test_flag_dim_matches_weyl_length_oracle_type_c():
    for n in range(1, 5):
        for size in range(1, n + 1):
            for eta in itertools.combinations(range(1, n + 1), size):
                assert flag_dim(sp(n, *eta)) == weyl_dim_oracle(
                    Family.C, n, set(eta)
                )


def test_flag_dim_isotropic_grassmannian_values():
    assert flag_dim(so(4, 2, tag="+")) == 1
    assert flag_dim(so(6, 3, tag="-")) == 3
    assert flag_dim(so(5, 2)) == 3
    assert flag_dim(so(8, 1)) == 6
    assert flag_dim(so(8, 4, tag="+")) == 6
    assert flag_dim(sp(3, 1)) == 5
    assert flag_dim(sp(2, 1, 2)) == 4


# ---------------------------------------------------------------------------
# the census


def test_census_five_groups():
    census = enumerate_3dim_flag_varieties(6)
    assert [d.symbol for d in census] == [
        "Flag(C^3)",
        "CP^3",
        "Gr_3(C^4)",
        "CP^3",
        "Lag(C^4)",
        "Quad_3",
        "IsoFlag_2(C^5)",
        "IsoFlag_3^+(C^6)",
        "IsoFlag_3^-(C^6)",
    ]
    assert [d.group_label for d in census] == [
        "SL(3,C)",
        "SL(4,C)", "SL(4,C)",
        "Sp(4,C)", "Sp(4,C)",
        "SO(5,C)", "SO(5,C)",
        "SO(6,C)", "SO(6,C)",
    ]
    assert sl(3, 1, 2) in census
    assert sp(2, 1) in census and sp(2, 2) in census


def test_census_dimension_and_exclusions():
    census = enumerate_3dim_flag_varieties(8)
    for d in census:
        assert flag_dim(d) == 3
    assert not any(
        d.family is GroupFamily.SL and d.n >= 5 for d in census
    )
    # The census is stable once every small rank has been scanned.
    assert census == enumerate_3dim_flag_varieties(4)


@pytest.mark.parametrize("max_rank", range(2, 11))
def test_census_matches_exhaustive_scan(max_rank):
    assert enumerate_3dim_flag_varieties(max_rank) == oracles.census_oracle(max_rank)


@pytest.mark.parametrize("max_rank", [*range(2, 9), 60])
def test_census_builds_only_the_descriptors_it_returns(monkeypatch, max_rank):
    built = []
    init = FlagVarietyDescriptor.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FlagVarietyDescriptor, "__init__", counting)
    census = enumerate_3dim_flag_varieties(max_rank)
    assert len(built) == len(census)
    assert all(made is kept for made, kept in zip(built, census))


def test_census_rejects_tiny_rank():
    with pytest.raises(ValueError):
        enumerate_3dim_flag_varieties(1)


# ---------------------------------------------------------------------------
# the case table


def test_fullcases_rows():
    rows = fullcases_table()
    assert [
        (row.groups, row.variety, tuple(str(p) for p in row.partitions))
        for row in rows
    ] == [
        (("SL(3,C)",), "Flag(C^3)", ("(3)", "(2,1)")),
        (("SL(4,C)", "Sp(4,C)"), "CP^3", ("(4)", "(2,2)")),
        (("Sp(4,C)",), "Lag(C^4)", ("(4)", "(2,1,1)")),
    ]


def test_fullcases_partitions_are_consistent():
    rows = fullcases_table()
    for row in rows:
        for p in row.partitions:
            assert 2 in anosov_type(p) or row.variety != "CP^3"
            if any(g.startswith("Sp") for g in row.groups):
                assert admits_symplectic_form(p)


# The SL(m) gaps that each case-table variety's unique balanced ideal requires.
CASE_GAPS = {"Flag(C^3)": {1, 2}, "CP^3": {2}, "Lag(C^4)": {1, 3}}


def balanced_gaps(d: FlagVarietyDescriptor) -> frozenset[int] | None:
    """The singular-value gaps of SL(m), m the ambient dimension, that the one
    balanced ideal (Kapovich-Leeb-Porti thickening) of the variety's position
    poset, full left type and right type its indices, requires by its
    ``minimal_anosov_type``; None unless the poset has exactly one."""
    if d.family is GroupFamily.SL:
        system = RootSystem(Family.A, d.n - 1)
    else:
        system = RootSystem(Family.C, d.n)
    poset = double_cosets(system, frozenset(system.simple_indices), frozenset(d.indices))
    ideals = enumerate_balanced_ideals(poset)
    if len(ideals) != 1:
        return None
    minimal = minimal_anosov_type(ideals[0])
    if d.family is GroupFamily.SL:
        return minimal
    # Root k of C_n is the gap pair {k, 2n - k} of SL(2n); root n is gap n alone.
    return frozenset(g for k in minimal for g in (k, 2 * d.n - k))


def compatible(d: FlagVarietyDescriptor, gaps: frozenset[int]) -> set[Partition]:
    """The partitions of the ambient dimension that open ``gaps``, self-paired for Sp."""
    return {
        p
        for p in partitions_of(d.ambient)
        if gaps <= anosov_type(p) and (d.family is GroupFamily.SL or admits_symplectic_form(p))
    }


def test_fullcases_types_cover_balanced_ideal_requirements():
    """For every group of a row, the variety's unique balanced ideal requires the
    row's gaps, and the row holds exactly the partitions that open them (each
    self-paired when the group is Sp)."""
    census = {(d.group_label, d.symbol): d for d in enumerate_3dim_flag_varieties(3)}
    rows = fullcases_table()
    assert [row.variety for row in rows] == list(CASE_GAPS)
    for row in rows:
        for group in row.groups:
            d = census[group, row.variety]
            gaps = balanced_gaps(d)
            assert gaps == CASE_GAPS[row.variety], (group, row.variety)
            assert set(row.partitions) == compatible(d, gaps), (group, row.variety)


def test_census_sl_and_sp_varieties_have_one_balanced_ideal_each():
    """Every SL and Sp variety of the census has exactly one balanced ideal, and
    Gr_3(C^4) needs the gaps of its dual CP^3, opened by the same partitions."""
    found = {}
    for d in enumerate_3dim_flag_varieties(3):
        if d.family is not GroupFamily.SO:
            gaps = balanced_gaps(d)
            found[d.group_label, d.symbol] = gaps, {str(p) for p in compatible(d, gaps)}
    assert found == {
        ("SL(3,C)", "Flag(C^3)"): ({1, 2}, {"(3)", "(2,1)"}),
        ("SL(4,C)", "CP^3"): ({2}, {"(4)", "(2,2)"}),
        ("SL(4,C)", "Gr_3(C^4)"): ({2}, {"(4)", "(2,2)"}),
        ("Sp(4,C)", "CP^3"): ({2}, {"(4)", "(2,2)"}),
        ("Sp(4,C)", "Lag(C^4)"): ({1, 3}, {"(4)", "(2,1,1)"}),
    }


def test_fullcases_rows_are_built_once():
    """Each call returns a fresh list of the same immutable rows."""
    first, second = fullcases_table(), fullcases_table()
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    assert len(fullcases_table()) == 3
    with pytest.raises(AttributeError):
        second[0].partitions = ()


def test_fullcases_json_dict():
    assert fullcases_table()[2].to_json_dict() == {
        "groups": ["Sp(4,C)"],
        "variety": "Lag(C^4)",
        "partitions": ["(4)", "(2,1,1)"],
    }
