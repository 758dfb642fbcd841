"""Dimension formulas for classical flag varieties and the census of
three-dimensional ones.

A flag variety here is described by its classical group family, the ambient
parameter, and the strictly increasing subspace dimensions of the flags it
parametrizes.  Complex dimensions come from the fibration over the largest
subspace:

>>> flag_dim(FlagVarietyDescriptor(GroupFamily.SL, 4, (1,)))
3
>>> flag_dim(FlagVarietyDescriptor(GroupFamily.Sp, 2, (2,)))
3
>>> flag_dim(FlagVarietyDescriptor(GroupFamily.SO, 5, (1,)))
3

Scanning all families up to a rank bound recovers exactly five groups with a
three-dimensional flag variety, and :func:`fullcases_table` lists the
weighted-line decompositions compatible with each of the three varieties
that carry a hyperbolic-circle analysis.
"""

from __future__ import annotations

import enum
from itertools import combinations
from math import comb

from . import _Record
from .sl2reps import Partition, admits_symplectic_form, anosov_type


class GroupFamily(enum.Enum):
    """Classical matrix group family."""

    SL = "SL"
    SO = "SO"
    Sp = "Sp"


class FlagVarietyDescriptor(_Record):
    """A flag variety of a classical group.

    ``n`` is the ambient parameter: subspaces live in C^n for SL and SO and
    in C^(2n) for Sp.  ``indices`` are the subspace dimensions, strictly
    increasing; for SO and Sp every subspace is required isotropic, which
    caps the indices at floor(n/2) and n respectively.  ``tag`` picks one of
    the two families of maximal isotropic subspaces of an even-dimensional
    orthogonal space; it is empty everywhere else.
    """

    __slots__ = ("family", "n", "indices", "tag")

    def __init__(self, family: GroupFamily, n: int, indices: tuple[int, ...], tag: str = ""):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "tag", tag)
        minimum = {GroupFamily.SL: 2, GroupFamily.SO: 3, GroupFamily.Sp: 1}
        if n < minimum[family]:
            raise ValueError(f"ambient parameter {n} too small for {family.value}")
        if not indices:
            raise ValueError("no subspace dimensions given")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices must strictly increase: {indices}")
        if indices[0] < 1 or indices[-1] > self._max_index():
            raise ValueError(f"indices {indices} out of range for {family.value} with n={n}")
        if tag:
            splits = family is GroupFamily.SO and n % 2 == 0 and indices[-1] == n // 2
            if tag not in ("+", "-") or not splits:
                raise ValueError(f"tag {tag!r} not meaningful here")

    def _max_index(self) -> int:
        if self.family is GroupFamily.SL:
            return self.n - 1
        if self.family is GroupFamily.SO:
            return self.n // 2
        return self.n

    @property
    def ambient(self) -> int:
        """Dimension of the space the flags live in."""
        return 2 * self.n if self.family is GroupFamily.Sp else self.n

    @property
    def group_label(self) -> str:
        return f"{self.family.value}({self.ambient},C)"

    @property
    def symbol(self) -> str:
        """Conventional name: CP^m, Gr_k, Quad_m, Lag, IsoFlag_k, Flag.

        >>> FlagVarietyDescriptor(GroupFamily.Sp, 2, (2,)).symbol
        'Lag(C^4)'
        >>> FlagVarietyDescriptor(GroupFamily.SO, 5, (1,)).symbol
        'Quad_3'
        >>> FlagVarietyDescriptor(GroupFamily.SO, 6, (3,), "+").symbol
        'IsoFlag_3^+(C^6)'
        """
        m = self.ambient
        if self.family is GroupFamily.SL:
            if self.indices == (1,):
                return f"CP^{m - 1}"
            if len(self.indices) == 1:
                return f"Gr_{self.indices[0]}(C^{m})"
            if self.indices == tuple(range(1, m)):
                return f"Flag(C^{m})"
            inner = ",".join(str(i) for i in self.indices)
            return f"Flag_{inner}(C^{m})"
        if self.family is GroupFamily.Sp and self.indices == (1,):
            return f"CP^{m - 1}"
        if self.family is GroupFamily.Sp and self.indices == (self.n,):
            return f"Lag(C^{m})"
        if self.family is GroupFamily.SO and self.indices == (1,):
            return f"Quad_{m - 2}"
        inner = ",".join(str(i) for i in self.indices)
        sup = f"^{self.tag}" if self.tag else ""
        return f"IsoFlag_{inner}{sup}(C^{m})"

    def to_json_dict(self) -> dict:
        record = {
            "family": self.family.value,
            "n": self.n,
            "indices": list(self.indices),
            "symbol": self.symbol,
            "dim": flag_dim(self),
        }
        if self.tag:
            record["tag"] = self.tag
        return record


def _linear_flag_dim(indices: tuple[int, ...], n: int) -> int:
    steps = list(indices) + [n]
    return sum(d * (e - d) for d, e in zip(steps, steps[1:]))


def _isotropic_grassmannian_dim(family: GroupFamily, ambient: int, k: int) -> int:
    if family is GroupFamily.SO:
        return k * (ambient - k) - comb(k + 1, 2)
    return k * (ambient - k) - comb(k, 2)


def flag_dim(d: FlagVarietyDescriptor) -> int:
    """Complex dimension of the flag variety.

    Nested flags fiber over the Grassmannian of the largest subspace with
    linear flags of the smaller subspaces inside it, so dimensions add up:

    >>> flag_dim(FlagVarietyDescriptor(GroupFamily.SL, 3, (1, 2)))
    3
    >>> flag_dim(FlagVarietyDescriptor(GroupFamily.Sp, 2, (1, 2)))
    4
    """
    top = d.indices[-1]
    inside = _linear_flag_dim(d.indices[:-1], top)
    if d.family is GroupFamily.SL:
        return _linear_flag_dim((top,), d.n) + inside
    return _isotropic_grassmannian_dim(d.family, d.ambient, top) + inside


def _descriptors(family: GroupFamily, n: int, indices: tuple[int, ...]):
    if family is GroupFamily.SO and n % 2 == 0 and indices[-1] == n // 2:
        yield FlagVarietyDescriptor(family, n, indices, "+")
        yield FlagVarietyDescriptor(family, n, indices, "-")
    else:
        yield FlagVarietyDescriptor(family, n, indices)


def _three_dim(family: GroupFamily, n: int, limit: int):
    """The dimension-3 varieties of one group with indices from 1..limit.

    A flag variety maps onto the Grassmannian of each of its indices, so its
    dimension is at least that one-index variety's.  Only indices whose
    one-index varieties have dimension <= 3 can occur, and the index sets
    are the combinations of those, in the order of a scan over all subsets.
    """
    pool = [
        i
        for i in range(1, limit + 1)
        if any(flag_dim(d) <= 3 for d in _descriptors(family, n, (i,)))
    ]
    for size in range(1, len(pool) + 1):
        for indices in combinations(pool, size):
            for d in _descriptors(family, n, indices):
                if flag_dim(d) == 3:
                    yield d


def enumerate_3dim_flag_varieties(max_rank: int) -> list[FlagVarietyDescriptor]:
    """All classical flag varieties of complex dimension three, by scan.

    Ranks from two up to ``max_rank`` are searched in each family, over the
    index sets that can reach dimension three (see :func:`_three_dim`), and
    no rank beyond three is searched, so the work is bounded whatever
    ``max_rank`` is.  From rank four on every one-index variety has
    dimension above three, so by :func:`_three_dim`'s argument no variety of
    that rank can have dimension three.  A one-index variety's dimension is
    concave in its index k: k(m - k) for SL(m), and for isotropic k-planes
    in C^m less k(k + 1)/2 (SO) or k(k - 1)/2 (Sp).  So its least value is
    at the first or the last index, and there it grows with the rank r:
    r for SL(r+1); 2r - 1 and r(r + 1)/2 for Sp(2r); 2r - 2 and r(r - 1)/2
    for SO(2r); 2r - 1 and r(r + 1)/2 for SO(2r+1).  At r = 4 the least of
    these is 4.
    """
    if max_rank < 2:
        raise ValueError(f"max_rank must be >= 2, got {max_rank}")
    last = min(max_rank, 3)
    found: list[FlagVarietyDescriptor] = []
    for rank in range(2, last + 1):
        found.extend(_three_dim(GroupFamily.SL, rank + 1, rank))
    for rank in range(2, last + 1):
        found.extend(_three_dim(GroupFamily.Sp, rank, rank))
    for rank in range(2, last + 1):
        for n in (2 * rank, 2 * rank + 1):
            found.extend(_three_dim(GroupFamily.SO, n, rank))
    return found


class CaseRow(_Record):
    """One row of the case table: which groups act, on which variety, and
    which weighted-line decompositions are compatible with it."""

    __slots__ = ("groups", "variety", "partitions")

    def __init__(
        self, groups: tuple[str, ...], variety: str, partitions: tuple[Partition, Partition]
    ):
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "partitions", partitions)

    def to_json_dict(self) -> dict:
        return {
            "groups": list(self.groups),
            "variety": self.variety,
            "partitions": [str(p) for p in self.partitions],
        }


def fullcases_table() -> list[CaseRow]:
    """The three varieties supporting the analysis and their decompositions.

    Each row pairs the irreducible decomposition with the reducible one.
    The rows are internally checked: every partition must open the singular
    value gaps the variety's unique balanced ideal requires, and rows with a
    symplectic group must consist of self-paired decompositions.
    """
    rows = [
        (
            CaseRow(("SL(3,C)",), "Flag(C^3)", (Partition((3,)), Partition((2, 1)))),
            {1, 2},
        ),
        (
            CaseRow(
                ("SL(4,C)", "Sp(4,C)"),
                "CP^3",
                (Partition((4,)), Partition((2, 2))),
            ),
            {2},
        ),
        (
            CaseRow(
                ("Sp(4,C)",),
                "Lag(C^4)",
                (Partition((4,)), Partition((2, 1, 1))),
            ),
            {1, 3},
        ),
    ]
    for row, needed_gaps in rows:
        for p in row.partitions:
            if not needed_gaps <= anosov_type(p):
                raise ArithmeticError(f"{p} lacks the gaps {needed_gaps}")
            if any(g.startswith("Sp") for g in row.groups):
                if not admits_symplectic_form(p):
                    raise ArithmeticError(f"{p} admits no invariant pairing")
    return [row for row, _ in rows]
