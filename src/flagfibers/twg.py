"""Tangential weight graphs of circle actions on three-dimensional flag varieties.

Given an n-dimensional representation with its labeled circle-weight basis,
the circle acts on flag varieties of the representation space.  This module
locates the fixed flags (isolated points and projective-line families),
computes exact tangent weights at each fixed point, strings invariant
two-spheres into a labeled graph, transfers the graph from the ambient flag
variety to the four-dimensional fiber, and classifies the result against the
catalogue of Hirzebruch-surface circle actions and their equivariant
connected sums.

The catalogue graphs Hir(q; a, b) live on four fixed points p1, p2, p3, p4
arranged in a cycle p1-p2-p4-p3 with edge weights |a|, |b|, |a+qb|, |b| and
signs s1 = sign(ab), s2 = -s1, s4 = sign(b(a+qb)), s3 = -s4; weight-1 edges
are principal and disappear.  The (a, b) = (1, 0) regime instead rotates the
fibers of a line bundle of Euler number q and fixes two surfaces.
Graph isomorphism is canonical-key equality: every component is a path or
a cycle, named by its least sign/weight sequence (``canonical_key``; a
cycle's least rotation comes from Booth's linear scan).  Classification
builds no graph: it keys each candidate Hir(q;a,b) in closed form from its
ring, and each two-term connected sum as the six-point ring glued from the
arcs its factors' rings leave.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .flags import (
    ExactMatrix,
    Signature,
    SymplecticForm,
    full_signature,
    json_fields,
)
from .sl2reps import (
    Partition,
    WeightedBasis,
    invariant_symplectic_form,
    so2_weight_basis,
)


class CircleGroup(Enum):
    """The acting circle: the double cover distinction changes all weights."""

    SO2 = "SO2"
    PSO2 = "PSO2"

    @property
    def hyperbolic_weight(self) -> int:
        """Rotation weight on the tangent plane of the hyperbolic-plane orbit."""
        return 2 if self is CircleGroup.SO2 else 1

    def check_weights(self, weights: Iterable[int]) -> None:
        parities = {w % 2 for w in weights}
        if self is CircleGroup.PSO2 and len(parities) > 1:
            raise ValueError(
                "the projectivized circle only acts when all weights share a parity"
            )

    def scaled(self, delta: int) -> int:
        """A weight difference, halved for the projectivized circle."""
        if self is CircleGroup.SO2:
            return delta
        if delta % 2:
            raise ValueError("odd weight difference under the projectivized circle")
        return delta // 2


def chart_index_set(sig: Signature) -> tuple[tuple[int, int], ...]:
    """1-based pairs (i, j) with j <= d <= i-1 for some subspace dimension d.

    These index the chart directions moving the j-th flag vector toward the
    i-th; their count is the dimension of the flag variety.

    >>> chart_index_set(Signature((1, 2), 3))
    ((2, 1), (3, 1), (3, 2))
    """
    n = sig.ambient
    return tuple(
        (i, j)
        for i in range(2, n + 1)
        for j in range(1, i)
        if any(j <= d < i for d in sig.dims)
    )


@dataclass(frozen=True)
class DifferenceMatrix:
    """Weight differences over the chart index set; blocked entries are None."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int | None, ...], ...]

    def entry(self, i: int, j: int) -> int | None:
        """1-based lookup."""
        return self.entries[i - 1][j - 1]

    def entry_values(self) -> tuple[int, ...]:
        return tuple(
            value for row in self.entries for value in row if value is not None
        )

    def __str__(self) -> str:
        width = max(
            [len(label) for label in self.row_labels + self.col_labels]
            + [len(str(v)) for v in self.entry_values()] or [1]
        )
        def pad(text: str) -> str:
            return text.rjust(width)

        head = " " * width + " " + " ".join(pad(c) for c in self.col_labels)
        lines = [head]
        for label, row in zip(self.row_labels, self.entries):
            cells = " ".join(pad("*" if v is None else str(v)) for v in row)
            lines.append(f"{pad(label)} {cells}")
        return "\n".join(lines)


def difference_matrix(
    order: WeightedBasis, sig: Signature, group: CircleGroup
) -> DifferenceMatrix:
    """Scaled weight differences w_i - w_j at a fixed flag in the given order.

    The entry multiset is the tangent-weight multiset of the flag variety at
    the fixed flag spanned by the ordered basis.
    """
    if len(order) != sig.ambient:
        raise ValueError("basis size must match the ambient dimension")
    group.check_weights(order.weights)
    n = len(order)
    allowed = set(chart_index_set(sig))
    rows = tuple(
        tuple(
            group.scaled(order.weights[i] - order.weights[j])
            if (i + 1, j + 1) in allowed
            else None
            for j in range(n)
        )
        for i in range(n)
    )
    return DifferenceMatrix(order.labels, order.labels, rows)


# ---------------------------------------------------------------------------
# fixed loci


@dataclass(frozen=True)
class IsolatedFixedFlag:
    """A rigid invariant flag: each level adds a group of weight vectors."""

    levels: tuple[tuple[str, ...], ...]
    completion: tuple[str, ...]

    @property
    def id(self) -> str:
        return "|".join(",".join(level) for level in self.levels)

    @property
    def flag_order(self) -> tuple[str, ...]:
        return tuple(
            label for level in self.levels for label in level
        ) + self.completion


@dataclass(frozen=True)
class FixedSurface:
    """A projective line of invariant flags: a pencil inside a weight plane."""

    anchored: tuple[str, ...]
    pencil: tuple[str, str]

    @property
    def id(self) -> str:
        inner = ",".join(self.pencil)
        if self.anchored:
            return f"C({','.join(self.anchored)};{inner})"
        return f"C({inner})"


@dataclass(frozen=True)
class FixedLocus:
    isolated: tuple[IsolatedFixedFlag, ...]
    surfaces: tuple[FixedSurface, ...]


def fixed_flags(
    basis: WeightedBasis,
    sig: Signature,
    group: CircleGroup,
    iso: SymplecticForm | None = None,
) -> FixedLocus:
    """All invariant flags of the given signature, grouped by rigidity.

    An invariant flag decomposes each subspace along the weight eigenspaces;
    the possible intersection-dimension profiles are enumerated directly.
    Profiles choosing a line inside a two-dimensional eigenspace sweep a
    projective-line family; anything bigger is out of scope.  With ``iso``
    set, only isotropic flags (and families of them) survive.
    """
    group.check_weights(basis.weights)
    if sig.ambient != len(basis):
        raise ValueError("signature ambient dimension must match the basis")

    eigen: dict[int, list[str]] = {}
    for label, weight in zip(basis.labels, basis.weights):
        eigen.setdefault(weight, []).append(label)
    weights = sorted(eigen, reverse=True)
    dims = sig.dims
    depth = len(dims)

    def monotone_profiles(mult: int):
        return itertools.combinations_with_replacement(range(mult + 1), depth)

    isolated: list[IsolatedFixedFlag] = []
    surfaces: list[FixedSurface] = []
    for combo in itertools.product(
        *(monotone_profiles(len(eigen[w])) for w in weights)
    ):
        if any(
            sum(prof[j] for prof in combo) != dims[j] for j in range(depth)
        ):
            continue
        pencil_weight = None
        pencil_completed = False
        for w, prof in zip(weights, combo):
            mult = len(eigen[w])
            partial = {v for v in prof if v not in (0, mult)}
            if not partial:
                continue
            if mult == 2 and partial == {1}:
                if pencil_weight is not None:
                    raise NotImplementedError(
                        "fixed locus with more than one pencil factor"
                    )
                pencil_weight = w
                pencil_completed = mult in prof
            else:
                raise NotImplementedError(
                    "fixed locus beyond isolated flags and line pencils"
                )

        if pencil_weight is None:
            level_groups = []
            for j in range(depth):
                added = [
                    label
                    for w, prof in zip(weights, combo)
                    if prof[j] and (j == 0 or not prof[j - 1])
                    for label in eigen[w]
                ]
                level_groups.append(
                    tuple(sorted(added, key=basis.index_of))
                )
            used = {label for level in level_groups for label in level}
            completion = tuple(l for l in basis.labels if l not in used)
            flag = IsolatedFixedFlag(tuple(level_groups), completion)
            if iso is not None and not _spans_isotropic(
                basis, iso, flag.flag_order[: sig.top]
            ):
                continue
            isolated.append(flag)
        else:
            anchored = []
            for j in range(depth):
                for w, prof in zip(weights, combo):
                    if w == pencil_weight:
                        continue
                    if prof[j] and (j == 0 or not prof[j - 1]):
                        anchored.extend(eigen[w])
            pencil = tuple(eigen[pencil_weight])
            # Each line of the pencil plane is self-isotropic, so every member
            # flag is isotropic when the anchored vectors span an isotropic
            # space with either pencil vector; the plane's own pairing matters
            # only if some level swallows the plane whole.
            parts = [pencil] if pencil_completed else [(label,) for label in pencil]
            if iso is not None and not all(
                _spans_isotropic(basis, iso, [*anchored, *part]) for part in parts
            ):
                continue
            surfaces.append(FixedSurface(tuple(anchored), pencil))

    isolated.sort(key=lambda f: tuple(basis.index_of(l) for l in f.flag_order))
    surfaces.sort(key=lambda s: s.id)
    if len({s.id for s in surfaces}) != len(surfaces):
        raise NotImplementedError("coincident fixed-surface families")
    return FixedLocus(tuple(isolated), tuple(surfaces))


def _spans_isotropic(
    basis: WeightedBasis, iso: SymplecticForm, labels: Sequence[str]
) -> bool:
    """Whether the form vanishes on the span of these basis vectors.

    The span of coordinate vectors is isotropic exactly when every Gram entry
    among their indices is zero.
    """
    positions = [basis.index_of(label) for label in labels]
    return not any(
        iso.gram.entry(i, j) for i, j in itertools.combinations(positions, 2)
    )


# ---------------------------------------------------------------------------
# tangent weights and invariant spheres


def sign_of_fixed_point(weights: Iterable[int]) -> int:
    """Sign of the product of the (nonzero) tangent weights."""
    negatives = 0
    for w in weights:
        if w == 0:
            raise ValueError("zero weight: the point is not isolated")
        if w < 0:
            negatives += 1
    return -1 if negatives % 2 else 1


def exceptional_sphere_targets(
    order: WeightedBasis, sig: Signature, group: CircleGroup
) -> list[tuple[tuple[int, int], tuple[str, ...], int]]:
    """Invariant spheres leaving a fixed flag along chart directions.

    Each chart direction of scaled weight of absolute value >= 2 closes to a
    sphere ending at the flag with the two basis vectors swapped; weight-1
    directions are principal and weight-0 directions lie along fixed
    surfaces, so neither yields a sphere.
    """
    group.check_weights(order.weights)
    out = []
    for i, j in chart_index_set(sig):
        delta = group.scaled(order.weights[i - 1] - order.weights[j - 1])
        if abs(delta) < 2:
            continue
        swapped = list(order.labels)
        swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
        out.append(((i, j), tuple(swapped), abs(delta)))
    return out


def permuted_form(
    omega: SymplecticForm, basis: WeightedBasis, order: Sequence[str]
) -> SymplecticForm:
    """The form's Gram matrix reindexed to a reordering of the basis labels."""
    positions = [basis.index_of(label) for label in order]
    entries = [
        [omega.gram.entry(r, c) for c in positions] for r in positions
    ]
    return SymplecticForm(ExactMatrix(entries))


def _lagrangian_chart_classes(
    order: WeightedBasis, omega: SymplecticForm, group: CircleGroup
):
    """Solve the linearized isotropy equations, one weight class at a time.

    Chart coordinates u_ij (1 <= i, j <= n) move the j-th spanning vector
    toward the (n+i)-th; the coordinate's weight is the scaled difference.
    Isotropy of the deformed span is one linear equation per pair j < k, and
    each equation touches a single weight class, so the classes are solved
    independently and exactly.  Returns (class weight -> kernel basis,
    coordinate list per class).
    """
    size = len(order)
    if size % 2 or omega.ambient != size:
        raise ValueError("a Lagrangian chart needs an even ambient dimension")
    n = size // 2
    group.check_weights(order.weights)
    gram = omega.gram
    for a in range(n):
        for b in range(n):
            if gram.entry(a, b):
                raise ValueError("flag is not Lagrangian for the given form")

    coords = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    weight_of = {
        (i, j): group.scaled(order.weights[n + i - 1] - order.weights[j - 1])
        for (i, j) in coords
    }
    classes: dict[int, list[tuple[int, int]]] = {}
    for c in coords:
        classes.setdefault(weight_of[c], []).append(c)

    # For j < k the keys (i, k) and (i, j) never collide, so each coefficient
    # is a single Gram entry or its negation.
    negated = -gram
    rows = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            row = {(i, k): gram.entry(j - 1, n + i - 1) for i in range(1, n + 1)}
            row |= {(i, j): negated.entry(k - 1, n + i - 1) for i in range(1, n + 1)}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)

    solved: dict[int, tuple[list[tuple[int, int]], ExactMatrix]] = {}
    for w, members in sorted(classes.items(), reverse=True):
        member_set = set(members)
        relevant = []
        for row in rows:
            support = set(row)
            if support & member_set:
                if not support <= member_set:
                    raise ArithmeticError(
                        "isotropy equations are not weight-homogeneous; "
                        "the form does not respect the weights"
                    )
                relevant.append(row)
        if relevant:
            matrix = ExactMatrix([[row.get(c, 0) for c in members] for row in relevant])
            kernel = matrix.nullspace()
        else:
            kernel = ExactMatrix.identity(len(members))
        solved[w] = (members, kernel)
    return solved


def tangent_weights_lagrangian(
    order: WeightedBasis, omega: SymplecticForm, group: CircleGroup
) -> tuple[int, ...]:
    """Tangent-weight multiset of the Lagrangian locus at a fixed point.

    The Gram matrix must be given in the coordinates of ``order`` (see
    :func:`permuted_form`).
    """
    solved = _lagrangian_chart_classes(order, omega, group)
    weights: list[int] = []
    for w, (_, kernel) in solved.items():
        weights.extend([w] * kernel.cols)
    n = len(order) // 2
    if len(weights) != n * (n + 1) // 2:
        raise ArithmeticError("isotropy cut has the wrong dimension")
    return tuple(sorted(weights, reverse=True))


def lagrangian_sphere_targets(
    order: WeightedBasis, omega: SymplecticForm, group: CircleGroup
) -> list[tuple[int, tuple[str, ...], int]]:
    """Invariant spheres in the Lagrangian locus through a fixed point.

    A weight class of the cut chart with a one-dimensional solution and
    weight of absolute value >= 2 closes to a sphere; the far endpoint swaps
    every spanning vector paired by the support of the solution.
    """
    solved = _lagrangian_chart_classes(order, omega, group)
    n = len(order) // 2
    out = []
    for w, (members, kernel) in sorted(solved.items(), reverse=True):
        if abs(w) < 2 or kernel.cols == 0:
            continue
        if kernel.cols != 1:
            raise NotImplementedError("sphere direction with multiplicity")
        support = [
            members[r] for r in range(kernel.rows) if kernel.entry(r, 0)
        ]
        swapped = list(order.labels)
        touched: set[int] = set()
        for i, j in support:
            a, b = j - 1, n + i - 1
            if a in touched or b in touched:
                raise NotImplementedError("sphere support is not a disjoint swap")
            touched.update((a, b))
            swapped[a], swapped[b] = swapped[b], swapped[a]
        out.append((w, tuple(swapped), abs(w)))
    return out


# ---------------------------------------------------------------------------
# weight graphs


def _validate_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("vertex signs are +1 or -1")
    return sign


def _json_text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} are strings, got {value!r}")
    return value


def _least_rotation(seq: list) -> list:
    """The least rotation of a sequence, by Booth's failure-function scan.

    Booth, *Inf. Process. Lett.* 10 (1980); linear in the length.
    """
    doubled = seq + seq
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        x = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and x != doubled[k + i + 1]:
            if x < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != doubled[k + i + 1]:
            if x < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k : k + len(seq)]


def _component_key(walk: Sequence[int]) -> tuple[int, ...]:
    """The least sign/weight sequence naming one component from a walk of it.

    A path walk has odd length, sign first and last, and is read in both
    directions.  A cycle walk has even length, (sign, weight) pairs ending
    on the weight back to the start; it is read from its least rotation in
    either direction.
    """
    if len(walk) % 2:
        return min(tuple(walk), tuple(walk[::-1]))
    signs, weights = walk[::2], walk[1::2]
    forward = list(zip(signs, weights))
    backward = [(signs[-j], weights[-j - 1]) for j in range(len(signs))]
    return min(
        tuple(x for pair in _least_rotation(d) for x in pair) for d in (forward, backward)
    )


@dataclass(frozen=True)
class WeightGraph:
    """Signed fixed points, Euler-labeled fixed surfaces, weighted spheres."""

    rounds: tuple[tuple[str, int], ...] = ()
    squares: tuple[tuple[str, int], ...] = ()
    edges: tuple[tuple[str, str, int], ...] = ()

    def __post_init__(self) -> None:
        rounds = tuple(sorted((str(i), _validate_sign(s)) for i, s in self.rounds))
        squares = tuple(sorted((str(i), int(e)) for i, e in self.squares))
        edges = []
        for a, b, w in self.edges:
            a, b = str(a), str(b)
            if a > b:
                a, b = b, a
            edges.append((a, b, int(w)))
        edges = tuple(sorted(edges))
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "edges", edges)

        ids = [i for i, _ in rounds] + [i for i, _ in squares]
        if len(set(ids)) != len(ids):
            raise ValueError("vertex ids must be distinct")
        round_ids = {i for i, _ in rounds}
        degree: Counter[str] = Counter()
        for a, b, w in edges:
            if w < 2:
                raise ValueError("edge weights are at least 2")
            if a == b:
                raise ValueError("no self-loops")
            if a not in round_ids or b not in round_ids:
                raise ValueError("edges join round vertices only")
            degree[a] += 1
            degree[b] += 1
        if degree and max(degree.values()) > 2:
            raise ValueError("at most two edges meet a round vertex")

    def sign_of(self, vertex: str) -> int:
        for i, s in self.rounds:
            if i == vertex:
                return s
        raise KeyError(vertex)

    def incident_weights(self, vertex: str) -> tuple[int, ...]:
        return tuple(
            sorted(w for a, b, w in self.edges if vertex in (a, b))
        )

    def canonical_key(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """A key that two graphs share exactly when they are isomorphic.

        At most two edges meet a round vertex, so each component is a path
        or a cycle, a double edge included, keyed by ``_component_key``.

        >>> hirzebruch_graph(2, -1, 2).canonical_key()
        (((-1, 2, -1, 3, 1, 2, 1),), ())
        """
        sign = dict(self.rounds)
        ends: dict[str, list[tuple[int, str, int]]] = {i: [] for i in sign}
        for n, (a, b, w) in enumerate(self.edges):
            ends[a].append((n, b, w))
            ends[b].append((n, a, w))
        seen: set[str] = set()
        components = []
        # Path ends come first, so a walk from a vertex of degree 2 is a cycle.
        for start in sorted(sign, key=lambda i: len(ends[i]) == 2):
            if start in seen:
                continue
            seen.add(start)
            walk, v, came_by = [sign[start]], start, None
            while steps := [e for e in ends[v] if e[0] != came_by]:
                came_by, v, w = steps[0]
                walk.append(w)
                if v == start:
                    break
                walk.append(sign[v])
                seen.add(v)
            components.append(_component_key(walk))
        return tuple(sorted(components)), tuple(sorted(e for _, e in self.squares))

    def to_json_dict(self) -> dict:
        return {
            "round": [
                {"id": i, "sign": "+" if s > 0 else "-"} for i, s in self.rounds
            ],
            "squares": [{"id": i, "euler": e} for i, e in self.squares],
            "edges": [{"ends": [a, b], "weight": w} for a, b, w in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "WeightGraph":
        """Read a graph; a document of the wrong shape raises ``ValueError``."""
        keys = ("round", "squares", "edges")
        lists = json_fields(json.loads(text), "weight graph", keys)
        for key, value in zip(keys, lists):
            if not isinstance(value, list):
                raise ValueError(f'weight graph JSON "{key}" must be a list')
        rounds = []
        for v in lists[0]:
            i, sign = json_fields(v, "round vertex", ("id", "sign"))
            if sign not in ("+", "-"):
                raise ValueError(f'round vertex signs are "+" or "-", got {sign!r}')
            rounds.append((_json_text(i, "round vertex ids"), 1 if sign == "+" else -1))
        squares = []
        for v in lists[1]:
            i, euler = json_fields(v, "square vertex", ("id", "euler"))
            if type(euler) is not int:
                raise ValueError(f"square vertex Euler numbers are integers, got {euler!r}")
            squares.append((_json_text(i, "square vertex ids"), euler))
        edges = []
        for e in lists[2]:
            ends, weight = json_fields(e, "edge", ("ends", "weight"))
            if not isinstance(ends, list) or len(ends) != 2:
                raise ValueError(f"an edge has exactly two ends, got {ends!r}")
            if type(weight) is not int:
                raise ValueError(f"edge weights are integers, got {weight!r}")
            edges.append((*(_json_text(end, "edge ends") for end in ends), weight))
        return WeightGraph(rounds=tuple(rounds), squares=tuple(squares), edges=tuple(edges))

    def to_dot(self) -> str:
        lines = ["graph weightgraph {"]
        for i, s in self.rounds:
            label = "+" if s > 0 else "-"
            lines.append(f'  "{i}" [shape=circle, label="{label}"];')
        for i, e in self.squares:
            lines.append(f'  "{i}" [shape=box, label="{e}"];')
        for a, b, w in self.edges:
            lines.append(f'  "{a}" -- "{b}" [label="{w}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def fiber_tangent_weights(
    ambient: Sequence[int], group: CircleGroup
) -> tuple[int, ...]:
    """Ambient tangent weights minus the normal hyperbolic-plane direction.

    One weight of absolute value equal to the hyperbolic weight is removed.
    When the removed weight is negative, the orientation transported from
    the ambient variety differs from the product orientation, so one
    remaining weight flips sign; the fiber sign therefore always equals the
    ambient sign.
    """
    h = group.hyperbolic_weight
    remaining = list(ambient)
    if h in remaining:
        remaining.remove(h)
    elif -h in remaining:
        remaining.remove(-h)
        flip = min(range(len(remaining)), key=lambda k: (abs(remaining[k]), remaining[k]))
        remaining[flip] = -remaining[flip]
    else:
        raise ValueError(
            "fixed point has no tangent direction of the hyperbolic weight"
        )
    return tuple(sorted(remaining, reverse=True))


def ambient_to_fiber_graph(
    ambient: WeightGraph,
    group: CircleGroup,
    tangent_data: Mapping[str, Sequence[int]],
) -> WeightGraph:
    """Transfer the ambient graph to the fiber.

    Round vertices and signs persist.  For the plain circle the weight-2
    spheres run along the normal direction and intersect the fiber in
    points, so those edges are deleted; for the projectivized circle every
    edge survives.  Square vertices pass through unchanged.
    """
    h = group.hyperbolic_weight
    for vertex, sign in ambient.rounds:
        if vertex not in tangent_data:
            raise ValueError(f"no tangent data for fixed point {vertex!r}")
        fiber = fiber_tangent_weights(tangent_data[vertex], group)
        if sign_of_fixed_point(fiber) != sign:
            raise ArithmeticError("fiber sign disagrees with the ambient sign")
    edges = tuple(
        (a, b, w)
        for a, b, w in ambient.edges
        if not (group is CircleGroup.SO2 and w == h)
    )
    return WeightGraph(ambient.rounds, ambient.squares, edges)


def fixed_surface_euler(
    ambient_c1_coeff: int, surface_degree: int, hyperplane_pairing: int
) -> int:
    """|Euler number| of the normal-in-fiber bundle over a fixed line.

    The normal bundle of the fiber is trivial along the surface, so the
    Chern numbers satisfy e = c1(ambient)|_C - c1(TC).

    >>> fixed_surface_euler(4, 2, 1)
    2
    """
    return abs(ambient_c1_coeff * hyperplane_pairing - surface_degree)


def complete_intersection_c1_coeff(
    projective_dim: int, degrees: Sequence[int] = ()
) -> int:
    """Anticanonical degree of a smooth complete intersection.

    >>> complete_intersection_c1_coeff(3)
    4
    >>> complete_intersection_c1_coeff(4, (2,))
    3
    """
    return projective_dim + 1 - sum(degrees)


# ---------------------------------------------------------------------------
# the Hirzebruch catalogue


# The fixed points of Hir(q;a,b) in ring order; edge k joins point k to k+1.
_RING = ("p1", "p2", "p4", "p3")


def _hirzebruch_ring(q: int, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Signs and edge weights around the ring of Hir(q;a,b), weight 1s kept."""
    s1 = 1 if a * b > 0 else -1
    s4 = 1 if b * (a + q * b) > 0 else -1
    return (s1, -s1, s4, -s4), (abs(a), abs(b), abs(a + q * b), abs(b))


def _ring_key(signs: Sequence[int], weights: Sequence[int]) -> tuple:
    """The canonical key of the ring's graph, its weight-1 edges dropped.

    The walk starts after the first dropped edge, and each dropped edge
    ends a path; with none, the walk is the whole cycle.
    """
    n = len(signs)
    start = next((k + 1 for k, w in enumerate(weights) if w < 2), 0)
    walks, walk = [], []
    for k in range(start - n, start):
        walk.append(signs[k])
        if weights[k] < 2:
            walks.append(walk)
            walk = []
        else:
            walk.append(weights[k])
    return tuple(sorted(_component_key(w) for w in [*walks, walk] if w)), ()


def _glued_ring(ring1: tuple, k1: int, ring2: tuple, k2: int) -> tuple | None:
    """The (signs, weights) ring of two Hirzebruch rings glued at points k1, k2.

    The sum runs along the arc left by each ring less its glued point.  It
    is None when ``connected_sum`` refuses: the glued signs must be opposite
    and the weight pairs equal.  A point's two weights are coprime, so they
    are equal only as 1, 1, where either orientation gives one key; else
    each loose edge meets the one of its weight, as ``connected_sum`` splices.
    """
    (signs1, weights1), (signs2, weights2) = ring1, ring2
    pair1, pair2 = (weights1[k1 - 1], weights1[k1]), (weights2[k2 - 1], weights2[k2])
    if signs1[k1] != -signs2[k2] or sorted(pair1) != sorted(pair2):
        return None
    if pair1[0] != pair2[1]:
        # Reflect ring2, point k to -k, so that its arc starts where the first arc ends.
        signs2, weights2, k2 = signs2[:1] + signs2[:0:-1], weights2[::-1], -k2 % 4
    return (
        signs1[k1 + 1 :] + signs1[:k1] + signs2[k2 + 1 :] + signs2[:k2],
        weights1[k1 + 1 :] + weights1[:k1] + weights2[k2 + 1 :] + weights2[:k2],
    )


def hirzebruch_graph(q: int, a: int, b: int) -> WeightGraph:
    """The tangential weight graph of the weight-(a, b) action on Hir(q).

    >>> hirzebruch_graph(1, 1, 0).squares
    (('s+', 1), ('s-', -1))
    """
    if q < 0:
        raise ValueError("the bundle twist q is non-negative")
    if (a, b) == (1, 0):
        return WeightGraph(squares=(("s+", q), ("s-", -q)))
    if a == 0 or b == 0 or math.gcd(abs(a), abs(b)) != 1 or a + q * b == 0:
        raise ValueError("weights outside both action regimes")
    signs, weights = _hirzebruch_ring(q, a, b)
    edges = tuple(
        (_RING[k], _RING[(k + 1) % 4], w) for k, w in enumerate(weights) if w >= 2
    )
    return WeightGraph(rounds=tuple(zip(_RING, signs)), edges=edges)


def connected_sum(
    g1: WeightGraph, v1: str, g2: WeightGraph, v2: str
) -> WeightGraph:
    """Glue two graphs at round vertices of opposite sign.

    The chosen vertices disappear; their incident edges are spliced in pairs
    of equal weight (deterministically, sorted by weight then far endpoint),
    and everything else is carried over with ids prefixed a. and b.
    """
    s1, s2 = g1.sign_of(v1), g2.sign_of(v2)
    if s1 != -s2:
        raise ValueError("glued vertices must have opposite signs")
    if g1.incident_weights(v1) != g2.incident_weights(v2):
        raise ValueError("glued vertices must have equal edge-weight multisets")

    def split(g: WeightGraph, v: str, prefix: str):
        loose, kept = [], []
        for a, b, w in g.edges:
            if v == a:
                loose.append((w, prefix + b))
            elif v == b:
                loose.append((w, prefix + a))
            else:
                kept.append((prefix + a, prefix + b, w))
        return sorted(loose), kept

    loose1, kept1 = split(g1, v1, "a.")
    loose2, kept2 = split(g2, v2, "b.")
    spliced = [
        (end1, end2, w1) for (w1, end1), (_, end2) in zip(loose1, loose2)
    ]
    rounds = tuple(
        ("a." + i, s) for i, s in g1.rounds if i != v1
    ) + tuple(("b." + i, s) for i, s in g2.rounds if i != v2)
    squares = tuple(("a." + i, e) for i, e in g1.squares) + tuple(
        ("b." + i, e) for i, e in g2.squares
    )
    if not rounds and not squares:
        warnings.warn("connected sum collapsed to the empty graph", UserWarning)
    return WeightGraph(rounds, squares, tuple(kept1 + kept2 + spliced))


def graphs_isomorphic(g1: WeightGraph, g2: WeightGraph) -> bool:
    """Label-preserving isomorphism of weight graphs: equal canonical keys."""
    return g1.canonical_key() == g2.canonical_key()


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    """A matched model and its diffeotype, or for no match the failed invariant."""

    model: str | None
    diffeotype: str | None
    reason: str | None = None

    @property
    def matched(self) -> bool:
        return self.model is not None


def _hirzebruch_diffeotype(q: int) -> str:
    return "S^2 x S^2" if q % 2 == 0 else "CP^2 # -CP^2"


def _canonical_name(q: int, a: int, b: int) -> str:
    # (a, b) and (-a, -b) give the identical graph; display the b > 0 twin.
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return f"Hir({q};{a},{b})"


def _hirzebruch_candidates(weights: Iterable[int]) -> list[tuple[int, int, int]]:
    """Every Hir(q;a,b), a, b != 0, whose edge weights fit inside ``weights``.

    An edge of weight 1 disappears, so |a|, |b| and |a+qb| are drawn from
    the weights and 1, and q = (+-c - a)/b is solved for each such c instead
    of scanned.  {|a|, |b|, |b|, |a+qb|} without its 1s must lie in the
    edge-weight multiset ``weights``, as in any sum with Hir(q;a,b) as a
    factor; that is a count check against one tally of the weights.  The
    triples come sorted by q, |a|, |b|, a > 0 first, b > 0 first: the order
    in which the first match is reported.  For the largest weight w, every
    triple has |a|, |b| <= w and q|b| = |+-c - a| <= 2w.

    >>> _hirzebruch_candidates([])
    [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1), (2, 1, -1), (2, -1, 1)]
    """
    available = Counter(weights)
    magnitudes = set(available) | {1}

    def fits(m: int, needed: int) -> bool:
        return m == 1 or available[m] >= needed

    found = set()
    for mag_b in (m for m in magnitudes if fits(m, 2)):
        for mag_a in (m for m in magnitudes if fits(m, 1) and math.gcd(m, mag_b) == 1):
            # |a| = |b| only when both are 1, so only c can repeat either.
            for c in (m for m in magnitudes if fits(m, 1 + (m == mag_a) + 2 * (m == mag_b))):
                for a, b, a_plus_qb in itertools.product(
                    (mag_a, -mag_a), (mag_b, -mag_b), (c, -c)
                ):
                    q, rest = divmod(a_plus_qb - a, b)
                    if rest == 0 and q >= 0:
                        found.add((q, a, b))
    return sorted(found, key=lambda p: (p[0], abs(p[1]), abs(p[2]), p[1] < 0, p[2] < 0))


def _arc_profiles(signs: Sequence[int], weights: Sequence[int]) -> list[tuple]:
    """For each point k, the sorted (sign, incident weights) profiles of the ring less k."""
    profiles = [
        (signs[k], tuple(sorted(w for w in (weights[k - 1], weights[k]) if w >= 2)))
        for k in range(4)
    ]
    return [tuple(sorted(profiles[:k] + profiles[k + 1 :])) for k in range(4)]


def _connected_sum_match(
    g: WeightGraph, g_key: tuple, candidates: Sequence[tuple[int, int, int]]
) -> tuple[tuple[int, int, int], tuple[int, int, int]] | None:
    """The first pair of candidates, in order, with a sum isomorphic to ``g``.

    Gluing keeps every other point's (sign, incident weights) profile, so
    the sum's six profiles are those of two arcs, each a ring less its
    glued point.  An arc of the first factor leaves ``rest`` of ``g``'s
    profiles, the arc the second needs, found in an index of candidates'
    closed-form arc profiles.  Only a pair that passes is glued by
    ``_glued_ring`` and keyed against ``g_key``, the canonical key of ``g``.
    """
    target = sorted((s, g.incident_weights(i)) for i, s in g.rounds)
    rest = {
        tuple(target[n] for n in half): tuple(p for n, p in enumerate(target) if n not in half)
        for half in itertools.combinations(range(6), 3)
    }
    rings = [_hirzebruch_ring(*params) for params in candidates]
    arcs = [_arc_profiles(*ring) for ring in rings]
    by_arc: dict[tuple, list[tuple[int, int]]] = {}
    for j, k in itertools.product(range(len(rings)), range(4)):
        by_arc.setdefault(arcs[j][k], []).append((j, k))
    for i, ring in enumerate(rings):
        pairs = []
        for k1, arc in enumerate(arcs[i]):
            pairs += [(j, k1, k2) for j, k2 in by_arc.get(rest.get(arc), ()) if j >= i]
        for j, k1, k2 in sorted(pairs):
            glued = _glued_ring(ring, k1, rings[j], k2)
            if glued is not None and _ring_key(*glued) == g_key:
                return candidates[i], candidates[j]
    return None


def classify_fiber(g: WeightGraph) -> Classification:
    """Match a fiber graph against Hirzebruch actions and their sums.

    Two fixed surfaces with Euler numbers q and -q and nothing else are
    Hir(q;1,0).  Otherwise every Hir(q;a,b) has four fixed points and every
    two-term connected sum six, both with as many + signs as - signs, so
    other graphs are rejected at once.  The search then runs over exactly
    the Hir(q;a,b) whose edge weights fit among the graph's, so its cost
    depends on the number of distinct weights, not on their size.  No
    graph is built: a four-point graph is compared with the closed-form
    key of each candidate whose weights equal its own, and a six-point one
    with the keys of the glued rings of candidate pairs whose arc profiles
    fit its own (``_connected_sum_match``).  An unmatched graph is
    reported, not an error, with the invariant that failed as ``reason``,
    since the catalogue makes no completeness claim.
    """
    if g.squares:
        eulers = sorted(e for _, e in g.squares)
        if (
            not g.rounds
            and not g.edges
            and len(eulers) == 2
            and eulers[0] == -eulers[1]
        ):
            q = eulers[1]
            return Classification(f"Hir({q};1,0)", _hirzebruch_diffeotype(q))
        return Classification(None, None, "the fixed surfaces are not a lone +q/-q pair")

    count = len(g.rounds)
    if count not in (4, 6):
        return Classification(
            None, None, f"a match needs 4 or 6 round vertices, the graph has {count}"
        )
    plus = sum(s > 0 for _, s in g.rounds)
    if 2 * plus != count:
        return Classification(
            None, None, f"the signs are unbalanced ({plus} +, {count - plus} -)"
        )

    key = g.canonical_key()
    weights = sorted(w for _, _, w in g.edges)
    candidates = _hirzebruch_candidates(weights)
    if count == 4:
        for params in candidates:
            signs, ring = _hirzebruch_ring(*params)
            if sorted(w for w in ring if w >= 2) == weights and _ring_key(signs, ring) == key:
                return Classification(
                    _canonical_name(*params), _hirzebruch_diffeotype(params[0])
                )
    else:
        pair = _connected_sum_match(g, key, candidates)
        if pair is not None:
            names = " # ".join(_canonical_name(*params) for params in pair)
            types = " # ".join(f"({_hirzebruch_diffeotype(q)})" for q, _, _ in pair)
            return Classification(names, types)
    return Classification(
        None, None, "no Hir(q;a,b) or two-term connected sum is isomorphic"
    )


def check_almost_complex_obstruction(signature_of_form: int, euler_char: int) -> bool:
    """Whether the signature-Euler congruence mod 4 permits an almost
    complex structure.

    >>> check_almost_complex_obstruction(0, 6)
    False
    """
    return (signature_of_form - euler_char) % 4 == 0


# ---------------------------------------------------------------------------
# end-to-end case analysis


@dataclass(eq=False)
class ActionAnalysis:
    """Everything computed for one circle action on a 3-fold of flags."""

    partition: Partition
    kind: str
    group: CircleGroup
    basis: WeightedBasis
    signature: Signature
    locus: FixedLocus
    ambient_tangents: dict[str, tuple[int, ...]]
    ambient_graph: WeightGraph
    fiber_graph: WeightGraph


def _order_to_id(
    order: Sequence[str], sig: Signature, basis: WeightedBasis
) -> str:
    groups = []
    previous = 0
    for d in sig.dims:
        groups.append(
            ",".join(sorted(order[previous:d], key=basis.index_of))
        )
        previous = d
    return "|".join(groups)


def analyze_action(
    partition: Partition, kind: str, group: CircleGroup
) -> ActionAnalysis:
    """Fixed locus, tangent data, and both weight graphs for one action.

    ``kind`` selects the flag variety of the representation space: "full"
    (complete flags, 3-dimensional ambient), "proj" (the projective space of
    lines), or "lag" (the Lagrangian Grassmannian of the invariant form).
    """
    basis = so2_weight_basis(partition)
    n = partition.total
    omega = None
    c1_coeff = None
    if kind == "full":
        if n * (n - 1) // 2 != 3:
            raise ValueError("complete flags are 3-dimensional only for n = 3")
        sig = full_signature(n)
    elif kind == "proj":
        if n - 1 != 3:
            raise ValueError("the projective space is 3-dimensional only for n = 4")
        sig = Signature((1,), n)
        c1_coeff = complete_intersection_c1_coeff(n - 1)
    elif kind == "lag":
        if n != 4:
            raise ValueError("the Lagrangian Grassmannian is 3-dimensional only for n = 4")
        sig = Signature((n // 2,), n)
        omega = invariant_symplectic_form(partition)
        # Lag(C^4) is the quadric threefold.
        c1_coeff = complete_intersection_c1_coeff(4, (2,))
    else:
        raise ValueError(f"unknown flag variety kind {kind!r}")

    locus = fixed_flags(basis, sig, group, iso=omega)

    rounds = []
    tangents: dict[str, tuple[int, ...]] = {}
    sightings: Counter[tuple[str, str, int]] = Counter()
    for flag in locus.isolated:
        order = basis.permuted(flag.flag_order)
        if kind == "lag":
            local_form = permuted_form(omega, basis, flag.flag_order)
            weights = tangent_weights_lagrangian(order, local_form, group)
            targets = lagrangian_sphere_targets(order, local_form, group)
        else:
            weights = tuple(
                sorted(
                    difference_matrix(order, sig, group).entry_values(),
                    reverse=True,
                )
            )
            targets = exceptional_sphere_targets(order, sig, group)
        tangents[flag.id] = weights
        rounds.append((flag.id, sign_of_fixed_point(weights)))
        for _, swapped, weight in targets:
            other = _order_to_id(swapped, sig, basis)
            key = (min(flag.id, other), max(flag.id, other), weight)
            sightings[key] += 1

    if any(count != 2 for count in sightings.values()):
        raise ArithmeticError("an invariant sphere was not seen from both ends")

    squares = ()
    if locus.surfaces:
        if c1_coeff is None:
            raise NotImplementedError(
                "no Euler data for fixed surfaces in this ambient variety"
            )
        if len(locus.surfaces) != 2:
            raise NotImplementedError("expected a pair of fixed surfaces")
        euler = fixed_surface_euler(c1_coeff, 2, 1)
        first, second = sorted(s.id for s in locus.surfaces)
        squares = ((first, euler), (second, -euler))

    ambient = WeightGraph(tuple(rounds), squares, tuple(sightings))
    fiber = ambient_to_fiber_graph(ambient, group, tangents)
    return ActionAnalysis(
        partition=partition,
        kind=kind,
        group=group,
        basis=basis,
        signature=sig,
        locus=locus,
        ambient_tangents=tangents,
        ambient_graph=ambient,
        fiber_graph=fiber,
    )


def fiber_weight_graph(
    partition: Partition, kind: str, group: CircleGroup
) -> WeightGraph:
    """The tangential weight graph of the fiber for one case."""
    return analyze_action(partition, kind, group).fiber_graph
