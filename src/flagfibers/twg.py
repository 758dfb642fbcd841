"""Tangential weight graphs of circle actions on three-dimensional flag varieties.

Given an n-dimensional representation with its labeled circle-weight basis,
the circle acts on flag varieties of the representation space.  This module
locates the fixed flags (isolated points and projective-line families),
reads the tangent weights and invariant two-spheres at each fixed point off
one chart pass, strings the spheres into a labeled graph, transfers the
graph from the ambient flag variety to the four-dimensional fiber, and
classifies the result against the catalogue of Hirzebruch-surface circle
actions and their equivariant connected sums.

The tangent data is in closed form, with no linear algebra.  At the fixed
flag spanned by weight vectors v_1, ..., v_n of weights w_1, ..., w_n, the
chart direction (i, j) moving v_j toward v_i has weight w_i - w_j (halved
for the projectivized circle), and its sphere ends at the flag with v_i and
v_j swapped.  At a fixed Lagrangian L = <v_1, ..., v_n> of C^2n,
T_L Lag = Sym^2(L*), so the weights are -(w_i + w_j), i <= j, halved
likewise; the sphere of direction {i, j} ends where v_i swaps with the
form's partner of v_j and v_j with that of v_i.  The partner is the one
basis vector each pairs with.

The catalogue graphs Hir(q; a, b) live on four fixed points p1, p2, p3, p4
arranged in a cycle p1-p2-p4-p3 with edge weights |a|, |b|, |a+qb|, |b| and
signs s1 = sign(ab), s2 = -s1, s4 = sign(b(a+qb)), s3 = -s4; weight-1 edges
are principal and disappear.  The (a, b) = (1, 0) regime instead rotates the
fibers of a line bundle of Euler number q and fixes two surfaces.
Graph isomorphism is canonical-key equality: every component is a path or
a cycle, named by its least sign/weight sequence (``canonical_key``; a
cycle's least rotation comes from Booth's linear scan).  Classification
builds no graph and lists no candidates: it closes the graph into rings
with weight-1 edges and reads (q, a, b) off each four-point ring in closed
form; a two-term connected sum is a six-point ring that cuts into two arcs,
each reading as a factor once a point closes it.
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


def form_partners(basis: WeightedBasis, omega: SymplecticForm) -> dict[str, str]:
    """The label of the one basis vector that each basis vector pairs with.

    Read from the nonzero entries of the Gram matrix, one in each row.  An
    invariant form pairs a vector of weight w with one of weight -w, so a
    coordinate span is isotropic exactly when it holds no label together
    with its partner.

    >>> p = Partition((2, 1, 1))
    >>> form_partners(so2_weight_basis(p), invariant_symplectic_form(p))
    {'f1': 'f-1', 'f-1': 'f1', 'X2': 'Y2', 'Y2': 'X2'}
    """
    if omega.ambient != len(basis):
        raise ValueError("form and basis sizes differ")
    labels, weights = basis.labels, basis.weights
    partner: dict[str, str] = {}
    for i, j in omega.gram.nonzero_positions():
        if labels[j] in partner:
            raise NotImplementedError("the form pairs a basis vector with more than one other")
        if weights[i] != -weights[j]:
            raise ArithmeticError("the form does not respect the weights")
        partner[labels[j]] = labels[i]
    return partner


def fixed_flags(
    basis: WeightedBasis,
    sig: Signature,
    group: CircleGroup,
    partner: Mapping[str, str] | None = None,
) -> FixedLocus:
    """All invariant flags of the given signature, grouped by rigidity.

    An invariant flag decomposes each subspace along the weight eigenspaces;
    the possible intersection-dimension profiles are enumerated directly.
    Profiles choosing a line inside a two-dimensional eigenspace sweep a
    projective-line family; anything bigger is out of scope.  With the
    ``partner`` of each label under a form (:func:`form_partners`), only
    isotropic flags (and families of them) survive.
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

    def isotropic(labels: Sequence[str]) -> bool:
        return partner is None or not any(partner[label] in labels for label in labels)

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
            if not isotropic(flag.flag_order[: sig.top]):
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
            if not all(isotropic([*anchored, *part]) for part in parts):
                continue
            surfaces.append(FixedSurface(tuple(anchored), pencil))

    isolated.sort(key=lambda f: tuple(basis.index_of(l) for l in f.flag_order))
    surfaces.sort(key=lambda s: s.id)
    if len({s.id for s in surfaces}) != len(surfaces):
        raise NotImplementedError("coincident fixed-surface families")
    return FixedLocus(tuple(isolated), tuple(surfaces))


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


def chart_directions(
    order: WeightedBasis,
    sig: Signature,
    group: CircleGroup,
    partner: Mapping[str, str] | None = None,
) -> list[tuple[int, tuple[str, ...]]]:
    """The weight and far end of each chart direction at the fixed flag ``order`` spans.

    In a flag chart, direction (i, j) of :func:`chart_index_set` has weight
    scaled(w_i - w_j), and its invariant sphere ends at the flag with the
    i-th and j-th vectors swapped.  With ``partner`` (see
    :func:`form_partners`) the chart is that of the Lagrangian locus at the
    span L of the first n vectors, where T_L Lag = Sym^2(L*): direction
    {i <= j} has weight -scaled(w_i + w_j) and ends where v_i swaps with the
    partner of v_j and v_j with the partner of v_i.  Two Lagrangian
    directions sharing a weight of absolute value >= 2 span a plane of
    sphere directions, whose ends are not followed: that raises
    ``NotImplementedError``.

    >>> basis = so2_weight_basis(Partition((4,)))
    >>> chart_directions(basis, Signature((1,), 4), CircleGroup.PSO2)[0]
    (-1, ('f1', 'f3', 'f-1', 'f-3'))
    """
    if len(order) != sig.ambient:
        raise ValueError("basis size must match the ambient dimension")
    group.check_weights(order.weights)
    labels, weights = order.labels, order.weights

    def swapped(*pairs: tuple[int, int]) -> tuple[str, ...]:
        far = list(labels)
        for a, b in pairs:
            far[a], far[b] = far[b], far[a]
        return tuple(far)

    if partner is None:
        return [
            (group.scaled(weights[i - 1] - weights[j - 1]), swapped((i - 1, j - 1)))
            for i, j in chart_index_set(sig)
        ]
    n = sig.top
    if sig.dims != (n,) or 2 * n != sig.ambient:
        raise ValueError("a Lagrangian chart needs the signature (n) in C^2n")
    top = labels[:n]
    if any(partner[label] in top for label in top):
        raise ValueError("flag is not Lagrangian for the given form")
    across = [labels.index(partner[label]) for label in top]
    directions = [
        # A set of the two swaps, which coincide when i = j.
        (-group.scaled(weights[i] + weights[j]), swapped(*{(i, across[j]), (j, across[i])}))
        for i, j in itertools.combinations_with_replacement(range(n), 2)
    ]
    if any(abs(w) >= 2 and count > 1 for w, count in Counter(w for w, _ in directions).items()):
        raise NotImplementedError("sphere direction with multiplicity")
    return directions


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


def _component_key(signs: Sequence[int], weights: Sequence[int]) -> tuple[int, ...]:
    """The least sign/weight sequence naming one component from a walk of it.

    A path has one weight fewer than signs and is read in both directions.
    A cycle has as many, weight k joining point k to the next and the last
    back to the start; it is read from its least rotation in either
    direction.
    """
    if len(weights) < len(signs):
        walk = tuple(x for pair in zip(signs, weights) for x in pair) + (signs[-1],)
        return min(walk, walk[::-1])
    forward = list(zip(signs, weights))
    backward = [(signs[-j], weights[-j - 1]) for j in range(len(signs))]
    return min(
        tuple(x for pair in _least_rotation(d) for x in pair) for d in (forward, backward)
    )


def _walks(g: WeightGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (signs, weights) walk of each component of ``g``, as ``_component_key`` reads it.

    At most two edges meet a round vertex, so each component is a path or
    a cycle, a double edge included.
    """
    sign = dict(g.rounds)
    ends: dict[str, list[tuple[int, str, int]]] = {i: [] for i in sign}
    for n, (a, b, w) in enumerate(g.edges):
        ends[a].append((n, b, w))
        ends[b].append((n, a, w))
    seen: set[str] = set()
    walks = []
    # Path ends come first, so a walk from a vertex of degree 2 is a cycle.
    for start in sorted(sign, key=lambda i: len(ends[i]) == 2):
        if start in seen:
            continue
        seen.add(start)
        signs, weights, v, came_by = [sign[start]], [], start, None
        while steps := [e for e in ends[v] if e[0] != came_by]:
            came_by, v, w = steps[0]
            weights.append(w)
            if v == start:
                break
            signs.append(sign[v])
            seen.add(v)
        walks.append((tuple(signs), tuple(weights)))
    return walks


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

        >>> hirzebruch_graph(2, -1, 2).canonical_key()
        (((-1, 2, -1, 3, 1, 2, 1),), ())
        """
        components = sorted(_component_key(*w) for w in _walks(self))
        return tuple(components), tuple(sorted(e for _, e in self.squares))

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


def _rings(g: WeightGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (signs, weights) ring whose edges of weight >= 2 are exactly ``g``'s.

    A graph that is one cycle is its own ring.  Otherwise its components
    must all be paths, and a ring strings them in some order and direction
    with weight-1 edges between.  The longest path leads in one direction,
    since rings are read up to rotation and reflection.
    """
    walks = sorted(_walks(g), key=lambda w: -len(w[0]))
    if any(len(weights) == len(signs) for signs, weights in walks):
        return walks if len(walks) == 1 else []
    (lead_signs, lead_weights), *rest = walks
    rings = []
    for order in set(itertools.permutations(rest)):
        for paths in itertools.product(*({p, (p[0][::-1], p[1][::-1])} for p in order)):
            signs, weights = lead_signs, lead_weights + (1,)
            for more_signs, more_weights in paths:
                signs, weights = signs + more_signs, weights + more_weights + (1,)
            rings.append((signs, weights))
    return rings


def _catalogue_order(params: tuple[int, int, int]) -> tuple:
    """The order in which Hir(q;a,b) are tried: q, |a|, |b|, a > 0 first, b > 0 first."""
    q, a, b = params
    return q, abs(a), abs(b), a < 0, b < 0


def _reading(signs: Sequence[int], weights: Sequence[int]) -> tuple[int, int, int] | None:
    """The least (q, a, b) whose ``_hirzebruch_ring`` is this four-point ring, if any.

    Rings are equal up to rotation and reflection.  Read from a point, the
    ring of Hir(q;a,b) has signs (s, -s, t, -t) and weights
    (|a|, |b|, |a+qb|, |b|); with b > 0, a = s|a| and a + qb = t|a+qb|
    fix q, and (q, -a, -b) has the same ring.

    >>> _reading(*_hirzebruch_ring(2, -1, 2))
    (2, 1, -2)
    """
    signs, weights = tuple(signs), tuple(weights)
    reflected = (signs[:1] + signs[:0:-1], weights[::-1])
    found = []
    for ring_signs, ring_weights in (signs, weights), reflected:
        for k in range(4):
            (s, minus_s, t, minus_t) = ring_signs[k:] + ring_signs[:k]
            mag_a, b, c, b_again = ring_weights[k:] + ring_weights[:k]
            if minus_s != -s or minus_t != -t or b != b_again or math.gcd(mag_a, b) != 1:
                continue
            a = s * mag_a
            q, rest = divmod(t * c - a, b)
            if rest == 0 and q >= 0:
                found.append((q, a, b) if a > 0 else (q, -a, -b))
    return min(found, key=_catalogue_order, default=None)


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


def classify_fiber(g: WeightGraph) -> Classification:
    """Match a fiber graph against Hirzebruch actions and their sums.

    Two fixed surfaces with Euler numbers q and -q and nothing else are
    Hir(q;1,0).  Otherwise every Hir(q;a,b) has four fixed points and every
    two-term connected sum six, both with as many + signs as - signs, so
    other graphs are rejected at once.  The parameters are then read off
    the rings the graph closes into (``_rings``), and no graph is built.  A
    four-point ring is read as a Hir(q;a,b) directly (``_reading``).  A
    six-point ring is a sum when it cuts into two three-point arcs, each
    of which, closed by a point joined by the two cut edges, reads as a
    factor.  That is at most 120 orders of at most 6 components, whatever
    the weights.  The least reading, or least sorted pair of readings, in
    the order q, |a|, |b|, a > 0 first, b > 0 first, names the match.  An
    unmatched graph is reported, not an error, with the invariant that
    failed as ``reason``, since the catalogue makes no completeness claim.
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

    readings: dict[tuple, tuple[int, int, int] | None] = {}
    matches = set()
    for signs, weights in _rings(g):
        if count == 4:
            cuts = [[(signs, weights)]]
        else:
            # Cut edges e - 1 and e + 2; each arc is closed by a point that takes
            # both, signed to balance the arc (a sign of +-3 reads as nothing).
            cuts = []
            for e in range(3):
                s, w = signs[e:] + signs[:e], weights[e:] + weights[:e]
                cuts.append(
                    [(s[h : h + 3] + (-sum(s[h : h + 3]),), w[h : h + 3] + (w[h - 1],)) for h in (0, 3)]
                )
        for factors in cuts:
            for ring in factors:
                if ring not in readings:
                    readings[ring] = _reading(*ring)
            params = tuple(readings[ring] for ring in factors)
            if all(params):
                matches.add(params)
    if matches:
        factors = min(
            (sorted(m, key=_catalogue_order) for m in matches),
            key=lambda m: [_catalogue_order(p) for p in m],
        )
        types = [_hirzebruch_diffeotype(q) for q, _, _ in factors]
        if len(types) == 2:
            types = [f"({t})" for t in types]
        return Classification(" # ".join(_canonical_name(*p) for p in factors), " # ".join(types))
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
    n = partition.total
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
        # Lag(C^4) is the quadric threefold.
        c1_coeff = complete_intersection_c1_coeff(4, (2,))
    else:
        raise ValueError(f"unknown flag variety kind {kind!r}")
    # Built only once n fits the kind: both grow with n.
    basis = so2_weight_basis(partition)
    partner = form_partners(basis, invariant_symplectic_form(partition)) if kind == "lag" else None

    locus = fixed_flags(basis, sig, group, partner)

    # Before the spheres, which a locus of the wrong shape leaves unpaired.
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

    rounds = []
    tangents: dict[str, tuple[int, ...]] = {}
    sightings: Counter[tuple[str, str, int]] = Counter()
    for flag in locus.isolated:
        directions = chart_directions(basis.permuted(flag.flag_order), sig, group, partner)
        weights = tuple(sorted((w for w, _ in directions), reverse=True))
        tangents[flag.id] = weights
        rounds.append((flag.id, sign_of_fixed_point(weights)))
        # Weight-1 directions are principal and weight-0 ones lie along fixed
        # surfaces, so only the others close to invariant spheres.
        for weight, far_end in directions:
            if abs(weight) < 2:
                continue
            other = _order_to_id(far_end, sig, basis)
            key = (min(flag.id, other), max(flag.id, other), abs(weight))
            sightings[key] += 1

    if any(count != 2 for count in sightings.values()):
        raise ArithmeticError("an invariant sphere was not seen from both ends")

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
