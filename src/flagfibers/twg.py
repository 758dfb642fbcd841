"""Tangential weight graphs of circle actions on three-dimensional flag varieties.

Given an n-dimensional representation with its labeled circle-weight basis,
the circle acts on flag varieties of the representation space.  This module
locates the fixed flags (isolated points and projective-line families) by
the level at which each line of each weight eigenspace enters the flag,
reads the tangent weights and invariant two-spheres at each fixed point off
one chart pass, strings the spheres into a labeled graph, transfers the
graph from the ambient flag variety to the four-dimensional fiber, and
classifies the result against the catalogue of Hirzebruch-surface circle
actions and their equivariant connected sums.  ``analyze_action`` builds
the graph in one pass over the fixed points, with the label positions,
weights and chart index pairs found once per call, and ``to_json`` writes
the graph's JSON text directly.

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
from enum import Enum
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from . import _Record, brief_repr, json_fields, json_int

if TYPE_CHECKING:
    from .flags import Signature, SymplecticForm
    from .sl2reps import Partition, WeightedBasis


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

    >>> from flagfibers.flags import Signature
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


class IsolatedFixedFlag(_Record):
    """A rigid invariant flag: each level adds a group of weight vectors."""

    __slots__ = ("levels", "completion")

    def __init__(self, levels: tuple[tuple[str, ...], ...], completion: tuple[str, ...]):
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "completion", completion)

    @property
    def id(self) -> str:
        return "|".join(",".join(level) for level in self.levels)

    @property
    def flag_order(self) -> tuple[str, ...]:
        return tuple(
            label for level in self.levels for label in level
        ) + self.completion


class FixedSurface(_Record):
    """A projective line of invariant flags: a pencil inside a weight plane."""

    __slots__ = ("anchored", "pencil")

    def __init__(self, anchored: tuple[str, ...], pencil: tuple[str, str]):
        object.__setattr__(self, "anchored", anchored)
        object.__setattr__(self, "pencil", pencil)

    @property
    def id(self) -> str:
        inner = ",".join(self.pencil)
        if self.anchored:
            return f"C({','.join(self.anchored)};{inner})"
        return f"C({inner})"


class FixedLocus(_Record):
    __slots__ = ("isolated", "surfaces")

    def __init__(self, isolated: tuple[IsolatedFixedFlag, ...], surfaces: tuple[FixedSurface, ...]):
        object.__setattr__(self, "isolated", isolated)
        object.__setattr__(self, "surfaces", surfaces)


def form_partners(basis: WeightedBasis, omega: SymplecticForm) -> dict[str, str]:
    """The label of the one basis vector that each basis vector pairs with.

    Read from the nonzero entries of the Gram matrix, one in each row.  An
    invariant form pairs a vector of weight w with one of weight -w, so a
    coordinate span is isotropic exactly when it holds no label together
    with its partner.

    >>> from flagfibers.sl2reps import Partition, invariant_symplectic_form, so2_weight_basis
    >>> p = Partition((2, 1, 1))
    >>> form_partners(so2_weight_basis(p), invariant_symplectic_form(p))
    {'f1': 'f-1', 'f-1': 'f1', 'X2': 'Y2', 'Y2': 'X2'}
    """
    if omega.ambient != len(basis):
        raise ValueError("form and basis sizes differ")
    labels, weights = basis.labels, basis.weights
    partner: dict[str, str] = {}
    for i, j in omega.gram.integer_entries():
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

    An invariant flag is spanned level by level by weight vectors, so it is
    read off the level at which each line of each weight eigenspace enters;
    lines left to the completion enter at level ``len(sig.dims)``.  An
    eigenspace whose lines all enter together is rigid.  A plane whose two
    lines enter apart sweeps a projective-line family, a pencil; anything
    bigger is out of scope.  With the ``partner`` of each label under a form
    (:func:`form_partners`), only isotropic flags (and families of them)
    survive.
    """
    group.check_weights(basis.weights)
    if sig.ambient != len(basis):
        raise ValueError("signature ambient dimension must match the basis")

    position = {label: k for k, label in enumerate(basis.labels)}.__getitem__
    eigen: dict[int, list[str]] = {}
    for label, weight in zip(basis.labels, basis.weights):
        eigen.setdefault(weight, []).append(label)
    weights = sorted(eigen, reverse=True)
    depth = len(sig.dims)

    def isotropic(labels: Sequence[str]) -> bool:
        return partner is None or not any(partner[label] in labels for label in labels)

    # Entry levels, one sorted tuple per eigenspace, grown largest weight
    # first; a choice is kept with the room its levels have left, and the
    # completion counts as a level.
    room = tuple(b - a for a, b in zip((0, *sig.dims), (*sig.dims, sig.ambient)))
    choices: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = [((), room)]
    for w in weights:
        options = list(itertools.combinations_with_replacement(range(depth + 1), len(eigen[w])))
        grown = []
        for entries, left in choices:
            for entry in options:
                rest = list(left)
                for level in entry:
                    rest[level] -= 1
                    if rest[level] < 0:
                        break
                else:
                    grown.append(((*entries, entry), tuple(rest)))
        choices = grown

    isolated: list[tuple[tuple[int, ...], IsolatedFixedFlag]] = []
    surfaces: list[FixedSurface] = []
    # Latest entries first, that is least intersection dimensions first: this
    # fixes which refusal a locus open to both meets.
    for entries, _ in reversed(choices):
        levels: list[list[str]] = [[] for _ in range(depth + 1)]
        pencil = None
        for w, entry in zip(weights, entries):
            if entry[0] == entry[-1]:
                levels[entry[0]].extend(eigen[w])
            elif len(entry) == 2:
                if pencil is not None:
                    raise NotImplementedError(
                        "fixed locus with more than one pencil factor"
                    )
                pencil, completed = tuple(eigen[w]), entry[1] < depth
            else:
                raise NotImplementedError(
                    "fixed locus beyond isolated flags and line pencils"
                )

        if pencil is None:
            for level in levels:
                level.sort(key=position)
            *heads, completion = map(tuple, levels)
            top = [label for head in heads for label in head]
            if isotropic(top):
                order = tuple(map(position, (*top, *completion)))
                isolated.append((order, IsolatedFixedFlag(tuple(heads), completion)))
        else:
            anchored = tuple(label for level in levels[:depth] for label in level)
            # Each line of the pencil plane is self-isotropic, so every member
            # flag is isotropic when the anchored vectors span an isotropic
            # space with either pencil vector; the plane's own pairing matters
            # only if some level swallows the plane whole.
            parts = [pencil] if completed else [(label,) for label in pencil]
            if all(isotropic([*anchored, *part]) for part in parts):
                surfaces.append(FixedSurface(anchored, pencil))

    # Distinct flags have distinct orders, so the sort never compares flags.
    isolated.sort()
    surfaces.sort(key=lambda s: s.id)
    if len({s.id for s in surfaces}) != len(surfaces):
        raise NotImplementedError("coincident fixed-surface families")
    return FixedLocus(tuple(flag for _, flag in isolated), tuple(surfaces))


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


def _chart(sig: Signature, group: CircleGroup, partner: Mapping[str, str] | None):
    """Each direction's weight and sphere end at a fixed flag, in closed form (see the
    module docstring), as a function of the flag's labels and weights; the index pairs
    are found once.  With ``partner`` (:func:`form_partners`) it is the Lagrangian
    chart, where two sphere directions sharing a weight raise ``NotImplementedError``."""
    if partner is None:
        pairs = [(i - 1, j - 1) for i, j in chart_index_set(sig)]
    else:
        pairs = list(itertools.combinations_with_replacement(range(sig.top), 2))

    def directions(labels: Sequence[str], weights: Sequence[int]) -> list[tuple[int, tuple[str, ...]]]:
        chart = []
        if partner is None:
            for i, j in pairs:
                far = list(labels)
                far[i], far[j] = far[j], far[i]
                chart.append((group.scaled(weights[i] - weights[j]), tuple(far)))
            return chart
        across = [labels.index(partner[label]) for label in labels[: sig.top]]
        for i, j in pairs:
            far = list(labels)
            # Partners lie past the top n, so the swaps are disjoint, or one when i = j.
            far[i], far[across[j]] = far[across[j]], far[i]
            if i != j:
                far[j], far[across[i]] = far[across[i]], far[j]
            chart.append((-group.scaled(weights[i] + weights[j]), tuple(far)))
        spheres = [w for w, _ in chart if abs(w) >= 2]
        if len(set(spheres)) != len(spheres):
            raise NotImplementedError("sphere direction with multiplicity")
        return chart

    return directions


# ---------------------------------------------------------------------------
# weight graphs


def _validate_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("vertex signs are +1 or -1")
    return sign


def _require_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} are strings, got {brief_repr(value)}")
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


class WeightGraph(_Record):
    """Signed fixed points, Euler-labeled fixed surfaces, weighted spheres."""

    __slots__ = ("rounds", "squares", "edges")

    def __init__(
        self,
        rounds: tuple[tuple[str, int], ...] = (),
        squares: tuple[tuple[str, int], ...] = (),
        edges: tuple[tuple[str, str, int], ...] = (),
    ):
        rounds = tuple(sorted([(str(i), _validate_sign(s)) for i, s in rounds]))
        squares = tuple(sorted([(str(i), int(e)) for i, e in squares]))
        edges = tuple(sorted([(*sorted((str(a), str(b))), int(w)) for a, b, w in edges]))
        ids = [i for i, _ in rounds] + [i for i, _ in squares]
        if len(set(ids)) != len(ids):
            raise ValueError("vertex ids must be distinct")
        round_ids = {i for i, _ in rounds}
        degree = dict.fromkeys(round_ids, 0)
        for a, b, w in edges:
            if w < 2:
                raise ValueError("edge weights are at least 2")
            if a == b:
                raise ValueError("no self-loops")
            if a not in round_ids or b not in round_ids:
                raise ValueError("edges join round vertices only")
            degree[a] += 1
            degree[b] += 1
        if edges and max(degree.values()) > 2:
            raise ValueError("at most two edges meet a round vertex")
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "edges", edges)

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

    def to_json(self) -> str:
        """The graph as ``json.dumps(..., indent=2, sort_keys=True)`` writes it, and a
        newline; the json module's own encoder escapes the ids."""
        quote = encode_basestring_ascii
        sections = {
            "edges": [
                f'"ends": [\n        {quote(a)},\n        {quote(b)}\n      ],\n      "weight": {w}'
                for a, b, w in self.edges
            ],
            "round": [f'"id": {quote(i)},\n      "sign": "{"+-"[s < 0]}"' for i, s in self.rounds],
            "squares": [f'"euler": {e},\n      "id": {quote(i)}' for i, e in self.squares],
        }
        lines = []
        for key, items in sections.items():
            objects = ",\n".join(f"    {{\n      {item}\n    }}" for item in items)
            lines.append(f'  "{key}": [\n{objects}\n  ]' if items else f'  "{key}": []')
        return "{\n" + ",\n".join(lines) + "\n}\n"

    @staticmethod
    def from_json(text: str) -> "WeightGraph":
        """Read a graph; a document of the wrong shape raises ``ValueError``."""
        keys = ("round", "squares", "edges")
        lists = json_fields(json.loads(text, parse_int=json_int), "weight graph", keys)
        for key, value in zip(keys, lists):
            if not isinstance(value, list):
                raise ValueError(f'weight graph JSON "{key}" must be a list')
        rounds = []
        for v in lists[0]:
            i, sign = json_fields(v, "round vertex", ("id", "sign"))
            if sign not in ("+", "-"):
                raise ValueError(f'round vertex signs are "+" or "-", got {brief_repr(sign)}')
            rounds.append((_require_string(i, "round vertex ids"), 1 if sign == "+" else -1))
        squares = []
        for v in lists[1]:
            i, euler = json_fields(v, "square vertex", ("id", "euler"))
            if type(euler) is not int:
                raise ValueError(f"square vertex Euler numbers are integers, got {brief_repr(euler)}")
            squares.append((_require_string(i, "square vertex ids"), euler))
        edges = []
        for e in lists[2]:
            ends, weight = json_fields(e, "edge", ("ends", "weight"))
            if not isinstance(ends, list) or len(ends) != 2:
                raise ValueError(f"an edge has exactly two ends, got {brief_repr(ends)}")
            if type(weight) is not int:
                raise ValueError(f"edge weights are integers, got {brief_repr(weight)}")
            edges.append((*(_require_string(end, "edge ends") for end in ends), weight))
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


def _orders(items: Sequence) -> Iterator[tuple]:
    """Each distinct order of a multiset of items, once, least first.

    Each step swaps the last ascent with the last item after it that is
    larger, then reverses the tail (the next permutation in lexicographic
    order), so equal items are never reordered among themselves.

    >>> list(_orders("aba"))
    [('a', 'a', 'b'), ('a', 'b', 'a'), ('b', 'a', 'a')]
    """
    order = sorted(items)
    while True:
        yield tuple(order)
        k = len(order) - 2
        while k >= 0 and order[k] >= order[k + 1]:
            k -= 1
        if k < 0:
            return
        j = len(order) - 1
        while order[j] <= order[k]:
            j -= 1
        order[k], order[j] = order[j], order[k]
        order[k + 1 :] = order[:k:-1]


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
    for order in _orders(rest):
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


# The eight ways to read a four-point ring from a point, forward or reflected:
# the indices of its points in reading order, and of the edges between them.
_VIEWS = tuple(
    (tuple((k + d * i) % 4 for i in range(4)), tuple((k + d * i + (d - 1) // 2) % 4 for i in range(4)))
    for k in range(4)
    for d in (1, -1)
)


def _reading(signs: Sequence[int], weights: Sequence[int]) -> tuple[int, int, int] | None:
    """The least (q, a, b) whose ``_hirzebruch_ring`` is this four-point ring, if any.

    Rings are equal up to rotation and reflection.  Read from a point, the
    ring of Hir(q;a,b) has signs (s, -s, t, -t) and weights
    (|a|, |b|, |a+qb|, |b|); with b > 0, a = s|a| and a + qb = t|a+qb|
    fix q, and (q, -a, -b) has the same ring.

    >>> _reading(*_hirzebruch_ring(2, -1, 2))
    (2, 1, -2)
    """
    found = []
    for (p0, p1, p2, p3), (e0, e1, e2, e3) in _VIEWS:
        s, t, mag_a, b = signs[p0], signs[p2], weights[e0], weights[e1]
        if signs[p1] != -s or signs[p3] != -t or weights[e3] != b or math.gcd(mag_a, b) != 1:
            continue
        q, rest = divmod(t * weights[e2] - s * mag_a, b)
        if rest == 0 and q >= 0:
            # The reading is (q, |a|, b), or its twin (q, |a|, -b) when a < 0, so
            # (q, |a|, b, a < 0) sorts the readings in catalogue order.
            found.append((q, mag_a, b, s < 0))
    if not found:
        return None
    q, a, b, negated = min(found)
    return (q, a, -b) if negated else (q, a, b)


# Arc k of a six-point ring holds points k, k+1 and k+2 and is closed by a
# point that takes the cut edges k + 2 and k - 1: the points and edges it reads.
_ARCS = tuple(
    (itemgetter(k, (k + 1) % 6, (k + 2) % 6), itemgetter(k, (k + 1) % 6, (k + 2) % 6, (k + 5) % 6))
    for k in range(6)
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


class Classification(_Record):
    """A matched model and its diffeotype, or for no match the failed invariant."""

    __slots__ = ("model", "diffeotype", "reason")

    def __init__(self, model: str | None, diffeotype: str | None, reason: str | None = None):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "diffeotype", diffeotype)
        object.__setattr__(self, "reason", reason)

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

    # Each reading is kept with its catalogue order, by which matches compare.
    readings: dict[tuple, tuple[tuple, tuple[int, int, int]] | None] = {}
    cuts = ((0,),) if count == 4 else ((0, 3), (1, 4), (2, 5))
    matches = set()
    for signs, weights in _rings(g):
        arcs = [(signs, weights)] if count == 4 else []
        for points, edges in _ARCS if count == 6 else ():
            # The closing point is signed to balance the arc (+-3 reads as nothing).
            a, b, c = points(signs)
            arcs.append(((a, b, c, -a - b - c), edges(weights)))
        params = []
        for ring in arcs:
            if ring not in readings:
                found = _reading(*ring)
                readings[ring] = found and (_catalogue_order(found), found)
            params.append(readings[ring])
        for cut in cuts:
            factors = [params[k] for k in cut]
            if all(factors):
                matches.add(tuple(sorted(factors)))
    if matches:
        factors = [p for _, p in min(matches)]
        types = [_hirzebruch_diffeotype(q) for q, _, _ in factors]
        if len(types) == 2:
            types = [f"({t})" for t in types]
        return Classification(" # ".join(_canonical_name(*p) for p in factors), " # ".join(types))
    return Classification(
        None, None, "no Hir(q;a,b) or two-term connected sum is isomorphic"
    )


# ---------------------------------------------------------------------------
# end-to-end case analysis


class ActionAnalysis:
    """Everything computed for one circle action on a 3-fold of flags."""

    def __init__(
        self,
        partition: Partition,
        kind: str,
        group: CircleGroup,
        basis: WeightedBasis,
        signature: Signature,
        locus: FixedLocus,
        ambient_tangents: dict[str, tuple[int, ...]],
        ambient_graph: WeightGraph,
        fiber_graph: WeightGraph,
    ):
        self.partition, self.kind, self.group, self.basis = partition, kind, group, basis
        self.signature, self.locus, self.ambient_tangents = signature, locus, ambient_tangents
        self.ambient_graph, self.fiber_graph = ambient_graph, fiber_graph


def analyze_action(
    partition: Partition, kind: str, group: CircleGroup
) -> ActionAnalysis:
    """Fixed locus, tangent data, and both weight graphs for one action.

    ``kind`` selects the flag variety of the representation space: "full"
    (complete flags, 3-dimensional ambient), "proj" (the projective space of
    lines), or "lag" (the Lagrangian Grassmannian of the invariant form).
    """
    from .flags import Signature, full_signature
    from .sl2reps import invariant_symplectic_form, so2_weight_basis

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

    position = {label: k for k, label in enumerate(basis.labels)}.__getitem__
    weight_of = dict(zip(basis.labels, basis.weights)).__getitem__
    bounds = tuple(zip((0, *sig.dims), sig.dims))
    chart = _chart(sig, group, partner)
    rounds = []
    tangents: dict[str, tuple[int, ...]] = {}
    sightings: dict[tuple[str, str, int], int] = {}
    for flag in locus.isolated:
        vertex, order = flag.id, flag.flag_order
        directions = chart(order, tuple(map(weight_of, order)))
        weights = tuple(sorted([w for w, _ in directions], reverse=True))
        tangents[vertex] = weights
        rounds.append((vertex, sign_of_fixed_point(weights)))
        # Weight-1 directions are principal and weight-0 ones lie along fixed
        # surfaces, so only the others close to invariant spheres.
        for weight, far in directions:
            if abs(weight) < 2:
                continue
            other = "|".join([",".join(sorted(far[a:b], key=position)) for a, b in bounds])
            key = (vertex, other, abs(weight)) if vertex < other else (other, vertex, abs(weight))
            sightings[key] = sightings.get(key, 0) + 1

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

