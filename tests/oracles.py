"""Independent brute-force oracles used to pin expected values in tests.

Everything here deliberately avoids the library's own code paths:

- signed-permutation *matrices* with integer matrix products stand in for
  window composition;
- group order/length comes from breadth-first search over the Cayley graph of
  those matrices;
- Bruhat order comes from reachability along length-increasing reflection
  edges;
- minimal double-coset representatives come from the whole orbit u*w*v
  and its shortest member by BFS length;
- whole position posets come from the library's earlier route: the group
  closed with ``WeylElement`` products and sorted by computed length, each
  element's representative by descent stripping with products, the Bruhat
  table from the fieldwise counting criterion on every later pair, and
  covers and down-sets from scans over every pair of cosets;
- up-sets also come from the library's earlier loop over every Bruhat count
  field, and the w0- and left actions from stripping every product to its
  representative, the left masks from the pairs c < d of that left action;
- quotients W^eta also come from the library's earlier closure: every
  layer inverted whole and filtered by the right descents of each inverse;
- flag positions come from exhaustive permutation search against the table of
  intersection dimensions, computed by fraction-exact Gaussian elimination,
  and from the library's earlier route: the jump pattern of those dimensions,
  one elimination of the F basis per level of H, with isotropic flags extended
  to full ones through an adapted basis of the perps, each the kernel of
  U^T G solved over Q(i) (``omega_perp`` on ``gq_nullspace``);
- the fraction-free elimination step is the library's earlier kernel, which
  works every step over the whole vector;
- linear systems are solved, and kernels found, by plain Gauss-Jordan
  elimination over Q(i), and isotropy is u^T G v multiplied out there;
- reduced words come from peeling the smallest right descent;
- balanced ideals come from filtering all 2^n subsets of a poset, and, for
  larger posets, from the antichain route: every ideal of at most half the
  poset (``all_ideals``), kept when w0 maps it onto its complement;
- downward closure is the scan over every pair of a poset's order relation,
  and a principal ideal is read off the down-set bitset one bit at a time;
- minimal Anosov types come from one Weyl-group product per member and
  simple reflection;
- weight-graph isomorphism comes from backtracking over vertex matchings
  that respect sign, incident weights and adjacency, the library's earlier
  route before canonical keys;
- canonical keys come from the library's earlier route: each cycle keyed
  by the least of all its rotations in both directions, each built as a
  fresh tuple, so a k-cycle costs O(k^2);
- the Hirzebruch candidates of a weight multiset come from scanning every
  triple up to the largest weight and subtracting its edge-weight multiset
  from the graph's;
- fiber classifications come from the exhaustive catalogue search: every
  Hir(q;a,b) up to the graph's largest edge weight, and every pair of them
  for connected sums (graphs are built with the library's
  ``hirzebruch_graph`` and ``connected_sum`` and compared by the
  backtracking isomorphism oracle);
- ``zeros``, ``from_columns``, ``column``, ``transpose``, ``neg``, ``matmul``
  and ``is_zero`` are the matrix operations only the tests need, written on
  the library's stored column form rather than kept in it, with the
  library's earlier general normaliser ``make`` (any scale sign) and its
  rows of D times a matrix ``scaled_rows``;
- ``isotropic_signature`` and ``flag_to_json`` write the flags only the
  tests need to write;
- ``chart_directions`` is the library's chart with the checks only the
  tests ask for: basis size, weights, and a Lagrangian chart's shape and
  isotropy;
- ``index_of``, ``weight_of`` and ``permuted`` read a weight basis by label,
  as only the tests need to;
- the invariant pairing on the circle basis comes from expanding each
  f_w = (X - iY)^a (X + iY)^b in monomials and multiplying out
  ``basis^T @ pairing @ basis`` with the library's exact matrices;
- the census of three-dimensional flag varieties comes from scanning every
  index subset at every rank;
- fixed flags come from every ordering of the weight basis, cut into the
  signature's blocks: an ordering that keeps every weight eigenspace in one
  block is an isolated flag, and one that splits exactly one plane and
  nothing else lies on a pencil;
- tangent weights and sphere ends of the Lagrangian locus come from the
  library's earlier route: the Gram matrix reindexed to the fixed point,
  and the linearized isotropy equations of the chart solved exactly, one
  weight class at a time, with ``gq_nullspace``;
- weight-graph JSON comes from the library's earlier route: a dict of the
  three sections written by ``json.dumps(..., indent=2, sort_keys=True)``;
- ``check_almost_complex_obstruction`` is the signature-Euler congruence
  mod 4, which only the tests ask.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from flagfibers.dims import FlagVarietyDescriptor, GroupFamily, flag_dim
from flagfibers.flags import (
    ExactFlag,
    ExactMatrix,
    GaussianRational,
    Signature,
    SymplecticForm,
    _dot,
    matrix_to_json,
)
from flagfibers.ideals import Ideal
from flagfibers.sl2reps import WeightedBasis
from flagfibers.twg import (
    CircleGroup,
    Classification,
    WeightGraph,
    _canonical_name,
    _chart,
    _hirzebruch_diffeotype,
    connected_sum,
    hirzebruch_graph,
)
from flagfibers.weyl import (
    DoubleCoset,
    PositionPoset,
    RootSystem,
    WeylElement,
    _bruhat_counts,
    _compose,
    _descends,
    _inverse,
    _min_rep,
    _s_times,
    _slots,
    _times_s,
    identity,
    longest_element,
    opposition_involution,
    simple_reflection,
    simple_reflections,
)

Matrix = tuple[tuple[int, ...], ...]
Window = tuple[int, ...]


# ---------------------------------------------------------------------------
# signed permutation matrices


def window_to_matrix(window: Window) -> Matrix:
    n = len(window)
    rows = [[0] * n for _ in range(n)]
    for j, image in enumerate(window):
        rows[abs(image) - 1][j] = 1 if image > 0 else -1
    return tuple(tuple(r) for r in rows)


def matrix_to_window(m: Matrix) -> Window:
    n = len(m)
    window = []
    for j in range(n):
        entries = [(i, m[i][j]) for i in range(n) if m[i][j] != 0]
        assert len(entries) == 1
        i, sign = entries[0]
        window.append((i + 1) * (1 if sign > 0 else -1))
    return tuple(window)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def multiply_windows_via_matrices(w1: Window, w2: Window) -> Window:
    return matrix_to_window(mat_mul(window_to_matrix(w1), window_to_matrix(w2)))


# ---------------------------------------------------------------------------
# Cayley-graph BFS


def generator_windows(family: str, rank: int) -> list[Window]:
    n = rank + 1 if family == "A" else rank
    gens = []
    for i in range(1, rank + 1):
        window = list(range(1, n + 1))
        if family == "C" and i == rank:
            window[-1] = -window[-1]
        else:
            window[i - 1], window[i] = window[i], window[i - 1]
        gens.append(tuple(window))
    return gens


def bfs_lengths(
    family: str, rank: int, typeset: frozenset[int] = frozenset()
) -> dict[Window, int]:
    """Word length of every element of the subgroup generated by the s_i
    with i not in ``typeset`` (the whole group by default), by BFS."""
    gens = [
        window_to_matrix(w)
        for i, w in enumerate(generator_windows(family, rank), start=1)
        if i not in typeset
    ]
    n = rank + 1 if family == "A" else rank
    ident = window_to_matrix(tuple(range(1, n + 1)))
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                mg = mat_mul(m, g)
                if mg not in dist:
                    dist[mg] = dist[m] + 1
                    nxt.append(mg)
        frontier = nxt
    return {matrix_to_window(m): d for m, d in dist.items()}


def bruhat_order_oracle(family: str, rank: int) -> dict[tuple[Window, Window], bool]:
    """All Bruhat comparisons, as reachability along reflection edges.

    Edges go from u to u*t for every reflection t (conjugate of a generator)
    that increases BFS length; the Bruhat order is the reflexive-transitive
    closure.
    """
    lengths = bfs_lengths(family, rank)
    elements = [window_to_matrix(w) for w in lengths]
    gens = [window_to_matrix(w) for w in generator_windows(family, rank)]
    reflections = set()
    for m in elements:
        inv = tuple(zip(*m))  # inverse of a signed permutation matrix is its transpose
        for g in gens:
            reflections.add(mat_mul(mat_mul(m, g), inv))
    succ: dict[Window, list[Window]] = {}
    for m in elements:
        w = matrix_to_window(m)
        succ[w] = []
        for t in reflections:
            mt = matrix_to_window(mat_mul(m, t))
            if lengths[mt] > lengths[w]:
                succ[w].append(mt)
    closure: dict[tuple[Window, Window], bool] = {}
    for start in succ:
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for w in succ:
            closure[(start, w)] = w in seen
    return closure


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for ``w``, produced by greedy descent peeling.

    Repeatedly strips the smallest right descent, so the result is
    deterministic.

    >>> from flagfibers.weyl import Family
    >>> reduced_word(WeylElement(RootSystem(Family.A, 2), (3, 2, 1)))
    (1, 2, 1)
    """
    window, one = w.window, identity(w.system).window
    letters: list[int] = []
    while window != one:
        i = next(i for i in w.system.simple_indices if _descends(window, i))
        letters.append(i)
        window = _times_s(window, i)
    return tuple(reversed(letters))


def double_coset_min_oracle(
    family: str, rank: int, theta: frozenset[int], eta: frozenset[int]
) -> dict[Window, Window]:
    """The shortest element of W_theta * w * W_eta, for every w.

    Each orbit is built whole from matrix products u*w*v over both parabolic
    subgroups; its minimum is taken by (BFS length, window).
    """
    lengths = bfs_lengths(family, rank)
    left = [window_to_matrix(u) for u in bfs_lengths(family, rank, theta)]
    right = [window_to_matrix(v) for v in bfs_lengths(family, rank, eta)]
    out: dict[Window, Window] = {}
    for w in lengths:
        if w in out:
            continue
        m = window_to_matrix(w)
        orbit = {matrix_to_window(mat_mul(mat_mul(u, m), v)) for u in left for v in right}
        lowest = min(orbit, key=lambda x: (lengths[x], x))
        out.update(dict.fromkeys(orbit, lowest))
    return out


# ---------------------------------------------------------------------------
# position posets by Weyl-group products and pair scans


def counts_leq(low: tuple[int, ...], high: tuple[int, ...]) -> bool:
    """The counting criterion, field by field, on two ``_bruhat_counts``."""
    return all(map(int.__le__, low, high))


def min_rep_oracle(
    system: RootSystem, theta: frozenset[int], eta: frozenset[int], w: WeylElement
) -> WeylElement:
    """Strip descents outside theta (left) and eta (right) with products."""
    while True:
        left, right = _slots(w.inverse()), _slots(w)
        for i in system.simple_indices:
            if i not in theta and left[i - 1] > left[i]:
                w = simple_reflection(system, i) * w
                break
            if i not in eta and right[i - 1] > right[i]:
                w = w * simple_reflection(system, i)
                break
        else:
            return w


@dataclass(frozen=True)
class OraclePoset:
    cosets: tuple[DoubleCoset, ...]
    coset_index: dict[Window, int]
    up: tuple[int, ...]
    down: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    w0_action: tuple[int, ...] | None
    left_action: tuple[tuple[int, ...], ...]


def double_cosets_oracle(
    system: RootSystem, theta: frozenset[int], eta: frozenset[int]
) -> OraclePoset:
    """Every field of a position poset, one product or comparison at a time.

    ``left_action`` is [s_i * w_c] for each coset c; it is an action only
    when theta is full.
    """
    gens = simple_reflections(system)
    seen = frontier = {identity(system)}
    while frontier:
        frontier = {w * s for w in frontier for s in gens} - seen
        seen |= frontier
    elements = sorted(seen, key=lambda w: (w.length(), w.window))
    coset_index: dict[Window, int] = {}
    cosets: list[DoubleCoset] = []
    for w in elements:
        rep = min_rep_oracle(system, theta, eta, w)
        if rep == w:
            coset_index[w.window] = len(cosets)
            cosets.append(DoubleCoset(system, theta, eta, w))
        else:
            coset_index[w.window] = coset_index[rep.window]
    n = len(cosets)
    counts = [_bruhat_counts(dc.min_rep) for dc in cosets]
    up = tuple(
        sum(1 << j for j in range(i, n) if counts_leq(counts[i], counts[j])) for i in range(n)
    )
    down = tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))
    above = [u & ~(1 << i) for i, u in enumerate(up)]
    below = [d & ~(1 << j) for j, d in enumerate(down)]
    covers = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if above[i] >> j & 1 and not above[i] & below[j]
    )
    w0_action = None
    if opposition_involution(system, theta) == theta:
        w0 = longest_element(system)
        w0_action = tuple(coset_index[(w0 * dc.min_rep).window] for dc in cosets)
    left_action = tuple(
        tuple(coset_index[(s * dc.min_rep).window] for dc in cosets) for s in gens
    )
    return OraclePoset(tuple(cosets), coset_index, up, down, covers, w0_action, left_action)


def up_sets_all_fields_oracle(cosets: Sequence[DoubleCoset]) -> tuple[int, ...]:
    """Up-sets from every Bruhat count field, the library's earlier loop.

    For each field, ``at_least[v]`` is the bitset of cosets whose count is
    at least v, and a coset's up-set is the AND of ``at_least[its count]``.
    """
    dim = len(_slots(cosets[0].min_rep))
    up = [(1 << len(cosets)) - 1] * len(cosets)
    for field in zip(*(_bruhat_counts(dc.min_rep) for dc in cosets)):
        at_least = [0] * (dim + 1)
        for j, count in enumerate(field):
            at_least[count] |= 1 << j
        for count in range(dim - 1, -1, -1):
            at_least[count] |= at_least[count + 1]
        up = [u & at_least[count] for u, count in zip(up, field)]
    return tuple(up)


def _stripped_index(poset: PositionPoset, window: Window) -> int:
    return poset._index_of_window[_min_rep(window, *poset._gens)]


def w0_action_min_rep_oracle(poset: PositionPoset) -> tuple[int, ...]:
    """[w0 * w_c] for each coset c, w0 * w_c stripped to its representative."""
    w0 = longest_element(poset.system).window
    return tuple(_stripped_index(poset, _compose(w0, dc.min_rep.window)) for dc in poset.cosets)


def left_action_min_rep_oracle(poset: PositionPoset) -> tuple[tuple[int, ...], ...]:
    """[s_i * w_c] for each i and coset c, every product stripped."""
    return tuple(
        tuple(_stripped_index(poset, _s_times(dc.min_rep.window, i)) for dc in poset.cosets)
        for i in poset.system.simple_indices
    )


def left_masks_oracle(left_action: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Bitsets (low, high) of the pairs c < d = row[c] of each left-action row."""
    pairs = [[(c, d) for c, d in enumerate(row) if c < d] for row in left_action]
    return tuple((sum(1 << c for c, _ in p), sum(1 << d for _, d in p)) for p in pairs)


def quotient_closure_filter_oracle(
    system: RootSystem, gens: list[int], right: list[int]
) -> list[Window]:
    """The library's earlier closure: each layer inverted whole, and each
    inverse kept when none of ``right`` is a right descent of it."""
    layer = {identity(system).window}
    ordered: list[tuple[int, ...]] = []
    while layer:
        if right:
            inverses = {_inverse(u): u for u in layer}
            kept = sorted(w for w in inverses if not any(_descends(w, i) for i in right))
            layer = [inverses[w] for w in kept]
        else:
            kept = layer = sorted(layer)
        ordered.extend(kept)
        layer = {_times_s(u, i) for u in layer for i in gens if not _descends(u, i)}
    return ordered


# ---------------------------------------------------------------------------
# ExactMatrix operations that only the tests use, on the library's stored form


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix._stored(rows, (((0, 0),) * rows,) * cols, ((0, 1),) * cols)


def from_columns(columns: Sequence[Sequence], *, rows: int | None = None) -> ExactMatrix:
    """The matrix with these columns, whose heights must agree (and equal ``rows``).

    >>> from_columns([[1, 2]]) == ExactMatrix([[1], [2]])
    True
    """
    heights = {len(col) for col in columns} | ({rows} if rows is not None else set())
    if len(heights) > 1:
        raise ValueError(f"column heights differ: {sorted(heights)}")
    height = heights.pop() if heights else 0
    return ExactMatrix([[col[i] for col in columns] for i in range(height)], cols=len(columns))


def column(matrix: ExactMatrix, j: int) -> tuple[GaussianRational, ...]:
    return tuple(matrix.entry(i, j) for i in range(matrix.rows))


def make(
    rows: int, columns: Sequence[Sequence[tuple[int, int]]], scales: Sequence[tuple[int, int]]
) -> ExactMatrix:
    """The matrix whose column j is ``columns[j]`` times ``scales[j]`` (any sign,
    denominator > 0), stored primitive with a positive scale in lowest terms."""
    stored, kept = [], []
    for col, (num, den) in zip(columns, scales):
        content = math.gcd(*[t for pair in col for t in pair]) if num else 0
        if content > 1:
            col = [(a // content, b // content) for a, b in col]
        elif not content:  # a zero column: gcd(0, den) = den makes its scale (0, 1)
            col = [(0, 0)] * len(col)
        num *= content
        common = math.gcd(num, den)
        num, den = num // common, den // common
        if num < 0:
            col, num = [(-a, -b) for a, b in col], -num
        stored.append(tuple(col))
        kept.append((num, den))
    return ExactMatrix._stored(rows, tuple(stored), tuple(kept))


def scaled_rows(matrix: ExactMatrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, rows): D the common denominator of the scales, rows those of D times the matrix."""
    den = math.lcm(*[q for _, q in matrix._scales])
    factors = [p * (den // q) for p, q in matrix._scales]
    scaled = [[(a * f, b * f) for a, b in col] for col, f in zip(matrix._columns, factors)]
    return den, list(zip(*scaled)) if scaled else [()] * matrix.rows


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    den, rows = scaled_rows(matrix)
    return make(matrix.cols, rows, [(1, den)] * matrix.rows)


def neg(matrix: ExactMatrix) -> ExactMatrix:
    return make(matrix.rows, matrix._columns, [(-p, q) for p, q in matrix._scales])


def matmul(first: ExactMatrix, *factors: ExactMatrix) -> ExactMatrix:
    """The product of the matrices, multiplied from the left: integer dot
    products of the rows of D times the left factor with the stored columns
    of the right one, D the common denominator of the left factor's scales."""
    for other in factors:
        if first.cols != other.rows:
            raise ValueError("inner dimensions differ")
        den, rows = scaled_rows(first)
        columns = [[_dot(row, col) for row in rows] for col in other._columns]
        first = make(first.rows, columns, [(p, q * den) for p, q in other._scales])
    return first


def is_zero(matrix: ExactMatrix) -> bool:
    return not any(p for p, _ in matrix._scales)


def isotropic_signature(n: int) -> Signature:
    """Signature of a complete isotropic flag in C^{2n}: dimensions 1..n."""
    return Signature(tuple(range(1, n + 1)), 2 * n)


def flag_to_json(flag: ExactFlag) -> dict:
    """A JSON-ready description: ambient, signature, basis entries as pairs."""
    return {
        "ambient": flag.signature.ambient,
        "signature": list(flag.signature.dims),
        "matrix": matrix_to_json(flag.basis),
    }


# ---------------------------------------------------------------------------
# exact complex-rational linear algebra (independent of the library's)

GQ = tuple[Fraction, Fraction]


def gq(re: int | str | Fraction = 0, im: int | str | Fraction = 0) -> GQ:
    return (Fraction(re), Fraction(im))


def gq_add(a: GQ, b: GQ) -> GQ:
    return (a[0] + b[0], a[1] + b[1])


def gq_sub(a: GQ, b: GQ) -> GQ:
    return (a[0] - b[0], a[1] - b[1])


def gq_mul(a: GQ, b: GQ) -> GQ:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_div(a: GQ, b: GQ) -> GQ:
    norm = b[0] * b[0] + b[1] * b[1]
    if norm == 0:
        raise ZeroDivisionError
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def gq_rank(rows: list[list[GQ]]) -> int:
    """Row rank by plain Gaussian elimination over Q(i)."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != (Fraction(0), Fraction(0)):
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != (Fraction(0), Fraction(0)):
                factor = gq_div(rows[r][col], pv)
                rows[r] = [
                    gq_sub(rows[r][c], gq_mul(factor, rows[pivot_row][c]))
                    for c in range(cols)
                ]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def gq_row_reduce(rows: list[list[GQ]], width: int) -> tuple[list[list[GQ]], list[int]]:
    """Gauss-Jordan over Q(i) on the first ``width`` columns: the reduced rows,
    each pivot scaled to 1 and cleared from every other row, and the pivot
    columns in order."""
    zero = gq()
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inverse = gq_div(gq(1), rows[r][col])
        rows[r] = [gq_mul(inverse, x) for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != zero:
                factor = rows[k][col]
                rows[k] = [gq_sub(x, gq_mul(factor, y)) for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots


def gq_solve(square: list[list[GQ]], targets: list[list[GQ]]) -> list[list[GQ]]:
    """Rows of X with square @ X = targets, by Gauss-Jordan over Q(i).

    Both matrices are given as rows; ``square`` must be invertible.
    """
    n = len(square)
    rows, pivots = gq_row_reduce([list(a) + list(b) for a, b in zip(square, targets)], n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]


def gq_nullspace(columns: list[list[GQ]]) -> list[list[GQ]]:
    """A basis of the relations among ``columns``, the vectors x with
    sum_j x_j c_j = 0: one vector per free column of the reduced rows.

    >>> [[str(re) for re, _ in x] for x in gq_nullspace([[gq("1/2")], [gq("1/3")], [gq(1)]])]
    [['-2/3', '1', '0'], ['-2', '0', '1']]
    """
    zero = gq()
    height = len(columns[0]) if columns else 0
    rows, pivots = gq_row_reduce([[col[i] for col in columns] for i in range(height)], len(columns))
    kernel = []
    for free in (c for c in range(len(columns)) if c not in pivots):
        vector = [zero] * len(columns)
        vector[free] = gq(1)
        for r, p in enumerate(pivots):
            vector[p] = gq_sub(zero, rows[r][free])
        kernel.append(vector)
    return kernel


def gq_dot(u: Sequence[GQ], v: Sequence[GQ]) -> GQ:
    """sum_r u_r v_r, skipping the terms with a zero factor."""
    total = gq()
    for a, b in zip(u, v):
        if any(a) and any(b):
            total = gq_add(total, gq_mul(a, b))
    return total


def gq_columns(matrix: ExactMatrix) -> list[list[GQ]]:
    """The columns of an exact matrix as ``gq`` tuples, read entry by entry."""
    return [[(e.real, e.imag) for e in column(matrix, j)] for j in range(matrix.cols)]


def exact_matrix(columns: list[list[GQ]], rows: int) -> ExactMatrix:
    """The exact matrix with these ``gq`` columns, each of height ``rows``."""
    return from_columns([[GaussianRational(*x) for x in col] for col in columns], rows=rows)


def intersection_dim(U: ExactMatrix, V: ExactMatrix) -> int:
    """Exact dimension of the intersection of two column spans,
    rank U + rank V - rank [U | V] by ``gq_rank``.

    >>> U = from_columns([[1, 0, 0], [1, 1, 0]])
    >>> V = from_columns([[0, 1, 0], [0, 0, 1]])
    >>> intersection_dim(U, V)
    1
    """
    if U.rows != V.rows:
        raise ValueError("ambient dimension mismatch")
    u, v = gq_columns(U), gq_columns(V)
    return gq_rank(u) + gq_rank(v) - gq_rank(u + v)


def omega_perp(U: ExactMatrix, omega: SymplecticForm) -> ExactMatrix:
    """Columns spanning the symplectic orthogonal of a column span: the
    kernel of U^T G, multiplied out and solved with ``gq_nullspace``.

    >>> omega = SymplecticForm.standard(2)
    >>> line = from_columns([[1, 0, 0, 0]])
    >>> perp = omega_perp(line, omega)
    >>> perp.cols, intersection_dim(perp, ExactMatrix.identity(4).prefix_columns(2))
    (3, 2)
    """
    if U.rows != omega.ambient:
        raise ValueError("ambient dimension mismatch")
    return exact_matrix(gq_perp(gq_columns(U), gq_columns(omega.gram)), U.rows)


def gq_perp(spanning: list[list[GQ]], gram: list[list[GQ]]) -> list[list[GQ]]:
    """A basis of the vectors v with u^T G v = 0 for each spanning u, G given by
    its columns: the relations among the columns of U^T G."""
    return gq_nullspace([[gq_dot(u, g) for u in spanning] for g in gram])


def is_isotropic(F: ExactFlag, omega: SymplecticForm) -> bool:
    """Whether omega(u, v) = u^T G v vanishes on every pair of spanning
    vectors of the flag's top subspace, multiplied out over Q(i)."""
    if F.signature.ambient != omega.ambient:
        raise ValueError("dimension mismatch")
    gram = gq_columns(omega.gram)
    top = gq_columns(F.basis.prefix_columns(F.signature.top))
    paired = [[gq_dot(u, g) for g in gram] for u in top]  # the rows u^T G
    return all(gq_dot(row, v) == gq() for row in paired for v in top)


def intersection_dim_oracle(
    f_columns: list[list[GQ]], h_columns: list[list[GQ]], k: int, j: int
) -> int:
    """dim(F^k  intersect  H^j) = k + j - rank([F^k | H^j])."""
    stacked = [list(col) for col in f_columns[:k]] + [list(col) for col in h_columns[:j]]
    return k + j - gq_rank(stacked)


def position_search_oracle(
    f_columns: list[list[GQ]], h_columns: list[list[GQ]]
) -> Window:
    """The unique permutation matching the full intersection-dimension table.

    sigma sends the H-level j to the F-level at which the j-th new H-line
    appears, so D_j(k) = #{i <= j : sigma(i) <= k}.
    """
    n = len(f_columns)
    table = {
        (j, k): intersection_dim_oracle(f_columns, h_columns, k, j)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    }
    matches = []
    for sigma in itertools.permutations(range(1, n + 1)):
        if all(
            table[(j, k)] == sum(1 for i in range(j) if sigma[i] <= k)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
        ):
            matches.append(sigma)
    assert len(matches) == 1, f"expected unique position, got {matches}"
    return matches[0]


def relative_position_full_oracle(F: ExactFlag, H: ExactFlag) -> Window:
    """The window of two full flags from their intersection-dimension jumps."""
    return _jump_permutation(F.basis._columns, H.basis._columns)


def relative_position_symplectic_oracle(
    F: ExactFlag, H: ExactFlag, omega: SymplecticForm
) -> Window:
    """The signed window of two complete isotropic flags: both extended to
    full flags by F^{n+k} = perp of F^{n-k}, the jump pattern of the extended
    pair read with levels above n as the negative letters."""
    size = omega.ambient
    n = size // 2
    levels = _jump_permutation(_extended_basis(F, omega), _extended_basis(H, omega))

    def label(p: int) -> int:
        return p if p <= n else p - size - 1

    window = tuple(label(levels[j]) for j in range(n))
    assert all(label(levels[size - j]) == -window[j - 1] for j in range(1, n + 1))
    return window


def reduce_into_oracle(echelon: dict, vector):
    """Fraction-free reduction of a Z[i] vector against ``echelon`` (pivot -> row),
    every step over the whole vector.

    Entry v_i is cleared by v <- p*v - v_i*row, p the row's pivot entry, and
    the integer content is divided out before each pivot search.  Returns the
    remainder, inserted under its first nonzero entry, or None if the vector
    reduces to 0.
    """
    while True:
        content = math.gcd(*(t for pair in vector for t in pair))
        if content > 1:
            vector = [(x // content, y // content) for x, y in vector]
        i = next((k for k, (a, b) in enumerate(vector) if a or b), None)
        if i is None:
            return None
        row = echelon.get(i)
        if row is None:
            echelon[i] = vector
            return vector
        (a, b), (c, d) = vector[i], row[i]
        vector = [
            (c * x - d * y - a * p + b * q, c * y + d * x - a * q - b * p)
            for (x, y), (p, q) in zip(vector, row)
        ]


def _jump_permutation(f_basis, h_basis) -> Window:
    """One-line permutation of the intersection-dimension jump pattern.

    ``f_basis`` and ``h_basis`` are adapted bases: their first k vectors span
    F^k and H^k.  The jump set K_j = {k : D_j(k) > D_j(k-1)} with
    D_j(k) = dim(F^k meet H^j) is read off one elimination per j: an echelon
    basis of H^j, fed the F-basis vectors one at a time; the k-th vector
    reduces to zero exactly when dim(F^k meet H^j) jumped at k.  K_j grows by
    a single new level as j increases, and that level is sigma(j).
    """
    window = []
    previous: frozenset[int] = frozenset()
    h_echelon: dict = {}
    for h in h_basis:
        reduce_into_oracle(h_echelon, h)
        echelon = dict(h_echelon)
        jumps = frozenset(
            k + 1 for k, f in enumerate(f_basis) if reduce_into_oracle(echelon, f) is None
        )
        (new_level,) = jumps - previous
        window.append(new_level)
        previous = jumps
    return tuple(window)


def _extended_basis(flag: ExactFlag, omega: SymplecticForm) -> list:
    """A basis adapted to F^1, ..., F^n, then F^{n+k} = ``gq_perp`` of F^{n-k}:
    the first n basis vectors, extended by each perp's vectors, cleared of
    denominators, that are independent of everything before them."""
    n = omega.ambient // 2
    gram, spanning = gq_columns(omega.gram), gq_columns(flag.basis.prefix_columns(n))
    echelon: dict = {}
    basis = list(flag.basis._columns[:n])
    for vector in basis:
        reduce_into_oracle(echelon, vector)
    for size in range(n + 1, 2 * n + 1):
        for vector in gq_perp(spanning[: 2 * n - size], gram):
            den = math.lcm(*(x.denominator for pair in vector for x in pair))
            column = [(int(a * den), int(b * den)) for a, b in vector]
            inserted = reduce_into_oracle(echelon, column)
            if inserted is not None:
                basis.append(inserted)
        assert len(basis) == size, "perps are not a complete nested filtration"
    return basis


# ---------------------------------------------------------------------------
# balanced ideals by exhaustion


def is_ideal_oracle(leq: list[list[bool]], members: frozenset[int]) -> bool:
    """Whether ``members`` is downward closed, by scanning every pair."""
    n = len(leq)
    return not any(
        leq[i][j] and j in members and i not in members
        for i in range(n)
        for j in range(n)
    )


def balanced_ideals_oracle(
    leq: list[list[bool]], w0_perm: list[int]
) -> list[frozenset[int]]:
    """All balanced ideals of a poset, by filtering every subset.

    A subset I is an ideal when it is downward closed; it is balanced when
    w0(I) is exactly the complement.
    """
    n = len(leq)
    assert n <= 20, "exhaustive oracle is for small posets only"
    out = []
    universe = frozenset(range(n))
    for bits in range(1 << n):
        members = frozenset(i for i in range(n) if bits >> i & 1)
        if not is_ideal_oracle(leq, members):
            continue
        if frozenset(w0_perm[i] for i in members) == universe - members:
            out.append(members)
    return out


def principal_ideal(poset: PositionPoset, index: int) -> frozenset[int]:
    """The cosets at or below coset ``index``."""
    return frozenset(i for i in range(len(poset)) if poset.down[index] >> i & 1)


def all_ideals(poset: PositionPoset, max_size: int | None = None) -> list[frozenset[int]]:
    """All downward-closed subsets, optionally pruned to at most ``max_size``.

    Ideals are in bijection with antichains (of their maximal elements), so
    we grow antichains over increasing indices and take downward closures;
    closures only grow along a branch, which makes the size prune sound.
    """
    n = len(poset)
    closures = [principal_ideal(poset, i) for i in range(n)]
    found: list[frozenset[int]] = []

    def grow(start: int, chosen: frozenset[int], closure: frozenset[int]) -> None:
        found.append(closure)
        for nxt in range(start, n):
            if nxt in closure or chosen & closures[nxt]:
                continue  # comparable to a chosen element: not an antichain
            bigger = closure | closures[nxt]
            if max_size is not None and len(bigger) > max_size:
                continue
            grow(nxt + 1, chosen | {nxt}, bigger)

    grow(0, frozenset(), frozenset())
    return found


def balanced_ideals_antichain_oracle(poset: PositionPoset) -> list[frozenset[int]]:
    """Balanced ideals among all ideals of at most half the poset.

    ``all_ideals`` grows antichains and takes their downward closures; an
    ideal of exactly half the cosets is kept when w0 maps it onto its
    complement.  Sorted by sorted members, the library's answer order.
    """
    n = len(poset)
    half = n // 2
    universe = frozenset(range(n))
    out = [
        members
        for members in all_ideals(poset, max_size=half)
        if len(members) == half
        and frozenset(poset.w0_action[i] for i in members) == universe - members
    ]
    out.sort(key=sorted)
    return out


def minimal_anosov_type_oracle(ideal: Ideal) -> frozenset[int]:
    """Simple-root indices i with s_i * I != I, one Weyl product per member."""
    poset = ideal.poset
    system = poset.system
    moved = set()
    for i in system.simple_indices:
        s = simple_reflection(system, i)
        image = frozenset(
            poset.coset_index(s * poset.cosets[c].min_rep) for c in ideal.members
        )
        if image != ideal.members:
            moved.add(i)
    return frozenset(moved)


# ---------------------------------------------------------------------------
# fiber classification by exhaustive catalogue search


def graphs_isomorphic_oracle(g1: WeightGraph, g2: WeightGraph) -> bool:
    """Label-preserving isomorphism of weight graphs, by exhaustive matching."""
    if (
        len(g1.rounds) != len(g2.rounds)
        or len(g1.squares) != len(g2.squares)
        or len(g1.edges) != len(g2.edges)
    ):
        return False
    if Counter(e for _, e in g1.squares) != Counter(e for _, e in g2.squares):
        return False

    def profiles(g: WeightGraph) -> dict[str, tuple]:
        return {
            i: (s, g.incident_weights(i)) for i, s in g.rounds
        }

    prof1, prof2 = profiles(g1), profiles(g2)
    if Counter(prof1.values()) != Counter(prof2.values()):
        return False

    def adjacency(g: WeightGraph) -> dict[str, Counter]:
        adj: dict[str, Counter] = {i: Counter() for i, _ in g.rounds}
        for a, b, w in g.edges:
            adj[a][(b, w)] += 1
            adj[b][(a, w)] += 1
        return adj

    adj1, adj2 = adjacency(g1), adjacency(g2)
    ids1 = [i for i, _ in g1.rounds]
    ids2 = [i for i, _ in g2.rounds]

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(ids1):
            return True
        v = ids1[k]
        for w in ids2:
            if w in used or prof1[v] != prof2[w]:
                continue
            ok = True
            for (u, weight), count in adj1[v].items():
                if u in mapping and adj2[w][(mapping[u], weight)] != count:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return extend(0)


def canonical_key_oracle(g: WeightGraph) -> tuple:
    """``WeightGraph.canonical_key`` by the least of all cycle rotations."""
    sign = dict(g.rounds)
    ends: dict[str, list[tuple[int, str, int]]] = {i: [] for i in sign}
    for n, (a, b, w) in enumerate(g.edges):
        ends[a].append((n, b, w))
        ends[b].append((n, a, w))
    seen: set[str] = set()
    components = []
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
        size = len(walk)
        if size % 2:
            components.append(min(tuple(walk), tuple(walk[::-1])))
            continue
        both = (tuple(walk * 2), tuple((walk[:1] + walk[:0:-1]) * 2))
        components.append(min(d[k : k + size] for d in both for k in range(0, size, 2)))
    return tuple(sorted(components)), tuple(sorted(e for _, e in g.squares))


def rings_oracle(g: WeightGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (signs, weights) ring on ``g``'s round vertices in which each of
    ``g``'s edges joins neighbours and the other neighbours join by weight 1.

    Every cyclic order of the vertices from the first is tried; each edge of
    ``g`` takes an unclaimed ring position between its ends, and an order
    where some edge finds none is dropped.
    """
    ids = [i for i, _ in g.rounds]
    sign = dict(g.rounds)
    rings = []
    for rest in itertools.permutations(ids[1:]):
        order = [ids[0], *rest]
        weights = [1] * len(order)
        claimed = [False] * len(order)
        fits = True
        for a, b, w in g.edges:
            k = next(
                (
                    k
                    for k in range(len(order))
                    if not claimed[k] and {order[k], order[(k + 1) % len(order)]} == {a, b}
                ),
                None,
            )
            if k is None:
                fits = False
                break
            claimed[k], weights[k] = True, w
        if fits:
            rings.append((tuple(sign[i] for i in order), tuple(weights)))
    return rings


def weight_graph_json(g: WeightGraph) -> str:
    data = {
        "round": [{"id": i, "sign": "+" if s > 0 else "-"} for i, s in g.rounds],
        "squares": [{"id": i, "euler": e} for i, e in g.squares],
        "edges": [{"ends": [a, b], "weight": w} for a, b, w in g.edges],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _catalogue(max_weight: int) -> list[tuple[tuple[int, int, int], WeightGraph]]:
    out = []
    for q in range(0, 2 * max_weight + 1):
        for mag_a in range(1, max_weight + 2):
            for mag_b in range(1, max_weight + 1):
                for a in (mag_a, -mag_a):
                    for b in (mag_b, -mag_b):
                        if math.gcd(mag_a, mag_b) != 1 or a + q * b == 0:
                            continue
                        out.append(((q, a, b), hirzebruch_graph(q, a, b)))
    return out


def classify_fiber_oracle(g: WeightGraph) -> Classification:
    """The first catalogue graph, then the first catalogue pair, matching ``g``.

    The catalogue holds every Hir(q;a,b) with q <= 2w, |a| <= w+1 and
    |b| <= w for the largest edge weight w, so its size grows as w^3 and the
    pair search as w^6.
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
        return Classification(None, None)

    max_weight = max((w for _, _, w in g.edges), default=1)
    catalogue = _catalogue(max_weight)
    for params, candidate in catalogue:
        if graphs_isomorphic_oracle(g, candidate):
            return Classification(
                _canonical_name(*params), _hirzebruch_diffeotype(params[0])
            )

    target_signs = Counter(s for _, s in g.rounds)
    target_weights = Counter(w for _, _, w in g.edges)
    for index, (params1, g1) in enumerate(catalogue):
        weights1 = Counter(w for _, _, w in g1.edges)
        signs1 = Counter(s for _, s in g1.rounds)
        for params2, g2 in catalogue[index:]:
            if len(g1.rounds) + len(g2.rounds) - 2 != len(g.rounds):
                continue
            weights12 = weights1 + Counter(w for _, _, w in g2.edges)
            signs12 = signs1 + Counter(s for _, s in g2.rounds)
            for v1, s1 in g1.rounds:
                for v2, s2 in g2.rounds:
                    if s1 != -s2:
                        continue
                    incident = Counter(g1.incident_weights(v1))
                    if incident != Counter(g2.incident_weights(v2)):
                        continue
                    if weights12 - incident != target_weights:
                        continue
                    if signs12 - Counter((s1, s2)) != target_signs:
                        continue
                    candidate = connected_sum(g1, v1, g2, v2)
                    if graphs_isomorphic_oracle(g, candidate):
                        name1 = _canonical_name(*params1)
                        name2 = _canonical_name(*params2)
                        type1 = _hirzebruch_diffeotype(params1[0])
                        type2 = _hirzebruch_diffeotype(params2[0])
                        return Classification(
                            f"{name1} # {name2}", f"({type1}) # ({type2})"
                        )
    return Classification(None, None)


# ---------------------------------------------------------------------------
# the invariant pairing on the circle basis, by monomial expansion


def monomial_pairing(d: int) -> ExactMatrix:
    """The classical invariant pairing on binary forms of degree d-1.

    In the monomial basis X^{d-1}, X^{d-2}Y, ..., Y^{d-1} the only nonzero
    pairings are <X^{d-1-j} Y^j, X^j Y^{d-1-j}> = (-1)^j / C(d-1, j).
    Antisymmetric for even d, symmetric for odd d.
    """
    entries = [[GaussianRational() for _ in range(d)] for _ in range(d)]
    for j in range(d):
        value = Fraction((-1) ** j, math.comb(d - 1, j))
        entries[j][d - 1 - j] = GaussianRational(value)
    return ExactMatrix(entries)


def i_power(m: int) -> GQ:
    return (gq(1), gq(0, 1), gq(-1), gq(0, -1))[m % 4]


def circle_basis_columns(d: int) -> ExactMatrix:
    """Monomial coordinates of f_w = (X - iY)^{d-1-k} (X + iY)^k, w = d-1-2k.

    Expanding with the binomial theorem, the X^{d-1-m} Y^m coefficient is
    sum over s + t = m of C(d-1-k, s) C(k, t) (-1)^s i^{s+t}.
    """
    columns = []
    for k in range(d):
        a, b = d - 1 - k, k
        coeffs = [gq() for _ in range(d)]
        for s in range(a + 1):
            for t in range(b + 1):
                integer = (-1) ** s * math.comb(a, s) * math.comb(b, t)
                term = gq_mul(gq(integer), i_power(s + t))
                coeffs[s + t] = gq_add(coeffs[s + t], term)
        columns.append([GaussianRational(*c) for c in coeffs])
    return from_columns(columns)


def primitive_antidiagonal_oracle(d: int) -> list[Fraction]:
    """Values c_k = <f_{d-1-2k}, f_{2k+1-d}> scaled to primitive integers.

    The overall scale is fixed so the outermost pairing (k = 0) is negative.
    """
    basis = circle_basis_columns(d)
    pairing = matmul(transpose(basis), monomial_pairing(d), basis)
    raw = []
    for k in range(d):
        raw.append(pairing.entry(k, d - 1 - k))
        for j in range(d):
            if j != d - 1 - k and pairing.entry(k, j):
                raise ArithmeticError("circle-basis pairing should be antidiagonal")
    # The pairing takes real values on the real span, so on the circle basis
    # it is either all real or all purely imaginary; rescale to real.
    if all(not v.imag for v in raw):
        values = [v.real for v in raw]
    elif all(not v.real for v in raw):
        values = [v.imag for v in raw]
    else:
        raise ArithmeticError("circle-basis pairing has mixed phases")
    scale = Fraction(
        math.lcm(*(v.denominator for v in values)),
        math.gcd(*(v.numerator for v in values)),
    )
    scaled = [v * scale for v in values]
    if scaled[0] > 0:
        scaled = [-v for v in scaled]
    return scaled


# ---------------------------------------------------------------------------
# the census of three-dimensional flag varieties, by exhaustive scan


def _index_choices(limit: int):
    pool = range(1, limit + 1)
    for size in range(1, limit + 1):
        yield from itertools.combinations(pool, size)


def _so_descriptors(n: int, indices: tuple[int, ...]):
    if n % 2 == 0 and indices[-1] == n // 2:
        yield FlagVarietyDescriptor(GroupFamily.SO, n, indices, "+")
        yield FlagVarietyDescriptor(GroupFamily.SO, n, indices, "-")
    else:
        yield FlagVarietyDescriptor(GroupFamily.SO, n, indices)


def census_oracle(max_rank: int) -> list[FlagVarietyDescriptor]:
    """Every index subset at every rank of each family, kept at dimension 3."""
    found: list[FlagVarietyDescriptor] = []
    for rank in range(2, max_rank + 1):
        n = rank + 1
        for indices in _index_choices(n - 1):
            d = FlagVarietyDescriptor(GroupFamily.SL, n, indices)
            if flag_dim(d) == 3:
                found.append(d)
    for rank in range(2, max_rank + 1):
        for indices in _index_choices(rank):
            d = FlagVarietyDescriptor(GroupFamily.Sp, rank, indices)
            if flag_dim(d) == 3:
                found.append(d)
    for rank in range(2, max_rank + 1):
        for n in (2 * rank, 2 * rank + 1):
            for indices in _index_choices(rank):
                for d in _so_descriptors(n, indices):
                    if flag_dim(d) == 3:
                        found.append(d)
    return found


# ---------------------------------------------------------------------------
# weight bases read by label


def index_of(basis: WeightedBasis, label: str) -> int:
    """The position of ``label`` in ``basis``; a label it lacks raises ``KeyError``."""
    try:
        return basis.labels.index(label)
    except ValueError:
        raise KeyError(f"no basis vector named {label!r}") from None


def weight_of(basis: WeightedBasis, label: str) -> int:
    return basis.weights[index_of(basis, label)]


def permuted(basis: WeightedBasis, order: Sequence[str]) -> WeightedBasis:
    """The vectors of ``basis`` in ``order``, a reordering of its labels."""
    if sorted(order) != sorted(basis.labels):
        raise ValueError("order must be a permutation of the labels")
    return WeightedBasis(tuple(order), tuple(weight_of(basis, label) for label in order))


# ---------------------------------------------------------------------------
# fixed flags, by cutting every ordering of the basis


def fixed_flags_oracle(
    basis: WeightedBasis, dims: Sequence[int], partner: dict[str, str] | None = None
) -> tuple[set, set]:
    """The isolated fixed flags, as (levels, completion) pairs, and the
    pencils, as (anchored set, plane) pairs, of signature ``dims``.

    Every ordering of the labels is cut into blocks at ``dims``, each block
    sorted by basis position.  An ordering that keeps every weight eigenspace
    inside one block is an isolated flag; with ``partner`` it is kept only
    when its top level holds no label together with its partner.  An
    ordering that splits exactly one eigenspace, a plane, lies on the pencil
    of that plane, anchored by the rest of the top level; ``partner`` does
    not filter pencils.
    """
    cuts = list(zip((0, *dims), (*dims, len(basis))))
    eigen: dict[int, set[str]] = {}
    for label, weight in zip(basis.labels, basis.weights):
        eigen.setdefault(weight, set()).add(label)
    isolated, pencils = set(), set()
    position = partial(index_of, basis)
    for order in itertools.permutations(basis.labels):
        blocks = [set(order[a:b]) for a, b in cuts]
        split = [space for space in eigen.values() if not any(space <= b for b in blocks)]
        top = set(order[: dims[-1]])
        if not split:
            if partner is None or not any(partner[label] in top for label in top):
                levels = tuple(tuple(sorted(b, key=position)) for b in blocks)
                isolated.add((levels[:-1], levels[-1]))
        elif len(split) == 1 and len(split[0]) == 2:
            pencils.add((frozenset(top - split[0]), tuple(sorted(split[0], key=position))))
    return isolated, pencils


# ---------------------------------------------------------------------------
# the Lagrangian chart, by solving the linearized isotropy equations


def lagrangian_chart_oracle(
    basis: WeightedBasis,
    omega: SymplecticForm,
    order: Sequence[str],
    group: CircleGroup,
) -> tuple[tuple[int, ...], dict[int, tuple[str, ...] | None]]:
    """Tangent weights and sphere ends of the Lagrangian locus at the span of
    the first half of ``order``, a reordering of the basis labels.

    Chart coordinates u_ij (1 <= i, j <= n) move the j-th spanning vector
    toward the (n+i)-th; the coordinate's weight is the scaled difference.
    Isotropy of the deformed span is one linear equation per pair j < k, and
    each equation touches a single weight class, so the classes are solved
    independently.  Returns the weights, largest first, and for each class
    of weight of absolute value >= 2 with solutions, the far end of its
    sphere (every spanning vector swapped with the one the solution's support
    pairs it with), or None when the class has more than one solution.
    """
    zero = gq()
    positions = [index_of(basis, label) for label in order]
    columns = gq_columns(omega.gram)
    gram = [[columns[c][r] for c in positions] for r in positions]
    weights = [weight_of(basis, label) for label in order]
    size = len(order)
    if size % 2:
        raise ValueError("a Lagrangian chart needs an even ambient dimension")
    n = size // 2
    group.check_weights(weights)
    for a in range(n):
        for b in range(n):
            if gram[a][b] != zero:
                raise ValueError("flag is not Lagrangian for the given form")

    coords = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, j in coords:
        classes.setdefault(group.scaled(weights[n + i - 1] - weights[j - 1]), []).append((i, j))
    # For j < k the keys (i, k) and (i, j) never collide, so each coefficient
    # is a single Gram entry or its negation.
    rows = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            row = {(i, k): gram[j - 1][n + i - 1] for i in range(1, n + 1)}
            row |= {(i, j): gq_sub(zero, gram[k - 1][n + i - 1]) for i in range(1, n + 1)}
            row = {c: v for c, v in row.items() if v != zero}
            if row:
                rows.append(row)

    tangent: list[int] = []
    spheres: dict[int, tuple[str, ...] | None] = {}
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
        kernel = gq_nullspace([[row.get(c, zero) for row in relevant] for c in members])
        tangent.extend([w] * len(kernel))
        if abs(w) < 2 or not kernel:
            continue
        if len(kernel) != 1:
            spheres[w] = None
            continue
        swapped = list(order)
        touched: set[int] = set()
        for i, j in (members[r] for r, x in enumerate(kernel[0]) if x != zero):
            a, b = j - 1, n + i - 1
            if a in touched or b in touched:
                raise NotImplementedError("sphere support is not a disjoint swap")
            touched.update((a, b))
            swapped[a], swapped[b] = swapped[b], swapped[a]
        spheres[w] = tuple(swapped)
    if len(tangent) != n * (n + 1) // 2:
        raise ArithmeticError("isotropy cut has the wrong dimension")
    return tuple(sorted(tangent, reverse=True)), spheres


def check_almost_complex_obstruction(signature_of_form: int, euler_char: int) -> bool:
    """Whether the signature-Euler congruence mod 4 permits an almost
    complex structure.

    >>> check_almost_complex_obstruction(0, 6)
    False
    """
    return (signature_of_form - euler_char) % 4 == 0


def chart_directions(
    order: WeightedBasis,
    sig: Signature,
    group: CircleGroup,
    partner: dict[str, str] | None = None,
) -> list[tuple[int, tuple[str, ...]]]:
    """The weight and far end of each chart direction at the fixed flag ``order``
    spans, by the library's ``_chart`` after the checks only the tests ask for.

    In a flag chart, direction (i, j) of ``chart_index_set`` has weight
    scaled(w_i - w_j), and its invariant sphere ends at the flag with the
    i-th and j-th vectors swapped.  With ``partner`` (see ``form_partners``)
    the chart is that of the Lagrangian locus at the span L of the first n
    vectors, where T_L Lag = Sym^2(L*): direction {i <= j} has weight
    -scaled(w_i + w_j) and ends where v_i swaps with the partner of v_j and
    v_j with the partner of v_i.  Two Lagrangian directions sharing a weight
    of absolute value >= 2 span a plane of sphere directions, whose ends are
    not followed: that raises ``NotImplementedError``.

    >>> from flagfibers.sl2reps import Partition, so2_weight_basis
    >>> basis = so2_weight_basis(Partition((4,)))
    >>> chart_directions(basis, Signature((1,), 4), CircleGroup.PSO2)[0]
    (-1, ('f1', 'f3', 'f-1', 'f-3'))
    """
    if len(order) != sig.ambient:
        raise ValueError("basis size must match the ambient dimension")
    group.check_weights(order.weights)
    if partner is not None:
        n = sig.top
        if sig.dims != (n,) or 2 * n != sig.ambient:
            raise ValueError("a Lagrangian chart needs the signature (n) in C^2n")
        top = order.labels[:n]
        if any(partner[label] in top for label in top):
            raise ValueError("flag is not Lagrangian for the given form")
    return _chart(sig, group, partner)(order.labels, order.weights)
