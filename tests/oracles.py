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
- flag positions come from exhaustive permutation search against the table of
  intersection dimensions, computed by fraction-exact Gaussian elimination;
- linear systems are solved by plain Gauss-Jordan elimination over Q(i);
- balanced ideals come from filtering all 2^n subsets of a poset, and, for
  larger posets, from the antichain route: every ideal of at most half the
  poset (``ideals.all_ideals``), kept when w0 maps it onto its complement;
- downward closure is the scan over every pair of a poset's order relation;
- minimal Anosov types come from one Weyl-group product per member and
  simple reflection;
- weight-graph isomorphism comes from backtracking over vertex matchings
  that respect sign, incident weights and adjacency, the library's earlier
  route before canonical keys;
- fiber classifications come from the exhaustive catalogue search: every
  Hir(q;a,b) up to the graph's largest edge weight, and every pair of them
  for connected sums (graphs are built with the library's
  ``hirzebruch_graph`` and ``connected_sum`` and compared by the
  backtracking isomorphism oracle);
- the invariant pairing on the circle basis comes from expanding each
  f_w = (X - iY)^a (X + iY)^b in monomials and multiplying out
  ``basis^T @ pairing @ basis`` with the library's exact matrices;
- the census of three-dimensional flag varieties comes from scanning every
  index subset at every rank.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from flagfibers.dims import FlagVarietyDescriptor, GroupFamily, flag_dim
from flagfibers.flags import ExactMatrix, GaussianRational
from flagfibers.ideals import Ideal, all_ideals
from flagfibers.twg import (
    Classification,
    WeightGraph,
    _canonical_name,
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
    _slots,
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


def gq_solve(square: list[list[GQ]], targets: list[list[GQ]]) -> list[list[GQ]]:
    """Rows of X with square @ X = targets, by Gauss-Jordan over Q(i).

    Both matrices are given as rows; ``square`` must be invertible.
    """
    n = len(square)
    zero = gq()
    rows = [list(a) + list(b) for a, b in zip(square, targets)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != zero), None)
        if pivot is None:
            raise ValueError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = gq_div(gq(1), rows[col][col])
        rows[col] = [gq_mul(inverse, x) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [gq_sub(x, gq_mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


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
    return ExactMatrix.from_columns(columns)


def primitive_antidiagonal_oracle(d: int) -> list[Fraction]:
    """Values c_k = <f_{d-1-2k}, f_{2k+1-d}> scaled to primitive integers.

    The overall scale is fixed so the outermost pairing (k = 0) is negative.
    """
    basis = circle_basis_columns(d)
    pairing = basis.transpose() @ monomial_pairing(d) @ basis
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
