"""Partitions, SL(2)-weight decompositions, and circle-weight bases.

A partition (d_1, ..., d_l) of n names the n-dimensional SL(2)-representation
with irreducible summands of those dimensions.  This module computes the
diagonal restriction data attached to such a representation: the weight
multiset, the set of simple roots where consecutive weights separate, the
parity criterion for an invariant symplectic form (and the form itself,
exactly), and labeled SO(2)-weight bases whose names feed the fixed-point
bookkeeping downstream.

>>> p = Partition((3, 2, 1))
>>> partition_weights(p)
(2, 1, 0, 0, -1, -2)
>>> sorted(anosov_type(p))
[1, 2, 4, 5]

The only inexact computation in the package is :func:`cartan_projection`,
a one-sided Jacobi SVD in plain floats, guarded by a reconstruction tolerance.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING

from . import _Record

if TYPE_CHECKING:
    from .flags import SymplecticForm

# ``reps`` prints the n^2 Gram entries of a form, those of the irreducible
# partition (n) up to about n bits, so it answers totals of this at most.
PARTITION_TOTAL_LIMIT = 128


class Partition(_Record):
    """A non-increasing tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(d) for d in parts)
        if any(d < 1 for d in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.parts) + ")"


def check_partition_total(p: Partition) -> None:
    """Refuse a partition of total over ``PARTITION_TOTAL_LIMIT`` with a ``ValueError``."""
    if p.total > PARTITION_TOTAL_LIMIT:
        raise ValueError(
            f"partition total {p.total} is above the limit of {PARTITION_TOTAL_LIMIT}"
        )


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n``, largest first parts, lexicographically decreasing.

    >>> [str(p) for p in partitions_of(4)]
    ['(4)', '(3,1)', '(2,2)', '(2,1,1)', '(1,1,1,1)']
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(cap, remaining), 0, -1):
            out.extend((first, *rest) for rest in rec(remaining - first, first))
        return out

    return [Partition(parts) for parts in rec(n, n)]


def irreducible_weights(d: int) -> tuple[int, ...]:
    """Diagonal-restriction weights d-1, d-3, ..., 1-d of the d-dimensional irreducible.

    >>> irreducible_weights(4)
    (3, 1, -1, -3)
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return tuple(range(d - 1, -d, -2))


def partition_weights(p: Partition) -> tuple[int, ...]:
    """All weights of the representation named by ``p``, in descending order."""
    weights = [w for d in p.parts for w in irreducible_weights(d)]
    return tuple(sorted(weights, reverse=True))


def anosov_type(p: Partition) -> frozenset[int]:
    """Simple roots (1-based) where the descending weight sequence separates.

    >>> sorted(anosov_type(Partition((2, 2))))
    [2]
    """
    w = partition_weights(p)
    return frozenset(j for j in range(1, len(w)) if w[j - 1] != w[j])


def admits_symplectic_form(p: Partition) -> bool:
    """Whether every odd part occurs an even number of times.

    >>> admits_symplectic_form(Partition((2, 1, 1)))
    True
    >>> admits_symplectic_form(Partition((3, 1)))
    False
    """
    if p.total % 2:
        raise ValueError("no antisymmetric pairing in odd dimension")
    odd_parts = [d for d in p.parts if d % 2]
    return all(odd_parts.count(d) % 2 == 0 for d in set(odd_parts))


class WeightedBasis(_Record):
    """Named basis vectors with their integer circle weights."""

    __slots__ = ("labels", "weights")

    def __init__(self, labels: tuple[str, ...], weights: tuple[int, ...]):
        if len(labels) != len(weights):
            raise ValueError("labels and weights must pair up")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.labels)


def so2_weight_basis(p: Partition) -> WeightedBasis:
    """Labeled circle-weight basis, one group of vectors per part.

    When all weights are distinct the vectors are simply f_w.  Repeated
    weights force provenance in the names: parts of size >= 2 take a letter
    each (f when unique, else e, f, g, ...), and size-1 parts pair up into
    real vectors X_i, Y_i spanning repeated weight-0 planes.

    >>> so2_weight_basis(Partition((2, 1, 1))).labels
    ('f1', 'f-1', 'X2', 'Y2')
    """
    weights = tuple(w for d in p.parts for w in irreducible_weights(d))
    distinct = len(set(weights)) == len(weights)
    big = sum(d >= 2 for d in p.parts)
    big_letters = iter(["f"] if big == 1 else [chr(ord("e") + i) for i in range(big)])

    labels: list[str] = []
    singles_seen = 0
    for d in p.parts:
        if distinct or d >= 2:
            letter = "f" if distinct else next(big_letters)
            labels.extend(f"{letter}{w}" for w in irreducible_weights(d))
        else:
            pair_index = big + singles_seen // 2 + 1
            labels.append(("X" if singles_seen % 2 == 0 else "Y") + str(pair_index))
            singles_seen += 1
    return WeightedBasis(tuple(labels), weights)


# ---------------------------------------------------------------------------
# the invariant symplectic form, exactly


def _primitive_antidiagonal(d: int) -> list[int]:
    """Values c_k = <f_{d-1-2k}, f_{2k+1-d}> scaled to primitive integers.

    In closed form c_k = (-1)^(k+1) L / C(d-1, k), with L the lcm of the
    binomials C(d-1, j).  Write f_{d-1-2k} = u^a v^b with u = X - iY,
    v = X + iY, a = d-1-k and b = k.  The invariant pairing of two products
    of d-1 linear forms is 1/(d-1)! times the sum over bijections of the
    products of the brackets [l, m].  As [u, u] = [v, v] = 0, pairing u^a v^b
    with its partner u^b v^a leaves only the a! b! bijections sending u to v
    and v to u, each worth [u, v]^a [v, u]^b = (-1)^b [u, v]^(d-1).  So
    c_k is proportional to (-1)^k / C(d-1, k): the polarization identity for
    transvectants (Olver, *Classical Invariant Theory*, 1999).  For each
    prime p some C(d-1, j) carries the full power of p in L, so p does not
    divide L / C(d-1, j): the values are coprime, and c_0 = -L is negative.

    >>> _primitive_antidiagonal(4)
    [-3, 1, -1, 3]
    >>> _primitive_antidiagonal(5)
    [-12, 3, -2, 3, -12]
    """
    binomials = [math.comb(d - 1, k) for k in range(d)]
    lcm = math.lcm(*binomials)
    return [(-1) ** (k + 1) * (lcm // c) for k, c in enumerate(binomials)]


def invariant_symplectic_form(p: Partition) -> SymplecticForm:
    """The invariant symplectic form on the representation, in basis order.

    Even parts carry their own antidiagonal block; equal odd parts pair up
    consecutively, with the symmetric pairing of one copy against the other
    antisymmetrized across the two blocks.  Each block is the primitive
    integer antidiagonal c_k = (-1)^(k+1) L / C(d-1, k) of the part size d,
    L = lcm_j C(d-1, j) (see :func:`_primitive_antidiagonal`), outermost entry
    negative.  So each Gram column holds one integer, and the form is built,
    with no dense grid, from that pairing by :meth:`SymplecticForm.from_pairing`.

    >>> gram = invariant_symplectic_form(Partition((4,))).gram
    >>> [str(gram.entry(k, 3 - k)) for k in range(4)]
    ['-3', '1', '-1', '3']
    """
    from .flags import SymplecticForm

    if not admits_symplectic_form(p):
        raise ValueError("representation admits no invariant symplectic form")
    pairing: list[tuple[int, int]] = [(0, 0)] * p.total

    def fill_block(rows: int, cols: int, d: int) -> None:
        for k, value in enumerate(_primitive_antidiagonal(d)):
            pairing[cols + d - 1 - k] = (rows + k, value)
            pairing[rows + k] = (cols + d - 1 - k, -value)

    # Parts never increase, so equal odd parts are adjacent and pair in turn.
    offset, pending = 0, None
    for d in p.parts:
        if d % 2 == 0:
            fill_block(offset, offset, d)
        elif pending is None:
            pending = offset
        else:
            fill_block(pending, offset, d)
            pending = None
        offset += d
    return SymplecticForm.from_pairing(pairing)


# ---------------------------------------------------------------------------
# the one inexact operation


def cartan_projection(m) -> list[float]:
    """Logarithms of the singular values, in descending order.

    Hestenes' one-sided Jacobi SVD (*J. SIAM* 6, 1958): rotate pairs of
    columns of A, accumulating V, until every pair is orthogonal.  The
    column norms of AV are the singular values, to high relative accuracy
    (Demmel and Veselić, *SIAM J. Matrix Anal. Appl.* 13, 1992).  A singular
    value at most n·eps·σ_max is refused, and the result is accepted only
    when (AV)Vᵀ reconstructs A to within 1e-9 (relative).
    """
    def sized(x) -> bool:
        return hasattr(x, "__len__") and not isinstance(x, str)

    n = len(m) if sized(m) else 0
    if not n or not all(sized(r) and len(r) == n and not any(map(sized, r)) for r in m):
        raise ValueError("expected a square matrix")
    a = [[float(x) for x in row] for row in m]
    if not all(math.isfinite(x) for row in a for x in row):
        raise ValueError("matrix has a non-finite entry")
    scale = max(abs(x) for row in a for x in row) or 1.0
    cols = [[row[j] / scale for row in a] for j in range(n)]
    v = [[float(i == j) for i in range(n)] for j in range(n)]
    tol = n * math.ulp(1.0)
    for _ in range(64):  # the convergence is quadratic: a handful of sweeps suffice
        rotated = False
        for p, q in combinations(range(n), 2):
            x, y = cols[p], cols[q]
            alpha, beta, gamma = sum(map(mul, x, x)), sum(map(mul, y, y)), sum(map(mul, x, y))
            if min(alpha, beta) <= tol * tol:  # σ_min <= any column norm, σ_max >= 1
                raise ValueError("matrix is singular")
            if abs(gamma) > tol * math.sqrt(alpha * beta):
                rotated = True
                zeta = (beta - alpha) / (2 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1 / math.hypot(1.0, t)
                for w in (cols, v):
                    x, y = w[p], w[q]
                    w[p] = [c * (s - t * u) for s, u in zip(x, y)]
                    w[q] = [c * (t * s + u) for s, u in zip(x, y)]
        if not rotated:
            break
    else:
        raise ArithmeticError("Jacobi rotations failed to converge")
    singular = sorted((math.hypot(*col) for col in cols), reverse=True)
    if singular[-1] <= tol * singular[0]:
        raise ValueError("matrix is singular")
    recon = [[scale * sum(w[i] * u[j] for w, u in zip(cols, v)) for j in range(n)] for i in range(n)]
    error = math.hypot(*(x - y for row, back in zip(a, recon) for x, y in zip(row, back)))
    if error > 1e-9 * max(1.0, math.hypot(*(x for row in a for x in row))):
        raise ArithmeticError("singular value decomposition failed to reconstruct")
    return [math.log(s) + math.log(scale) for s in singular]
