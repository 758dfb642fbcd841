"""Weyl groups of types A and C as (signed) permutations.

Elements are stored in window notation: the tuple of images of 1..n.

>>> s = RootSystem(Family.C, 2)
>>> for w in group_elements(s):
...     print(w.length(), w.window)
0 (1, 2)
1 (1, -2)
1 (2, 1)
2 (-2, 1)
2 (2, -1)
3 (-2, -1)
3 (-1, 2)
4 (-1, -2)

Multiplication is function composition, ``(w1 * w2)(j) = w1(w2(j))``, and a
type-C window entry ``-k`` means the element maps ``j`` to ``-k`` (and, by the
sign rule, ``-j`` to ``k``).

Descents and the Bruhat order read both families as permutations of
0..N-1: type A as it is, type C acting on the slots e_1..e_n, e_{-n}..e_{-1}
of C^2n, where s_i swaps slots i-1 and i (and, for i < n, their mirror
images).  The Bruhat order comes from the counting criterion of S_N
(Bjoerner-Brenti, *Combinatorics of Coxeter Groups*, Ch. 2 and 8.1).

One closure grows every enumerated set from the identity, one length per
layer: a parabolic subgroup, or the quotient W^eta of minimal left coset
representatives.  Both are closed under dropping the first letter of a
reduced word (Bjoerner-Brenti, Sec. 2.4), so the closure grows inverses u:
u -> u s_i swaps two window entries (or negates the last), and lengthens u
exactly when s_i is not a right descent of u.  For w = u^-1 in W^eta, a
longer s_i w is in W^eta or is w s_k, s_k in W_eta (Deodhar, Invent. Math.
39, 1977), and u s_i = s_k u exactly when the swapped entries are the values
k, k+1 (or -k-1, -k), or s_n negates the letter n: membership is read off u,
and a quotient inverts each member once.  Each layer sorted by window gives
the (length, window) order.  The members of W^eta with no left descent s_i
(i not in theta) are the minimal representatives of the W_theta \\ W /
W_eta double cosets, and any element reaches its coset's by stripping
descents (Bjoerner-Brenti, Sec. 2.4-2.5).  Strictly Bruhat-smaller minimal
representatives are strictly shorter, so coset index order is a linear
extension of the poset.  By the counting criterion (Bjoerner-Brenti,
Thm. 2.1.5) u <= w iff every count r(i, k) = #{p <= i : u(p) >= k} of u is at
most that of w.  Members of W^eta descend only after slots i-1, i in eta (and
mirrors); on an ascending run d < i <= d', r(i, k) = max(r(d, k), r(d', k) -
d' + i), and r(N-1, k) = N-k, so those slots suffice.  In type C, r(2n-1-i, k)
= 2n-k-i + r(i-1, 2n-k) drops the mirrors.  For w in W^eta, w0 w w0_eta is the
representative of [w0 w] (Bjoerner-Brenti, Sec. 2.5).  With a full left type,
by the same lemma, s_i w for s_i not a left descent of w is a later
representative or lies in [w], so left masks come from left descents.

``group_elements`` and ``parabolic_elements`` are the only memoised group
data; everything else is built per call.  A module-level table of windows
or counts would survive ``cache_clear()`` on those two, and a caller that
clears them to measure a cold build would measure a warm one.
"""

from __future__ import annotations

import enum
import math
from functools import cache, cached_property, total_ordering
from itertools import accumulate

from . import _Record

__all__ = [
    "Family",
    "RootSystem",
    "WeylElement",
    "identity",
    "simple_reflection",
    "simple_reflections",
    "longest_element",
    "check_group_order",
    "group_elements",
    "opposition_involution",
    "bruhat_leq",
    "parabolic_elements",
    "DoubleCoset",
    "PositionPoset",
    "double_cosets",
    "double_coset_of",
    "coset_inverse",
    "sign_vector",
]

# A6 (5040) and C5 (3840) are the largest groups that are still enumerated.
GROUP_ORDER_LIMIT = 5040


class Family(enum.Enum):
    """Cartan family of the root system (types A and C only)."""

    A = "A"
    C = "C"


class RootSystem(_Record):
    """A root system ``family``-``rank`` with its Weyl group conventions.

    ``degree`` is the window length n (A: rank+1 letters, C: rank signed
    letters); ``ambient_dim`` is the dimension of the natural matrix
    realization (A: rank+1, C: 2*rank).
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: Family, rank: int):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def degree(self) -> int:
        return self.rank + 1 if self.family is Family.A else self.rank

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.family is Family.A else 2 * self.rank

    @property
    def simple_indices(self) -> range:
        """Indices 1..rank of the simple reflections."""
        return range(1, self.rank + 1)

    def order(self) -> int:
        """Number of Weyl group elements.

        >>> RootSystem(Family.A, 3).order()
        24
        >>> RootSystem(Family.C, 2).order()
        8
        """
        n = self.degree
        return math.factorial(n) * (1 if self.family is Family.A else 2**n)


@total_ordering
class WeylElement(_Record):
    """A Weyl group element in window notation, ordered as (system, window).

    Type A windows are permutations of 1..n; type C windows are signed
    permutations (the absolute values are a permutation of 1..n).
    """

    __slots__ = ("system", "window")

    def __init__(self, system: RootSystem, window: tuple[int, ...]):
        n = system.degree
        if len(window) != n:
            raise ValueError(f"window must have length {n}, got {window}")
        if system.family is Family.A:
            if sorted(window) != list(range(1, n + 1)):
                raise ValueError(f"not a permutation of 1..{n}: {window}")
        else:
            if sorted(abs(j) for j in window) != list(range(1, n + 1)):
                raise ValueError(f"not a signed permutation of 1..{n}: {window}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "window", window)

    def __lt__(self, other: "WeylElement") -> bool:
        if other.__class__ is WeylElement:
            return (self.system, self.window) < (other.system, other.window)
        return NotImplemented

    def act(self, j: int) -> int:
        """Image of the letter ``j``; negative letters allowed in type C."""
        if j > 0:
            return self.window[j - 1]
        if self.system.family is Family.A:
            raise ValueError(f"type A elements act on positive letters only, got {j}")
        return -self.window[-j - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Function composition: apply ``other`` first.

        >>> s = RootSystem(Family.A, 2)
        >>> w1 = WeylElement(s, (2, 1, 3))
        >>> w2 = WeylElement(s, (1, 3, 2))
        >>> (w1 * w2).window
        (2, 3, 1)
        """
        if self.system != other.system:
            raise ValueError("cannot multiply elements of different systems")
        return WeylElement(self.system, _compose(self.window, other.window))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.system, _inverse(self.window))

    def is_identity(self) -> bool:
        return all(self.window[j] == j + 1 for j in range(len(self.window)))

    def length(self) -> int:
        """Coxeter length: the number of positive roots sent to negatives.

        Type A counts the inversions of the window.  In type C each short
        root e_i +- e_j sent negative gives two inversions of the slot
        permutation (see :func:`_slots`), and each long root 2 e_i, one per
        negative window entry, gives one.

        >>> WeylElement(RootSystem(Family.C, 2), (-2, -1)).length()
        3
        >>> WeylElement(RootSystem(Family.C, 2), (-1, -2)).length()
        4
        """
        perm = _slots(self)
        inversions = sum(a > b for p, a in enumerate(perm) for b in perm[p + 1 :])
        if self.system.family is Family.A:
            return inversions
        return (inversions + sum(j < 0 for j in self.window)) // 2

    def window_str(self) -> str:
        """Compact window: ``"213"`` in type A, ``"2 -1"`` in type C."""
        if self.system.family is Family.A and self.system.degree <= 9:
            return "".join(str(j) for j in self.window)
        return " ".join(str(j) for j in self.window)

    def __str__(self) -> str:
        return self.window_str()


def identity(system: RootSystem) -> WeylElement:
    return WeylElement(system, tuple(range(1, system.degree + 1)))


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    """The simple reflection s_i (1-based).

    In both families s_i for i < rank+1 swaps i and i+1; the last generator
    of type C (i = rank) negates the letter n instead.

    >>> [simple_reflection(RootSystem(Family.C, 2), i).window for i in (1, 2)]
    [(2, 1), (1, -2)]
    """
    if i not in system.simple_indices:
        raise ValueError(f"simple reflection index must be in 1..{system.rank}, got {i}")
    window = list(range(1, system.degree + 1))
    if system.family is Family.C and i == system.rank:
        window[-1] = -window[-1]
    else:
        window[i - 1], window[i] = window[i], window[i - 1]
    return WeylElement(system, tuple(window))


def simple_reflections(system: RootSystem) -> tuple[WeylElement, ...]:
    return tuple(simple_reflection(system, i) for i in system.simple_indices)


def longest_element(system: RootSystem) -> WeylElement:
    """The longest element w0 (order-reversing window in A, all-negation in C).

    >>> longest_element(RootSystem(Family.C, 2)).window
    (-1, -2)
    """
    n = system.degree
    if system.family is Family.A:
        return WeylElement(system, tuple(range(n, 0, -1)))
    return WeylElement(system, tuple(-j for j in range(1, n + 1)))


@cache
def group_elements(system: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by (length, window).

    The count is checked against ``system.order()``, a cheap sanity check of
    the presentation.
    """
    elements = parabolic_elements(system, frozenset())
    if len(elements) != system.order():
        raise AssertionError("generated group has wrong order")
    return elements


def _simple_subset(system: RootSystem, subset) -> frozenset[int]:
    bad = [i for i in subset if i not in system.simple_indices]
    if bad:
        raise ValueError(f"not simple-root indices: {bad}")
    return frozenset(subset)


def opposition_involution(system: RootSystem, subset: frozenset[int]) -> frozenset[int]:
    """The involution nu on simple-root indices induced by w0.

    Type A reverses the Dynkin diagram (j -> rank+1-j); type C is trivial.
    """
    subset = _simple_subset(system, subset)
    if system.family is Family.A:
        return frozenset(system.rank + 1 - j for j in subset)
    return subset


def _compose(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Window of the product ``left * right`` (apply ``right`` first)."""
    return tuple(left[j - 1] if j > 0 else -left[-j - 1] for j in right)


def _inverse(window: tuple[int, ...]) -> tuple[int, ...]:
    """Window of the inverse element."""
    inv = [0] * len(window)
    for j, image in enumerate(window, start=1):
        if image > 0:
            inv[image - 1] = j
        else:
            inv[-image - 1] = -j
    return tuple(inv)


def _times_s(window: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Window of w * s_i: swap positions i-1 and i, or negate the last entry.

    Only type C has a generator s_n (i = n = len(window)), the sign change.
    """
    if i == len(window):
        return window[:-1] + (-window[-1],)
    return window[: i - 1] + (window[i], window[i - 1]) + window[i + 1 :]


def _letter_table(window: tuple[int, ...]) -> list[int]:
    """A list t with t[v] = w(v) for every letter v, negative v indexing from the end."""
    return [0, *window, *(-j for j in reversed(window))]


def _s_times(window: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Window of s_i * w: swap the values +-i and +-(i+1), or negate +-n."""
    if i == len(window):
        swap = {i: -i, -i: i}
    else:
        swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
    return tuple(map(swap.get, window, window))


def _descends(window: tuple[int, ...], i: int) -> bool:
    """Whether s_i is a right descent of the element with this window.

    On slots (see :func:`_slots`) positive letters come in increasing order
    before negative ones, and s_n of type C descends iff the last entry is
    negative.  Left descents are right descents of the inverse window.
    """
    if i == len(window):
        return window[-1] < 0
    a, b = window[i - 1], window[i]
    return a > b if (a < 0) == (b < 0) else a < 0


def _slots(w: WeylElement) -> list[int]:
    """``w`` as a permutation of 0..N-1; in type C, of the slots e_1..e_n,
    e_{-n}..e_{-1}, the basis order of :meth:`SymplecticForm.standard`.

    s_i is a right descent of ``w`` iff the images of slots i-1, i descend.
    """
    if w.system.family is Family.A:
        return [j - 1 for j in w.window]
    n = w.system.degree
    images = w.window + tuple(-j for j in reversed(w.window))
    return [j - 1 if j > 0 else 2 * n + j for j in images]


def _bruhat_counts(w: WeylElement, slots: list[int] | None = None) -> tuple[int, ...]:
    """#{p <= i : w(p) >= k} for i in ``slots`` (default 0..N-2) and 1 <= k < N, w on slots."""
    perm = _slots(w)
    seen = [0] * len(perm)
    counts: list[int] = []
    walked = 0
    for i in range(len(perm) - 1) if slots is None else slots:
        for image in perm[walked : i + 1]:
            seen[image] = 1
        walked = i + 1
        counts += accumulate(seen[:0:-1])
    return tuple(counts)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order comparison by the counting (tableau) criterion.

    ``u <= w`` iff #{p <= i : u(p) >= k} <= #{p <= i : w(p) >= k} for all i
    and k, both read as permutations of their slots (see :func:`_slots`).
    This is the criterion for S_N, and a signed permutation compares in the
    hyperoctahedral group as it does inside S_2n (Bjoerner-Brenti, Theorems
    2.1.5 and 8.1.8).

    >>> s = RootSystem(Family.A, 2)
    >>> bruhat_leq(WeylElement(s, (2, 1, 3)), WeylElement(s, (3, 1, 2)))
    True
    >>> bruhat_leq(WeylElement(s, (2, 3, 1)), WeylElement(s, (3, 1, 2)))
    False
    """
    if u.system != w.system:
        raise ValueError("cannot compare elements of different systems")
    return all(map(int.__le__, _bruhat_counts(u), _bruhat_counts(w)))


def check_group_order(system: RootSystem) -> None:
    """Refuse a group of over ``GROUP_ORDER_LIMIT`` elements with a ``ValueError``."""
    name = f"{system.family.value}{system.rank}"
    # Both orders are at least 2^rank, so a large rank is refused before
    # its factorial is taken.
    if system.rank >= GROUP_ORDER_LIMIT.bit_length():
        raise ValueError(
            f"Weyl group {name} has order at least 2^{system.rank}, "
            f"above the limit of {GROUP_ORDER_LIMIT}"
        )
    if system.order() > GROUP_ORDER_LIMIT:
        raise ValueError(
            f"Weyl group {name} has order {system.order()}, above the limit of {GROUP_ORDER_LIMIT}"
        )


def _closure(system: RootSystem, gens: list[int], right: list[int], grown: bool = False) -> list:
    """Windows of <s_i : i in gens> with no right descent among ``right``, in (length,
    window) order; ``right`` is empty (a subgroup) or ``gens`` is every index.

    It grows the members' inverses u by u s_i at ascents, kept unless u s_i = s_k u, k in
    ``right``.  With ``grown`` (and ``right`` not empty) each window w comes as (w, u).
    """
    layer = {identity(system).window}
    ordered: list = []
    while layer:
        if grown:
            ordered += sorted(zip(map(_inverse, layer), layer))
        else:
            ordered += sorted(map(_inverse, layer) if right else layer)
        layer = {
            _times_s(u, i)
            for u in layer
            for i in gens
            if not _descends(u, i) and not _commutes_into(u, i, right)
        }
    return ordered


def _commutes_into(u: tuple[int, ...], i: int, right: list[int]) -> bool:
    """Whether u s_i = s_k u for some k in ``right``, s_i an ascent of u."""
    if i == len(u):
        return u[-1] == i and i in right
    return u[i] == u[i - 1] + 1 and min(abs(u[i - 1]), abs(u[i])) in right


@cache
def parabolic_elements(system: RootSystem, typeset: frozenset[int]) -> tuple[WeylElement, ...]:
    """Elements of W_typeset, the subgroup generated by {s_i : i NOT in typeset}.

    The complement convention matches flag types: typeset marks the levels a
    flag of that type keeps, so the full type (all indices) yields the
    trivial subgroup, and W_emptyset is the whole group.  Sorted by (length,
    window); refused by :func:`check_group_order` first.
    """
    check_group_order(system)
    typeset = _simple_subset(system, typeset)
    ordered = _closure(system, _generators(system, typeset), [])
    return tuple(WeylElement(system, w) for w in ordered)


class DoubleCoset(_Record):
    """A double coset W_left_type w W_right_type, named by its minimal element."""

    __slots__ = ("system", "left_type", "right_type", "min_rep")

    def __init__(
        self, system: RootSystem, left_type: frozenset, right_type: frozenset, min_rep: WeylElement
    ):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "left_type", left_type)
        object.__setattr__(self, "right_type", right_type)
        object.__setattr__(self, "min_rep", min_rep)

    def label(self) -> str:
        return self.min_rep.window_str()


class PositionPoset:
    """The poset W_{theta,eta} of double cosets with induced Bruhat order.

    ``cosets`` is sorted by (length, window) of minimal representatives.
    ``up`` holds for each coset i the bitset of the cosets at or above it
    (bit j for coset j).  ``w0_action`` maps coset index i to the index of
    [w0 * w_i]; it is only defined when theta is stable under the opposition
    involution, and is ``None`` otherwise.
    """

    def __init__(
        self,
        system: RootSystem,
        left_type: frozenset[int],
        right_type: frozenset[int],
        cosets: tuple[DoubleCoset, ...],
        up: tuple[int, ...],
        w0_action: tuple[int, ...] | None,
        _index_of_window: dict[tuple[int, ...], int],
        _gens: tuple[list[int], list[int]],
    ):
        self.system, self.left_type, self.right_type = system, left_type, right_type
        self.cosets, self.up, self.w0_action = cosets, up, w0_action
        self._index_of_window, self._gens = _index_of_window, _gens

    def __len__(self) -> int:
        return len(self.cosets)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def coset_index(self, w: WeylElement) -> int:
        """Index of the double coset containing ``w``, by its minimal representative."""
        index, window = self._index_of_window, w.window
        return index[window] if window in index else index[_min_rep(window, *self._gens)]

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Bitset of the cosets at or below each coset (bit i for coset i).

        Every relation is a chain of covers, and :meth:`covers` is sorted by
        its lower end, so ``down[i]`` is complete before it is passed on.
        """
        down = [1 << i for i in range(len(self.cosets))]
        for i, j in self.covers():
            down[j] |= down[i]
        return tuple(down)

    @cached_property
    def left_masks(self) -> tuple[tuple[int, int], ...]:
        """Row i-1 holds the bitsets (low, high) of the pairs c < d = [s_i * w_c].

        s_i w_c is shorter when s_i is a left descent of w_c, so [s_i w_c]
        comes before c and fails d > c.  Otherwise s_i w_c is the representative
        of a later coset d or lies in [w_c] (Deodhar's lemma), and a miss pairs
        nothing.
        """
        index = self._index_of_window
        tables = [_letter_table(s.window).__getitem__ for s in simple_reflections(self.system)]
        low, high = [0] * len(tables), [0] * len(tables)
        for c, dc in enumerate(self.cosets):
            w = dc.min_rep.window
            for i, s_i in enumerate(tables):
                if (d := index.get(tuple(map(s_i, w)), -1)) > c:
                    low[i] |= 1 << c
                    high[i] |= 1 << d
        return tuple(zip(low, high))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover relations (i, j) with coset i covered by coset j, sorted."""
        return self._covers

    @cached_property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        """The covers of i are the minimal members of its strict up-set.  Index
        order extends the poset order, so the lowest member left is minimal;
        taking it and dropping its up-set leaves the members not above it.
        """
        out = []
        for i, rest in enumerate(self.up):
            rest &= ~(1 << i)
            while rest:
                j = (rest & -rest).bit_length() - 1
                out.append((i, j))
                rest &= ~self.up[j]
        return tuple(out)


def _generators(system: RootSystem, typeset: frozenset[int]) -> list[int]:
    """Indices of the simple reflections generating W_typeset."""
    return [i for i in system.simple_indices if i not in typeset]


def _coset_step(
    window: tuple[int, ...], left: list[int], right: list[int]
) -> tuple[int, ...] | None:
    """A shorter element of the double coset W_theta w W_eta, or ``None``.

    ``left`` and ``right`` generate W_theta and W_eta.  A left descent s_i
    among them gives s_i w, else a right descent gives w s_i; an element
    with neither is the unique shortest one of its double coset.
    """
    if left:
        inverse = _inverse(window)
        for i in left:
            if _descends(inverse, i):
                return _s_times(window, i)
    for i in right:
        if _descends(window, i):
            return _times_s(window, i)
    return None


def _min_rep(window: tuple[int, ...], left: list[int], right: list[int]) -> tuple[int, ...]:
    """Window of the least element of W_theta w W_eta, ``left`` and ``right`` generating those."""
    while (shorter := _coset_step(window, left, right)) is not None:
        window = shorter
    return window


def _subgroup_order(system: RootSystem, gens: list[int]) -> int:
    """|<s_i : i in gens>|: (k+1)! per run of k adjacent gens, 2^k k! if it ends at s_n of C."""
    order = run = 1
    for i in system.simple_indices:
        run = run + 1 if i in gens else 1
        order *= 2 ** (run - 1) if system.family is Family.C and i == system.rank else run
    return order


def double_cosets(system: RootSystem, theta: frozenset[int], eta: frozenset[int]) -> PositionPoset:
    """Partition W into W_theta \\ W / W_eta double cosets.

    The cosets are named by their minimal representatives, in (length,
    window) order: the members of W^eta with no left descent s_i (i not in
    theta), or, if ^theta W (the inverses of W^theta) is smaller, its members
    with no right descent s_i (i not in eta).  For each Bruhat count field at
    a slot of eta, ``at_least[v]`` is the bitset of cosets whose count there
    is at least v, and ``up[i]`` is the AND of ``at_least[count(i)]`` over them.
    Distinct cosets have distinct counts, and a coset lies strictly below
    only longer ones, so that AND holds coset i and later cosets only.

    >>> s = RootSystem(Family.A, 3)
    >>> poset = double_cosets(s, frozenset({1, 2, 3}), frozenset({1}))
    >>> [dc.label() for dc in poset.cosets]
    ['1234', '2134', '3124', '4123']
    """
    check_group_order(system)
    theta = _simple_subset(system, theta)
    eta = _simple_subset(system, eta)
    left, right = _generators(system, theta), _generators(system, eta)
    every = list(system.simple_indices)
    if _subgroup_order(system, left) > _subgroup_order(system, right):
        grown = _closure(system, every, left, True)
        kept = [u for _, u in grown if _coset_step(u, [], right) is None]
        reps = sorted(kept, key=lambda u: (WeylElement(system, u).length(), u))
    elif left:  # a left descent of w is a right descent of the u it was grown as
        grown = _closure(system, every, right, True)
        reps = [w for w, u in grown if _coset_step(u, [], left) is None]
    else:
        reps = _closure(system, every, right)
    cosets = tuple(DoubleCoset(system, theta, eta, WeylElement(system, w)) for w in reps)
    up = [(1 << len(cosets)) - 1] * len(cosets)
    slots = sorted(i - 1 for i in eta)
    for field in zip(*(_bruhat_counts(dc.min_rep, slots) for dc in cosets)):
        at_least = [0] * (system.ambient_dim + 1)
        for j, count in enumerate(field):
            at_least[count] |= 1 << j
        for count in range(system.ambient_dim - 1, -1, -1):
            at_least[count] |= at_least[count + 1]
        up = [u & at_least[count] for u, count in zip(up, field)]
    index = {w: k for k, w in enumerate(reps)}
    w0_action: tuple[int, ...] | None = None
    if opposition_involution(system, theta) == theta:
        w0, w0_eta = longest_element(system).window, identity(system).window
        while ascent := [i for i in right if not _descends(w0_eta, i)]:
            w0_eta = _times_s(w0_eta, ascent[0])
        w0_of = _letter_table(w0)
        flipped = [
            tuple([w0_of[w[j - 1]] if j > 0 else w0_of[-w[-j - 1]] for j in w0_eta]) for w in reps
        ]
        if left:
            flipped = [_min_rep(w, left, right) for w in flipped]
        w0_action = tuple(map(index.__getitem__, flipped))
    return PositionPoset(system, theta, eta, cosets, tuple(up), w0_action, index, (left, right))


def double_coset_of(
    system: RootSystem, theta: frozenset[int], eta: frozenset[int], w: WeylElement
) -> DoubleCoset:
    """The double coset of ``w`` in W_theta \\ W / W_eta.

    Found by descent stripping from ``w`` alone, so it works in groups of
    any order.
    """
    theta = _simple_subset(system, theta)
    eta = _simple_subset(system, eta)
    window = _min_rep(w.window, _generators(system, theta), _generators(system, eta))
    return DoubleCoset(system, theta, eta, WeylElement(system, window))


def coset_inverse(dc: DoubleCoset) -> DoubleCoset:
    """Map [w] in W_{theta,eta} to [w^-1] in W_{eta,theta}."""
    return double_coset_of(
        dc.system, dc.right_type, dc.left_type, dc.min_rep.inverse()
    )


def sign_vector(w: WeylElement) -> tuple[int, ...]:
    """Signs (sign of w^-1(1), ..., sign of w^-1(n)) of a type C element.

    Constant on cosets w * <s_1..s_{n-1}>, i.e. on positions of isotropic
    full flags relative to a Lagrangian: the k-th sign is + exactly when the
    k-th flag line sits inside the reference Lagrangian's span.
    """
    if w.system.family is not Family.C:
        raise ValueError("sign vectors are defined for type C elements only")
    inv = w.inverse()
    return tuple(1 if inv.window[k] > 0 else -1 for k in range(w.system.degree))
