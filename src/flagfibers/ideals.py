"""Order ideals in position posets and their balance properties.

An ideal is a downward-closed subset of a :class:`~flagfibers.weyl.PositionPoset`.
A balanced ideal is one whose image under the w0-action is exactly its
complement: the balanced thickenings of Kapovich-Leeb-Porti.

Balanced ideals are enumerated by a pair-choice search on integer bitsets.
A search state is a pair (inside, outside) of decided cosets.  The lowest
undecided coset x is either put in, which puts its down-set in and the
up-set of w0(x) out, or left out, which puts its up-set out and the
down-set of w0(x) in.  Since w0 reverses the order, every state is closed
as it stands; a state whose two halves meet is dropped, and one that
decides every coset is a balanced ideal.  The search visits at most
``IDEAL_SEARCH_LIMIT`` states and is refused with a ``ValueError`` beyond
that, since the number of balanced ideals itself grows quickly: full-type
A4 has 4608 of them (9298 states), and full-type C4 and A5 pass the limit.
Found masks become ideals unchecked.  With a full left type, s_i pairs
cosets c < d = [s_i w_c], and an ideal holding d holds c, so s_i moves I iff
popcount(I & low_i) != popcount(I & high_i) (``PositionPoset.left_masks``).
"""

from __future__ import annotations

from .weyl import DoubleCoset, PositionPoset, WeylElement

__all__ = [
    "Ideal",
    "enumerate_balanced_ideals",
    "minimal_anosov_type",
    "thickening_membership",
]

# Full-type A4 needs 9298 search states; full-type C4 and A5 pass the limit.
IDEAL_SEARCH_LIMIT = 100_000


class Ideal:
    """A downward-closed set of coset indices in a position poset."""

    def __init__(self, poset: PositionPoset, members: frozenset[int] = frozenset()):
        self.poset, self.members = poset, frozenset(members)
        n = len(poset)
        if any(i < 0 or i >= n for i in self.members):
            raise ValueError("ideal members must be coset indices of the poset")
        self._mask = mask = sum(1 << j for j in self.members)
        for j in self.members:
            missing = poset.down[j] & ~mask
            if missing:
                i = _lowest(missing)
                raise ValueError(
                    f"not downward closed: contains {j} but not {i} below it"
                )

    @classmethod
    def _closed(cls, poset: PositionPoset, mask: int, members: list[int]) -> "Ideal":
        ideal = object.__new__(cls)
        ideal.poset, ideal.members, ideal._mask = poset, frozenset(members), mask
        return ideal

    def labels(self) -> frozenset[str]:
        return frozenset(self.poset.cosets[i].label() for i in self.members)

    def w0_image(self) -> frozenset[int]:
        if self.poset.w0_action is None:
            raise ValueError(
                "w0-action undefined: left type is not opposition-stable"
            )
        return frozenset(self.poset.w0_action[i] for i in self.members)

    def is_slim(self) -> bool:
        """No coset together with its w0-image."""
        return not (self.members & self.w0_image())

    def is_fat(self) -> bool:
        """Every coset or its w0-image."""
        return self.members | self.w0_image() == frozenset(range(len(self.poset)))

    def is_balanced(self) -> bool:
        return self.w0_image() == frozenset(range(len(self.poset))) - self.members


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bits(mask: int) -> list[int]:
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def enumerate_balanced_ideals(poset: PositionPoset) -> list[Ideal]:
    """All balanced ideals of the poset, smallest-member order.

    A balanced ideal contains exactly half of the cosets, so a poset of odd
    cardinality has none, and the empty list is the complete answer for it.
    The pair-choice search is described in the module docstring.

    >>> from flagfibers.weyl import Family, RootSystem, double_cosets
    >>> poset = double_cosets(RootSystem(Family.A, 2), frozenset({1, 2}), frozenset({1, 2}))
    >>> (ideal,) = enumerate_balanced_ideals(poset)
    >>> sorted(poset.cosets[i].label() for i in ideal.members), sorted(minimal_anosov_type(ideal))
    (['123', '132', '213'], [1, 2])
    """
    w0 = poset.w0_action
    if w0 is None:
        raise ValueError("balance needs the w0-action (opposition-stable left type)")
    n = len(poset)
    if n % 2 == 1:
        return []
    down, up = poset.down, poset.up
    everything = (1 << n) - 1
    found: list[int] = []
    stack = [(0, 0)]
    states = 0
    while stack:
        states += 1
        if states > IDEAL_SEARCH_LIMIT:
            raise ValueError(
                f"balanced-ideal search passed the limit of {IDEAL_SEARCH_LIMIT} "
                "states (ideals.IDEAL_SEARCH_LIMIT)"
            )
        inside, outside = stack.pop()
        undecided = everything & ~(inside | outside)
        if not undecided:
            found.append(inside)
            continue
        x = _lowest(undecided)
        for more_in, more_out in ((down[x], up[w0[x]]), (down[w0[x]], up[x])):
            if not (inside | more_in) & (outside | more_out):
                stack.append((inside | more_in, outside | more_out))
    rows = sorted((_bits(mask), mask) for mask in found)
    return [Ideal._closed(poset, mask, members) for members, mask in rows]


def minimal_anosov_type(ideal: Ideal) -> frozenset[int]:
    """Simple-root indices whose reflections move the ideal.

    The complement -- the reflections that leave the ideal invariant -- acts
    trivially on the associated thickening, so the returned set is the
    smallest flag type whose limit data already determines it.  Defined for
    ideals in posets with full left type (left action by W must descend).
    """
    poset = ideal.poset
    system = poset.system
    if poset.left_type != frozenset(system.simple_indices):
        raise ValueError("minimal type needs a poset with full left type")
    return frozenset(
        i
        for i, (low, high) in zip(system.simple_indices, poset.left_masks)
        if (ideal._mask & low).bit_count() != (ideal._mask & high).bit_count()
    )


def thickening_membership(ideal: Ideal, position: DoubleCoset | WeylElement) -> bool:
    """Whether a relative position lands in the thickening described by the ideal."""
    w = position.min_rep if isinstance(position, DoubleCoset) else position
    return ideal.poset.coset_index(w) in ideal.members
