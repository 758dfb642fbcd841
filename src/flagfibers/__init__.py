"""Exact combinatorics of flag varieties at desk scale.

Subpackages:

- ``weyl``     -- permutation and signed-permutation Weyl groups, Bruhat
                  order, parabolic double cosets.
- ``ideals``   -- order ideals in position posets, balanced ideals, minimal
                  Anosov types.
- ``flags``    -- exact linear algebra over Gaussian rationals and relative
                  positions of flags.
- ``sl2reps``  -- SL(2)-weight decompositions, partitions, invariant forms,
                  Cartan projections.
- ``twg``      -- weight graphs of circle actions on 3-dimensional flag
                  varieties and their Hirzebruch-model classification.
- ``dims``     -- dimension formulas and the census of 3-dimensional flag
                  varieties.
- ``cli``      -- command-line front end and golden-file reproduction.
"""

from operator import attrgetter

__version__ = "0.1.0"


class _Record:
    """Base of the immutable value types: a subclass names its fields, in
    constructor order, in ``__slots__`` and sets them in ``__init__`` with
    ``object.__setattr__``; it compares and hashes as the tuple of its fields,
    reads back as ``Name(field=value, ...)`` and refuses assignment and deletion."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
