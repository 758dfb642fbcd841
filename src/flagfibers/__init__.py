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

The package base holds what the layers share: :class:`_Record`, the base of
the immutable value types, and the JSON input helpers :func:`json_fields`,
:func:`json_int` and :func:`brief_repr`, with which ``flags``, ``twg`` and
``cli`` read documents and word their error lines.
"""

import reprlib
import sys
from collections.abc import Sequence
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


def json_int(digits: str) -> int:
    """``parse_int`` for ``json.loads``: past the interpreter's limit on integer digits,
    a plain ``ValueError`` rather than advice to raise the limit."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a JSON number has more than {limit} digits") from None


class _BitCounts(reprlib.Repr):
    """``reprlib`` naming an int past the interpreter's limit on digits by its bit count."""

    def repr_int(self, x, level):
        try:
            return repr(x)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


def brief_repr(value) -> str:
    """``repr(value)`` for an error line: at most its first 60 characters, and then its length.

    An int too long for ``repr``, or one inside ``value``, is named by its bit count.

    >>> brief_repr("7" * 10**6)[55:]
    '77777... (1000002 characters)'
    >>> brief_repr([-(2**20000), "x"])
    "[<int of 20001 bits>, 'x']"
    """
    try:
        text = repr(value)
    except ValueError:
        text = _BitCounts().repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def json_fields(data, what: str, keys: Sequence[str]) -> tuple:
    """The values under ``keys`` of a JSON object; ``ValueError`` names what is wrong."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} JSON lacks the key {key!r}")
    return tuple(data[key] for key in keys)
