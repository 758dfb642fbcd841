"""Exact linear algebra over Gaussian rationals and relative positions of flags.

A flag in C^n is stored as an invertible matrix whose leading columns span
the flag subspaces, together with a signature recording which prefix
dimensions carry meaning.  Matrices store each column as a primitive
Gaussian-integer vector times its own positive rational scale, which one
normaliser gives however the entries arrive (as scalars or as JSON); ranks,
flag completions and Bruhat cells come from one fraction-free elimination kernel
over Z[i] fed those primitive columns, each step p*v - v_i*row from the
pivot on, divided by its integer content, so they are exact even where
positions degenerate.  A square basis or Gram matrix is proven invertible by
a certificate: a + bi -> a + b*r mod a prime p = 1 (mod 4), r^2 = -1 mod p, is
a ring homomorphism Z[i] -> F_p, so a residue determinant that is nonzero mod
p proves the exact one nonzero; only a residue determinant of 0 is left to the
exact rank.  Single entries go in and out as :class:`GaussianRational`.

Relative positions land in the Weyl groups of :mod:`flagfibers.weyl`.  Two
full flags meet in the Bruhat cell BwB that holds F^-1 H (Fulton, *Young
Tableaux*, 1997, ch. 10), read off a row pass over [F | H] and a column pass
over its H half.  Partial flags read H up to its top level for a double coset;
isotropic ones read H^n, and the pairing omega(F^n, H^n) for levels above n.

>>> F = ExactFlag.standard(full_signature(3))
>>> H = ExactFlag(full_signature(3), ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
>>> relative_position_full(F, H).window
(2, 1, 3)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence, Union

from . import _Record, brief_repr, json_fields
from .weyl import DoubleCoset, Family, RootSystem, WeylElement, double_coset_of

Scalar = Union[int, str, Fraction, "GaussianRational"]
_Ratio = tuple[int, int]  # a rational as (numerator, denominator > 0), maybe unreduced
_Row = Sequence[tuple[int, int]]  # a vector over Z[i], entries as (re, im) pairs


class GaussianRational(_Record):
    """An exact complex number ``real + imag*i`` with rational parts: the boundary
    scalar that :class:`ExactMatrix` takes entries in and hands them out as.  Its
    field operations serve callers that compute on entries (``perfbench``'s form
    check); the package itself computes on matrices.

    >>> a, b = GaussianRational(1, 2), GaussianRational(3, -1)
    >>> print(a * b, a * b / b, -a - b)
    5+5i 1+2i -4-i
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction = Fraction(0), imag: Fraction = Fraction(0)):
        object.__setattr__(self, "real", Fraction(real))
        object.__setattr__(self, "imag", Fraction(imag))

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        (a, b), (c, d) = (self.real, self.imag), (other.real, other.imag)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        (a, b), (c, d) = (self.real, self.imag), (other.real, other.imag)
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __str__(self) -> str:
        if not self.imag:
            return str(self.real)
        if self.imag == 1:
            unit = "i"
        elif self.imag == -1:
            unit = "-i"
        else:
            unit = f"{self.imag}i"
        if not self.real:
            return unit
        return f"{self.real}{unit}" if unit.startswith("-") else f"{self.real}+{unit}"


def _parts(x: Scalar) -> tuple[_Ratio, _Ratio]:
    if isinstance(x, GaussianRational):
        return (x.real.numerator, x.real.denominator), (x.imag.numerator, x.imag.denominator)
    value = x if isinstance(x, int) else Fraction(x)
    return (value.numerator, value.denominator), (0, 1)


def _from_ratio_rows(rows: list[list[tuple[_Ratio, _Ratio]]], cols: int) -> ExactMatrix:
    """The matrix of rows of ``(re, im)`` ratio pairs, or ``cols`` empty columns if no rows."""
    width = len(rows[0]) if rows else cols
    if any(len(row) != width for row in rows):
        raise ValueError("rows must all have the same length")
    ratios = [ratio for row in rows for pair in row for ratio in pair]
    return _from_parts(len(rows), width, [p for p, _ in ratios], [q for _, q in ratios])


def _from_parts(height: int, width: int, nums: list[int], dens: list[int] | None) -> ExactMatrix:
    """The one normaliser into the stored form.  ``nums`` and ``dens`` hold the parts
    of the entries row by row, real then imaginary, as numerators and denominators
    (> 0, maybe unreduced; None for all 1).  Each column is put over the lcm of its
    denominators, then divided by its integer content."""
    step, columns, scales = 2 * width, [], []
    for j in range(0, step, 2):
        real, imag = nums[j::step], nums[j + 1 :: step]
        den = 1
        if dens:
            real_dens, imag_dens = dens[j::step], dens[j + 1 :: step]
            den = math.lcm(*real_dens, *imag_dens)
            if den > 1:
                real = [a * (den // q) for a, q in zip(real, real_dens)]
                imag = [b * (den // q) for b, q in zip(imag, imag_dens)]
        content = math.gcd(*real, *imag)
        if content > 1:
            real = [a // content for a in real]
            imag = [b // content for b in imag]
        common = math.gcd(content, den)
        columns.append(tuple(zip(real, imag)))
        scales.append((content // common, den // common) if content else (0, 1))
    return ExactMatrix._stored(height, tuple(columns), tuple(scales))


def _dot(u: _Row, v: _Row) -> tuple[int, int]:
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        if c or d:
            re += a * c - b * d
            im += a * d + b * c
    return re, im


class ExactMatrix:
    """An immutable matrix over Q(i), stored by column: each column a primitive
    vector of ``(re, im)`` int pairs (integer content 1) times its own scale
    ``(num, den)``, a positive rational in lowest terms (a zero column is zeros
    times ``(0, 1)``).  The form is canonical, so equal matrices compare and hash
    equal however they were built, and every elimination is fed primitive
    columns.  ``entry`` and ``row`` build :class:`GaussianRational` values on
    demand.

    >>> m = ExactMatrix([[1, 1, 0], [0, 1, 1]])
    >>> m.rank(), m.hstack(m).rank()
    (2, 2)
    >>> m = ExactMatrix([["1/2", 3], [-1, "3/4"]])
    >>> m._columns, m._scales
    ((((1, 0), (-2, 0)), ((4, 0), (1, 0))), ((1, 2), (3, 4)))
    """

    __slots__ = ("_rows", "_columns", "_scales")

    def __new__(cls, entries: Iterable[Iterable[Scalar]] = (), *, cols: int | None = None):
        return _from_ratio_rows([list(map(_parts, row)) for row in entries], cols or 0)

    @classmethod
    def _stored(cls, rows: int, columns: tuple, scales: tuple) -> "ExactMatrix":
        """A matrix from columns and scales already in the stored form."""
        matrix = object.__new__(cls)
        matrix._rows, matrix._columns, matrix._scales = rows, columns, scales
        return matrix

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        units = tuple(tuple((int(i == j), 0) for i in range(n)) for j in range(n))
        return cls._stored(n, units, ((1, 1),) * n)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return len(self._columns)

    def entry(self, i: int, j: int) -> GaussianRational:
        re, im = self._columns[j][i]
        num, den = self._scales[j]
        return GaussianRational(Fraction(re * num, den), Fraction(im * num, den))

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def prefix_columns(self, k: int) -> "ExactMatrix":
        """The submatrix of the first ``k`` columns."""
        if not 0 <= k <= self.cols:
            raise ValueError(f"no prefix of {k} columns in a matrix with {self.cols}")
        return ExactMatrix._stored(self.rows, self._columns[:k], self._scales[:k])

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return ExactMatrix._stored(
            self.rows, self._columns + other._columns, self._scales + other._scales
        )

    def rank(self) -> int:
        echelon: dict[int, _Row] = {}
        return sum(_reduce_into(echelon, c) is not None for c in self._columns)

    def integer_entries(self) -> dict[tuple[int, int], tuple[int, int]]:
        """The nonzero entries of D times the matrix, D the lcm of the scales'
        denominators, as ``(re, im)`` ints keyed by (row, column), column by column."""
        den = math.lcm(*[q for _, q in self._scales])
        entries = {}
        for j, (col, (p, q)) in enumerate(zip(self._columns, self._scales)):
            f = p * (den // q)
            entries.update(((i, j), (a * f, b * f)) for i, (a, b) in enumerate(col) if a or b)
        return entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self._rows, self._scales, self._columns) == (
            other._rows, other._scales, other._columns
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._scales, self._columns))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


# A prime p = 1 (mod 4) and a root r of x^2 + 1 mod p.  Then a + bi -> a + b*r mod p
# is a ring homomorphism Z[i] -> F_p, so it maps a determinant to a determinant.
_P, _R = 1000000009, 569522298


def _invertible(matrix: ExactMatrix) -> bool:
    """Whether a square matrix is invertible, by a certificate mod p where one exists.

    Its primitive columns, mapped to F_p (see ``_P``), are eliminated there by the
    fraction-free step v <- p*v - v_i*pivot: a pivot for every entry index makes the
    residue determinant nonzero, which proves the exact one nonzero.  Only a
    residue determinant of 0 leaves the answer to the exact rank.

    >>> all(_P % k for k in range(2, math.isqrt(_P) + 1)), _P % 4, (_R * _R + 1) % _P
    (True, 1, 0)
    >>> _invertible(ExactMatrix([[_P, 0], [1, 1]])), _invertible(ExactMatrix([[1, 2], [2, 4]]))
    (True, False)
    """
    columns = [[(a + b * _R) % _P for a, b in col] for col in matrix._columns]
    n = len(columns)
    for i in range(n):
        for k in range(i, n):
            if columns[k][i]:
                break
        else:  # no pivot for entry i: the residue determinant is 0
            return matrix.rank() == n
        pivot, columns[k] = columns[k], columns[i]
        p = pivot[i]
        for col in columns[i + 1 :]:
            if f := col[i]:
                for j in range(i + 1, n):
                    col[j] = (p * col[j] - f * pivot[j]) % _P
    return True


class Signature(_Record):
    """Strictly increasing subspace dimensions ``d_1 < ... < d_l`` inside C^n."""

    __slots__ = ("dims", "ambient")

    def __init__(self, dims: tuple[int, ...], ambient: int):
        dims = tuple(int(d) for d in dims)
        if ambient < 1:
            raise ValueError("ambient dimension must be positive")
        if any(d <= 0 for d in dims):
            raise ValueError("subspace dimensions must be positive")
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise ValueError("subspace dimensions must strictly increase")
        if dims and dims[-1] >= ambient:
            raise ValueError("subspace dimensions must stay below the ambient one")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ambient", ambient)

    @property
    def top(self) -> int:
        return self.dims[-1] if self.dims else 0

    def is_full(self) -> bool:
        # Positive, strictly increasing and below n: n - 1 of them are 1..n-1.
        return len(self.dims) == self.ambient - 1


def full_signature(n: int) -> Signature:
    """Signature of a full flag in C^n: every dimension 1..n-1."""
    return Signature(tuple(range(1, n)), n)


def check_position_signature(signature: Signature, symplectic: bool) -> None:
    """Refuse a flag whose signature a relative position question cannot take.

    The plain question takes full flags (1..n-1); the symplectic one takes
    complete isotropic flags (1..n in C^{2n}).  Counting the dimensions is
    enough, since they are positive, strictly increasing and below the
    ambient one, so the check costs O(len(dims)) whatever the ambient
    dimension.
    """
    if symplectic:
        n, odd = divmod(signature.ambient, 2)
        if odd or len(signature.dims) != n or signature.top != n:
            raise ValueError("expected a complete isotropic flag (signature 1..n)")
    elif not signature.is_full():
        raise ValueError("expected a full flag (signature 1..n-1)")


class ExactFlag(_Record):
    """A flag given by an invertible basis matrix and a signature.

    The first ``d`` columns of ``basis`` span the ``d``-dimensional flag
    subspace for each ``d`` in the signature.  Columns beyond the top
    signature dimension serve only as a completion; nothing downstream may
    depend on them (positions of partial flags are lift-independent).
    """

    __slots__ = ("signature", "basis")

    def __init__(self, signature: Signature, basis: ExactMatrix):
        n = signature.ambient
        if basis.rows != n or basis.cols != n:
            raise ValueError("flag basis must be square of ambient size")
        if not _invertible(basis):
            raise ValueError("flag basis must be invertible")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def standard(cls, signature: Signature) -> "ExactFlag":
        return cls(signature, ExactMatrix.identity(signature.ambient))

    @classmethod
    def from_columns(cls, signature: Signature, columns: ExactMatrix) -> "ExactFlag":
        """Complete leading columns to a basis by one echelon pass over them and
        then e_1, ..., e_n, keeping each e_i independent of what came before,
        until the echelon holds n rows.

        That pass proves the basis invertible, so the rank check of the
        constructor is not run again.
        """
        n = signature.ambient
        if columns.rows != n or columns.cols != signature.top:
            raise ValueError("need exactly the top-dimension many leading columns")
        echelon: dict[int, _Row] = {}
        if any(_reduce_into(echelon, c) is None for c in columns._columns):
            raise ValueError("leading columns are linearly dependent")
        units = ExactMatrix.identity(n)._columns
        completion = tuple(
            e for e in units if len(echelon) < n and _reduce_into(echelon, e) is not None
        )
        flag = object.__new__(cls)
        object.__setattr__(flag, "signature", signature)
        completed = ExactMatrix._stored(n, completion, ((1, 1),) * len(completion))
        object.__setattr__(flag, "basis", columns.hstack(completed))
        return flag


class SymplecticForm(_Record):
    """A nondegenerate antisymmetric bilinear form, stored as its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: ExactMatrix):
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        entries = gram.integer_entries()
        if any(entries.get((j, i)) != (-a, -b) for (i, j), (a, b) in entries.items()):
            raise ValueError("Gram matrix must be antisymmetric")
        if not _invertible(gram):
            raise ValueError("form is degenerate")
        object.__setattr__(self, "gram", gram)

    @property
    def ambient(self) -> int:
        return self.gram.rows

    @classmethod
    def from_pairing(cls, pairing: Sequence[tuple[int, int]]) -> "SymplecticForm":
        """The form whose Gram matrix holds, for ``pairing[j] == (i, c)``, only the
        int c in column j, at row i.  It is antisymmetric exactly when every
        ``pairing[i] == (j, -c)``, so j -> i is an involution, and then nondegenerate
        exactly when no c is 0: O(n) checks.  Column j is stored as sign(c) e_i at
        scale |c|, the canonical form that the dense route makes.

        >>> SymplecticForm.from_pairing([(1, -2), (0, 2)]).gram
        ExactMatrix(2x2: 0 2; -2 0)
        """
        n, columns, scales = len(pairing), [], []
        for j, (i, c) in enumerate(pairing):
            if not (isinstance(i, int) and 0 <= i < n and isinstance(c, int)):
                raise ValueError(f"a pairing entry must be (row below {n}, int): {brief_repr((i, c))}")
            if tuple(pairing[i]) != (j, -c):
                raise ValueError("Gram matrix must be antisymmetric")
            columns.append(((0, 0),) * i + (((c > 0) - (c < 0), 0),) + ((0, 0),) * (n - 1 - i))
            scales.append((abs(c), 1))
        if (0, 1) in scales:
            raise ValueError("form is degenerate")
        form = object.__new__(cls)
        object.__setattr__(form, "gram", ExactMatrix._stored(n, tuple(columns), tuple(scales)))
        return form

    @classmethod
    def standard(cls, n: int) -> "SymplecticForm":
        """The form with omega(e_j, e_{-k}) = delta_jk on C^{2n}.

        Basis order is e_1, ..., e_n, e_{-n}, ..., e_{-1}, so the Gram matrix
        is antidiagonal with +1 in the first n rows and -1 in the last n.
        """
        return cls.from_pairing([(2 * n - 1 - j, -1 if j < n else 1) for j in range(2 * n)])


def relative_position_full(F: ExactFlag, H: ExactFlag) -> WeylElement:
    """The permutation w of the Bruhat cell B w B that holds F^-1 H.

    Column j of F^-1 H holds h_j in F's basis.  Reduced against the earlier
    columns, with each column's lowest nonzero entry as its pivot, it keeps
    its pivot in row w(j), and dim(F^k meet H^j) = #{c <= j : w(c) <= k}.
    The identity means F = H levelwise, the longest element means the flags
    are transverse.
    """
    check_position_signature(F.signature, symplectic=False)
    check_position_signature(H.signature, symplectic=False)
    n = F.signature.ambient
    if H.signature.ambient != n:
        raise ValueError("ambient dimension mismatch")
    # A flag's basis is checked invertible, so its columns are adapted to its levels.
    window = _bruhat_window(F.basis._columns, H.basis._columns)
    return WeylElement(RootSystem(Family.A, n - 1), window)


def _bruhat_window(f_basis: Sequence[_Row], h_columns: Sequence[_Row]) -> tuple[int, ...]:
    """The levels w(1..m) of a flag H's leading columns h_1..h_m against a basis
    adapted to a full flag F in C^n: the Bruhat cell of F^-1 H when m = n.  The
    rows of [F | h_1..h_m] go into one echelon as A F = U, upper triangular with
    every pivot 0..n-1 taken (F is invertible), beside A H = U F^-1 H, so no
    later column of H would change a step.  U keeps each column's lowest nonzero
    entry left by reduction against the earlier ones: each column of A H, read
    bottom up, reduces into a second echelon under pivot p = n - w(j)."""
    n = len(f_basis)
    rows: dict[int, _Row] = {}
    for row in zip(*f_basis, *h_columns):
        _reduce_into(rows, row)
    echelon: dict[int, _Row] = {}
    window = []
    for j in range(n, n + len(h_columns)):
        remainder = _reduce_into(echelon, [rows[k][j] for k in reversed(range(n))])
        window.append(n - next(k for k, (a, b) in enumerate(remainder) if a or b))
    return tuple(window)


def _reduce_into(echelon: dict[int, _Row], vector: _Row) -> _Row | None:
    """Fraction-free reduction of a Z[i] vector against ``echelon`` (pivot -> row).

    Entry v_i is cleared by v <- p*v - v_i*row, p the row's pivot entry, and
    the integer content is divided out after each step.  Entries before the
    pivot i are zero in v and the row alike, so the loop carries only the tail
    of v from i on and builds the full-length remainder when it inserts it
    (``vector`` itself if no step changed it), under its first nonzero entry.
    Returns that remainder, or None if v reduces to 0.
    """
    i, tail, changed = 0, vector, False
    while True:
        for k, (a, b) in enumerate(tail):
            if a or b:
                break
        else:
            return None
        if k:
            i += k
            tail = tail[k:]
        content = math.gcd(a, b)  # a multiple of the content; 1 settles it
        if content > 1:
            content = math.gcd(content, *[t for pair in tail for t in pair])
            if content > 1:
                tail = [(x // content, y // content) for x, y in tail]
                (a, b), changed = tail[0], True
        row = echelon.get(i)
        if row is None:
            if changed:
                vector = [(0, 0)] * i + tail
            echelon[i] = vector
            return vector
        c, d = row[i]
        i += 1
        tail = [
            (c * x - d * y - a * p + b * q, c * y + d * x - a * q - b * p)
            for (x, y), (p, q) in zip(tail[1:], row[i:])
        ]
        changed = True


def relative_position_symplectic(
    F: ExactFlag, H: ExactFlag, omega: SymplecticForm
) -> WeylElement:
    """The signed permutation describing how two complete isotropic flags
    (signature 1..n) in the form's C^{2n} meet, read as full flags through
    F^{n+m} = perp of F^{n-m}, level 2n+1-k as letter -k.  The window of F's
    stored basis against H's isotropic columns h_j gives each level w(j) <= n.
    Above n, dim(F^{n+m} meet H^j) = j - rank P[1..n-m, 1..j], P = (omega(f_i,
    h_j)) for i, j <= n: column j of P, reduced against the earlier ones, has a
    remainder exactly when w(j) > n, whose first nonzero index k makes -(k+1).
    """
    check_position_signature(F.signature, symplectic=True)
    check_position_signature(H.signature, symplectic=True)
    size = omega.ambient
    if F.signature.ambient != size or H.signature.ambient != size:
        raise ValueError("ambient dimension mismatch between the flags and the form")
    n = size // 2
    f, h = F.basis._columns[:n], H.basis._columns[:n]
    paired = _form_products(omega.gram, f + h)
    paired_f, paired_h = paired[:n], paired[n:]
    # u . (D G v) is omega(u, v) times D; antisymmetry settles the pairs with i <= k.
    for u, g in ((f, paired_f), (h, paired_h)):
        if any(any(_dot(u[i], g[k])) for i in range(n) for k in range(i)):
            raise ValueError("flag is not isotropic for the given form")
    echelon: dict[int, _Row] = {}
    window = []
    for level, g in zip(_bruhat_window(F.basis._columns, h), paired_h):
        remainder = _reduce_into(echelon, [_dot(u, g) for u in f])
        if (remainder is None) != (level <= n):
            raise ArithmeticError("pairing rank disagrees with the Bruhat window")
        if remainder is not None:
            level = -1 - next(k for k, (a, b) in enumerate(remainder) if a or b)
        window.append(level)
    return WeylElement(RootSystem(Family.C, n), tuple(window))


def _form_products(gram: ExactMatrix, vectors: Sequence[_Row]) -> list[list[list[int]]]:
    """D G v for each integer vector v, D the Gram matrix G's common denominator,
    summed over G's nonzero entries alone."""
    terms = gram.integer_entries().items()
    products = [[[0, 0] for _ in v] for v in vectors]
    for v, product in zip(vectors, products):
        for (i, j), (a, b) in terms:
            x, y = v[j]
            product[i][0] += a * x - b * y
            product[i][1] += a * y + b * x
    return products


def relative_position_partial(
    F: ExactFlag, H: ExactFlag, theta: frozenset[int], eta: frozenset[int]
) -> DoubleCoset:
    """The double coset position of two partial flags of types theta and eta.

    A flag has type theta when its signature dimensions are exactly the
    members of theta.  F's stored basis, checked invertible, serves as its
    full-flag lift, and H's columns up to its top level give the first letters;
    W_eta permutes the rest freely, so any order of them names the same coset.
    """
    n = F.signature.ambient
    if H.signature.ambient != n:
        raise ValueError("ambient dimension mismatch")
    theta, eta = frozenset(theta), frozenset(eta)
    if tuple(sorted(theta)) != F.signature.dims:
        raise ValueError("left flag signature does not match theta")
    if tuple(sorted(eta)) != H.signature.dims:
        raise ValueError("right flag signature does not match eta")
    levels = _bruhat_window(F.basis._columns, H.basis._columns[: H.signature.top])
    window = levels + tuple(sorted(set(range(1, n + 1)).difference(levels)))
    w = WeylElement(RootSystem(Family.A, n - 1), window)
    return double_coset_of(w.system, theta, eta, w)


def matrix_to_json(matrix: ExactMatrix) -> list[list[list[str]]]:
    """Rows of ``[real, imag]`` pairs of exact strings, read off the stored columns."""

    def text(x: int, num: int, den: int) -> str:
        return str(Fraction(x * num, den)) if x else "0"

    columns = list(zip(matrix._columns, matrix._scales))
    return [
        [[text(col[i][0], num, den), text(col[i][1], num, den)] for col, (num, den) in columns]
        for i in range(matrix.rows)
    ]


def matrix_from_json(rows) -> ExactMatrix:
    """Read rows of ``[real, imag]`` pairs, the parts numbers or ``"p"``/``"p/q"`` strings.

    Anything else (a bare number for an entry, a pair of the wrong length, a
    boolean or other part that is not a rational, a string in exponent notation,
    whose value can take far more memory than its text) raises ``ValueError``.

    >>> print(matrix_from_json([[["1/2", "-1"], [0, 3]]]).entry(0, 0))
    1/2-i
    >>> matrix_from_json([[1, 0]])
    Traceback (most recent call last):
    ...
    ValueError: matrix entries must be [real, imag] pairs, got 1
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("a matrix must be a list of rows")
    matrix = _plain_matrix_from_json(rows)
    if matrix is None:
        matrix = _from_ratio_rows([[_entry_from_json(entry) for entry in row] for row in rows], 0)
    return matrix


# One or more plain "p" or "p/q" parts (q > 0), joined by commas.
_PLAIN_PARTS = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?(?:,[+-]?[0-9]+(?:/0*[1-9][0-9]*)?)*")


def _plain_matrix_from_json(rows: list[list]) -> ExactMatrix | None:
    """The matrix of equal-length rows of ``[real, imag]`` pairs whose every part is a
    plain ``"p"`` or ``"p/q"`` string, checked by one match over the joined parts, or
    None for any other document, which the per-entry path reads or refuses.  The
    parts are read by ``int`` in one pass and left unreduced for :func:`_from_parts`.
    """
    width = len(rows[0]) if rows else 0
    entries = [entry for row in rows for entry in row]
    try:  # list.__len__ refuses anything but a list
        if not width or set(map(len, rows)) != {width} or set(map(list.__len__, entries)) != {2}:
            return None
        parts = [part for entry in entries for part in entry]
        text = ",".join(parts)
    except TypeError:
        return None
    if not _PLAIN_PARTS.fullmatch(text):
        return None
    try:  # int refuses a part with a comma inside, or past its digit limit
        if "/" in text:
            ratios = list(map(str.partition, parts, repeat("/")))
            nums = list(map(int, map(itemgetter(0), ratios)))
            dens = [int(q) if q else 1 for _, _, q in ratios]
        else:
            nums, dens = list(map(int, parts)), None
    except ValueError:
        return None
    return _from_parts(len(rows), width, nums, dens)


def _entry_from_json(entry) -> tuple[_Ratio, _Ratio]:
    """A ``[real, imag]`` pair whose parts ``Fraction`` reads, any but a boolean."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"matrix entries must be [real, imag] pairs, got {brief_repr(entry)}")
    if any(isinstance(part, str) and "e" in part.lower() for part in entry):
        raise ValueError(
            f'matrix entry parts must read "p" or "p/q", not use an exponent: {brief_repr(entry)}'
        )
    try:
        if any(isinstance(part, bool) for part in entry):
            raise TypeError("a boolean is not a rational")
        real, imag = map(Fraction, entry)
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"matrix entry is not a pair of rationals: {brief_repr(entry)}") from None
    return (real.numerator, real.denominator), (imag.numerator, imag.denominator)


def signature_from_json(data) -> Signature:
    """The signature of a flag document, read without its matrix; bad shapes raise ValueError."""
    ambient, dims, _ = json_fields(data, "flag", ("ambient", "signature", "matrix"))
    if type(ambient) is not int:
        raise ValueError('flag JSON "ambient" must be an integer')
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ValueError('flag JSON "signature" must be a list of integers')
    return Signature(tuple(dims), ambient)


def flag_from_json(data) -> ExactFlag:
    """Rebuild a flag from its full basis or leading columns; bad shapes raise ValueError."""
    signature = signature_from_json(data)
    matrix = matrix_from_json(data["matrix"])
    if matrix.cols == signature.ambient:
        return ExactFlag(signature, matrix)
    if matrix.cols == signature.top:
        return ExactFlag.from_columns(signature, matrix)
    raise ValueError("matrix must supply the full basis or the leading columns")
