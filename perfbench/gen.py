"""Seeded flag pairs in known relative position, built without the library.

Matrices are lists of rows whose entries are Gaussian integers stored as
``(re, im)`` pairs of Python ints, so the construction is exact and shares
no code with ``flagfibers.flags``.

A pair is built as F = g and H = g b w b', where b and b' fix the standard
flag (upper triangular, in Sp for the symplectic case) and w is a
(signed) permutation matrix.  The relative position of (F, H) is then w:
that is the answer every op is checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# Coefficient heights: small entries, and large entries with H's columns
# rescaled by rationals (column scaling keeps every flag level).
HEIGHTS = {"low": (2, 1), "high": (10**6, 10**3)}


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def matmul(x, y):
    n, m, p = len(x), len(y), len(y[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            re = im = 0
            for t in range(m):
                a, b = x[i][t], y[t][j]
                if a[0] or a[1]:
                    re += a[0] * b[0] - a[1] * b[1]
                    im += a[0] * b[1] + a[1] * b[0]
            row.append((re, im))
        out.append(row)
    return out


def identity(n):
    return [[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]


def _entry(rng: random.Random, span: int):
    return (rng.randint(-span, span), rng.randint(-span, span))


def unitriangular(rng: random.Random, n: int, span: int, upper: bool):
    m = identity(n)
    for i in range(n):
        for j in range(n):
            if (i < j) if upper else (i > j):
                m[i][j] = _entry(rng, span)
    return m


def borel(rng: random.Random, n: int, span: int):
    """Invertible upper triangular: unit diagonal times unipotent."""
    m = unitriangular(rng, n, span, upper=True)
    for i in range(n):
        u = rng.choice(UNITS)
        m[i] = [gmul(u, x) for x in m[i]]
    return m


def general(rng: random.Random, n: int, span: int):
    """A random element of GL(n, Z[i]) (lower times upper unipotent)."""
    return matmul(
        unitriangular(rng, n, span, upper=False), unitriangular(rng, n, span, upper=True)
    )


def permutation_matrix(window):
    """Column j is e_{w(j)}."""
    n = len(window)
    m = [[(0, 0)] * n for _ in range(n)]
    for j, image in enumerate(window):
        m[image - 1][j] = (1, 0)
    return m


def c_permutation_matrix(window):
    """The signed permutation matrix of ``window`` inside Sp(2n).

    Basis order is e_1..e_n, e_{-n}..e_{-1}; sending e_{-j} to -e_k when e_j
    goes to e_{-k} keeps the standard form.
    """
    n = len(window)
    size = 2 * n
    m = [[(0, 0)] * size for _ in range(size)]

    def index(letter):
        return letter - 1 if letter > 0 else size + letter

    for j, image in enumerate(window, start=1):
        m[index(image)][index(j)] = (1, 0)
        m[index(-image)][index(-j)] = (1, 0) if image > 0 else (-1, 0)
    return m


def standard_form(n: int):
    """Gram matrix of omega(e_j, e_{-k}) = delta_jk in the order e_1..e_n, e_{-n}..e_{-1}."""
    size = 2 * n
    g = [[0] * size for _ in range(size)]
    for i in range(n):
        g[i][size - 1 - i] = 1
        g[size - 1 - i][i] = -1
    return g


def transvection(v, c, gram):
    """x -> x + c omega(v, x) v, which preserves omega for every v and c."""
    size = len(v)
    row = [sum(v[i] * gram[i][j] for i in range(size)) for j in range(size)]
    m = identity(size)
    for i in range(size):
        for j in range(size):
            if v[i] and row[j]:
                re, im = m[i][j]
                m[i][j] = (re + c * v[i] * row[j], im)
    return m


def symplectic(rng: random.Random, n: int, span: int, upper: bool):
    """A product of integer transvections: in the Borel of Sp when ``upper``."""
    gram = standard_form(n)
    size = 2 * n
    m = identity(size)
    for _ in range(2 * n):
        if upper:
            picks = rng.sample(range(n), rng.choice((1, 2)))
        else:
            picks = rng.sample(range(size), 2)
        v = [0] * size
        for i in picks:
            v[i] = rng.choice((1, -1))
        m = matmul(m, transvection(v, rng.randint(-span, span), gram))
    if upper:
        # A torus element with unit entries: u on e_k and 1/u on e_{-k}.
        for k in range(n):
            u = rng.choice(UNITS)
            inv = (u[0], -u[1])
            for i in range(size):
                m[i][k] = gmul(m[i][k], u)
                m[i][size - 1 - k] = gmul(m[i][size - 1 - k], inv)
    return m


def scale_columns(rng: random.Random, m, span: int):
    """Scale each column by a nonzero rational; the entries become Fractions."""
    out = [[(Fraction(re), Fraction(im)) for re, im in row] for row in m]
    for j in range(len(m[0])):
        c = Fraction(rng.randint(1, span), rng.randint(1, span)) * rng.choice((1, -1))
        for row in out:
            row[j] = (row[j][0] * c, row[j][1] * c)
    return out


def flag_json(m, dims, ambient, columns=None):
    """JSON-ready flag data in the format ``flags.flag_from_json`` reads."""
    width = len(m[0]) if columns is None else columns
    return {
        "ambient": ambient,
        "signature": list(dims),
        "matrix": [[[str(re), str(im)] for re, im in row[:width]] for row in m],
    }


def a_pair(rng: random.Random, window, height: str):
    """Full-flag basis matrices (F, H) in type-A position ``window``."""
    span, scale = HEIGHTS[height]
    n = len(window)
    g = general(rng, n, span)
    h = matmul(matmul(matmul(g, borel(rng, n, span)), permutation_matrix(window)), borel(rng, n, span))
    if scale > 1:
        return scale_columns(rng, g, scale), scale_columns(rng, h, scale)
    return g, h


def c_pair(rng: random.Random, window, height: str):
    """Symplectic basis matrices (F, H) in type-C position ``window``."""
    span, scale = HEIGHTS[height]
    n = len(window)
    g = symplectic(rng, n, span, upper=False)
    b1 = symplectic(rng, n, span, upper=True)
    b2 = symplectic(rng, n, span, upper=True)
    h = matmul(matmul(matmul(g, b1), c_permutation_matrix(window)), b2)
    if scale > 1:
        return scale_columns(rng, g, scale), scale_columns(rng, h, scale)
    return g, h
