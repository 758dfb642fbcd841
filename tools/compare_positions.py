"""Compare ``flagfibers position`` and ``flagfibers reps`` between two source trees.

    python tools/compare_positions.py OLD_SRC NEW_SRC

The script writes seeded flag and form files into a temporary directory with
the standard library alone, and each tree, imported in its own child
process, answers every command on them:

- full flags in C^2..C^6 in known positions (every permutation up to n = 4,
  seeded samples above), once with Gaussian-integer entries and once with
  every column scaled by its own rational, written unreduced as ``p/q``;
- complete isotropic flags of C2-C4 in known positions, under the standard
  form and under D^T omega D for a diagonal D of distinct rationals, given
  by a full basis or by their leading columns;
- a pair of full flags in C^8 whose files hold about 8 KB of long rationals;
- full flags in C^5 and C^6 whose entries are independent Gaussian rationals
  p/q + (r/s)i of up to 10 digits each, against the standard flag in both
  orders and against their products with a sampled permutation between two
  Borel elements, so cells other than the generic one occur;
- refusals: singular and dependent bases, flags that are not isotropic,
  forms that are not antisymmetric or are degenerate, bad entries, and
  signatures or dimensions the question does not take;
- ``reps`` for every partition of 2..8, whose invariant form is printed
  entry by entry;
- complete isotropic flags of C2 and C3 in known positions under the dense
  form P^T omega P, P a seeded invertible integer matrix with no zero entry,
  the flags moved by P^-1 and given by a full basis or by their leading
  columns, and flags isotropic for only one of the two forms, refused;
- full flags of C^3 and C^4 and complete isotropic flags of C^4 in known
  positions whose parts mix JSON ints and floats, decimal strings, padded
  ``" p/q "`` strings and plain ones, so that only the per-entry path of
  ``matrix_from_json`` reads them, forms included.

A command's answer is its exit code and the SHA-256 of its standard output
and of its standard error.  The script prints the number of commands and of
differences, and the wall time of each tree's child, and exits 1 on any
difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def gmul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def matmul(*factors):
    """The product of matrices of ``(re, im)`` pairs, given as lists of rows."""
    product = factors[0]
    for b in factors[1:]:
        columns = list(zip(*b))
        product = [
            [tuple(map(sum, zip(*(gmul(x, y) for x, y in zip(row, col))))) for col in columns]
            for row in product
        ]
    return product


def identity(n):
    return [[(int(i == j), 0) for j in range(n)] for i in range(n)]


def unitriangular(rng, n, span, upper):
    return [
        [
            (rng.randint(-span, span), rng.randint(-span, span))
            if (i < j if upper else i > j)
            else (int(i == j), 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def borel(rng, n, span):
    """Upper unitriangular times a diagonal of units: it fixes the standard flag."""
    m = unitriangular(rng, n, span, upper=True)
    units = [rng.choice(UNITS) for _ in range(n)]
    return [[gmul(x, units[j]) for j, x in enumerate(row)] for row in m]


def gaussian_rationals(rng, n, digits):
    """An n x n matrix of independent p/q + (r/s)i, each part of up to ``digits`` digits."""

    def part():
        return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))

    return [[(part(), part()) for _ in range(n)] for _ in range(n)]


def permutation(window):
    """Column j is e_{w(j)}."""
    m = [[(0, 0)] * len(window) for _ in window]
    for j, image in enumerate(window):
        m[image - 1][j] = (1, 0)
    return m


def standard_form(n):
    """omega(e_j, e_{-k}) = delta_jk in the order e_1..e_n, e_{-n}..e_{-1}."""
    g = [[(0, 0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        g[i][2 * n - 1 - i], g[2 * n - 1 - i][i] = (1, 0), (-1, 0)
    return g


def symplectic(rng, n, span, upper):
    """A product of transvections x -> x + c omega(v, x) v, which keep the standard
    form; with ``upper``, v lies in the standard Lagrangian and a unit torus
    element follows, so the product fixes the standard isotropic flag."""
    size, gram = 2 * n, standard_form(n)
    m = identity(size)
    for _ in range(size):
        picks = rng.sample(range(n if upper else size), rng.randint(1, 2) if upper else 2)
        v = [rng.choice((1, -1)) if i in picks else 0 for i in range(size)]
        row = [sum(v[i] * gram[i][j][0] for i in range(size)) for j in range(size)]
        c = rng.randint(-span, span)
        step = [[(int(i == j) + c * v[i] * row[j], 0) for j in range(size)] for i in range(size)]
        m = matmul(m, step)
    if upper:
        units = [rng.choice(UNITS) for _ in range(n)]
        torus = units + [(a, -b) for a, b in reversed(units)]
        m = [[gmul(x, torus[j]) for j, x in enumerate(row)] for row in m]
    return m


def inverse(m):
    """The inverse of an invertible real matrix, by Gauss-Jordan over Q."""
    n = len(m)
    rows = [[Fraction(a) for a, _ in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [[(x, 0) for x in row[n:]] for row in rows]


def transpose(m):
    return [list(col) for col in zip(*m)]


def signed_permutation(window):
    """Letter j is e_j, letter -j is e_{-j}; e_{-j} goes to -e_k when e_j goes to e_{-k}."""
    size = 2 * len(window)
    m = [[(0, 0)] * size for _ in range(size)]

    def index(letter):
        return letter - 1 if letter > 0 else size + letter

    for j, image in enumerate(window, start=1):
        m[index(image)][index(j)] = (1, 0)
        m[index(-image)][index(-j)] = (1, 0) if image > 0 else (-1, 0)
    return m


def scale_columns(rng, m, digits):
    """Each column times its own signed rational of up to ``digits`` digits."""
    ratios = [
        Fraction(rng.choice((1, -1)) * rng.randint(1, 10**digits), rng.randint(1, 10**digits))
        for _ in m[0]
    ]
    return [[(Fraction(a) * r, Fraction(b) * r) for (a, b), r in zip(row, ratios)] for row in m]


def scale_columns_by(rng, m, ratios):
    """Each column times its own rational drawn from ``ratios``."""
    picks = [rng.choice(ratios) for _ in m[0]]
    return [[(Fraction(a) * r, Fraction(b) * r) for (a, b), r in zip(row, picks)] for row in m]


def text(x, factor=1):
    x = Fraction(x)
    return str(x) if factor == 1 else f"{x.numerator * factor}/{x.denominator * factor}"


def matrix_file(m, width=None, factor=1):
    return [[[text(a, factor), text(b, factor)] for a, b in row[:width]] for row in m]


def flag_file(m, dims, width=None, unreduced=False):
    """A flag document: the full basis, or its first ``width`` columns; with
    ``unreduced``, every part is written as 6p/6q."""
    matrix = matrix_file(m, width, 6 if unreduced else 1)
    return {"ambient": len(m), "signature": list(dims), "matrix": matrix}


def decimal_text(x):
    """``x``, whose denominator has no prime but 2 and 5, as a decimal string."""
    k = next(k for k in itertools.count() if (x * 10**k).denominator == 1)
    digits = str(abs(x.numerator) * 10**k // x.denominator).rjust(k + 1, "0")
    whole, tail = digits[: len(digits) - k], digits[len(digits) - k :]
    return ("-" if x < 0 else "") + whole + "." + (tail or "0")


def loose_part(rng, x):
    """One part in a style picked at random: a padded or plain string always; a JSON
    int and a decimal string for an integer; a float for a dyadic rational (exact);
    a decimal string for a denominator of 2s and 5s."""
    x = Fraction(x)
    styles = [f" {x} ", f"{x}\t", str(x)]
    q = x.denominator
    if q == 1:
        styles.append(int(x))
    if q & (q - 1) == 0:
        styles.append(float(x))
    while q % 2 == 0:
        q //= 2
    while q % 5 == 0:
        q //= 5
    if q == 1:
        styles.append(decimal_text(x))
    return rng.choice(styles)


def loose_file(rng, m, dims, width=None):
    """A flag document whose first part is not a plain string and whose other parts
    take ``loose_part``'s styles, so only the per-entry path reads it."""
    matrix = [[[loose_part(rng, a), loose_part(rng, b)] for a, b in row[:width]] for row in m]
    matrix[0][0][0] = f" {Fraction(m[0][0][0])} "
    return {"ambient": len(m), "signature": list(dims), "matrix": matrix}


def rows_over(m, scale):
    """D^-1 m for the diagonal D of ``scale``."""
    return [[(Fraction(a) / d, Fraction(b) / d) for a, b in row] for row, d in zip(m, scale)]


def windows(rng, n, signed, sample):
    perms = list(itertools.permutations(range(1, n + 1)))
    if signed:
        perms = [
            tuple(p * s for p, s in zip(perm, signs))
            for perm in perms
            for signs in itertools.product((1, -1), repeat=n)
        ]
    return perms if sample is None or sample >= len(perms) else rng.sample(perms, sample)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def commands(directory: Path) -> list[list[str]]:
    """Write the input files and list the command lines that read them."""
    rng = random.Random("compare_positions")
    files = itertools.count()
    out = []

    def save(data) -> str:
        path = directory / f"{next(files)}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def position(first, second, form=None):
        argv = ["position", save(first), save(second)]
        out.append(argv + ["--symplectic", save(form)] if form else argv)

    for n, sample in ((2, None), (3, None), (4, None), (5, 80), (6, 50)):
        dims = range(1, n)
        for w in windows(rng, n, False, sample):
            g = matmul(unitriangular(rng, n, 3, False), unitriangular(rng, n, 3, True))
            h = matmul(g, borel(rng, n, 3), permutation(w), borel(rng, n, 3))
            position(flag_file(g, dims), flag_file(h, dims))
            g, h = scale_columns(rng, g, 3), scale_columns(rng, h, 3)
            lead = n - 1 if len(out) % 3 == 0 else None
            position(flag_file(g, dims, lead, unreduced=True), flag_file(h, dims, unreduced=True))
    for n, sample in ((2, None), (3, None), (4, 48)):
        size, dims = 2 * n, range(1, n + 1)
        d = rng.sample([Fraction(p, q) for p in range(1, 40) for q in (1, 3, 4, 7)], size)
        omega = standard_form(n)
        rescaled = [
            [(d[i] * a * d[j], 0) for j, (a, _) in enumerate(row)] for i, row in enumerate(omega)
        ]
        forms = ((omega, [1] * size), (rescaled, d))
        for w in windows(rng, n, True, sample):
            g = symplectic(rng, n, 2, False)
            b1, b2 = symplectic(rng, n, 2, True), symplectic(rng, n, 2, True)
            h = matmul(g, b1, signed_permutation(w), b2)
            for k, (gram, scale) in enumerate(forms):
                f_basis, h_basis = (rows_over(m, scale) for m in (g, h))
                if (len(out) + k) % 2:
                    f_basis, h_basis = (scale_columns(rng, m, 2) for m in (f_basis, h_basis))
                lead = n if len(out) % 3 == 0 else None
                form = {"gram": matrix_file(gram)}
                position(flag_file(f_basis, dims, lead), flag_file(h_basis, dims), form)
    n = 8
    w = tuple(rng.sample(range(1, n + 1), n))
    g = matmul(unitriangular(rng, n, 10**6, False), unitriangular(rng, n, 10**6, True))
    h = matmul(g, borel(rng, n, 10**6), permutation(w), borel(rng, n, 10**6))
    big = [save(flag_file(scale_columns(rng, m, 23), range(1, n))) for m in (g, h)]
    out += [["position", *big], ["position", *reversed(big)]]
    for n, sample in ((5, 3), (6, 2)):
        dims, standard = range(1, n), flag_file(identity(n), range(1, n))
        for w in windows(rng, n, False, sample):
            g = gaussian_rationals(rng, n, 10)
            h = matmul(g, borel(rng, n, 3), permutation(w), borel(rng, n, 3))
            flag = flag_file(g, dims)
            position(flag, standard)
            position(standard, flag)
            position(flag, flag_file(h, dims))

    # Refusals, each with one line on stderr.
    zero, one = (0, 0), (1, 0)
    full3, iso = flag_file(identity(3), (1, 2)), flag_file(identity(4), (1, 2))
    standard = {"gram": matrix_file(standard_form(2))}
    position(flag_file([[one, one, zero], [zero, zero, one], [one, one, one]], (1, 2)), full3)
    position(flag_file([[one, (2, 0)], [one, (2, 0)], [zero, zero]], (1, 2)), full3)
    position(full3, flag_file(identity(4), (1, 2, 3)))
    position(full3, flag_file(identity(3), (1,)))
    not_isotropic = flag_file([[one, zero], [zero, zero], [zero, zero], [zero, one]], (1, 2))
    position(iso, not_isotropic, standard)
    position(iso, flag_file(identity(4), (1, 2, 3)), standard)
    position(iso, iso, {"gram": matrix_file(identity(4))})
    position(iso, iso, {"gram": matrix_file([[zero] * 4] * 4)})
    position(iso, iso, {"gram": matrix_file(standard_form(3))})
    for entry in (["1e3", "0"], ["1/0", "0"], [1, 0, 0], "1", [True, "0"], ["1/2", "x"]):
        rows = matrix_file(identity(3))
        rows[1][1] = entry
        position({"ambient": 3, "signature": [1, 2], "matrix": rows}, full3)
    out.append(["position", str(directory / "missing.json"), big[0]])
    for k in range(2, 9):
        out += [["reps", "--partition", ",".join(map(str, p))] for p in partitions(k)]

    # Dense forms, drawn from their own generator so the inputs above stay as they are.
    rng = random.Random("compare_positions:dense")
    for n, sample in ((2, None), (3, 16)):
        size, dims = 2 * n, range(1, n + 1)
        while True:
            p = [[(rng.choice((-3, -2, -1, 1, 2, 3)), 0) for _ in range(size)] for _ in range(size)]
            try:
                p_inverse = inverse(p)
                break
            except StopIteration:  # no pivot: P is singular
                pass
        omega = standard_form(n)
        form = {"gram": matrix_file(matmul(transpose(p), omega, p))}
        for w in windows(rng, n, True, sample):
            g = symplectic(rng, n, 2, False)
            h = matmul(g, symplectic(rng, n, 2, True), signed_permutation(w), symplectic(rng, n, 2, True))
            f_basis, h_basis = matmul(p_inverse, g), matmul(p_inverse, h)
            lead = n if len(out) % 2 else None
            position(flag_file(f_basis, dims, lead), flag_file(h_basis, dims, lead), form)
        lagrangian = flag_file(p_inverse, dims)
        order = [0, size - 1, *range(1, size - 1)]  # e_1 and e_-1 lead: not isotropic for omega
        paired = flag_file(matmul(p_inverse, [[row[j] for j in order] for row in identity(size)]), dims)
        for gram in (form, {"gram": matrix_file(omega)}):
            position(lagrangian, paired, gram)
            position(paired, lagrangian, gram)

    # Documents only the per-entry path reads, from their own generator as well.
    rng = random.Random("compare_positions:per-entry")
    ratios = [Fraction(p, q) for p in (-5, -3, -1, 1, 3, 7) for q in (1, 2, 4, 5, 8, 3)]
    for n, sample in ((3, None), (4, 12)):
        dims = range(1, n)
        for w in windows(rng, n, False, sample):
            g = matmul(unitriangular(rng, n, 3, False), unitriangular(rng, n, 3, True))
            h = matmul(g, borel(rng, n, 3), permutation(w), borel(rng, n, 3))
            g, h = (scale_columns_by(rng, m, ratios) for m in (g, h))
            lead = n - 1 if len(out) % 3 == 0 else None
            position(loose_file(rng, g, dims, lead), loose_file(rng, h, dims))
    n, dims = 2, range(1, 3)
    for w in windows(rng, n, True, 8):
        g = symplectic(rng, n, 2, False)
        h = matmul(g, symplectic(rng, n, 2, True), signed_permutation(w), symplectic(rng, n, 2, True))
        g, h = (scale_columns_by(rng, m, ratios) for m in (g, h))
        lead = n if len(out) % 2 else None
        form = {"gram": loose_file(rng, standard_form(n), ())["matrix"]}
        position(loose_file(rng, g, dims, lead), loose_file(rng, h, dims), form)
    return out


def answers(directory: str) -> None:
    from flagfibers.cli import main

    for argv in json.loads((Path(directory) / "commands.json").read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
        digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
        print(" ".join(argv), code, *digests, flush=True)


def run(src: str, directory: str) -> tuple[list[str], float]:
    """The tree's answers, one line per command, and its child's wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, __file__, "--answers", directory],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines(), time.perf_counter() - start


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--answers":
        answers(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_positions-") as directory:
        listed = commands(Path(directory))
        (Path(directory) / "commands.json").write_text(json.dumps(listed))
        (old, old_s), (new, new_s) = (run(src, directory) for src in argv)
    differences = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    print(
        f"{len(listed)} commands ({sum(c[0] == 'position' for c in listed)} position), "
        f"{differences} differences; child wall time {old_s:.2f} s (old), {new_s:.2f} s (new)"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
