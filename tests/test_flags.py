import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagfibers import brief_repr, flags
from flagfibers.flags import (
    ExactFlag,
    ExactMatrix,
    GaussianRational,
    Signature,
    SymplecticForm,
    flag_from_json,
    flag_to_json,
    full_signature,
    isotropic_signature,
    matrix_from_json,
    relative_position_full,
    relative_position_partial,
    relative_position_symplectic,
)
from flagfibers.sl2reps import Partition, invariant_symplectic_form, so2_weight_basis
from flagfibers.twg import CircleGroup
from flagfibers.weyl import (
    Family,
    RootSystem,
    WeylElement,
    double_coset_of,
    double_cosets,
    group_elements,
    identity,
    longest_element,
)

import oracles
from oracles import gq_columns, intersection_dim, is_isotropic, omega_perp


# ---------------------------------------------------------------------------
# helpers


def random_matrix(
    rng: random.Random, rows: int, cols: int, span: int = 3, rational: bool = False
) -> ExactMatrix:
    """Gaussian-integer entries; ``rational`` divides each column by its own denominator."""
    entries = [
        [oracles.gq(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(cols)]
        for _ in range(rows)
    ]
    if rational:
        inverses = [oracles.gq(Fraction(1, rng.randint(1, 6))) for _ in range(cols)]
        entries = [[oracles.gq_mul(x, c) for x, c in zip(row, inverses)] for row in entries]
    return ExactMatrix([[GaussianRational(*x) for x in row] for row in entries])


def random_invertible(rng: random.Random, n: int) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n)
        if m.rank() == n:
            return m


def random_full_flag(rng: random.Random, n: int) -> ExactFlag:
    return ExactFlag(full_signature(n), random_invertible(rng, n))


def random_upper_triangular(rng: random.Random, n: int) -> ExactMatrix:
    entries = [
        [
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if i < j
            else (GaussianRational(rng.choice([1, -1, 2]), 0) if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ExactMatrix(entries)


def random_block_upper(rng: random.Random, signature: Signature) -> ExactMatrix:
    """Invertible matrix preserving the column filtration of the signature."""
    n = signature.ambient
    boundaries = list(signature.dims) + [n]

    def block_of(i: int) -> int:
        return next(b for b, d in enumerate(boundaries) if i < d)

    while True:
        entries = [
            [
                GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                if block_of(i) <= block_of(j)
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
        m = ExactMatrix(entries)
        if m.rank() == n:
            return m


def random_isotropic_flag(rng: random.Random, omega: SymplecticForm) -> ExactFlag:
    n = omega.ambient // 2
    while True:
        columns: list[tuple] = []
        current = oracles.zeros(omega.ambient, 0)
        ok = True
        for _ in range(n):
            allowed = (
                ExactMatrix.identity(omega.ambient)
                if current.cols == 0
                else omega_perp(current, omega)
            )
            coeffs = ExactMatrix(
                [
                    [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))]
                    for _ in range(allowed.cols)
                ]
            )
            vector = oracles.matmul(allowed, coeffs)
            widened = current.hstack(vector)
            if widened.rank() != current.cols + 1:
                ok = False
                break
            current = widened
        if ok:
            return ExactFlag.from_columns(isotropic_signature(n), current)


# Flag pairs in a known position w, as F = g and H = g b w b' with b, b' in the
# Borel subgroup that fixes the standard flag.  "high" pairs take large entries
# and rescale every column of both bases by a rational, which keeps each level.
PAIR_HEIGHTS = {"low": (2, 1), "high": (10**6, 10**3)}
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def gaussian(rng: random.Random, span: int) -> GaussianRational:
    return GaussianRational(rng.randint(-span, span), rng.randint(-span, span))


def unitriangular(rng: random.Random, n: int, span: int, upper: bool) -> ExactMatrix:
    return ExactMatrix(
        [
            [gaussian(rng, span) if (i < j if upper else i > j) else int(i == j) for j in range(n)]
            for i in range(n)
        ]
    )


def diagonal(entries) -> ExactMatrix:
    n = len(entries)
    return ExactMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def rescaled(rng: random.Random, m: ExactMatrix, scale: int) -> ExactMatrix:
    if scale == 1:
        return m
    ratios = [
        Fraction(rng.choice((1, -1)) * rng.randint(1, scale), rng.randint(1, scale))
        for _ in range(m.cols)
    ]
    return oracles.matmul(m, diagonal(ratios))


def signed_permutation_matrix(window, size: int) -> ExactMatrix:
    """Column of letter j is e_{w(j)}; letter -j sits at index size - j, so a
    window of length n in size 2n keeps the standard form (e_{-j} goes to -e_k
    when e_j goes to e_{-k}), and a plain permutation takes size n."""
    columns = [[0] * size for _ in range(size)]

    def index(letter):
        return letter - 1 if letter > 0 else size + letter

    for j, image in enumerate(window, start=1):
        columns[index(j)][index(image)] = 1
        if size > len(window):
            columns[index(-j)][index(-image)] = 1 if image > 0 else -1
    return oracles.from_columns(columns)


def a_pair(rng: random.Random, window, height: str) -> tuple[ExactFlag, ExactFlag]:
    """Two full flags in C^n in type-A position ``window``."""
    span, scale = PAIR_HEIGHTS[height]
    n = len(window)

    def borel():
        units = [GaussianRational(*rng.choice(UNITS)) for _ in range(n)]
        return oracles.matmul(unitriangular(rng, n, span, upper=True), diagonal(units))

    g = oracles.matmul(
        unitriangular(rng, n, span, upper=False), unitriangular(rng, n, span, upper=True)
    )
    h = oracles.matmul(g, borel(), signed_permutation_matrix(window, n), borel())
    sig = full_signature(n)
    return ExactFlag(sig, rescaled(rng, g, scale)), ExactFlag(sig, rescaled(rng, h, scale))


def symplectic_matrix(rng: random.Random, n: int, span: int, upper: bool) -> ExactMatrix:
    """A product of transvections x -> x + c omega(v, x) v, which keep the
    standard form; with ``upper``, v lies in the standard Lagrangian and a
    unit torus element follows, so the product fixes the standard flag."""
    size = 2 * n
    gram = SymplecticForm.standard(n).gram
    m = ExactMatrix.identity(size)
    for _ in range(size):
        if upper:
            picks = rng.sample(range(n), rng.randint(1, min(2, n)))
        else:
            picks = rng.sample(range(size), 2)
        v = [rng.choice((1, -1)) if i in picks else 0 for i in range(size)]
        row = oracles.matmul(ExactMatrix([v]), gram).row(0)
        c = rng.randint(-span, span)
        m = oracles.matmul(
            m,
            ExactMatrix(
                [[int(i == j) + c * v[i] * row[j].real for j in range(size)] for i in range(size)]
            ),
        )
    if upper:
        units = [rng.choice(UNITS) for _ in range(n)]
        torus = [GaussianRational(*u) for u in units]
        torus += [GaussianRational(re, -im) for re, im in reversed(units)]
        m = oracles.matmul(m, diagonal(torus))
    return m


def c_pair(rng: random.Random, window, height: str) -> tuple[ExactFlag, ExactFlag]:
    """Two complete isotropic flags in C^{2n}, for the standard form, in
    type-C position ``window``."""
    span, scale = PAIR_HEIGHTS[height]
    n = len(window)
    g = symplectic_matrix(rng, n, span, upper=False)
    h = oracles.matmul(
        g,
        symplectic_matrix(rng, n, span, upper=True),
        signed_permutation_matrix(window, 2 * n),
        symplectic_matrix(rng, n, span, upper=True),
    )
    sig = isotropic_signature(n)
    return ExactFlag(sig, rescaled(rng, g, scale)), ExactFlag(sig, rescaled(rng, h, scale))


def weyl_windows(family: str, n: int) -> list[tuple[int, ...]]:
    perms = list(itertools.permutations(range(1, n + 1)))
    if family == "A":
        return perms
    return [
        tuple(p * s for p, s in zip(perm, signs))
        for perm in perms
        for signs in itertools.product((1, -1), repeat=n)
    ]


def spans_equal(a: ExactMatrix, b: ExactMatrix) -> bool:
    return a.rank() == b.rank() == a.hstack(b).rank()


E4 = ExactMatrix.identity(4)


def span_of(*cols):
    return oracles.from_columns(list(cols))


# ---------------------------------------------------------------------------
# Gaussian rationals


def test_gaussian_rational_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a * b == GaussianRational(5, 5)
    assert a - b == GaussianRational(-2, 3)
    assert -a == GaussianRational(-1, -2)
    assert (a * b) / b == a
    assert GaussianRational(Fraction(1, 2), Fraction(3, 2)) * GaussianRational(2) == (
        GaussianRational(1, 3)
    )


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational()


def test_gaussian_rational_str_forms():
    assert str(GaussianRational()) == "0"
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(2, Fraction(1, 3))) == "2+1/3i"


def test_gaussian_rational_field_identities():
    rng = random.Random(11)
    for _ in range(100):
        a = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        b = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        c = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        assert a * (b - c) == a * b - a * c
        assert (a * b) * c == a * (b * c)
        if b:
            assert (a / b) * b == a


# ---------------------------------------------------------------------------
# exact matrices


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    # Ragged columns, or columns whose height disagrees with ``rows``.
    for columns, rows in (
        ([[1, 0], [1, 0, 5]], None),
        ([[1, 0, 5], [1, 0]], None),
        ([[1, 0]], 3),
        ([[1, 0], [0, 1]], 1),
    ):
        with pytest.raises(ValueError):
            oracles.from_columns(columns, rows=rows)
    assert oracles.from_columns([[1, 0]], rows=2) == span_of((1, 0))
    assert oracles.from_columns([], rows=3) == oracles.zeros(3, 0)


def test_refusals_name_ints_past_the_digit_limit_by_their_bits():
    # repr refuses ints past the interpreter's limit on digits; the refusal
    # line names each such int by its bit count instead, however it is nested.
    huge = 10**5000
    cases = [
        ([[[huge, "x"]]], "matrix entry is not a pair of rationals: [<int of 16610 bits>, 'x']"),
        ([[[{"n": -huge}, 0]]], "not a pair of rationals: [{'n': <int of 16610 bits>}, 0]"),
        ([[[huge, 1, 2]]], "matrix entries must be [real, imag] pairs, got [<int of 16610 bits>, 1, 2]"),
    ]
    for document, message in cases:
        with pytest.raises(ValueError) as refused:
            flags.matrix_from_json(document)
        assert message in str(refused.value) and "digits" not in str(refused.value)
    assert brief_repr(-huge) == "<int of 16610 bits>"
    many = brief_repr([huge] * 9)
    assert many.startswith("[<int of 16610 bits>, <int of") and len(many) < 90


def test_rank_matches_oracle_on_random_matrices():
    for rational in (False, True):
        rng = random.Random(23)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, span=2, rational=rational)
            assert m.rank() == oracles.gq_rank(gq_columns(m))


def test_nullspace_is_exact_kernel():
    for rational in (False, True):
        rng = random.Random(31)
        for _ in range(40):
            m = random_matrix(
                rng, rng.randint(1, 4), rng.randint(1, 5), span=2, rational=rational
            )
            kernel = oracles.exact_matrix(oracles.gq_nullspace(gq_columns(m)), m.cols)
            assert kernel.cols == m.cols - m.rank()
            if kernel.cols:
                assert oracles.is_zero(oracles.matmul(m, kernel))
            assert kernel.rank() == kernel.cols


def test_nullspace_of_empty_pairing_is_everything():
    empty = oracles.zeros(0, 5)
    kernel = oracles.exact_matrix(oracles.gq_nullspace(gq_columns(empty)), empty.cols)
    assert kernel == ExactMatrix.identity(5)


def test_matmul_and_transpose_interact():
    rng = random.Random(47)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    transpose, matmul = oracles.transpose, oracles.matmul
    assert transpose(matmul(a, b)) == matmul(transpose(b), transpose(a))
    assert matmul(ExactMatrix.identity(3), a) == a


def test_matrix_operations_match_oracle_on_rational_matrices():
    rng = random.Random(59)
    for _ in range(60):
        r, t, c = (rng.randint(1, 4) for _ in range(3))
        a = random_matrix(rng, r, t, rational=True)
        b = random_matrix(rng, t, c, rational=True)
        other = random_matrix(rng, r, c, rational=True)
        ca, cb = gq_columns(a), gq_columns(b)
        product = [
            [
                functools.reduce(
                    oracles.gq_add, (oracles.gq_mul(ca[k][i], col[k]) for k in range(t))
                )
                for i in range(r)
            ]
            for col in cb
        ]
        assert gq_columns(oracles.matmul(a, b)) == product
        assert gq_columns(oracles.transpose(a)) == [list(row) for row in zip(*ca)]
        assert gq_columns(oracles.neg(a)) == [
            [oracles.gq_sub(oracles.gq(), x) for x in col] for col in ca
        ]
        assert gq_columns(a.hstack(other)) == ca + gq_columns(other)
        k = rng.randint(0, t)
        assert gq_columns(a.prefix_columns(k)) == ca[:k]
        transpose, matmul = oracles.transpose, oracles.matmul
        assert transpose(matmul(a, b)) == matmul(transpose(b), transpose(a))
        rebuilt = oracles.from_columns([[GaussianRational(*x) for x in col] for col in ca])
        assert rebuilt == a and hash(rebuilt) == hash(a)


def test_equal_matrices_from_different_routes_compare_and_hash_equal():
    i = GaussianRational(0, 1)
    routes = [
        ExactMatrix([[Fraction(2, 4), i]]),
        ExactMatrix([["1/2", GaussianRational(0, Fraction(3, 3))]]),
        matrix_from_json([[["2/4", "0"], ["0", "1"]]]),
        oracles.from_columns([[Fraction(1, 2)], [i]]),
        oracles.matmul(ExactMatrix([["1/2"]]), ExactMatrix([[1, GaussianRational(0, 2)]])),
        ExactMatrix([[Fraction(3, 6)]]).hstack(ExactMatrix([[i]])),
        oracles.transpose(ExactMatrix([[Fraction(1, 2)], [i]])),
        oracles.neg(ExactMatrix([[Fraction(-1, 2), GaussianRational(0, -1)]])),
        ExactMatrix([[Fraction(1, 2), i, Fraction(1, 3)]]).prefix_columns(2),
    ]
    assert all(m == routes[0] for m in routes)
    assert len({hash(m) for m in routes}) == 1
    assert ExactMatrix([[1, Fraction(1, 3)]]).prefix_columns(1) == ExactMatrix([[1]])
    assert oracles.zeros(2, 0) != oracles.zeros(3, 0)

def stored_form_holds(m: ExactMatrix) -> bool:
    """Each stored column is primitive with a positive scale in lowest terms, or
    zeros with scale (0, 1)."""
    for column, (num, den) in zip(m._columns, m._scales):
        content = math.gcd(*[t for pair in column for t in pair])
        if (content, num, den) != (0, 0, 1) and not (
            content == 1 and num > 0 and den > 0 and math.gcd(num, den) == 1
        ):
            return False
    return len(m._columns) == len(m._scales) and all(len(c) == m.rows for c in m._columns)


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    values=st.lists(st.tuples(small_rationals, small_rationals), min_size=16, max_size=16),
    zero_columns=st.lists(st.booleans(), min_size=4, max_size=4),
    unreduce=st.lists(st.integers(1, 30), min_size=4, max_size=4),
    cut=st.integers(0, 4),
)
def test_equal_matrices_share_one_stored_form(shape, values, zero_columns, unreduce, cut):
    """However a Q(i) matrix is built, it is stored as primitive columns with
    positive scales, compares and hashes equal, and hands its entries back."""
    rows, cols = shape
    zero = (Fraction(0), Fraction(0))
    grid = [
        [zero if zero_columns[j] else values[4 * i + j] for j in range(cols)] for i in range(rows)
    ]
    columns = [[row[j] for row in grid] for j in range(cols)]

    def scalar(re, im):  # an int, a Fraction or a GaussianRational, as narrow as it goes
        if im:
            return GaussianRational(re, im)
        return int(re) if re.denominator == 1 else re

    def unreduced(x: Fraction, k: int) -> str:
        return f"{x.numerator * k}/{x.denominator * k}"

    def columns_of(sign: int) -> list[list]:
        return [[scalar(sign * re, sign * im) for re, im in col] for col in columns]

    k = min(cut, cols)
    routes = [
        ExactMatrix([[GaussianRational(re, im) for re, im in row] for row in grid], cols=cols),
        ExactMatrix([[scalar(re, im) for re, im in row] for row in grid], cols=cols),
        oracles.from_columns(columns_of(1), rows=rows),
        oracles.neg(oracles.from_columns(columns_of(-1), rows=rows)),
        oracles.from_columns(columns_of(1) + [[1] * rows], rows=rows)
        .prefix_columns(k)
        .hstack(oracles.from_columns(columns_of(1)[k:], rows=rows)),
    ]
    if rows:
        routes.append(
            matrix_from_json(
                [
                    [
                        [unreduced(re, unreduce[(i + j) % 4]), unreduced(im, unreduce[j])]
                        for j, (re, im) in enumerate(row)
                    ]
                    for i, row in enumerate(grid)
                ]
            )
        )
    first = routes[0]
    for m in routes:
        assert (m.rows, m.cols) == (rows, cols)
        assert stored_form_holds(m)
        assert m == first and hash(m) == hash(first)
    transposed = oracles.transpose(first)
    assert stored_form_holds(transposed) and oracles.transpose(transposed) == first
    for i, row in enumerate(grid):
        for j, (re, im) in enumerate(row):
            assert first.entry(i, j) == GaussianRational(re, im)


def test_column_rescaling_keeps_the_stored_columns_and_every_position():
    """F and H times a diagonal of signed rationals: the same stored columns up
    to the sign of each factor, and the same full, symplectic and partial positions."""
    rng = random.Random(433)

    def rescale(flag: ExactFlag) -> ExactFlag:
        ratios = [
            Fraction(rng.choice((1, -1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
            for _ in range(flag.basis.cols)
        ]
        moved = ExactFlag(flag.signature, oracles.matmul(flag.basis, diagonal(ratios)))
        for column, again, ratio in zip(flag.basis._columns, moved.basis._columns, ratios):
            assert again == (column if ratio > 0 else tuple((-a, -b) for a, b in column))
        return moved

    for n in (3, 4):
        system = RootSystem(Family.A, n - 1)
        for w in seeded_windows("A", n, 8):
            F, H = a_pair(rng, w, rng.choice(tuple(PAIR_HEIGHTS)))
            F2, H2 = rescale(F), rescale(H)
            assert relative_position_full(F2, H2).window == w
            theta, eta = (frozenset(rng.sample(range(1, n), rng.randint(1, n - 1))) for _ in "ab")
            left, right = (
                ExactFlag(Signature(tuple(sorted(t)), n), X.basis)
                for X, t in ((F2, theta), (H2, eta))
            )
            expected = double_coset_of(system, theta, eta, WeylElement(system, w))
            assert relative_position_partial(left, right, theta, eta) == expected
    for n in (2, 3):
        omega = SymplecticForm.standard(n)
        for w in seeded_windows("C", n, 12):
            F, H = c_pair(rng, w, rng.choice(tuple(PAIR_HEIGHTS)))
            F2, H2 = rescale(F), rescale(H)
            assert relative_position_symplectic(F2, H2, omega).window == w


def kernel_sequence(rng: random.Random, span: int, tagged: bool) -> list:
    """Z[i] vectors for one echelon: runs of leading zeros, integer common
    factors, Z[i] combinations of earlier vectors, and, when ``tagged``,
    ``[*v, *tag]`` as ``_bruhat_window`` builds them (first under unit tags in
    reversed order, then over zeros)."""
    length = rng.randint(1, 8)
    vectors = []
    for _ in range(rng.randint(1, length + 3)):
        if vectors and rng.random() < 0.3:  # dependent on the earlier ones
            v = [(0, 0)] * length
            for u in vectors:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                v = [(re + a * x - b * y, im + a * y + b * x) for (re, im), (x, y) in zip(v, u)]
        else:
            zeros = rng.randint(0, length)
            v = [(0, 0)] * zeros + [
                (rng.randint(-span, span), rng.randint(-span, span)) for _ in range(length - zeros)
            ]
        factor = rng.choice((1, 1, 2, 6, 10**3))
        vectors.append([(factor * x, factor * y) for x, y in v])
    if tagged:
        m = len(vectors)
        cut = rng.randint(0, m)
        return [
            [*v, *((int(j < cut and k == m - 1 - j), 0) for k in range(m))]
            for j, v in enumerate(vectors)
        ]
    return [tuple(v) if rng.random() < 0.5 else v for v in vectors]


@pytest.mark.parametrize("tagged", [False, True], ids=["plain", "tagged"])
@pytest.mark.parametrize("span", [3, 10**6])
def test_reduce_into_matches_whole_vector_oracle(span, tagged):
    """The kernel, working from the pivot on, leaves every remainder and the
    whole echelon equal to those of the whole-vector kernel, insertion by insertion."""
    rng = random.Random(f"kernel:{span}:{tagged}")
    dependent = with_content = 0
    for _ in range(300):
        echelon: dict = {}
        reference: dict = {}
        for vector in kernel_sequence(rng, span, tagged):
            remainder = flags._reduce_into(echelon, vector)
            assert remainder == oracles.reduce_into_oracle(reference, vector)
            assert echelon == reference
            dependent += remainder is None
            with_content += math.gcd(*[t for pair in vector for t in pair]) > 1
    assert dependent and with_content


def test_prefix_columns_bounds():
    m = ExactMatrix.identity(3)
    assert m.prefix_columns(0).cols == 0
    with pytest.raises(ValueError):
        m.prefix_columns(4)


# ---------------------------------------------------------------------------
# intersection dimensions


def test_intersection_dim_examples():
    e1, e2, e3 = (oracles.column(ExactMatrix.identity(3), j) for j in range(3))
    plane = span_of(e1, (1, 1, 0))
    assert intersection_dim(plane, plane) == 2
    assert intersection_dim(span_of(e1), span_of(e2)) == 0
    assert intersection_dim(plane, span_of(e2, e3)) == 1


def test_intersection_dim_ambient_mismatch():
    with pytest.raises(ValueError):
        intersection_dim(ExactMatrix.identity(3), ExactMatrix.identity(4))


def test_intersection_dim_matches_oracle():
    for rational in (False, True):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(2, 4)
            u = random_matrix(rng, n, rng.randint(1, n), span=2, rational=rational)
            v = random_matrix(rng, n, rng.randint(1, n), span=2, rational=rational)
            if u.rank() != u.cols or v.rank() != v.cols:
                continue
            expected = oracles.intersection_dim_oracle(
                gq_columns(u), gq_columns(v), u.cols, v.cols
            )
            assert intersection_dim(u, v) == expected


# ---------------------------------------------------------------------------
# signatures and flags


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((2, 2), 4)
    with pytest.raises(ValueError):
        Signature((1, 4), 4)
    with pytest.raises(ValueError):
        Signature((0,), 4)
    assert full_signature(4).dims == (1, 2, 3)
    assert full_signature(4).is_full()
    assert isotropic_signature(2) == Signature((1, 2), 4)
    assert not isotropic_signature(2).is_full()


def test_flag_rejects_bad_bases():
    sig = full_signature(3)
    with pytest.raises(ValueError):
        ExactFlag(sig, ExactMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError):
        ExactFlag(sig, ExactMatrix.identity(4))


def seeded_basis(rng: random.Random, n: int, gaussian: bool, span: int, singular: bool):
    """An n x n basis over Q(i) (over Q unless ``gaussian``), each column over its own
    denominator; ``singular`` makes one column a Gaussian-integer combination of the others."""
    columns = []
    for _ in range(n):
        den = rng.randint(1, span)
        columns.append([
            GaussianRational(
                Fraction(rng.randint(-span, span), den),
                Fraction(rng.randint(-span, span), den) if gaussian else 0,
            )
            for _ in range(n)
        ])
    if singular:
        k = rng.randrange(n)
        combination = [GaussianRational(0)] * n
        for j, col in enumerate(columns):
            if j != k:
                c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)
                combination = [x - c * y for x, y in zip(combination, col)]
        columns[k] = combination
    return ExactMatrix([list(row) for row in zip(*columns)])


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("span", [3, 10**6], ids=["low", "high"])
def test_invertibility_certificate_agrees_with_exact_rank(gaussian, span, monkeypatch):
    """The mod-p certificate accepts exactly the bases of full rank, and decides every
    invertible one here itself, with no exact rank."""
    rng = random.Random(f"certificate:{gaussian}:{span}")
    verdicts = []
    for _ in range(80):
        n = rng.randint(1, 6)
        basis = seeded_basis(rng, n, gaussian, span, singular=rng.random() < 0.5)
        invertible = oracles.gq_rank(gq_columns(basis)) == n
        assert basis.rank() == n if invertible else basis.rank() < n
        with monkeypatch.context() as patch:
            if invertible:
                patch.setattr(ExactMatrix, "rank", None)  # the certificate alone answers
            assert flags._invertible(basis) is invertible
        if invertible:
            assert ExactFlag(full_signature(n), basis).basis == basis
        else:
            with pytest.raises(ValueError, match="^flag basis must be invertible$"):
                ExactFlag(full_signature(n), basis)
        verdicts.append(invertible)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def gaussian_prime_over(p: int, r: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p and a + b*r = 0 mod p, by Cornacchia's descent from r."""
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    assert b * b + c * c == p
    return next((x, y) for x, y in ((b, c), (b, -c)) if (x + y * r) % p == 0)


def test_invertible_basis_vanishing_mod_p_is_accepted_by_the_exact_rank(monkeypatch):
    p, r = flags._P, flags._R
    a, b = gaussian_prime_over(p, r)
    bases = [
        # The first two columns agree mod p, though the determinant is p.
        ExactMatrix([[p, 0, 0], [1, 1, 0], [0, 0, 1]]),
        # The primitive column (a + bi, 0, 0) maps to 0: diag(pi, 1, 1) for a prime pi over p.
        ExactMatrix([[GaussianRational(a, b), 0, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    decided = []
    rank = ExactMatrix.rank

    def counting(matrix):
        decided.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(ExactMatrix, "rank", counting)
    for basis in bases:
        assert ExactFlag(full_signature(3), basis).basis == basis
    assert decided == bases
    singular = ExactMatrix([[p, 0, 0], [p, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="^flag basis must be invertible$"):
        ExactFlag(full_signature(3), singular)
    # A degenerate antisymmetric Gram matrix is refused through the same check.
    with pytest.raises(ValueError, match="^form is degenerate$"):
        SymplecticForm(ExactMatrix([[0, p, 0, 0], [-p, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))


def test_flag_completion_preserves_leading_columns():
    sig = Signature((2,), 4)
    lead = span_of((0, 0, 1, 0), (1, 1, 1, 1))
    flag = ExactFlag.from_columns(sig, lead)
    assert flag.basis.rank() == 4
    assert flag.basis.prefix_columns(2) == lead
    rational = span_of((0, Fraction(1, 2), 1, 0), (Fraction(1, 3), 0, 0, GaussianRational(0, 1)))
    flag = ExactFlag.from_columns(sig, rational)
    assert flag.basis.rank() == 4
    assert flag.basis.prefix_columns(2) == rational
    with pytest.raises(ValueError):
        ExactFlag.from_columns(sig, span_of((1, 1, 0, 0), (2, 2, 0, 0)))


def test_flag_from_columns_eliminates_once(monkeypatch):
    sig = Signature((1, 2), 4)
    lead = span_of((0, 0, 1, 0), (1, 1, 1, 1))
    expected = ExactFlag(sig, ExactFlag.from_columns(sig, lead).basis)
    calls = []
    reduce_into = flags._reduce_into

    def counting(echelon, vector):
        calls.append(vector)
        return reduce_into(echelon, vector)

    monkeypatch.setattr(flags, "_reduce_into", counting)
    assert ExactFlag.from_columns(sig, lead) == expected
    # One insertion per leading column, then unit vectors only until the
    # echelon is full: e_1 and e_2 complete it, so e_3 and e_4 are never
    # reduced; no second elimination for the rank check.
    assert len(calls) == 2 + 2


# ---------------------------------------------------------------------------
# full relative positions


def test_position_of_flag_with_itself_is_identity():
    rng = random.Random(61)
    for n in (2, 3, 4):
        F = random_full_flag(rng, n)
        assert relative_position_full(F, F).is_identity()


def test_position_of_transverse_standard_pair_is_longest():
    for n in (3, 4):
        F = ExactFlag.standard(full_signature(n))
        reversed_basis = oracles.from_columns(
            [oracles.column(ExactMatrix.identity(n), n - 1 - j) for j in range(n)]
        )
        H = ExactFlag(full_signature(n), reversed_basis)
        w = relative_position_full(F, H)
        assert w == longest_element(RootSystem(Family.A, n - 1))


def test_position_of_swapped_basis_pair():
    F = ExactFlag.standard(full_signature(3))
    H = ExactFlag(
        full_signature(3), ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    )
    assert relative_position_full(F, H).window == (2, 1, 3)


def test_position_rejects_partial_flags():
    F = ExactFlag.standard(Signature((2,), 4))
    H = ExactFlag.standard(full_signature(4))
    with pytest.raises(ValueError):
        relative_position_full(F, H)


def test_position_matches_search_oracle():
    rng = random.Random(71)
    for n, repeats in ((2, 10), (3, 25), (4, 25), (5, 6)):
        for _ in range(repeats):
            F = random_full_flag(rng, n)
            H = random_full_flag(rng, n)
            got = relative_position_full(F, H)
            expected = oracles.position_search_oracle(
                gq_columns(F.basis), gq_columns(H.basis)
            )
            assert got.window == expected


def test_full_position_reduces_each_level_once(monkeypatch):
    rng = random.Random(73)
    F = random_full_flag(rng, 5)
    H = random_full_flag(rng, 5)
    expected = relative_position_full(F, H)
    calls = []
    reduce_into = flags._reduce_into

    def counting(echelon, vector):
        calls.append(vector)
        return reduce_into(echelon, vector)

    monkeypatch.setattr(flags, "_reduce_into", counting)
    assert relative_position_full(F, H) == expected
    # One insertion per F column, one reduction per H column.
    assert len(calls) == 10


def test_position_inverse_swaps_arguments():
    rng = random.Random(83)
    for _ in range(30):
        F = random_full_flag(rng, 4)
        H = random_full_flag(rng, 4)
        assert relative_position_full(F, H) == relative_position_full(H, F).inverse()


def test_position_is_invariant_under_common_basis_change():
    rng = random.Random(97)
    F = random_full_flag(rng, 3)
    H = random_full_flag(rng, 3)
    expected = relative_position_full(F, H)
    for _ in range(200):
        g = random_invertible(rng, 3)
        gF = ExactFlag(F.signature, oracles.matmul(g, F.basis))
        gH = ExactFlag(H.signature, oracles.matmul(g, H.basis))
        assert relative_position_full(gF, gH) == expected


def test_position_is_invariant_under_filtration_preserving_recombination():
    rng = random.Random(101)
    for _ in range(25):
        F = random_full_flag(rng, 4)
        H = random_full_flag(rng, 4)
        expected = relative_position_full(F, H)
        u = random_upper_triangular(rng, 4)
        recombined = ExactFlag(F.signature, oracles.matmul(F.basis, u))
        assert relative_position_full(recombined, H) == expected


def test_position_with_fractional_entries():
    F = ExactFlag.standard(full_signature(3))
    scaled = ExactMatrix(
        [
            [GaussianRational(Fraction(1, 2), Fraction(1, 2)), 0, 0],
            [0, GaussianRational(0, Fraction(-2, 3)), 0],
            [0, 0, 1],
        ]
    )
    H = ExactFlag(full_signature(3), scaled)
    assert relative_position_full(F, H).is_identity()


# ---------------------------------------------------------------------------
# symplectic relative positions


OMEGA = SymplecticForm.standard(2)
C2 = RootSystem(Family.C, 2)


def label_column(label: int, n: int) -> tuple:
    index = label - 1 if label > 0 else 2 * n + label
    return oracles.column(ExactMatrix.identity(2 * n), index)


def test_standard_form_gram():
    g = OMEGA.gram
    assert g.entry(0, 3) == GaussianRational(1)
    assert g.entry(1, 2) == GaussianRational(1)
    assert g.entry(2, 1) == GaussianRational(-1)
    assert g.entry(3, 0) == GaussianRational(-1)
    assert sum(1 for i in range(4) for j in range(4) if g.entry(i, j)) == 4


def test_form_validation():
    with pytest.raises(ValueError):
        SymplecticForm(ExactMatrix.identity(4))
    with pytest.raises(ValueError):
        SymplecticForm(oracles.zeros(4, 4))


def dense_gram(pairing) -> list[list]:
    """The n x n Gram matrix holding c at row i of column j for ``pairing[j] == (i, c)``."""
    gram = [[0] * len(pairing) for _ in pairing]
    for j, (i, c) in enumerate(pairing):
        gram[i][j] = c
    return gram


@pytest.mark.parametrize("n", range(1, 9))
def test_standard_form_equals_dense_antidiagonal(n):
    size = 2 * n
    dense = [[0] * size for _ in range(size)]
    for i in range(n):
        dense[i][size - 1 - i] = 1
        dense[size - 1 - i][i] = -1
    omega = SymplecticForm.standard(n)
    assert omega == SymplecticForm(ExactMatrix(dense))
    assert hash(omega.gram) == hash(ExactMatrix(dense))


@pytest.mark.parametrize(
    "pairing, message",
    [
        ([(1, 2), (0, 2)], "antisymmetric"),  # a broken sign
        ([(3, -1), (0, 1), (1, -1), (2, 1)], "antisymmetric"),  # a 4-cycle, not an involution
        ([(2, 1), (3, 1), (0, -1), (1, 1)], "antisymmetric"),  # one sign broken of two pairs
        ([(0, 5)], "antisymmetric"),  # a nonzero diagonal entry
        ([(1, 0), (0, 0)], "degenerate"),  # a zero value
        ([(1, -1), (0, 1), (3, 0), (2, 0)], "degenerate"),
        ([(0, 0)], "degenerate"),
        ([(1, "x"), (0, "x")], None),  # not an int, and no rational either
        ([(1, float("nan")), (0, float("nan"))], None),
    ],
)
def test_from_pairing_refuses_what_the_dense_constructor_refuses(pairing, message):
    with pytest.raises(ValueError, match=message):
        SymplecticForm.from_pairing(pairing)
    with pytest.raises(ValueError, match=message):
        SymplecticForm(ExactMatrix(dense_gram(pairing)))


@pytest.mark.parametrize(
    "pairing", [[(2, 1), (0, -1)], [(-1, 1), (0, -1)], [(1.0, 1), (0, -1)], [(1, 1.0), (0, -1.0)]]
)
def test_from_pairing_refuses_rows_out_of_range_and_non_ints(pairing):
    with pytest.raises(ValueError, match="pairing entry"):
        SymplecticForm.from_pairing(pairing)


def test_from_pairing_takes_lists_and_the_empty_form():
    assert SymplecticForm.from_pairing([[1, -3], [0, 3]]) == SymplecticForm(ExactMatrix([[0, 3], [-3, 0]]))
    assert SymplecticForm.from_pairing([]).gram == ExactMatrix([])


def test_symplectic_position_identity():
    F = ExactFlag.standard(isotropic_signature(2))
    assert relative_position_symplectic(F, F, OMEGA).is_identity()


def test_symplectic_position_recovers_every_signed_window():
    F = ExactFlag.standard(isotropic_signature(2))
    for w in group_elements(C2):
        columns = oracles.from_columns([label_column(w.window[k], 2) for k in range(2)])
        H = ExactFlag.from_columns(isotropic_signature(2), columns)
        assert relative_position_symplectic(F, H, OMEGA) == w


def test_symplectic_position_of_negated_line():
    F = ExactFlag.standard(isotropic_signature(2))
    columns = oracles.from_columns([label_column(1, 2), label_column(-2, 2)])
    H = ExactFlag.from_columns(isotropic_signature(2), columns)
    assert relative_position_symplectic(F, H, OMEGA).window == (1, -2)


def test_symplectic_position_rejects_non_isotropic_flags():
    bad_columns = oracles.from_columns([label_column(1, 2), label_column(-1, 2)])
    bad = ExactFlag.from_columns(isotropic_signature(2), bad_columns)
    F = ExactFlag.standard(isotropic_signature(2))
    with pytest.raises(ValueError):
        relative_position_symplectic(F, bad, OMEGA)
    with pytest.raises(ValueError):
        relative_position_symplectic(
            ExactFlag.standard(full_signature(4)), F, OMEGA
        )


def test_symplectic_position_inverse_swaps_arguments():
    rng = random.Random(103)
    for _ in range(20):
        F = random_isotropic_flag(rng, OMEGA)
        H = random_isotropic_flag(rng, OMEGA)
        pos = relative_position_symplectic(F, H, OMEGA)
        assert pos == relative_position_symplectic(H, F, OMEGA).inverse()


def test_symplectic_sign_matches_lagrangian_containment():
    rng = random.Random(107)
    for _ in range(60):
        F = random_isotropic_flag(rng, OMEGA)
        H = random_isotropic_flag(rng, OMEGA)
        window = relative_position_symplectic(F, H, OMEGA).window
        contained = intersection_dim(F.basis.prefix_columns(1), H.basis.prefix_columns(2)) == 1
        assert (1 in window) == contained


def test_oracles_do_not_run_the_elimination_kernel(monkeypatch):
    """The reference routes return their answers with ``flags._reduce_into``
    patched to raise; their inputs are built before the patch."""
    rng = random.Random(421)
    F, H = random_full_flag(rng, 4), random_full_flag(rng, 4)
    I, J = random_isotropic_flag(rng, OMEGA), random_isotropic_flag(rng, OMEGA)
    m = random_matrix(rng, 3, 5, rational=True)
    basis = so2_weight_basis(Partition((4,)))
    form = invariant_symplectic_form(Partition((4,)))
    group = CircleGroup.SO2

    def refuse(echelon, vector):
        raise AssertionError("an oracle ran the library's elimination kernel")

    with monkeypatch.context() as patch:
        patch.setattr(flags, "_reduce_into", refuse)
        full = oracles.relative_position_full_oracle(F, H)
        signed = oracles.relative_position_symplectic_oracle(I, J, OMEGA)
        chart, _ = oracles.lagrangian_chart_oracle(basis, form, basis.labels, group)
        kernel = oracles.gq_nullspace(gq_columns(m))
        perp = omega_perp(I.basis.prefix_columns(1), OMEGA)
    assert full == relative_position_full(F, H).window
    assert signed == relative_position_symplectic(I, J, OMEGA).window
    assert chart == tuple(-group.scaled(w) for w in (2, 4, 6))
    assert len(kernel) == m.cols - m.rank()
    assert perp.rank() == 3 and intersection_dim(perp, I.basis.prefix_columns(2)) == 2


# ---------------------------------------------------------------------------
# positions against the jump-pattern oracle


def seeded_windows(family: str, n: int, sample: int | None) -> list[tuple[int, ...]]:
    windows = weyl_windows(family, n)
    if sample is None or sample >= len(windows):
        return windows
    return random.Random(f"{family}{n}").sample(windows, sample)


@pytest.mark.parametrize(
    "rank, sample",
    [(2, None), (3, None), (4, None), (5, 40), (6, 16)],
    ids=["A2", "A3", "A4", "A5", "A6"],
)
def test_full_position_matches_jump_pattern_oracle(rank, sample):
    """Every Weyl element of A2-A4 (seeded samples of A5, A6), both heights."""
    rng = random.Random(401 + rank)
    for w in seeded_windows("A", rank + 1, sample):
        for height in PAIR_HEIGHTS:
            F, H = a_pair(rng, w, height)
            assert relative_position_full(F, H).window == w
            assert oracles.relative_position_full_oracle(F, H) == w


@pytest.mark.parametrize("n, sample", [(2, None), (3, None), (4, 24)], ids=["C2", "C3", "C4"])
def test_symplectic_position_matches_jump_pattern_oracle(n, sample):
    """Every Weyl element of C2-C3 (a seeded sample of C4), both heights."""
    rng = random.Random(409 + n)
    omega = SymplecticForm.standard(n)
    for w in seeded_windows("C", n, sample):
        for height in PAIR_HEIGHTS:
            F, H = c_pair(rng, w, height)
            assert relative_position_symplectic(F, H, omega).window == w
            assert oracles.relative_position_symplectic_oracle(F, H, omega) == w

@pytest.mark.parametrize("n", [2, 3], ids=["C2", "C3"])
def test_symplectic_position_of_leading_columns_matches_oracle(n):
    """Isotropic flags given by their first n columns and completed by unit
    vectors, so the pairing columns of the completion carry different integer
    contents and the perp elimination combines them."""
    rng = random.Random(443 + n)
    omega = SymplecticForm.standard(n)
    for w in weyl_windows("C", n):
        for height in PAIR_HEIGHTS:
            F, H = (
                ExactFlag.from_columns(isotropic_signature(n), X.basis.prefix_columns(n))
                for X in c_pair(rng, w, height)
            )
            assert relative_position_symplectic(F, H, omega).window == w
            assert oracles.relative_position_symplectic_oracle(F, H, omega) == w


def test_positions_of_degenerate_pairs_match_oracle():
    """F = H, and pairs that share the level F^k (and in type C all below it)."""
    rng = random.Random(419)
    for n in (2, 3, 4, 5):
        F, _ = a_pair(rng, tuple(range(1, n + 1)), "high")
        assert relative_position_full(F, F).is_identity()
        assert oracles.relative_position_full_oracle(F, F) == tuple(range(1, n + 1))
        for k in range(1, n):
            sig = Signature((k,), n)
            H = ExactFlag(full_signature(n), oracles.matmul(F.basis, random_block_upper(rng, sig)))
            w = relative_position_full(F, H).window
            assert w == oracles.relative_position_full_oracle(F, H)
            assert sorted(w[:k]) == list(range(1, k + 1))
            coset = relative_position_partial(
                ExactFlag(sig, F.basis), ExactFlag(sig, H.basis), frozenset({k}), frozenset({k})
            )
            assert coset.min_rep.is_identity()
    for n in (1, 2, 3):
        omega = SymplecticForm.standard(n)
        for k in range(n + 1):
            w = tuple(range(1, k + 1)) + tuple(range(-n, -k))
            F, H = c_pair(rng, w, "high")
            assert intersection_dim(F.basis.prefix_columns(k), H.basis.prefix_columns(k)) == k
            assert relative_position_symplectic(F, F, omega).is_identity()
            assert relative_position_symplectic(F, H, omega).window == w
            assert oracles.relative_position_symplectic_oracle(F, H, omega) == w


def test_symplectic_position_uses_the_given_form():
    """Moving both flags by g^-1 and the form to g^T omega g keeps the position."""
    rng = random.Random(421)
    n = 3
    omega = SymplecticForm.standard(n)
    matmul = oracles.matmul
    g = matmul(unitriangular(rng, 2 * n, 2, upper=False), unitriangular(rng, 2 * n, 2, upper=True))
    identity_rows = [[oracles.gq(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    inverse_rows = oracles.gq_solve(gq_columns(oracles.transpose(g)), identity_rows)
    g_inverse = ExactMatrix([[GaussianRational(*x) for x in row] for row in inverse_rows])
    assert matmul(g, g_inverse) == ExactMatrix.identity(2 * n)
    moved_form = SymplecticForm(matmul(oracles.transpose(g), omega.gram, g))
    for w in seeded_windows("C", n, 12):
        F, H = c_pair(rng, w, "low")
        moved_F = ExactFlag(F.signature, matmul(g_inverse, F.basis))
        moved_H = ExactFlag(H.signature, matmul(g_inverse, H.basis))
        assert relative_position_symplectic(moved_F, moved_H, moved_form).window == w
        assert oracles.relative_position_symplectic_oracle(moved_F, moved_H, moved_form) == w
        with pytest.raises(ValueError, match="^flag is not isotropic for the given form$"):
            relative_position_symplectic(moved_F, moved_H, omega)

@pytest.mark.parametrize("n, sample", [(2, None), (3, 16)], ids=["C2", "C3"])
def test_symplectic_position_under_a_rescaled_form_matches_oracle(n, sample):
    """The form D^T omega D, D a diagonal of distinct rationals, so each Gram
    column carries its own scale; D^-1 F and D^-1 H are isotropic for it and
    keep the position of F and H."""
    rng = random.Random(439 + n)
    distinct = sorted({Fraction(p, q) for p in range(-9, 10) if p for q in (1, 2, 5, 7)})
    ratios = rng.sample(distinct, 2 * n)
    d = diagonal(ratios)
    d_inverse = diagonal([1 / r for r in ratios])
    omega = SymplecticForm(oracles.matmul(oracles.transpose(d), SymplecticForm.standard(n).gram, d))
    assert len(set(omega.gram._scales)) > 1
    for w in seeded_windows("C", n, sample):
        for height in PAIR_HEIGHTS:
            F, H = c_pair(rng, w, height)
            moved_F = ExactFlag(F.signature, oracles.matmul(d_inverse, F.basis))
            moved_H = ExactFlag(H.signature, oracles.matmul(d_inverse, H.basis))
            assert relative_position_symplectic(moved_F, moved_H, omega).window == w
            assert oracles.relative_position_symplectic_oracle(moved_F, moved_H, omega) == w


def test_position_errors_keep_their_messages():
    full3 = ExactFlag.standard(full_signature(3))
    full4 = ExactFlag.standard(full_signature(4))
    partial = ExactFlag.standard(Signature((2,), 4))
    cases = [
        (lambda: relative_position_full(partial, full4), "expected a full flag (signature 1..n-1)"),
        (lambda: relative_position_full(full4, partial), "expected a full flag (signature 1..n-1)"),
        (lambda: relative_position_full(full3, full4), "ambient dimension mismatch"),
        (
            lambda: relative_position_partial(
                full3, partial, frozenset({1, 2}), frozenset({2})
            ),
            "ambient dimension mismatch",
        ),
        (
            lambda: relative_position_symplectic(full4, full4, OMEGA),
            "expected a complete isotropic flag (signature 1..n)",
        ),
    ]
    bad = ExactFlag.from_columns(
        isotropic_signature(2),
        oracles.from_columns([label_column(1, 2), label_column(-1, 2)]),
    )
    lagrangian = ExactFlag.standard(isotropic_signature(2))
    for left, right, omega in (
        (lagrangian, lagrangian, SymplecticForm.standard(1)),
        (ExactFlag.standard(isotropic_signature(3)), lagrangian, OMEGA),
    ):
        cases.append(
            (
                functools.partial(relative_position_symplectic, left, right, omega),
                "ambient dimension mismatch between the flags and the form",
            )
        )
    for left, right in ((bad, lagrangian), (lagrangian, bad)):
        cases.append(
            (
                functools.partial(relative_position_symplectic, left, right, OMEGA),
                "flag is not isotropic for the given form",
            )
        )
    for call, message in cases:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# partial (coset-valued) positions


A3 = RootSystem(Family.A, 3)


def test_partial_position_detects_containment():
    F = ExactFlag.standard(Signature((2,), 4))
    H = ExactFlag.from_columns(Signature((1,), 4), span_of((1, 0, 0, 0)))
    coset = relative_position_partial(F, H, frozenset({2}), frozenset({1}))
    assert coset.min_rep.is_identity()


def test_partial_position_generic_pair_is_top_coset():
    poset = double_cosets(A3, frozenset({2}), frozenset({1}))
    assert len(poset) == 2
    F = ExactFlag.standard(Signature((2,), 4))
    H = ExactFlag.from_columns(Signature((1,), 4), span_of((1, 1, 1, 1)))
    coset = relative_position_partial(F, H, frozenset({2}), frozenset({1}))
    bottom = poset.coset_index(identity(A3))
    top = poset.coset_index(coset.min_rep)
    assert top != bottom
    assert poset.leq(bottom, top)


def test_partial_position_of_projected_pair_is_bottom():
    rng = random.Random(109)
    basis = random_invertible(rng, 4)
    F = ExactFlag(Signature((1, 3), 4), basis)
    H = ExactFlag(Signature((1, 3), 4), basis)
    coset = relative_position_partial(F, H, frozenset({1, 3}), frozenset({1, 3}))
    assert coset.min_rep.is_identity()


def test_partial_position_is_lift_independent():
    rng = random.Random(113)
    sig = Signature((2,), 4)
    for _ in range(20):
        base = random_invertible(rng, 4)
        F = ExactFlag(sig, base)
        other = ExactFlag(sig, oracles.matmul(base, random_block_upper(rng, sig)))
        H = random_full_flag(rng, 4)
        H_line = ExactFlag(Signature((1,), 4), H.basis)
        theta, eta = frozenset({2}), frozenset({1})
        assert relative_position_partial(F, H_line, theta, eta) == (
            relative_position_partial(other, H_line, theta, eta)
        )


def test_partial_position_matches_oracle_on_leading_columns():
    """Flags given by their leading columns only, completed by ``from_columns``."""
    rng = random.Random(431)
    for n in (3, 4, 5):
        system = RootSystem(Family.A, n - 1)
        for w in seeded_windows("A", n, 12):
            F, H = a_pair(rng, w, "high")
            theta, eta = (frozenset(rng.sample(range(1, n), rng.randint(1, n - 1))) for _ in "ab")
            left, right = (
                ExactFlag.from_columns(
                    Signature(tuple(sorted(t)), n), X.basis.prefix_columns(max(t))
                )
                for X, t in ((F, theta), (H, eta))
            )
            window = oracles.relative_position_full_oracle(F, H)
            expected = double_coset_of(system, theta, eta, WeylElement(system, window))
            assert relative_position_partial(left, right, theta, eta) == expected


def test_partial_position_type_mismatch():
    F = ExactFlag.standard(Signature((2,), 4))
    H = ExactFlag.standard(Signature((1,), 4))
    with pytest.raises(ValueError):
        relative_position_partial(F, H, frozenset({1}), frozenset({1}))


# ---------------------------------------------------------------------------
# symplectic-orthogonal complements


def test_omega_perp_of_zero_is_everything():
    perp = omega_perp(oracles.zeros(4, 0), OMEGA)
    assert perp.rank() == 4


def test_omega_perp_of_lagrangian_is_itself():
    lagrangian = ExactMatrix.identity(4).prefix_columns(2)
    assert spans_equal(omega_perp(lagrangian, OMEGA), lagrangian)


def test_omega_perp_of_first_coordinate_line():
    line = span_of((1, 0, 0, 0))
    expected = span_of((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert spans_equal(omega_perp(line, OMEGA), expected)


def test_omega_perp_is_inclusion_reversing_involution():
    rng = random.Random(127)
    for _ in range(25):
        u = random_matrix(rng, 4, rng.randint(0, 4), span=2)
        perp = omega_perp(u, OMEGA)
        assert perp.rank() == 4 - u.rank()
        assert spans_equal(omega_perp(perp, OMEGA), u) or u.rank() != u.cols
        if u.rank() == u.cols and u.cols:
            smaller = u.prefix_columns(u.cols - 1)
            bigger_perp = omega_perp(smaller, OMEGA)
            assert intersection_dim(perp, bigger_perp) == perp.rank()


def test_isotropy_checks():
    lagrangian = ExactFlag.standard(isotropic_signature(2))
    assert is_isotropic(lagrangian, OMEGA)
    bad_columns = oracles.from_columns([label_column(1, 2), label_column(-1, 2)])
    bad = ExactFlag.from_columns(Signature((2,), 4), bad_columns)
    assert not is_isotropic(bad, OMEGA)
    rng = random.Random(131)
    for _ in range(10):
        vec = random_matrix(rng, 4, 1)
        if vec.rank() == 1:
            line = ExactFlag.from_columns(Signature((1,), 4), vec)
            assert is_isotropic(line, OMEGA)
    with pytest.raises(ValueError):
        is_isotropic(ExactFlag.standard(full_signature(3)), OMEGA)


# ---------------------------------------------------------------------------
# serialization


def test_flag_json_roundtrip_full_basis():
    rng = random.Random(137)
    flag = random_full_flag(rng, 3)
    again = flag_from_json(flag_to_json(flag))
    assert again == flag


def test_flag_json_accepts_leading_columns():
    data = {
        "ambient": 4,
        "signature": [2],
        "matrix": [["1", "0"], ["0", "1/2"], ["0", "0"], ["0", "-1"]],
    }
    flag = flag_from_json(
        {
            "ambient": 4,
            "signature": [2],
            "matrix": [[[r, "0"] for r in row] for row in data["matrix"]],
        }
    )
    assert flag.signature == Signature((2,), 4)
    assert flag.basis.rank() == 4
    with pytest.raises(ValueError):
        flag_from_json({"ambient": 4, "signature": [2], "matrix": [[["1", "0"]]] * 4})


@settings(max_examples=300, deadline=None)
@given(
    sign=st.sampled_from(["", "+", "-"]),
    zeros=st.integers(0, 3),
    numerator=st.integers(0, 10**30),
    denominator=st.none() | st.integers(0, 10**12),
    pad=st.sampled_from(["", " ", "\t", " \n"]),
    underscore=st.booleans(),
)
def test_json_parts_read_as_fraction_reads_them(
    sign, zeros, numerator, denominator, pad, underscore
):
    """Plain "p" and "p/q" parts (signed, zero-padded, unreduced) take the ``int``
    path and stay unreduced; padded or underscored ones go to ``Fraction``."""
    digits = "0" * zeros + str(numerator)
    if underscore:
        digits = f"{digits[0]}_{digits[1:]}" if len(digits) > 1 else f"{digits}_0"
    text = pad + sign + digits + ("" if denominator is None else f"/{denominator}") + pad
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="^matrix entry is not a pair of rationals"):
            matrix_from_json([[[text, "0"]]])
        return
    (p, q), _ = flags._entry_from_json([text, "0"])
    assert Fraction(p, q) == expected
    if not pad and not underscore:
        assert q == (1 if denominator is None else denominator)
    got = matrix_from_json([[[text, "0"], ["1/3", text]], [["-2/4", "0"], ["0", "5"]]])
    assert got == ExactMatrix(
        [
            [GaussianRational(expected), GaussianRational(Fraction(1, 3), expected)],
            [Fraction(-1, 2), GaussianRational(0, 5)],
        ]
    )


def test_json_parts_keep_their_refusals():
    exponent = 'matrix entry parts must read "p" or "p/q", not use an exponent: '
    for entry, message in (
        (["1/0", "0"], "matrix entry is not a pair of rationals: ['1/0', '0']"),
        (["0", "-3/00"], "matrix entry is not a pair of rationals: ['0', '-3/00']"),
        (["1/-2", "0"], "matrix entry is not a pair of rationals: ['1/-2', '0']"),
        ([True, False], "matrix entry is not a pair of rationals: [True, False]"),
        (["1", False], "matrix entry is not a pair of rationals: ['1', False]"),
        (["1e3", "0"], exponent + "['1e3', '0']"),
        # The exponent refusal wins over a bad other part, the shape refusal over both.
        (["1/0", "1e3"], exponent + "['1/0', '1e3']"),
        ([None, "1E3"], exponent + "[None, '1E3']"),
        ([True, "1e3"], exponent + "[True, '1e3']"),
        (["1", "0", "2"], "matrix entries must be [real, imag] pairs, got ['1', '0', '2']"),
        (("1", "0"), "matrix entries must be [real, imag] pairs, got ('1', '0')"),
    ):
        with pytest.raises(ValueError) as caught:
            matrix_from_json([[entry]])
        assert str(caught.value) == message
    assert matrix_from_json([[["0.25", 1]]]) == ExactMatrix([[GaussianRational("1/4", 1)]])


def read_both_ways(rows) -> tuple:
    """What ``matrix_from_json`` makes of ``rows`` with the one-pass reading of plain
    documents, and with the per-entry path alone: a matrix, or the error line."""

    def outcome():
        try:
            return matrix_from_json(rows)
        except ValueError as error:
            return f"ValueError: {error}"

    bulk = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flags, "_plain_matrix_from_json", lambda rows: None)
        return bulk, outcome()


def plain_part(rng: random.Random) -> str:
    sign = rng.choice(("", "", "-", "+"))
    value = rng.choice((0, rng.randint(0, 9), rng.randint(0, 10**30)))
    digits = "0" * rng.choice((0, 0, 0, 2)) + str(value)
    if rng.random() < 0.5:
        return sign + digits
    return f"{sign}{digits}/{'0' * rng.choice((0, 0, 1))}{rng.randint(1, 10**rng.randint(1, 12))}"


# Parts and entries the one-pass reading must leave to the per-entry path.
ODD_PARTS = [
    " 1", "1 ", "\t-2", "1_000", "1/2_0", "١٢", "１", "1\u00002", "\u0000",
    "1e3", "2E-2", "1/0", "0/00", "-3/-4", "1/+2", "1,2", "1,", "", "+", "/3", "1//2", "0.5",
    True, False, 3, -7, 2.5, float("nan"), None, ["1"], {"1": 2},
    "7" * 2**20, "1" + "0" * 5000, 10**5000,
]
ODD_ENTRIES = ["10", "1", 1, None, [], ["1"], ["1", "0", "0"], ("1", "0"), {"re": "1", "im": "0"}]


def test_plain_documents_read_in_one_pass_match_the_per_entry_path():
    """Seeded plain documents are read in one pass; adversarial ones, with one odd part,
    entry or row, give the same matrix or the identical error line on both paths."""
    rng = random.Random("bulk-json")
    for trial in range(400):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[[plain_part(rng), plain_part(rng)] for _ in range(width)] for _ in range(height)]
        if rng.random() < 0.3:  # a zero column
            for row in rows:
                row[0] = ["0", "-0"]
        if rng.random() < 0.3:  # an integer-only document
            rows = [[[p.split("/")[0], q.split("/")[0]] for p, q in row] for row in rows]
        bulk, per_entry = read_both_ways(rows)
        assert flags._plain_matrix_from_json(rows) is not None
        assert isinstance(bulk, ExactMatrix) and bulk == per_entry
        assert (bulk._columns, bulk._scales) == (per_entry._columns, per_entry._scales)
        i, j = rng.randrange(height), rng.randrange(width)
        odd = [[list(entry) for entry in row] for row in rows]
        kind = trial % 4
        if kind == 0:
            odd[i][j][rng.randrange(2)] = rng.choice(ODD_PARTS)
        elif kind == 1:
            odd[i][j] = rng.choice(ODD_ENTRIES)
        elif kind == 2:
            odd[i] = odd[i][:-1] if rng.random() < 0.5 else odd[i] + [["1", "0"]]
        else:
            odd.insert(i, [])
        bulk, per_entry = read_both_ways(odd)
        assert bulk == per_entry, (odd, bulk, per_entry)
    two = ["1", "2"]
    for rows in ([], [[]], [[], []], [[two], []], [[two] * 2, [two] * 3, [two]]):
        bulk, per_entry = read_both_ways(rows)
        assert bulk == per_entry


def part_id(part) -> str:
    text = part if isinstance(part, str) else type(part).__name__
    return ascii(text[:12]) + (f"...{len(text)}" if len(text) > 12 else "")


@pytest.mark.parametrize("part", ODD_PARTS, ids=part_id)
def test_every_odd_part_reads_alike_on_both_paths(part):
    for rows in ([[[part, "0"]]], [[["1/2", "3"], ["4", part]], [["5", "6"], ["7/8", "9"]]]):
        bulk, per_entry = read_both_ways(rows)
        assert bulk == per_entry
        assert flags._plain_matrix_from_json(rows) is None
