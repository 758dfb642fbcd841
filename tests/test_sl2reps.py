"""Tests for partitions, weight data, circle bases, and the invariant form.

The invariance tests rebuild the group action from scratch: representation
matrices come from exact polynomial substitution on binary forms, so the
production form construction is checked against an independent model.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flagfibers.flags import ExactMatrix, GaussianRational, SymplecticForm
from flagfibers.sl2reps import (
    Partition,
    WeightedBasis,
    _primitive_antidiagonal,
    admits_symplectic_form,
    anosov_type,
    cartan_projection,
    invariant_symplectic_form,
    irreducible_weights,
    partition_weights,
    partitions_of,
    so2_weight_basis,
)

import oracles
from oracles import gq, gq_add, gq_mul


# ---------------------------------------------------------------------------
# exact polynomial oracle for the SL(2) action on binary forms

Poly = dict  # (x_exponent, y_exponent) -> GQ coefficient
ZERO = gq()


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for key, coeff in q.items():
        out[key] = gq_add(out.get(key, ZERO), coeff)
    return {k: v for k, v in out.items() if v != ZERO}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (a, b), c in p.items():
        for (a2, b2), c2 in q.items():
            key = (a + a2, b + b2)
            out[key] = gq_add(out.get(key, ZERO), gq_mul(c, c2))
    return {k: v for k, v in out.items() if v != ZERO}


def poly_pow(p: Poly, n: int) -> Poly:
    out: Poly = {(0, 0): gq(1)}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def poly_scale(p: Poly, c) -> Poly:
    scaled = {k: gq_mul(v, c) for k, v in p.items()}
    return {k: v for k, v in scaled.items() if v != ZERO}


def circle_poly(d: int, k: int) -> Poly:
    """f_{d-1-2k} = (X - iY)^{d-1-k} (X + iY)^k as a polynomial."""
    minus = {(1, 0): gq(1), (0, 1): gq(0, -1)}
    plus = {(1, 0): gq(1), (0, 1): gq(0, 1)}
    return poly_mul(poly_pow(minus, d - 1 - k), poly_pow(plus, k))


def substituted(p: Poly, g) -> Poly:
    """The action of g = [[a, b], [c, d]]: f(X, Y) -> f(dX - bY, -cX + aY)."""
    (a, b), (c, d) = g
    new_x = {(1, 0): gq(d), (0, 1): gq(-b)}
    new_y = {(1, 0): gq(-c), (0, 1): gq(a)}
    out: Poly = {}
    for (px, py), coeff in p.items():
        term = poly_scale(poly_mul(poly_pow(new_x, px), poly_pow(new_y, py)), coeff)
        out = poly_add(out, term)
    return out


def monomial_vector(p: Poly, degree: int) -> list:
    return [GaussianRational(*p.get((degree - m, m), ZERO)) for m in range(degree + 1)]


def solve_columns(square: ExactMatrix, targets: ExactMatrix) -> ExactMatrix:
    """Solve square @ X = targets for an invertible square matrix."""

    def as_rows(m: ExactMatrix) -> list[list[tuple[Fraction, Fraction]]]:
        return [[(e.real, e.imag) for e in m.row(i)] for i in range(m.rows)]

    solution = oracles.gq_solve(as_rows(square), as_rows(targets))
    return ExactMatrix([[GaussianRational(re, im) for re, im in row] for row in solution])


def action_block(d: int, g) -> ExactMatrix:
    """Matrix of the g-action on the circle basis f_{d-1}, ..., f_{1-d}."""
    degree = d - 1
    basis = oracles.from_columns([monomial_vector(circle_poly(d, k), degree) for k in range(d)])
    moved = oracles.from_columns(
        [monomial_vector(substituted(circle_poly(d, k), g), degree) for k in range(d)]
    )
    return solve_columns(basis, moved)


def representation_matrix(p: Partition, g) -> ExactMatrix:
    """Block-diagonal action on the full representation, in basis order."""
    n = p.total
    entries = [[GaussianRational() for _ in range(n)] for _ in range(n)]
    offset = 0
    for d in p.parts:
        block = action_block(d, g)
        for r in range(d):
            for c in range(d):
                entries[offset + r][offset + c] = block.entry(r, c)
        offset += d
    return ExactMatrix(entries)


SL2_SAMPLES = [
    [[1, 1], [0, 1]],
    [[1, 0], [1, 1]],
    [[2, 0], [0, Fraction(1, 2)]],
    [[0, 1], [-1, 0]],
    [[3, 1], [2, 1]],
]


# ---------------------------------------------------------------------------
# partitions and weight data


def test_partition_validation():
    assert Partition((3, 2, 1)).total == 6
    assert str(Partition((2, 1, 1))) == "(2,1,1)"
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partitions_of_counts_and_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(6)) == 11
    assert len(partitions_of(8)) == 22
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_irreducible_weights():
    assert irreducible_weights(1) == (0,)
    assert irreducible_weights(2) == (1, -1)
    assert irreducible_weights(5) == (4, 2, 0, -2, -4)
    with pytest.raises(ValueError):
        irreducible_weights(0)


def test_partition_weights_examples():
    assert partition_weights(Partition((3, 2, 1))) == (2, 1, 0, 0, -1, -2)
    assert partition_weights(Partition((2, 2))) == (1, 1, -1, -1)
    assert partition_weights(Partition((1, 1, 1))) == (0, 0, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_weights_sum_to_zero(n):
    for p in partitions_of(n):
        weights = partition_weights(p)
        assert sum(weights) == 0
        assert len(weights) == n
        assert sorted(weights, reverse=True) == list(weights)


def test_anosov_type_examples():
    assert anosov_type(Partition((3, 2, 1))) == {1, 2, 4, 5}
    assert anosov_type(Partition((4,))) == {1, 2, 3}
    assert anosov_type(Partition((2, 2))) == {2}
    assert anosov_type(Partition((1, 1, 1))) == frozenset()


@pytest.mark.parametrize("n", range(2, 9))
def test_anosov_type_properties(n):
    # A single part separates every consecutive pair of weights.
    assert anosov_type(Partition((n,))) == set(range(1, n))
    for p in partitions_of(n):
        kind = anosov_type(p)
        assert all(1 <= j <= n - 1 for j in kind)
        if all(d % 2 == 0 for d in p.parts):
            # All weights odd, so the sign change at zero is always a jump.
            assert n // 2 in kind


def test_admits_symplectic_form_examples():
    assert admits_symplectic_form(Partition((2, 1, 1)))
    assert not admits_symplectic_form(Partition((3, 1)))
    assert admits_symplectic_form(Partition((4,)))
    assert admits_symplectic_form(Partition((3, 3)))
    with pytest.raises(ValueError):
        admits_symplectic_form(Partition((2, 1)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_admits_symplectic_form_stable_under_trivial_summands(n):
    for p in partitions_of(n):
        padded = Partition(p.parts + (1, 1))
        assert admits_symplectic_form(padded) == admits_symplectic_form(p)


def test_symplectic_partitions_of_4():
    good = [p.parts for p in partitions_of(4) if admits_symplectic_form(p)]
    assert good == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


# ---------------------------------------------------------------------------
# circle-weight bases


def test_weighted_basis_validation():
    basis = WeightedBasis(("a", "b"), (1, -1))
    assert len(basis) == 2
    assert oracles.weight_of(basis, "b") == -1
    assert oracles.index_of(basis, "a") == 0
    with pytest.raises(KeyError):
        oracles.index_of(basis, "c")
    with pytest.raises(ValueError):
        WeightedBasis(("a",), (1, 2))
    with pytest.raises(ValueError):
        WeightedBasis(("a", "a"), (1, 2))


def test_weighted_basis_permuted():
    basis = WeightedBasis(("a", "b", "c"), (2, 0, -2))
    shuffled = oracles.permuted(basis, ["c", "a", "b"])
    assert shuffled.labels == ("c", "a", "b")
    assert shuffled.weights == (-2, 2, 0)
    with pytest.raises(ValueError):
        oracles.permuted(basis, ["a", "b"])
    with pytest.raises(ValueError):
        oracles.permuted(basis, ["a", "b", "d"])


def test_so2_weight_basis_distinct_weights():
    basis = so2_weight_basis(Partition((3,)))
    assert basis.labels == ("f2", "f0", "f-2")
    assert basis.weights == (2, 0, -2)
    basis = so2_weight_basis(Partition((4,)))
    assert basis.labels == ("f3", "f1", "f-1", "f-3")
    basis = so2_weight_basis(Partition((2, 1)))
    assert basis.labels == ("f1", "f-1", "f0")
    assert basis.weights == (1, -1, 0)


def test_so2_weight_basis_repeated_weights():
    basis = so2_weight_basis(Partition((2, 2)))
    assert basis.labels == ("e1", "e-1", "f1", "f-1")
    assert basis.weights == (1, -1, 1, -1)
    basis = so2_weight_basis(Partition((2, 1, 1)))
    assert basis.labels == ("f1", "f-1", "X2", "Y2")
    assert basis.weights == (1, -1, 0, 0)
    basis = so2_weight_basis(Partition((1, 1, 1, 1)))
    assert basis.labels == ("X1", "Y1", "X2", "Y2")
    # A leftover singleton after pairing keeps a lone X.
    basis = so2_weight_basis(Partition((3, 1)))
    assert basis.labels == ("f2", "f0", "f-2", "X2")


@pytest.mark.parametrize("n", range(1, 8))
def test_so2_weight_basis_matches_partition_weights(n):
    for p in partitions_of(n):
        basis = so2_weight_basis(p)
        assert len(basis) == n
        assert tuple(sorted(basis.weights, reverse=True)) == partition_weights(p)


# ---------------------------------------------------------------------------
# the invariant symplectic form


def antidiagonal_of(gram: ExactMatrix) -> list[str]:
    n = gram.rows
    return [str(gram.entry(k, n - 1 - k)) for k in range(n)]


@pytest.mark.parametrize("d", range(1, 17))
def test_primitive_antidiagonal_matches_expansion_oracle(d):
    assert _primitive_antidiagonal(d) == oracles.primitive_antidiagonal_oracle(d)


@pytest.mark.parametrize("total", [*range(2, 17, 2), 128])
def test_invariant_form_equals_the_dense_route(total):
    # The pairing route stores what ExactMatrix makes of the dense Gram, and the
    # general constructor, with its dense checks, takes that Gram too.
    every = partitions_of(total) if total <= 16 else [Partition((total,))]
    for p in filter(admits_symplectic_form, every):
        gram = invariant_symplectic_form(p).gram
        dense = ExactMatrix([[gram.entry(i, j) for j in range(total)] for i in range(total)])
        assert gram == dense and hash(gram) == hash(dense), p
        assert SymplecticForm(dense).gram == gram, p


def test_invariant_form_single_even_part():
    gram = invariant_symplectic_form(Partition((4,))).gram
    assert antidiagonal_of(gram) == ["-3", "1", "-1", "3"]
    for r in range(4):
        for c in range(4):
            if r + c != 3:
                assert not gram.entry(r, c)


def test_invariant_form_two_even_parts():
    gram = invariant_symplectic_form(Partition((2, 2))).gram
    # Blocks pair e1 with e-1 and f1 with f-1; nothing crosses blocks.
    expected = {(0, 1): "-1", (1, 0): "1", (2, 3): "-1", (3, 2): "1"}
    for r in range(4):
        for c in range(4):
            assert str(gram.entry(r, c)) == expected.get((r, c), "0")


def test_invariant_form_odd_pairs():
    gram = invariant_symplectic_form(Partition((2, 1, 1))).gram
    basis = so2_weight_basis(Partition((2, 1, 1)))
    x, y = oracles.index_of(basis, "X2"), oracles.index_of(basis, "Y2")
    assert str(gram.entry(x, y)) == "-1"
    assert str(gram.entry(y, x)) == "1"
    gram = invariant_symplectic_form(Partition((3, 3))).gram
    basis = so2_weight_basis(Partition((3, 3)))
    assert str(gram.entry(oracles.index_of(basis, "e2"), oracles.index_of(basis, "f-2"))) == "-2"
    assert str(gram.entry(oracles.index_of(basis, "e0"), oracles.index_of(basis, "f0"))) == "1"
    assert str(gram.entry(oracles.index_of(basis, "f-2"), oracles.index_of(basis, "e2"))) == "2"
    # Same-copy pairings vanish for odd parts.
    assert not gram.entry(oracles.index_of(basis, "e2"), oracles.index_of(basis, "e-2"))


def test_invariant_form_rejects_odd_multiplicity():
    with pytest.raises(ValueError):
        invariant_symplectic_form(Partition((3, 1)))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_invariant_form_respects_weights(n):
    for p in partitions_of(n):
        if not admits_symplectic_form(p):
            continue
        gram = invariant_symplectic_form(p).gram
        weights = so2_weight_basis(p).weights
        for r in range(n):
            for c in range(n):
                if gram.entry(r, c):
                    assert weights[r] + weights[c] == 0


@pytest.mark.parametrize(
    "parts", [(2,), (4,), (6,), (2, 2), (2, 1, 1), (1, 1, 1, 1), (3, 3), (4, 2)]
)
def test_invariant_form_against_substitution_oracle(parts):
    p = Partition(parts)
    gram = invariant_symplectic_form(p).gram
    for g in SL2_SAMPLES:
        m = representation_matrix(p, g)
        assert oracles.matmul(oracles.transpose(m), gram, m) == gram


def test_substitution_oracle_rejects_wrong_form():
    # The classical-looking antidiagonal (-4, 1, -1, 4) is not invariant.
    p = Partition((4,))
    wrong = [[GaussianRational() for _ in range(4)] for _ in range(4)]
    for k, v in enumerate([-4, 1, -1, 4]):
        wrong[k][3 - k] = GaussianRational(v)
    wrong_gram = ExactMatrix(wrong)
    g = SL2_SAMPLES[0]
    m = representation_matrix(p, g)
    assert oracles.matmul(oracles.transpose(m), wrong_gram, m) != wrong_gram


def test_representation_matrix_is_exact_homomorphism():
    # Multiplicativity of the oracle itself on a sample pair.
    p = Partition((4, 2))
    g = [[1, 1], [0, 1]]
    h = [[1, 0], [1, 1]]
    gh = [[2, 1], [1, 1]]
    lhs = representation_matrix(p, gh)
    rhs = oracles.matmul(representation_matrix(p, g), representation_matrix(p, h))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the Cartan projection


def test_cartan_projection_identity():
    assert cartan_projection([[1, 0], [0, 1]]) == [0.0, 0.0]
    assert cartan_projection([[True, False], [False, True]]) == [0.0, 0.0]


def test_cartan_projection_diagonal():
    out = cartan_projection([[math.e, 0], [0, 1 / math.e]])
    assert out[0] == pytest.approx(1.0, abs=1e-9)
    assert out[1] == pytest.approx(-1.0, abs=1e-9)
    out = cartan_projection([[2, 0, 0], [0, 1, 0], [0, 0, 0.5]])
    assert out == pytest.approx([math.log(2), 0.0, -math.log(2)], abs=1e-9)
    for entries in ([["2", "0"], ["0", "1"]], [[Fraction(2), 0], [0, 1]]):
        assert cartan_projection(entries) == pytest.approx([math.log(2), 0.0], abs=1e-9)


def test_cartan_projection_rotation_invariant():
    c, s = math.cos(0.3), math.sin(0.3)
    r = [[c, -s], [s, c]]
    a = [[3 * c, -s / 3], [3 * s, c / 3]]  # R @ diag(3, 1/3)
    out = cartan_projection(a)
    assert out == pytest.approx([math.log(3), -math.log(3)], abs=1e-9)
    del r


def test_cartan_projection_shear():
    phi = (1 + math.sqrt(5)) / 2
    out = cartan_projection([[1, 1], [0, 1]])
    assert out == pytest.approx([math.log(phi), -math.log(phi)], abs=1e-9)


@pytest.mark.parametrize(
    "m, error",
    [
        pytest.param([[1, 1], [1, 1]], ValueError, id="rank-one"),
        pytest.param([[1, 2, 3]], ValueError, id="one-row"),
        pytest.param([], ValueError, id="empty"),
        pytest.param([[]], ValueError, id="empty-row"),
        pytest.param(3.0, ValueError, id="scalar"),
        pytest.param([[[1]]], ValueError, id="three-deep"),
        pytest.param([[1, 2], [3]], ValueError, id="ragged"),
        pytest.param([[0, 0], [0, 0]], ValueError, id="zero"),
        pytest.param([[1e300, 0], [0, 1e-300]], ValueError, id="below-cutoff"),
        pytest.param([[math.inf, 0], [0, 1]], ValueError, id="inf"),
        pytest.param([[math.nan, 0], [0, 1]], ValueError, id="nan"),
        pytest.param([[1j, 0], [0, 1]], TypeError, id="complex"),
    ],
)
def test_cartan_projection_singular(m, error):
    with pytest.raises(error):
        cartan_projection(m)


def test_cartan_projection_matches_numpy_on_rotated_diagonals():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(18)
    for n in range(1, 7):
        for _ in range(40):
            logs = np.sort(rng.uniform(-3, 3, n))[::-1]
            q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
            m = q1 @ np.diag(np.exp(logs)) @ q2
            out = cartan_projection(m.tolist())
            assert out == pytest.approx(logs.tolist(), abs=1e-9)
            assert out == pytest.approx(np.log(np.linalg.svd(m, compute_uv=False)), abs=1e-9)


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_cartan_projection_of_exponentials(t):
    out = cartan_projection([[math.exp(t), 0], [0, math.exp(-t)]])
    assert out[0] == pytest.approx(abs(t), abs=1e-9)
    assert out[1] == pytest.approx(-abs(t), abs=1e-9)
