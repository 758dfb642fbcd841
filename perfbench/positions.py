"""The ``positions`` workload: relative positions of seeded flag pairs.

Each op reads two flags from JSON-ready data with ``flags.flag_from_json``
(which validates the basis rank) and asks for their relative position.  A
round holds one op for every shape and coefficient height, so every round
does the same mix of work; the Weyl element of each op walks through the
whole group in a seeded order, so every position appears, not only the
transverse one that random pairs give.
"""

from __future__ import annotations

import itertools
import random

import gen
from core import Op, Workload
from flagfibers import flags

SHAPES = (
    ("full", 3),
    ("full", 4),
    ("full", 5),
    ("symplectic", 2),
    ("symplectic", 3),
    ("partial", 4),
    ("partial", 5),
)
HEIGHTS = ("low", "high")


def _weyl_elements(kind: str, n: int) -> list[tuple[int, ...]]:
    perms = list(itertools.permutations(range(1, n + 1)))
    if kind != "symplectic":
        return perms
    return [
        tuple(p * s for p, s in zip(perm, signs))
        for perm in perms
        for signs in itertools.product((1, -1), repeat=n)
    ]


def _compose(u, w):
    return tuple(u[j - 1] for j in w)


def _inversions(w) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def _block_permutations(n: int, typeset: frozenset[int]) -> list[tuple[int, ...]]:
    """Permutations generated by the s_i with i outside ``typeset``.

    These are exactly the permutations that keep each block between
    consecutive members of ``typeset`` in place.
    """
    cuts = [0, *sorted(typeset), n]
    blocks = [range(a + 1, b + 1) for a, b in zip(cuts, cuts[1:])]
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        out.append(tuple(x for part in parts for x in part))
    return out


def min_double_coset_rep(n, theta, eta, w) -> tuple[int, ...]:
    """The (length, window)-least element of W_theta w W_eta, by brute force."""
    left = _block_permutations(n, theta)
    right = _block_permutations(n, eta)
    return min(
        (_compose(_compose(u, w), v) for u in left for v in right),
        key=lambda x: (_inversions(x), x),
    )


def _proper_type(rng: random.Random, n: int) -> frozenset[int]:
    size = rng.randint(1, n - 2)
    return frozenset(rng.sample(range(1, n), size))


class Bench(Workload):
    name = "positions"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.omegas = {n: flags.SymplecticForm.standard(n) for n in (2, 3)}
        self.reset()

    def reset(self) -> None:
        self.rng = random.Random(f"positions:{self.seed}")
        self._cycles = {shape: self._cycle(shape) for shape in SHAPES}

    def _cycle(self, shape):
        elements = _weyl_elements(*shape)
        while True:
            order = elements[:]
            self.rng.shuffle(order)
            yield from order

    def batches(self):
        while True:
            batch = [
                self._op(shape, height, next(self._cycles[shape]))
                for shape in SHAPES
                for height in HEIGHTS
            ]
            self.rng.shuffle(batch)
            yield batch

    def _op(self, shape, height: str, w) -> Op:
        kind, n = shape
        label = f"{kind}{n}-{height}"
        if kind == "symplectic":
            f_basis, h_basis = gen.c_pair(self.rng, w, height)
            dims = range(1, n + 1)
            f_json = gen.flag_json(f_basis, dims, 2 * n)
            h_json = gen.flag_json(h_basis, dims, 2 * n)
            omega = self.omegas[n]

            def run(span):
                with span("flags.flag_from_json"):
                    first = flags.flag_from_json(f_json)
                with span("flags.flag_from_json"):
                    second = flags.flag_from_json(h_json)
                with span("flags.relative_position_symplectic"):
                    return flags.relative_position_symplectic(first, second, omega).window

            expected = w
        elif kind == "full":
            f_basis, h_basis = gen.a_pair(self.rng, w, height)
            dims = range(1, n)
            f_json = gen.flag_json(f_basis, dims, n)
            h_json = gen.flag_json(h_basis, dims, n)

            def run(span):
                with span("flags.flag_from_json"):
                    first = flags.flag_from_json(f_json)
                with span("flags.flag_from_json"):
                    second = flags.flag_from_json(h_json)
                with span("flags.relative_position_full"):
                    return flags.relative_position_full(first, second).window

            expected = w
        else:
            theta, eta = _proper_type(self.rng, n), _proper_type(self.rng, n)
            f_basis, h_basis = gen.a_pair(self.rng, w, height)
            # Partial flags arrive as their leading columns only.
            f_json = gen.flag_json(f_basis, sorted(theta), n, columns=max(theta))
            h_json = gen.flag_json(h_basis, sorted(eta), n, columns=max(eta))

            def run(span):
                with span("flags.flag_from_json"):
                    first = flags.flag_from_json(f_json)
                with span("flags.flag_from_json"):
                    second = flags.flag_from_json(h_json)
                with span("flags.relative_position_partial"):
                    coset = flags.relative_position_partial(first, second, theta, eta)
                return coset.min_rep.window

            expected = min_double_coset_rep(n, theta, eta, w)

        def check(window):
            return None if window == expected else "wrong position"

        key = (label, repr(f_json["matrix"]), repr(h_json["matrix"]))
        return Op(label, run, check, hash(key))
