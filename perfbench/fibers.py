"""The ``fibers`` workload: weight graphs, their classification, and the
representation and dimension data around them.

A round holds the six paper cases (``twg.analyze_action`` then
``twg.classify_fiber``), one symplectic partition of each n in 2, 4, 6, 8
(``sl2reps.so2_weight_basis`` and ``sl2reps.invariant_symplectic_form``),
``sl2reps.cartan_projection`` on seeded matrices with known singular values,
the ``dims`` census and case table, and ``classify_fiber`` on seeded
catalogue graphs: one Hir(q;a,b) of each largest weight 3 to 8, a connected
sum of a product Hir(0;a,b) with another Hir, and two graphs with one vertex
sign flipped, which match nothing and so run the search to exhaustion.
Vertex ids are seeded.

Classification time grows steeply with the largest edge weight, and the
form's with n, so each op draws from one class: one weight or one n.  The
sum has largest weight 3, the unmatched graphs are a Hir with largest
weight 7 and a sum with largest weight 2, and the sums' first factors come
in turn.  That keeps the work of a round, and so the latencies and the
throughput, nearly the same for every seed.  Sums with largest weight 4
take 0.3-4.8 s each, depending on which catalogue factor matches first, and
are left out for that reason.
"""

from __future__ import annotations

import math
import random
import re

from core import PAPER, Op, Workload, partition_weights
from flagfibers import dims, twg
from flagfibers.sl2reps import (
    Partition,
    admits_symplectic_form,
    cartan_projection,
    invariant_symplectic_form,
    partitions_of,
    so2_weight_basis,
)


# The six cases of the paper with their criterion-8 classifications.
CASES = (
    ((3,), "full", "PSO2", "Hir(0;1,2) # Hir(0;1,2)", "(S^2 x S^2) # (S^2 x S^2)"),
    ((2, 1), "full", "SO2", "Hir(0;1,1) # Hir(0;1,1)", "(S^2 x S^2) # (S^2 x S^2)"),
    ((4,), "proj", "PSO2", "Hir(2;-1,2)", "S^2 x S^2"),
    ((2, 2), "proj", "PSO2", "Hir(2;1,0)", "S^2 x S^2"),
    ((4,), "lag", "PSO2", "Hir(1;-1,3)", "CP^2 # -CP^2"),
    ((2, 1, 1), "lag", "SO2", "Hir(1;1,0)", "CP^2 # -CP^2"),
)
CENSUS_GROUPS = ["SL(3,C)", "SL(4,C)", "Sp(4,C)", "SO(5,C)", "SO(6,C)"]
CASE_ROWS = [
    (("SL(3,C)",), "Flag(C^3)", ("(3)", "(2,1)")),
    (("SL(4,C)", "Sp(4,C)"), "CP^3", ("(4)", "(2,2)")),
    (("Sp(4,C)",), "Lag(C^4)", ("(4)", "(2,1,1)")),
]
# A round classifies one Hir(q;a,b) of each largest weight, and asks for
# the form of one symplectic partition of each size.
HIR_WEIGHTS = (3, 4, 5, 6, 7, 8)
SL2_SIZES = (2, 4, 6, 8)
MODEL = re.compile(r"Hir\((\d+);(-?\d+),(-?\d+)\)")


def hirzebruch_params(max_weight: int) -> list[tuple[int, int, int]]:
    """Every (q, a, b) with b > 0 whose edge weights |a|, b, |a+qb| are <= max_weight."""
    out = []
    for q in range(2 * max_weight + 1):
        for a in range(-max_weight, max_weight + 1):
            for b in range(1, max_weight + 1):
                if a == 0 or math.gcd(abs(a), b) != 1 or a + q * b == 0:
                    continue
                if max(abs(a), b, abs(a + q * b)) <= max_weight:
                    out.append((q, a, b))
    return out


def largest_weight(g: twg.WeightGraph) -> int:
    return max((w for _, _, w in g.edges), default=1)


def relabel(rng: random.Random, g: twg.WeightGraph) -> twg.WeightGraph:
    ids = [i for i, _ in g.rounds] + [i for i, _ in g.squares]
    fresh = dict(zip(ids, (f"v{n}" for n in rng.sample(range(10**6), len(ids)))))
    return twg.WeightGraph(
        tuple((fresh[i], s) for i, s in g.rounds),
        tuple((fresh[i], e) for i, e in g.squares),
        tuple((fresh[a], fresh[b], w) for a, b, w in g.edges),
    )


def flip_one_sign(rng: random.Random, g: twg.WeightGraph) -> twg.WeightGraph:
    """Unbalance the vertex signs; no catalogue graph or sum then matches."""
    k = rng.randrange(len(g.rounds))
    rounds = tuple((i, -s if n == k else s) for n, (i, s) in enumerate(g.rounds))
    return twg.WeightGraph(rounds, g.squares, g.edges)


def gluings(g1: twg.WeightGraph, g2: twg.WeightGraph) -> list[tuple[str, str]]:
    return [
        (v1, v2)
        for v1, s1 in g1.rounds
        for v2, s2 in g2.rounds
        if s1 == -s2 and g1.incident_weights(v1) == g2.incident_weights(v2)
    ]


def rebuilds(model: str, g: twg.WeightGraph) -> bool:
    """Whether the named model rebuilds to a graph isomorphic to ``g``."""
    params = [tuple(int(x) for x in m) for m in MODEL.findall(model)]
    if len(params) == 1:
        return twg.graphs_isomorphic(twg.hirzebruch_graph(*params[0]), g)
    if len(params) != 2:
        return False
    g1, g2 = (twg.hirzebruch_graph(*p) for p in params)
    return any(
        twg.graphs_isomorphic(twg.connected_sum(g1, v1, g2, v2), g)
        for v1, v2 in gluings(g1, g2)
    )


def _rotation(rng: random.Random, n: int):
    """A product of plane rotations: an orthogonal n x n matrix."""
    m = [[float(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(t), math.sin(t)
            for row in m:
                row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return m


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def invertible(rows) -> bool:
    """Exact elimination over the entries' own field: is the square matrix invertible?"""
    rows = [list(row) for row in rows]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, len(rows)):
            if rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return True


class Bench(Workload):
    name = "fibers"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.goldens = {
            case: (PAPER / f"twg_{case[1]}_{'-'.join(map(str, case[0]))}.json").read_text()
            for case in CASES
        }
        self.symplectic = {
            n: [p.parts for p in partitions_of(n) if admits_symplectic_form(p)] for n in SL2_SIZES
        }
        hir = hirzebruch_params(max(HIR_WEIGHTS))
        self.hir = {
            w: [p for p in hir if max(abs(p[1]), p[2], abs(p[1] + p[0] * p[2])) == w]
            for w in HIR_WEIGHTS
        }
        self.small = hirzebruch_params(3)
        products = [p for p in self.small if p[0] == 0]
        # The first factor sets what a sum costs to classify (from 10 to
        # 400 ms at largest weight 3), so a run takes them in turn.  Each
        # product of largest weight <= w has a sum of largest weight w.
        self.products = {
            w: [p for p in products if largest_weight(twg.hirzebruch_graph(*p)) <= w] for w in (2, 3)
        }
        self.reset()

    def reset(self) -> None:
        self.classified = self.matched = 0
        self.rng = random.Random(f"fibers:{self.seed}")
        self._partitions = {n: self._cycle(parts) for n, parts in self.symplectic.items()}
        self._products = {w: self._cycle(products) for w, products in self.products.items()}

    def _cycle(self, items):
        while True:
            order = list(items)
            self.rng.shuffle(order)
            yield from order

    def batches(self):
        while True:
            batch = [self._case_op(case) for case in CASES]
            batch += [self._sl2_op(next(self._partitions[n])) for n in SL2_SIZES]
            batch += [self._cartan_op(n) for n in (2, 3)]
            batch.append(self._dims_op())
            batch += [self._classify_op("hir", self._hir_graph(self.hir[w])) for w in HIR_WEIGHTS]
            batch.append(self._classify_op("sum", self._sum_graph(3)))
            unmatched = (self._hir_graph(self.hir[7]), self._sum_graph(2))
            batch += [self._classify_op("unmatched", flip_one_sign(self.rng, g)) for g in unmatched]
            self.rng.shuffle(batch)
            yield batch

    def _hir_graph(self, pool) -> twg.WeightGraph:
        return relabel(self.rng, twg.hirzebruch_graph(*self.rng.choice(pool)))

    def _sum_graph(self, weight: int) -> twg.WeightGraph:
        """The next product Hir(0;a,b) glued to another Hir; largest weight exactly ``weight``."""
        g1 = twg.hirzebruch_graph(*next(self._products[weight]))
        while True:
            g2 = twg.hirzebruch_graph(*self.rng.choice(self.small))
            pairs = gluings(g1, g2)
            if pairs:
                v1, v2 = self.rng.choice(pairs)
                g = twg.connected_sum(g1, v1, g2, v2)
                if largest_weight(g) == weight:
                    return relabel(self.rng, g)

    def _case_op(self, case) -> Op:
        parts, kind, group, model, diffeotype = case
        golden = self.goldens[case]

        def run(span):
            with span("twg.analyze_action"):
                analysis = twg.analyze_action(Partition(parts), kind, twg.CircleGroup[group])
            with span("twg.classify_fiber"):
                record = twg.classify_fiber(analysis.fiber_graph)
            return analysis.fiber_graph.to_json(), record

        def check(answer):
            text, record = answer
            self._count(record)
            if text != golden:
                return "case graph differs from paper/"
            if (record.model, record.diffeotype) != (model, diffeotype):
                return "wrong case classification"
            return None

        return Op("case", run, check, ("case", parts, kind))

    def _sl2_op(self, parts) -> Op:
        weights = partition_weights(parts)

        def run(span):
            p = Partition(parts)
            with span("sl2reps.so2_weight_basis"):
                basis = so2_weight_basis(p)
            with span("sl2reps.invariant_symplectic_form"):
                form = invariant_symplectic_form(p)
            return basis, form

        def check(answer):
            basis, form = answer
            if sorted(basis.weights, reverse=True) != weights:
                return "wrong basis weights"
            gram = form.gram
            entries = [[gram.entry(i, j) for j in range(gram.cols)] for i in range(gram.rows)]
            # The form is invariant exactly when it pairs opposite weights only.
            for i, row in enumerate(entries):
                for j, value in enumerate(row):
                    if value and basis.weights[i] + basis.weights[j]:
                        return "form is not circle-invariant"
                    if value != -entries[j][i]:
                        return "form is not alternating"
            return None if invertible(entries) else "form is degenerate"

        return Op("sl2", run, check, ("sl2", parts))

    def _cartan_op(self, n: int) -> Op:
        logs = sorted((self.rng.uniform(-3, 3) for _ in range(n)), reverse=True)
        diagonal = [[math.exp(logs[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]
        matrix = _matmul(_matmul(_rotation(self.rng, n), diagonal), _rotation(self.rng, n))

        def run(span):
            with span("sl2reps.cartan_projection"):
                return cartan_projection(matrix)

        def check(values):
            close = all(abs(a - b) < 1e-9 for a, b in zip(values, logs))
            return None if close and len(values) == n else "wrong log singular values"

        return Op("cartan", run, check, ("cartan", tuple(logs)))

    def _dims_op(self) -> Op:
        def run(span):
            with span("dims.enumerate_3dim_flag_varieties"):
                census = dims.enumerate_3dim_flag_varieties(6)
            with span("dims.fullcases_table"):
                rows = dims.fullcases_table()
            return census, rows

        def check(answer):
            census, rows = answer
            groups = list(dict.fromkeys(d.group_label for d in census))
            table = [
                (row.groups, row.variety, tuple(str(p) for p in row.partitions)) for row in rows
            ]
            if len(census) != 9 or groups != CENSUS_GROUPS or table != CASE_ROWS:
                return "wrong census"
            return None

        return Op("dims", run, check, "dims")

    def _classify_op(self, kind: str, graph: twg.WeightGraph) -> Op:
        def run(span):
            with span("twg.classify_fiber"):
                return twg.classify_fiber(graph)

        def check(record):
            self._count(record)
            if kind == "unmatched":
                return None if not record.matched else "matched an unbalanced graph"
            if not record.matched or not rebuilds(record.model, graph):
                return "catalogue graph not recognised"
            return None

        return Op(kind, run, check, (kind, graph))

    def _count(self, record) -> None:
        self.classified += 1
        self.matched += record.matched

    def layer_metrics(self, records) -> dict:
        ratio = self.matched / self.classified if self.classified else 0.0
        return {"twg.classify_fiber.matched_ratio": ratio}
