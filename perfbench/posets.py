"""The ``posets`` workload: one question per (family, rank, right type eta).

Each op builds the position poset with ``weyl.double_cosets``, lists its
covers, enumerates the balanced ideals and asks each for its minimal Anosov
type.  Types A2-A4 and C2-C3 run with every nonempty eta, C4 with |eta| = 1.
A4 with full eta and C4 with |eta| > 1 are left out: they do not finish in
the run time at the seed.

The library caches group elements per root system; those caches are
emptied, and garbage collected, before every op, so each question costs
what it costs a fresh process and no op's time or memory depends on the
order.  The question set is small: timed once per run, its latency order
statistics would be at the mercy of a slow second of a shared machine.  So
a run makes five passes, each in its own seeded order, and every timing
counts; answers repeat across passes only.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import warnings
from pathlib import Path

from core import Op, Workload
from flagfibers import weyl
from flagfibers.ideals import enumerate_balanced_ideals, minimal_anosov_type

EXPECTED = Path(__file__).resolve().parent / "posets_expected.json"


def questions() -> list[tuple[str, int, tuple[int, ...]]]:
    out = []
    for family, rank in (("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)):
        for size in range(1, rank + 1):
            if (family, rank) == ("A", 4) and size == 4:
                continue
            if (family, rank) == ("C", 4) and size > 1:
                continue
            out.extend((family, rank, eta) for eta in itertools.combinations(range(1, rank + 1), size))
    return out


def question_key(family: str, rank: int, eta) -> str:
    return f"{family}{rank}:{','.join(map(str, eta))}"


def canonical(answer) -> dict:
    """Counts plus a digest of every label, cover, ideal and minimal type."""
    labels, covers, ideals = answer
    body = {
        "labels": labels,
        "covers": sorted([labels[i], labels[j]] for i, j in covers),
        "ideals": sorted(
            [sorted(labels[i] for i in members), sorted(kind)] for members, kind in ideals
        ),
    }
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return {"cosets": len(labels), "covers": len(covers), "ideals": len(ideals), "digest": digest}


def ask(family: str, rank: int, eta, span):
    """One question, with a span around each public call."""
    system = weyl.RootSystem(weyl.Family[family], rank)
    with span("weyl.double_cosets"):
        poset = weyl.double_cosets(system, frozenset(system.simple_indices), frozenset(eta))
    with span("weyl.PositionPoset.covers"):
        covers = poset.covers()
    with span("ideals.enumerate_balanced_ideals"):
        balanced = enumerate_balanced_ideals(poset)
    ideals = []
    for ideal in balanced:
        with span("ideals.minimal_anosov_type"):
            kind = minimal_anosov_type(ideal)
        ideals.append((ideal.members, kind))
    return [dc.label() for dc in poset.cosets], covers, ideals


def clear_caches() -> None:
    """Start an op as a fresh process would: no cached groups, no garbage."""
    weyl.group_elements.cache_clear()
    weyl.parabolic_elements.cache_clear()
    gc.collect()


class Bench(Workload):
    name = "posets"
    max_batches = 5

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.expected = json.loads(EXPECTED.read_text())
        # Odd posets warn that they have no balanced ideal; that is an answer here.
        warnings.simplefilter("ignore")
        self.reset()

    def reset(self) -> None:
        self.found = 0
        self.rng = random.Random(f"posets:{self.seed}")

    def batches(self):
        while True:
            order = questions()
            self.rng.shuffle(order)
            yield [self._op(*question) for question in order]

    def _op(self, family, rank, eta) -> Op:
        key = question_key(family, rank, eta)
        want = self.expected[key]

        def check(answer):
            self.found += len(answer[2])
            return None if canonical(answer) == want else "wrong poset answer"

        return Op(
            f"{family}{rank}",
            lambda span: ask(family, rank, eta, span),
            check,
            key,
            before=clear_caches,
        )

    def layer_metrics(self, records) -> dict:
        return {"ideals.enumerate_balanced_ideals.found": self.found}
