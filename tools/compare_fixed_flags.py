"""Compare fixed loci, case analyses, classifications and the dimension census
between two source trees.

    python tools/compare_fixed_flags.py OLD_SRC NEW_SRC

Each tree is imported in its own child process and answers these calls, one
line per answer:

- ``twg.fixed_flags`` on every partition of n = 2..7, every signature of C^n
  and both circle groups, without and (for partitions that carry an
  invariant symplectic form) with the form's partner map;
- ``twg.analyze_action`` on every partition of n = 2..5, every kind of flag
  variety and both circle groups, with the fiber graph's ``to_json`` and
  ``to_dot``;
- ``twg.classify_fiber`` on every Hir(q;a,b) with b > 0 and largest edge
  weight up to 8 and every Hir(q;1,0) with q <= 8, on every connected sum
  of two Hir(q;a,b) of largest weight up to 3 at every gluing the factors
  admit, and on each of these graphs with every sign negated and with its
  first sign negated;
- ``dims.enumerate_3dim_flag_varieties`` with ``max_rank`` 2..8 and 60, and
  ``dims.fullcases_table``.

An answer is the repr of the result (for ``analyze_action``, of each of its
fields; for the census and the case table, of each record with its JSON
fields) or the exception's type and text.  The script prints the number of
calls and of differences and exits 1 on any difference.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys


def answer(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def hirzebruch_params(largest: int) -> list[tuple[int, int, int]]:
    """Every (q, a, b) with b > 0 whose edge weights |a|, b, |a+qb| are at most ``largest``."""
    return [
        (q, a, b)
        for q in range(2 * largest + 1)
        for a in range(-largest, largest + 1)
        for b in range(1, largest + 1)
        if a and math.gcd(abs(a), b) == 1 and a + q * b
        and max(abs(a), b, abs(a + q * b)) <= largest
    ]


def answers() -> None:
    from flagfibers import dims
    from flagfibers.flags import Signature
    from flagfibers.sl2reps import (
        admits_symplectic_form,
        invariant_symplectic_form,
        partitions_of,
        so2_weight_basis,
    )
    from flagfibers.twg import (
        CircleGroup,
        WeightGraph,
        analyze_action,
        classify_fiber,
        connected_sum,
        fixed_flags,
        form_partners,
        hirzebruch_graph,
    )

    for n in range(2, 8):
        for p in partitions_of(n):
            basis = so2_weight_basis(p)
            partners = [None]
            if n % 2 == 0 and admits_symplectic_form(p):
                partners.append(form_partners(basis, invariant_symplectic_form(p)))
            for size in range(1, n):
                for dims in itertools.combinations(range(1, n), size):
                    for group in CircleGroup:
                        for partner in partners:
                            found = answer(fixed_flags, basis, Signature(dims, n), group, partner)
                            print("fixed_flags", p.parts, dims, group.name, partner is not None, found)

    for n in range(2, 6):
        for p, kind, group in itertools.product(partitions_of(n), ("full", "proj", "lag"), CircleGroup):
            try:
                analysis = analyze_action(p, kind, group)
            except Exception as exc:
                print("analyze_action", p.parts, kind, group.name, f"{type(exc).__name__}: {exc}")
                continue
            for field, value in vars(analysis).items():
                print("analyze_action", p.parts, kind, group.name, field, repr(value))
            print("to_json", p.parts, kind, group.name, repr(analysis.fiber_graph.to_json()))
            print("to_dot", p.parts, kind, group.name, repr(analysis.fiber_graph.to_dot()))

    graphs = [hirzebruch_graph(*params) for params in hirzebruch_params(8)]
    graphs += [hirzebruch_graph(q, 1, 0) for q in range(9)]
    small = [hirzebruch_graph(*params) for params in hirzebruch_params(3)]
    for k, g1 in enumerate(small):
        for g2 in small[k:]:
            for (v1, s1), (v2, s2) in itertools.product(g1.rounds, g2.rounds):
                if s1 == -s2 and g1.incident_weights(v1) == g2.incident_weights(v2):
                    graphs.append(connected_sum(g1, v1, g2, v2))
    for g in graphs:
        flipped = tuple((i, -s) for i, s in g.rounds)
        for rounds in g.rounds, flipped, flipped[:1] + g.rounds[1:]:
            variant = WeightGraph(rounds, g.squares, g.edges)
            print("classify_fiber", repr(variant), answer(classify_fiber, variant))

    def records(table):
        return [(record, record.to_json_dict()) for record in table]

    for max_rank in (*range(2, 9), 60):
        print("census", max_rank, answer(lambda: records(dims.enumerate_3dim_flag_varieties(max_rank))))
    print("fullcases_table", answer(lambda: records(dims.fullcases_table())))


def run(src: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--answers"], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def main(argv: list[str]) -> int:
    if argv == ["--answers"]:
        answers()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (run(src) for src in argv)
    differences = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    print(f"{len(new)} answers, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
