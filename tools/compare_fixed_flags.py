"""Compare ``twg.fixed_flags`` between two source trees, call by call.

    python tools/compare_fixed_flags.py OLD_SRC NEW_SRC

Each tree is imported in its own child process and answers every partition
of n = 2..7, every signature of C^n and both circle groups, without and
(for partitions that carry an invariant symplectic form) with the form's
partner map.  An answer is the locus's repr or the exception's type and
text.  The script prints the number of calls and of differences and exits
1 on any difference.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys


def answers() -> None:
    from flagfibers.flags import Signature
    from flagfibers.sl2reps import (
        admits_symplectic_form,
        invariant_symplectic_form,
        partitions_of,
        so2_weight_basis,
    )
    from flagfibers.twg import CircleGroup, fixed_flags, form_partners

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
                            try:
                                answer = repr(fixed_flags(basis, Signature(dims, n), group, partner))
                            except Exception as exc:
                                answer = f"{type(exc).__name__}: {exc}"
                            print(p.parts, dims, group.name, partner is not None, answer)


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
    print(f"{len(new)} calls, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
