"""Compare ``flagfibers hasse`` and ``flagfibers ideals`` between two source trees.

    python tools/compare_posets.py OLD_SRC NEW_SRC

Each tree is imported in its own child process and answers both commands
on every (family, rank, eta, --signs) case of A2-A6 and C2-C5: every subset
eta of the simple indices, ``--eta ""`` included, with and without
``--signs``, 368 cases in all.  A command's answer is its exit code, the
SHA-256 of its standard output and its standard error, so refusals count
too.  The script prints the number of cases, commands and differences, and
the wall time of each tree's child, and exits 1 on any difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import time


def cases():
    for family, ranks in (("A", range(2, 7)), ("C", range(2, 6))):
        for rank in ranks:
            for size in range(rank + 1):
                for eta in itertools.combinations(range(1, rank + 1), size):
                    for signs in (False, True):
                        yield family, rank, ",".join(map(str, eta)), signs


def answers() -> None:
    from flagfibers.cli import main

    for family, rank, eta, signs in cases():
        for command in ("hasse", "ideals"):
            argv = [command, "--family", family, "--rank", str(rank), "--eta", eta]
            argv += ["--signs"] if signs else []
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(" ".join(argv), code, digest, repr(err.getvalue()), flush=True)


def run(src: str) -> tuple[list[str], float]:
    """The tree's answers, one line per command, and its child's wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, __file__, "--answers"], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines(), time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--answers"]:
        answers()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (old, old_s), (new, new_s) = (run(src) for src in argv)
    differences = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    print(
        f"{len(list(cases()))} cases, {len(new)} commands, {differences} differences; "
        f"child wall time {old_s:.2f} s (old), {new_s:.2f} s (new)"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
