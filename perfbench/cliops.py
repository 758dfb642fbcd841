"""The ``cli`` workload: ``flagfibers`` subcommands run as child processes.

A pass runs every subcommand on fixed or seeded inputs, ``reproduce``
against ``paper/`` without ``--write``, one ``-o`` write into a temporary
directory named by ``FLAGFIBERS_OUT``, and a small fixed share of malformed
or oversized requests.  One child runs at a time and every child has the
same time limit.  Two requests hit defects of the seed and stay in the mix:
a flag file with bare-integer entries ends in a traceback instead of exit 2,
and ``hasse --rank 7`` gives no answer within the limit.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import tempfile

import gen
from core import (
    CLI_SUBCOMMANDS,
    OUT,
    PAPER,
    ROOT,
    Op,
    Workload,
    child_env,
    child_seconds,
    cli_argv,
    partition_weights,
)

LIMIT_S = 3.0
# Passes per run: whole passes keep the mix, and so the metrics, the same
# from run to run; one pass takes about 7 s on a 2-core machine.
PASS_SECONDS = 8.0
TWG_CASES = (
    ("3", "full", "pso2"),
    ("2,1", "full", "so2"),
    ("4", "proj", "pso2"),
    ("2,2", "proj", "pso2"),
    ("4", "lag", "pso2"),
    ("2,1,1", "lag", "so2"),
)
CLASSIFIED = {
    "twg_full_3.json": "Hir(0;1,2) # Hir(0;1,2)",
    "twg_full_2-1.json": "Hir(0;1,1) # Hir(0;1,1)",
    "twg_proj_4.json": "Hir(2;-1,2)",
    "twg_proj_2-2.json": "Hir(2;1,0)",
    "twg_lag_4.json": "Hir(1;-1,3)",
    "twg_lag_2-1-1.json": "Hir(1;1,0)",
}
REPS = ("2,1,1", "4", "3,3", "4,2", "3,2,1", "2,2,2", "5,1", "6")


class Run:
    """What a child left behind: exit code (None on timeout) and output."""

    def __init__(self, code, stdout, stderr):
        self.code, self.stdout, self.stderr = code, stdout, stderr

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def spawn(args, span, env) -> Run:
    with span(f"cli.{args[0]}"):
        try:
            done = subprocess.run(
                cli_argv(*args),
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=LIMIT_S,
            )
        except subprocess.TimeoutExpired as expired:
            # The output of a killed child comes back as bytes, if at all.
            return Run(None, _text(expired.stdout), _text(expired.stderr))
    return Run(done.returncode, done.stdout, done.stderr)


def _text(output: bytes | str | None) -> str:
    if isinstance(output, bytes):
        return output.decode(errors="replace")
    return output or ""


def failure_of(run: Run, code: int, stdout_ok) -> str | None:
    if run.code is None:
        return "timeout"
    if run.traceback:
        return "traceback"
    if run.code != code:
        return f"exit {run.code}"
    if not stdout_ok(run.stdout):
        return "wrong output"
    return None


def symplectic_ok(parts: list[int]) -> bool:
    """Even total, and every odd part appears an even number of times."""
    return sum(parts) % 2 == 0 and all(parts.count(d) % 2 == 0 for d in set(parts) if d % 2)


class Bench(Workload):
    name = "cli"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.max_batches = max(1, round(seconds / PASS_SECONDS))
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        self.env = child_env(FLAGFIBERS_OUT=self.tmp)
        self.golden = {path.name: path.read_text() for path in PAPER.iterdir()}
        self._files = 0
        self.reset()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def reset(self) -> None:
        self.rejected = self.tracebacks = 0
        self.rng = random.Random(f"cli:{self.seed}")

    def _write(self, payload) -> str:
        self._files += 1
        path = f"{self.tmp}/in{self._files}.json"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def _op(self, kind, args, code, stdout_ok, known_defect=None, after=None) -> Op:
        """An op; well-formed ones are named after their subcommand."""

        def run(span):
            return spawn(args, span, self.env)

        def check(result: Run):
            self.rejected += result.code in (1, 2) and not result.traceback
            self.tracebacks += result.traceback
            failure = failure_of(result, code, stdout_ok)
            if failure is None and after is not None:
                failure = after()
            return failure

        return Op(kind, run, check, tuple(args), known_defect)

    def _golden(self, name):
        want = self.golden[name]
        return lambda out: out == want

    def batches(self):
        while True:
            batch = self._pass()
            self.rng.shuffle(batch)
            yield batch

    def _pass(self) -> list[Op]:
        rng = self.rng
        ops = [
            self._op("hasse", ["hasse", "--family", "A", "--rank", "2"], 0, self._golden("hasse_a2_full.dot")),
            self._op(
                "hasse",
                ["hasse", "--family", "C", "--rank", "2", "--eta", "2", "--signs"],
                0,
                self._golden("hasse_c2_eta2.dot"),
            ),
            self._op(
                "hasse",
                ["hasse", "--family", "A", "--rank", "3", "--eta", "1,3"],
                0,
                # 12 positions and 19 covers, as recorded for the posets workload.
                lambda out: out.count(" -> ") == 19 and out.count('";\n') == 12,
            ),
            self._op("ideals", ["ideals", "--family", "A", "--rank", "3"], 0, lambda out: self._ideals(out, 24, 10)),
            self._op(
                "ideals",
                ["ideals", "--family", "C", "--rank", "2", "--eta", "2", "--signs"],
                0,
                lambda out: self._ideals(out, 4, 1),
            ),
        ]
        ops += self._position_ops()
        partition = rng.choice(REPS)
        ops.append(
            self._op(
                "reps", ["reps", "--partition", partition], 0, lambda out: self._reps(out, partition)
            )
        )
        parts, flag, group = rng.choice(TWG_CASES)
        name = f"twg_{flag}_{parts.replace(',', '-')}.json"
        ops.append(
            self._op("twg", ["twg", "--partition", parts, "--flag", flag, "--group", group], 0, self._golden(name))
        )
        parts, flag, group = rng.choice(TWG_CASES)
        golden = f"twg_{flag}_{parts.replace(',', '-')}.json"
        written = f"twg-{rng.randrange(10**6)}.json"
        ops.append(
            self._op(
                "twg -o",
                ["twg", "--partition", parts, "--flag", flag, "--group", group, "-o", written],
                0,
                lambda out: out == "",
                after=lambda: self._written(written, golden),
            )
        )
        graph = rng.choice(sorted(CLASSIFIED))
        ops.append(
            self._op(
                "classify",
                ["classify", str(PAPER / graph)],
                0,
                lambda out: json.loads(out)["model"] == CLASSIFIED[graph],
            )
        )
        ops.append(self._op("census", ["census", "--json"], 0, self._golden("census.json")))
        ops.append(self._op("census", ["census", "--cases", "--json"], 0, self._golden("fullcases.json")))
        ops.append(
            self._op("reproduce", ["reproduce"], 0, lambda out: out.startswith("10 artifacts match"))
        )
        ops += self._malformed_ops()
        return ops

    def _position_ops(self) -> list[Op]:
        rng = self.rng
        window = tuple(rng.sample(range(1, 5), 4))
        f_basis, h_basis = gen.a_pair(rng, window, rng.choice(("low", "high")))
        first = self._write(gen.flag_json(f_basis, range(1, 4), 4))
        second = self._write(gen.flag_json(h_basis, range(1, 4), 4))
        expected = "identity" if window == (1, 2, 3, 4) else "".join(map(str, window))
        signed = tuple(p * rng.choice((1, -1)) for p in rng.sample(range(1, 3), 2))
        f_basis, h_basis = gen.c_pair(rng, signed, rng.choice(("low", "high")))
        f_sym = self._write(gen.flag_json(f_basis, range(1, 3), 4))
        h_sym = self._write(gen.flag_json(h_basis, range(1, 3), 4))
        omega = self._write({"gram": [[[str(x), "0"] for x in row] for row in gen.standard_form(2)]})
        expected_sym = "identity" if signed == (1, 2) else " ".join(map(str, signed))
        return [
            self._op("position", ["position", first, second], 0, lambda out: out == expected + "\n"),
            self._op(
                "position",
                ["position", f_sym, h_sym, "--symplectic", omega],
                0,
                lambda out: out == expected_sym + "\n",
            ),
        ]

    def _malformed_ops(self) -> list[Op]:
        bare = self._write({"ambient": 3, "signature": [1, 2], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        standard = self._write(gen.flag_json(gen.identity(3), range(1, 3), 3))
        no_squares = self._write({"round": [], "edges": []})
        return [
            # Seed defect: a TypeError traceback with exit 1.
            self._op("bad flag", ["position", bare, standard], 2, lambda out: True, known_defect="traceback"),
            # Seed defect: the group-order search runs far past the limit.
            self._op("oversized", ["hasse", "--family", "A", "--rank", "7"], 2, lambda out: True, known_defect="timeout"),
            self._op("bad number", ["reps", "--partition", "2,x"], 1, lambda out: out == ""),
            self._op("bad graph", ["classify", no_squares], 2, lambda out: out == ""),
        ]

    @staticmethod
    def _ideals(out: str, positions: int, balanced: int) -> bool:
        data = json.loads(out)
        return len(data["positions"]) == positions and len(data["balanced_ideals"]) == balanced

    @staticmethod
    def _reps(out: str, partition: str) -> bool:
        data = json.loads(out)
        parts = [int(x) for x in partition.split(",")]
        return data["weights"] == partition_weights(parts) and data[
            "admits_symplectic_form"
        ] == symplectic_ok(parts)

    def _written(self, written: str, name: str) -> str | None:
        path = f"{self.tmp}/{written}"
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            return "no -o file"
        return None if text == self.golden[name] else "wrong -o file"

    def layer_metrics(self, records) -> dict:
        walls: dict[str, list[float]] = {}
        for record in records:
            subcommand = record.kind.split()[0]
            if subcommand in CLI_SUBCOMMANDS:
                walls.setdefault(subcommand, []).append(record.seconds)
        out = {f"cli.{sub}.wall_ms": 1000.0 * statistics.median(times) for sub, times in walls.items()}
        interpreter = statistics.median(child_seconds("pass") for _ in range(5))
        imported = statistics.median(child_seconds("import flagfibers.cli") for _ in range(5))
        out["cli.interpreter_ms"] = 1000.0 * interpreter
        out["cli.import_ms"] = 1000.0 * (imported - interpreter)
        out["cli.rejected"] = self.rejected
        out["cli.tracebacks"] = self.tracebacks
        return out

