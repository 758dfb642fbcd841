"""Shared pieces of the benchmark: paths, the op record, child-process set-up."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAPER = ROOT / "paper"
# Everything a run leaves behind (bytecode, cli outputs, span files) lands
# here, never under src/ or paper/.
OUT = ROOT / ".bench_out"
CLI_SUBCOMMANDS = ("hasse", "ideals", "position", "reps", "twg", "classify", "census", "reproduce")


@dataclass
class Op:
    """One user question: ``run`` is timed, ``check`` runs after the clock stops.

    ``check`` returns None when the answer is right, else a short failure
    label.  ``known_defect`` names the failure label a seed defect produces;
    such a failure still counts as failed, but not as an unexpected one.
    ``before``, if given, runs just before the clock starts.
    """

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    key: Any
    known_defect: str | None = None
    before: Callable[[], None] | None = None


def child_env(**extra: str) -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources, bytecode in OUT.

    Children keep a bytecode cache, as an installed package has one; it sits
    in OUT so that nothing is written under src/.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONUNBUFFERED="1",
    )
    env.update(extra)
    return env


def partition_weights(parts) -> list[int]:
    """The SL(2) weights of a partition, largest first."""
    return sorted((d - 1 - 2 * k for d in parts for k in range(d)), reverse=True)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "flagfibers.cli", *args]


def child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, start to exit.

    A blocking wait returns as soon as the child exits; ``wait(timeout=...)``
    would poll, rounding the time up to its 50 ms sleeps.  A timer kills a
    child that hangs.
    """
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        status = child.wait()
    finally:
        watchdog.cancel()
    took = time.perf_counter() - start
    if status:
        raise subprocess.CalledProcessError(status, child.args)
    return took


class Workload:
    """A seeded source of op batches; the four workloads subclass it.

    ``reset`` restarts the inputs from the seed, so the traced phase asks
    the same questions as the untraced one.
    """

    name = ""
    # None: run whole batches until the time is up; else this many batches.
    max_batches: int | None = None

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def reset(self) -> None:
        raise NotImplementedError

    def batches(self):
        raise NotImplementedError

    def layer_metrics(self, records) -> dict[str, float]:
        """Per-layer counts that spans cannot give, from the traced phase."""
        return {}

    def close(self) -> None:
        pass
