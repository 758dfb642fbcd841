"""Benchmark for flagfibers: one workload per run, one JSON object on the last line.

    python3 perfbench/run.py --workload positions --seed 1 --seconds 15 --trace 0

Workloads: ``positions``, ``posets`` and ``fibers`` call the library
in-process on one thread; ``cli`` runs one ``flagfibers`` child process at a
time.  All four are closed loops with a single client.  Inputs come from
``--seed``.  Every answer is checked after its op's clock stops; a wrong
answer, an exception, an unexpected exit code or a timeout counts as a
failed op and the run goes on.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run repeats the same ops twice, untraced and then with a
span around every public call, and reports per-layer metrics plus the
tracing overhead.  Only the standard library is used; the program under
test is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

# The parent writes no bytecode, so a run leaves nothing under src/ or here.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from core import CLI_SUBCOMMANDS, OUT, SRC, child_seconds  # noqa: E402
from spans import NO_TRACE, Tracer  # noqa: E402

WORKLOADS = {"positions": "positions", "posets": "posets", "fibers": "fibers", "cli": "cliops"}
SETUP_REPEATS = 9
# Time of the calibration kernel on the reference machine (a shared 2-core
# x86-64 VM, CPython 3.11), how often a run re-times it, and how far around
# an op its timings count.
REFERENCE_S = 0.00125
CALIBRATE_EVERY_S = 0.1
WINDOW_S = 1.0
MODULES = ("weyl", "ideals", "flags", "sl2reps", "twg", "dims", "cli")
LIBRARY_SPANS = (
    "flags.flag_from_json",
    "flags.relative_position_full",
    "flags.relative_position_symplectic",
    "flags.relative_position_partial",
    "weyl.double_cosets",
    "weyl.PositionPoset.covers",
    "ideals.enumerate_balanced_ideals",
    "ideals.minimal_anosov_type",
    "twg.analyze_action",
    "twg.classify_fiber",
    "sl2reps.so2_weight_basis",
    "sl2reps.invariant_symplectic_form",
    "sl2reps.cartan_projection",
    "dims.enumerate_3dim_flag_varieties",
    "dims.fullcases_table",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in LIBRARY_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "ratio"
    units["ideals.enumerate_balanced_ideals.found"] = "count"
    units["twg.classify_fiber.matched_ratio"] = "ratio"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.wall_ms"] = "ms"
    units["cli.rejected"] = "count"
    units["cli.tracebacks"] = "count"
    for module in MODULES:
        units[f"{module}.src_lines"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


# Times are in reference seconds (see Clock); set-up time too, under the unit s.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/ref_s",
    "latency_p50_ms": "ref_ms",
    "latency_tail_ms": "ref_ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def set_up(module, seed: int, seconds: float):
    """Median over SETUP_REPEATS of: a fresh interpreter importing the whole
    package, then building the workload's inputs and its first batch.

    Returns the set-up time in reference seconds (each repetition scaled by
    the calibration kernel timed just before and after it, see ``Clock``)
    and in wall seconds, then the workload and its batches.
    """
    times, walls = [], []
    workload = batches = first = None
    for _ in range(SETUP_REPEATS):
        kernel = [_kernel_seconds() for _ in range(3)]
        start = time.perf_counter()
        child_seconds("import flagfibers.cli")
        if workload is not None:
            workload.close()
        workload = module.Bench(seed, seconds)
        batches = workload.batches()
        first = next(batches)
        took = time.perf_counter() - start
        kernel += [_kernel_seconds() for _ in range(3)]
        walls.append(took)
        times.append(took * REFERENCE_S / statistics.median(kernel))
    return statistics.median(times), statistics.median(walls), workload, batches, first


class Record(NamedTuple):
    """What a run keeps of an op: not the op or its answer, so the heap, and
    with it the cost of garbage collection, does not grow as the run goes on.

    ``seconds`` is the op's wall time and ``reference`` the same time in
    reference seconds (see ``Clock``).
    """

    batch: int
    kind: str
    key: int
    known_defect: str | None
    failure: str | None
    began: float
    seconds: float
    reference: float = 0.0


# A fixed exact elimination over Q, the kind of work the library does, but
# with the standard library only, so no change to the program moves it.
_KERNEL_MATRIX = [
    [Fraction((i * 7 + j * 13) ** 3 % 1000003 - 500000, (i + j) % 5 + 1) for j in range(6)]
    for i in range(6)
]


def _kernel_seconds() -> float:
    rows = [list(row) for row in _KERNEL_MATRIX]
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


class Clock:
    """Converts op times to reference seconds.

    The machines this runs on are shared, and their speed drifts by a third
    over spells of tens of seconds, about the length of a run.  A fixed
    kernel takes REFERENCE_S on the reference machine.  The run times it
    between ops, at most every CALIBRATE_EVERY_S, and scales each op by
    REFERENCE_S over the kernel's median time within WINDOW_S of the op.
    That takes out much of the drift.  A timeout keeps its wall time: the
    limit does not depend on the machine's speed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def tick(self) -> None:
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.samples.append((now, _kernel_seconds()))

    def convert(self, record: Record) -> Record:
        if record.failure == "timeout":
            return record._replace(reference=record.seconds)
        low, high = record.began - WINDOW_S, record.began + record.seconds + WINDOW_S
        near = [took for at, took in self.samples if low <= at <= high]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - record.began))[1]]
        return record._replace(reference=record.seconds * REFERENCE_S / statistics.median(near))


def run_phase(batches, first, tracer, seconds: float, max_batches: int | None):
    """Run whole batches until ``seconds`` have passed (or ``max_batches`` ran)."""
    records: list[Record] = []
    clock = Clock()
    count = 0
    gc.collect()
    start = time.perf_counter()
    batch = first
    while batch is not None:
        for op in batch:
            tracer.op_id = len(records)
            answer = failure = None
            clock.tick()
            if op.before is not None:
                op.before()
            began = time.perf_counter()
            try:
                with tracer.span("op"):
                    answer = op.run(tracer.span)
            except Exception as error:  # the run records the failure and goes on
                failure = f"exception {type(error).__name__}"
                detail = traceback.format_exception_only(error)[-1].strip()
                print(f"  op {len(records)} ({op.kind}) raised: {detail}", file=sys.stderr)
            took = time.perf_counter() - began
            clock.tick()
            if failure is None:
                try:
                    failure = op.check(answer)
                except Exception as error:
                    failure = f"check raised {type(error).__name__}"
            records.append(
                Record(count, op.kind, hash(op.key), op.known_defect, failure, began, took)
            )
        count += 1
        if max_batches is not None and count >= max_batches:
            break
        if max_batches is None and time.perf_counter() - start >= seconds:
            break
        batch = next(batches, None)
    return [clock.convert(record) for record in records], count


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def throughput(records: list[Record], field="reference") -> float:
    """Ops per second: the median over batches, robust to a slow spell of the machine."""
    per_batch: dict[int, list[float]] = {}
    for record in records:
        per_batch.setdefault(record.batch, []).append(getattr(record, field))
    return statistics.median(len(times) / sum(times) for times in per_batch.values())


def end_to_end(records: list[Record], workload, setup_s: float, children: bool) -> dict[str, float]:
    latencies = [record.reference for record in records]
    failed = sum(1 for record in records if record.failure is not None)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": throughput(records),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail(latencies)[0],
        "success_rate": (len(records) - failed) / len(records),
        "peak_rss_mb": peak_rss_mb(children),
    }


def src_lines() -> dict[str, int]:
    return {
        module: sum(
            1 for line in (SRC / "flagfibers" / f"{module}.py").read_text().splitlines() if line.strip()
        )
        for module in MODULES
    }


def per_layer(workload, tracer: Tracer, records, untraced, traced_total) -> dict[str, float]:
    values = {name: 0.0 for name in per_layer_units()}
    op_total = sum(record.seconds for record in records)
    for name, (calls, seconds) in tracer.self_times().items():
        if name == "op" or f"{name}.calls" not in values:
            continue
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = seconds
        values[f"{name}.share"] = seconds / op_total
    values.update(workload.layer_metrics(records))
    for module, count in src_lines().items():
        values[f"{module}.src_lines"] = count
    values["trace.overhead_pct"] = 100.0 * (traced_total / untraced - 1.0)
    return values


def summarize(workload, records, metrics, units, setup_wall_s: float) -> None:
    """Human-readable lines; the JSON result follows on the last line."""
    _, pct, n = tail([record.reference for record in records])
    failures: dict[str, int] = {}
    for record in records:
        if record.failure is not None:
            known = " (known defect)" if record.failure == record.known_defect else ""
            label = f"{record.kind}: {record.failure}{known}"
            failures[label] = failures.get(label, 0) + 1
    repeated = len(records) - len({record.key for record in records})
    print(f"workload {workload.name}, seed {workload.seed}: {len(records)} ops")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if "latency_tail_ms" in metrics:
        print(f"  latency_tail_ms is p{pct:.1f} of {n} op latencies")
        wall = [record.seconds for record in records]
        print(
            f"  in wall time: throughput "
            f"{throughput(records, 'seconds'):.6g} 1/s, "
            f"p50 {1000 * statistics.median(wall):.6g} ms, tail {1000 * tail(wall)[0]:.6g} ms, "
            f"set-up {setup_wall_s:.6g} s"
        )
        failed = sum(failures.values())
        print(f"  error_rate = {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    print(f"  repeated inputs = {repeated / len(records):.4g} of ops")
    for label, count in sorted(failures.items()):
        print(f"  failed: {label} x{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagfibers" / "__init__.py").is_file():
        print(f"error: no flagfibers sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    # One CPU for the run and its children, so the calibration kernel times
    # the CPU the ops run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    module = importlib.import_module(WORKLOADS[args.workload])
    setup_s, setup_wall_s, workload, batches, first = set_up(module, args.seed, args.seconds)
    children = args.workload == "cli"
    try:
        records, count = run_phase(batches, first, NO_TRACE, args.seconds, workload.max_batches)
        if args.trace:
            untraced = sum(record.reference for record in records)
            workload.reset()
            tracer = Tracer()
            batches = workload.batches()
            records, _ = run_phase(batches, next(batches), tracer, args.seconds, count)
            traced = sum(record.reference for record in records)
            units = per_layer_units()
            metrics = per_layer(workload, tracer, records, untraced, traced)
            tracer.write(OUT / f"spans_{args.workload}_{args.seed}.jsonl")
        else:
            units = END_TO_END_UNITS
            metrics = end_to_end(records, workload, setup_s, children)
    finally:
        workload.close()

    summarize(workload, records, metrics, units, setup_wall_s)
    failed = [record for record in records if record.failure is not None]
    result = {
        "correct": all(record.failure == record.known_defect for record in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
