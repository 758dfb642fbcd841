"""Command-line front end.

Subcommands cover the whole pipeline: Bruhat posets as DOT (``hasse``),
balanced ideals (``ideals``), relative positions of stored flags
(``position``), weighted-line decompositions (``reps``), circle-action
weight graphs (``twg``), matching a graph against the ruled-surface
catalogue (``classify``), the dimension census (``census``), and
regeneration of every checked-in artifact (``reproduce``).

Exit codes: 0 on success, 1 for usage errors, 2 when a computation rejects
its input, 3 when ``reproduce`` finds an artifact that no longer matches.

All JSON output is deterministic: keys are sorted and rationals are written
as exact strings.  Relative output paths are resolved against the directory
named by the ``FLAGFIBERS_OUT`` environment variable when it is set.

Each handler imports the library modules it uses, after its arguments are
parsed, so a cold start loads no layer its subcommand does not run and a
usage error loads none.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import json_fields, json_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_MISMATCH = 3

CASES = [
    ((3,), "full", "PSO2"),
    ((2, 1), "full", "SO2"),
    ((4,), "proj", "PSO2"),
    ((2, 2), "proj", "PSO2"),
    ((4,), "lag", "PSO2"),
    ((2, 1, 1), "lag", "SO2"),
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# small shared helpers


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get("FLAGFIBERS_OUT")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty string is the empty tuple."""
    try:
        return tuple(int(chunk) for chunk in text.split(",")) if text else ()
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers: {text!r}")


def _load_json(path: str):
    return json.loads(Path(path).read_text(), parse_int=json_int)


def _first_divergence(got: str, want: str) -> str:
    """Locate the first line where two texts part ways.

    >>> _first_divergence("a\\nb\\n", "a\\nc\\n")
    "line 2: expected 'c', got 'b'"
    """
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    for k, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines), 1):
        if g != w:
            return f"line {k}: expected {w!r}, got {g!r}"
    return "texts are identical"


# ---------------------------------------------------------------------------
# poset plumbing shared by hasse and ideals


def _sign_label(signs: tuple[int, ...]) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def _eta(args) -> tuple[int, ...] | None:
    return None if args.eta is None else _parse_ints(args.eta, "--eta")


def _poset_and_labels(family: str, rank: int, eta: tuple[int, ...] | None, signs: bool):
    from .weyl import Family, RootSystem, check_group_order, double_cosets, sign_vector

    system = RootSystem(Family[family], rank)
    check_group_order(system)  # before any work that grows with the rank
    full = frozenset(system.simple_indices)
    eta_set = full if eta is None else frozenset(eta)
    if not eta_set <= full:
        raise UsageError(f"eta {sorted(eta_set)} outside 1..{rank}")
    poset = double_cosets(system, full, eta_set)
    if signs:
        if family != "C":
            raise UsageError("--signs makes sense for family C only")
        labels = [_sign_label(sign_vector(dc.min_rep)) for dc in poset.cosets]
        if len(set(labels)) != len(labels):
            raise ValueError("sign vectors do not separate these positions")
    else:
        labels = [dc.label() for dc in poset.cosets]
    return poset, labels


def _hasse_text(family: str, rank: int, eta: tuple[int, ...] | None, signs: bool) -> str:
    poset, labels = _poset_and_labels(family, rank, eta, signs)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines.extend(f'  "{label}";' for label in labels)
    lines.extend(
        f'  "{labels[i]}" -> "{labels[j]}" [arrowhead=none];' for i, j in poset.covers()
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hasse(args) -> int:
    _emit(_hasse_text(args.family, args.rank, _eta(args), args.signs), args.out)
    return EXIT_OK


def _cmd_ideals(args) -> int:
    eta = _eta(args)
    from .ideals import enumerate_balanced_ideals, minimal_anosov_type

    poset, labels = _poset_and_labels(args.family, args.rank, eta, args.signs)
    payload = {
        "family": args.family,
        "rank": args.rank,
        "eta": sorted(poset.right_type),
        "positions": labels,
        "balanced_ideals": [
            {
                "members": sorted(labels[i] for i in ideal.members),
                "minimal_anosov_type": sorted(minimal_anosov_type(ideal)),
            }
            for ideal in enumerate_balanced_ideals(poset)
        ],
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _read_position_flag(path: str, symplectic: bool):
    """A flag of the signature the question takes.  Any other is refused
    before its basis is completed, which for leading columns in C^n costs
    time and memory of order n^2 whatever the columns are."""
    from .flags import check_position_signature, flag_from_json, signature_from_json

    data = _load_json(path)
    check_position_signature(signature_from_json(data), symplectic)
    return flag_from_json(data)


def _cmd_position(args) -> int:
    from .flags import (
        SymplecticForm,
        matrix_from_json,
        relative_position_full,
        relative_position_symplectic,
    )
    from .weyl import identity

    first = _read_position_flag(args.flag, bool(args.symplectic))
    second = _read_position_flag(args.other, bool(args.symplectic))
    if args.symplectic:
        (gram,) = json_fields(_load_json(args.symplectic), "form", ("gram",))
        omega = SymplecticForm(matrix_from_json(gram))
        w = relative_position_symplectic(first, second, omega)
    else:
        w = relative_position_full(first, second)
    print("identity" if w == identity(w.system) else w.window_str())
    return EXIT_OK


def _cmd_reps(args) -> int:
    parts = _parse_ints(args.partition, "--partition")
    from .sl2reps import (
        Partition,
        admits_symplectic_form,
        anosov_type,
        check_partition_total,
        invariant_symplectic_form,
        partition_weights,
        so2_weight_basis,
    )

    p = Partition(parts)
    check_partition_total(p)  # before any work that grows with the total
    basis = so2_weight_basis(p)
    symplectic = p.total % 2 == 0 and admits_symplectic_form(p)
    form = None
    if symplectic:
        from .flags import matrix_to_json

        form = matrix_to_json(invariant_symplectic_form(p).gram)
    payload = {
        "partition": str(p),
        "weights": list(partition_weights(p)),
        "anosov_type": sorted(anosov_type(p)),
        "admits_symplectic_form": symplectic,
        "basis": {"labels": list(basis.labels), "weights": list(basis.weights)},
        "invariant_form": form,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _cmd_twg(args) -> int:
    parts = _parse_ints(args.partition, "--partition")
    from .sl2reps import Partition
    from .twg import CircleGroup, analyze_action

    analysis = analyze_action(Partition(parts), args.flag, CircleGroup[args.group.upper()])
    graph = analysis.ambient_graph if args.ambient else analysis.fiber_graph
    _emit(graph.to_dot() if args.dot else graph.to_json(), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .twg import WeightGraph, classify_fiber

    graph = WeightGraph.from_json(Path(args.graph).read_text())
    record = classify_fiber(graph)
    payload = {
        "matched": record.matched,
        "model": record.model,
        "diffeotype": record.diffeotype,
    }
    if not record.matched:
        payload["reason"] = record.reason
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _census_text(max_rank: int, as_json: bool) -> str:
    from .dims import enumerate_3dim_flag_varieties

    found = enumerate_3dim_flag_varieties(max_rank)
    rows = [
        {"group": group, "varieties": [d.to_json_dict() for d in members]}
        for group, members in itertools.groupby(found, key=lambda d: d.group_label)
    ]
    if as_json:
        return _json_text({"rows": rows})
    lines = [
        row["group"] + ": " + ", ".join(v["symbol"] for v in row["varieties"])
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _cases_text(as_json: bool) -> str:
    from .dims import fullcases_table

    rows = fullcases_table()
    if as_json:
        return _json_text({"rows": [row.to_json_dict() for row in rows]})
    lines = [
        f"{' = '.join(row.groups)} | {row.variety} | "
        + ", ".join(str(p) for p in row.partitions)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_census(args) -> int:
    if args.cases:
        _emit(_cases_text(args.json), args.out)
    else:
        _emit(_census_text(args.max_rank, args.json), args.out)
    return EXIT_OK


def _artifacts() -> dict[str, str]:
    from .sl2reps import Partition
    from .twg import CircleGroup, analyze_action

    files = {
        "hasse_a2_full.dot": _hasse_text("A", 2, None, signs=False),
        "hasse_c2_eta2.dot": _hasse_text("C", 2, (2,), signs=True),
        "census.json": _census_text(6, as_json=True),
        "fullcases.json": _cases_text(as_json=True),
    }
    for parts, kind, group in CASES:
        name = f"twg_{kind}_{'-'.join(str(d) for d in parts)}.json"
        graph = analyze_action(Partition(parts), kind, CircleGroup[group]).fiber_graph
        files[name] = graph.to_json()
    return files


def _cmd_reproduce(args) -> int:
    golden_dir = Path(args.golden_dir)
    files = _artifacts()
    if args.write:
        golden_dir.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(files.items()):
            (golden_dir / name).write_text(text)
        print(f"wrote {len(files)} artifacts to {golden_dir}")
        return EXIT_OK
    mismatches = []
    for name, text in sorted(files.items()):
        path = golden_dir / name
        if not path.exists():
            mismatches.append(f"{name}: golden file missing from {golden_dir}")
        elif text != (want := path.read_text()):
            mismatches.append(f"{name}: {_first_divergence(text, want)}")
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    if mismatches:
        return EXIT_MISMATCH
    print(f"{len(files)} artifacts match {golden_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the parser


def _default_golden_dir() -> str:
    return str(Path(__file__).resolve().parents[2] / "paper")


def _add_output_option(sub) -> None:
    sub.add_argument(
        "-o",
        "--out",
        help="write to this file (relative paths land in $FLAGFIBERS_OUT) "
        "instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flagfibers", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler, summary in (
        ("hasse", _cmd_hasse, "Bruhat poset of positions as DOT"),
        ("ideals", _cmd_ideals, "balanced ideals of a position poset"),
    ):
        poset = subs.add_parser(name, help=summary)
        poset.add_argument("--family", choices=["A", "C"], required=True)
        poset.add_argument("--rank", type=int, required=True)
        poset.add_argument("--eta", help="comma-separated type, default: all")
        poset.add_argument(
            "--signs", action="store_true", help="label type C cosets by sign vectors"
        )
        _add_output_option(poset)
        poset.set_defaults(handler=handler)

    position = subs.add_parser("position", help="relative position of two flags")
    position.add_argument("flag", help="JSON file with the reference flag")
    position.add_argument("other", help="JSON file with the second flag")
    position.add_argument(
        "--symplectic", help="JSON file with a Gram matrix; use signed positions"
    )
    position.set_defaults(handler=_cmd_position)

    reps = subs.add_parser("reps", help="weighted-line decomposition data")
    reps.add_argument("--partition", required=True, help="e.g. 2,1,1")
    _add_output_option(reps)
    reps.set_defaults(handler=_cmd_reps)

    twg = subs.add_parser("twg", help="circle-action weight graph of a case")
    twg.add_argument("--partition", required=True, help="e.g. 2,1,1")
    twg.add_argument("--flag", choices=["full", "proj", "lag"], required=True)
    twg.add_argument("--group", choices=["so2", "pso2"], required=True)
    twg.add_argument(
        "--ambient", action="store_true", help="emit the ambient graph instead"
    )
    twg.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    _add_output_option(twg)
    twg.set_defaults(handler=_cmd_twg)

    classify = subs.add_parser("classify", help="match a graph to the catalogue")
    classify.add_argument("graph", help="JSON file with a weight graph")
    _add_output_option(classify)
    classify.set_defaults(handler=_cmd_classify)

    census = subs.add_parser("census", help="three-dimensional flag varieties")
    census.add_argument("--max-rank", type=int, default=6)
    census.add_argument("--json", action="store_true")
    census.add_argument(
        "--cases", action="store_true", help="print the case table instead"
    )
    _add_output_option(census)
    census.set_defaults(handler=_cmd_census)

    reproduce = subs.add_parser(
        "reproduce", help="regenerate all artifacts and compare to the golden files"
    )
    reproduce.add_argument("--golden-dir", default=_default_golden_dir())
    reproduce.add_argument(
        "--write", action="store_true", help="rewrite the golden files"
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ValueError,
        KeyError,
        ArithmeticError,
        NotImplementedError,
        OSError,
        RecursionError,  # JSON nested past the interpreter's recursion limit
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
