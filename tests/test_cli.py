"""End-to-end tests of the command-line interface and the golden artifacts."""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagfibers import weyl
from flagfibers.cli import main
from flagfibers.flags import (
    ExactFlag,
    ExactMatrix,
    Signature,
    SymplecticForm,
    flag_from_json,
    flag_to_json,
    full_signature,
    isotropic_signature,
    matrix_to_json,
)
from flagfibers.sl2reps import PARTITION_TOTAL_LIMIT

import oracles
from test_flags import a_pair, c_pair, weyl_windows

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "paper"

GOLDEN_NAMES = [
    "hasse_a2_full.dot",
    "hasse_c2_eta2.dot",
    "twg_full_3.json",
    "twg_full_2-1.json",
    "twg_proj_4.json",
    "twg_proj_2-2.json",
    "twg_lag_4.json",
    "twg_lag_2-1-1.json",
    "census.json",
    "fullcases.json",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*args, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a fresh interpreter that sees the package."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def run_capped(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter with 512 MB of address space."""
    script = (
        "import resource, sys; from flagfibers.cli import main; "
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
        "sys.exit(main(sys.argv[1:]))"
    )
    return run_child("-c", script, *argv)


def assert_refused_at_once(argv, message: str) -> None:
    """Exit 2 within 2 s, with one line on stderr naming ``message``."""
    start = time.perf_counter()
    done = run_capped(*argv)
    assert time.perf_counter() - start < 2.0, argv
    assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr)
    assert done.stderr.count("\n") == 1 and message in done.stderr, argv


def write_flag_file(path: Path, flag: ExactFlag) -> str:
    path.write_text(json.dumps(flag_to_json(flag)))
    return str(path)


def write_form_file(path: Path, omega: SymplecticForm) -> str:
    gram = [
        [[str(e.real), str(e.imag)] for e in omega.gram.row(i)]
        for i in range(omega.ambient)
    ]
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


def check_dot(text: str) -> None:
    lines = text.splitlines()
    assert lines[0].endswith("{")
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert line.endswith(";")


# ---------------------------------------------------------------------------
# usage errors


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_bad_choice_is_usage_error(capsys):
    code, _, err = run(capsys, "hasse", "--family", "B", "--rank", "2")
    assert code == 1
    assert err.count("\n") == 1


def test_bad_eta_is_usage_error(capsys):
    assert run(capsys, "hasse", "--family", "A", "--rank", "2", "--eta", "x")[0] == 1
    assert run(capsys, "hasse", "--family", "A", "--rank", "2", "--eta", "7")[0] == 1


def test_signs_require_family_c(capsys):
    code, _, err = run(capsys, "hasse", "--family", "A", "--rank", "2", "--signs")
    assert code == 1
    assert "family C" in err


def test_group_order_limit_exits_2_at_once(capsys):
    for family, rank in (("A", "7"), ("C", "6")):
        for command in ("hasse", "ideals"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--family", family, "--rank", rank)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and "above the limit" in err


def test_huge_rank_is_refused_before_any_factorial():
    # 256 MB of address space: a factorial of ten million would not fit in
    # the time bound, and a group table not in the memory.
    script = (
        "import resource, sys; from flagfibers.cli import main; "
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        "sys.exit(main(sys.argv[1:]))"
    )
    for command in ("hasse", "ideals"):
        start = time.perf_counter()
        done = run_child("-c", script, command, "--family", "A", "--rank", str(10**7))
        assert time.perf_counter() - start < 2.0
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.count("\n") == 1 and "above the limit" in done.stderr
        assert "Traceback" not in done.stderr


def test_rank_over_the_limit_is_refused_before_eta_is_read(capsys):
    # The order check comes first, so an eta index outside the rank still
    # gets the order line, not a usage error.
    for command in ("hasse", "ideals"):
        code, out, err = run(capsys, command, "--family", "A", "--rank", "7", "--eta", "9")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "order 40320" in err


def test_posets_leave_the_group_caches_empty(capsys):
    # Position posets grow W^eta from the identity; no whole group is closed.
    weyl.group_elements.cache_clear()
    weyl.parabolic_elements.cache_clear()
    cases = (("A", "6", ("--eta", "3")), ("C", "5", ("--eta", "2")), ("A", "3", ()))
    for family, rank, eta in cases:
        for command in ("hasse", "ideals"):
            assert run(capsys, command, "--family", family, "--rank", rank, *eta)[0] == 0
    assert weyl.group_elements.cache_info().currsize == 0
    assert weyl.parabolic_elements.cache_info().currsize == 0


def test_ideal_search_limit_exits_2_and_full_a4_answers(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ideals", "--family", "C", "--rank", "4")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "IDEAL_SEARCH_LIMIT" in err
    assert "Traceback" not in err

    start = time.perf_counter()
    code, out, err = run(capsys, "ideals", "--family", "A", "--rank", "4")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    assert len(json.loads(out)["balanced_ideals"]) == 4608


def test_largest_full_type_hasse_and_ideals_answer_in_seconds():
    # Regression pins (the Bruhat graphs of S7 and of the hyperoctahedral
    # group of rank 5 as built today), not literature values.
    for family, rank, nodes_edges in (("A", "6", (5040, 33984)), ("C", "5", (3840, 24612))):
        start = time.perf_counter()
        done = run_child("-m", "flagfibers.cli", "hasse", "--family", family, "--rank", rank)
        assert time.perf_counter() - start < 20.0
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        edges = sum("->" in line for line in lines)
        nodes = sum(line.startswith('  "') for line in lines) - edges
        assert (nodes, edges) == nodes_edges

    start = time.perf_counter()
    done = run_child("-m", "flagfibers.cli", "ideals", "--family", "A", "--rank", "6")
    assert time.perf_counter() - start < 15.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1 and "IDEAL_SEARCH_LIMIT" in done.stderr


def test_cli_import_leaves_numpy_out():
    done = run_child("-c", "import sys, flagfibers.cli; print('numpy' in sys.modules)")
    assert done.stdout == "False\n", done.stderr


def test_package_runs_without_numpy():
    script = (
        "import sys; sys.modules['numpy'] = None; "
        "from flagfibers.cli import main; from flagfibers.sl2reps import cartan_projection; "
        "print(cartan_projection([[2, 0], [0, 1]])); sys.exit(main(['reproduce']))"
    )
    done = run_child("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == str([math.log(2), 0.0])
    assert done.stdout.splitlines()[1].startswith("10 artifacts match")


def loaded_modules(*argv) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and every module loaded by then."""
    script = (
        "import sys\nfrom flagfibers.cli import main\n"
        "try:\n    code = main(sys.argv[1:])\n"
        "except SystemExit as exit_:\n    code = exit_.code\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    done = run_child("-c", script, *argv)
    code, *modules = done.stderr.splitlines()[-1].split()
    assert "flagfibers" in modules and "flagfibers.cli" in modules, done.stderr
    return int(code), set(modules)


def loaded_layers(*argv) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and the
    ``flagfibers.*`` modules loaded by then besides ``flagfibers.cli``."""
    code, modules = loaded_modules(*argv)
    names = {m.removeprefix("flagfibers.") for m in modules if m.startswith("flagfibers.")}
    return code, names - {"cli"}


def test_cli_import_loads_no_library_module():
    script = "import sys, flagfibers.cli; print(*sorted(m for m in sys.modules if 'flagfibers' in m))"
    assert run_child("-c", script).stdout == "flagfibers flagfibers.cli\n"


TWG_LAYERS = {"twg", "flags", "sl2reps", "weyl"}


def subcommand_layers(tmp_path: Path) -> list[tuple[list[str], set[str]]]:
    """An argv for each subcommand and form of input, with the layers it runs."""
    std = write_flag_file(tmp_path / "f.json", ExactFlag.standard(full_signature(3)))
    iso = write_flag_file(tmp_path / "i.json", ExactFlag.standard(isotropic_signature(2)))
    form = write_form_file(tmp_path / "w.json", SymplecticForm.standard(2))
    return [
        (["hasse", "--family", "A", "--rank", "2"], {"weyl"}),
        (["ideals", "--family", "C", "--rank", "2", "--eta", "2"], {"weyl", "ideals"}),
        (["position", std, std], {"flags", "weyl"}),
        (["position", iso, iso, "--symplectic", form], {"flags", "weyl"}),
        (["reps", "--partition", "2,1"], {"sl2reps"}),
        (["reps", "--partition", "2,2"], {"sl2reps", "flags", "weyl"}),
        (["twg", "--partition", "2,1", "--flag", "full", "--group", "so2"], TWG_LAYERS),
        (["classify", str(GOLDEN / "twg_full_3.json")], {"twg"}),
        (["census", "--json"], {"dims", "sl2reps"}),
        (["census", "--cases"], {"dims", "sl2reps"}),
        (["reproduce"], TWG_LAYERS | {"dims"}),
    ]


def test_each_subcommand_loads_only_the_layers_it_uses(tmp_path):
    for argv, layers in subcommand_layers(tmp_path):
        assert loaded_layers(*argv) == (0, layers), argv


def test_classify_loads_the_weight_graph_code_alone(tmp_path):
    # The package base reads the graph and words its error lines, so neither an
    # answer nor a refusal loads flags, and with it weyl, fractions and decimal.
    bad = tmp_path / "bad.json"
    bad.write_text('{"round": [{"id": 1, "sign": "+"}], "squares": [], "edges": []}')
    at_start = set(run_child("-c", "import sys; print(*sorted(sys.modules))").stdout.split())
    for path, code in ((GOLDEN / "twg_full_3.json", 0), (bad, 2)):
        got, modules = loaded_modules("classify", str(path))
        layers = {m for m in modules if m.startswith("flagfibers.")} - {"flagfibers.cli"}
        assert (got, layers) == (code, {"flagfibers.twg"}), path
        assert not {"fractions", "decimal"} & (modules - at_start), path


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    # Both cost a child about 14 ms of imports, and the record types need neither.
    # Only what a bare interpreter has not loaded counts: some builds load
    # ``inspect`` at start-up, and ``--help`` children count like the rest.
    at_start = set(run_child("-c", "import sys; print(*sorted(sys.modules))").stdout.split())
    assert "sys" in at_start
    for argv in [["--help"], *(argv for argv, _ in subcommand_layers(tmp_path))]:
        code, modules = loaded_modules(*argv)
        assert code == 0 and not {"dataclasses", "inspect"} & (modules - at_start), argv


@pytest.mark.parametrize(
    "argv, code",
    [
        *(([command, "--help"], 0) for command in (
            "hasse", "ideals", "position", "reps", "twg", "classify", "census", "reproduce"
        )),
        (["--help"], 0),
        (["reps", "--partition", "2,x"], 1),
        (["twg", "--partition", "x", "--flag", "full", "--group", "so2"], 1),
        (["hasse", "--family", "A", "--rank", "2", "--eta", "1,x"], 1),
        (["ideals", "--family", "A", "--rank", "2", "--eta", "x"], 1),
        (["hasse", "--family", "B", "--rank", "2"], 1),
        ([], 1),
    ],
)
def test_help_and_usage_errors_load_no_library_module(argv, code):
    assert loaded_layers(*argv) == (code, set())


# ---------------------------------------------------------------------------
# hasse


def test_hasse_s3(capsys):
    code, out, _ = run(capsys, "hasse", "--family", "A", "--rank", "2")
    assert code == 0
    check_dot(out)
    assert out.count('";') == 6
    assert out.count("->") == 8
    assert '"123" -> "213" [arrowhead=none];' in out


def test_hasse_lagrangian_chain(capsys):
    code, out, _ = run(
        capsys, "hasse", "--family", "C", "--rank", "2", "--eta", "2", "--signs"
    )
    assert code == 0
    check_dot(out)
    assert out.count("->") == 3
    assert '"(+,+)" -> "(+,-)"' in out
    assert '"(-,+)" -> "(-,-)"' in out


def test_hasse_writes_into_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FLAGFIBERS_OUT", str(tmp_path))
    code, out, _ = run(
        capsys, "hasse", "--family", "A", "--rank", "2", "-o", "sub/figure.dot"
    )
    assert code == 0
    assert out == ""
    assert (tmp_path / "sub" / "figure.dot").read_text().startswith("digraph")


# ---------------------------------------------------------------------------
# ideals


def test_ideals_lagrangian(capsys):
    code, out, _ = run(
        capsys, "ideals", "--family", "C", "--rank", "2", "--eta", "2", "--signs"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["positions"] == ["(+,+)", "(+,-)", "(-,+)", "(-,-)"]
    assert payload["balanced_ideals"] == [
        {"members": ["(+,+)", "(+,-)"], "minimal_anosov_type": [1]}
    ]


def test_ideals_full_s3(capsys):
    code, out, _ = run(capsys, "ideals", "--family", "A", "--rank", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == [1, 2]
    [ideal] = payload["balanced_ideals"]
    assert sorted(ideal["members"]) == ["123", "132", "213"]
    assert ideal["minimal_anosov_type"] == [1, 2]


def test_ideals_projective_sl4(capsys):
    code, out, _ = run(capsys, "ideals", "--family", "A", "--rank", "3", "--eta", "1")
    assert code == 0
    [ideal] = json.loads(out)["balanced_ideals"]
    assert ideal["members"] == ["1234", "2134"]
    assert ideal["minimal_anosov_type"] == [2]


def test_empty_eta_is_the_one_coset_poset(capsys):
    code, out, _ = run(capsys, "hasse", "--family", "A", "--rank", "3", "--eta", "")
    assert code == 0
    assert out == 'digraph hasse {\n  rankdir=BT;\n  node [shape=plaintext];\n  "1234";\n}\n'
    # One coset is an odd cardinality, so no ideal can be balanced.
    code, out, err = run(capsys, "ideals", "--family", "A", "--rank", "3", "--eta", "")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["eta"], payload["positions"], payload["balanced_ideals"]) == ([], ["1234"], [])


def test_ideals_on_an_odd_poset_leaves_stderr_empty():
    # One coset, and the three of CP^2: no balanced ideal, and nothing on stderr.
    for rank, eta, positions in (("3", "", ["1234"]), ("2", "1", ["123", "213", "312"])):
        done = run_child("-m", "flagfibers.cli", "ideals", "--family", "A", "--rank", rank, "--eta", eta)
        assert (done.returncode, done.stderr) == (0, ""), (rank, eta)
        payload = json.loads(done.stdout)
        assert (payload["positions"], payload["balanced_ideals"]) == (positions, []), (rank, eta)


# ---------------------------------------------------------------------------
# position


def test_position_identity(capsys, tmp_path):
    std = ExactFlag.standard(full_signature(3))
    f = write_flag_file(tmp_path / "f.json", std)
    h = write_flag_file(tmp_path / "h.json", std)
    code, out, _ = run(capsys, "position", f, h)
    assert code == 0
    assert out.strip() == "identity"


def test_position_permutation(capsys, tmp_path):
    m = ExactMatrix.identity(3)
    f = write_flag_file(tmp_path / "f.json", ExactFlag.standard(full_signature(3)))
    shuffled = oracles.from_columns([oracles.column(m, j) for j in (1, 2, 0)])
    g = write_flag_file(tmp_path / "g.json", ExactFlag(full_signature(3), shuffled))
    code, out, _ = run(capsys, "position", f, g)
    assert code == 0
    assert out.strip() == "231"


def test_position_symplectic(capsys, tmp_path):
    omega = SymplecticForm.standard(2)
    w = write_form_file(tmp_path / "w.json", omega)
    i1 = write_flag_file(
        tmp_path / "i1.json", ExactFlag.standard(isotropic_signature(2))
    )
    m = ExactMatrix.identity(4)
    rev = oracles.from_columns([oracles.column(m, 3), oracles.column(m, 2)])
    i2 = write_flag_file(
        tmp_path / "i2.json",
        ExactFlag.from_columns(isotropic_signature(2), rev),
    )
    code, out, _ = run(capsys, "position", i1, i2, "--symplectic", w)
    assert code == 0
    assert out.strip() == "-1 -2"
    code, out, _ = run(capsys, "position", i1, i1, "--symplectic", w)
    assert code == 0
    assert out.strip() == "identity"


def test_position_computation_errors(capsys, tmp_path):
    f = write_flag_file(tmp_path / "f.json", ExactFlag.standard(full_signature(3)))
    b = write_flag_file(tmp_path / "b.json", ExactFlag.standard(full_signature(4)))
    code, _, err = run(capsys, "position", f, b)
    assert code == 2
    assert err.startswith("error:")
    junk = tmp_path / "junk.json"
    junk.write_text('{"not": "a flag"}')
    assert run(capsys, "position", f, str(junk))[0] == 2
    assert run(capsys, "position", f, str(tmp_path / "missing.json"))[0] == 2
    malformed_flags = {
        "[1, 2]": "flag JSON must be an object, not list",
        '{"ambient": 3, "signature": 3, "matrix": 5}':
            'flag JSON "signature" must be a list of integers',
        '{"ambient": 3, "signature": [1, "2"], "matrix": []}':
            'flag JSON "signature" must be a list of integers',
        '{"ambient": "3", "signature": [1, 2], "matrix": []}':
            'flag JSON "ambient" must be an integer',
        '{"ambient": 3, "signature": [1, 2]}': "flag JSON lacks the key 'matrix'",
    }
    for text, message in malformed_flags.items():
        junk.write_text(text)
        assert run(capsys, "position", f, str(junk)) == (2, "", f"error: {message}\n")
    # Exponent notation could ask Fraction for a ~415 MB integer; it is refused unread.
    for entry in (["1e999999999", "0"], ["0", "2E-5"]):
        exponent = flag_to_json(ExactFlag.standard(full_signature(3)))
        exponent["matrix"][0][0] = entry
        junk.write_text(json.dumps(exponent))
        message = f'matrix entry parts must read "p" or "p/q", not use an exponent: {entry!r}'
        assert run(capsys, "position", f, str(junk)) == (2, "", f"error: {message}\n")
    i = write_flag_file(tmp_path / "i.json", ExactFlag.standard(isotropic_signature(1)))
    malformed_forms = {
        "[]": "form JSON must be an object, not list",
        "{}": "form JSON lacks the key 'gram'",
        '{"gram": 5}': "a matrix must be a list of rows",
    }
    for text, message in malformed_forms.items():
        junk.write_text(text)
        code_out_err = run(capsys, "position", i, i, "--symplectic", str(junk))
        assert code_out_err == (2, "", f"error: {message}\n")


def test_position_refuses_a_form_of_another_size_in_one_line(tmp_path):
    iso = write_flag_file(tmp_path / "i.json", ExactFlag.standard(isotropic_signature(2)))
    form = write_form_file(tmp_path / "w.json", SymplecticForm.standard(1))
    done = run_child("-m", "flagfibers.cli", "position", iso, iso, "--symplectic", form)
    message = "ambient dimension mismatch between the flags and the form"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_position_refuses_a_signature_before_completing_the_flag(tmp_path):
    # 256 MB of address space.  One column in C^100000 (a 1 MB file): its
    # n x n completion would not fit in the memory, nor in the time bound.
    # A 60-byte file that claims C^1000000000: the refusal must not build
    # anything of the claimed size either.
    script = (
        "import resource, sys; from flagfibers.cli import main; "
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        "sys.exit(main(sys.argv[1:]))"
    )
    n = 10**5
    rows = [[["1", "0"]]] + [[["0", "0"]]] * (n - 1)
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ambient": n, "signature": [1], "matrix": rows}))
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps({"ambient": 10**9, "signature": [1], "matrix": [[["1", "0"]]]}))
    form = write_form_file(tmp_path / "w.json", SymplecticForm.standard(1))
    for flag in (line, claim):
        for extra, message in (
            ((), "expected a full flag (signature 1..n-1)"),
            (("--symplectic", form), "expected a complete isotropic flag (signature 1..n)"),
        ):
            start = time.perf_counter()
            done = run_child("-c", script, "position", str(flag), str(flag), *extra)
            assert time.perf_counter() - start < 2.0
            assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_position_stdout_matches_jump_pattern_oracle(capsys, tmp_path):
    """100 seeded pairs in every shape; the expected text is built from the
    oracle's window the way ``position`` has always printed it."""
    rng = random.Random(733)
    omegas = {
        n: write_form_file(tmp_path / f"w{n}.json", SymplecticForm.standard(n)) for n in (1, 2, 3)
    }
    for index in range(100):
        symplectic = index % 5 >= 3
        n = rng.choice((1, 2, 3)) if symplectic else rng.choice((2, 3, 4, 5))
        family = "C" if symplectic else "A"
        w = rng.choice(weyl_windows(family, n))
        height = rng.choice(("low", "high"))
        pair = c_pair if symplectic else a_pair
        paths = []
        for name, flag in zip("fh", pair(rng, w, height)):
            data = flag_to_json(flag)
            if index % 2:  # leading columns only, completed on reading
                data["matrix"] = [row[: flag.signature.top] for row in data["matrix"]]
            (tmp_path / name).write_text(json.dumps(data))
            paths.append(str(tmp_path / name))
        F, H = (flag_from_json(json.loads(Path(path).read_text())) for path in paths)
        if symplectic:
            omega = SymplecticForm.standard(n)
            window = oracles.relative_position_symplectic_oracle(F, H, omega)
            argv = ["position", *paths, "--symplectic", omegas[n]]
        else:
            window = oracles.relative_position_full_oracle(F, H)
            argv = ["position", *paths]
        if window == tuple(range(1, n + 1)):
            expected = "identity\n"
        else:
            expected = (" " if symplectic else "").join(map(str, window)) + "\n"
        assert run(capsys, *argv) == (0, expected, "")


def test_bare_integer_flag_entries_exit_2_without_traceback(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(
        json.dumps({"ambient": 3, "signature": [1, 2], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    )
    f = write_flag_file(tmp_path / "f.json", ExactFlag.standard(full_signature(3)))
    done = run_child("-m", "flagfibers.cli", "position", str(bare), f)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: matrix entries must be [real, imag] pairs, got 1\n"


def test_boolean_flag_entries_exit_2_without_traceback(tmp_path):
    """JSON ``true``/``false`` parts are not rationals, though Python counts them as ints."""
    data = flag_to_json(ExactFlag.standard(full_signature(2)))
    data["matrix"][0][0] = [True, False]
    flag = tmp_path / "bool.json"
    flag.write_text(json.dumps(data))
    assert "[true, false]" in flag.read_text()
    done = run_child("-m", "flagfibers.cli", "position", str(flag), str(flag))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: matrix entry is not a pair of rationals: [True, False]\n"
    )


@pytest.mark.parametrize("entry", [1, "1", ["1"], ["1", "0", "0"], ["x", "0"], [None, "0"]])
def test_malformed_matrix_entries_are_computation_errors(capsys, tmp_path, entry):
    std = ExactFlag.standard(full_signature(2))
    f = write_flag_file(tmp_path / "f.json", std)
    bad = flag_to_json(std)
    bad["matrix"][0][0] = entry
    g = tmp_path / "g.json"
    g.write_text(json.dumps(bad))
    code, _, err = run(capsys, "position", f, str(g))
    assert code == 2
    assert err.startswith("error: matrix entr") and err.count("\n") == 1
    omega = tmp_path / "w.json"
    omega.write_text(json.dumps({"gram": [[["0", "0"], entry], [["-1", "0"], ["0", "0"]]]}))
    i = write_flag_file(tmp_path / "i.json", ExactFlag.standard(Signature((1,), 2)))
    code, _, err = run(capsys, "position", i, i, "--symplectic", str(omega))
    assert code == 2
    assert err.startswith("error: matrix entr") and err.count("\n") == 1


# An error line names what is wrong and echoes at most 60 characters of the value.
MAX_ERROR_LINE = 160

STANDARD_FLAG_TEXT = (
    '{"ambient": 2, "signature": [1], "matrix": [[%s, ["0", "0"]], [["0", "0"], ["1", "0"]]]}'
)
ONE_ROUND_GRAPH_TEXT = '{"round": [{"id": "a", "sign": %s}], "squares": [], "edges": []}'
HUGE_NUMBER = "1" + "0" * 5000


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("position", STANDARD_FLAG_TEXT % json.dumps("7" * 2**20), "matrix entries must be"),
        ("position", STANDARD_FLAG_TEXT % json.dumps(["7" * 2**20, "0"]), "not a pair of"),
        ("classify", ONE_ROUND_GRAPH_TEXT % json.dumps("+" * 3000), "round vertex signs"),
        ("position", STANDARD_FLAG_TEXT % f"[{HUGE_NUMBER}, 0]", "more than 4300 digits"),
        ("classify", ONE_ROUND_GRAPH_TEXT % HUGE_NUMBER, "more than 4300 digits"),
    ],
    ids=["1MB-entry", "1MB-part", "long-sign", "5001-digit-entry", "5001-digit-sign"],
)
def test_huge_values_exit_2_with_one_short_line(tmp_path, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    files = [str(path)] * (2 if command == "position" else 1)
    done = run_child("-m", "flagfibers.cli", command, *files)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr[:200]
    assert done.stderr.count("\n") == 1 and len(done.stderr) < MAX_ERROR_LINE, done.stderr[:200]
    assert message in done.stderr and "set_int_max_str_digits" not in done.stderr


# ---------------------------------------------------------------------------
# reps


def test_reps_reducible(capsys):
    code, out, _ = run(capsys, "reps", "--partition", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == "(2,1)"
    assert payload["weights"] == [1, 0, -1]
    assert payload["anosov_type"] == [1, 2]
    assert payload["admits_symplectic_form"] is False
    assert payload["invariant_form"] is None
    assert payload["basis"]["labels"] == ["f1", "f-1", "f0"]


def test_reps_irreducible_form(capsys):
    code, out, _ = run(capsys, "reps", "--partition", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["admits_symplectic_form"] is True
    gram = payload["invariant_form"]
    antidiagonal = [gram[i][3 - i][0] for i in range(4)]
    assert antidiagonal == ["-3", "1", "-1", "3"]
    assert all(
        gram[i][j] == ["0", "0"] for i in range(4) for j in range(4) if i + j != 3
    )


def test_reps_large_part_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "reps", "--partition", "80")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0, f"reps --partition 80 took {elapsed:.2f} s"
    gram = json.loads(out)["invariant_form"]
    lcm = math.lcm(*(math.comb(79, k) for k in range(80)))
    assert gram[0][79] == [str(-lcm), "0"]
    assert gram[79][0] == [str(lcm), "0"]


def test_reps_answers_up_to_the_total_limit(capsys):
    assert run(capsys, "reps", "--partition", str(PARTITION_TOTAL_LIMIT))[0] == 0
    code, out, err = run(capsys, "reps", "--partition", f"{PARTITION_TOTAL_LIMIT},1")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"above the limit of {PARTITION_TOTAL_LIMIT}" in err


def test_reps_refuses_a_huge_total_before_any_weight():
    assert_refused_at_once(["reps", "--partition", str(10**8)], "above the limit")


def test_reps_rejects_bad_partition(capsys):
    assert run(capsys, "reps", "--partition", "0,1")[0] == 2
    assert run(capsys, "reps", "--partition", "x")[0] == 1


# ---------------------------------------------------------------------------
# twg and classify


def test_twg_squares_case(capsys):
    code, out, _ = run(
        capsys, "twg", "--partition", "2,1,1", "--flag", "lag", "--group", "so2"
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["euler"] for s in payload["squares"]] == [1, -1]
    assert payload["round"] == [] and payload["edges"] == []


def test_twg_ambient_versus_fiber(capsys):
    code, fiber, _ = run(
        capsys, "twg", "--partition", "2,1", "--flag", "full", "--group", "so2"
    )
    assert code == 0
    code, ambient, _ = run(
        capsys,
        "twg", "--partition", "2,1", "--flag", "full", "--group", "so2", "--ambient",
    )
    assert code == 0
    assert json.loads(fiber)["edges"] == []
    assert len(json.loads(ambient)["edges"]) == 3


def test_twg_dot_output(capsys):
    code, out, _ = run(
        capsys,
        "twg", "--partition", "2,2", "--flag", "proj", "--group", "pso2", "--dot",
    )
    assert code == 0
    check_dot(out)
    assert "shape=box" in out


def test_twg_parity_violation_is_computation_error(capsys):
    code, _, err = run(
        capsys, "twg", "--partition", "2,1", "--flag", "full", "--group", "pso2"
    )
    assert code == 2
    assert err.startswith("error:")


def test_twg_unpaired_fixed_surfaces_are_named_for_both_circles(capsys):
    # P^3 under (3, 1) fixes more than a pair of lines; the shape is reported,
    # not a sphere count the unexpected locus throws off.
    for group in ("so2", "pso2"):
        code, out, err = run(
            capsys, "twg", "--partition", "3,1", "--flag", "proj", "--group", group
        )
        assert (code, out, err) == (2, "", "error: expected a pair of fixed surfaces\n"), group


def test_twg_refuses_a_huge_partition_before_its_basis():
    # n is checked against the flag kind before the n-vector basis is built.
    for kind in ("full", "proj", "lag"):
        argv = ["twg", "--partition", str(10**8), "--flag", kind, "--group", "so2"]
        assert_refused_at_once(argv, "3-dimensional only")


def test_twg_deterministic_output(capsys):
    args = ("twg", "--partition", "4", "--flag", "lag", "--group", "pso2")
    assert run(capsys, *args) == run(capsys, *args)


def test_classify_case3(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "twg", "--partition", "4", "--flag", "proj", "--group", "pso2",
        "-o", str(tmp_path / "case3.json"),
    )
    assert code == 0
    code, out, _ = run(capsys, "classify", str(tmp_path / "case3.json"))
    assert code == 0
    assert json.loads(out) == {
        "matched": True,
        "model": "Hir(2;-1,2)",
        "diffeotype": "S^2 x S^2",
    }


def test_classify_unmatched(capsys, tmp_path):
    from flagfibers.twg import WeightGraph

    lonely = tmp_path / "lonely.json"
    lonely.write_text(WeightGraph(rounds=(("x", 1),)).to_json())
    code, out, _ = run(capsys, "classify", str(lonely))
    assert code == 0
    assert json.loads(out) == {
        "matched": False,
        "model": None,
        "diffeotype": None,
        "reason": "a match needs 4 or 6 round vertices, the graph has 1",
    }


def test_classify_missing_file(capsys, tmp_path):
    assert run(capsys, "classify", str(tmp_path / "none.json"))[0] == 2
    no_squares = tmp_path / "no_squares.json"
    no_squares.write_text('{"round": [], "edges": []}')
    code, _, err = run(capsys, "classify", str(no_squares))
    assert code == 2
    assert err == "error: weight graph JSON lacks the key 'squares'\n"
    pair = [{"id": "a", "sign": "+"}, {"id": "b", "sign": "-"}]
    malformed = {
        "[1]": "weight graph JSON must be an object, not list",
        '{"round": 5, "squares": [], "edges": []}': 'weight graph JSON "round" must be a list',
        '{"round": [], "squares": {}, "edges": []}':
            'weight graph JSON "squares" must be a list',
        '{"round": [], "squares": [], "edges": "ab"}': 'weight graph JSON "edges" must be a list',
        '{"round": [7], "squares": [], "edges": []}':
            "round vertex JSON must be an object, not int",
        json.dumps({"round": pair, "squares": [], "edges": [{"ends": ["a"], "weight": 2}]}):
            "an edge has exactly two ends, got ['a']",
        json.dumps({"round": pair, "squares": [], "edges": [{"ends": "ab", "weight": 2}]}):
            "an edge has exactly two ends, got 'ab'",
        json.dumps({"round": pair, "squares": [], "edges": [{"ends": ["a", "b"], "weight": "2"}]}):
            "edge weights are integers, got '2'",
        json.dumps({"round": [{"id": "a", "sign": -1}], "squares": [], "edges": []}):
            'round vertex signs are "+" or "-", got -1',
        json.dumps({"round": [], "squares": [{"id": "s", "euler": [1]}], "edges": []}):
            "square vertex Euler numbers are integers, got [1]",
        json.dumps({"round": [{"id": ["a"], "sign": "+"}], "squares": [], "edges": []}):
            "round vertex ids are strings, got ['a']",
        json.dumps({"round": [{"id": 1, "sign": "+"}], "squares": [], "edges": []}):
            "round vertex ids are strings, got 1",
        json.dumps({"round": [], "squares": [{"id": 1, "euler": 2}], "edges": []}):
            "square vertex ids are strings, got 1",
        json.dumps({"round": pair, "squares": [], "edges": [{"ends": ["a", None], "weight": 2}]}):
            "edge ends are strings, got None",
    }
    for text, message in malformed.items():
        no_squares.write_text(text)
        assert run(capsys, "classify", str(no_squares)) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# census


def test_census_text(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    assert out.splitlines() == [
        "SL(3,C): Flag(C^3)",
        "SL(4,C): CP^3, Gr_3(C^4)",
        "Sp(4,C): CP^3, Lag(C^4)",
        "SO(5,C): Quad_3, IsoFlag_2(C^5)",
        "SO(6,C): IsoFlag_3^+(C^6), IsoFlag_3^-(C^6)",
    ]


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    assert rows[0]["group"] == "SL(3,C)"
    assert all(v["dim"] == 3 for row in rows for v in row["varieties"])


def test_census_cases(capsys):
    code, out, _ = run(capsys, "census", "--cases")
    assert code == 0
    assert out.splitlines() == [
        "SL(3,C) | Flag(C^3) | (3), (2,1)",
        "SL(4,C) = Sp(4,C) | CP^3 | (4), (2,2)",
        "Sp(4,C) | Lag(C^4) | (4), (2,1,1)",
    ]
    code, out, _ = run(capsys, "census", "--cases", "--json")
    assert code == 0
    assert [row["variety"] for row in json.loads(out)["rows"]] == [
        "Flag(C^3)", "CP^3", "Lag(C^4)",
    ]


def test_census_large_rank_matches_default(capsys):
    _, default, _ = run(capsys, "census")
    start = time.perf_counter()
    code, out, _ = run(capsys, "census", "--max-rank", "60")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == default
    assert elapsed < 2.0, f"census --max-rank 60 took {elapsed:.2f} s"


def test_census_huge_rank_answers_at_once():
    default = run_child("-m", "flagfibers.cli", "census")
    start = time.perf_counter()
    done = run_child("-m", "flagfibers.cli", "census", "--max-rank", str(10**6), timeout=10)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == default.stdout


# ---------------------------------------------------------------------------
# -o writes what stdout would

OUTPUT_ARGVS = {
    "hasse": ["hasse", "--family", "C", "--rank", "2", "--eta", "2", "--signs"],
    "ideals": ["ideals", "--family", "A", "--rank", "3", "--eta", "1,3"],
    "reps": ["reps", "--partition", "3,3,2"],
    "twg": ["twg", "--partition", "2,1,1", "--flag", "lag", "--group", "so2", "--dot"],
    "classify": ["classify", str(GOLDEN / "twg_proj_4.json")],
    "census": ["census", "--max-rank", "3"],
    "census --json": ["census", "--json"],
    "census --cases": ["census", "--cases"],
    "census --cases --json": ["census", "--cases", "--json"],
}


@pytest.mark.parametrize("name", sorted(OUTPUT_ARGVS))
def test_out_file_holds_what_stdout_would(name, capsys, tmp_path, monkeypatch):
    argv = OUTPUT_ARGVS[name]
    code, printed, err = run(capsys, *argv)
    assert (code, err) == (0, "") and printed
    monkeypatch.setenv("FLAGFIBERS_OUT", str(tmp_path))
    assert run(capsys, *argv, "-o", "sub/result") == (0, "", "")
    assert (tmp_path / "sub" / "result").read_text() == printed


# ---------------------------------------------------------------------------
# the golden artifacts


def test_goldens_are_checked_in():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_NAMES)


def test_reproduce_matches_repository(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "10 artifacts match" in out


def test_reproduce_detects_tampering(capsys, tmp_path):
    workdir = tmp_path / "golden"
    shutil.copytree(GOLDEN, workdir)
    target = workdir / "twg_proj_4.json"
    target.write_text(target.read_text().replace('"weight": 3', '"weight": 4'))
    code, _, err = run(capsys, "reproduce", "--golden-dir", str(workdir))
    assert code == 3
    assert "twg_proj_4.json" in err
    assert "line" in err
    # Every divergent or missing artifact gets its own line, in name order.
    other = workdir / "hasse_a2_full.dot"
    other.write_text(other.read_text() + "// tampered\n")
    (workdir / "fullcases.json").unlink()
    code, _, err = run(capsys, "reproduce", "--golden-dir", str(workdir))
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mismatch: fullcases.json: golden file missing")
    assert lines[1] == (
        "mismatch: hasse_a2_full.dot: line 19: expected '// tampered', got None"
    )
    assert lines[2].startswith("mismatch: twg_proj_4.json: line ")


def test_reproduce_detects_missing_artifact(capsys, tmp_path):
    workdir = tmp_path / "golden"
    shutil.copytree(GOLDEN, workdir)
    (workdir / "census.json").unlink()
    code, _, err = run(capsys, "reproduce", "--golden-dir", str(workdir))
    assert code == 3
    assert "census.json" in err


def test_reproduce_write_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "fresh"
    code, out, _ = run(capsys, "reproduce", "--write", "--golden-dir", str(out_dir))
    assert code == 0
    for name in GOLDEN_NAMES:
        assert (out_dir / name).read_text() == (GOLDEN / name).read_text()


def test_golden_twg_files_are_fiber_graphs():
    from flagfibers.sl2reps import Partition
    from flagfibers.twg import CircleGroup, WeightGraph, fiber_weight_graph

    cases = {
        "twg_full_3.json": ((3,), "full", CircleGroup.PSO2),
        "twg_full_2-1.json": ((2, 1), "full", CircleGroup.SO2),
        "twg_proj_4.json": ((4,), "proj", CircleGroup.PSO2),
        "twg_proj_2-2.json": ((2, 2), "proj", CircleGroup.PSO2),
        "twg_lag_4.json": ((4,), "lag", CircleGroup.PSO2),
        "twg_lag_2-1-1.json": ((2, 1, 1), "lag", CircleGroup.SO2),
    }
    for name, (parts, kind, group) in cases.items():
        stored = WeightGraph.from_json((GOLDEN / name).read_text())
        assert stored == fiber_weight_graph(Partition(parts), kind, group)


# ---------------------------------------------------------------------------
# fuzzing the JSON entry points: every input ends in an answer or exit 2

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


def keyed(*keys):
    """Objects with the right keys and values of any JSON type."""
    return st.fixed_dictionaries({key: JSON_VALUES for key in keys})


@st.composite
def well_formed_graphs(draw):
    """Graph files that usually pass validation, so classification runs.

    Up to six round vertices (the size of a two-term connected sum) and edge
    weights up to 10**6: classification only searches the Hirzebruch graphs
    whose weights occur in the graph, so neither makes it run long.
    """
    ids = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=6))
    rounds = [{"id": i, "sign": draw(st.sampled_from("+-"))} for i in ids]
    eulers = draw(st.lists(st.integers(-3, 3), max_size=2))
    squares = [{"id": f"s{k}", "euler": e} for k, e in enumerate(eulers)]
    edges = []
    if len(ids) >= 2:
        for _ in range(draw(st.integers(0, 6))):
            ends = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            edges.append({"ends": ends, "weight": draw(st.integers(2, 10**6))})
    return {"round": rounds, "squares": squares, "edges": edges}


FULL_FLAG = flag_to_json(ExactFlag.standard(full_signature(3)))
ISOTROPIC_FLAG = flag_to_json(ExactFlag.standard(isotropic_signature(2)))
FORM = {"gram": matrix_to_json(SymplecticForm.standard(2).gram)}
FUZZED_FILES = {
    "position": JSON_VALUES | keyed("ambient", "signature", "matrix") | st.just(FULL_FLAG),
    "position --symplectic": JSON_VALUES | keyed("gram") | st.just(FORM),
    "classify": JSON_VALUES | keyed("round", "squares", "edges") | well_formed_graphs(),
}


def _fuzz_argv(entry_point: str, path: str, folder: Path) -> list[str]:
    if entry_point == "classify":
        return ["classify", path]
    if entry_point == "position":
        other = folder / "other.json"
        other.write_text(json.dumps(FULL_FLAG))
        return ["position", path, str(other)]
    flag = folder / "flag.json"
    flag.write_text(json.dumps(ISOTROPIC_FLAG))
    return ["position", str(flag), str(flag), "--symplectic", path]


@pytest.mark.parametrize("entry_point", sorted(FUZZED_FILES))
def test_json_nested_past_the_recursion_limit_exits_2(entry_point, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 1000 + "]" * 1000)
    done = run_child("-m", "flagfibers.cli", *_fuzz_argv(entry_point, str(path), tmp_path))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("entry_point", sorted(FUZZED_FILES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_json_entry_points_answer_or_exit_2(entry_point, data):
    document = data.draw(FUZZED_FILES[entry_point])
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "fuzzed.json"
        path.write_text(json.dumps(document))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_fuzz_argv(entry_point, str(path), Path(folder)))
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# the argv contract: every command line ends in an answer, or in exit 1 or 2
# with one line on stderr

ARGV_INTS = st.integers(0, 7) | st.integers(-(10**30), -1) | st.integers(8, 10**30)
# Ranks and parts from 1 to 3 most of the time, so that many draws answer.
NUMBERS = (st.integers(1, 3) | ARGV_INTS).map(str)
COMMA_LISTS = st.lists(
    st.sampled_from(["", " "]) | st.integers(1, 3).map(" {} ".format) | NUMBERS,
    max_size=4,
).map(",".join)
PARTITIONS = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda parts: ",".join(str(d) for d in sorted(parts, reverse=True))
)


@st.composite
def command_lines(draw, command: str) -> list[str]:
    if command in ("hasse", "ideals"):
        argv = [command, "--family", draw(st.sampled_from("AC")), "--rank", draw(NUMBERS)]
        if draw(st.booleans()):
            argv += ["--eta", draw(COMMA_LISTS)]
        if draw(st.booleans()):
            argv.append("--signs")
        return argv
    if command == "census":
        options = draw(st.lists(st.sampled_from(["--json", "--cases"]), unique=True))
        return ["census", "--max-rank", draw(NUMBERS), *options]
    argv = [command, "--partition", draw(COMMA_LISTS | PARTITIONS)]
    if command == "twg":
        argv += ["--flag", draw(st.sampled_from(["full", "proj", "lag"]))]
        argv += ["--group", draw(st.sampled_from(["so2", "pso2"]))]
        argv += draw(st.lists(st.sampled_from(["--ambient", "--dot"]), unique=True))
    return argv


@pytest.mark.parametrize("command", ["census", "hasse", "ideals", "reps", "twg"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_argv_answers_or_exits_1_or_2_with_one_line(command, data):
    argv = data.draw(command_lines(command))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""
