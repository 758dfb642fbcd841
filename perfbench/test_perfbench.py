"""Tests of the benchmark itself: its input construction and its expected answers.

Run from the repository root with ``python3 -m pytest perfbench/test_perfbench.py -q``.
The flag-pair construction is checked against the independent oracles in
``tests/oracles.py``, which share no code with the library.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import gen  # noqa: E402
import oracles  # noqa: E402
import posets  # noqa: E402
import positions  # noqa: E402
import run  # noqa: E402
from flagfibers import weyl  # noqa: E402


def columns(matrix):
    """The oracle's column format: lists of (Fraction, Fraction) pairs."""
    return [
        [(Fraction(row[j][0]), Fraction(row[j][1])) for row in matrix]
        for j in range(len(matrix[0]))
    ]


def form(gram, u, v):
    """omega(u, v) = u^T gram v over Q(i), as a (real, imaginary) pair."""
    re = im = Fraction(0)
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            if g:
                re += g * (u[i][0] * v[j][0] - u[i][1] * v[j][1])
                im += g * (u[i][0] * v[j][1] + u[i][1] * v[j][0])
    return re, im


def test_type_a_pairs_sit_in_the_position_they_were_built_from():
    rng = random.Random(11)
    for n in (3, 4):
        for window in itertools.permutations(range(1, n + 1)):
            for height in gen.HEIGHTS:
                f, h = gen.a_pair(rng, window, height)
                assert oracles.position_search_oracle(columns(f), columns(h)) == window


def test_type_c_pairs_meet_as_their_signed_window_says():
    rng = random.Random(12)
    for n in (2, 3):
        gram = gen.standard_form(n)
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                window = tuple(p * s for p, s in zip(perm, signs))
                f, h = gen.c_pair(rng, window, rng.choice(list(gen.HEIGHTS)))
                for basis in (f, h):
                    top = columns(basis)[:n]
                    for u, v in itertools.product(top, repeat=2):
                        assert form(gram, u, v) == (0, 0)
                for k, j in itertools.product(range(1, n + 1), repeat=2):
                    expected = sum(1 for i in range(j) if 0 < window[i] <= k)
                    got = oracles.intersection_dim_oracle(columns(f), columns(h), k, j)
                    assert got == expected


def test_partial_answers_match_the_library_cosets():
    rng = random.Random(13)
    for n in (4, 5):
        system = weyl.RootSystem(weyl.Family.A, n - 1)
        for _ in range(20):
            w = tuple(rng.sample(range(1, n + 1), n))
            theta, eta = positions._proper_type(rng, n), positions._proper_type(rng, n)
            coset = weyl.double_coset_of(system, theta, eta, weyl.WeylElement(system, w))
            assert positions.min_double_coset_rep(n, theta, eta, w) == coset.min_rep.window


def test_recorded_poset_answers_agree_with_the_exhaustive_oracle():
    expected = json.loads(posets.EXPECTED.read_text())
    assert set(expected) == {posets.question_key(*q) for q in posets.questions()}
    warnings.simplefilter("ignore")
    checked = 0
    for family, rank, eta in posets.questions():
        system = weyl.RootSystem(weyl.Family[family], rank)
        poset = weyl.double_cosets(system, frozenset(system.simple_indices), frozenset(eta))
        if len(poset) > 16:
            continue
        leq = [[poset.leq(i, j) for j in range(len(poset))] for i in range(len(poset))]
        count = len(oracles.balanced_ideals_oracle(leq, list(poset.w0_action)))
        assert expected[posets.question_key(family, rank, eta)]["ideals"] == count
        checked += 1
    assert checked >= 20


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "positions", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
