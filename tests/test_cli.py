"""Command-line surface: verbs parse, outputs are machine-readable."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F

import pytest

import pcpoly
from pcpoly import cliquepoly, matching
from pcpoly.cli import main
from pcpoly.graphs import Graph, to_graph6


def _run_json(capsys, *args):
    code = main(["--format", "json", *args])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_poly_verb(capsys):
    code, payload = _run_json(capsys, "poly", "K3", "--kind", "pc")
    assert code == 0
    assert payload["coefficients_ascending"] == [-1, 3, -3, 1]


def test_beta_verb(capsys):
    code, payload = _run_json(capsys, "beta", "C5")
    assert code == 0
    assert abs(payload["approx"] - (5 + 5**0.5) / 2) < 1e-9


def test_profile_verb(capsys):
    code, payload = _run_json(capsys, "profile", "K4")
    assert payload["counts"] == [1, 4, 6, 4, 1]
    assert payload["decycling_number"] == 2


def test_flags_do_not_carry_over_between_calls(capsys):
    # the parser is built once per process; each call starts from the defaults
    _, coarse = _run_json(capsys, "--width", "1/4", "beta", "C5")
    _, default = _run_json(capsys, "beta", "C5")
    assert F(coarse["hi"]) - F(coarse["lo"]) > F(1, 10**6)
    assert F(default["hi"]) - F(default["lo"]) <= F(1, 10**12)
    _, dependence = _run_json(capsys, "poly", "K3", "--kind", "dependence")
    _, pc = _run_json(capsys, "poly", "K3")
    assert (dependence["kind"], pc["kind"]) == ("dependence", "pc")


def test_graph6_input(capsys):
    code, payload = _run_json(capsys, "beta", "D?{", "--fmt", "graph6")
    assert code == 0 and abs(payload["approx"] - 4.0) < 1e-9


def test_monoid_verb(capsys):
    code, payload = _run_json(capsys, "monoid", "P3", "--length", "4", "--lie", "3")
    assert payload["recurrence"] == [1, 3, 7, 15, 31]
    assert payload["count_at_length"] == 31


def test_extremal_verbs(capsys):
    code, payload = _run_json(capsys, "extremal", "max", "6", "3")
    assert code == 0 and "graph6" in payload
    code, payload = _run_json(capsys, "extremal", "min", "6", "10")
    assert payload["conditional"] == "Conjecture 9.1"


def test_planar_verb(capsys):
    code, payload = _run_json(capsys, "planar", "7", "15")
    assert payload["lambda_plus"]["exact"] == "4"


def test_random_verbs(capsys):
    code, payload = _run_json(capsys, "random", "beta", "--n", "2", "--p", "3/4")
    assert payload["lo"] == "3/2"
    code, payload = _run_json(capsys, "random", "series", "--r", "2")
    assert payload["coefficients"][1] == "1/2"


def test_lll_verbs(capsys):
    code, payload = _run_json(capsys, "lll", "K4")
    assert payload["threshold_lo"] == "1/4"
    code, payload = _run_json(capsys, "lll", "K2", "--probs", "1/2", "1/2")
    assert payload["feasible"] is False
    code, payload = _run_json(capsys, "lll", "K3", "--probs", "1/10", "1/10", "1/10")
    assert payload["feasible"] is True and payload["bound"] == "7/10"


def test_matching_adjoint_verbs(capsys):
    code, payload = _run_json(capsys, "matching", "K4")
    assert payload["mu_ascending"] == [3, 0, -6, 0, 1]
    code, payload = _run_json(capsys, "adjoint", "K3")
    assert payload["adjoint_ascending"] == [0, 1, -3, 1]


def test_transform_verb(capsys):
    code, payload = _run_json(capsys, "transform", "C4", "--reduce")
    assert code == 0
    steps = json.loads(payload["steps"])
    assert isinstance(steps, list) and steps


def test_survey_verb(capsys):
    code, payload = _run_json(capsys, "survey", "nonreal", "4")
    assert code == 0
    assert payload["polys_with_nonreal"] == 4
    code, payload = _run_json(capsys, "survey", "bounds", "4")
    assert code == 0 and payload["violations"] == []


def test_survey_extremal_verb(capsys, monkeypatch):
    code, payload = _run_json(capsys, "survey", "extremal", "5")
    assert code == 0
    assert sorted(payload) == [
        "conditional_ks", "max_family_exact", "max_violations", "min_violations", "n",
    ]
    assert payload["max_violations"] == payload["min_violations"] == []
    assert payload["max_family_exact"] == {str(k): True for k in range(11)}
    # a shape test that rejects every graph makes the family check fail
    monkeypatch.setattr(pcpoly.survey, "_max_shape", lambda adj, counts: False)
    code, payload = _run_json(capsys, "survey", "extremal", "5")
    assert code == 1 and not any(payload["max_family_exact"].values())


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["beta", "Q7"], "unknown graph name: 'Q7'"),
        (["survey", "nonreal", "9"], "1 <= n <= 7"),
        (["matching", "K20"], "capped at 19 vertices"),
        (["survey", "average", "8"], "census supported for 1 <= n <= 7"),
        (["monoid", "K3", "--length", "-1"], "length must be nonnegative"),
        (["monoid", "K3", "--lie", "-1"], "Lie degree must be nonnegative"),
        (["random", "ladder", "--r", "0"], "root index must be at least 1"),
        (["transform", "K3"], "transform needs --kelmans or --reduce"),
        (["transform", "K3", "--kelmans", "3", "0"], "vertex 3 out of range for 3 vertices"),
        (["transform", "K3", "--kelmans", "-1", "2"], "vertex -1 out of range for 3 vertices"),
        (["random", "beta", "--n", "200"], "capped at n = 64"),
        (["random", "ladder", "--r", "1", "--t", "2000"], "capped at t = 64"),
    ],
)
def test_user_errors_exit_2_with_one_line(capsys, argv, fragment):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pcpoly: error: ") and fragment in lines[0]


def test_random_ladder_honours_width(capsys):
    code, payload = _run_json(capsys, "random", "ladder", "--r", "2", "--t", "20")
    assert code == 0 and F(payload["hi"]) - F(payload["lo"]) <= F(1, 10**12)
    code, coarse = _run_json(capsys, "--width", "1/1000", "random", "ladder", "--r", "2",
                             "--t", "20")
    assert code == 0 and F(1, 10**12) < F(coarse["hi"]) - F(coarse["lo"]) <= F(1, 1000)
    assert F(coarse["lo"]) <= F(payload["lo"]) <= F(payload["hi"]) <= F(coarse["hi"])


def test_beta_of_k40_is_one_with_multiplicity_40(capsys):
    code, payload = _run_json(capsys, "beta", "K40")
    assert code == 0
    assert (payload["lo"], payload["hi"], payload["multiplicity"]) == ("1", "1", 40)


def test_clique_work_bound_is_a_user_error(capsys):
    # cocktail party on 48 vertices, v's non-neighbour v + 24: the lowest-vertex
    # recursion meets about 2^25 distinct vertex sets
    n, half = 48, 24
    full = (1 << n) - 1
    g = Graph(n, tuple(full ^ (1 << v) ^ (1 << (v + half) % n) for v in range(n)))
    start = time.perf_counter()
    assert main(["beta", to_graph6(g), "--fmt", "graph6"]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("pcpoly: error: ")


def test_weighted_work_bound_is_a_user_error(capsys):
    # the dependency graph is a perfect matching, so the weighted sum runs on
    # the 48-vertex cocktail party above, past the subproblem bound
    n, half = 48, 24
    g = Graph(n, tuple(1 << (v + half) % n for v in range(n)))
    start = time.perf_counter()
    assert main(["lll", to_graph6(g), "--fmt", "graph6", "--probs", *["1/100"] * n]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("pcpoly: error: ") and "clique sum" in lines[0]


def test_lll_check_of_forty_independent_events(capsys):
    # the weighted sum runs over the 2^40 cliques of the complement K40
    start = time.perf_counter()
    code, payload = _run_json(capsys, "lll", "Kbar40", "--probs", *["1/100"] * 40)
    assert time.perf_counter() - start < 5
    assert code == 0 and payload == {"feasible": True, "bound": str(F(99, 100) ** 40)}


def test_adjoint_of_k14_counts_set_partitions(capsys):
    # partitions of K14 into k cliques are its set partitions into k blocks
    stirling = [1]  # S(n, k) = k S(n - 1, k) + S(n - 1, k - 1)
    for n in range(1, 15):
        prev = stirling + [0]
        stirling = [0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)]
    code, payload = _run_json(capsys, "adjoint", "K14")
    assert code == 0
    assert payload["adjoint_ascending"] == [(-1) ** (14 - k) * s for k, s in enumerate(stirling)]
    assert sum(stirling) == 190_899_322  # the Bell number B14


def test_adjoint_partition_bound_is_a_user_error(capsys):
    # K16 needs about 7.2 million (subset, clique) steps, past the 2^20 bound
    start = time.perf_counter()
    assert main(["adjoint", "K16"]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("pcpoly: error: ") and "clique partitions" in lines[0]


def _counting(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_matching_verb_counts_once(capsys, monkeypatch):
    calls = Counter()
    _counting(monkeypatch, calls, matching, "matching_counts_from_adj")
    _counting(monkeypatch, calls, cliquepoly, "clique_counts")
    code, payload = _run_json(capsys, "matching", "C10")
    assert code == 0 and payload["generating"] == [1, 10, 35, 50, 25, 2]
    assert "t_largest" in payload
    assert calls == {"matching_counts_from_adj": 1, "clique_counts": 1}


def test_matching_verb_keeps_line_graph_check(capsys, monkeypatch):
    original = matching.matching_counts_from_adj
    one_edge_too_many = lambda adj, n: [c + (k == 1) for k, c in enumerate(original(adj, n))]
    monkeypatch.setattr(matching, "matching_counts_from_adj", one_edge_too_many)
    with pytest.raises(AssertionError, match="L\\(G\\) independence"):
        main(["matching", "C10"])


def test_matching_verb_past_64_edges(capsys):
    # the line-graph check runs on rows, so L(K12) with 66 vertices is no Graph to refuse
    code, payload = _run_json(capsys, "matching", "K12")
    assert code == 0 and "t_largest" in payload
    perfect = [1, 1, 3, 15, 105, 945, 10395]  # (2k - 1)!!
    assert payload["generating"] == [math.comb(12, 2 * k) * perfect[k] for k in range(7)]


def test_survey_dump(capsys):
    code = main(["survey", "dump", "3"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,graph6,beta_lo,beta_hi,flags"
    assert len(lines) == 9
    assert lines[1].startswith("3,0,")
    code2 = main(["survey", "dump", "3"])
    assert capsys.readouterr().out == out  # byte-identical on every run


def test_import_leaves_multiprocessing_unloaded():
    # every census runs in process; importing multiprocessing would only add start-up time
    src = os.path.dirname(os.path.dirname(pcpoly.__file__))
    code = "import sys, pcpoly.cli, pcpoly.survey; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(pcpoly.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "pcpoly", "beta", "K3", "--format", "json"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"approx": 1.0, "hi": "1", "lo": "1", "multiplicity": 3}


def test_spectral_verb(capsys):
    code, payload = _run_json(capsys, "spectral", "C4")
    assert payload["lo"] == "2"


def test_text_format(capsys):
    code = main(["beta", "K4"])
    out = capsys.readouterr().out
    assert "multiplicity: 4" in out


CSV_CALLS = [
    ["poly", "C5"], ["beta", "K3"], ["profile", "C5"], ["monoid", "P3", "--lie", "3"],
    ["transform", "C4", "--reduce"], ["transform", "C4", "--kelmans", "0", "1"],
    ["extremal", "max", "5", "4"], ["extremal", "min", "5", "4"], ["planar", "5", "6"],
    ["nordhaus-gaddum", "C5"], ["random", "pc"], ["random", "beta"],
    ["random", "ladder", "--t", "20"], ["random", "beta0"], ["random", "series", "--r", "2"],
    ["lll", "C4"], ["lll", "C4", "--probs", "1/10", "1/10", "1/10", "1/10"],
    ["matching", "C5"], ["adjoint", "C5"], ["spectral", "C4"],
    ["survey", "nonreal", "4"], ["survey", "bounds", "4"], ["survey", "extremal", "4"],
    ["survey", "average", "4"],
]


@pytest.mark.parametrize("argv", CSV_CALLS, ids=" ".join)
def test_csv_parses_to_a_header_and_one_row_of_its_width(capsys, argv):
    main([*argv, "--format", "csv"])
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(header) == len(row) and header == sorted(header)


def test_csv_quotes_only_what_needs_it(capsys):
    main(["beta", "K3", "--format", "csv"])
    assert capsys.readouterr().out == "approx,hi,lo,multiplicity\n1.0,1,1,3\n"
    main(["profile", "C5", "--format", "csv"])
    header, row = capsys.readouterr().out.splitlines()
    assert header == "clique_number,counts,decycling_number,independence_at_minus_one"
    assert row == '2,"[1, 5, 5]",1,1'
