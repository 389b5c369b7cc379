"""CLI behavior: output goldens, exit codes, JSON schemas, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy
import pytest

import gcdpairs
from gcdpairs import oracle
from gcdpairs.cli import main
from gcdpairs.graph import analyze, build
from gcdpairs.pairs import iter_pairs

SRC = Path(__file__).resolve().parents[1] / "src"

NU_6_LINES = [
    "{0,1}", "{0,2}", "{0,3}", "{1,1}", "{1,2}", "{1,3}", "{1,4}", "{1,5}",
    "{2,2}", "{2,3}", "{2,4}", "{2,5}", "{3,3}", "{3,4}", "{3,5}", "{4,5}",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_6_golden(capsys):
    code, out, _ = run(capsys, "list", "6")
    assert code == 0
    assert out.splitlines() == NU_6_LINES + ["The number of gcd-pairs is 16"]


def test_list_zero_divisors(capsys):
    code, out, _ = run(capsys, "list", "6", "--subset", "zero-divisors")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "The number of gcd-pairs is 5"
    assert lines[:-1] == ["{2,2}", "{2,3}", "{2,4}", "{3,3}", "{3,4}"]


def test_list_explicit_subset(capsys):
    code, out, _ = run(capsys, "list", "6", "--subset", "2,3,4")
    assert out.splitlines()[-1] == "The number of gcd-pairs is 5"
    assert code == 0


def test_list_of_an_empty_subset_prints_its_count(capsys):
    # a prime has no zero divisors
    assert run(capsys, "list", "7", "--subset", "zero-divisors") == (
        0, "The number of gcd-pairs is 0\n", ""
    )


def test_list_1_is_empty(capsys):
    code, out, _ = run(capsys, "list", "1")
    assert code == 0
    assert out == "The number of gcd-pairs is 0\n"


def test_list_json_schema(capsys):
    code, out, _ = run(capsys, "list", "6", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["n"] == 6
    assert payload["label"] == "full"
    assert payload["pairs"] == [[a, b] for a, b in
                                [tuple(map(int, line.strip('{}').split(','))) for line in NU_6_LINES]]
    assert json.loads(json.dumps(payload)) == payload


def test_list_usage_errors(capsys):
    code, _, _ = run(capsys, "list", "0")
    assert code == 2
    code, _, err = run(capsys, "list", "6", "--subset", "9")
    assert code == 2 and "residue 9" in err
    forms = "all, units, zero-divisors or a comma list of residues"
    for text in ("0,,1", "", "x"):
        code, out, err = run(capsys, "list", "5", "--subset", text)
        assert (code, out) == (2, "")
        assert err == f"gcdpairs list: --subset takes {forms}, got {text!r}\n"
    code, _, _ = run(capsys, "list", "1", "--subset", "units")
    assert code == 2


# "0" selects only {0, 0}, which is never a gcd-pair
SUBSET_KINDS = ("all", "units", "zero-divisors", "0")


@lru_cache(maxsize=1)  # the tests go through every subset kind of one n in turn
def _naive_pairs(n):
    return oracle.naive_enumerate(n).pairs


def _reference_pairs(n, kind):
    """(label, pairs) for `list n --subset kind`, from the definition."""
    if kind == "all":
        label, chosen = "full", None
    elif kind == "units":
        label, chosen = kind, {x for x in range(n) if math.gcd(x, n) == 1}
    elif kind == "zero-divisors":
        label, chosen = kind, {x for x in range(1, n) if math.gcd(x, n) > 1}
    else:
        chosen = {int(x) for x in kind.split(",")}
        label = "subset:" + ",".join(map(str, sorted(chosen)))
    pairs = _naive_pairs(n)
    if chosen is not None:
        pairs = tuple((a, b) for a, b in pairs if a in chosen and b in chosen)
    return label, pairs


def _subset_kinds(n):
    return SUBSET_KINDS if n >= 2 else ("all", "0")  # units need n >= 2


def test_list_text_matches_the_definition_across_digit_widths(capsys):
    for n in (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001):
        for kind in _subset_kinds(n):
            _, pairs = _reference_pairs(n, kind)
            expected = "".join(f"{{{a},{b}}}\n" for a, b in pairs)
            expected += f"The number of gcd-pairs is {len(pairs)}\n"
            code, out, _ = run(capsys, "list", str(n), "--subset", kind)
            assert (code, out) == (0, expected), (n, kind)


def test_list_json_is_json_dumps_of_the_pair_set(capsys):
    # json.dumps(indent=2) runs in pure Python, so above 100 only a sample of n
    for n in [*range(1, 101), 101, 128, 150, 199, 200]:
        for kind in _subset_kinds(n):
            label, pairs = _reference_pairs(n, kind)
            payload = {"schema": 1, "n": n, "label": label, "pairs": [[a, b] for a, b in pairs]}
            code, out, _ = run(capsys, "list", str(n), "--json", "--subset", kind)
            assert (code, out) == (0, json.dumps(payload, indent=2) + "\n"), (n, kind)


def test_check_verdicts(capsys):
    code, out, _ = run(capsys, "check", "9", "4", "6")
    assert code == 1 and out == "no: {4,6} is not a gcd-pair in Z_9\n"
    code, out, _ = run(capsys, "check", "6", "-4", "3")
    assert code == 0 and out == "yes: {2,3} is a gcd-pair in Z_6\n"
    code, out, _ = run(capsys, "check", "6", "0", "0")
    assert code == 1
    code, _, _ = run(capsys, "check", "0", "1", "2")
    assert code == 2


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "6", "-4", "3", "--json")
    payload = json.loads(out)
    assert payload == {
        "schema": 1,
        "n": 6,
        "input": [-4, 3],
        "residues": [2, 3],
        "gcd_pair": True,
    }
    assert code == 0


def test_count_both_for_prime_power(capsys):
    code, out, _ = run(capsys, "count", "9", "--method", "both")
    assert code == 0
    lines = out.splitlines()
    assert "pairs total: 26" in lines
    assert "formula total: = 26 (exact, prime-power-formula)" in lines


def test_count_formula_for_semiprime(capsys):
    code, out, _ = run(capsys, "count", "35", "--method", "formula")
    assert code == 0
    assert "formula zero divisors: >= 27 (lower-bound, two-prime-lower-bound)" in out.splitlines()


def test_count_enumerate_6(capsys):
    code, out, _ = run(capsys, "count", "6", "--method", "enumerate")
    assert out.splitlines() == ["pairs total: 16", "pairs among zero divisors: 5"]
    assert code == 0


def test_count_unavailable_slot(capsys):
    code, out, _ = run(capsys, "count", "1", "--method", "formula")
    assert code == 0
    assert "formula total: unavailable" in out.splitlines()


def test_count_json_round_trip(capsys):
    _, out, _ = run(capsys, "count", "15", "--method", "both", "--json")
    payload = json.loads(out)
    assert payload["enumerate"] == {"total": 75, "zero_divisors": 14}
    assert payload["formula"]["zero_divisors"]["value"] == 14
    assert payload["exact_match"] is True


def test_graph_analyze_6(capsys):
    code, out, _ = run(capsys, "graph", "6", "--analyze")
    assert code == 0
    lines = out.splitlines()
    assert "clique number: 5" in lines
    assert "chromatic number: 5" in lines
    assert "planar: False" in lines
    assert "hamiltonian: True" in lines


def test_graph_analyze_7(capsys):
    _, out, _ = run(capsys, "graph", "7", "--analyze")
    lines = out.splitlines()
    assert "chromatic number: 4" in lines
    assert "planar: True" in lines
    assert "hamiltonian: False" in lines


def test_graph_json_schema_and_round_trip(capsys):
    _, out, _ = run(capsys, "graph", "6", "--analyze", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["n"] == 6
    assert len(payload["edges"]) == 13
    assert payload["loops"] == [1, 2, 3]
    assert payload["invariants"]["clique_number"] == 5
    assert payload["edges"] == sorted(payload["edges"])
    assert json.loads(json.dumps(payload)) == payload


def test_graph_dot_file(tmp_path, capsys):
    target = tmp_path / "g5.dot"
    code, _, _ = run(capsys, "graph", "5", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("graph G5 {\n")
    assert text.count("--") == 7


def test_graph_dot_stdout(capsys):
    code, out, _ = run(capsys, "graph", "2", "--dot", "-")
    assert code == 0
    assert out == "graph G2 {\n1 -- 1;\n0 -- 1;\n}\n"


def test_graph_dot_unwritable(capsys):
    code, _, err = run(capsys, "graph", "5", "--dot", "/nonexistent-dir/g.dot")
    assert code == 2 and "cannot write" in err


def test_graph_dot_and_json_on_stdout_is_a_usage_error(capsys):
    for argv in (("5", "--dot", "-", "--json"), ("5", "--json", "--dot", "-", "--analyze")):
        assert run(capsys, "graph", *argv) == (
            2, "", "gcdpairs graph: --dot - and --json both write stdout\n"
        ), argv


def test_graph_dot_and_analyze_on_stdout_is_a_usage_error(monkeypatch, capsys):
    # the invariant report was dropped after the DOT text, with exit 0
    from gcdpairs import cli

    code, out, _ = run(capsys, "graph", "8", "--analyze", "--dot", os.devnull)
    assert code == 0 and out.splitlines()[-1] == "planar: False"  # a DOT file is fine

    def refuse(n):
        raise AssertionError("built G_n")

    monkeypatch.setattr(cli, "build", refuse)
    for argv in (("8", "--analyze", "--dot", "-"), ("8", "--dot", "-", "--analyze")):
        assert run(capsys, "graph", *argv) == (
            2, "", "gcdpairs graph: --dot - and --analyze both write stdout\n"
        ), argv


def _graph_payload(g, invariants=None, notes=()):
    """What `graph --json` prints for g, as one json.dumps payload."""
    edges = [[a, b] for a, b in sorted(g.simple_edges)]
    return {"schema": 1, "n": g.n, "edges": edges, "loops": sorted(g.loops),
            "invariants": invariants, "notes": list(notes)}


def test_graph_json_and_text_match_build(capsys):
    # json.dumps(indent=2) runs in pure Python, so above 100 only a sample of n
    for n in [*range(1, 101), 128, 150, 210, 256, 299, 300]:
        g = build(n)
        code, out, _ = run(capsys, "graph", str(n), "--json")
        assert (code, out) == (0, json.dumps(_graph_payload(g), indent=2) + "\n"), n
        code, out, _ = run(capsys, "graph", str(n))
        summary = f"G_{n}: {n} vertices, {g.edge_count()} edges, {len(g.loops)} loops\n"
        assert (code, out) == (0, summary), n
    _, out, _ = run(capsys, "graph", "1", "--json")
    assert '  "edges": [],\n' in out


def test_graph_analyze_json_matches_analyze(capsys):
    for n in range(1, 31):
        g = build(n)
        payload = _graph_payload(g, *analyze(g))
        code, out, _ = run(capsys, "graph", str(n), "--analyze", "--json")
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n"), n


def test_graph_dot_matches_build(capsys):
    for n in range(1, 101):
        g = build(n)
        lines = [f"graph G{n} {{", *(f"{a} -- {a};" for a in sorted(g.loops))]
        lines += [f"{a} -- {b};" for a, b in sorted(g.simple_edges)]
        code, out, _ = run(capsys, "graph", str(n), "--dot", "-")
        assert (code, out) == (0, "\n".join(lines) + "\n}\n"), n


def test_graph_exports_do_not_build_the_graph(monkeypatch, tmp_path, capsys):
    from gcdpairs import cli

    def refuse(n):
        raise AssertionError("build called")

    monkeypatch.setattr(cli, "build", refuse)
    target = tmp_path / "g.dot"
    for argv in ((), ("--json",), ("--dot", "-"), ("--dot", str(target), "--json")):
        code, out, _ = run(capsys, "graph", "40", *argv)
        assert code == 0 and out, argv


def test_verify_filter_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "errata")
    assert code == 0
    assert out.count("NOTED") == 3
    code, _, err = run(capsys, "verify", "--claims", "no-such-claim")
    assert code == 2


def test_verify_json_structure(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "chromatic-small,k5", "--max-n", "30")
    assert code == 0
    assert out.splitlines()[-1] == "summary: 2 pass, 0 fail, 0 discrepancy, 0 noted"
    _, out, _ = run(capsys, "verify", "--claims", "chromatic-small", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    entry = payload["entries"][0]
    assert entry["claim"] == "chromatic-small"
    assert entry["status"] == "pass"


def test_verify_exit_3_on_failure(monkeypatch, capsys):
    from gcdpairs import cli
    from gcdpairs.verify import ClaimResult, Status, VerificationReport

    broken = VerificationReport(
        entries=[
            ClaimResult(
                claim_id="prime-power-count",
                statement="stub",
                range_tested="n <= 1",
                status=Status.FAIL,
                details="injected failure",
            )
        ]
    )
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: broken)
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "FAIL" in out


def test_a_failed_internal_check_is_one_line_and_exit_3(monkeypatch, capsys):
    from gcdpairs import cli
    from gcdpairs.graph import GcdGraph

    def build_without_1_7(n):  # G_n without the edge {1, 7}
        g = build(n)
        adjacency = list(g.adjacency)
        adjacency[1] &= ~(1 << 7)
        adjacency[7] &= ~(1 << 1)
        return GcdGraph(n, tuple(adjacency), g.loops)

    monkeypatch.setattr(cli, "build", build_without_1_7)
    code, out, err = run(capsys, "graph", "8", "--analyze")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("gcdpairs graph: internal check failed:"), err


def test_count_exit_3_on_exact_mismatch(monkeypatch, capsys):
    from gcdpairs import cli
    from gcdpairs.pairs import CountKind, CountResult

    bogus = CountResult(999, CountKind.EXACT, "prime-power-formula")
    monkeypatch.setattr(cli, "_formula_counts", lambda n: (bogus, None))
    code, _, err = run(capsys, "count", "9", "--method", "both")
    assert code == 3
    assert "disagrees" in err


def test_memory_error_is_a_one_line_usage_error(monkeypatch, capsys):
    from gcdpairs import cli

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli, "_formula_counts", exhausted)
    code, out, err = run(capsys, "count", str(cli.FORMULA_MAX_N), "--method", "formula")
    assert code == 2
    assert out == ""
    assert err == "gcdpairs count: input too large for memory\n"


def test_count_formula_bound_exits_2_before_any_work(monkeypatch, capsys):
    from gcdpairs import cli

    def refuse(*args):
        raise AssertionError("no work above the bound")

    for name in ("_formula_counts", "count_pairs", "classify_elements"):
        monkeypatch.setattr(cli, name, refuse)
    above = str(cli.FORMULA_MAX_N + 1)
    message = f"gcdpairs count: the formulas take n <= {cli.FORMULA_MAX_N}, got {above}\n"
    for argv in (("--method", "formula"), ("--method", "both"), ("--json",), ()):
        assert run(capsys, "count", above, *argv) == (2, "", message), argv
    # at the bound the formulas run: here a stub in their place
    monkeypatch.setattr(cli, "_formula_counts", lambda n: (None, None))
    code, out, _ = run(capsys, "count", str(cli.FORMULA_MAX_N), "--method", "formula")
    assert code == 0 and out.splitlines()[0] == "formula total: unavailable"
    assert f"count formula bound (fixed): n <= {cli.FORMULA_MAX_N}" in cli._EPILOG


def test_count_enumeration_bound_exits_2_before_any_work(monkeypatch, capsys):
    from gcdpairs import cli

    def refuse(*args):
        raise AssertionError("no enumeration above the bound")

    monkeypatch.setattr(cli, "count_pairs", refuse)
    above = str(cli.ENUMERATE_MAX_N + 1)
    message = f"gcdpairs count: enumeration takes n <= {cli.ENUMERATE_MAX_N}, got {above}\n"
    for argv in ((above, "--method", "enumerate"), (above, "--json"), (above,)):
        assert run(capsys, "count", *argv) == (2, "", message), argv
    message = message.replace(above, str(cli.FORMULA_MAX_N))
    assert run(capsys, "count", str(cli.FORMULA_MAX_N)) == (2, "", message)
    # at the bound the enumeration runs: here a stub in its place
    monkeypatch.setattr(cli, "count_pairs", lambda n: (7, 3))
    code, out, _ = run(capsys, "count", str(cli.ENUMERATE_MAX_N), "--method", "enumerate")
    assert code == 0 and out.splitlines() == ["pairs total: 7", "pairs among zero divisors: 3"]
    assert f"count enumeration bound (fixed): n <= {cli.ENUMERATE_MAX_N}" in cli._EPILOG


def test_count_both_checks_every_total_against_pair_total(monkeypatch, capsys):
    from gcdpairs import cli, pairs

    # 12 has no exact total formula, so only the closed-form total can disagree
    for argv in (("12",), ("12", "--json"), ("9", "--method", "both")):
        expected = run(capsys, "count", *argv)
        assert expected[0] == 0 and expected[2] == "", argv
        monkeypatch.setattr(cli, "pair_total", lambda n: pairs.pair_total(n) + 1)
        code, out, err = run(capsys, "count", *argv)
        monkeypatch.undo()
        assert code == 3 and err == "error: exact formula disagrees with enumeration\n", argv
        if "--json" in argv:
            assert out == expected[1].replace('"exact_match": true', '"exact_match": false')
        else:
            assert out == expected[1], argv


def test_graph_bounds_exit_2_before_any_work(monkeypatch, capsys):
    from gcdpairs import cli

    def refuse(*args):
        raise AssertionError("no work above the bound")

    for name in ("build", "pair_total", "pair_rows"):
        monkeypatch.setattr(cli, name, refuse)
    above = str(cli.FORMULA_MAX_N + 1)
    message = f"gcdpairs graph: the edge count takes n <= {cli.FORMULA_MAX_N}, got {above}\n"
    for argv in ((), ("--json",), ("--dot", "-"), ("--dot", os.devnull)):
        assert run(capsys, "graph", above, *argv) == (2, "", message), argv
    for n in (cli.ANALYZE_MAX_N + 1, cli.FORMULA_MAX_N + 1):
        message = f"gcdpairs graph: --analyze takes n <= {cli.ANALYZE_MAX_N}, got {n}\n"
        for argv in (("--analyze",), ("--analyze", "--json"), ("--analyze", "--dot", "-")):
            assert run(capsys, "graph", str(n), *argv) == (2, "", message), argv
    # at the bounds the work runs: here stubs in its place
    monkeypatch.setattr(cli, "pair_total", lambda n: 1000)
    code, out, _ = run(capsys, "graph", str(cli.FORMULA_MAX_N))
    assert (code, out) == (0, "G_1000000000: 1000000000 vertices, 901 edges, 99 loops\n")
    monkeypatch.setattr(cli, "build", lambda n: build(8))
    code, out, _ = run(capsys, "graph", str(cli.ANALYZE_MAX_N), "--analyze")
    assert code == 0 and out.splitlines()[-1] == "planar: False"
    bounds = f"n <= {cli.FORMULA_MAX_N}, and n <= {cli.ANALYZE_MAX_N} with --analyze"
    assert f"graph bounds (fixed): {bounds}" in cli._EPILOG


def test_row_walk_bound_exits_2_before_any_work(monkeypatch, capsys):
    from gcdpairs import cli

    def refuse(*args):
        raise AssertionError("no work above the bound")

    for name in ("pair_rows", "classify_elements", "residue_mask"):
        monkeypatch.setattr(cli, name, refuse)
    above = str(cli.ROW_WALK_MAX_N + 1)
    message = f"gcdpairs list: the row walk takes n <= {cli.ROW_WALK_MAX_N}, got {above}\n"
    for argv in ((), ("--json",), ("--subset", "units"), ("--subset", "0,1")):
        assert run(capsys, "list", above, *argv) == (2, "", message), argv
    message = f"gcdpairs graph: --json and --dot take n <= {cli.ROW_WALK_MAX_N}, got {above}\n"
    for argv in (("--json",), ("--dot", "-"), ("--dot", os.devnull)):
        assert run(capsys, "graph", above, *argv) == (2, "", message), argv
    # the summary line walks no row
    monkeypatch.setattr(cli, "pair_total", lambda n: 1000)
    summary = f"G_{above}: {above} vertices, 997 edges, 3 loops\n"
    assert run(capsys, "graph", above) == (0, summary, "")
    bound = f"n <= {cli.ROW_WALK_MAX_N} for list, graph --json and graph --dot"
    assert f"row walk bound (fixed): {bound}" in cli._EPILOG


def test_graph_counts_its_edges_in_closed_form(monkeypatch, capsys):
    # count_pairs walked n rows of up to n cells: graph 200000 took about 5 s
    from gcdpairs import cli, graph, pairs

    def refuse(*args):
        raise AssertionError("enumerated the pairs")

    for owner, name in ((cli, "count_pairs"), (cli, "pair_rows"), (graph, "row_masks"),
                        (pairs, "count_pairs"), (pairs, "row_masks")):
        monkeypatch.setattr(owner, name, refuse)
    code, out, _ = run(capsys, "graph", "200000")
    assert (code, out) == (0, "G_200000: 200000 vertices, 16885746575 edges, 41 loops\n")


def test_count_formula_at_ten_million_in_flat_memory(capsys):
    # two int64 totient tables of 10^7 entries peaked at 350 MB
    code, out, _ = run(capsys, "count", "10000000", "--method", "formula")
    assert code == 0 and out.splitlines() == [
        "formula total: > 30396352427243 (strict-lower-bound, summatory-totient-bound)",
        "formula zero divisors: >= 2627561832914 (lower-bound, divisor-cell-sum)",
    ]
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, os.devnull,
         "count", "10000000", "--method", "formula"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=60,
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0 and peak_kib < 60 * 1024, peak_kib


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "graph", "9", "--analyze", "--json")
    second = run(capsys, "graph", "9", "--analyze", "--json")
    assert first == second
    a = run(capsys, "list", "30")
    b = run(capsys, "list", "30")
    assert a == b


def test_list_30_count_matches_library(capsys):
    _, out, _ = run(capsys, "list", "30")
    assert out.splitlines()[-1] == f"The number of gcd-pairs is {len(tuple(iter_pairs(30)))}"


# stdout sha256 of `gcdpairs graph ...`, recorded from the earlier edge-set
# representation: the edges walked out of the adjacency masks keep its bytes.
GRAPH_DIGESTS = {
    ("1", "--json"): "c720063834ce2701651bf873bc59e61bb131fb09e8543701a163df1e33c940b5",
    ("1", "--dot", "-"): "d83144ae6a414865ad854071dc3086d11a91b39ff792ef59207927e3ecd2b5cc",
    ("1", "--analyze", "--json"): "a92418f2b5eb2c6cdd4083571e4647e95fe0b98e67c60b9ff9025d9dccb43710",
    ("2", "--json"): "bdc970fa0880e7541db97c11fb3eda7171dd96aece9cba677fc668fef334790d",
    ("2", "--dot", "-"): "23c17333a7a1e3c1cf9bbe42af9ab939dd68bab89b72c11fc78c08a075517ab3",
    ("2", "--analyze", "--json"): "5bce9ff6e0c954fa3bef7731e3e21d59c024b329c1d9925e2857cb5c86b2dde2",
    ("12", "--json"): "06e542adfbf954eb4392ad98f0dd2f2c92e66a163fd5316b4ce233fafbf8c97f",
    ("12", "--dot", "-"): "e6d1db5f67490f185862b3f201adc3865e1179bed0429f5c8466441e9c7e36dd",
    ("12", "--analyze", "--json"): "80ca9482afe1b791f6b90ce4266f5facec2e9798ff06904644c0afc1a99c4995",
    ("30", "--json"): "8962d58cff2ded41605b441e3f539b9dde765a21043a72cbdfe561220347c786",
    ("30", "--dot", "-"): "08f843b4d60a388bece31deaed529a323889d6c6d433dc241aead0de1e072b25",
    ("30", "--analyze", "--json"): "995130a661beb9624f336e8010c2671a79c1760a6ceb7b0336c3359d14cb805a",
    # past the clique bound, recorded when clique_construction(n) re-derived
    # adjacency pair by pair with is_gcd_pair
    ("100", "--analyze", "--json"): "a92040a8eca6f6cdbadcfb2d9925acf55ddd9e8801557ee09f547744dfed92f9",
    ("121", "--analyze", "--json"): "571866c0e2f1197dcd626749232134d8d91161d7418a8282e0c86318401cf5fb",
    ("210", "--analyze", "--json"): "77adbb26ce4cbb99175bbf8e3ae4ab856f3f1fcb0843518b0ba7ef8c11ba1282",
    ("221", "--analyze", "--json"): "6df4c1865eb8784394642d56389f123ae2fcab468d29fd1b0d424ca4438850ba",
    ("1000", "--analyze", "--json"): "a2e1d46f71dcc4054a41d005aab4114dd305af0abb3c5abbf56b5b4a24176795",
}


def test_graph_output_digests(capsys):
    for argv, digest in GRAPH_DIGESTS.items():
        code, out, _ = run(capsys, "graph", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# stdout sha256 of `gcdpairs count ...`, recorded when enumeration still
# streamed pair tuples and every totient sum went through euler_phi.
COUNT_DIGESTS = {
    ("1",): "4d0046db56d9b1259b2ff7f6dbfbabaac96eea1971cd16e433ed62b421068a91",
    ("2",): "fc84453f5eaacf3f68fededfcc3de26ab648e05b9dcd9d803d51c00a26adffb2",
    ("12",): "2547bb543fdf77e7a9dde16ba32693cf26c1715c0b4c2b2773f21cf089bbed1c",
    ("360",): "fdfc05d45f246008a9cea4e4022f0147712e3d18aacbfd5693af22f6fb23676d",
    ("5000",): "57f98bc9f6bca0ed3b885cb79c7ad03df8163bda39567b4ed2d2bc3c5663baaa",
    ("5000", "--json"): "643164efe44bc308be7a33d622a2ed376563c1523ba564e8480db869d33ce312",
    ("262144", "--method", "formula"): "88c703584f3dcc7adc94d0dc2e12e29ee4a2930934b1967a48b593297c5876f5",
}


def test_count_output_digests(capsys):
    for argv, digest in COUNT_DIGESTS.items():
        code, out, _ = run(capsys, "count", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# stdout sha256 of `gcdpairs list ...` with subsets and JSON, recorded when
# subsets were filtered pair by pair and --json enumerated and restricted anew.
LIST_DIGESTS = {
    ("60", "--subset", "units"): "ba50e7555bfb9c2ccae9d3c251fdfa3f6e841ed7dd8b835e868153405f4e0653",
    ("60", "--subset", "zero-divisors", "--json"):
        "6be966b983de13138503f5b2b2cacd5441777ca5d61dcfe6accf16b8453ec139",
    ("360", "--subset", "0,3,5,7,12,359"):
        "dc15dde354c37159ce8f6d5b2cf3df1090b71cdd6d03a3afd49d0d7c4e025545",
    ("30", "--json", "--subset", "4,2"):
        "99324946d04d5dabf3b1aee4e0785f6218503090b957d27d6485e79e4dbecd18",
    ("1", "--json"): "e46ee4d266a28e2ee0446cc837a2638f8287eeb4dddc8a38114fbb1173d1afdc",
    ("2", "--subset", "units", "--json"):
        "6e283400b1458aa749565a0c56d4432ece2ba77d7d4b2dc4b02556a906359816",
}


def test_list_output_digests(capsys):
    for argv, digest in LIST_DIGESTS.items():
        code, out, _ = run(capsys, "list", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv



# stdout sha256 of `gcdpairs verify ...`, recorded when the claims were listed
# in a table apart from their runners and every claim built its own graphs;
# `--max-n 3` was recorded once every claim over no case reported NOTED.
VERIFY_DIGESTS = {
    (): "8d7bc8cf90e2a0ae94d2c99b0a7d007f4e2db7bce4cdff8add19cfc40d322264",
    ("--max-n", "40"): "94e3d8fe3e1a804c029dd16846942575ee16aa383731cdbce227d6141f74ab28",
    ("--max-n", "3"): "2b8693c0e72c4a42dcb44510886a1175e8cb46ce6ff181ccbe8112d0d65ee427",
    ("--max-n", "12", "--json"): "b5b4ec8bb4612bb6183b07dcdab5d158703f5ce6c27bf6da48772e3c49b77916",
}


def test_verify_output_digests(capsys):
    for argv, digest in VERIFY_DIGESTS.items():
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_count_formulas_use_no_trial_division():
    from gcdpairs import cli, numtheory

    numtheory.euler_phi.cache_clear()
    cli._formula_counts(262144)
    assert numtheory.euler_phi.cache_info().currsize == 0


NOTED_BELOW_FOUR = [
    "composite-count-bound",
    "semiprime-zero-divisor-bound",
    "double-prime-zero-divisors",
    "triple-prime-zero-divisors",
    "hamiltonian-even",
    "longest-cycle-odd",
    "clique-two-prime-product",
    "chromatic-two-prime-bound",
    "errata-zero-divisors-mod-8",
    "errata-units-mod-9",
    "errata-odd-cycle-small",
]


def test_verify_entries_that_check_nothing_are_noted(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    for claim in ("clique-two-prime-product", "chromatic-two-prime-bound"):
        (line,) = [line for line in lines if f"] {claim} " in line]
        assert line.startswith("[NOTED      ]"), line
        assert line.endswith("n in []         no case in range"), line
    (line,) = [line for line in lines if "] chromatic-small " in line]
    assert line.startswith("[PASS       ]"), line
    assert line.endswith("2 <= n <= 3     chromatic numbers 2,2 confirmed"), line
    assert lines[-1] == "summary: 18 pass, 0 fail, 0 discrepancy, 11 noted"
    for max_n in ("2", "3"):
        _, out, _ = run(capsys, "verify", "--max-n", max_n, "--json")
        noted = [e for e in json.loads(out)["entries"] if e["status"] == "noted"]
        assert [e["claim"] for e in noted] == NOTED_BELOW_FOUR
        assert {e["details"] for e in noted[:-3]} == {"no case in range"}  # all but errata
        _, out, _ = run(capsys, "verify", "--max-n", max_n)
        assert out.splitlines()[-1] == "summary: 18 pass, 0 fail, 0 discrepancy, 11 noted"
    _, out, _ = run(capsys, "verify", "--max-n", "3", "--claims", "two-prime", "--json")
    entries = json.loads(out)["entries"]
    assert [e["status"] for e in entries] == ["noted", "noted"]


def test_gcdpairs_max_exact_is_ignored(monkeypatch, capsys):
    # the exact-search bounds are fixed: the variable that once set them changes nothing
    argvs = (("graph", "6", "--analyze", "--json"), ("verify", "--claims", "errata"))
    expected = [run(capsys, *argv)[:2] for argv in argvs]
    for raw in ("4", "abc"):
        monkeypatch.setenv("GCDPAIRS_MAX_EXACT", raw)
        assert [run(capsys, *argv)[:2] for argv in argvs] == expected, raw


def test_a_modulus_that_is_not_a_positive_integer_is_a_usage_error(capsys):
    for command, rest in (("list", ()), ("check", ("2", "3")), ("count", ()), ("graph", ())):
        for raw in ("x", "0"):
            code, out, err = run(capsys, command, raw, *rest)
            assert code == 2 and out == "", (command, raw)
            assert "expected a modulus >= 1" in err and "_positive_int" not in err, (command, raw)


def test_verify_rejects_a_range_that_checks_nothing(capsys):
    for max_n in ("1", "-5"):
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert code == 2 and out == ""
        assert err == f"gcdpairs verify: --max-n must be >= 2, got {max_n}\n"



def test_verify_rejects_a_filter_that_selects_nothing(capsys):
    for claims in (",", "", " , "):
        code, out, err = run(capsys, "verify", "--claims", claims)
        assert code == 2 and out == "", claims
        assert err == "gcdpairs verify: no claims match the filter\n", claims


def _subprocess_env() -> dict:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def _assert_closed_pipe_exits_2(argv, first_line):
    """Run gcdpairs argv, read one line, close the pipe: exit 2, one stderr line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcdpairs", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == f"gcdpairs {argv[0]}: output pipe closed\n"


def test_closed_pipe_exits_2_without_traceback():
    _assert_closed_pipe_exits_2(["list", "3000"], b"{0,1}\n")


def test_closed_pipe_during_json_exits_2_without_traceback():
    _assert_closed_pipe_exits_2(["list", "3000", "--json"], b"{\n")


def test_cli_import_leaves_networkx_unloaded():
    # check and --help need no array: numpy loads first at list, which must still work
    check = (
        "import contextlib, io, sys\n"
        "import gcdpairs.cli as cli\n"
        "assert 'networkx' not in sys.modules and 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert cli.main(['check', '6', '-4', '3']) == 0\n"
        "    assert cli.main(['check', '6', '-4', '3', '--json']) == 0\n"
        "    assert cli.main(['--help']) == 0\n"
        "assert out.getvalue().startswith('yes: {2,3} is a gcd-pair in Z_6\\n{')\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['list', '6']) == 0\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", check], env=_subprocess_env(), capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.splitlines() == NU_6_LINES + ["The number of gcd-pairs is 16"]


def test_count_runs_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    check = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from gcdpairs import cli\n"
        "for argv in (['1'], ['12', '--json'], ['5000'], ['262144', '--method', 'formula']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert cli.main(['count', *argv]) == 0, argv\n"
        "    print(out.getvalue(), end='')\n"
        "assert sys.modules['numpy'] is None\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", check], env=_subprocess_env(), capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    count_12 = {
        "schema": 1, "n": 12, "enumerate": {"total": 64, "zero_divisors": 25},
        "formula": {
            "total": {"value": 43, "kind": "strict-lower-bound",
                      "provenance": "summatory-totient-bound"},
            "zero_divisors": {"value": 7, "kind": "lower-bound", "provenance": "divisor-cell-sum"},
        },
        "exact_match": True,
    }
    assert out == "".join([
        "pairs total: 0\npairs among zero divisors: 0\n",
        "formula total: unavailable\nformula zero divisors: unavailable\n",
        json.dumps(count_12, indent=2) + "\n",
        "pairs total: 10510714\npairs among zero divisors: 3756639\n",
        "formula total: > 7598459 (strict-lower-bound, summatory-totient-bound)\n",
        "formula zero divisors: >= 702379 (lower-bound, divisor-cell-sum)\n",
        "formula total: = 27850812587 (exact, prime-power-formula)\n",
        "formula zero divisors: = 6962678997 (exact, prime-power-reduction)\n",
    ])


def test_np_binding_hands_out_numpy_itself():
    assert gcdpairs.np.ndarray is numpy.ndarray
    assert gcdpairs.np.int64 is numpy.int64
    assert gcdpairs.np.zeros is numpy.zeros
    with pytest.raises(AttributeError):
        gcdpairs.np.no_such_name
    assert not hasattr(gcdpairs.np, "no_such_name")


def test_package_import_loads_no_submodule():
    check = (
        "import sys, gcdpairs\n"
        "loaded = {'numpy', 'gcdpairs.graph', 'gcdpairs.verify', 'gcdpairs.pairs'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", check], env=_subprocess_env(), check=True, timeout=60)


def _run_without_networkx(body):
    # a None entry in sys.modules makes every import of networkx fail
    check = (
        "import contextlib, io, itertools, sys\n"
        "sys.modules['networkx'] = None\n"
        "from gcdpairs import cli\n"
        "from gcdpairs.graph import GcdGraph, is_planar\n"
        + body
        + "assert sys.modules['networkx'] is None\n"
    )
    subprocess.run([sys.executable, "-c", check], env=_subprocess_env(), check=True, timeout=120)


def test_analyze_beyond_the_euler_bound_leaves_networkx_unloaded():
    _run_without_networkx(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['graph', '64', '--analyze']) == 0\n"
        "    assert cli.main(['graph', '8', '--analyze']) == 0\n"
    )


def test_verify_and_small_analyze_leave_networkx_unloaded():
    # G_2..G_5 and G_7 go to the DMP oracle, and G_6 and G_8 fail Euler's bound
    _run_without_networkx(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify']) == 0\n"
        "    for n in range(2, 9):\n"
        "        assert cli.main(['graph', str(n), '--analyze']) == 0\n"
    )


def test_is_planar_on_a_six_vertex_kernel_leaves_networkx_unloaded():
    _run_without_networkx(
        "def graph(edges):\n"
        "    adjacency = [0] * 6\n"
        "    for a, b in edges:\n"
        "        adjacency[a] |= 1 << b\n"
        "        adjacency[b] |= 1 << a\n"
        "    return GcdGraph(6, tuple(adjacency), frozenset())\n"
        "k33 = [(a, b) for a in range(3) for b in range(3, 6)]\n"
        "octahedron = set(itertools.combinations(range(6), 2)) - {(0, 1), (2, 3), (4, 5)}\n"
        "assert not is_planar(graph(k33))\n"
        "assert is_planar(graph(octahedron))  # 12 = 3v - 6 edges: Euler passes it to DMP\n"
    )


def test_closed_pipe_shared_with_stderr_exits_2():
    """stdout and stderr on one pipe: the message about the closed pipe cannot be
    written either, and the exit code is still 2."""
    for argv in (
        ["list", "3000"],
        ["graph", "300", "--json"],
        ["graph", "3000", "--json"],
        ["graph", "3000", "--dot", "-"],
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gcdpairs", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_subprocess_env(),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2, argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_stdout_write_is_one_line_and_exit_2():
    # exit 1 is check's "not a gcd-pair", so a traceback's exit 1 misreported it
    for argv in (
        ["list", "10"],
        ["list", "5000"],
        ["list", "3000", "--json"],
        ["verify"],
        ["graph", "12", "--json"],
        ["count", "60"],
        ["check", "6", "2", "3"],
    ):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gcdpairs", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_subprocess_env(), text=True, timeout=60,
            )
        assert proc.returncode == 2, argv
        assert proc.stderr == f"gcdpairs {argv[0]}: cannot write output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_on_a_full_device_is_one_line_and_exit_2():
    # argparse writes the help inside parse_args and drops a failed write
    for argv in (["--help"], ["list", "--help"]):
        for unbuffered in ("", "1"):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "gcdpairs", *argv], stdout=full,
                    stderr=subprocess.PIPE, text=True, timeout=60,
                    env={**_subprocess_env(), "PYTHONUNBUFFERED": unbuffered},
                )
            assert proc.returncode == 2, (argv, unbuffered)
            expected = "gcdpairs: cannot write output: No space left on device\n"
            assert proc.stderr == expected, (argv, unbuffered)


# A child's ru_maxrss starts from the RSS of the process that forked it, so
# the command is spawned from a bare interpreter, not from this test process.
# The first argument names the file that takes the command's stdout.
_PEAK_RSS = """\
import os, sys
argv = [sys.executable, "-m", "gcdpairs", *sys.argv[2:]]
quiet = [(os.POSIX_SPAWN_OPEN, 1, sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_graph_json_streams_in_bounded_memory():
    # the whole edge list as one payload peaked at 670 MB
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, os.devnull, "graph", "2000", "--json"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=60,
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0 and peak_kib < 100 * 1024, peak_kib


def test_graph_analyze_builds_in_bounded_memory():
    # an n x n bool matrix and its transpose peaked at 304 MB for n = 12000
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, os.devnull, "graph", "12000", "--analyze"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=60,
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0 and peak_kib < 100 * 1024, peak_kib


def test_list_subset_sieves_only_its_rows(tmp_path):
    # every row of n cells was sieved: 1.3 GB, and no line after 115 s
    stdout = tmp_path / "stdout"
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, str(stdout),
         "list", "10000000", "--subset", "0,1"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=60,
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0 and peak_kib < 150 * 1024, peak_kib
    assert stdout.read_text() == "{0,1}\n{1,1}\nThe number of gcd-pairs is 2\n"


def test_list_of_no_zero_divisors_stays_small(tmp_path):
    # frozensets of every residue, one gcd each, peaked at 1.19 GB and took 4.9 s
    stdout = tmp_path / "stdout"
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, str(stdout),
         "list", "9999991", "--subset", "zero-divisors"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=60,
    ).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0 and peak_kib < 150 * 1024, peak_kib
    assert stdout.read_text() == "The number of gcd-pairs is 0\n"


def test_invariant_table_output_digest():
    script = Path(__file__).resolve().parents[1] / "scripts" / "invariant_table.py"
    out = subprocess.run(
        [sys.executable, str(script), "--start", "2", "--stop", "30"],
        env=_subprocess_env(), capture_output=True, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == (
        "c77016c275b796c95865dbc326dc2fc087d0cdd0e9696b8aa99e2132f21461db"
    )
