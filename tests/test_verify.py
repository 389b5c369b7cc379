"""Structure and statuses of the claim-verification report."""

import pytest

from gcdpairs import oracle, verify
from gcdpairs.graph import MAX_CHROMATIC_EXACT_N, MAX_CLIQUE_EXACT_N
from gcdpairs.verify import CLAIMS, ClaimSpec, Status, run_verification

EXPECTED_CLAIM_IDS = [
    "pair-when-divisor",
    "unit-pairs-coprime",
    "prime-power-count",
    "composite-count-bound",
    "zero-divisor-partition",
    "zero-divisor-pair-bound",
    "semiprime-zero-divisor-bound",
    "double-prime-zero-divisors",
    "triple-prime-zero-divisors",
    "prime-power-zero-divisors",
    "subgraph-embedding",
    "star-subgraph",
    "domination-number",
    "connectivity",
    "triangle-threshold",
    "traceable",
    "hamiltonian-even",
    "longest-cycle-odd",
    "clique-two-prime-product",
    "clique-prime-power",
    "clique-prime-count",
    "k5-threshold",
    "planarity-threshold",
    "chromatic-small",
    "chromatic-two-prime-bound",
    "chromatic-prime-bounds",
    "errata-zero-divisors-mod-8",
    "errata-units-mod-9",
    "errata-odd-cycle-small",
]


def test_registry_covers_every_claim_exactly_once():
    ids = [spec.claim_id for spec in CLAIMS]
    assert ids == EXPECTED_CLAIM_IDS
    assert len(ids) == len(set(ids))


def test_capped_run_statuses():
    report = run_verification(max_n=40)
    assert [e.claim_id for e in report.entries] == EXPECTED_CLAIM_IDS
    assert not report.failures
    by_id = {e.claim_id: e for e in report.entries}
    assert by_id["clique-two-prime-product"].status is Status.DISCREPANCY
    assert by_id["chromatic-two-prime-bound"].status is Status.DISCREPANCY
    for claim in ("errata-zero-divisors-mod-8", "errata-units-mod-9", "errata-odd-cycle-small"):
        assert by_id[claim].status is Status.NOTED
    expected_pass = set(EXPECTED_CLAIM_IDS) - {
        "clique-two-prime-product",
        "chromatic-two-prime-bound",
        "errata-zero-divisors-mod-8",
        "errata-units-mod-9",
        "errata-odd-cycle-small",
    }
    for claim in expected_pass:
        assert by_id[claim].status is Status.PASS, claim


def test_two_prime_discrepancy_records_claimed_vs_observed():
    report = run_verification(max_n=22, claims=["clique-two-prime-product"])
    entry = report.entries[0]
    assert entry.status is Status.DISCREPANCY
    assert "n=22: claimed 12" in entry.details
    assert "observed maximum 10" in entry.details
    assert "n=6: maximal order 5 confirmed" in entry.details


def test_filter_selects_claims():
    report = run_verification(claims=["errata"])
    assert len(report.entries) == 3
    assert all(e.status is Status.NOTED for e in report.entries)


def test_report_serialization_round_trip():
    report = run_verification(max_n=8, claims=["chromatic-small", "errata"])
    payload = report.to_json_dict()
    assert payload["schema"] == 1
    assert [e["claim"] for e in payload["entries"]] == [e.claim_id for e in report.entries]
    text = report.to_text()
    assert text.endswith("noted\n")
    assert "summary:" in text


def test_semiprime_bound_detail_mentions_15():
    report = run_verification(max_n=20, claims=["semiprime-zero-divisor-bound"])
    assert "n=15 reproduces bound 13 <= actual 14" in report.entries[0].details


def test_each_graph_is_built_once(monkeypatch):
    built = []
    real_build = verify.build

    def counting_build(n):
        built.append(n)
        return real_build(n)

    verify._graph.cache_clear()
    monkeypatch.setattr(verify, "build", counting_build)
    run_verification(max_n=40)
    assert sorted(built) == list(range(1, 41))


def test_a_witness_that_fails_its_check_is_a_fail(monkeypatch, capsys):
    from gcdpairs.cli import main
    from gcdpairs.graph import GcdGraph

    real_build = verify.build

    def build_without_1_9(n):  # G_10 loses the edge {1, 9}
        g = real_build(n)
        if n != 10:
            return g
        adjacency = list(g.adjacency)
        adjacency[1] &= ~(1 << 9)
        adjacency[9] &= ~(1 << 1)
        return GcdGraph(n, tuple(adjacency), g.loops)

    verify._graph.cache_clear()
    monkeypatch.setattr(verify, "build", build_without_1_9)
    try:
        code = main(["verify", "--claims", "star,domination"])
    finally:
        verify._graph.cache_clear()  # the broken G_10 must not outlive the test
    out, err = capsys.readouterr()
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 3 and err == ""
    for line, claim_id in zip(lines, ("star-subgraph", "domination-number")):
        assert line.startswith("[FAIL       ] " + claim_id), line
        assert line.endswith("  missing star edge {1,9} in G_10"), line
    assert lines[2] == "summary: 0 pass, 2 fail, 0 discrepancy, 0 noted"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("max_n", [1, 0, -5])
def test_a_range_below_two_is_rejected(max_n):
    with pytest.raises(ValueError, match=f"max_n must be >= 2, got {max_n}"):
        run_verification(max_n=max_n)


def test_pair_counts_come_from_the_gcd_table(monkeypatch):
    def unused(*args):
        raise AssertionError("verify called a per-n oracle count")

    monkeypatch.setattr(oracle, "naive_count", unused)
    monkeypatch.setattr(oracle, "naive_restricted_count", unused)
    assert not run_verification(max_n=40).failures


def test_a_wrong_table_gcd_fails_the_counting_claims(monkeypatch):
    table = oracle.GcdTable(41)
    table.gcds[2, 4] = table.gcds[4, 2] = 3  # gcd(2, 4) = 2 divides 8; 3 does not
    monkeypatch.setattr(verify, "_table", lambda limit: table)
    report = run_verification(max_n=40, claims=["prime-power-count", "prime-power-zero-divisors"])
    assert [e.status for e in report.entries] == [Status.FAIL, Status.FAIL]
    assert "at n=8" in report.entries[0].details


@pytest.mark.parametrize(
    "status, cases, reported",
    [
        (Status.PASS, 0, Status.NOTED),
        (Status.DISCREPANCY, 0, Status.NOTED),
        (Status.FAIL, 0, Status.FAIL),
        (Status.PASS, 1, Status.PASS),
        (Status.DISCREPANCY, 1, Status.DISCREPANCY),
    ],
)
def test_an_outcome_over_no_case_is_noted(monkeypatch, status, cases, reported):
    seen = []

    def runner(limit):
        seen.append(limit)
        return status, "runner detail", cases

    fake = ClaimSpec("fake-claim", "stub", 7, runner, "p^k <= {limit}".format)
    monkeypatch.setattr(verify, "CLAIMS", [fake])
    for max_n, limit in ((5, 5), (9, 7)):  # the lesser of the default limit and max_n
        seen.clear()
        (entry,) = run_verification(max_n=max_n).entries
        assert seen == [limit]
        assert entry.range_tested == f"p^k <= {limit}"
        assert entry.status is reported
        assert entry.details == ("no case in range" if reported is Status.NOTED else "runner detail")


def test_exact_search_claims_stay_within_the_search_bounds():
    # verify never asks an exact search past its bound, even without --max-n
    for prefix, bound in (("clique-", MAX_CLIQUE_EXACT_N), ("chromatic-", MAX_CHROMATIC_EXACT_N)):
        specs = [spec for spec in CLAIMS if spec.claim_id.startswith(prefix)]
        assert len(specs) == 3
        for spec in specs:
            assert spec.default_limit <= bound, spec.claim_id


def test_planarity_is_checked_against_the_dmp_oracle(monkeypatch):
    monkeypatch.setattr(verify, "is_planar", lambda g: oracle.dmp_planar(g) or g.n == 8)
    (entry,) = run_verification(max_n=8, claims=["planarity-threshold"]).entries
    assert entry.status is Status.FAIL
    assert entry.details == "is_planar disagrees with the DMP oracle at n=8"


def test_a_planar_verdict_on_g_6_fails_the_stated_set(monkeypatch):
    # G_6 contains K5: when is_planar and the DMP oracle agree on a wrong True,
    # the comparison with the stated planar set is what fails the claim
    monkeypatch.setattr(oracle, "dmp_planar", lambda g: True)
    monkeypatch.setattr(verify, "is_planar", lambda g: True)
    (entry,) = run_verification(max_n=8, claims=["planarity-threshold"]).entries
    assert entry.status is Status.FAIL
    assert entry.details == "planarity wrong at n=6"
