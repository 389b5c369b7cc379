#!/usr/bin/env python3
"""Per-layer measurement: spans around the public functions of each module.

The layers are the package's modules: cli, pairs, graph, numtheory, verify
and oracle. Spans (name, start, end, parent) are recorded from this file by
wrapping the public name the calling module looks up, such as
`gcdpairs.verify.build` or `gcdpairs.oracle.naive_count`; `src/` is not
instrumented. Spans stay in memory and are written once, at the end.

Each group runs in a fresh interpreter,

    python3 perfbench/layers.py GROUP --sizes full

so that caches, such as numtheory's totient cache, start from nothing. A group prints one JSON object: its metrics,
its checks and its spans. run.py's `--trace 1` runs every group.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from hashlib import sha256
from operator import itemgetter

from workloads import SIZES, VERIFY_TALLY, Sizes, load_digests, round_commands


class Tracer:
    """Spans kept in memory, plus the attribute patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr with a version that records a span per call.
        `note(record, args, result)` may add fields to the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if note is not None:
                note(record, args, result)
            return result

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        """Total duration of the spans called `name` (none of them nest)."""
        return sum(s["end"] - s["start"] for s in self.named(name))


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class HashSink(io.TextIOBase):
    """A stdout replacement that hashes and counts what is written to it."""

    def __init__(self) -> None:
        self.hasher = sha256()
        self.bytes = 0
        self.tail = b""

    def write(self, text: str) -> int:
        data = text.encode()
        self.hasher.update(data)
        self.bytes += len(data)
        self.tail = (self.tail + data)[-256:]
        return len(text)


class Group:
    """What one layer group measures and checks."""

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        self.tracer = Tracer()
        self.digests = load_digests()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: list[list[str]] = []
        self.stdout_bytes = 0

    def expect(self, what: str, actual, expected) -> None:
        ok = actual == expected
        self.checks.append([] if ok else [f"{what}: {actual!r:.80} != expected {expected!r:.80}"])

    def cli(self, name: str, argv: list[str]) -> HashSink:
        """Run `gcdpairs argv` in-process under span `name`, stdout into a
        hashing sink, and check exit code and digest against the frozen ones."""
        from gcdpairs import cli

        sink = HashSink()
        with redirect_stdout(sink), self.tracer.span(name):
            code = cli.main(argv)
        key = " ".join(argv)
        self.expect(f"{key}: exit code", code, 0)
        self.expect(f"{key}: stdout sha256", sink.hasher.hexdigest(), self.digests[key]["sha256"])
        self.stdout_bytes += sink.bytes
        self.metrics[f"{name}.s"] = (self.tracer.seconds(name), "s")
        return sink

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def seconds(self, name: str) -> None:
        self.metric(f"{name}.s", self.tracer.seconds(name), "s")


def literal_pairs(n: int):
    """The definition as a plain double loop: every a <= b < n with gcd(a, b) | n."""
    gcd = math.gcd
    for a in range(n):
        for b in range(a, n):
            g = gcd(a, b)
            if g and n % g == 0:
                yield (a, b)


def group_list(group: Group) -> None:
    """list-stream: `list N` into a hashing sink, then the enumeration alone,
    then the literal double loop, both consumed by the same per-row counter."""
    from gcdpairs import oracle, pairs

    n = group.sizes.list_n
    t = group.tracer
    (argv,) = round_commands("list-stream", group.sizes)
    group.cli("cli.list", argv)

    # lru_cache(maxsize=0) caches nothing; its C wrapper just counts calls.
    counted_gcd = functools.lru_cache(maxsize=0)(math.gcd)
    t.patch(pairs, "gcd", counted_gcd)
    with t.span("pairs.iter_pairs"):
        rows = Counter(map(itemgetter(0), pairs.iter_pairs(n)))
    t.restore()
    with t.span("pairs.literal_loop"):
        literal_rows = Counter(map(itemgetter(0), literal_pairs(n)))

    total = sum(rows.values())
    gcd_calls = counted_gcd.cache_info().misses
    hits = sum(count for a, count in rows.items() if a and n % a)
    group.expect(f"iter_pairs({n}) pairs", total, oracle.naive_count(n))
    group.expect(f"literal loop rows at n={n}", literal_rows, rows)
    group.seconds("pairs.iter_pairs")
    group.seconds("pairs.literal_loop")
    group.metric("pairs.iter_pairs.pairs", total, "count")
    group.metric("pairs.gcd_calls", gcd_calls, "count")
    group.metric("pairs.gcd_hit_ratio", hits / gcd_calls if gcd_calls else 1.0, "ratio")
    group.metric("cli.list.self_s", t.seconds("cli.list") - t.seconds("pairs.iter_pairs"), "s")


def group_verify(group: Group) -> None:
    """verify-all with instrumentation: `verify` counting every graph build and
    oracle call, then `graph N --analyze` and the graph searches under it."""
    from gcdpairs import cli, graph, oracle, verify

    sizes = group.sizes
    t = group.tracer

    def remember_n(record, args, result):
        record["n"] = args[0]

    t.wrap(cli, "run_verification", "verify.run_verification")
    t.wrap(verify, "build", "verify.build", note=remember_n)
    t.wrap(oracle, "naive_count", "oracle.naive_count")
    t.wrap(oracle, "naive_restricted_count", "oracle.naive_restricted_count")
    for name in ("max_clique", "chromatic", "hamiltonian", "domination"):
        t.wrap(oracle, f"exhaustive_{name}", "oracle.exhaustive")
    verify_argv, analyze_argv = round_commands("verify-all", sizes)
    sink = group.cli("cli.verify", verify_argv)
    t.restore()
    group.expect("verify tally", sink.tail.decode().rstrip("\n").rsplit("\n", 1)[-1], VERIFY_TALLY)
    builds = t.named("verify.build")
    group.seconds("verify.run_verification")
    group.metric("verify.build_calls", len(builds), "count")
    group.metric(
        "verify.build_distinct_ratio", len({s["n"] for s in builds}) / max(len(builds), 1), "ratio"
    )
    for name in ("oracle.naive_count", "oracle.naive_restricted_count"):
        group.seconds(name)
        group.metric(f"{name}.calls", len(t.named(name)), "count")
    group.seconds("oracle.exhaustive")

    with t.span("graph.build_small"):
        for n in range(1, sizes.small_graphs + 1):
            graph.build(n)
    group.seconds("graph.build_small")

    t.wrap(cli, "analyze", "graph.analyze")
    t.wrap(graph, "max_clique", "graph.max_clique")
    t.wrap(graph, "is_planar", "graph.is_planar")
    group.cli("cli.graph_analyze", analyze_argv)
    t.restore()
    for name in ("graph.analyze", "graph.max_clique", "graph.is_planar"):
        group.seconds(name)

    g = graph.build(sizes.chromatic_n)
    with t.span("graph.chromatic_number"):
        coloring = graph.chromatic_number(g)
    proper = all(coloring.colors[a] != coloring.colors[b] for a, b in g.simple_edges)
    group.expect(f"chromatic_number({sizes.chromatic_n}) is a proper coloring", proper, True)
    group.expect(
        f"chromatic_number({sizes.chromatic_n}) colors",
        coloring.color_count >= len(graph.max_clique(g).vertices),
        True,
    )
    group.seconds("graph.chromatic_number")


def group_verify_claims(group: Group) -> None:
    """Each verify claim on its own through run_verification(claims=[id]),
    without instrumentation; their sum is the untraced verification time."""
    from gcdpairs import verify

    statuses = Counter()
    for spec in verify.CLAIMS:
        name = f"verify.{spec.claim_id}"
        with group.tracer.span(name):
            report = verify.run_verification(max_n=group.sizes.verify_max_n, claims=[spec.claim_id])
        ids = [e.claim_id for e in report.entries]
        group.expect(f"run_verification(claims=[{spec.claim_id!r}])", ids, [spec.claim_id])
        statuses.update(e.status.value for e in report.entries)
        group.seconds(name)
    tally = (
        f"summary: {statuses['pass']} pass, {statuses['fail']} fail, "
        f"{statuses['discrepancy']} discrepancy, {statuses['noted']} noted"
    )
    group.expect("per-claim tally", tally, VERIFY_TALLY)


def group_count(group: Group) -> None:
    """count: both count commands with the pairs-module formulas they call,
    then the summatory totient with a cold cache and the totient sieve."""
    from gcdpairs import cli, numtheory

    sizes = group.sizes
    t = group.tracer
    formulas = (
        "classify_elements",
        "count_zero_divisor_closed",
        "composite_lower_bound",
        "count_prime_power_formula",
    )
    for name in formulas:
        t.wrap(cli, name, f"pairs.{name}")
    count_argv, formula_argv = round_commands("count", sizes)
    group.cli("cli.count", count_argv)
    group.cli("cli.count_formula", formula_argv)
    t.restore()
    for name in formulas:
        group.seconds(f"pairs.{name}")
    group.metric("numtheory.euler_phi.cache_entries", numtheory.euler_phi.cache_info().currsize, "count")

    limit = sizes.formula_n - 1
    numtheory.euler_phi.cache_clear()
    with t.span("numtheory.phi_partial_sum"):
        partial = numtheory.phi_partial_sum(limit)
    with t.span("numtheory.phi_sieve"):
        sieve = numtheory.phi_sieve(limit)
    group.expect(f"phi_partial_sum({limit}) equals the sieve's sum", partial, sum(sieve))
    group.seconds("numtheory.phi_partial_sum")
    group.seconds("numtheory.phi_sieve")


RUNNERS = {
    "list": group_list,
    "verify": group_verify,
    "verify-claims": group_verify_claims,
    "count": group_count,
}


def run_group(name: str, sizes: Sizes) -> dict:
    group = Group(sizes)
    RUNNERS[name](group)
    return {
        "group": name,
        "metrics": group.metrics,
        "checks": group.checks,
        "stdout_bytes": group.stdout_bytes,
        "peak_rss_mb": max_rss_mb(),
        "spans": group.tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one layer group and print its JSON.")
    parser.add_argument("group", choices=tuple(RUNNERS))
    parser.add_argument("--sizes", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    print(json.dumps(run_group(args.group, SIZES[args.sizes])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
