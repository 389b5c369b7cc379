"""The benchmark's workloads: their sizes, command rounds and output checks.

A round is a fixed sequence of `gcdpairs` commands. Every output is checked
against references that do not come from the code under test: pair counts
from `gcdpairs.oracle`, spot-check rows and `check` verdicts from the
definition, and stdout sha256 digests frozen in `references.json`.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

WORKLOADS = ("list-stream", "verify-all", "count")

VERIFY_TALLY = "summary: 24 pass, 0 fail, 2 discrepancy, 3 noted"


@dataclass(frozen=True)
class Sizes:
    """Every input size the benchmark uses; `full` holds the ROADMAP sizes."""

    list_n: int
    verify_max_n: int | None
    analyze_n: int
    count_n: int
    formula_n: int
    chromatic_n: int
    small_graphs: int


SIZES = {
    "full": Sizes(5000, None, 64, 5000, 262144, 16, 200),
    # Small enough to run every workload and layer in seconds; used by the
    # warm-up round and by selftest.py.
    "tiny": Sizes(60, 12, 12, 60, 64, 6, 20),
}


def round_commands(workload: str, sizes: Sizes) -> list[list[str]]:
    """The gcdpairs argument lists of one round of `workload`, in order."""
    if workload == "list-stream":
        return [["list", str(sizes.list_n)]]
    if workload == "verify-all":
        verify = ["verify"]
        if sizes.verify_max_n is not None:
            verify += ["--max-n", str(sizes.verify_max_n)]
        return [verify, ["graph", str(sizes.analyze_n), "--analyze"]]
    if workload == "count":
        return [["count", str(sizes.count_n)], ["count", str(sizes.formula_n), "--method", "formula"]]
    raise ValueError(f"unknown workload {workload!r}")


def setup_command(rng: random.Random) -> list[str]:
    """`gcdpairs check n a b` with seed-chosen arguments; O(1) work for any of them."""
    n = rng.randrange(2, 61)
    a = rng.randrange(-10**6, 10**6)
    b = rng.randrange(-10**6, 10**6)
    return ["check", str(n), str(a), str(b)]


def row_from_definition(n: int, a: int) -> list[int]:
    """Every b with a <= b < n and gcd(a, b) | n, straight from the definition."""
    out = []
    for b in range(a, n):
        g = gcd(a, b)
        if g and n % g == 0:
            out.append(b)
    return out


def load_digests(path: Path = REFERENCES) -> dict[str, dict]:
    return json.loads(path.read_text())["commands"]


class Checker:
    """Checks command outputs against the oracle, the definition and frozen
    digests. `check` returns (pairs accounted for, problems); it never raises."""

    def __init__(self, seed: int, digests: dict[str, dict]):
        self.rng = random.Random(seed)
        self.digests = digests
        self._counts: dict[int, int] = {}

    def naive_count(self, n: int) -> int:
        if n not in self._counts:
            from gcdpairs import oracle

            self._counts[n] = oracle.naive_count(n)
        return self._counts[n]

    def prepare(self, commands: list[list[str]]) -> None:
        """Compute the oracle counts a round will need, before anything is timed."""
        for argv in commands:
            if argv[0] in ("list", "graph", "count") and "--method" not in argv:
                self.naive_count(int(argv[1]))

    def check(self, argv: list[str], code: int, out: bytes, digest: str) -> tuple[int, list[str]]:
        try:
            return self._check(argv, code, out, digest)
        except Exception as exc:  # malformed output must count as a failure
            return 0, [f"{' '.join(argv)}: check raised {type(exc).__name__}: {exc}"]

    def _check(self, argv: list[str], code: int, out: bytes, digest: str) -> tuple[int, list[str]]:
        key = " ".join(argv)
        problems: list[str] = []
        if argv[0] == "check":
            return 0, self._check_check(argv, code, out)
        ref = self.digests.get(key)
        if ref is None:
            problems.append(f"{key}: no frozen reference digest")
        elif digest != ref["sha256"]:
            problems.append(f"{key}: stdout sha256 {digest[:12]} != frozen {ref['sha256'][:12]}")
        if code != 0:
            problems.append(f"{key}: exit code {code}, expected 0")
        n = int(argv[1]) if len(argv) > 1 and argv[1].isdigit() else 0
        pairs = 0
        if argv[0] == "list":
            tail = out[out.rfind(b"\n", 0, len(out) - 1) + 1 :]
            pairs = max(out.count(b"\n") - 1, 0)
            expected = self.naive_count(n)
            problems += self._expect(key, "pairs", pairs, expected)
            problems += self._expect(
                key, "count line", tail, f"The number of gcd-pairs is {expected}\n".encode()
            )
            for a in self._spot_rows(n):
                problems += self._expect(key, f"row {a}", _text_row(out, a), row_from_definition(n, a))
        elif argv[0] == "graph":
            m = re.match(rb"G_(\d+): \1 vertices, (\d+) edges, (\d+) loops\n", out)
            pairs = int(m[2]) + int(m[3]) if m else 0
            problems += self._expect(key, "edges + loops", pairs, self.naive_count(n))
        elif argv[0] == "count":
            m = re.search(rb"^pairs total: (\d+)$", out, re.MULTILINE)
            if "--method" not in argv:
                pairs = int(m[1]) if m else 0
                problems += self._expect(key, "pairs total", pairs, self.naive_count(n))
            if ref is not None:
                problems += self._expect(key, "recorded values", out.decode(), ref["text"])
        elif argv[0] == "verify":
            last = out.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
            problems += self._expect(key, "tally", last, VERIFY_TALLY)
        return pairs, problems

    def _check_check(self, argv: list[str], code: int, out: bytes) -> list[str]:
        from gcdpairs import oracle

        n, a, b = (int(x) for x in argv[1:4])
        lo, hi = sorted((a % n, b % n))
        verdict = (lo, hi) in set(oracle.naive_enumerate(n).pairs)
        word, expected_code = ("yes", 0) if verdict else ("no", 1)
        negation = "" if verdict else "not "
        text = f"{word}: {{{lo},{hi}}} is {negation}a gcd-pair in Z_{n}\n"
        key = " ".join(argv)
        return self._expect(key, "exit code", code, expected_code) + self._expect(
            key, "stdout", out.decode(), text
        )

    def _spot_rows(self, n: int) -> list[int]:
        return sorted(self.rng.sample(range(n), min(3, n)))

    @staticmethod
    def _expect(key: str, what: str, actual, expected) -> list[str]:
        if actual == expected:
            return []
        return [f"{key}: {what} {_short(actual)} != expected {_short(expected)}"]


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 80 else text[:77] + "..."


def _text_row(out: bytes, a: int) -> list[int]:
    """The b values of the lines `{a,b}` in `gcdpairs list` text output."""
    prefix = b"{%d," % a
    pos = 0 if out.startswith(prefix) else out.find(b"\n" + prefix) + 1
    row = []
    while out.startswith(prefix, pos):
        end = out.index(b"\n", pos)
        row.append(int(out[pos + len(prefix) : end - 1]))
        pos = end + 1
    return row

