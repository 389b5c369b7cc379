"""Command-line surface: gcdpairs <list|check|count|graph|verify>.

All output is UTF-8 with LF line endings and is byte-deterministic for a given
invocation. Exit codes: 0 success (or positive check verdict), 1 negative
check verdict, 2 usage error, 3 verification failure, exact-count mismatch or
an internal check that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from . import np, oracle
from .graph import MAX_CHROMATIC_EXACT_N, MAX_CLIQUE_EXACT_N, analyze, build
from .numtheory import divisors, factorize
from .pairs import (
    CountResult,
    classify_elements,
    composite_lower_bound,
    count_pairs,
    count_prime_power_formula,
    count_zero_divisor_closed,
    is_gcd_pair,
    pair_rows,
    pair_total,
    residue_mask,
)
from .verify import run_verification

# The largest n that count's closed forms take. The slowest n below it are
# highly composite, not powers of ten: 735134400 and 980179200 take 3.3-4.1 s
# and 37-40 MB on a 2-vCPU VM, against 2.1 s and 40 MB for 10^9 itself.
FORMULA_MAX_N = 10**9
# The largest n that count enumerates. count_pairs counts each of the n rows in
# closed form: 200000 and the prime 199999 take about 1 s and 19 MB (2-vCPU VM).
ENUMERATE_MAX_N = 200_000
# The largest n that list, graph --json and graph --dot take. Row a is n - a cells:
# at n = 10^7 list --subset 0,1 takes 0.2 s and 57 MB, and over the first 10^9
# bytes the rows peak near 171 MB as list text and 209 MB as JSON (2-vCPU VM).
ROW_WALK_MAX_N = 10_000_000
_SLICE = 1 << 16  # the most cells _write_rows reads into one block
# The largest n that graph --analyze takes. build holds n masks of n bits, so
# memory grows as n^2: 19992 takes about 1.6 s and 76 MB on a 2-vCPU VM.
ANALYZE_MAX_N = 20_000

_EPILOG = f"""\
exact-search bounds (fixed): maximum clique {MAX_CLIQUE_EXACT_N}, chromatic number {MAX_CHROMATIC_EXACT_N}
oracle bounds (fixed): exhaustive clique {oracle.MAX_CLIQUE_N}, chromatic {oracle.MAX_CHROMATIC_N}, \
cycles {oracle.MAX_CYCLE_N}, domination {oracle.MAX_DOMINATION_N}
count formula bound (fixed): n <= {FORMULA_MAX_N} for --method formula and both
count enumeration bound (fixed): n <= {ENUMERATE_MAX_N} for --method enumerate and both
graph bounds (fixed): n <= {FORMULA_MAX_N}, and n <= {ANALYZE_MAX_N} with --analyze
row walk bound (fixed): n <= {ROW_WALK_MAX_N} for list, graph --json and graph --dot
exit codes: 0 ok / 1 not a gcd-pair / 2 usage / 3 verification failure
"""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a modulus >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a modulus >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdpairs",
        description="gcd-pairs in Z_n: enumeration, counting, graphs, and claim verification",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the gcd-pairs of Z_n")
    p_list.add_argument("n", type=_positive_int)
    p_list.add_argument(
        "--subset",
        default="all",
        help="all, units, zero-divisors, or an explicit comma list of residues",
    )
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_check = sub.add_parser("check", help="is {a, b} a gcd-pair in Z_n?")
    p_check.add_argument("n", type=_positive_int)
    p_check.add_argument("a", type=int)
    p_check.add_argument("b", type=int)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_count = sub.add_parser("count", help="count gcd-pairs by enumeration and/or formula")
    p_count.add_argument("n", type=_positive_int)
    p_count.add_argument("--method", choices=("enumerate", "formula", "both"), default="both")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_graph = sub.add_parser("graph", help="the graph of Z_n and its invariants")
    p_graph.add_argument("n", type=_positive_int)
    p_graph.add_argument("--analyze", action="store_true", help="compute graph invariants")
    p_graph.add_argument("--dot", metavar="PATH", help="write DOT text to PATH ('-' for stdout)")
    p_graph.add_argument("--json", action="store_true")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="re-derive every documented claim by brute force")
    p_verify.add_argument("--max-n", type=int, default=None, help="cap enumeration ranges")
    p_verify.add_argument(
        "--claims", default=None, help="comma-separated substrings selecting claim ids"
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _parse_subset(n: int, text: str) -> tuple[str, np.ndarray | None]:
    """(label, the length-n bool array flagging the subset or None for all of
    Z_n); raises ValueError on bad input."""
    if text == "all":
        return "full", None
    if text in ("units", "zero-divisors"):
        if n < 2:
            raise ValueError(f"subset '{text}' needs n >= 2")
        classes = classify_elements(n)
        return text, classes.units if text == "units" else classes.zero_divisors
    try:
        residues = frozenset(int(part) for part in text.split(","))
    except ValueError:
        forms = "all, units, zero-divisors or a comma list of residues"
        raise ValueError(f"--subset takes {forms}, got {text!r}") from None
    for x in residues:
        if not 0 <= x < n:
            raise ValueError(f"residue {x} outside [0, {n})")
    return "subset:" + ",".join(map(str, sorted(residues))), residue_mask(n, residues)


def _write_rows(out, bound: int, rows, head: str, tail: str, sep: str = "") -> int:
    """Write a record sep + head % a + the digits of b + tail to `out` for each
    (a, flags) of the pair_rows `rows` and each b = a + i with flags[i] true
    (all b < bound), with no sep before the first record; return the number
    of records.

    A record is built in numpy, not per pair in Python: the b part is one
    fixed-width void item from a table per digit width, and each row is walked
    through each table in slices of at most _SLICE cells. A slice's flagged
    records go into one structured array (head, b), written as soon as it is
    built and decoded straight off its buffer."""
    tables = []  # (lo, hi, the "b" + tail items for the b in [lo, hi), all of one width)
    ends = np.frombuffer(tail.encode(), np.uint8)
    lo, width = 0, 1
    while lo < bound:
        hi = min(10**width, bound)
        items = np.empty((hi - lo, width + ends.size), np.uint8)
        items[:, width:] = ends
        for s in range(lo, hi, _SLICE):  # in slices, so b and b % 10 stay small
            b = np.arange(s, min(s + _SLICE, hi), dtype=np.min_scalar_type(hi))
            for k in reversed(range(width)):
                items[s - lo : s - lo + b.size, k] = b % 10 + ord("0")
                b //= 10
        tables.append((lo, hi, items.view(f"V{items.shape[1]}").ravel()))
        lo, width = hi, width + 1
    count = 0
    skip = len(sep)  # the bytes of the first block not to write: the first record's sep
    for a, flags in rows:
        head_item = np.void((sep + head % a).encode())
        for lo, hi, table in tables:  # bound <= n = a + flags.size
            for s in range(max(lo, a), hi, _SLICE):
                e = min(s + _SLICE, hi)
                records = table[s - lo : e - lo][flags[s - a : e - a]]
                if records.size:  # an empty block would spend the first record's skip
                    block = np.empty(records.size, [("head", head_item.dtype), ("b", table.dtype)])
                    block["head"], block["b"] = head_item, records
                    out.write(str(memoryview(block).cast("B")[skip:], "ascii"))
                    skip, count = 0, count + records.size
    return count


def _write_json(out, bound: int, fields: dict, key: str, rows, rest: dict | None = None) -> None:
    """The bytes of json.dumps(indent=2) of fields, then `key` holding the
    pairs [a, b] of `rows` as _write_rows walks them, then rest, streamed:
    the header without its closing "\n}", the pairs one by one, and rest
    without its opening "{"."""
    out.write(json.dumps(fields, indent=2)[:-2] + f',\n  "{key}": [')
    count = _write_rows(out, bound, rows, "\n    [\n      %d,\n      ", "\n    ]", sep=",")
    out.write("\n  ]" if count else "]")
    out.write("\n}\n" if rest is None else "," + json.dumps(rest, indent=2)[1:] + "\n")


def _edges(n: int):
    """The rows of G_n's edges: pair_rows with each {a, a} loop cell cleared."""
    for a, flags in pair_rows(n):
        flags[0] = False
        yield a, flags


def cmd_list(args: argparse.Namespace) -> int:
    if args.n > ROW_WALK_MAX_N:
        message = f"the row walk takes n <= {ROW_WALK_MAX_N}, got {args.n}"
        print(f"gcdpairs list: {message}", file=sys.stderr)
        return 2
    try:
        label, within = _parse_subset(args.n, args.subset)
    except ValueError as exc:
        print(f"gcdpairs list: {exc}", file=sys.stderr)
        return 2
    rows, bound = pair_rows(args.n, within), args.n
    if within is not None:  # the digit tables need reach only past the last flagged residue
        bound = args.n - int(np.argmax(within[::-1])) if within.any() else 1
    if args.json:
        _write_json(sys.stdout, bound, {"schema": 1, "n": args.n, "label": label}, "pairs", rows)
        return 0
    count = _write_rows(sys.stdout, bound, rows, "{%d,", "}\n")
    print(f"The number of gcd-pairs is {count}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    lo, hi = sorted((args.a % args.n, args.b % args.n))
    verdict = is_gcd_pair(args.n, args.a, args.b)
    if args.json:
        payload = {
            "schema": 1,
            "n": args.n,
            "input": [args.a, args.b],
            "residues": [lo, hi],
            "gcd_pair": verdict,
        }
        print(json.dumps(payload, indent=2))
    elif verdict:
        print(f"yes: {{{lo},{hi}}} is a gcd-pair in Z_{args.n}")
    else:
        print(f"no: {{{lo},{hi}}} is not a gcd-pair in Z_{args.n}")
    return 0 if verdict else 1


def _formula_counts(n: int) -> tuple[CountResult | None, CountResult | None]:
    """Best closed forms for the total and zero-divisor pair counts, or None
    where no formula applies. An n >= 2 that is no prime power is composite."""
    if n < 2:
        return None, None
    total = count_prime_power_formula(n) if len(factorize(n)) == 1 else composite_lower_bound(n)
    return total, count_zero_divisor_closed(n)


_KIND_SYMBOL = {"exact": "=", "strict-lower-bound": ">", "lower-bound": ">="}


def _format_count(result: CountResult | None) -> str:
    if result is None:
        return "unavailable"
    symbol = _KIND_SYMBOL[result.kind.value]
    return f"{symbol} {result.value} ({result.kind.value}, {result.provenance})"


def cmd_count(args: argparse.Namespace) -> int:
    n = args.n
    if args.method != "enumerate" and n > FORMULA_MAX_N:
        print(f"gcdpairs count: the formulas take n <= {FORMULA_MAX_N}, got {n}", file=sys.stderr)
        return 2
    if args.method != "formula" and n > ENUMERATE_MAX_N:
        print(f"gcdpairs count: enumeration takes n <= {ENUMERATE_MAX_N}, got {n}", file=sys.stderr)
        return 2
    enumerated: dict[str, int] | None = None
    formulas: tuple[CountResult | None, CountResult | None] | None = None
    if args.method in ("enumerate", "both"):
        total, among_zero = count_pairs(n)
        enumerated = {"total": total, "zero_divisors": among_zero}
    if args.method in ("formula", "both"):
        formulas = _formula_counts(n)
    mismatch = None  # when both ran: does the total or an exact formula disagree?
    if enumerated is not None and formulas is not None:
        actual = (enumerated["total"], enumerated["zero_divisors"])
        exact = [(r.value, x) for r, x in zip(formulas, actual) if r and r.kind.value == "exact"]
        mismatch = actual[0] != pair_total(n) or any(value != x for value, x in exact)
    if args.json:
        formula = None
        if formulas is not None:
            results = zip(("total", "zero_divisors"), formulas)
            formula = {key: r.to_json_dict() if r else None for key, r in results}
        payload = {"schema": 1, "n": n, "enumerate": enumerated, "formula": formula,
                   "exact_match": None if mismatch is None else not mismatch}
        print(json.dumps(payload, indent=2))
    else:
        if enumerated is not None:
            print(f"pairs total: {enumerated['total']}")
            print(f"pairs among zero divisors: {enumerated['zero_divisors']}")
        if formulas is not None:
            print(f"formula total: {_format_count(formulas[0])}")
            print(f"formula zero divisors: {_format_count(formulas[1])}")
    if mismatch:
        print("error: exact formula disagrees with enumeration", file=sys.stderr)
    return 3 if mismatch else 0


def _write_dot(out, n: int, loops: list[int]) -> None:
    """Undirected DOT text: loops first, then edges in lexicographic order."""
    out.write(f"graph G{n} {{\n" + "".join(f"{a} -- {a};\n" for a in loops))
    _write_rows(out, n, _edges(n), "%d -- ", ";\n")
    out.write("}\n")


def cmd_graph(args: argparse.Namespace) -> int:
    # the summary line's edge count is pair_total(n); ANALYZE_MAX_N < FORMULA_MAX_N
    bound = ANALYZE_MAX_N if args.analyze else FORMULA_MAX_N
    if args.n > bound:
        what = "--analyze" if args.analyze else "the edge count"
        print(f"gcdpairs graph: {what} takes n <= {bound}, got {args.n}", file=sys.stderr)
        return 2
    if (args.json or args.dot is not None) and args.n > ROW_WALK_MAX_N:
        message = f"--json and --dot take n <= {ROW_WALK_MAX_N}, got {args.n}"
        print(f"gcdpairs graph: {message}", file=sys.stderr)
        return 2
    if args.dot == "-" and (args.json or args.analyze):
        flag = "--json" if args.json else "--analyze"
        print(f"gcdpairs graph: --dot - and {flag} both write stdout", file=sys.stderr)
        return 2
    invariants: dict | None = None
    notes: list[str] = []
    if args.analyze:
        invariants, notes = analyze(build(args.n))
    loops = divisors(args.n)[:-1]  # the a < n with gcd(a, a) = a dividing n
    if args.dot == "-":
        _write_dot(sys.stdout, args.n, loops)
        return 0
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
                _write_dot(fh, args.n, loops)
        except OSError as exc:
            print(f"gcdpairs graph: cannot write {args.dot}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        rest = {"loops": loops, "invariants": invariants, "notes": notes}
        _write_json(sys.stdout, args.n, {"schema": 1, "n": args.n}, "edges", _edges(args.n), rest)
        return 0
    edges = pair_total(args.n) - len(loops)
    print(f"G_{args.n}: {args.n} vertices, {edges} edges, {len(loops)} loops")
    if invariants is not None:
        for key, value in invariants.items():
            print(f"{key.replace('_', ' ')}: {'null' if value is None else value}")
        for note in notes:
            print(f"note: {note}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n is not None and args.max_n < 2:
        print(f"gcdpairs verify: --max-n must be >= 2, got {args.max_n}", file=sys.stderr)
        return 2
    claim_filter = None
    if args.claims is not None:
        claim_filter = [part.strip() for part in args.claims.split(",") if part.strip()]
    report = run_verification(max_n=args.max_n, claims=claim_filter)
    if not report.entries:
        print("gcdpairs verify: no claims match the filter", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        sys.stdout.write(report.to_text())
    return 3 if report.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    name, help_text = "gcdpairs", io.StringIO()  # argparse would drop a failed write of --help
    try:
        try:
            with contextlib.redirect_stdout(help_text):
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse has printed its message, or the help to help_text
            sys.stdout.write(help_text.getvalue())
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            name = f"gcdpairs {args.command}"
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full device shows here, not at interpreter exit
        return code
    except OSError as exc:  # a closed pipe (BrokenPipeError) or a full device
        # Send what is still buffered to devnull so the flush at interpreter exit
        # stays silent. stderr may share the closed pipe or the full device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        closed = isinstance(exc, BrokenPipeError)
        why = "output pipe closed" if closed else f"cannot write output: {exc.strerror}"
        try:
            print(f"{name}: {why}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    except MemoryError:
        print(f"{name}: input too large for memory", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a witness failed its own check: a regression
        print(f"{name}: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
