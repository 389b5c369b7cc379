#!/usr/bin/env python3
"""Freeze the reference stdout digests of every benchmark command.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/freeze.py

It runs each round command of every workload at every size and writes
perfbench/references.json: the sha256, byte count and exit code of each
command's stdout, and the full text of the `count` outputs, whose values the
benchmark compares line by line.
"""

import json
import sys
from pathlib import Path

import run
from workloads import REFERENCES, SIZES, WORKLOADS, round_commands


def main() -> int:
    root = Path.cwd()
    env = run.gcdpairs_env(root)
    commands = {}
    for sizes in SIZES.values():
        for workload in WORKLOADS:
            for argv in round_commands(workload, sizes):
                result = run.spawn(run.gcdpairs(argv), env, None)
                entry = {
                    "sha256": result.sha256,
                    "bytes": len(result.stdout),
                    "exit": result.exit_code,
                }
                if argv[0] == "count":
                    entry["text"] = result.stdout.decode()
                commands[" ".join(argv)] = entry
                print(" ".join(argv), entry["sha256"][:16], entry["bytes"], file=sys.stderr)
    REFERENCES.write_text(json.dumps({"commands": commands}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
