#!/usr/bin/env python3
"""Record the reference outputs of every universe entry of a workload.

    python3 perfbench/make_reference.py corpus-solve [more workloads]

Writes ``perfbench/reference/<workload>.txt``: for each universe entry,
in order, the digest of the op's canonical output and the entry's cost
key.  Run it only at a commit whose outputs are trusted (the seed
commit, whose solver the acceptance suite checks against brute force on
the whole corpus); every later commit is checked against these files.
An op that raises aborts the recording: the workloads are chosen so that
none does.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(name: str) -> Path:
    wl = workloads.WORKLOADS[name]
    lines = []
    for entry in wl.universe():
        case = wl.make_input(entry)
        result = wl.op(case)
        lines.append(f"{wl.digest(result)} {wl.cost_key(case, result)}\n")
    path = HERE / "reference" / f"{name}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(lines))
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        print(record(name), flush=True)
