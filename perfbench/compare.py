"""Compare the artifact digests of two benchmark run sets.

    python3 perfbench/compare.py RUNS_A RUNS_B

RUNS_A and RUNS_B are `perfbench/runs` directories of two checkouts (for
example a parent commit and a change).  For every workload and seed present
in both, each operation's data artifacts must have identical SHA-256
digests: same configuration and seed give bit-identical results.  Exits 1 on
any mismatch or when the two sets share no run.
"""

import json
import os
import sys


def load(root):
    runs = {}
    for workload in sorted(os.listdir(root)):
        wdir = os.path.join(root, workload)
        for seed in sorted(os.listdir(wdir)):
            path = os.path.join(wdir, seed, "digests.json")
            if os.path.isfile(path):
                with open(path) as fh:
                    runs[(workload, seed)] = json.load(fh)
    return runs


def compare(a, b):
    """Mismatch descriptions for the runs both sets hold, and their count."""
    shared = sorted(set(a) & set(b))
    problems = []
    for key in shared:
        ops_a, ops_b = a[key], b[key]
        for op in sorted(set(ops_a) | set(ops_b)):
            if ops_a.get(op) != ops_b.get(op):
                problems.append(f"{key[0]} {key[1]} {op}: artifacts differ")
    return problems, len(shared)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    problems, shared = compare(load(sys.argv[1]), load(sys.argv[2]))
    for line in problems:
        print(line)
    print(f"{shared} shared runs, {len(problems)} mismatching operations")
    return 1 if problems or not shared else 0


if __name__ == "__main__":
    sys.exit(main())
