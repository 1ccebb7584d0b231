"""Record the decision digest of every workload for a range of seeds.

Run from the root of a source checkout, at a commit whose decisions are
trusted:

    python3 perfbench/record_digests.py --size full --seeds 0-99

For each seed it sets the workload up, runs one operation, checks it
against the truth and stores, in ``perfbench/digests.json``, the digest of
its decisions and the checks it failed ("misses").  The estimator does not
recover the truth at every seed; at a seed with recorded misses a later run
passes only if it reproduces exactly the recorded output.  Read the misses
before committing a new table: a miss must be a finite-sample miss of the
method, never a malformed output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

from run import (HERE, RECORDED_INPUTS, cap_blas_threads, import_package,
                 set_up)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seeds", default="0-99", help="inclusive range a-b")
    ap.add_argument("--workload", action="append",
                    help="restrict to this workload (repeatable)")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    if not 0 <= first <= last < RECORDED_INPUTS[args.size]:
        ap.error(f"--seeds must lie in 0-{RECORDED_INPUTS[args.size] - 1}, "
                 "the inputs that run.py maps --seed onto")
    cap_blas_threads()
    root = Path.cwd()
    import_package(root)
    from workloads import WORKLOADS

    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        recorded = table.setdefault(name, {}).setdefault(args.size, {})
        for seed in range(first, last + 1):
            ns = SimpleNamespace(seed=seed, size=args.size)
            state, _, workdir = set_up(wl, ns, root, f"record{seed}")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    result = wl.operation(state)()
                outcome = wl.check(state, result)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded[str(seed)] = {"digest": outcome.digest,
                                   "misses": outcome.problems}
            print(f"{name} seed {seed}: {outcome.digest} {outcome.problems}",
                  flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
