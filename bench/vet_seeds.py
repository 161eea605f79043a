"""Regenerate verify_seeds.json, the mrplab seeds the verify-all workload uses.

    python3 bench/vet_seeds.py

Each suite of `mrplab verify` is a statistical test, so on a proper model it
rejects on a small share of seeds by design (see "Generated inputs and
seeds" in README.md for the rates).  A benchmark operation must not fail on
some seeds only, so verify-all draws its mrplab seed from this list:
candidate seeds 1000, 1001, ... in order, kept when one verify-all pass
gives every expected verdict.  The rejected candidates are recorded with
their reasons.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, child_env, run_child
from workloads import VERIFY_SEEDS_FILE, VerifyAll

FIRST_CANDIDATE = 1000
COUNT = 16  # seeds kept; verify-all picks entry `seed mod COUNT`


def main():
    env = child_env()
    workdir = os.path.join(OUT, f"vet-{os.getpid()}")
    os.makedirs(workdir)
    kept, rejected = [], {}
    try:
        candidate = FIRST_CANDIDATE
        while len(kept) < COUNT:
            wl = VerifyAll(0, workdir, mrplab_seed=candidate)
            log = os.path.join(workdir, "vet.log")
            exits = [run_child([sys.executable, "-m", "mrplab.cli", *c.argv], env, log)[0] for c in wl.calls]
            failures = wl.check(exits)
            if failures:
                rejected[str(candidate)] = failures
            else:
                kept.append(candidate)
            print(f"seed {candidate}: {'; '.join(failures) or 'kept'}", file=sys.stderr)
            candidate += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"first_candidate": FIRST_CANDIDATE, "seeds": kept, "rejected": rejected}
    with open(VERIFY_SEEDS_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
