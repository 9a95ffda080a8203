"""Record the output references that ``verdict.py`` judges passes against.

    python3 benchsuite/make_reference.py

Runs one untraced pass of each fixed-input workload and of linalg-random for
seeds 0..SEEDS-1, judged by their exact self-checks alone, and writes
``reference.json``: the sha256 of every CLI report, the number of checks per
pass and the linalg-random result digest per seed.  Any failed check aborts.
Re-run only when the library's outputs change on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verdict  # noqa: E402

SEEDS = 100


def one_pass(workload, seed):
    res = run.spawn(workload, seed, "plain", run.Deadline(run.RUN_DEADLINE_S))
    if res is None or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: pass failed, no reference written")
    return res


def main():
    # judge the passes without any stored reference
    verdict.REFERENCE.write_text("{}\n")
    ref = {}
    for name in ("verify-l3", "crystal-l4"):
        res = one_pass(name, 0)
        ref[name] = {"checks": res["attempted"], "sha256": res["digests"]}
    digests = {}
    checks = set()
    for seed in range(SEEDS):
        res = one_pass("linalg-random", seed)
        digests[str(seed)] = res["digests"]["results"]
        checks.add(res["attempted"])
        print(f"linalg-random seed {seed}: {res['wall_s']:.2f} s", file=sys.stderr)
    (planned,) = checks
    ref["linalg-random"] = {"checks": planned, "digests": digests}
    verdict.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
