"""Compare two result files written by ``run.py --out``.

    python3 benchsuite/compare.py base.json new.json

Refuses (exit 2) to compare results taken with different backends, Python
versions or machines, or in different trace modes.  Otherwise prints, per
workload and metric, both values and their ratio; for end-to-end metrics it
marks a regression when the new value is worse than the base by more than the
metric's bound in ``BENCHMARK.json``, and exits 1 if any is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# what makes two results comparable: same backend, interpreter and machine
MATCH_KEYS = ("backend", "python", "implementation", "nproc", "cpu_model", "machine", "trace")


def mismatches(base_env, new_env):
    return [k for k in MATCH_KEYS if base_env.get(k) != new_env.get(k)]


def worse_by(base, new, better):
    """Relative worsening of new against base (negative when it improved)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base, new, spec):
    """Printable rows and the number of end-to-end regressions."""
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows, regressions = [], 0
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b = base["workloads"][workload]["metrics"]
        n = new["workloads"][workload]["metrics"]
        for name in sorted(set(b) & set(n)):
            m = specs.get(name, {"better": "lower"})
            bv, nv = b[name]["value"], n[name]["value"]
            worse = worse_by(bv, nv, m["better"])
            bound = m.get("bound")
            flag = ""
            if bound is not None and worse > bound:
                flag = "REGRESSED"
                regressions += 1
            ratio = f"{nv / bv:.3f}" if bv else "-"
            rows.append(f"{workload:14s} {name:52s} {bv:14.4f} {nv:14.4f} {ratio:>7s} {flag}")
    return rows, regressions


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    bad = mismatches(base["env"], new["env"])
    if bad:
        for key in bad:
            print(f"refused: {key} differs: {base['env'].get(key)!r} vs {new['env'].get(key)!r}",
                  file=sys.stderr)
        return 2
    rows, regressions = compare(base, new, json.loads(SPEC.read_text()))
    print(f"{'workload':14s} {'metric':52s} {'base':>14s} {'new':>14s} {'ratio':>7s}")
    print("\n".join(rows))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
