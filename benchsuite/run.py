"""End-to-end benchmark of the verification workloads, with a traced breakdown.

    python3 benchsuite/run.py --workload verify-l3 --seed 0 --seconds 40 --trace 0
    python3 benchsuite/run.py --workload all --seed 0 --seconds 40 --trace 0 --out r.json

Run from any directory; the library is imported from ``src`` next to this
directory.  Every pass is a fresh single-threaded process (``worker.py``), one
after the other in a closed loop, because command-line users pay cold caches
and empty memos on every invocation.

``--trace 0`` runs untraced passes for about ``--seconds`` seconds (at least
one pass), with setup-only probes before each, and reports the end-to-end
metrics: median ``wall_s``, median ``setup_s`` over probes and passes, and
median ``peak_rss_mb``.  The host's speed drifts within a run, so passes are
kept short and set-up is sampled across the whole run, not only at its start.
``--trace 1`` runs one untraced pass, one span pass and one count pass, and
reports the per-layer metrics and the tracing overhead of each
traced pass (traced minus untraced ``wall_s``).  Every pass checks its outputs
exactly; see ``verdict.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also writes
the full result, with the environment it was taken in, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".benchsuite-work"
SPEC = ROOT / "BENCHMARK.json"

PROBES_PER_PASS = 3
RUN_DEADLINE_S = 170

sys.path.insert(0, str(HERE))

import verdict  # noqa: E402


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


# -- environment ----------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(backend, args):
    return {
        "backend": backend,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- passes ---------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def spawn(workload, seed, mode, deadline):
    """Run one pass in a fresh process; its result, or None if it failed."""
    if WORKDIR.exists():
        shutil.rmtree(WORKDIR)
    WORKDIR.mkdir()
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", str(WORKDIR)]
    timeout = deadline.left()
    if timeout <= 0:
        return None
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"{workload} {mode} pass exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Checks attempted and failed over the passes of one run."""

    def __init__(self, planned):
        self.planned = planned
        self.attempted = self.failed = 0
        self.backends = set()

    def add(self, res):
        if res is None:
            # a pass that crashed or timed out failed every check it plans
            self.attempted += self.planned
            self.failed += self.planned
            return
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.backends.add(res["backend"])

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0 and len(self.backends) == 1


def timed_run(name, seed, seconds, deadline, tally):
    """Untraced passes for about ``seconds`` seconds, setup probes before each."""
    setups, walls, rss = [], [], []
    start = time.monotonic()
    while True:
        for _ in range(PROBES_PER_PASS):
            res = spawn(name, seed, "setup", deadline)
            if res is None:
                raise SystemExit(f"{name}: set-up failed; no result")
            setups.append(res["setup_s"])
            tally.backends.add(res["backend"])
        res = spawn(name, seed, "plain", deadline)
        tally.add(res)
        if res is None:
            break
        setups.append(res["setup_s"])
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        # stop when another pass would overrun ``seconds`` by more than half
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(walls) / 2 > seconds:
            break
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def traced_run(name, seed, deadline, tally):
    """One untraced, one span and one count pass: per-layer metrics."""
    layers = {}
    walls = {}
    for mode in ("plain", "spans", "counts"):
        res = spawn(name, seed, mode, deadline)
        tally.add(res)
        if res is None:
            return None
        walls[mode] = res["wall_s"]
        layers.update(res.get("layers", {}))
    layers["trace.untraced_wall_s"] = walls["plain"]
    layers["trace.span_overhead_s"] = walls["spans"] - walls["plain"]
    layers["trace.count_overhead_s"] = walls["counts"] - walls["plain"]
    return layers


def highest_percentile(samples):
    """The highest percentile with at least ten samples beyond it, else max."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 20:
        return "max", ordered[-1]
    k = n - 11
    return f"p{100 * (k + 1) // n}", ordered[k]


def run_workload(name, args, spec, deadline):
    planned = verdict.load_reference()[name]["checks"]
    tally = Tally(planned)
    if args.trace:
        layers = traced_run(name, args.seed, deadline, tally)
        metrics = {}
        for m in spec["per_layer"]:
            value = layers[m["name"]] if layers is not None else 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples = {}
    else:
        samples = timed_run(name, args.seed, args.seconds, deadline, tally)
        metrics = {}
        for m in spec["end_to_end"]:
            values = samples.get(m["name"]) or [0.0]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "backend": ",".join(sorted(tally.backends)),
        "samples": samples,
    }
    if samples.get("wall_s"):
        detail["wall_s_tail"] = highest_percentile(samples["wall_s"])
    return result, detail


# -- output ---------------------------------------------------------------------


def print_row(name, result, detail):
    if "wall_s_tail" not in detail:
        print(f"{name:14s} no pass completed  failed_frac {detail['failed_frac']:.3f} ratio")
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    label, tail = detail["wall_s_tail"]
    n = len(detail["samples"]["wall_s"])
    print(
        f"{name:14s} wall_s {m['wall_s']:8.3f} s (median; {label} {tail:.3f} s; n={n})"
        f"  setup_s {m['setup_s']:6.3f} s  peak_rss_mb {m['peak_rss_mb']:7.1f} MB"
        f"  failed_frac {detail['failed_frac']:.3f} ratio"
    )


def print_layers(name, result):
    print(f"[{name}] per-layer metrics")
    for key, v in result["metrics"].items():
        value = v["value"]
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:52s} {text:>14s} {v['unit']}")


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, help="write the full result as JSON")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heckeclifford" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    deadline = Deadline(RUN_DEADLINE_S * len(chosen))
    results = {}
    try:
        for name in chosen:
            result, detail = run_workload(name, args, spec, deadline)
            results[name] = (result, detail)
            if args.trace:
                print_layers(name, result)
            else:
                print_row(name, result, detail)
    finally:
        if WORKDIR.exists():
            shutil.rmtree(WORKDIR)
    backends = {d["backend"] for _, d in results.values()}
    env = environment(",".join(sorted(backends)), args)
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.out:
        payload = {
            "env": env,
            "workloads": {n: dict(r, **d) for n, (r, d) in results.items()},
        }
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if len(chosen) == 1:
        final = results[chosen[0]][0]
    else:
        final = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, (r, _) in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
