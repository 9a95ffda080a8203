"""One benchmark pass of one workload, in a fresh process.

    python3 benchsuite/worker.py --workload verify-l3 --seed 0 --mode plain \\
        --spawned <time.monotonic() before the process was started> --workdir DIR

Modes: ``setup`` stops at the first workload call; ``plain`` runs the pass
untraced; ``spans`` and ``counts`` run it under the tracers of ``tracing.py``.
The last line of standard output is one JSON object with the pass's
``setup_s`` (process start, imports and field construction up to the first
workload call), ``wall_s`` (first workload call to verdict), ``peak_rss_mb``,
the checks ``attempted`` and ``failed``, the digest of the outputs and, for
traced passes, the per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verdict  # noqa: E402


def import_library():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "heckeclifford" / "__init__.py").is_file():
        raise SystemExit(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heckeclifford

    if Path(heckeclifford.__file__).resolve().parent != SRC / "heckeclifford":
        raise SystemExit(f"imported heckeclifford from {heckeclifford.__file__}")
    from heckeclifford import kernels

    return kernels.BACKEND


# -- verify-l3 ------------------------------------------------------------------

VERIFY_COMMANDS = [
    ("relations", ["relations", "--l", "3", "--suite", "all"]),
    ("serre", ["serre", "--l", "3"]),
    ("char", ["char", "--l", "3"]),
]


class VerifyL3:
    """The rank 2..4 suites, Serre identities and characters at l = 3.

    Fixed inputs; the seed only drives the extra ``serre_verify`` call's
    random words, whose report must equal the CLI's byte for byte.
    """

    name = "verify-l3"

    def setup(self, seed):
        from heckeclifford import cli, grothendieck
        from heckeclifford.scalars import CycField

        CycField.for_l(3)
        self.cli, self.grothendieck, self.seed = cli, grothendieck, seed

    def run(self, workdir, span, ref):
        reports, codes = {}, {}
        for name, argv in VERIFY_COMMANDS:
            path = workdir / f"{name}.json"
            with span(f"workload.{name}"):
                codes[name] = self.cli.main(argv + ["--out", str(path)])
            reports[name] = path.read_bytes() if path.exists() else None
        with span("workload.serre_seeded"):
            rep = self.grothendieck.serre_verify(3, rng=random.Random(self.seed))
        seeded = (json.dumps(rep, indent=2, sort_keys=True) + "\n").encode()
        attempted, failed = verdict.judge_verify(reports, codes, seeded, ref)
        digests = {k: verdict.sha256(v) for k, v in reports.items() if v is not None}
        return attempted, failed, digests


# -- linalg-random --------------------------------------------------------------

FAMILIES = 64
COORDS = 12
RANK = 6
EXTRA = 3
QUERIES = 6
NONZEROS = 4  # per generator, on the coordinates outside the unit block
UPPER = 2  # off-diagonal coefficients per independent combination
PICKS = 3  # vectors per dependent combination and per in-span query


def _small(rng):
    """A field element with 5 of its 8 integer coefficients in +-1..3."""
    nums = [0] * 8
    for k in rng.sample(range(8), 5):
        nums[k] = rng.choice((-3, -2, -1, 1, 2, 3))
    return (nums, 1)


def _raw(el):
    # integer coefficients throughout generation, so den is 1 and canonical
    return (tuple(el[0]), el[1])


def _combo(coeffs, vectors):
    return {k: _raw(x) for k, x in verdict.combine(coeffs, vectors).items()}


def make_family(rng):
    """Rank-RANK vectors in Q(zeta_16)^COORDS, with in- and out-of-span queries.

    Generators carry a scaled unit block on RANK scattered coordinates, so
    they are independent, and satisfy one integer functional (weights), so a
    query the functional does not kill is certifiably outside their span.
    Every family has the same shape, so the work per seed varies little.
    """
    perm = list(range(COORDS))
    rng.shuffle(perm)
    unit, free, slack = perm[:RANK], perm[RANK:-1], perm[-1]
    weights = {k: rng.randint(1, 3) for k in range(COORDS)}
    weights[slack] = 1
    gens = []
    for j in range(RANK):
        g = {unit[j]: _small(rng)}
        g.update({k: _small(rng) for k in rng.sample(free, NONZEROS)})
        s = verdict.functional(weights, g)
        if not verdict.el_is_zero(s):
            g[slack] = ([-x for x in s[0]], 1)
        gens.append({k: _raw(x) for k, x in g.items()})
    one = ([1] + [0] * 7, 1)
    coeff_rows = []
    for j in range(RANK):
        row = {j: one}
        later = range(j + 1, RANK)
        row.update({i: _small(rng) for i in rng.sample(later, min(UPPER, len(later)))})
        coeff_rows.append(row)
    for _ in range(EXTRA):
        coeff_rows.append({i: _small(rng) for i in rng.sample(range(RANK), PICKS)})
    rng.shuffle(coeff_rows)
    vectors = [_combo(row, gens) for row in coeff_rows]
    queries = []
    for q in range(QUERIES):
        if q % 2 == 0:
            picks = rng.sample(range(len(vectors)), PICKS)
            queries.append(("in", _combo({t: _small(rng) for t in picks}, vectors)))
        else:
            v = {k: _small(rng) for k in rng.sample(range(COORDS), NONZEROS + 1)}
            if verdict.el_is_zero(verdict.functional(weights, v)):
                v[slack] = verdict.el_add(v.get(slack, ([0] * 8, 1)), one)
                if verdict.el_is_zero(v[slack]):
                    del v[slack]
            queries.append(("out", {k: _raw(x) for k, x in v.items()}))
    # each structure eliminates the family in its own order, so pivots (and
    # the elements inverted to normalize them) rarely repeat between them
    orders = [list(range(len(vectors))) for _ in range(3)]
    orders[0].reverse()
    rng.shuffle(orders[1])
    rng.shuffle(orders[2])
    return {"weights": weights, "vectors": vectors, "queries": queries, "orders": orders}


class LinalgRandom:
    """Seeded random rank-deficient families eliminated through ``linalg``.

    Every dependency and every coordinate vector is checked exactly against
    the vectors it claims to combine, in the oracle arithmetic of
    ``verdict``; every out-of-span verdict is certified by the family's
    functional.
    """

    name = "linalg-random"

    def setup(self, seed):
        from heckeclifford import linalg
        from heckeclifford.scalars import CycField

        self.field = CycField.for_l(4)
        if tuple(self.field.modulus) != verdict.MODULUS:
            raise SystemExit("linalg-random expects Q(zeta_16) with modulus x^8 + 1")
        self.linalg = linalg
        self.seed = seed
        rng = random.Random(seed)
        self.families = [make_family(rng) for _ in range(FAMILIES)]

    def run(self, workdir, span, ref):
        linalg, field = self.linalg, self.field
        attempted = failed = 0
        results = []
        for fam in self.families:
            vectors = fam["vectors"]
            rank_order, echelon_order, tracker_order = fam["orders"]
            with span("workload.eliminate"):
                deps = linalg.nullspace_combinations(field, list(enumerate(vectors)))
                rank = linalg.rank_of(field, [vectors[t] for t in rank_order])
                ech, tracker = linalg.Echelon(field), linalg.Tracker(field)
                for t in echelon_order:
                    ech.insert(vectors[t])
                for t in tracker_order:
                    tracker.insert(vectors[t], t)
            with span("workload.query"):
                answers = [
                    (ech.contains(q), tracker.express(q)) for _, q in fam["queries"]
                ]
            with span("workload.check"):
                oks = [
                    rank == RANK
                    and ech.dim == RANK
                    and len(tracker.tags) == RANK
                    and len(deps) == len(vectors) - RANK,
                    all(
                        dep
                        and any(verdict.el_is_one(c) for c in dep.values())
                        and not verdict.combine(dep, vectors)
                        for dep in deps
                    ),
                ]
                for (kind, q), (inside, coords) in zip(fam["queries"], answers):
                    if kind == "in":
                        oks.append(
                            inside
                            and coords is not None
                            and verdict.vectors_equal(verdict.combine(coords, vectors), q)
                        )
                    else:
                        cert = verdict.functional(fam["weights"], q)
                        oks.append(
                            not verdict.el_is_zero(cert) and not inside and coords is None
                        )
            attempted += len(oks)
            failed += sum(1 for ok in oks if not ok)
            results.append(
                {
                    "rank": rank,
                    "deps": [verdict.combo_json(d) for d in deps],
                    "answers": [
                        [inside, None if c is None else verdict.combo_json(c)]
                        for inside, c in answers
                    ],
                }
            )
        digest = verdict.sha256(verdict.canonical(results).encode())
        expected = (ref or {}).get("digests", {}).get(str(self.seed))
        if expected is not None and expected != digest:
            failed = attempted
        return attempted, failed, {"results": digest}


# -- crystal-l4 -----------------------------------------------------------------


CRYSTAL_DEPTH = 7  # 1,755 nodes; short passes, so a run takes the median of many


class CrystalL4:
    """B(infinity) at l = 4 to CRYSTAL_DEPTH: JSON report, then strictness per node.

    Fixed inputs; the seed does not change them.
    """

    name = "crystal-l4"

    def setup(self, seed):
        from heckeclifford import cli, realizations
        from heckeclifford.cartan import cartan_matrix

        cartan_matrix(4)
        self.cli, self.realizations = cli, realizations

    def run(self, workdir, span, ref):
        cli = self.cli
        path = workdir / "crystal.json"
        graphs = []
        generate = cli.generate_binfty

        def keep_graph(l, depth):
            graphs.append(generate(l, depth))
            return graphs[-1]

        cli.generate_binfty = keep_graph
        try:
            with span("workload.crystal"):
                code = cli.main(
                    ["crystal", "binfty", "--l", "4", "--depth", str(CRYSTAL_DEPTH),
                     "--out", str(path)]
                )
        finally:
            cli.generate_binfty = generate
        report = path.read_bytes() if path.exists() else None
        with span("workload.strictness"):
            node_issues = [
                self.realizations.splitting_strictness_report(fam, 4)
                for graph in graphs
                for fam in graph.nodes
            ]
        attempted, failed = verdict.judge_crystal(report, code, node_issues, ref)
        digests = {"crystal": verdict.sha256(report)} if report is not None else {}
        return attempted, failed, digests


WORKLOADS = {w.name: w for w in (VerifyL3, LinalgRandom, CrystalL4)}


# -- per-layer statistics -------------------------------------------------------


def span_metrics(tracer):
    agg = tracer.aggregate()
    out = {}
    for _, _, metric in tracing.SPAN_TARGETS:
        row = agg.get(metric, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat, value in row.items():
            out[f"{metric}.{stat}"] = value
    stats = tracer.stats
    for key in (
        "linalg.nullspace_combinations.vectors",
        "linalg.nullspace_combinations.deps",
        "supermodules.formal_character.kdim",
        "realizations.generate_binfty.nodes",
        "realizations.generate_binfty.edges",
    ):
        out[key] = stats.get(key, 0)
    calls = out["scalars.raw_inverse.calls"]
    distinct = len(tracer.inverse_args)
    out["scalars.raw_inverse.distinct"] = distinct
    out["scalars.raw_inverse.repeat_ratio"] = 1 - distinct / calls if calls else 0.0
    eigs = out["supermodules.generalized_eigs.calls"]
    hits = stats.get("supermodules.generalized_eigs.hits", 0)
    out["supermodules.generalized_eigs.hit_ratio"] = hits / eigs if eigs else 0.0
    out["supermodules.generalized_eigs.steps"] = tracer.children_named(
        "supermodules.generalized_eigs", "linalg.nullspace_combinations"
    )
    computes = stats.get("supermodules.with_splitting.computes", 0)
    out["supermodules.with_splitting.retries"] = (
        computes - out["supermodules.with_splitting.calls"]
    )
    root = agg.get("pass", {}).get("total_s", 0.0)
    out["trace.span_wall_s"] = root
    return out


def count_metrics(tracer):
    counts = tracer.counts()
    return {f"{metric}.calls": counts.get(metric, 0) for _, _, metric in tracing.COUNT_TARGETS}


# -- entry point ----------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "spans", "counts"], required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    backend = import_library()
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    ref = verdict.load_reference().get(args.workload)
    tracer = None
    if args.mode == "spans":
        tracer = tracing.SpanTracer()
    elif args.mode == "counts":
        tracer = tracing.CountTracer()
    if tracer is not None:
        tracer.install()
    span = tracer.span if args.mode == "spans" else lambda name: contextlib.nullcontext()

    t_first = time.monotonic()
    result = {"setup_s": t_first - args.spawned, "backend": backend}
    if args.mode != "setup":
        with span("pass"):
            attempted, failed, digests = workload.run(args.workdir, span, ref)
        result["wall_s"] = time.monotonic() - t_first
        if tracer is not None:
            tracer.uninstall()
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=attempted,
            failed=failed,
            digests=digests,
        )
        if args.mode == "spans":
            result["layers"] = span_metrics(tracer)
        elif args.mode == "counts":
            result["layers"] = count_metrics(tracer)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
