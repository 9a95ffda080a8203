"""Command-line driver with deterministic, machine-readable output.

Exit codes: 0 when all requested checks pass, 1 when a mathematical check
fails, 2 on usage errors.  All reports are JSON with sorted keys; crystal
graphs can also be emitted as DOT digraphs with color-labelled edges.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .cartan import parse_weight, pairing
from .grothendieck import character_library, divided_power_integrality, serre_verify
from .realizations import (
    ConsistencyFailure,
    generate_binfty,
    generate_blambda,
    splitting_strictness_report,
    star_commutation_report,
)
from .supermodules import relation_suites


def _unwritable(path, reason):
    """A usage error, exit 2 as argparse does."""
    sys.stderr.write(f"cannot write report to {path}: {reason}\n")
    raise SystemExit(2)


def _check_out(path):
    """Exit 2 before any report is computed when --out is itself a directory
    or its directory is missing or read-only; nothing is created, so no
    empty file is left."""
    if os.path.isdir(path):
        _unwritable(path, os.strerror(errno.EISDIR))
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        _unwritable(path, os.strerror(code))
    if not os.access(parent, os.W_OK):
        _unwritable(path, os.strerror(errno.EACCES))


def _write(text, args):
    """Write a report to --out when given, else to stdout."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _unwritable(args.out, exc.strerror)
    else:
        sys.stdout.write(text)


def _emit(payload, args):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


def _graph_json(graph, lam=None):
    nodes = []
    for nid, fam in enumerate(graph.nodes):
        w = fam.wt() if lam is None else lam + fam.wt()
        eps = [fam.eps(i) for i in range(graph.l)]
        nodes.append(
            {
                "id": nid,
                "wt": {"lam": list(w.lam), "alpha": list(w.alpha)},
                "eps": eps,
                "phi": [e + pairing(i, w) for i, e in enumerate(eps)],
            }
        )
    edges = [
        {"from": s, "to": d, "color": c} for s, d, c in graph.edges
    ]
    return {"nodes": nodes, "edges": edges}


def _graph_dot(graph):
    lines = ["digraph crystal {"]
    for nid in range(len(graph.nodes)):
        lines.append(f'  n{nid} [label="{nid}"];')
    for s, d, c in graph.edges:
        lines.append(f"  n{s} -> n{d} [label={c}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_relations(args):
    reports = []
    ok = True
    suites = ("s5", "shuffle") if args.suite == "all" else (args.suite,)
    for name, rep in relation_suites(args.l, suites).items():
        rep["suite"] = name
        reports.append(rep)
        ok &= rep["ok"]
    _emit({"l": args.l, "ok": ok, "suites": reports}, args)
    return 0 if ok else 1


def cmd_serre(args):
    rep = serre_verify(args.l)
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_char(args):
    lib = [
        {
            "i": label[0],
            "j": label[1],
            "a": label[2],
            "b": label[3],
            "character": ch.to_json(),
        }
        for label, ch in character_library(args.l)
    ]
    failures = divided_power_integrality(args.l)
    payload = {"l": args.l, "library": lib, "integrality_failures": failures}
    _emit(payload, args)
    return 0 if not failures else 1


def cmd_crystal(args):
    if args.which == "binfty":
        if args.lam is not None:
            print("binfty takes no --lambda", file=sys.stderr)
            return 2
        graph = generate_binfty(args.l, args.depth)
        lam = None
    else:
        if not args.lam:
            print("blambda requires --lambda", file=sys.stderr)
            return 2
        try:
            lam = parse_weight(args.l, args.lam)
        except ValueError as exc:
            print(f"bad --lambda: {exc}", file=sys.stderr)
            return 2
        graph = generate_blambda(args.l, lam, args.depth)
    issues = star_commutation_report(graph) if args.which == "binfty" else []
    if args.format == "dot":
        _write(_graph_dot(graph), args)
    else:
        _emit(_graph_json(graph, lam), args)
    return 0 if not issues else 1


def cmd_all(args):
    parts = relation_suites(args.l)
    ok = parts["s5"]["ok"] and parts["shuffle"]["ok"]
    sr = serre_verify(args.l)
    parts["serre"] = sr
    ok &= sr["ok"]
    graph = generate_binfty(args.l, args.depth)
    crystal_issues = star_commutation_report(graph)
    for fam in graph.nodes:
        crystal_issues.extend(splitting_strictness_report(fam, args.l))
    parts["crystal"] = {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "issues": crystal_issues,
    }
    ok &= not crystal_issues
    parts["integrality_failures"] = divided_power_integrality(args.l)
    ok &= not parts["integrality_failures"]
    _emit({"l": args.l, "ok": ok, "parts": parts}, args)
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heckeclifford",
        description="Exact verification suites and crystal graph generation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, depth_default=None):
        p.add_argument("--l", type=int, required=True, help="index count, >= 2")
        p.add_argument("--out", help="write the report to a file")
        if depth_default is not None:
            p.add_argument("--depth", type=int, default=depth_default)

    p = sub.add_parser("relations", help="matrix-level verification suites")
    common(p)
    p.add_argument("--suite", choices=["s5", "shuffle", "all"], default="all")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("serre", help="operator identities on characters")
    common(p)
    p.set_defaults(func=cmd_serre)

    p = sub.add_parser("char", help="character library as JSON")
    common(p)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("crystal", help="crystal graph generation")
    p.add_argument("which", choices=["binfty", "blambda"])
    common(p, depth_default=4)
    p.add_argument("--lambda", dest="lam", help='dominant weight "k0,k1,.."')
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("all", help="every suite at one index count")
    common(p, depth_default=4)
    p.set_defaults(func=cmd_all)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.l < 2:
        ap.error("--l must be at least 2")
    if getattr(args, "depth", 0) is not None and getattr(args, "depth", 0) < 0:
        ap.error("--depth must be nonnegative")
    if args.out:
        _check_out(args.out)
    try:
        return args.func(args)
    except (ArithmeticError, ValueError, ConsistencyFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
