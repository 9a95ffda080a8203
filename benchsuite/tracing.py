"""Span and count tracing of the library from outside, by attribute patching.

Nothing in the library is edited: a tracer replaces module functions and class
methods with wrappers for the duration of one traced pass and restores them
afterwards.  A module-level function is replaced under every module binding
that holds the same object, so names imported with ``from .x import f``
(``cli.generate_binfty``, ...) are traced as well.

Two kinds of pass, never mixed in one process:

* the span pass records one span per call of the layer-boundary functions in
  ``SPAN_TARGETS``: name, start, end and parent, kept in flat arrays in
  memory and aggregated when the pass ends;
* the count pass only counts calls of the per-element functions in
  ``COUNT_TARGETS`` (field kernels, crystal operators), whose wrapping is too
  costly to mix with span timing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

PACKAGE = "heckeclifford"

# (module, attribute path, metric prefix); the prefix drops the class only
# where the layer table names the function without it.
SPAN_TARGETS = [
    ("scalars", "CycField.raw_inverse", "scalars.raw_inverse"),
    ("scalars", "ScalarModel.split", "scalars.ScalarModel.split"),
    ("linalg", "nullspace_combinations", "linalg.nullspace_combinations"),
    ("linalg", "Tracker.insert", "linalg.Tracker.insert"),
    ("linalg", "Tracker.express", "linalg.Tracker.express"),
    ("linalg", "Echelon.insert", "linalg.Echelon.insert"),
    ("linalg", "Echelon.contains", "linalg.Echelon.contains"),
    ("linalg", "rank_of", "linalg.rank_of"),
    ("linalg", "mat_vec", "linalg.mat_vec"),
    ("supermodules", "low_rank_suite", "supermodules.low_rank_suite"),
    ("supermodules", "shuffle_compat_suite", "supermodules.shuffle_compat_suite"),
    ("supermodules", "formal_character", "supermodules.formal_character"),
    ("supermodules", "generalized_eigs", "supermodules.generalized_eigs"),
    ("supermodules", "induce", "supermodules.induce"),
    ("supermodules", "tensor_product", "supermodules.tensor_product"),
    ("supermodules", "submodule", "supermodules.submodule"),
    ("supermodules", "quotient", "supermodules.quotient"),
    ("supermodules", "circled_star", "supermodules.circled_star"),
    ("supermodules", "sigma_twist", "supermodules.sigma_twist"),
    ("supermodules", "verify_relations", "supermodules.verify_relations"),
    ("supermodules", "invariance_witness", "supermodules.invariance_witness"),
    ("supermodules", "eigen_image_vectors", "supermodules.eigen_image_vectors"),
    ("supermodules", "with_splitting", "supermodules.with_splitting"),
    ("supermodules", "discover_square_root", "supermodules.discover_square_root"),
    ("algebra", "HeckeClifford.coset_decompose", "algebra.HeckeClifford.coset_decompose"),
    ("grothendieck", "serre_verify", "grothendieck.serre_verify"),
    ("grothendieck", "character_library", "grothendieck.character_library"),
    ("grothendieck", "divided_power_integrality", "grothendieck.divided_power_integrality"),
    ("grothendieck", "shuffle", "grothendieck.shuffle"),
    ("realizations", "generate_binfty", "realizations.generate_binfty"),
    ("realizations", "star_commutation_report", "realizations.star_commutation_report"),
    ("realizations", "splitting_strictness_report", "realizations.splitting_strictness_report"),
    ("cli", "main", "cli.main"),
]

COUNT_TARGETS = [
    ("kernels", "felem_mul", "kernels.felem_mul"),
    ("kernels", "felem_submul", "kernels.felem_submul"),
    ("kernels", "felem_neg", "kernels.felem_neg"),
    ("kernels", "felem_add", "kernels.felem_add"),
    ("kernels", "felem_normalize", "kernels.felem_normalize"),
    ("realizations", "PathCrystal.f", "realizations.PathCrystal.f"),
    ("realizations", "PathCrystal.e", "realizations.PathCrystal.e"),
    ("realizations", "PathCrystal.eps", "realizations.PathCrystal.eps"),
    ("realizations", "PathCrystal.phi", "realizations.PathCrystal.phi"),
    ("crystal", "TensorCrystal.f", "crystal.TensorCrystal.f"),
    ("crystal", "TensorCrystal.eps", "crystal.TensorCrystal.eps"),
    ("crystal", "TensorCrystal.phi", "crystal.TensorCrystal.phi"),
]


class Patcher:
    """Replaces library attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def patch(self, module, path, make_wrapper):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make_wrapper(original))
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """Records a span per call of the ``SPAN_TARGETS`` functions.

    A span is (name, start, end, parent); the parent is the innermost span
    open when the call began, or -1 for the pass's root span.  Extra
    per-call statistics (argument sizes, result properties) are gathered by
    the hooks in ``_HOOKS``.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")
        self._stack = []
        self._active = {}
        self.stats = {}
        self.inverse_args = set()
        self._patcher = Patcher()

    def install(self):
        for module, path, metric in SPAN_TARGETS:
            self._patcher.patch(module, path, functools.partial(self._wrap, metric))

    def uninstall(self):
        self._patcher.restore()

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        depth = self._active.get(nid, 0)
        self._active[nid] = depth + 1
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name_of[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a workload step."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, metric, fn):
        before, after = _HOOKS.get(metric, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            idx = tracer._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def add(self, key, amount=1):
        self.stats[key] = self.stats.get(key, 0) + amount

    def aggregate(self):
        """Per-name calls, total_s and self_s.

        total_s sums only spans not nested in a span of the same name, so
        recursion is not counted twice; self_s is a span's duration minus the
        part covered by its child spans.
        """
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        out = {}
        for k in range(n):
            name = self.names[self.name_of[k]]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[k] - child[k]
            if not self.nested[k]:
                row["total_s"] += dur[k]
        return out

    def children_named(self, parent_name, child_name):
        """Number of spans named ``child_name`` whose parent is ``parent_name``."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for k in range(len(self.start))
            if self.name_of[k] == cid and self.parent[k] >= 0
            and self.name_of[self.parent[k]] == pid
        )


class CountTracer:
    """Counts calls of the ``COUNT_TARGETS`` functions; records no time."""

    def __init__(self):
        self.cells = {}
        self._patcher = Patcher()

    def install(self):
        for module, path, metric in COUNT_TARGETS:
            self._patcher.patch(module, path, functools.partial(self._wrap, metric))

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, metric, fn):
        cell = self.cells.setdefault(metric, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def counts(self):
        return {metric: cell[0] for metric, cell in self.cells.items()}


# -- per-function statistics beyond calls and time ------------------------------
#
# metric -> (before, after): before(tracer, args) returns the positional
# arguments to call with, after(tracer, result) sees the result.  The library
# calls every hooked function positionally.


def _inverse_args(tracer, args):
    # CycField.raw_inverse(self, raw)
    tracer.inverse_args.add(args[1])
    return args


def _nullspace_args(tracer, args):
    # nullspace_combinations(field, tagged_vectors)
    tagged = list(args[1])
    tracer.add("linalg.nullspace_combinations.vectors", len(tagged))
    return (args[0], tagged) + args[2:]


def _nullspace_result(tracer, deps):
    tracer.add("linalg.nullspace_combinations.deps", len(deps))


def _character_args(tracer, args):
    M = args[0]
    tracer.add("supermodules.formal_character.kdim", M.dim * M.rank)
    return args


def _eigs_result(tracer, result):
    # generalized_eigs returns (vectors, depth)
    tracer.add("supermodules.generalized_eigs.hits", 1 if result[0] else 0)


def _splitting_args(tracer, args):
    # with_splitting(make, compute, ...): every compute call past the first
    # of one with_splitting call is a retry in a split ring
    compute = args[1]

    def counted_compute(model):
        tracer.add("supermodules.with_splitting.computes", 1)
        return compute(model)

    return (args[0], counted_compute) + args[2:]


def _graph_result(tracer, graph):
    tracer.add("realizations.generate_binfty.nodes", len(graph.nodes))
    tracer.add("realizations.generate_binfty.edges", len(graph.edges))


_HOOKS = {
    "scalars.raw_inverse": (_inverse_args, None),
    "linalg.nullspace_combinations": (_nullspace_args, _nullspace_result),
    "supermodules.formal_character": (_character_args, None),
    "supermodules.generalized_eigs": (None, _eigs_result),
    "supermodules.with_splitting": (_splitting_args, None),
    "realizations.generate_binfty": (None, _graph_result),
}
