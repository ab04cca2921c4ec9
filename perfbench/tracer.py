"""Outside-in spans and counters for the sembed benchmark.

`Probe.install` rebinds public sembed functions to wrappers in every
`sembed.*` module namespace that holds them, so names a module imported by
value (``from .assembly import assemble``) are covered too, and rebinds two
methods of `ReferenceElement` on the class. Nothing under ``src/`` is
edited; `Probe.uninstall` restores every binding.

Each wrapper can open a span (name, start, end, parent) and feeds the
counters and the per-cell fingerprint record. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). The span name's prefix is the layer.
TARGETS = (
    ("sembed.refelem", "ReferenceElement.eval_basis", "refelem.eval_basis"),
    ("sembed.refelem", "ReferenceElement.eval_basis_grad", "refelem.eval_basis_grad"),
    ("sembed.refelem", "build_reference_element", "refelem.build"),
    ("sembed.meshing", "generate_structured_disk", "meshing.generate_structured_disk"),
    ("sembed.meshing", "generate_structured_square", "meshing.generate_structured_square"),
    ("sembed.embedding", "classify_elements", "embedding.classify"),
    ("sembed.embedding", "build_surrogate", "embedding.build_surrogate"),
    ("sembed.assembly", "build_dof_map", "assembly.dof_map"),
    ("sembed.assembly", "assemble", "assembly.assemble"),
    ("sembed.solve", "solve_direct", "solve.solve_direct"),
    ("sembed.solve", "condition_number", "solve.condition_number"),
    ("sembed.mms", "l1_error", "mms.l1_error"),
    ("sembed.experiments", "run", "experiments.run"),
    ("sembed.experiments", "random_embedding_assessment",
     "experiments.random_embedding_assessment"),
    ("sembed.experiments", "disk_fixture", "experiments.disk_fixture"),
)

# The targets whose results make up a cell's fingerprint. They are hooked in
# untraced runs as well, without spans.
CELL_TARGETS = ("solve.solve_direct", "solve.condition_number", "mms.l1_error")

PASS_SPAN = "pass"
FALLBACK_LOGGER = "sembed.embedding"


class Span:
    __slots__ = ("name", "start", "end", "parent", "root")

    def __init__(self, name, start, end, parent, root):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.root = root  # index of the pass span this one belongs to

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.root]


def self_times(spans):
    """Each span's duration minus the part of it covered by its children.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[i]
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def totals_by_root(spans):
    """{root index: {span name: [self seconds, calls]}} over all spans."""
    out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.root][span.name]
        entry[0] += own
        entry[1] += 1
    return out


class _FallbackCounter(logging.Handler):
    """Counts closest-point fallbacks that build_surrogate logs."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "falling back" in record.getMessage():
            self.counts["embedding.fallbacks"] += 1


class Probe:
    """Wrappers, spans, counters and fingerprint cells of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cells: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.installed: set[str] = set()  # targets wrapped in this run
        self.tracing = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._handler = None
        self._cond_method = None
        self._last_solve = None

    # -- installation -------------------------------------------------

    def install(self, names):
        """Wrap the targets named in `names`; list the ones that are gone."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "sembed" or key.startswith("sembed.")
        ]
        for module_name, attr, name in TARGETS:
            if name not in names:
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name)
            if owner_name:
                self._rebind(owner, leaf, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapper)
            self.installed.add(name)
        if "embedding.build_surrogate" in self.installed:
            self._handler = _FallbackCounter(self.counts)
            logging.getLogger(FALLBACK_LOGGER).addHandler(self._handler)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        if self._handler is not None:
            logging.getLogger(FALLBACK_LOGGER).removeHandler(self._handler)
            self._handler = None

    def _rebind(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, fn, name):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe._before(name, args, kwargs)
            index = probe._open(name) if probe.tracing else -1
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                probe.counts[name + ".value_errors"] += 1
                raise
            finally:
                if index >= 0:
                    probe._close(index)
            probe._after(name, args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]].root if self._stack else index
        self._stack.append(index)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, root))
        return index

    def _close(self, index):
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def begin_pass(self, traced):
        """Reset the per-pass counters; open the pass span when traced."""
        self.counts.clear()
        self.tracing = traced
        return self._open(PASS_SPAN) if traced else -1

    def end_pass(self, index):
        if index >= 0:
            self._close(index)
        self.tracing = False
        self._stack.clear()  # a pass that raised may leave spans open
        return dict(self.counts)

    # -- counters and fingerprint cells -------------------------------

    def _before(self, name, args, kwargs):
        self.counts[name + ".calls"] += 1
        if name == "solve.condition_number":
            self._cond_method = _cond_method(args, kwargs)
            self.counts[f"solve.cond_{self._cond_method}_calls"] += 1

    def _after(self, name, args, kwargs, result):
        if name == "solve.solve_direct":
            system = args[0] if args else kwargs.get("system")
            self._last_solve = (system, result.cond, self._cond_method)
            self._cond_method = None
        elif name == "mms.l1_error":
            system = args[1] if len(args) > 1 else kwargs.get("system")
            cell = {
                "n_dof": int(system.rhs.size),
                "nnz": int(system.matrix.nnz),
                "l1": float(result),
            }
            if self._last_solve is not None and self._last_solve[0] is system:
                _, cond, method = self._last_solve
                if method is not None:
                    cell["cond"] = float(cond)
                    cell["cond_method"] = method
            self.cells.append(cell)
        elif name == "assembly.assemble":
            self.counts["assembly.n_dof"] += int(result.rhs.size)
            self.counts["assembly.nnz"] += int(result.matrix.nnz)
        elif name == "embedding.build_surrogate":
            self.counts["embedding.records"] += len(result.records)


def _cond_method(args, kwargs):
    """Which path condition_number takes: the explicit method if given,
    else what sembed.solve.SVD_LIMIT selects for this size. SolveReport's
    own cond_method is not used: it names a method even when no condition
    number was computed."""
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    if method is not None:
        return "svd" if method == "svd" else "estimate"
    limit = getattr(sys.modules.get("sembed.solve"), "SVD_LIMIT", None)
    if limit is None:
        return "unknown"
    return "svd" if args[0].shape[0] <= limit else "estimate"
