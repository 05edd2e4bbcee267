"""Outside-in tracing of procline's layers.

:class:`Tracer` wraps public functions of the ``procline`` modules from the
outside: every module attribute (in any ``procline`` module) that is bound
to a wrapped function is replaced, so calls through names a module imported
from another one are seen too. Each call records a span
``(name, start_ns, end_ns, parent)`` in memory; a few wrappers also read
counts off the return value. :meth:`Tracer.restore` puts every original
back. A function that no longer exists is listed in ``absent``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _merge_counts(counts, result):
    _, trace = result
    entries = getattr(trace, "entries", ())
    counts["merge.trace_entries"] += len(entries)
    for entry in entries:
        kind = getattr(entry.kind, "value", entry.kind)
        if kind == "OperationExecuted":
            counts["merge.atomic_steps"] += entry.step_count
        elif kind == "ExclusionApplied":
            counts["merge.cascaded_references"] += entry.cascade_count


def _model_items(model):
    return len(model.elements) + len(model.references)


def _compare_counts(counts, result, a, b):
    counts["model.diffed_items"] += _model_items(a) + _model_items(b)


def _extension_items(ext):
    return len(ext.new_elements) + len(ext.new_references) + len(ext.exclusions) + len(ext.exemplars)


#: (module, function or Class.method, observer of (counts, result, *args))
TARGETS = (
    ("model", "compare_models", _compare_counts),
    ("model", "ProcessModel.remove_element", None),
    ("model", "ProcessModel.check_consistency", None),
    ("atomic", "apply_atomic", None),
    ("atomic", "validate_step", None),
    ("catalog", "builtin_catalog", None),
    ("catalog", "validate_exemplar", None),
    ("catalog", "expand_exemplar", None),
    ("merge", "merge_chain", None),
    ("merge", "merge_once", lambda c, r, *a: _merge_counts(c, r)),
    ("analytics", "usage_report", lambda c, r, *a: c.update({"analytics.exemplars_counted": r.total_exemplars})),
    ("xmlio", "parse_model", lambda c, r, *a: c.update({"xmlio.parsed_items": _model_items(r)})),
    ("xmlio", "parse_extension", lambda c, r, *a: c.update({"xmlio.parsed_items": _extension_items(r)})),
    ("xmlio", "serialize_model", lambda c, r, *a: c.update({"xmlio.serialized_bytes": len(r.encode())})),
    ("xmlio", "serialize_trace", lambda c, r, *a: c.update({"xmlio.serialized_bytes": len(r.encode())})),
    ("xmlio", "export_stats_csv", None),
    ("xmlio", "render_stats_text", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, original, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[name] += 1
            if observe is not None:
                observe(counts, result, *args)
            return result

        return traced

    def install(self):
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "procline" or n.startswith("procline.")]
        for module_name, qualname, observe in TARGETS:
            home = sys.modules.get(f"procline.{module_name}")
            name = f"{module_name}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.absent.append(f"{module_name}.{qualname}")
                    continue
                setattr(cls, attr, self._wrap(name, original, observe))
                self._patches.append((cls, attr, original))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = defaultdict(int)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def totals(spans, within=None):
    """{name: (inclusive ns, self ns)}; ``within`` limits to one root span name."""
    own = self_times(spans)
    roots = []
    for index, (_, _, _, parent) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
    inclusive, exclusive = Counter(), Counter()
    for index, (name, start, end, _) in enumerate(spans):
        if within is not None and spans[roots[index]][0] != within:
            continue
        inclusive[name] += end - start
        exclusive[name] += own[index]
    return {n: (inclusive[n], exclusive[n]) for n in inclusive}
