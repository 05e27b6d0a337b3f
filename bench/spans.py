"""Span recording for the traced benchmark run.

`Tracer.install` replaces the functions named in `WRAPPED` with timing
wrappers, in the module or class attribute that callers actually look up,
and `Tracer.uninstall` puts the originals back.  Nothing in the program is
edited: the wrappers live only in the traced process.

Each wrapped call becomes one span (name, start, end, parent).  Spans are
kept in flat in-memory arrays while the workload runs and are written out
once, by `Tracer.write`, after the run.  `Tracer.totals` derives per-name
call counts and self times (span time minus the time covered by its child
spans) from them.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

# (metric name, module holding the reference the callers use, attribute path).
# A name may be patched at more than one call site; a dotted path whose head
# is a module is patched through a proxy visible to that one module only.
WRAPPED = (
    ("cli.cmd_simulate", "tempoweave.cli", "cmd_simulate"),
    ("cli.cmd_check_trace", "tempoweave.cli", "cmd_check_trace"),
    ("engine.coordinate_step", "tempoweave.engine", "coordinate_step"),
    ("engine.find_matches", "tempoweave.engine", "find_matches"),
    ("engine.apply_match", "tempoweave.engine", "apply_match"),
    ("engine.SeededPolicy.choose", "tempoweave.engine", "SeededPolicy.choose"),
    ("model.Snapshot.clone", "tempoweave.model", "Snapshot.clone"),
    ("model.check_conformance", "tempoweave.engine", "check_conformance"),
    ("model.eval_binding", "tempoweave.model", "eval_binding"),
    ("monitor.dispatch", "tempoweave.engine", "dispatch"),
    ("monitor.resolve_event", "tempoweave.monitor", "resolve_event"),
    ("monitor.resolve_event", "tempoweave.trace", "resolve_event"),
    ("monitor.monitor_step", "tempoweave.monitor", "monitor_step"),
    ("monitor.mark_outermost", "tempoweave.monitor", "mark_outermost"),
    ("monitor.unroll_marked", "tempoweave.monitor", "unroll_marked"),
    ("monitor.shift_prophecies", "tempoweave.monitor", "shift_prophecies"),
    ("monitor.evaluate_atoms", "tempoweave.monitor", "evaluate_atoms"),
    ("monitor.evaluate_prophecies", "tempoweave.monitor", "evaluate_prophecies"),
    ("monitor.activate_prophecies", "tempoweave.monitor", "activate_prophecies"),
    ("monitor.verdict_collapse", "tempoweave.monitor", "verdict_collapse"),
    ("monitor.obligation_rewrite", "tempoweave.monitor", "obligation_rewrite"),
    ("monitor.simplify", "tempoweave.monitor", "simplify"),
    ("formula.has_marks", "tempoweave.monitor", "has_marks"),
    ("formula.strip_marks", "tempoweave.monitor", "strip_marks"),
    ("trace.record_to_json", "tempoweave.trace", "record_to_json"),
    ("trace.parse_record", "tempoweave.trace", "parse_record"),
    ("trace.json_decode", "tempoweave.trace", "json.loads"),
    ("trace._record_snapshot", "tempoweave.trace", "_record_snapshot"),
    ("helpers.finite_verdict", "helpers", "finite_verdict"),
    ("helpers.monitor_step", "helpers", "monitor_step"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))

NO_PARENT = -1


class _ModuleProxy:
    """Stands in for a module inside one other module, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def _wrap(self, fn, name_id: int):
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else NO_PARENT)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; skip (and leave absent) the rest."""
        for name, module_name, path in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            head, _, attr = path.rpartition(".")
            owner = getattr(module, head, None) if head else module
            original = getattr(owner, attr, None)
            if not callable(original):
                continue
            wrapped = self._wrap(original, self.name_ids[name])
            if isinstance(owner, types.ModuleType) and owner is not module:
                # e.g. trace's json.loads: json itself stays untouched
                self._patch(module, head, _ModuleProxy(owner, **{attr: wrapped}))
            else:
                self._patch(owner, attr, wrapped)
            self.present.add(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Per span name (calls, self ns), and the ns covered by root spans."""
        count = len(self.start)
        child_ns = [0] * count
        root_ns = 0
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(count):
            duration = ends[i] - starts[i]
            if parents[i] == NO_PARENT:
                root_ns += duration
            else:
                child_ns[parents[i]] += duration
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += ends[i] - starts[i] - child_ns[i]
        return (
            {name: (calls[i], self_ns[i]) for i, name in enumerate(SPAN_NAMES)},
            root_ns,
        )

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id, parent, name, start, end."""
        names = SPAN_NAMES
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            out.writelines(
                f"{i}\t{p}\t{names[n]}\t{s}\t{e}\n"
                for i, (p, n, s, e) in enumerate(
                    zip(self.parent, self.span_name, self.start, self.end)
                )
            )
