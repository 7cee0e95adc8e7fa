"""Outside-in span tracer for the bigwinners package.

The tracer wraps the public functions of each package module (plus
``kde_mode_bootstrap_stderr``) and rebinds every package namespace that
holds a reference to them, so ``kde_mode`` is traced whether it is called
from ``empirical``, ``lognormal_sum`` or ``index_model``.  Spans (name,
start, end, parent) are kept in memory under one run id and written out
once, at the end.  A span's self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "bigwinners"
# Modules whose functions are layers, and the functions traced beside each
# module's ``__all__``.  ``cli`` has no ``__all__``: its subcommand bodies
# run inside ``main`` and count as ``cli.main`` self time.
MODULES = ("cli", "distributions", "empirical", "gbm", "index_model", "lognormal_sum")
EXTRA = {"empirical": ("kde_mode_bootstrap_stderr",), "cli": ("main", "write_report")}
# Call arguments summed per span name, e.g. bootstrap replicates.
COUNTED_ARGS = {
    "empirical.kde_mode_bootstrap_stderr": "replicates",
    "index_model.sample_ratio_summary": "replicates",
}
# The traced function whose last result is kept, for checks on its notes.
KEPT_RESULT = "empirical.load_panel"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.arg_counts: dict[str, int] = defaultdict(int)
        self.kept_result: object | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counted = COUNTED_ARGS.get(name)
        signature = inspect.signature(fn) if counted else None
        keep = name == KEPT_RESULT
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.arg_counts[name] += int(bound.arguments[counted])
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if keep:
                self.kept_result = result
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them in every package namespace."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            names = list(getattr(module, "__all__", ())) + list(EXTRA.get(short, ()))
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summarize(self, first: int) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name over the spans from index ``first`` on."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for offset, (name, start, end, _) in enumerate(spans):
            row = stats[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[first + offset]
        return dict(stats)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, after a header with the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
