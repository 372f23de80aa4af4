"""In-memory spans around the benchmark's calls into the library's layers.

A span is ``(id, parent, root, name, start_ns, end_ns)``; ``root`` is the id
of the outermost span, so spans of one call share it. Spans are recorded only
from the benchmark's files: around a public function it calls, or around a
model's ``psi`` and ``mean`` by handing the library a copy of the model whose
two callables are wrapped.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._models: dict[int, tuple] = {}

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else sid
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, root, name, start, end)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def traced_model(self, model):
        """Copy of ``model`` whose psi and mean record spans (made once per model)."""
        if id(model) not in self._models:
            traced = dataclasses.replace(
                model,
                psi=self.wrap("models.psi", model.psi),
                mean=self.wrap("models.mean", model.mean),
            )
            self._models[id(model)] = (model, traced)
        return self._models[id(model)][1]

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("id,parent,root,name,start_ns,end_ns\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")


def self_times(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Per span name: total self time in ns (duration minus children) and call count."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for sid, _, _, name, start, end in spans:
        total[name] += end - start - child_ns[sid]
        calls[name] += 1
    return total, calls
