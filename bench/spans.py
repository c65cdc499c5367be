"""Spans around calls into each twinprobe layer, recorded from outside.

``Tracer.install`` replaces every plain function listed in a layer module's
``__all__`` with a wrapper, in every ``twinprobe`` namespace that holds it.
A wrapper records a span when the call enters its layer from another one (or
from outside); calls within a layer pass straight through.  A span is (id,
name, start, end, parent id); spans stay in memory until ``save``.  A span's
self time is its duration minus the part of it its children cover; a pool
thread's outermost span is a child of the span the tracing thread is in.

Run as a script it is the traced CLI:

    python3 bench/spans.py SPANS.npz ARGV...

runs ``twinprobe.cli.main(ARGV)`` with every layer traced, writes the spans,
and exits with main's code.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types

LAYERS = ("gaussian", "dynamics", "metrology", "oracle", "sweep", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        root = self._stack()  # the tracing thread's stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:  # first traced call in a pool thread
                stack = local.stack = []
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)  # inside the layer: no boundary crossed
            span_id = next(ids)
            # a pool thread's first span belongs to whatever the tracing thread waits in
            top = stack or root
            parent = top[-1][0] if top else -1
            stack.append((span_id, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent))

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, only=None) -> "Tracer":
        """Wrap the ``__all__`` functions of every layer (or just the names in ``only``)."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"twinprobe.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and (only is None or name in only)
                ):
                    originals[id(fn)] = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "twinprobe" and not mod_name.startswith("twinprobe."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def save(self, path: str) -> None:
        import numpy as np

        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(
            path,
            id=rows[:, 0].astype(np.int64),
            name=rows[:, 1].astype(np.int64),
            start=rows[:, 2],
            end=rows[:, 3],
            parent=rows[:, 4].astype(np.int64),
            names=np.array(self.names),
        )


def _covered(parent_row, start, end, n: int):
    """Per parent, the length of the union of its children's intervals."""
    import numpy as np

    covered = np.zeros(n)
    order = np.lexsort((start, parent_row))
    parent_row, start, end = parent_row[order], start[order], end[order]
    for seg in np.split(np.arange(len(order)), np.flatnonzero(np.diff(parent_row)) + 1):
        if len(seg):
            reach = np.maximum.accumulate(end[seg])
            before = np.concatenate(([-np.inf], reach[:-1]))
            overlap = end[seg] - np.maximum(start[seg], before)
            covered[parent_row[seg[0]]] = np.clip(overlap, 0.0, None).sum()
    return covered


def summarize(spans) -> dict:
    """Per-layer self time and call count, plus the root ``cli.main`` duration.

    Self time is a span's duration minus the part of it its children cover;
    children from pool threads can overlap, so the union is taken.
    """
    import numpy as np

    ids, parent, name = spans["id"], spans["parent"], spans["name"]
    start, end = spans["start"], spans["end"]
    order = np.argsort(ids)
    has_parent = parent >= 0
    parent_row = order[np.searchsorted(ids[order], parent[has_parent])]
    self_time = (end - start) - _covered(
        parent_row, start[has_parent], end[has_parent], len(ids)
    )
    names = [str(n) for n in spans["names"]]
    layer = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=int)[name]
    is_main = np.array([n == "cli.main" for n in names], dtype=bool)[name]
    return {
        "self_s": {l: float(self_time[layer == i].sum()) for i, l in enumerate(LAYERS)},
        "calls": {l: int((layer == i).sum()) for i, l in enumerate(LAYERS)},
        "spans": int(len(ids)),
        "main_s": float((end - start)[is_main & ~has_parent].sum()),
    }


def main(argv) -> int:
    spans_path, cli_argv = argv[1], argv[2:]
    from twinprobe import cli

    tracer = Tracer().install()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
