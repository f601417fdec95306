"""Span recording around the calls between adaptok's modules.

The program has no spans of its own yet, so the benchmark records them
from outside: ``Tracer.wrap`` times one callable, and ``Tracer.interpose``
temporarily replaces the names that one module imported from another (or
calls inside itself) with timed wrappers.  Spans are kept in memory as
``(name, start_ns, end_ns, parent, sample)`` tuples and written once, when
the run ends.
"""

import importlib
import json
import time
from contextlib import contextmanager

# (module whose global is replaced, global name, span name).  Each entry is
# one call site at a layer boundary of ``compress``; a name the program no
# longer has is skipped and reported, so a refactor shows as a missing span
# instead of a crash.
INTERPOSED = (
    ("adaptok.pipeline", "as_token_matrix", "tensor_core.validate"),
    ("adaptok.pipeline", "spectral_entropy", "prominence.entropy"),
    ("adaptok.pipeline", "allocate_budget", "budget.allocate"),
    ("adaptok.pipeline", "saliency_topk", "selection.topk"),
    ("adaptok.pipeline", "dpp_greedy_map", "selection.select"),
    ("adaptok.pipeline", "fps_select", "selection.select"),
    ("adaptok.pipeline", "facility_location_select", "selection.select"),
    ("adaptok.pipeline", "_diagnostics", "pipeline.diagnostics"),
    ("adaptok.prominence", "as_token_matrix", "tensor_core.validate"),
    ("adaptok.prominence", "_gram", "tensor_core.gram"),
    ("adaptok.prominence", "_clamped_descending_eigvalsh", "tensor_core.eigvalsh"),
    ("adaptok.selection", "as_token_matrix", "tensor_core.validate"),
    ("adaptok.selection", "_pool_unit_kernel", "selection.kernel"),
    ("adaptok.selection", "_normalize_rows_raw", "selection.kernel"),
)


class Tracer:
    """In-memory span recorder; ``sample`` tags the spans of one request."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.sample = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.sample)

        return traced

    @contextmanager
    def interpose(self, table=INTERPOSED):
        """Replace each listed module global by a timed wrapper; yields the
        entries that could not be found."""
        saved, missing = [], []
        try:
            for mod_name, attr, span in table:
                mod = importlib.import_module(mod_name)
                if not callable(getattr(mod, attr, None)):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span, original))
            yield missing
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, sample in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "sample": sample}
                    )
                    + "\n"
                )


def layer_times_ms(spans) -> dict[int, dict[str, float]]:
    """Per sample: inclusive and self milliseconds of each span name.

    ``<name>`` is the inclusive time of the outermost spans of that name
    (a span nested in one of the same name is not counted twice);
    ``<name>#self`` is that time minus what the span's children cover.
    """
    children_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_ns[parent] += end - start

    def nested_in_same(sid: int) -> bool:
        name, parent = spans[sid][0], spans[sid][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    out: dict[int, dict[str, float]] = {}
    for sid, (name, start, end, _, sample) in enumerate(spans):
        acc = out.setdefault(sample, {})
        dur = end - start
        if not nested_in_same(sid):
            acc[name] = acc.get(name, 0.0) + dur / 1e6
        acc[name + "#self"] = acc.get(name + "#self", 0.0) + (dur - children_ns[sid]) / 1e6
    return out
