"""Span recorder for the traced benchmark run.

A span is recorded at each layer boundary: the library's public functions
are wrapped where their callers look them up (every ``icodes`` module
namespace that holds the function), and restored afterwards.  Spans stay
in memory until the run ends.  The ring gets no span: a span per
``RingElement`` operation would swamp the run, so its cost is counted in
``construction.encode`` and in ``cli.main`` rendering.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: Layers (defining module, function) and what each call records as attrs.
#: A hook runs after the span has closed, and keeps O(1) work: anything
#: costlier is derived from the kept ``ref`` once the pass is over.
LAYERS: tuple[tuple[str, str, Callable | None], ...] = (
    ("construction", "encode", lambda args, kw, out: ({"n": len(args[1])}, None)),
    (
        "construction",
        "enumerate_code",
        lambda args, kw, out: ({"m": args[0].m, "codewords": len(out)}, args[0]),
    ),
    ("construction", "build_defining_set", None),
    ("construction", "gray_image", None),
    ("geometry", "gf2_basis", None),
    ("analysis", "is_minimal_exhaustive", None),
    ("analysis", "is_self_orthogonal", lambda args, kw, out: ({"method": out.method}, None)),
    ("analysis", "simplex_structure", None),
    ("analysis", "verify_against_prediction", None),
    ("analysis", "predicted_distribution", None),
    ("analysis", "analyze", None),
    ("cli", "main", lambda args, kw, out: ({"output_bytes": kw["out"].tell()}, None)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    code: str
    attrs: dict = field(default_factory=dict)
    ref: object = None  # an input kept for counting after the pass; not written out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "code": self.code,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans while installed; ``code`` tags the spans of one code.

    ``modules`` maps the short module names used in LAYERS to the modules,
    plus any other namespace (such as the ``icodes`` package) to patch.
    """

    def __init__(self, modules: dict[str, object]) -> None:
        self.modules = modules
        self.spans: list[Span] = []
        self.code = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.code)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs, span.ref = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer in every module namespace that holds it."""
        modules = self.modules
        for module_name, fname, hook in LAYERS:
            original = getattr(modules[module_name], fname)
            traced = self.wrap(original, f"{module_name}.{fname}", hook)
            for module in modules.values():
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, traced)

    def restore(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        ):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def layer_key(span: Span) -> str:
    """Metric prefix of a span: its layer, split by method where one is recorded."""
    method = span.attrs.get("method")
    return f"{span.name}.{method}" if method else span.name


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Self seconds and calls per layer key, and the counts derived from attrs."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(int)
    a_parts_walked = 0
    for span, seconds in zip(spans, self_times(spans)):
        key = layer_key(span)
        self_s[key] += seconds
        calls[key] += 1
        if span.name == "construction.encode":
            counts["construction.encode.coords"] += span.attrs["n"]
        elif span.name == "construction.enumerate_code":
            walked = 1 << span.attrs["m"]
            distinct = len({t1.bits for t1, _t2 in span.ref.pairs})
            counts["construction.enumerate_code.parities"] += walked * distinct
            counts["construction.enumerate_code.codewords"] += span.attrs["codewords"]
            a_parts_walked += walked
        elif span.name == "cli.main":
            counts["cli.output_bytes"] += span.attrs["output_bytes"]
    if a_parts_walked:
        counts["construction.enumerate_code.useful_ratio"] = (
            counts.pop("construction.enumerate_code.codewords") / a_parts_walked
        )
    return dict(self_s), dict(calls), dict(counts)
