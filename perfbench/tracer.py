"""Span tracer that times projstark's layers from outside the package.

While installed, the tracer replaces each target (a module function or a class
method) at the name its callers resolve with a timing wrapper, and puts the
original object back on uninstall. Calls made a few times per proof become
spans (name, start, end, parent, iteration). Per-point calls are summed into
a count and a time under their enclosing span, so memory stays bounded.

A frame's self time is its duration minus the time its direct children (spans
and per-point calls) cover. Wrappers record nothing while `iteration` is None,
so the benchmark can leave work out of the trace without uninstalling.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    owner: object  # module or class whose attribute is wrapped
    attr: str
    name: str  # qualified name used in spans and layer attribution
    per_point: bool = False


class CallStats:
    """Summed per-point calls of one name under one span."""

    __slots__ = ("count", "total_s", "child_s")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Span:
    __slots__ = ("name", "iteration", "parent", "phase", "start", "end", "child_s", "calls")

    def __init__(self, name: str, iteration, parent: Optional["Span"]):
        self.name = name
        self.iteration = iteration
        self.parent = parent
        # the outermost traced call this span runs under, e.g. protocol.prove
        self.phase = parent.phase if parent is not None and parent.name != "root" else name
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.calls: Dict[str, CallStats] = {}

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


def projstark_targets() -> List[Target]:
    """Every public entry point the benchmark attributes time to."""
    from projstark import air, channel, poly, protocol

    def spans(owner, prefix, *attrs):
        return [Target(owner, a, f"{prefix}.{a}") for a in attrs]

    def per_point(owner, prefix, *attrs):
        return [Target(owner, a, f"{prefix}.{a}", per_point=True) for a in attrs]

    return [
        *spans(protocol, "protocol", "run_online_stage", "prove", "dump_proof", "load_proof",
               "verify", "build_domain", "lift_trace", "build_trace_polys",
               "build_numerators", "build_compositions", "combine", "base_eval_domain",
               "layer_eval_domains", "fold"),
        *per_point(protocol, "protocol", "online_check", "verify_opening", "fold_value"),
        *spans(air, "air", "interpolate", "vanishing"),
        *spans(poly.Polynomial, "Polynomial", "__mul__", "__divmod__"),
        *per_point(poly.Polynomial, "Polynomial", "evaluate"),
        *spans(channel.MerkleTree, "MerkleTree", "__init__"),
        *per_point(channel.MerkleTree, "MerkleTree", "open"),
        *per_point(channel.FiatShamirTranscript, "FiatShamirTranscript", "absorb", "draw"),
    ]


class Tracer:
    def __init__(self, targets: List[Target]):
        self.targets = targets
        self.spans: List[Span] = []  # finished spans, in end order
        self.iteration = None  # recorded spans carry it; None records nothing
        self._root = Span("root", None, None)
        self._open: List[Span] = [self._root]
        self._acc: List[List[float]] = [[0.0]]  # child time of each open frame
        self._saved: List[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            original = vars(t.owner)[t.attr]
            wrap = self._wrap_per_point if t.per_point else self._wrap_span
            setattr(t.owner, t.attr, wrap(original, t.name))
            self._saved.append((t.owner, t.attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_span(self, fn, name: str):
        tracer, open_spans, acc = self, self._open, self._acc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.iteration is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer.iteration, open_spans[-1])
            open_spans.append(span)
            acc.append([0.0])
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.child_s = acc.pop()[0]
                open_spans.pop()
                acc[-1][0] += span.end - span.start
                tracer.spans.append(span)

        return wrapper

    def _wrap_per_point(self, fn, name: str):
        tracer, open_spans, acc = self, self._open, self._acc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.iteration is None:
                return fn(*args, **kwargs)
            acc.append([0.0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = acc.pop()[0]
                acc[-1][0] += elapsed
                calls = open_spans[-1].calls
                stats = calls.get(name)
                if stats is None:
                    stats = calls[name] = CallStats()
                stats.count += 1
                stats.total_s += elapsed
                stats.child_s += child

        return wrapper

    def iteration_spans(self, iteration) -> List[Span]:
        return [s for s in self.spans if s.iteration == iteration]

    def to_json(self) -> List[dict]:
        """Finished spans with parents as indices into the same list."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "iteration": s.iteration,
                "parent": index.get(id(s.parent)),
                "start": s.start,
                "end": s.end,
                "calls": {k: [c.count, c.total_s, c.child_s] for k, c in s.calls.items()},
            }
            for s in self.spans
        ]
