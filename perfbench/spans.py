"""In-memory span recorder for the traced benchmark run.

A span is one public call into a package layer: its name is
``<layer>.<call>``, and it records start, end, parent span and job id.
Spans stay in memory until the run ends and are then written out whole.
Probe spans time extra calls that are off the blocking path; they are
kept out of every self-time figure.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: str
    start: float
    end: float = 0.0
    probe: bool = False
    tag: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str, probe: bool = False, tag: str = ""):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, job, time.perf_counter(),
                 probe=probe, tag=tag)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def of_job(self, job: str) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def total(self, job: str, name: str, tag: str | None = None) -> float:
        """Summed seconds of the job's spans with this name (and tag)."""
        return sum(s.duration for s in self.of_job(job)
                   if s.name == name and (tag is None or s.tag == tag))

    def self_times(self, job: str) -> dict[str, float]:
        """Self seconds per layer for one job, probes excluded.

        Calls run one at a time on one thread, so the children of a span
        never overlap and the part of it they cover is their summed time.
        """
        spans = self.of_job(job)
        covered = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out = defaultdict(float)
        for s in spans:
            if not s.probe:
                out[s.layer] += s.duration - covered[s.id]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: every span is an empty context."""

    def span(self, name, job, probe=False, tag=""):
        return nullcontext()
