"""In-memory spans around the benchmark's calls into the library.

A span records its name, start, end, parent span and case id.  Spans live in
flat integer arrays while the run lasts and are written out once, at the end,
so recording one costs a few appends.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, case, fn, *args):
        return fn(*args)

    def begin(self, name: str, case: int) -> int:
        return -1

    def end(self, sid: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.stop = array("q")
        self.parent = array("q")
        self.case = array("q")
        self._open: list[int] = []

    def begin(self, name: str, case: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.case.append(case)
        self.stop.append(-1)
        self._open.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.stop[sid] = time.perf_counter_ns()
        self._open.pop()

    def call(self, name, case, fn, *args):
        sid = self.begin(name, case)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def spans(self):
        """(name, case, duration_ns, self_ns) per span.

        Self time is the duration minus the part covered by child spans;
        children never overlap, since the run is one thread.
        """
        covered = [0] * len(self.start)
        durations = [b - a for a, b in zip(self.start, self.stop)]
        for parent, dur in zip(self.parent, durations):
            if parent >= 0:
                covered[parent] += dur
        for i, dur in enumerate(durations):
            yield self.names[self.name[i]], self.case[i], dur, dur - covered[i]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\tcase\n")
            for i, nid in enumerate(self.name):
                out.write(
                    f"{i}\t{self.names[nid]}\t{self.start[i]}\t{self.stop[i]}\t{self.parent[i]}\t{self.case[i]}\n"
                )
