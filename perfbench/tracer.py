"""Span tracer for zonoharm, installed from the benchmark's own code.

A ``sys.setprofile`` hook records a span named ``<module>.<function>``
whenever a call enters a zonoharm module from another module (or from the
benchmark itself).  Calls inside one module open no span, so a span's self
time is the time spent in its module's own code.  Frames of code outside the
package (the standard library, dataclass-generated methods) belong to the
module that called them.

Alongside the spans the hook counts every call of every named zonoharm
function, whatever its caller, and accumulates the inclusive time of each
function's outermost activations (``cum_s``).  A generator resumed after a
``yield`` is a span but not a new call.  Spans are kept in flat arrays in
memory and written out when the traced operation ends.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array

BENCH = "bench"  # the module name of code outside the package
_GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR


def _rank_cells(m) -> int:
    """rows x cols of a ``linalg.rank`` argument (a Mat or a list of rows)."""
    if hasattr(m, "rows") and hasattr(m, "cols"):
        return m.rows * m.cols
    rows = list(m)
    return len(rows) * (len(rows[0]) if rows else 0)


def box_candidates(va) -> int:
    """Lattice points in the coordinate bounding box of the zonotope of ``va``."""
    cols = va.columns.col_list()
    return math.prod(
        sum(max(0, c[j]) for c in cols) - sum(min(0, c[j]) for c in cols) + 1
        for j in range(va.lattice_rank)
    )


# Per-function probes: name -> (measure of the first argument at entry,
# measure of the return value).  Their sums are reported by name.
PROBES = {
    "linalg.rank": (_rank_cells, None),
    "arrangement.interior_lattice_points": (box_candidates, len),
}


class Tracer:
    def __init__(self, package_dir: str, op_id: int = 0):
        self.prefix = os.path.abspath(package_dir) + os.sep
        self.op_id = op_id
        self.names: list = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_fresh = array("b")
        self.calls: dict = {}
        self.cum_s: dict = {}
        self.probe_in: dict = {name: 0 for name in PROBES}
        self.probe_out: dict = {name: 0 for name in PROBES}

    def _classify(self, code):
        """(module, counted function name or None, name id, is generator, probe)."""
        path = code.co_filename
        if not path.startswith(self.prefix):
            return None
        module = path[len(self.prefix) : -len(".py")].replace(os.sep, ".")
        qual = code.co_qualname
        if qual.endswith(".__init__"):
            qual = qual[: -len(".__init__")]
        name = f"{module}.{qual}"
        counted = None if code.co_name.startswith("<") else name
        self.names.append(name)
        probe = PROBES.get(name)
        return module, counted, len(self.names) - 1, bool(code.co_flags & _GENERATOR_FLAGS), probe

    def start(self) -> None:
        codes: dict = {}
        # one entry per live frame that opened a span or is a named function;
        # other frames (outside the package, comprehensions) are never pushed
        stack: list = []
        calls, cum_s, active = self.calls, self.cum_s, {}
        probe_in, probe_out = self.probe_in, self.probe_out
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, s_fresh = self.span_start, self.span_end, self.span_fresh
        clock = time.perf_counter
        classify = self._classify

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                info = codes.get(code, False)
                if info is False:
                    info = codes[code] = classify(code)
                if info is None:
                    return
                mod, counted, name_id, is_gen, probe = info
                module, span = (stack[-1][1], stack[-1][2]) if stack else (BENCH, -1)
                opened = mod != module
                if counted is None and not opened:
                    return
                # a generator frame starts at RESUME 0 and resumes at RESUME 1+
                fresh = not is_gen or code.co_code[frame.f_lasti + 1] == 0
                now = clock()
                if opened:
                    s_name.append(name_id)
                    s_parent.append(span)
                    s_start.append(now)
                    s_end.append(now)
                    s_fresh.append(fresh)
                    span = len(s_start) - 1
                timed = None
                if counted is not None and fresh:
                    calls[counted] = calls.get(counted, 0) + 1
                    if not is_gen:
                        timed = counted
                        depth = active.get(counted)
                        active[counted] = (1, now) if depth is None else (depth[0] + 1, depth[1])
                    if probe is not None and probe[0] is not None:
                        first = frame.f_locals[code.co_varnames[0]]
                        probe_in[counted] += probe[0](first)
                stack.append((frame, mod, span, opened, timed, probe if fresh else None))
            elif event == "return" and stack and stack[-1][0] is frame:
                _, module, span, opened, timed, probe = stack.pop()
                now = clock()
                if opened:
                    s_end[span] = now
                if timed is not None:
                    depth, began = active.pop(timed)
                    if depth == 1:
                        cum_s[timed] = cum_s.get(timed, 0.0) + (now - began)
                    else:
                        active[timed] = (depth - 1, began)
                    if probe is not None and probe[1] is not None and arg is not None:
                        probe_out[timed] += probe[1](arg)

        sys.setprofile(hook)

    @staticmethod
    def stop() -> None:
        sys.setprofile(None)

    def dump(self) -> dict:
        """Everything recorded, as one JSON-ready record."""
        return {
            "op": self.op_id,
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "fresh": list(self.span_fresh),
            },
            "calls": self.calls,
            "cum_s": self.cum_s,
            "probe_in": self.probe_in,
            "probe_out": self.probe_out,
        }


def self_times(parent, start, end) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def summarize(record: dict) -> dict:
    """Per-module self time and entry count of one dumped trace."""
    spans = record["spans"]
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    modules: dict = {}
    for name_id, fresh, own in zip(spans["name"], spans["fresh"], selfs):
        module = record["names"][name_id].split(".", 1)[0]
        acc = modules.setdefault(module, [0, 0.0])
        acc[0] += fresh
        acc[1] += own
    return modules
