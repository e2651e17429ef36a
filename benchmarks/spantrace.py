"""Span tracer that instruments gradedrings from outside its source tree.

The tracer replaces chosen public functions and methods of the loaded
``gradedrings`` modules with timing wrappers.  Nothing under ``src/`` is
edited: plain functions are rebound in every module that holds them (a
``from .x import y`` copies the name into each importing module), and
methods are replaced once on their class.

Every call becomes a span with a name, a start, an end, the span that
caused it and the request (CLI command) it belongs to.  Spans stay in
memory in flat arrays until :meth:`Tracer.write` saves them.  Per-name
totals are kept as the spans close: calls, inclusive seconds and self
seconds (the span minus the time covered by its direct child spans).
``Scalar`` arithmetic is deliberately left alone: its ``__bool__`` alone
runs millions of times per command.
"""

from __future__ import annotations

import functools
import time
from array import array

# (module, attribute path) of every layer boundary that gets a span
TARGETS = (
    ("linalg", "EchelonBasis.add"),
    ("linalg", "EchelonBasis.residual"),
    ("linalg", "pairing"),
    ("linalg", "nullspace"),
    ("linalg", "psd_counterexample"),
    ("linalg", "joint_orthogonal_complement"),
    ("ring", "GradedRing.validate"),
    ("ring", "GradedRing.multiply"),
    ("ring", "GradedRing.multiply_basis_left"),
    ("ring", "GradedRing.multiply_basis_right"),
    ("ring", "GradedRing.product_span"),
    ("groups", "GroupSignature.compose"),
    ("connections", "connection_classes"),
    ("connections", "verify_certificate"),
    ("connections", "is_symmetric_support"),
    ("decomposition", "decompose"),
    ("decomposition", "is_graded_ideal"),
    ("decomposition", "identity_products_span"),
    ("decomposition", "identity_complement"),
    ("properties", "properties_report"),
    ("properties", "is_coherent"),
    ("properties", "annihilator"),
    ("properties", "ideal_closure"),
    ("properties", "graded_simple_oracle"),
    ("specfile", "load_ring"),
    ("report", "dumps_report"),
    ("cli", "main"),
)

# spans whose truthy return value counts as a useful outcome
USEFUL = frozenset({"linalg.EchelonBasis.add"})


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.request = -1
        self._stack: list[list] = []
        self._name = array("H")
        self._parent = array("q")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.useful: list[int] = []

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short module name -> module)."""
        for module_name, path in TARGETS:
            owner = modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, f"{module_name}.{path}")
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        for column in (self.calls, self.useful):
            column.append(0)
        for column in (self.total_s, self.self_s):
            column.append(0.0)
        count_useful = name in USEFUL
        clock = time.perf_counter
        stack = self._stack
        names, parents, requests = self._name, self._parent, self._request
        starts, ends = self._start, self._end
        calls, total_s, self_s, useful = self.calls, self.total_s, self.self_s, self.useful
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(tracer.request)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count_useful and result:
                useful[nid] += 1
            return result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per-name calls, inclusive seconds, self seconds and useful count."""
        return {
            name: {
                "calls": self.calls[i],
                "s": self.total_s[i],
                "self_s": self.self_s[i],
                "useful": self.useful[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> int:
        """Save every span as a tab-separated line; returns the span count.

        Columns: request, span, parent span (-1 for a root), name, start and
        end in seconds from the first span.
        """
        origin = self._start[0] if self._start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            chunk = []
            for idx in range(len(self._start)):
                chunk.append(
                    f"{self._request[idx]}\t{idx}\t{self._parent[idx]}\t"
                    f"{names[self._name[idx]]}\t{self._start[idx] - origin:.9f}\t"
                    f"{self._end[idx] - origin:.9f}\n"
                )
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))
        return len(self._start)
