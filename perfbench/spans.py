"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Tracer.install`` swaps
each named program function for a timing wrapper at every module attribute
that holds it, so a call is seen whichever name its caller looks it up
through (``gates`` imports ``sphere_set`` by name, so ``gates.sphere_set``
is wrapped as well as ``hopf.sphere_set``).  ``Tracer.uninstall`` puts the
original objects back.

A span is (name, parent, start, end, failed).  Spans live in flat arrays
while the run lasts and are written out once, at the end, by ``dump``.
Self time is a span's duration minus the time covered by its direct
children; calls are strictly nested on the one benchmark thread, so the
children of a span are disjoint and lie inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Functions timed as spans, by defining module.  A module or name that a later
# version of the program no longer defines is skipped, and its metrics read 0.
SPANNED = {
    "hopf": ("sphere_set", "reconstruct"),
    "state": ("reduced_density", "coherence_d", "random_state"),
    "gates": ("parse_circuit", "expand", "apply", "run"),
    "records": ("state_record", "step_record"),
    "jsonfmt": ("dumps",),
    "render": ("render_svg",),
    "verify": ("run_suite",),
    "oracles": ("oracle_reduced_density",),
    "cli": ("main",),
}

# Sub-microsecond leaves, counted only: a span would cost more than the call.
COUNTED = {"jsonfmt": ("sig15",)}

# Spans whose string result length is summed into Tracer.out_bytes.
SIZED = ("jsonfmt.dumps", "render.render_svg")

PACKAGE = "qubit_spheres"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.out_bytes: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter_ns()

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.failed[idx] = failed
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- wrapping program functions --------------------------------------

    def _spanned(self, name: str, fn):
        nid = self.name_id(name)
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            if sized and isinstance(result, str):
                self.out_bytes[name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        """Count calls made while a span is open, so that calls from the
        benchmark's own checks, which run outside every span, are left out."""
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, count_leaves: bool = False) -> None:
        """Wrap every named function at every package attribute that holds it.

        With ``count_leaves`` the COUNTED functions and Quaternion
        construction are counted too.  Those wrappers sit on the hottest
        calls and would inflate every self time, so self times come from
        runs without them.
        """
        for modname in (*SPANNED, *COUNTED, "quatmath"):
            # A module a later version of the program drops is skipped.
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{PACKAGE}.{modname}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        tables = [(SPANNED, self._spanned)]
        if count_leaves:
            tables.append((COUNTED, self._counted))
        for table, make in tables:
            for modname, fnames in table.items():
                home = sys.modules.get(f"{PACKAGE}.{modname}")
                for fname in fnames:
                    fn = getattr(home, fname, None)
                    if fn is None:
                        continue
                    wrapped = make(f"{modname}.{fname}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._patch(m, attr, wrapped)
        quat = getattr(sys.modules.get(f"{PACKAGE}.quatmath"), "Quaternion", None)
        if count_leaves and quat is not None:
            self._patch(quat, "__init__",
                        self._counted("quatmath.Quaternion", quat.__init__))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- analysis --------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of each span: its duration minus its direct children's."""
        n = len(self.name)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def roots(self) -> list[int]:
        """Index of the outermost ancestor of each span (parents precede children)."""
        out = list(range(len(self.name)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[i] = out[p]
        return out

    def dump(self, path) -> None:
        """Write every span, columnar, with times in ns from tracer start."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - self.t0 for t in self.start],
            "end_ns": [t - self.t0 for t in self.end],
            "failed": self.failed.tolist(),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    """Context manager for a benchmark-side span (an operation or a phase)."""

    __slots__ = ("_tracer", "_nid", "_idx")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._idx = self._tracer.open(self._nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer.close(self._idx, failed=exc_type is not None)
        return False
