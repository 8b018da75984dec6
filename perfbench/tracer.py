"""In-memory span tracer for the benchmark's traced run.

A span is one call into a traced function: name, start, end, parent span
and run id.  Spans live in flat arrays while the run executes (a hier-logged
pass records one span per tick, so per-span objects would cost more memory
than the program under test) and are written out when the run ends.

Tracing works by rebinding module attributes: every `geogossip.*` module
global that is bound to a traced function is replaced by a wrapper, so calls
through `engine.run` and through names imported with `from .x import y`
are both seen.  `uninstall` restores the originals.
"""

import sys
import time
from array import array

now = time.perf_counter


class Tracer:
    """Span store plus the module patching that feeds it."""

    def __init__(self, run_id=0):
        self.names = []
        self._name_id = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run_of = array("i")
        self.run_id = run_id
        self._stack = []
        self._patched = []

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        """Start a span now; returns its index for `close`."""
        idx = len(self.start)
        self.name_of.append(self._nid(name))
        self.start.append(now())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_of.append(self.run_id)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = now()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Return fn traced under `name`.

        Inside the span, before(idx, args, kwargs) may return replacement
        (args, kwargs) for the call, and after(idx, args, result) sees the
        result; idx is the span's index.
        """
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                if before is not None:
                    args, kwargs = before(idx, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(idx, args, result)
                return result
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch every geogossip module global bound to a target function.

        targets: {span name: (original function, before, after)}, the
        hooks as in `wrap` or None.
        """
        by_fn = {id(spec[0]): (name, spec) for name, spec in targets.items()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("geogossip") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_fn.get(id(value))
                if hit is None:
                    continue
                name, spec = hit
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, *spec)
                setattr(mod, attr, wrappers[name])
                self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def spans(self, name):
        """Indices of all spans with this name."""
        nid = self._name_id.get(name)
        if nid is None:
            return []
        return [i for i, k in enumerate(self.name_of) if k == nid]

    def child_totals(self):
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return child

    def self_times(self):
        """Per-name total self time: duration minus direct children."""
        child = self.child_totals()
        out = {}
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            out[name] = out.get(name, 0.0) \
                + (self.end[i] - self.start[i]) - child[i]
        return out

    def write(self, path):
        """One tab-separated line per span: run, id, parent, name, start,
        end (seconds since the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_of[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")
