"""Span tracing of betti4's module functions, patched in from outside.

The tracer replaces a function by a wrapper in every betti4 module that
holds a reference to it, so calls made through any import alias are
seen.  Each call becomes a span (name, start, end, parent, request id)
kept in flat in-memory arrays; self times are computed afterwards from
the spans alone.  Nothing in the package is edited: removing the
wrappers restores the original objects.
"""

import sys
from array import array
from time import perf_counter_ns

ROOT = "cli"


class Tracer:
    """Records one span per wrapped call, nested by call order.

    ``request`` is the id stamped on spans opened from now on; callers
    set it before each request.
    """

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.request = -1
        self._open = []

    def __len__(self):
        return len(self.starts)

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, hook=None):
        """A wrapper around fn that records a span per call.

        hook(args, kwargs, result), if given, runs after the span closes,
        so counting at the boundary is charged to the caller's span.
        """
        nid = self._name_id(name)
        open_ = self._open
        clock = self.clock
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, requests = self.parents, self.requests

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1] if open_ else -1)
            requests.append(self.request)
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def spans(self):
        """Every span as (name, start, end, parent, request), in opening order."""
        for n, s, e, p, r in zip(self.name_ids, self.starts, self.ends, self.parents, self.requests):
            yield self.names[n], s, e, p, r

    def self_times(self):
        """Total self time per span name: duration minus the children's durations.

        Spans come from one thread, so children never overlap each other
        and the part of a parent's interval its children cover is the sum
        of their durations.
        """
        child = array("q", bytes(8 * len(self)))
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += end - start
        totals = [0] * len(self.names)
        for nid, start, end, covered in zip(self.name_ids, self.starts, self.ends, child):
            totals[nid] += end - start - covered
        return dict(zip(self.names, totals))

    def call_counts(self):
        counts = [0] * len(self.names)
        for nid in self.name_ids:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def root_time(self):
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def write(self, path):
        """Tab-separated spans, one per line, with a header row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{request}\n")


def package_modules(prefix="betti4"):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


def install(tracer, targets, modules, hooks=None):
    """Wrap each target in every module that references it.

    targets is a sequence of (span name, module name, attribute) and
    hooks maps a span name to its hook (see Tracer.wrap).  A target whose
    module or attribute is missing is skipped and returned in
    ``missing`` so its metrics can be reported as null.  Returns
    (restore, missing); call restore() to put the originals back.
    """
    hooks = hooks or {}
    by_name = {getattr(m, "__name__", None): m for m in modules}
    patched = []
    missing = []
    for span_name, module_name, attr in targets:
        original = getattr(by_name.get(module_name), attr, None)
        if not callable(original):
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, hooks.get(span_name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched.append((module, key, original))

    def restore():
        for module, key, original in reversed(patched):
            setattr(module, key, original)

    return restore, missing

