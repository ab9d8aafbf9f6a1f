"""Span tracing installed from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` layers at
run time.  A module-level function is replaced in every loaded module
that holds a reference to it (``from x import f`` copies the reference,
so the wrapper has to go where the caller looks the name up); a method
is replaced on its class.  :meth:`Tracer.uninstall` restores every
original, so untraced runs execute the program exactly as shipped.

Each call records one span ``(id, name, start, end, parent, request)``:
``parent`` is the innermost enclosing wrapped call on the same thread
and ``request`` the request id the calling thread is serving.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

import itertools
import json
import sys
import threading
import time

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")

#: Modules whose references to a patched function are replaced.
PREFIXES = ("repro", "perfbench")


class Tracer:
    """Collects spans from wrapped functions and methods."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    # -- request context ---------------------------------------------

    def set_request(self, request):
        """Tag spans opened by this thread with ``request``."""
        self._local.request = request

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------

    def wrapper(self, name, fn, request_of=None):
        """A callable recording one span per call of ``fn``.

        ``request_of(args)`` may name the request the call serves (a
        service worker learns it only from its arguments); the tag then
        holds for the call and everything it calls.
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            outer_request = getattr(local, "request", None)
            request = outer_request
            if request_of is not None:
                request = local.request = request_of(args)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if request_of is not None:
                    local.request = outer_request
                spans.append((span_id, name, start, end, parent, request))

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr, name):
        """Wrap ``module.attr`` wherever a loaded module refers to it."""
        original = getattr(module, attr)
        traced = self.wrapper(name, original)
        for loaded in list(sys.modules.values()):
            modname = getattr(loaded, "__name__", "") or ""
            if not modname.startswith(PREFIXES):
                continue
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, traced)
                    self._restore.append((loaded, key, original))

    def patch_method(self, cls, attr, name, request_of=None):
        """Wrap ``cls.attr`` (looked up through instances)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrapper(name, original, request_of))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        """Put every original back, newest patch first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reading spans -----------------------------------------------

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span)),
                                        default=str))
                handle.write("\n")


def self_times(spans):
    """``{span id: self seconds}`` — duration minus what children cover.

    Children of one span ran on its thread inside its interval, one
    after another, so the covered time is the union of their
    intervals clipped to the parent.
    """
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    result = {}
    for span_id, _name, start, end, _parent, _request in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def totals(spans, window=None):
    """Per span name: ``(calls, total seconds, self seconds)``.

    Only spans inside ``window = (start, end)`` count when it is
    given.  A span nested in another of the same name (recursion) adds
    its calls but not its time, which its ancestor already covers.
    """
    names = {span[0]: span[1] for span in spans}
    parents = {span[0]: span[4] for span in spans}
    selfs = self_times(spans)
    result = {}
    for span_id, name, start, end, parent, _request in spans:
        if window is not None and not (window[0] <= start
                                       and end <= window[1]):
            continue
        calls, total, own = result.get(name, (0, 0.0, 0.0))
        ancestor = parent
        nested = False
        while ancestor is not None:
            if names.get(ancestor) == name:
                nested = True
                break
            ancestor = parents.get(ancestor)
        if not nested:
            total += end - start
        result[name] = (calls + 1, total, own + selfs[span_id])
    return result
