"""Spans around rankprobe's public functions, recorded from outside the package.

``Tracer.installed()`` rebinds each traced function, in every rankprobe module
that holds a reference to it, to a wrapper that records one span per call:
name, start, end, parent span and run id.  Spans stay in memory, one buffer
per thread, and are written out by ``Tracer.write``.

Self time (a span's duration minus the time its child spans cover) is summed
per name while the spans close.  Children on the same thread run one after
another, so their durations add up.  ``bench.sweep`` fans its work out to
worker threads: the root spans those threads open while a sweep is open are
its children, and the sweep's self time subtracts the union of their
intervals.

The wrapper's own cost falls between the parent's clock readings, so it counts
as parent self time; the traced run reports the total cost as
``trace.overhead``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np


class _ThreadSpans:
    """Spans opened on one thread, and per-name totals of those closed."""

    def __init__(self, index, n_names):
        self.index = index
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")  # index in this buffer; -1 for a root span
        self.run = array("i")
        self.stack = []  # [span index, seconds covered by closed children]
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.total_s = [0.0] * n_names
        self.stats = {}
        self.current_run = 0
        self.fanout_links = []  # (root span index, fan-out thread, fan-out span index)


class Tracer:
    """Records spans for the functions named in ``targets``.

    ``targets`` is a sequence of ``(span name, owner, attribute, observe,
    kind)``.  ``owner`` is a rankprobe module or class; ``observe``, when not
    None, is called as ``observe(stats, args, result)`` after each call with
    the calling thread's stats dict.  ``kind`` is "plain", "run" (each call
    starts a new run id, which the spans it encloses carry; id 0 means
    outside any run) or "fanout" (root spans of other threads opened during
    the call are its children).
    """

    def __init__(self, modules, targets):
        self.modules = modules
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.threads = []
        self.run_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout = None  # (thread spans, span index) of the open fan-out span
        self._fanout_roots = []  # (start, end) of the spans it caused

    def _spans(self):
        with self._lock:
            spans = _ThreadSpans(len(self.threads), len(self.names))
            self.threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, nid, fn, observe, kind):
        local = self._local
        new_spans = self._spans
        clock = time.perf_counter
        tracer = self

        def open_span(ts):
            i = len(ts.start)
            stack = ts.stack
            ts.name.append(nid)
            ts.run.append(ts.current_run)
            ts.end.append(0.0)
            if stack:
                ts.parent.append(stack[-1][0])
            else:
                ts.parent.append(-1)
                fanout = tracer._fanout
                if fanout is not None and fanout[0] is not ts:
                    ts.fanout_links.append((i, fanout[0].index, fanout[1]))
            frame = [i, 0.0]
            stack.append(frame)
            t0 = clock()
            ts.start.append(t0)
            return frame, t0

        def close_span(ts, frame, t0, covered_elsewhere=0.0):
            t1 = clock()
            stack = ts.stack
            stack.pop()
            dur = t1 - t0
            ts.end[frame[0]] = t1
            ts.calls[nid] += 1
            ts.total_s[nid] += dur
            ts.self_s[nid] += dur - frame[1] - covered_elsewhere
            if stack:
                stack[-1][1] += dur
            elif ts.fanout_links and ts.fanout_links[-1][0] == frame[0]:
                with tracer._lock:
                    tracer._fanout_roots.append((t0, t1))

        if kind == "plain":

            def wrapper(*args, **kwargs):
                try:
                    ts = local.spans
                except AttributeError:
                    ts = new_spans()
                frame, t0 = open_span(ts)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(ts, frame, t0)
                if observe is not None:
                    observe(ts.stats, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                try:
                    ts = local.spans
                except AttributeError:
                    ts = new_spans()
                outer_run = ts.current_run
                if kind == "run":
                    ts.current_run = next(tracer.run_ids)
                frame, t0 = open_span(ts)
                if kind == "fanout":
                    tracer._fanout = (ts, frame[0])
                covered = 0.0
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if kind == "fanout":
                        tracer._fanout = None
                        covered = _union_length(tracer._fanout_roots)
                        tracer._fanout_roots = []
                    close_span(ts, frame, t0, covered)
                    run = ts.current_run
                    ts.current_run = outer_run
                if observe is not None:
                    observe(ts.stats, args, result if kind != "run" else (run, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Trace the targets inside the ``with`` block; restore them after."""
        undo = []
        try:
            for nid, (_name, owner, attr, observe, kind) in enumerate(self.targets):
                original = getattr(owner, attr)
                wrapper = self._wrap(nid, original, observe, kind)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in self.modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def totals(self):
        """Per-name calls, self seconds and inclusive seconds, over all threads."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": sum(ts.calls[nid] for ts in self.threads),
                "self_s": sum(ts.self_s[nid] for ts in self.threads),
                "total_s": sum(ts.total_s[nid] for ts in self.threads),
            }
        return out

    def stats(self):
        """Observer sums merged over threads (numbers add; dicts merge)."""
        merged = {}
        for ts in self.threads:
            for key, value in ts.stats.items():
                if isinstance(value, dict):
                    merged.setdefault(key, {}).update(value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def calls_per_run(self, name):
        """Map run id -> number of ``name`` spans carrying that run id."""
        nid = self.names.index(name)
        counts = {}
        for ts in self.threads:
            names = np.frombuffer(ts.name, dtype=np.int32)
            runs = np.frombuffer(ts.run, dtype=np.int32)
            ids, n = np.unique(runs[names == nid], return_counts=True)
            for run, c in zip(ids.tolist(), n.tolist()):
                counts[run] = counts.get(run, 0) + c
        return counts

    def write(self, path):
        """Write every span as one flat table (.npz): ids are global."""
        offsets = np.cumsum([0] + [len(ts.start) for ts in self.threads])
        parent = []
        for ts, off in zip(self.threads, offsets):
            local = np.frombuffer(ts.parent, dtype=np.int32).astype(np.int64)
            glob = np.where(local >= 0, local + off, -1)
            for i, thread, j in ts.fanout_links:
                glob[i] = offsets[thread] + j
            parent.append(glob)

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(ts, field), dtype=dtype) for ts in self.threads]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        np.savez(
            path,
            names=np.asarray(json.dumps(self.names)),
            name=cat("name", np.int32),
            start=cat("start", np.float64),
            end=cat("end", np.float64),
            parent=np.concatenate(parent) if parent else np.empty(0, dtype=np.int64),
            run=cat("run", np.int32),
            thread=np.repeat(np.arange(len(self.threads)), np.diff(offsets)),
        )


def _union_length(intervals):
    """Seconds covered by the union of (start, end) intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered
