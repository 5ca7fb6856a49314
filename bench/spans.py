"""In-memory span tracing around the package's public functions.

:class:`Tracer` replaces module and class attributes with timing wrappers
for as long as it is active and puts the originals back on exit.  Each
call records a span (name, start, end, parent, thread) in a list; nothing
is written until :meth:`Tracer.dump`.  A span opened on a worker thread
with no open span of its own takes as parent the innermost span open on
the thread that activated the tracer, which is the sweep that submitted
the work.

:func:`layer_metrics` turns the spans of one round into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    count: int = 0  # work units (blocks, quadrature nodes) where meaningful
    children: list = field(default_factory=list, repr=False)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function.

    Owners are the objects the callers look the names up on, e.g.
    ``harness.encode`` rather than ``codes.encode``, because ``harness``
    imported the name.
    """
    from qostbc import analysis, decoder, fading, harness
    from qostbc.modem import Modulation

    def blocks(args, kwargs):
        return len(args[0])

    nodes = inspect.signature(analysis.mgf_integral)

    def points(args, kwargs):
        return nodes.bind(*args, **kwargs).arguments.get("points", analysis.DEFAULT_POINTS)

    return [
        (harness, "run_sweep", "harness.run_sweep", None),
        (harness, "verify", "harness.verify", None),
        (harness, "capacity_sweep", "harness.capacity_sweep", None),
        (harness, "analytic_ber", "harness.analytic_ber", None),
        (harness, "reduction_residuals", "harness.reduction_residuals", None),
        (harness, "encode", "codes.encode", None),
        (harness, "decode_batch", "decoder.decode_batch", blocks),
        (harness, "count_bit_errors", "modem.count_bit_errors", None),
        (decoder, "encoded_channel_minors", "channels.encoded_channel_minors", None),
        (fading, "sample_gain", "fading.sample_gain", None),
        (fading, "add_awgn", "fading.add_awgn", None),
        (Modulation, "map_bits", "modem.map_bits", None),
        (Modulation, "demap", "modem.demap", None),
        (analysis, "psk_ber", "analysis.psk_ber", None),
        (analysis, "qam_ber", "analysis.qam_ber", None),
        (analysis, "mgf_integral", "analysis.mgf_integral", points),
    ]


class Tracer:
    """Context manager that wraps the package's public functions in spans.

    ``observe`` maps a span name to a callable ``(args, kwargs, result)``
    run after the span has closed, so its cost is not charged to a layer.
    """

    def __init__(self, observe=None):
        self.spans = []
        self._observe = observe or {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home
            parent = home[-1] if home else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, name, start, parent, count, stack):
        end = time.perf_counter()
        stack.pop()
        with self._lock:
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), count))

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of code."""
        sid, parent, stack = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent, 0, stack)

    def _wrap(self, fn, name, counter):
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            sid, parent, stack = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent, count, stack)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        self._home = self._stack()
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._home = None
        return False

    def take(self):
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(rounds, path):
        """Write the spans of every traced round as JSON."""
        out = [[{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, "count": s.count}
                for s in spans] for spans in rounds]
        with open(path, "w") as fh:
            json.dump({"rounds": out}, fh)


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


ENTRY = ("harness.run_sweep", "harness.verify", "harness.capacity_sweep")
BER = ("analysis.psk_ber", "analysis.qam_ber")

LAYER_METRICS = {
    "cli.self_s": "s",
    "harness.self_s": "s",
    "harness.batches": "count",
    "harness.concurrency": "ratio",
    "harness.residuals_s": "s",
    "codes.encode_s": "s",
    "channels.minors_s": "s",
    "decoder.decode_s": "s",
    "decoder.self_s": "s",
    "decoder.us_per_block": "us",
    "decoder.calls": "count",
    "decoder.blocks": "count",
    "modem.map_s": "s",
    "modem.demap_s": "s",
    "modem.count_s": "s",
    "fading.gain_s": "s",
    "fading.noise_s": "s",
    "analysis.ber_calls": "count",
    "analysis.integrals": "count",
    "analysis.nodes": "count",
    "analysis.integral_s": "s",
    "analysis.self_s": "s",
    "analysis.reference_s": "s",
}


def layer_metrics(spans):
    """Per-layer metrics of one round's spans.

    Self time is a span's duration minus the part covered by its children.
    ``harness.self_s`` is the time inside the harness entry points
    (``run_sweep``, ``verify``, ``capacity_sweep``) during which no span of
    any thread below them was open; ``harness.concurrency`` is the summed
    duration of the spans directly below them over their wall time.
    """
    by_id = {s.sid: s for s in spans}
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent in by_id:
            by_id[s.parent].children.append(s)

    def outer(name):
        # outermost spans of a name (a recursive call is not counted twice)
        out = []
        for s in spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(s.end - s.start for s in outer(name))

    def self_time(group):
        return sum(s.end - s.start - _union([(c.start, c.end) for c in s.children])
                   for s in group)

    def descendants(s):
        out, todo = [], list(s.children)
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(c.children)
        return out

    entries = [s for name in ENTRY for s in outer(name)]
    entry_wall = sum(s.end - s.start for s in entries)
    harness_self = sum(s.end - s.start - _union([(d.start, d.end) for d in descendants(s)])
                       for s in entries)
    busy = sum(c.end - c.start for s in entries for c in s.children)
    decodes = outer("decoder.decode_batch")
    blocks = sum(s.count for s in decodes)
    decode_s = total("decoder.decode_batch")
    integrals = [s for s in spans if s.name == "analysis.mgf_integral"]
    bers = [s for name in BER for s in outer(name)]
    return {
        "cli.self_s": self_time(outer("cli.main")),
        "harness.self_s": harness_self,
        "harness.batches": len(outer("modem.count_bit_errors")),
        "harness.concurrency": busy / entry_wall if entry_wall else 0.0,
        "harness.residuals_s": total("harness.reduction_residuals"),
        "codes.encode_s": total("codes.encode"),
        "channels.minors_s": total("channels.encoded_channel_minors"),
        "decoder.decode_s": decode_s,
        "decoder.self_s": self_time(decodes),
        "decoder.us_per_block": decode_s / blocks * 1e6 if blocks else 0.0,
        "decoder.calls": len(decodes),
        "decoder.blocks": blocks,
        "modem.map_s": total("modem.map_bits"),
        "modem.demap_s": total("modem.demap"),
        "modem.count_s": total("modem.count_bit_errors"),
        "fading.gain_s": total("fading.sample_gain"),
        "fading.noise_s": total("fading.add_awgn"),
        "analysis.ber_calls": len(bers),
        "analysis.integrals": len(integrals),
        "analysis.nodes": sum(s.count for s in integrals),
        "analysis.integral_s": sum(s.end - s.start for s in integrals),
        "analysis.self_s": self_time(bers),
        "analysis.reference_s": total("harness.analytic_ber"),
    }
