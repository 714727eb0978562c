"""Process-local metrics registry: counters, gauges and fixed-bucket
histograms with mergeable snapshots (DESIGN.md §13).

Every metric lives in a :class:`MetricsRegistry` under a dotted string
name (``"service.result.hit"``, ``"pool.queue_wait_seconds"``); the
registry is the unit of aggregation — a snapshot is a plain JSON-safe
dict, two snapshots of the same metric merge by addition (counters,
histogram buckets) or replacement (gauges), and
:func:`snapshot_delta` subtracts a baseline so a worker process can
ship only what changed since its last report.  That delta/merge pair is
the cross-process protocol of the serving stack: workers piggyback
deltas on their reply frames and the pool master folds them into
its own registry (see ``repro.server.pool``), so one ``metrics`` wire
verb sees the whole pool.

Everything here is stdlib-only and import-free within the library —
the module can be (and is) imported from the lowest layers without
dependency cycles.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left

#: default histogram bucket upper bounds (seconds): exponential from
#: 10 µs to ~42 s, the range of everything the stack times — a warm
#: label decode sits in the first buckets, a cold 64×64 labeling build
#: in the last.  The implicit final bucket is +inf.
DEFAULT_BUCKETS = tuple(1e-5 * 4 ** i for i in range(12))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def to_dict(self):
        return {"type": "counter", "value": self.value}

    def merge_dict(self, d):
        self.value += d["value"]


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, v):
        self.value = v

    def to_dict(self):
        return {"type": "gauge", "value": self.value}

    def merge_dict(self, d):
        self.value = d["value"]


class Histogram:
    """Fixed-bucket latency histogram (cumulative-free bucket counts).

    ``buckets`` are the finite upper bounds, ascending; an implicit
    final bucket catches everything above the last bound.  Tracks
    count, sum, min and max alongside, so a merged histogram still
    reports exact mean and range.
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v):
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # the first bucket whose bound is >= v; past the last, overflow
        self.counts[bisect_left(self.buckets, v)] += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Upper bound of the bucket holding the ``q``-quantile sample
        (``math.inf`` for the overflow bucket); ``None`` when empty.
        Bucket-resolution only — exact percentiles stay the job of
        :func:`repro.workload.loadgen.percentile`."""
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return (self.buckets[i] if i < len(self.buckets)
                        else math.inf)
        return math.inf

    def to_dict(self):
        return {"type": "histogram", "buckets": list(self.buckets),
                "counts": list(self.counts), "count": self.count,
                "sum": self.sum, "min": self.min, "max": self.max}

    def merge_dict(self, d):
        if list(d["buckets"]) != list(self.buckets):
            raise ValueError(
                f"cannot merge histograms with different buckets "
                f"({len(d['buckets'])} vs {len(self.buckets)} bounds)")
        for i, c in enumerate(d["counts"]):
            self.counts[i] += c
        self.count += d["count"]
        self.sum += d["sum"]
        self.min = min(self.min, d["min"])
        self.max = max(self.max, d["max"])


class WindowedHistogram:
    """Rolling time-window histogram: a ring of fixed-bucket slots
    keyed by the *absolute* slot index ``floor(monotonic / slot_seconds)``.

    Absolute slot keys are the whole trick (DESIGN.md §15): because
    ``CLOCK_MONOTONIC`` is shared by every process of one serving stack
    on one host, a worker and the pool master bucket the same instant
    into the same slot — so per-slot addition is associative and
    commutative, and merge-of-shipped-deltas reproduces local
    aggregation *bit-exactly* (``tests/test_health.py`` proves it with
    hypothesis).  Min/max per slot merge by extremum, which is likewise
    exact because a later delta's slot extremes always dominate the
    earlier ones it extends.

    Expiry is deterministic in the data, not the wall clock: a slot is
    dropped once the *highest slot index ever seen* moves more than
    ``slots`` ahead of it, so two registries fed the same observations
    prune identically regardless of when they look.  Reads
    (:meth:`window`, :meth:`quantile`, :meth:`error_free_rate`-style
    rollups in ``repro.obs.health``) aggregate only slots inside the
    last ``window_seconds`` relative to ``now``.
    """

    kind = "windowed"
    __slots__ = ("buckets", "slot_seconds", "slots", "_slots",
                 "_max_slot")

    def __init__(self, buckets=DEFAULT_BUCKETS, slot_seconds=1.0,
                 slots=60):
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        if slot_seconds <= 0 or slots < 1:
            raise ValueError("slot_seconds must be > 0 and slots >= 1")
        self.slot_seconds = float(slot_seconds)
        self.slots = int(slots)
        #: {absolute slot index: [counts, count, sum, min, max]}
        self._slots = {}
        self._max_slot = None

    @property
    def window_seconds(self):
        return self.slot_seconds * self.slots

    def _slot_index(self, now=None):
        if now is None:
            now = time.monotonic()
        return int(now // self.slot_seconds)

    def observe(self, v, now=None):
        idx = self._slot_index(now)
        slot = self._slots.get(idx)
        if slot is None:
            slot = self._slots[idx] = [
                [0] * (len(self.buckets) + 1), 0, 0.0, math.inf,
                -math.inf]
        slot[0][bisect_left(self.buckets, v)] += 1
        slot[1] += 1
        slot[2] += v
        if v < slot[3]:
            slot[3] = v
        if v > slot[4]:
            slot[4] = v
        self._advance(idx)

    def _advance(self, idx):
        """Record a newly seen slot index and expire what it pushes out
        of the retention horizon (``slots`` live slots ending at the
        max index ever seen)."""
        if self._max_slot is not None \
                and self._max_slot - self.slots < idx <= self._max_slot:
            return  # the horizon holds still and ``idx`` is inside it
        if self._max_slot is None or idx > self._max_slot:
            self._max_slot = idx
        cutoff = self._max_slot - self.slots
        if any(k <= cutoff for k in self._slots):
            self._slots = {k: s for k, s in self._slots.items()
                           if k > cutoff}

    # ------------------------------------------------------------------
    def window(self, seconds=None, now=None):
        """Aggregate the slots covering the last ``seconds`` (default:
        the full window) into one plain dict: ``{"counts", "count",
        "sum", "min", "max", "mean", "buckets", "seconds"}``."""
        if seconds is None:
            seconds = self.window_seconds
        lo = self._slot_index(now) - int(math.ceil(
            seconds / self.slot_seconds)) + 1
        counts = [0] * (len(self.buckets) + 1)
        count, total = 0, 0.0
        vmin, vmax = math.inf, -math.inf
        for idx, slot in self._slots.items():
            if idx < lo:
                continue
            for i, c in enumerate(slot[0]):
                counts[i] += c
            count += slot[1]
            total += slot[2]
            vmin = min(vmin, slot[3])
            vmax = max(vmax, slot[4])
        return {"counts": counts, "count": count, "sum": total,
                "min": vmin, "max": vmax,
                "mean": total / count if count else 0.0,
                "buckets": list(self.buckets), "seconds": seconds}

    def quantile(self, q, seconds=None, now=None):
        """Bucket-resolution ``q``-quantile of the last ``seconds``
        (``None`` when the window is empty) — same contract as
        :meth:`Histogram.quantile`."""
        w = self.window(seconds, now)
        if not w["count"]:
            return None
        rank = max(1, math.ceil(q * w["count"]))
        seen = 0
        for i, c in enumerate(w["counts"]):
            seen += c
            if seen >= rank:
                return (self.buckets[i] if i < len(self.buckets)
                        else math.inf)
        return math.inf

    # ------------------------------------------------------------------
    def to_dict(self):
        return {"type": "windowed", "buckets": list(self.buckets),
                "slot_seconds": self.slot_seconds, "slots": self.slots,
                "data": {str(idx): {"counts": list(s[0]),
                                    "count": s[1], "sum": s[2],
                                    "min": s[3], "max": s[4]}
                         for idx, s in self._slots.items()}}

    def merge_dict(self, d):
        if (list(d["buckets"]) != list(self.buckets)
                or d["slot_seconds"] != self.slot_seconds
                or d["slots"] != self.slots):
            raise ValueError("cannot merge windowed histograms with "
                             "different buckets or window geometry")
        top = None
        for key, rec in d["data"].items():
            idx = int(key)
            slot = self._slots.get(idx)
            if slot is None:
                slot = self._slots[idx] = [
                    [0] * (len(self.buckets) + 1), 0, 0.0, math.inf,
                    -math.inf]
            for i, c in enumerate(rec["counts"]):
                slot[0][i] += c
            slot[1] += rec["count"]
            slot[2] += rec["sum"]
            slot[3] = min(slot[3], rec["min"])
            slot[4] = max(slot[4], rec["max"])
            if top is None or idx > top:
                top = idx
        if top is not None:
            self._advance(top)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "windowed": WindowedHistogram}


class MetricsRegistry:
    """Thread-safe name -> metric mapping with snapshot/merge/delta.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` create on
    first use and return the live metric; asking for an existing name
    as a different kind raises ``ValueError`` (one name, one meaning).
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, name, cls, *args):
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = cls(*args)
                    self._metrics[name] = m
        if type(m) is not cls:
            raise ValueError(f"metric {name!r} is a {type(m).kind}, "
                             f"not a {cls.kind}")
        return m

    def counter(self, name) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets)

    def windowed(self, name, buckets=DEFAULT_BUCKETS, slot_seconds=1.0,
                 slots=60) -> WindowedHistogram:
        return self._get(name, WindowedHistogram, buckets,
                         slot_seconds, slots)

    # convenience write paths (what the instrumentation sites call)
    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def observe(self, name, value, buckets=DEFAULT_BUCKETS):
        self.histogram(name, buckets).observe(value)

    def observe_windowed(self, name, value, now=None,
                         buckets=DEFAULT_BUCKETS, slot_seconds=1.0,
                         slots=60):
        self.windowed(name, buckets, slot_seconds,
                      slots).observe(value, now)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    # ------------------------------------------------------------------
    def get(self, name):
        """The live metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def clear(self):
        with self._lock:
            self._metrics.clear()

    def __len__(self):
        return len(self._metrics)

    # ------------------------------------------------------------------
    # snapshot / merge / delta — the cross-process protocol
    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-safe ``{name: metric dict}`` copy of every metric."""
        with self._lock:
            return {name: m.to_dict()
                    for name, m in self._metrics.items()}

    def merge(self, snap):
        """Fold a snapshot (or delta) produced by another registry into
        this one — counters and histogram buckets add, gauges replace.
        """
        for name, d in snap.items():
            cls = _KINDS.get(d.get("type"))
            if cls is None:
                raise ValueError(f"unknown metric type in snapshot "
                                 f"entry {name!r}: {d.get('type')!r}")
            if cls is Histogram:
                m = self.histogram(name, tuple(d["buckets"]))
            elif cls is WindowedHistogram:
                m = self.windowed(name, tuple(d["buckets"]),
                                  d["slot_seconds"], d["slots"])
            else:
                m = self._get(name, cls)
            m.merge_dict(d)


def snapshot_delta(now, baseline):
    """What changed in ``now`` since ``baseline`` (both snapshots of
    the *same* registry): counters and histograms subtract, gauges pass
    through as-is, unchanged metrics are dropped.  The result merges
    into an aggregating registry without double counting — the worker
    shipping protocol of ``repro.server.pool``."""
    delta = {}
    for name, d in now.items():
        base = baseline.get(name)
        t = d["type"]
        if base is None or base["type"] != t:
            delta[name] = d
            continue
        if t == "counter":
            diff = d["value"] - base["value"]
            if diff:
                delta[name] = {"type": "counter", "value": diff}
        elif t == "gauge":
            if d["value"] != base["value"]:
                delta[name] = d
        elif t == "windowed":
            if (list(d["buckets"]) != list(base["buckets"])
                    or d["slot_seconds"] != base["slot_seconds"]
                    or d["slots"] != base["slots"]):
                delta[name] = d  # geometry change: ship whole
                continue
            data = {}
            for key, rec in d["data"].items():
                brec = base["data"].get(key)
                if brec is None:
                    data[key] = rec
                elif rec["count"] != brec["count"]:
                    data[key] = {
                        "counts": [a - b for a, b in
                                   zip(rec["counts"], brec["counts"])],
                        "count": rec["count"] - brec["count"],
                        "sum": rec["sum"] - brec["sum"],
                        # like plain histograms: the current slot
                        # extremes dominate what already shipped
                        "min": rec["min"], "max": rec["max"]}
            if data:
                delta[name] = {
                    "type": "windowed", "buckets": list(d["buckets"]),
                    "slot_seconds": d["slot_seconds"],
                    "slots": d["slots"], "data": data}
        else:  # histogram
            if d["count"] == base["count"] \
                    or list(d["buckets"]) != list(base["buckets"]):
                if d["count"] != base["count"]:
                    delta[name] = d  # bucket change: ship whole
                continue
            delta[name] = {
                "type": "histogram", "buckets": list(d["buckets"]),
                "counts": [a - b for a, b in zip(d["counts"],
                                                 base["counts"])],
                "count": d["count"] - base["count"],
                "sum": d["sum"] - base["sum"],
                # min/max are not subtractable; the new extremes are
                # correct for the merged view, which is what ships
                "min": d["min"], "max": d["max"]}
    return delta


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedHistogram",
    "MetricsRegistry",
    "snapshot_delta",
    "DEFAULT_BUCKETS",
]
