"""Open-loop load generator for the query server (DESIGN.md §12).

A *closed-loop* driver (issue, wait, issue) measures a server that is
never actually saturated: each connection politely waits for its
previous answer, so a slow response throttles the offered load and the
latency numbers look flat right up to the cliff.  The workload engine
instead drives **open-loop**: arrival times are fixed up front by
:func:`arrival_schedule` — a seeded, deterministic schedule independent
of completions — and every connection fires at its scheduled instants
whether or not earlier answers came back.  Latency is measured from
the *scheduled arrival* to completion, so queueing delay the server
caused is charged to the server (no coordinated omission).

:func:`run_load` fans a query mix across ``connections`` worker
threads (round-robin by arrival index), each driving its own target —
anything with a ``query(q)`` method, usually a fresh
:class:`~repro.server.client.ServiceClient` per connection — and folds
the samples into a :class:`LoadReport`: p50/p95/p99 latency,
throughput and error counts *per query type*, JSON-ready for
``benchmarks/_json_out.py``.  Failures never abort the run: each error
is counted under its exception type (a worker death mid-run shows up
as ``ServiceError`` frames, not a crashed benchmark).

Percentiles use the nearest-rank definition (the sample at index
``ceil(p/100 * n)`` of the sorted latencies) — exact, monotone, and
trivially checkable against a hand-computed fixture
(``tests/test_loadgen.py``).
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro import obs


def arrival_schedule(rate, count, seed=None):
    """``count`` arrival offsets (seconds from start) at ``rate``
    arrivals/second.

    ``seed=None`` gives a uniform (paced) schedule — arrival ``i`` at
    ``i / rate``.  With a seed, interarrivals are exponential draws
    from a :class:`random.Random` seeded by the string
    ``"repro-loadgen-<seed>"`` (sha512 string seeding, so the schedule
    is byte-stable across processes): a Poisson arrival process of the
    same mean rate, the standard open-loop traffic model.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if count < 0:
        raise ValueError(f"arrival count must be >= 0, got {count}")
    if seed is None:
        return tuple(i / rate for i in range(count))
    rng = random.Random(f"repro-loadgen-{seed}")
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return tuple(out)


def percentile(samples, p):
    """Nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest
    sample (1-indexed).  ``p=0`` is the minimum, ``p=100`` the
    maximum."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


_PCTS = (50, 95, 99)


@dataclass
class KindStats:
    """Latency/throughput/error accounting for one query kind."""

    kind: str
    latencies: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    #: successful round-trips that were replayed over a fresh
    #: connection after a transport drop (``QueryResult.retried``)
    retried: int = 0

    @property
    def count(self):
        return len(self.latencies) + sum(self.errors.values())

    def row(self, seconds):
        """JSON-safe metrics row (latencies in seconds; throughput
        counts successes only)."""
        row = {"count": self.count,
               "ok": len(self.latencies),
               "errors": dict(sorted(self.errors.items())),
               "retried": self.retried,
               "throughput_qps": (len(self.latencies) / seconds
                                  if seconds > 0 else 0.0)}
        if self.latencies:
            for p in _PCTS:
                row[f"p{p}_s"] = percentile(self.latencies, p)
            row["mean_s"] = sum(self.latencies) / len(self.latencies)
        return row


@dataclass
class LoadReport:
    """The outcome of one :func:`run_load` run."""

    seconds: float
    connections: int
    rate: float
    by_kind: dict = field(default_factory=dict)

    @property
    def total(self):
        merged = KindStats("total")
        for stats in self.by_kind.values():
            merged.latencies.extend(stats.latencies)
            merged.retried += stats.retried
            for name, n in stats.errors.items():
                merged.errors[name] = merged.errors.get(name, 0) + n
        return merged

    @property
    def error_count(self):
        return sum(self.total.errors.values())

    def p99(self):
        lat = self.total.latencies
        return percentile(lat, 99) if lat else math.inf

    def rows(self):
        """The ``rows`` mapping for ``benchmarks/_json_out.py`` — one
        metrics row per query kind plus the merged total."""
        rows = {kind: stats.row(self.seconds)
                for kind, stats in sorted(self.by_kind.items())}
        rows["total"] = self.total.row(self.seconds)
        rows["total"].update({"connections": self.connections,
                              "offered_rate_qps": self.rate,
                              "seconds": self.seconds})
        return rows


def _kind_of(query):
    from repro.server.wire import _KIND_OF_QUERY

    return _KIND_OF_QUERY.get(type(query), type(query).__name__)


def run_load(queries, make_target, rate=200.0, connections=4,
             seed=None, on_result=None):
    """Drive ``queries`` open-loop at ``rate`` arrivals/second across
    ``connections`` independent targets; returns a :class:`LoadReport`.

    ``make_target(i)`` builds connection ``i``'s target — an object
    with ``query(q)`` (and optionally ``close()``), e.g. a fresh
    :class:`~repro.server.client.ServiceClient` per connection so each
    thread owns a socket.  Arrivals come from
    :func:`arrival_schedule(rate, len(queries), seed)` and are dealt
    round-robin to connections; each connection sleeps to its next
    scheduled instant and fires regardless of outstanding answers.
    Exceptions are counted per type under the query's kind; with
    ``on_result`` set, each successful envelope is also passed to it
    (called from connection threads).
    """
    queries = list(queries)
    schedule = arrival_schedule(rate, len(queries), seed=seed)
    by_kind = {}
    lock = threading.Lock()

    def stats_for(kind):
        with lock:
            if kind not in by_kind:
                by_kind[kind] = KindStats(kind)
            return by_kind[kind]

    def connection(idx):
        target = make_target(idx)
        try:
            for j in range(idx, len(queries), connections):
                query, at = queries[j], schedule[j]
                delay = start + at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                arrived = start + at
                kind = _kind_of(query)
                stats = stats_for(kind)
                try:
                    envelope = target.query(query)
                except Exception as exc:
                    name = type(exc).__name__
                    with lock:
                        stats.errors[name] = \
                            stats.errors.get(name, 0) + 1
                    obs.inc(f"loadgen.errors.{kind}")
                else:
                    latency = time.perf_counter() - arrived
                    retried = bool(getattr(envelope, "retried", False))
                    with lock:
                        stats.latencies.append(latency)
                        if retried:
                            stats.retried += 1
                    obs.observe(f"loadgen.latency_seconds.{kind}",
                                latency)
                    if retried:
                        obs.inc(f"loadgen.retried.{kind}")
                    if on_result is not None:
                        on_result(envelope)
        finally:
            close = getattr(target, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=connection, args=(i,),
                                name=f"repro-loadgen-{i}", daemon=True)
               for i in range(max(1, connections))]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    return LoadReport(seconds=seconds,
                      connections=max(1, connections),
                      rate=rate, by_kind=by_kind)


__all__ = [
    "arrival_schedule",
    "percentile",
    "KindStats",
    "LoadReport",
    "run_load",
]
