"""Pre-warmed worker pool: compile once, serve from many processes
(DESIGN.md §10).

The serving problem is not making warm queries fast — it is *sharing
the warmth*: a worker process that builds its own catalog re-pays the
CSR compile, BDD build and Theorem 2.1 labeling before answering
anything.  A
:class:`WarmWorkerPool` inverts the order:

1. **register + prewarm** — graphs are registered in the *master*
   :class:`~repro.service.catalog.GraphCatalog` and the expensive
   artifacts (flow solvers, labelings, girth oracles) are built once,
   in the parent;
2. **fork** — :meth:`WarmWorkerPool.start` forks the workers, which
   inherit the hot catalog copy-on-write: no pickling, no rebuild, a
   worker's first query is already warm.  Where ``fork`` is
   unavailable the pool falls back to ``spawn`` and hands each worker
   a pickled :class:`~repro.service.catalog.CatalogSnapshot` instead
   (same warm artifacts, one payload; an artifact that does not
   pickle is skipped and rebuilt by the worker on first use);
3. **serve** — queries are dispatched over *all* workers with a
   bounded per-worker window: any worker answers any query, so a skewed
   mix (10⁴ queries on one graph, 3 on another) still saturates the
   pool — the imbalance a one-process-per-graph fan-out cannot
   avoid.

Consistency: each worker owns a private catalog copy, and commands
(``register``, ``set_weights``, ``mutate_weights``) run on the master
catalog, then go to every worker's socket as the catalog call to
replay; the socket is FIFO per worker — so a query
submitted *after* :meth:`set_weights` / :meth:`mutate_weights` returns
always sees the new weights, while queries already in flight may
complete under either weighting.  Call :meth:`drain` first for a
barrier; :meth:`audit_labeling` checks every worker's labels against a
from-scratch rebuild.

Transport: one duplex socket pair per worker; every message is its own
length-prefixed pickle (:func:`_frame`).  A send never blocks its
caller: the master writes what the socket takes and leaves the tail in
that worker's FIFO outbox.  No thread is dedicated to reading: a thread
waiting on a pool future takes the pool's single *reader role* when it
is free, selects on every live worker socket and handles every frame
it reads — replies, heartbeats, obs deltas, and the dispatch of the
pending jobs a reply frees — until its own future is done, then hands
the role on.  The watchdog tick takes the role when nobody holds it,
drains without waiting and flushes the outboxes.  A reply thus costs
two wake-ups: the worker's, then the waiting thread's.

Failure containment: a query that raises inside a worker ships the
exception back (typed, the original class when picklable) and fails
only that query's future; a worker that *dies* fails its in-flight
futures with :class:`~repro.errors.ServiceError` and the pool carries
on with the survivors.

Accounting: each query is recorded once, where it completes, in the
pool's own always-on metrics registry; ``stats``, ``health`` and
``metrics`` all read that one registry (DESIGN.md §13).
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeout

from repro import obs
from repro.errors import NegativeCycleError, RemoteError, ServiceError
from repro.obs.health import ERROR_PREFIX, LATENCY_PREFIX
from repro.server import wire
from repro.service.queries import execute_query

_PREWARM_KINDS = ("flow", "cut", "distance", "girth")
#: queries in flight per worker: one running, one queued behind it
_WINDOW = 2
#: a frame's length prefix
_HEADER = struct.Struct("!Q")
#: bytes one ``recv`` asks for
_CHUNK = 1 << 16
#: longest a reader sleeps in ``select`` before re-checking its future
_READ_SLICE = 1.0


def _frame(msg):
    """``msg`` as one frame: its pickle behind an 8-byte length."""
    data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _unframe(buf):
    """Pop every whole frame off the front of the bytearray ``buf``
    and return their messages; a partial frame stays in ``buf``."""
    msgs = []
    pos = 0
    while len(buf) - pos >= _HEADER.size:
        (size,) = _HEADER.unpack_from(buf, pos)
        stop = pos + _HEADER.size + size
        if stop > len(buf):
            break
        msgs.append(pickle.loads(buf[pos + _HEADER.size:stop]))
        pos = stop
    del buf[:pos]
    return msgs


def _execute(catalog, query, bodies=None):
    """Serve one query; given ``bodies`` (a :class:`~repro.server.
    wire.BodyMemo`, for a :class:`~repro.server.app.QueryServer` job)
    a flow, cut or girth result is replaced by its encoded
    :class:`~repro.server.wire.Body`, so it is encoded once and
    crosses the worker's socket as text."""
    r = execute_query(catalog, query)
    if bodies is not None:
        r.result = bodies.ship(r.result)
    return r


def _reply(sock, job_id, fn, *args, **kwargs):
    """Worker side: run ``fn`` and send its outcome as the reply to
    ``job_id``, with the worker's obs delta riding along."""
    try:
        frame = _frame((job_id, True, fn(*args, **kwargs),
                        obs.ship_delta()))
    except Exception as exc:  # also a result that does not pickle
        frame = _frame((job_id, False, _ship_exc(exc), obs.ship_delta()))
    sock.sendall(frame)


def _worker_main(catalog, snapshot, sock, inherited, obs_on,
                 hb_interval):
    """Worker process entry point (top-level for spawn picklability).

    Exactly one of ``catalog`` (fork: the master catalog, inherited
    copy-on-write) and ``snapshot`` (spawn: pickled warm-state handoff)
    is set.  ``sock`` is the worker's end of its socket pair;
    ``inherited`` lists the master-side socket fds a fork copied, which
    the worker closes, so that the master's close reaches it as EOF and
    its own death reaches the master as EOF.  EOF is the stop command.

    ``obs_on`` mirrors the master's :func:`repro.obs.enabled` at fork
    time.  An observing worker runs in *shipping mode*: finished spans
    and metric deltas buffer locally and ride back piggybacked on
    every reply (its 4th element), which the reading thread
    :func:`~repro.obs.ingest`\\ s — so one query's spans stitch into
    the submitting trace and the master registry aggregates every
    worker.

    An *idle* worker sends a heartbeat reply (``job_id=None``) every
    ``hb_interval`` seconds — the watchdog's liveness signal.  Every
    real reply doubles as a heartbeat, so only a worker that is neither
    serving nor idling (wedged, killed, or stopped) goes silent.
    """
    for fd in inherited:
        try:
            os.close(fd)
        except OSError:
            pass
    if obs_on:
        obs.enable()
    obs.configure_shipping(True)  # inherited sinks must stay silent
    if catalog is None:
        catalog = snapshot.restore()
    bodies = wire.BodyMemo(catalog.results.maxsize)
    ready = selectors.DefaultSelector()
    ready.register(sock, selectors.EVENT_READ)
    buf, inbox = bytearray(), deque()
    try:
        while True:
            if not inbox:
                if not ready.select(hb_interval):
                    sock.sendall(_frame((None, True, "heartbeat",
                                         obs.ship_delta())))
                    continue
                chunk = sock.recv(_CHUNK)
                if not chunk:
                    return  # the pool closed
                buf += chunk
                inbox.extend(_unframe(buf))
                continue
            msg = inbox.popleft()
            verb = msg[0]
            if verb == "query":
                _, job_id, query, body, ctx, t_submit = msg
                obs.observe("pool.queue_wait_seconds",
                            max(0.0, time.monotonic() - t_submit))
                token = obs.activate_trace(ctx)
                try:
                    _reply(sock, job_id, _execute, catalog, query,
                           bodies if body else None)
                finally:
                    obs.deactivate_trace(token)
            elif verb == "call":
                _, job_id, method, args, kwargs = msg
                _reply(sock, job_id, getattr(catalog, method), *args,
                       **kwargs)
            elif verb == "apply":
                _, method, args, kwargs = msg
                try:
                    getattr(catalog, method)(*args, **kwargs)
                except Exception:
                    # a failed broadcast must not kill the worker: the
                    # master catalog already ran the same call, and a
                    # NegativeCycleError still applied the weights (as
                    # on the master), so the worker converges
                    pass
    except OSError:
        return  # the master end is gone


def _ship_exc(exc):
    """The exception itself when it survives a pickle round trip, else
    ``(type_name, str)`` — a reply must always reach the master."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return (type(exc).__name__, str(exc))


def _unship_exc(payload):
    if isinstance(payload, BaseException):
        return payload
    name, message = payload
    return RemoteError(message, remote_type=name)


class _PoolFuture(Future):
    """A pool job's future: waiting on it reads the workers' replies
    while no other thread does (:meth:`WarmWorkerPool._wait`)."""

    def __init__(self, pool):
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        self._pool._wait(self, timeout)
        return super().result(timeout=0)

    def exception(self, timeout=None):
        self._pool._wait(self, timeout)
        return super().exception(timeout=0)


class WarmWorkerPool:
    """Load-balancing query pool over one pre-warmed catalog.

    ``workers=0`` is the in-process mode: no child processes, queries
    execute synchronously (under a lock) against the master catalog —
    the portable fallback and the zero-overhead choice for tests and
    single-tenant embedding.  ``start_method`` pins the multiprocessing
    start method (default: ``fork`` where available, else ``spawn``).
    ``audit_interval`` (seconds) opts into an engine labeling audit of
    every graph on the watchdog's idle ticks; :meth:`health` reports
    the last one and breaches on a failure.

    Use as a context manager, or call :meth:`close` — forked children
    are daemons, but closing promptly frees their catalog copies.
    """

    def __init__(self, workers=None, start_method=None, slos=None,
                 heartbeat_interval=0.25, stall_after=30.0,
                 audit_interval=None):
        from repro.service.catalog import GraphCatalog

        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers < 0:
            raise ServiceError("workers must be >= 0")
        if heartbeat_interval <= 0 or stall_after <= 0:
            raise ServiceError("heartbeat_interval and stall_after "
                               "must be positive")
        if audit_interval is not None and audit_interval <= 0:
            raise ServiceError("audit_interval must be positive "
                               "(or None to disable)")
        self.workers = workers
        self.start_method = start_method
        self.catalog = GraphCatalog()
        # the workers=0 mode's encoded bodies (each worker owns its own)
        self._bodies = wire.BodyMemo(self.catalog.results.maxsize)
        #: declarative SLOs the ``health`` verb evaluates (iterable of
        #: :class:`repro.obs.SloPolicy`; None -> the default wildcard)
        self.slos = tuple(slos) if slos else None
        self.heartbeat_interval = heartbeat_interval
        self.stall_after = stall_after

        self._lock = threading.Lock()
        # hands the reader role on; wakes threads parked on a future
        self._cond = threading.Condition(self._lock)
        self._reader = None                # ident of the reader thread
        self._waiting = 0                  # threads parked on _cond
        self._started = False
        self._closed = False
        self._procs = {}
        self._selector = None              # every live worker socket
        self._socks = {}                   # worker_id -> master end
        self._outbox = {}                  # worker_id -> unsent frames
        self._inbuf = {}                   # worker_id -> partial frame
        self._writing = set()              # selected for EVENT_WRITE
        self._job_counter = 0
        # (job_id, query, body, trace_ctx, t_submit)
        self._pending = deque()
        # job_id -> [future, query kind (None: a catalog call), worker
        # id (None: pending)]
        self._jobs = {}
        self._inflight = {}                # worker_id -> count
        self._completed = {}               # worker_id -> count
        self._dead = set()
        # the pool's own accounting, always on: per-kind serve
        # histograms and warm counters, the SLO windows, and the
        # dispatch and liveness series
        self._registry = obs.MetricsRegistry()
        # watchdog / health state
        self._started_at = None            # monotonic, set by start()
        self._last_seen = {}               # worker_id -> monotonic
        self._watchdog = None
        self._watchdog_stop = threading.Event()
        # background audit scheduler (opt-in)
        self._audit_interval = audit_interval
        self._audit_at = None              # monotonic of last run
        self._last_audit = None            # last run's report dict

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register(self, name, graph, overwrite=False):
        """Register ``graph`` in the master catalog; after
        :meth:`start`, also broadcast it to every worker (workers build
        its artifacts on demand — only pre-fork graphs inherit warmth).
        """
        return self._apply("register", name, graph, overwrite=overwrite)

    def prewarm(self, names=None, kinds=("flow", "distance")):
        """Build the expensive artifacts in the master catalog, before
        forking.  ``kinds`` ⊆ ``{"flow", "cut", "distance", "girth"}``
        (``cut`` is an alias of ``flow`` — both live on the flow
        solver; ``girth`` additionally memoizes the girth answer).
        Returns ``{(name, kind): seconds}`` for observability.

        ``"distance"`` warms the labeling *and*, through it, the
        topology-keyed decomposition entries (BDD + dual bags) in the
        engine's shared cache — workers inherit them via fork or via
        the snapshot's topo-token rekeying, so a worker-side
        ``set_weights`` reprice rebuilds labels without ever re-running
        the Lemma 5.1 recursion.
        """
        from repro.service.queries import GirthQuery

        unknown = sorted(set(kinds) - set(_PREWARM_KINDS))
        if unknown:
            raise ServiceError(f"unknown prewarm kind(s) {unknown}; "
                               f"expected from {_PREWARM_KINDS}")
        took = {}
        for name in (self.catalog.names() if names is None else names):
            entry = self.catalog.get(name)
            for kind in kinds:
                t0 = time.perf_counter()
                if kind in ("flow", "cut"):
                    entry.flow_solver()
                elif kind == "distance":
                    entry.labeling()
                elif kind == "girth":
                    self.catalog.serve(GirthQuery(name))
                took[(name, kind)] = time.perf_counter() - t0
        return took

    def start(self):
        """Fork the workers (no-op layout for ``workers=0``).  Must be
        called before :meth:`submit`; graphs registered and prewarmed
        so far are inherited hot."""
        import multiprocessing as mp

        if self._started:
            raise ServiceError("pool already started")
        if self._closed:
            raise ServiceError("pool is closed")
        self._started = True
        self._started_at = time.monotonic()
        if self.workers == 0:
            if self._audit_interval is not None:
                self._start_watchdog()
            return self
        method = self.start_method
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() \
                else "spawn"
        self._method = method
        ctx = mp.get_context(method)
        fork = method == "fork"
        snapshot = None if fork else self.catalog.snapshot()
        for wid in range(self.workers):
            master, child = socket.socketpair()
            inherited = [s.fileno() for s in self._socks.values()] \
                + [master.fileno()] if fork else []
            proc = ctx.Process(
                target=_worker_main,
                args=(self.catalog if fork else None, snapshot, child,
                      inherited, obs.enabled(), self.heartbeat_interval),
                daemon=True, name=f"repro-server-worker-{wid}")
            proc.start()
            child.close()  # the worker holds the only other copy
            master.setblocking(False)
            self._procs[wid] = proc
            self._socks[wid] = master
            self._outbox[wid] = deque()
            self._inbuf[wid] = bytearray()
            self._inflight[wid] = 0
            self._completed[wid] = 0
            self._last_seen[wid] = time.monotonic()
        self._selector = selectors.DefaultSelector()
        for wid, sock in self._socks.items():
            self._selector.register(sock, selectors.EVENT_READ, wid)
        self._start_watchdog()
        return self

    def _start_watchdog(self):
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, daemon=True,
            name="repro-server-watchdog")
        self._watchdog.start()

    def close(self):
        """Stop the workers and fail any unresolved futures."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            doomed = [job[0] for job in self._jobs.values()]
            self._jobs.clear()
            self._pending.clear()
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)
        for sock in self._socks.values():
            try:
                # EOF stops the worker and wakes a reader in select
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._settle([(fut, False, ServiceError("worker pool closed"))
                      for fut in doomed])
        for proc in self._procs.values():
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)  # reap, so no zombie outlives us
        with self._cond:
            self._cond.wait_for(lambda: self._reader is None, timeout=5)
            for sock in self._socks.values():
                sock.close()
            if self._selector is not None:
                self._selector.close()

    def __enter__(self):
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def submit(self, query, body=False):
        """Enqueue one typed query; returns a
        :class:`concurrent.futures.Future` resolving to the worker's
        :class:`~repro.service.queries.QueryResult` (or raising what
        the query raised).

        With ``body=True`` (what :class:`~repro.server.app.QueryServer`
        asks for) the envelope's ``result`` is what
        :meth:`~repro.server.wire.BodyMemo.ship` gives: the
        :class:`~repro.server.wire.Body` the worker encoded for a flow,
        cut or girth result, a distance as itself.
        """
        if not self._started:
            raise ServiceError("pool not started (call start())")
        fut = _PoolFuture(self)
        kind = type(query).__name__
        if self.workers == 0:
            with self._lock:
                if self._closed:
                    raise ServiceError("worker pool closed")
                try:
                    r = _execute(self.catalog, query,
                                 self._bodies if body else None)
                except Exception as exc:
                    self._account(kind, None)
                    fut.set_exception(exc)
                else:
                    self._account(kind, r)
                    fut.set_result(r)
            return fut
        # captured outside the lock: the ambient trace context of the
        # submitting thread rides the query frame so the worker's
        # spans stitch under the caller's span; t_submit (monotonic,
        # cross-process comparable on this host) prices the queue wait
        ctx = obs.current_trace()
        t_submit = time.monotonic()
        with self._lock:
            # re-checked under the lock: a close() that won the race
            # has already doomed every registered future, and one
            # registered after it would never resolve
            if self._closed:
                raise ServiceError("worker pool closed")
            if len(self._dead) == len(self._procs) and self._procs:
                # no worker will ever pick this up — fail now instead
                # of parking it until the reaper's next clock tick
                fut.set_exception(ServiceError("all pool workers died"))
                return fut
            self._job_counter += 1
            job_id = self._job_counter
            self._jobs[job_id] = [fut, kind, None]
            self._pending.append((job_id, query, body, ctx, t_submit))
            self._fill()
        return fut

    def run(self, queries):
        """Serve a batch across the pool; returns a
        :class:`~repro.service.batch.BatchReport` in input order.

        ``warm`` accounting is per *worker* catalog — the same query
        repeated may land on different workers and be cold in each
        until every copy has seen it.
        """
        from repro.service.batch import BatchReport

        t0 = time.perf_counter()
        futures = [self.submit(q) for q in queries]
        results = [f.result() for f in futures]
        return BatchReport(results=results,
                           seconds=time.perf_counter() - t0)

    def drain(self, timeout=None):
        """Block until every submitted query has resolved — the barrier
        that makes a following :meth:`set_weights` total."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                live = [job[0] for job in self._jobs.values()]
                if not live and not self._pending:
                    return
            for f in live:
                remaining = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                f.exception(timeout=remaining)

    def set_weights(self, name, weights=None, capacities=None):
        """Reprice ``name`` on the master catalog and broadcast the
        mutation to every worker (FIFO per worker: later submissions
        always see the new weights)."""
        # materialize first: the master catalog and the broadcast must
        # see the same values even when handed a one-shot iterable
        weights = None if weights is None else list(weights)
        capacities = None if capacities is None else list(capacities)
        self._apply("set_weights", name, weights=weights,
                    capacities=capacities)

    def mutate_weights(self, name, edges):
        """Delta-reprice a few edges pool-wide (DESIGN.md §11):
        :meth:`~repro.service.catalog.GraphCatalog.mutate_weights` on
        the master catalog, then the same mutation broadcast to every
        worker's FIFO socket — a query submitted after this
        returns can only see the new weights; call :meth:`drain` first
        when in-flight queries must not straddle the reprice.

        Returns the master catalog's report.  A
        :class:`~repro.errors.NegativeCycleError` is re-raised after
        the broadcast (the weights are applied everywhere and every
        catalog dropped its labelings, exactly like the master)."""
        # materialize first: master and broadcast must see the same
        # values even when handed a one-shot iterable
        edges = dict(edges) if hasattr(edges, "items") \
            else [tuple(item) for item in edges]
        return self._apply("mutate_weights", name, edges)

    def audit_labeling(self, name, leaf_size=None, backend="engine",
                       timeout=None):
        """Run :meth:`~repro.service.catalog.GraphCatalog.
        audit_labeling` on the master catalog *and* inside every live
        worker (each audits its own serving catalog against a fresh
        rebuild).  Raises the first :class:`~repro.errors.AuditError`
        (or other failure) any catalog reports; otherwise returns
        ``{"master": report, "workers": {wid: report}}``."""
        with self._lock:
            master = self.catalog.audit_labeling(name,
                                                 leaf_size=leaf_size,
                                                 backend=backend)
        futures = self._ask_workers("audit_labeling", name,
                                    leaf_size=leaf_size, backend=backend)
        return {"master": master,
                "workers": {wid: fut.result(timeout=timeout)
                            for wid, fut in futures.items()}}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self, worker_catalogs=True, timeout=10.0):
        """Pool observability: worker occupancy, per-query-type latency
        rollup, master-catalog cache counters and (optionally) each
        worker's own catalog counters.

        The per-worker catalog probe rides each worker's FIFO socket, so
        a worker busy with a long cold query past ``timeout`` reports
        ``{"busy": True}`` instead of blocking the caller — stats stay
        available exactly when the pool is loaded."""
        now = time.monotonic()
        with self._lock:
            occupancy = self._worker_rows(now)
            by_kind = self._by_kind()
            pending = len(self._pending)
            master = self.catalog.stats()  # under the lock: workers=0
            #                                serves against this catalog
        stats = {"workers": self.workers,
                 "start_method": getattr(self, "_method", "in-process"),
                 "uptime_s": (now - self._started_at
                              if self._started_at is not None else 0.0),
                 "pending": pending,
                 "occupancy": occupancy,
                 "by_kind": by_kind,
                 "master": master}
        if worker_catalogs and self._forked():
            futures = self._ask_workers("stats")
            catalogs = {}
            deadline = time.monotonic() + timeout
            for wid, fut in futures.items():
                try:
                    catalogs[wid] = fut.result(
                        timeout=max(0.0, deadline - time.monotonic()))
                except FutureTimeout:
                    catalogs[wid] = {"busy": True}
                except Exception as exc:
                    # e.g. the worker died with the probe outstanding;
                    # degrade per worker, never fail the whole call
                    catalogs[wid] = {"unavailable": str(exc)}
            stats["catalogs"] = catalogs
        return stats

    def metrics(self):
        """The pool's own metrics — always on: the ``pool.*`` serve,
        warm, dispatch and liveness series and the ``health.*`` SLO
        windows — over the :mod:`repro.obs` registry snapshot, which
        holds the master process's metrics plus every delta the
        workers have shipped so far (empty while observability never
        ran)."""
        snap = obs.registry().snapshot()
        with self._lock:
            snap.update(self._registry.snapshot())
        return snap

    # ------------------------------------------------------------------
    # health (DESIGN.md §15)
    # ------------------------------------------------------------------
    def health(self, now=None):
        """Liveness/readiness report for the ``health`` wire verb.

        The state machine: ``starting`` (not yet started) → ``ready``
        (serving, every worker live) → ``degraded`` (a worker died or
        went silent past ``stall_after`` — the pool still serves on
        survivors) → ``unready`` (no live worker) → ``closed``.
        ``status`` folds that with the SLO evaluation and the last
        background audit: anything short of fully live is a
        ``breach``; a ready pool reports the worst of its SLO verdicts
        (``ok``/``warn``/``breach``) and breaches on a failed audit.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            started, closed = self._started, self._closed
            pending = len(self._pending)
            detail = self._worker_rows(now)
            slo_report = obs.evaluate_slos(self.slos, self._registry)
        total = len(detail)
        alive = sum(row["alive"] for row in detail)
        stalled = sum(row["stalled"] for row in detail)
        if closed:
            state = "closed"
        elif not started:
            state = "starting"
        elif total and alive == 0:
            state = "unready"
        elif alive < total or stalled:
            state = "degraded"
        else:
            state = "ready"
        audit = self._last_audit
        audit_ok = audit is None or audit.get("ok", False)
        if state == "ready":
            status = obs.worst_status(
                [slo_report["status"],
                 "ok" if audit_ok else "breach"])
        elif state == "starting":
            status = "warn"
        else:
            status = "breach"
        return {
            "state": state, "status": status,
            "uptime_s": (now - self._started_at
                         if self._started_at is not None else 0.0),
            "workers": {"total": total, "alive": alive,
                        "stalled": stalled, "detail": detail},
            "queue_depth": pending,
            "inflight": sum(row["inflight"] for row in detail),
            "slos": slo_report,
            "audit": audit,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _forked(self):
        """True while forked workers are serving commands."""
        return bool(self.workers) and self._started and not self._closed

    def _apply(self, method, *args, **kwargs):
        """Run catalog ``method`` on the master catalog, then replay it
        on every worker — also after a
        :class:`~repro.errors.NegativeCycleError`, which is raised once
        the replay is sent (the weights are applied in that case)."""
        failure = None
        # under the lock: with workers=0 the master catalog is the
        # serving catalog, and submit() executes queries against it
        # from concurrent server handler threads
        with self._lock:
            try:
                out = getattr(self.catalog, method)(*args, **kwargs)
            except NegativeCycleError as exc:
                failure = exc
            if self._forked():
                frame = _frame(("apply", method, args, kwargs))
                for wid in self._socks:
                    if wid not in self._dead:
                        self._send(wid, frame)
        if failure is not None:
            raise failure
        return out

    def _ask_workers(self, method, *args, **kwargs):
        """Call catalog ``method`` in every live worker as an
        accounting-free job (not a query: it moves no occupancy
        counter); returns ``{worker_id: Future}``."""
        futures = {}
        with self._lock:
            if not self._forked():
                return futures
            for wid in self._procs:
                if wid in self._dead:
                    continue
                self._job_counter += 1
                job_id = self._job_counter
                futures[wid] = fut = _PoolFuture(self)
                self._jobs[job_id] = [fut, None, wid]
                self._send(wid, _frame(("call", job_id, method, args,
                                        kwargs)))
        return futures

    def _worker_rows(self, now):
        """One liveness/load row per worker — the ``occupancy`` of
        :meth:`stats` and the ``detail`` of :meth:`health`; a single
        ``in-process`` row for ``workers=0``.  Caller holds the lock."""
        if not self.workers:
            return [{"worker": "in-process",
                     "alive": self._started and not self._closed,
                     "stalled": False, "pid": os.getpid(),
                     "heartbeat_age_s": 0.0, "inflight": 0,
                     "completed": sum(row["count"] for row
                                      in self._by_kind().values())}]
        rows = []
        for wid, proc in self._procs.items():
            alive = wid not in self._dead
            age = now - self._last_seen.get(wid, now)
            rows.append({"worker": wid, "alive": alive,
                         "stalled": alive and age > self.stall_after,
                         "pid": proc.pid, "heartbeat_age_s": age,
                         "inflight": self._inflight.get(wid, 0),
                         "completed": self._completed.get(wid, 0)})
        return rows

    def _fill(self):
        """Dispatch pending queries to the least-loaded live workers,
        bounded by :data:`_WINDOW` in flight per worker.  Caller holds the
        lock."""
        while self._pending:
            candidates = [(count, wid)
                          for wid, count in self._inflight.items()
                          if wid not in self._dead and count < _WINDOW]
            if not candidates:
                return
            count, wid = min(candidates)
            job_id, query, body, ctx, t_submit = \
                self._pending.popleft()
            self._jobs[job_id][2] = wid
            self._inflight[wid] = count + 1
            self._registry.inc("pool.dispatched")
            self._send(wid, _frame(
                ("query", job_id, query, body, ctx, t_submit)))

    def _send(self, wid, frame):
        """Queue ``frame`` behind worker ``wid``'s unsent frames and
        write what its socket takes now — never blocking.  Caller holds
        the lock."""
        self._outbox[wid].append(frame)
        self._flush(wid)

    def _flush(self, wid):
        """Write worker ``wid``'s outbox, oldest frame first, until the
        socket would block, and select the socket for writing while a
        tail is left.  Caller holds the lock."""
        box, sock = self._outbox[wid], self._socks[wid]
        try:
            while box:
                sent = sock.send(box[0])
                if sent < len(box[0]):
                    box[0] = memoryview(box[0])[sent:]
                    break
                box.popleft()
        except BlockingIOError:
            pass
        except OSError:
            box.clear()  # the worker is gone; its EOF fails its jobs
        if bool(box) != (wid in self._writing):
            self._writing ^= {wid}
            self._selector.modify(
                sock, selectors.EVENT_READ
                | (selectors.EVENT_WRITE if box else 0), wid)

    def _account(self, kind, result):
        """Record one served query of ``kind``: its
        :class:`~repro.service.queries.QueryResult`, or None when it
        failed.  Caller holds the lock."""
        if result is None:
            # a failure carries no serve time; the window counts it
            self._registry.observe_windowed(ERROR_PREFIX + kind, 0.0)
            return
        self._registry.observe(f"pool.serve_seconds.{kind}",
                               result.seconds)
        if result.warm:
            self._registry.inc(f"pool.warm.{kind}")
        self._registry.observe_windowed(LATENCY_PREFIX + kind,
                                        result.seconds)

    def _by_kind(self):
        """``{kind: {"count", "warm", "seconds"}}`` over the served
        queries, in order of each kind's first success.  Caller holds
        the lock."""
        prefix = "pool.serve_seconds."
        snap = self._registry.snapshot()
        rows = {}
        for name, hist in snap.items():
            if name.startswith(prefix):
                kind = name[len(prefix):]
                warm = snap.get("pool.warm." + kind)
                rows[kind] = {"count": hist["count"],
                              "warm": warm["value"] if warm else 0,
                              "seconds": hist["sum"]}
        return rows

    # ------------------------------------------------------------------
    # the reader role
    # ------------------------------------------------------------------
    def _wait(self, fut, timeout):
        """Block until ``fut`` is done or ``timeout`` passes.  While no
        other thread holds the reader role, take it and read the
        workers' replies — everyone's, not only ``fut``'s; otherwise
        park on the condition until ``fut`` is done or the role is
        free."""
        if fut.done():
            return
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        me = threading.get_ident()
        with self._cond:
            # a done-callback run by the reader may wait on another job
            nested = self._reader == me
            if not nested:
                self._waiting += 1
                try:
                    while self._reader is not None and not fut.done():
                        left = None if deadline is None \
                            else deadline - time.monotonic()
                        if left is not None and left <= 0:
                            return
                        self._cond.wait(left)
                finally:
                    self._waiting -= 1
                if fut.done():
                    return
                self._reader = me
        try:
            while not fut.done():
                left = _READ_SLICE if deadline is None \
                    else min(_READ_SLICE, deadline - time.monotonic())
                if left <= 0:
                    return
                self._pump(left)
        finally:
            if not nested:
                self._release()

    def _drain(self):
        """The watchdog's turn as reader: when the role is free, handle
        what the workers sent and flush the outboxes, never waiting."""
        with self._lock:
            if self._reader is not None or self._closed:
                return
            self._reader = threading.get_ident()
        try:
            while self._pump(0):
                pass
        finally:
            self._release()

    def _release(self):
        with self._cond:
            self._reader = None
            if self._waiting:
                self._cond.notify_all()

    def _pump(self, timeout):
        """One reader step: wait up to ``timeout`` seconds on the live
        worker sockets, flush the outboxes that can take more, and
        handle every frame that arrived.  Returns how many sockets were
        ready.  Only the reader-role holder calls this."""
        events = self._selector.select(timeout)
        settled = []
        for key, mask in events:
            wid = key.data
            if mask & selectors.EVENT_WRITE:
                with self._lock:
                    self._flush(wid)  # a dead worker's: deselects it
            if mask & selectors.EVENT_READ:
                settled += self._read(wid, key.fileobj)
        self._settle(settled)
        return len(events)

    def _read(self, wid, sock):
        """Take what worker ``wid`` sent; returns the ``(future, ok,
        payload)`` outcomes to settle."""
        buf = self._inbuf[wid]
        eof = False
        while True:
            try:
                chunk = sock.recv(_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                chunk = b""
            if not chunk:
                eof = True
                break
            buf += chunk
            if len(chunk) < _CHUNK:
                break
        try:
            msgs = _unframe(buf)
        except Exception:
            # a frame that does not unpickle: this worker's stream is
            # lost, so it is treated as dead (the unreadable reply's
            # future fails with the rest of its jobs)
            self._procs[wid].kill()
            msgs, eof = [], True
        for msg in msgs:
            obs.ingest(msg[3])
        now = time.monotonic()
        settled = []
        with self._lock:
            self._last_seen[wid] = now  # every frame proves liveness
            for job_id, ok, payload, _ in msgs:
                job = self._jobs.pop(job_id, None)
                if job is None:
                    continue  # a heartbeat, or a job close() failed
                fut, kind, _ = job
                if kind is not None:
                    self._inflight[wid] = max(0, self._inflight[wid] - 1)
                    self._completed[wid] += 1
                    self._account(kind, payload if ok else None)
                settled.append((fut, ok, payload))
            if eof:
                # the worker exited, or close() shut the socket down
                self._selector.unregister(sock)
                self._writing.discard(wid)
                buf.clear()
                if not self._closed:
                    settled += self._mark_dead(wid)
            self._fill()
        return settled

    def _settle(self, settled):
        """Resolve ``(future, ok, payload)`` outcomes — outside the lock,
        for their done-callbacks — and wake the threads parked on
        futures."""
        for fut, ok, payload in settled:
            try:
                if ok:
                    fut.set_result(payload)
                else:
                    fut.set_exception(_unship_exc(payload))
            except InvalidStateError:
                pass  # cancelled by its owner
        if settled and self._waiting:
            with self._cond:
                self._cond.notify_all()

    def _mark_dead(self, wid):
        """Retire worker ``wid``; returns the outcomes that fail its
        jobs (and every pending job once no worker is left).  Caller
        holds the lock."""
        if wid in self._dead:
            return []
        self._dead.add(wid)
        self._inflight[wid] = 0
        self._outbox[wid].clear()
        self._registry.inc("pool.worker_deaths")
        self._registry.set_gauge("pool.workers_alive",
                                 len(self._procs) - len(self._dead))
        # with no worker left, the pending jobs (worker None) fail too
        orphans = len(self._dead) == len(self._procs)
        doomed = []
        for job_id, (fut, _, owner) in list(self._jobs.items()):
            if owner == wid or (orphans and owner is None):
                del self._jobs[job_id]
                doomed.append((fut, False, ServiceError(
                    f"worker {wid} died mid-query" if owner == wid
                    else "all pool workers died")))
        if orphans:
            self._pending.clear()
        self._fill()
        return doomed

    def _reap_dead(self):
        """Fail the in-flight futures of workers that died; the pool
        keeps serving on the survivors."""
        doomed = []
        with self._lock:
            for wid, proc in self._procs.items():
                if wid not in self._dead and not proc.is_alive():
                    doomed += self._mark_dead(wid)
        self._settle(doomed)

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self):
        """Drive the liveness machinery on a clock: reap dead workers,
        read and flush the worker sockets while no thread waits on a
        future, refresh the liveness, queue-depth and in-flight gauges,
        and fire the background audit on idle ticks."""
        interval = min(self.heartbeat_interval, 0.5)
        while not self._watchdog_stop.wait(interval):
            try:
                self._watchdog_tick()
            except Exception:
                # the watchdog must never die over a transient race
                # (e.g. audit against a graph being re-registered)
                continue

    def _watchdog_tick(self, now=None):
        if now is None:
            now = time.monotonic()
        if self.workers:
            self._drain()
            self._reap_dead()
        with self._lock:
            pending = len(self._pending)
            rows = self._worker_rows(now)
        gauge = self._registry.set_gauge
        gauge("pool.queue_depth", pending)
        gauge("pool.inflight", sum(row["inflight"] for row in rows))
        gauge("pool.workers_alive", sum(row["alive"] for row in rows))
        gauge("pool.workers_stalled", sum(row["stalled"] for row in rows))
        self._maybe_audit(now)

    def _maybe_audit(self, now):
        """Background audit scheduler: on an idle tick (nothing pending
        or in flight) past the configured interval, bit-parity audit
        every registered graph's labeling on the master catalog and
        record the report for :meth:`health`."""
        if self._audit_interval is None or self._closed:
            return
        if self._audit_at is not None \
                and now - self._audit_at < self._audit_interval:
            return
        with self._lock:
            busy = bool(self._pending) \
                or any(self._inflight.values())
            names = self.catalog.names()
        if busy:
            return
        self._audit_at = now  # set first: a failing audit must not
        #                       re-fire every tick
        report = {"at": time.time(), "ok": True, "graphs": {}}
        for name in names:
            try:
                with self._lock:
                    self.catalog.audit_labeling(name)
                report["graphs"][name] = "ok"
            except Exception as exc:
                report["ok"] = False
                report["graphs"][name] = (f"{type(exc).__name__}: "
                                          f"{exc}")
        self._registry.inc("pool.background_audits")
        if not report["ok"]:
            self._registry.inc("pool.background_audit_failures")
        self._last_audit = report


__all__ = ["WarmWorkerPool"]
