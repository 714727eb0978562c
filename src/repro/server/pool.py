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
(``register``, ``set_weights``, ``mutate_weights``) are broadcast to
every worker's command queue, which is FIFO per worker — so a query
submitted *after* :meth:`set_weights` / :meth:`mutate_weights` returns
always sees the new weights, while queries already in flight may
complete under either weighting.  Call :meth:`drain` first for a
barrier; :meth:`audit_labeling` checks every worker's labels against a
from-scratch rebuild.

Failure containment: a query that raises inside a worker ships the
exception back (typed, the original class when picklable) and fails
only that query's future; a worker that *dies* fails its in-flight
futures with :class:`~repro.errors.ServiceError` and the pool carries
on with the survivors.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future

from repro import obs
from repro.errors import RemoteError, ServiceError
from repro.server import wire
from repro.service.queries import execute_query

_PREWARM_KINDS = ("flow", "cut", "distance", "girth")


def _execute(catalog, query, bodies=None):
    """Serve one query; given ``bodies`` (a :class:`~repro.server.
    wire.BodyMemo`, for a :class:`~repro.server.app.QueryServer` job)
    a flow, cut or girth result is replaced by its encoded
    :class:`~repro.server.wire.Body`, so it is encoded once and
    crosses the result queue as text."""
    r = execute_query(catalog, query)
    if bodies is not None:
        r.result = bodies.ship(r.result)
    return r


def _worker_main(worker_id, catalog, snapshot, command_q, result_q,
                 obs_on=False, hb_interval=0.0):
    """Worker process entry point (top-level for spawn picklability).

    Exactly one of ``catalog`` (fork: the master catalog, inherited
    copy-on-write) and ``snapshot`` (spawn: pickled warm-state handoff)
    is set.

    ``obs_on`` mirrors the master's :func:`repro.obs.enabled` at fork
    time.  An observing worker runs in *shipping mode*: finished spans
    and metric deltas buffer locally and ride back piggybacked on
    every result-queue message (the 5th tuple element), where the
    collector thread :func:`~repro.obs.ingest`\\ s them — so one
    query's spans stitch into the submitting trace and the master
    registry aggregates every worker.

    With ``hb_interval > 0`` an *idle* worker emits a heartbeat tuple
    (``job_id=None``) on the result queue every interval — the
    watchdog's liveness signal.  Every real result doubles as a
    heartbeat, so only a worker that is neither serving nor idling
    (wedged, killed, or stopped) goes silent.
    """
    import queue as _queue

    if obs_on:
        obs.enable()
    obs.configure_shipping(True)  # inherited sinks must stay silent
    if catalog is None:
        catalog = snapshot.restore()
    bodies = wire.BodyMemo(catalog.results.maxsize)
    while True:
        if hb_interval > 0:
            try:
                msg = command_q.get(timeout=hb_interval)
            except _queue.Empty:
                result_q.put((worker_id, None, True, "heartbeat",
                              obs.ship_delta()))
                continue
        else:
            msg = command_q.get()
        verb = msg[0]
        if verb == "stop":
            break
        if verb == "query":
            _, job_id, query, body, ctx, t_submit = msg
            obs.observe("pool.queue_wait_seconds",
                        max(0.0, time.monotonic() - t_submit))
            token = obs.activate_trace(ctx)
            try:
                result_q.put((worker_id, job_id, True,
                              _execute(catalog, query,
                                       bodies if body else None),
                              obs.ship_delta()))
            except Exception as exc:
                result_q.put((worker_id, job_id, False, _ship_exc(exc),
                              obs.ship_delta()))
            finally:
                obs.deactivate_trace(token)
        elif verb == "register":
            _, name, graph, overwrite = msg
            try:
                catalog.register(name, graph, overwrite=overwrite)
            except Exception:
                # a failed broadcast must not kill the worker; the
                # master catalog already validated the same call
                pass
        elif verb == "set_weights":
            _, name, weights, capacities = msg
            try:
                catalog.set_weights(name, weights=weights,
                                    capacities=capacities)
            except Exception:
                pass
        elif verb == "mutate_weights":
            _, name, edges, max_dirty_frac = msg
            try:
                catalog.mutate_weights(name, edges,
                                       max_dirty_frac=max_dirty_frac)
            except Exception:
                # same contract as set_weights: the master already
                # validated; a NegativeCycleError here still applied
                # the weights and dropped the labelings first, so the
                # worker converges to the master's state
                pass
        elif verb == "obs":
            _, on = msg
            if on:
                obs.enable()
                obs.configure_shipping(True)
            else:
                obs.disable()
        elif verb == "audit":
            _, job_id, name, leaf_size, backend = msg
            try:
                result_q.put((worker_id, job_id, True,
                              catalog.audit_labeling(
                                  name, leaf_size=leaf_size,
                                  backend=backend),
                              obs.ship_delta()))
            except Exception as exc:
                result_q.put((worker_id, job_id, False, _ship_exc(exc),
                              obs.ship_delta()))
        elif verb == "stats":
            _, job_id = msg
            result_q.put((worker_id, job_id, True, catalog.stats(),
                          obs.ship_delta()))


def _ship_exc(exc):
    """The exception itself when it pickles, else ``(type_name, str)``
    — queue feeder threads must never hit a pickle failure."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return (type(exc).__name__, str(exc))


def _unship_exc(payload):
    if isinstance(payload, BaseException):
        return payload
    name, message = payload
    return RemoteError(message, remote_type=name)


class WarmWorkerPool:
    """Load-balancing query pool over one pre-warmed catalog.

    ``workers=0`` is the in-process mode: no child processes, queries
    execute synchronously (under a lock) against the master catalog —
    the portable fallback and the zero-overhead choice for tests and
    single-tenant embedding.  ``start_method`` pins the multiprocessing
    start method (default: ``fork`` where available, else ``spawn``).

    Use as a context manager, or call :meth:`close` — forked children
    are daemons, but closing promptly frees their catalog copies.
    """

    def __init__(self, workers=None, catalog=None, planner=None,
                 start_method=None, window=2, slos=None,
                 heartbeat_interval=0.25, stall_after=30.0,
                 audit_interval=None, audit_backend="engine"):
        from repro.service.catalog import GraphCatalog

        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers < 0:
            raise ServiceError("workers must be >= 0")
        if window < 1:
            raise ServiceError("window must be >= 1")
        if heartbeat_interval <= 0 or stall_after <= 0:
            raise ServiceError("heartbeat_interval and stall_after "
                               "must be positive")
        if audit_interval is not None and audit_interval <= 0:
            raise ServiceError("audit_interval must be positive "
                               "(or None to disable)")
        self.workers = workers
        self.window = window
        self.start_method = start_method
        self.catalog = catalog if catalog is not None \
            else GraphCatalog(planner=planner)
        # the workers=0 mode's encoded bodies (each worker owns its own)
        self._bodies = wire.BodyMemo(self.catalog.results.maxsize)
        #: declarative SLOs the ``health`` verb evaluates (iterable of
        #: :class:`repro.obs.SloPolicy`; None -> the default wildcard)
        self.slos = tuple(slos) if slos else None
        self.heartbeat_interval = heartbeat_interval
        self.stall_after = stall_after

        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._procs = {}
        self._command_qs = {}
        self._result_q = None
        self._collector = None
        self._job_counter = 0
        # (job_id, query, body, trace_ctx, t_submit)
        self._pending = deque()
        self._futures = {}                 # job_id -> Future
        self._assigned = {}                # job_id -> worker_id
        self._job_kind = {}                # job_id -> "query" | probe verb
        self._inflight = {}                # worker_id -> count
        self._completed = {}               # worker_id -> count
        self._dead = set()
        self._by_kind = OrderedDict()      # query-type latency rollup
        # watchdog / health state
        self._started_at = None            # monotonic, set by start()
        self._last_seen = {}               # worker_id -> monotonic
        self._watchdog = None
        self._watchdog_stop = threading.Event()
        # background audit scheduler (opt-in)
        self._audit_interval = audit_interval
        self._audit_backend = audit_backend
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
        # under the lock: with workers=0 the master catalog is the
        # serving catalog, and submit() executes queries against it
        # from concurrent server handler threads
        with self._lock:
            entry = self.catalog.register(name, graph,
                                          overwrite=overwrite)
        self._broadcast(("register", name, graph, overwrite))
        return entry

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
        self._result_q = ctx.Queue()
        snapshot = None if method == "fork" else self.catalog.snapshot()
        for wid in range(self.workers):
            # a full Queue (not SimpleQueue): workers block on
            # ``get(timeout=heartbeat_interval)`` to emit heartbeats
            cq = ctx.Queue()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, self.catalog if method == "fork" else None,
                      snapshot, cq, self._result_q, obs.enabled(),
                      self.heartbeat_interval),
                daemon=True, name=f"repro-server-worker-{wid}")
            proc.start()
            self._procs[wid] = proc
            self._command_qs[wid] = cq
            self._inflight[wid] = 0
            self._completed[wid] = 0
            self._last_seen[wid] = time.monotonic()
        self._collector = threading.Thread(target=self._collect,
                                           daemon=True,
                                           name="repro-server-collector")
        self._collector.start()
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
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)
        for wid, cq in self._command_qs.items():
            if wid not in self._dead:
                try:
                    cq.put(("stop",))
                except Exception:
                    pass
        for proc in self._procs.values():
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)  # reap, so no zombie outlives us
        if self._result_q is not None:
            self._result_q.put(None)
        if self._collector is not None:
            self._collector.join(timeout=5)
        with self._lock:
            doomed = list(self._futures.values())
            self._futures.clear()
            self._pending.clear()
        for fut in doomed:
            if not fut.done():
                fut.set_exception(ServiceError("worker pool closed"))

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
        fut = Future()
        if self.workers == 0:
            with self._lock:
                if self._closed:
                    raise ServiceError("worker pool closed")
                try:
                    r = _execute(self.catalog, query,
                                 self._bodies if body else None)
                except Exception as exc:
                    fut.set_exception(exc)
                else:
                    self._account(type(query).__name__, r)
                    fut.set_result(r)
            return fut
        # captured outside the lock: the ambient trace context of the
        # submitting thread rides the command queue so the worker's
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
            self._futures[job_id] = fut
            self._job_kind[job_id] = "query"
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
                live = [f for f in self._futures.values()]
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
        with self._lock:  # serialize against in-process query serving
            self.catalog.set_weights(name, weights=weights,
                                     capacities=capacities)
        self._broadcast(("set_weights", name, weights, capacities))

    def mutate_weights(self, name, edges, max_dirty_frac=0.5):
        """Delta-reprice a few edges pool-wide (DESIGN.md §11):
        :meth:`~repro.service.catalog.GraphCatalog.mutate_weights` on
        the master catalog, then the same mutation broadcast to every
        worker's FIFO command queue — a query submitted after this
        returns can only see the new weights; call :meth:`drain` first
        when in-flight queries must not straddle the reprice.

        Returns the master catalog's report.  A
        :class:`~repro.errors.NegativeCycleError` is re-raised after
        the broadcast (the weights are applied everywhere and every
        catalog dropped its labelings, exactly like the master)."""
        from repro.errors import NegativeCycleError

        # materialize first: master and broadcast must see the same
        # values even when handed a one-shot iterable
        edges = dict(edges) if hasattr(edges, "items") \
            else [tuple(item) for item in edges]
        with self._lock:  # serialize against in-process query serving
            try:
                report = self.catalog.mutate_weights(
                    name, edges, max_dirty_frac=max_dirty_frac)
            except NegativeCycleError:
                self._broadcast(("mutate_weights", name, edges,
                                 max_dirty_frac))
                raise
        self._broadcast(("mutate_weights", name, edges, max_dirty_frac))
        return report

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
        futures = self._ask_workers("audit", name, leaf_size, backend)
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

        The per-worker catalog probe rides the FIFO command queue, so
        a worker busy with a long cold query past ``timeout`` reports
        ``{"busy": True}`` instead of blocking the caller — stats stay
        available exactly when the pool is loaded."""
        now = time.monotonic()
        with self._lock:
            occupancy = self._worker_rows(now)
            by_kind = {kind: dict(row)
                       for kind, row in self._by_kind.items()}
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
        if obs.enabled():
            # additive (wire-compatible) registry section: the same
            # counters/latencies as by_kind plus every instrumented
            # site, aggregated across shipped worker deltas
            stats["metrics"] = obs.registry().snapshot()
        if worker_catalogs and self._forked():
            futures = self._ask_workers("stats")
            from concurrent.futures import TimeoutError as _Timeout

            catalogs = {}
            deadline = time.monotonic() + timeout
            for wid, fut in futures.items():
                try:
                    catalogs[wid] = fut.result(
                        timeout=max(0.0, deadline - time.monotonic()))
                except _Timeout:
                    catalogs[wid] = {"busy": True}
                except Exception as exc:
                    # e.g. the worker died with the probe outstanding;
                    # degrade per worker, never fail the whole call
                    catalogs[wid] = {"unavailable": str(exc)}
            stats["catalogs"] = catalogs
        return stats

    def metrics(self):
        """The aggregated :mod:`repro.obs` registry snapshot: the
        master process's metrics plus every delta the workers have
        shipped so far (piggybacked on their result-queue messages).
        Empty dict when observability never ran."""
        return obs.registry().snapshot()

    def sync_obs(self):
        """Broadcast the master's current :func:`repro.obs.enabled`
        state to every worker — for toggling observability on a pool
        that is already started (workers forked while it was off, or
        vice versa)."""
        self._broadcast(("obs", obs.enabled()))

    # ------------------------------------------------------------------
    # health (DESIGN.md §15)
    # ------------------------------------------------------------------
    def enable_background_audit(self, interval, backend=None):
        """Opt into periodic :meth:`~repro.service.catalog.GraphCatalog.
        audit_labeling` of every registered graph on the watchdog's
        idle ticks (no pending, nothing in flight).  The last report is
        surfaced through :meth:`health`; an audit failure flips the
        health status to ``breach``.  ``interval`` is seconds between
        runs; may also be set at construction via ``audit_interval``."""
        if interval is None or interval <= 0:
            raise ServiceError("audit interval must be positive")
        self._audit_interval = interval
        if backend is not None:
            self._audit_backend = backend
        if self._started and not self._closed \
                and self._watchdog is None:
            self._start_watchdog()

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
        if obs.enabled():
            slo_report = obs.evaluate_slos(self.slos)
        else:
            slo_report = {"status": "ok", "slos": []}
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

    def _broadcast(self, msg):
        if not self._forked():
            return
        for wid, cq in self._command_qs.items():
            if wid not in self._dead:
                cq.put(msg)

    def _ask_workers(self, verb, *args):
        """Put ``(verb, job_id, *args)`` on every live worker's command
        queue as an accounting-free job (not a query: it moves no
        occupancy counter); returns ``{worker_id: Future}``."""
        futures = {}
        if not self._forked():
            return futures
        with self._lock:
            for wid in self._procs:
                if wid in self._dead:
                    continue
                self._job_counter += 1
                job_id = self._job_counter
                futures[wid] = self._futures[job_id] = Future()
                self._assigned[job_id] = wid
                self._job_kind[job_id] = verb
                self._command_qs[wid].put((verb, job_id) + args)
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
                     "completed": sum(row["count"]
                                      for row in self._by_kind.values())}]
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
        bounded by ``window`` in-flight per worker.  Caller holds the
        lock."""
        while self._pending:
            candidates = [(count, wid)
                          for wid, count in self._inflight.items()
                          if wid not in self._dead and count < self.window]
            if not candidates:
                return
            count, wid = min(candidates)
            job_id, query, body, ctx, t_submit = \
                self._pending.popleft()
            self._assigned[job_id] = wid
            self._inflight[wid] = count + 1
            obs.inc("pool.dispatched")
            self._command_qs[wid].put(
                ("query", job_id, query, body, ctx, t_submit))

    def _account(self, kind, result):
        row = self._by_kind.setdefault(
            kind, {"count": 0, "warm": 0, "seconds": 0.0})
        row["count"] += 1
        row["warm"] += bool(result.warm)
        row["seconds"] += getattr(result, "seconds", 0.0)
        # the same rollup, re-expressed over the metrics registry
        # (what the ``metrics`` wire verb exports)
        obs.inc(f"pool.completed.{kind}")
        if result.warm:
            obs.inc(f"pool.warm.{kind}")
        obs.observe(f"pool.serve_seconds.{kind}",
                    getattr(result, "seconds", 0.0))

    def _collect(self):
        import queue as _queue

        last_reap = time.monotonic()
        while True:
            try:
                item = self._result_q.get(timeout=1.0)
            except _queue.Empty:
                self._reap_dead()
                last_reap = time.monotonic()
                continue
            except Exception:
                # a worker killed mid-``put`` can leave a truncated
                # pickle on the results pipe; the fragment is
                # unreadable but the *collector must survive it* —
                # the dead worker's futures are failed by the reaper,
                # and with the collector gone nothing would ever reap
                self._reap_dead()
                last_reap = time.monotonic()
                continue
            if item is None:
                return
            # reap on a clock, not only when the queue goes idle —
            # under sustained traffic a crashed worker's in-flight
            # futures must still fail promptly
            if time.monotonic() - last_reap > 0.5:
                self._reap_dead()
                last_reap = time.monotonic()
            wid, job_id, ok, payload, obs_payload = item
            if obs_payload:
                obs.ingest(obs_payload)
            # every message — heartbeat or result — proves liveness
            self._last_seen[wid] = time.monotonic()
            if job_id is None:
                continue  # pure heartbeat, nothing to resolve
            with self._lock:
                fut = self._futures.pop(job_id, None)
                kind = self._job_kind.pop(job_id, "query")
                self._assigned.pop(job_id, None)
                if kind == "query":
                    if wid in self._inflight:
                        self._inflight[wid] = max(
                            0, self._inflight[wid] - 1)
                        self._completed[wid] += 1
                    if ok:
                        self._account(type(payload.query).__name__,
                                      payload)
                    self._fill()
            if fut is None:
                continue
            if ok:
                fut.set_result(payload)
            else:
                fut.set_exception(_unship_exc(payload))

    def _reap_dead(self):
        """Fail the in-flight futures of workers that died; the pool
        keeps serving on the survivors."""
        doomed = []
        with self._lock:
            for wid, proc in self._procs.items():
                if wid in self._dead or proc.is_alive():
                    continue
                self._dead.add(wid)
                self._inflight[wid] = 0
                obs.inc("pool.worker_deaths")
                obs.set_gauge("pool.workers_alive",
                              len(self._procs) - len(self._dead))
                for job_id, owner in list(self._assigned.items()):
                    if owner == wid:
                        fut = self._futures.pop(job_id, None)
                        self._assigned.pop(job_id, None)
                        self._job_kind.pop(job_id, None)
                        if fut is not None:
                            doomed.append((wid, fut))
            if self._dead and len(self._dead) == len(self._procs):
                while self._pending:
                    job_id = self._pending.popleft()[0]
                    fut = self._futures.pop(job_id, None)
                    self._job_kind.pop(job_id, None)
                    if fut is not None:
                        doomed.append((None, fut))
            self._fill()
        for wid, fut in doomed:
            if not fut.done():
                fut.set_exception(ServiceError(
                    f"worker {wid} died mid-query" if wid is not None
                    else "all pool workers died"))

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self):
        """Drive the liveness machinery on a clock: reap dead workers,
        refresh the liveness, queue-depth and in-flight gauges, and
        fire the background audit on idle ticks."""
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
            self._reap_dead()
        with self._lock:
            pending = len(self._pending)
            rows = self._worker_rows(now)
        obs.set_gauge("pool.queue_depth", pending)
        obs.set_gauge("pool.inflight", sum(row["inflight"] for row in rows))
        obs.set_gauge("pool.workers_alive",
                      sum(row["alive"] for row in rows))
        obs.set_gauge("pool.workers_stalled",
                      sum(row["stalled"] for row in rows))
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
                    self.catalog.audit_labeling(
                        name, backend=self._audit_backend)
                report["graphs"][name] = "ok"
            except Exception as exc:
                report["ok"] = False
                report["graphs"][name] = (f"{type(exc).__name__}: "
                                          f"{exc}")
        obs.inc("pool.background_audits")
        if not report["ok"]:
            obs.inc("pool.background_audit_failures")
        self._last_audit = report


__all__ = ["WarmWorkerPool"]
