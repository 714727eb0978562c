"""Tests for repro.obs.health + the pool watchdog (DESIGN.md §15):
windowed-histogram semantics and the bit-exact merge-of-deltas
contract (hypothesis), SLO policy evaluation, flight-recorder tail
sampling, the heartbeat/watchdog liveness pipeline end to end over a
live server (kill -> breach, stall -> stalled), the background audit
scheduler, and the health/exemplars CLI.  Everything here is
stdlib-only and runs under ``REPRO_ENGINE_NO_NUMPY=1``."""

import json
import math
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import ProtocolError, ServiceError
from repro.obs.health import ERROR_PREFIX, LATENCY_PREFIX
from repro.obs.metrics import (
    MetricsRegistry,
    WindowedHistogram,
    snapshot_delta,
)
from repro.planar.generators import grid, randomize_weights
from repro.server import QueryServer, ServiceClient, WarmWorkerPool
from repro.service import DistanceQuery, FlowQuery
from test_server import kill_pool_worker, wait_for_reap


def make_grid(rows=4, cols=5, seed=3):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


@pytest.fixture(autouse=True)
def clean_obs(request):
    """Every test starts and ends with the layer off and empty —
    except under the class-scoped ``served_health`` fixture, which
    owns the enable/reset bracket for its whole class."""
    if "served_health" in request.fixturenames:
        yield
        return
    obs.reset()
    yield
    obs.reset()


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# windowed histograms
# ----------------------------------------------------------------------
class TestWindowedHistogram:
    def test_window_aggregates_recent_slots_only(self):
        h = WindowedHistogram(slot_seconds=1.0, slots=60)
        h.observe(0.001, now=10.0)
        h.observe(0.002, now=10.5)   # same slot
        h.observe(0.5, now=40.0)
        w = h.window(seconds=60.0, now=40.0)
        assert w["count"] == 3
        assert w["sum"] == pytest.approx(0.503)
        # a 5s read window at t=40 sees only the t=40 slot
        w = h.window(seconds=5.0, now=40.0)
        assert w["count"] == 1 and w["min"] == 0.5

    def test_expiry_is_deterministic_in_the_data(self):
        """Two histograms fed the same observations in different
        orders prune identically — expiry keys off the highest slot
        ever seen, never the wall clock."""
        a = WindowedHistogram(slot_seconds=1.0, slots=60)
        b = WindowedHistogram(slot_seconds=1.0, slots=60)
        a.observe(1.0, now=0.0)
        a.observe(2.0, now=500.0)
        b.observe(2.0, now=500.0)
        b.observe(1.0, now=0.0)
        assert a.to_dict() == b.to_dict()
        assert list(a.to_dict()["data"]) == ["500"]

    def test_quantile_bucket_resolution(self):
        h = WindowedHistogram(slot_seconds=1.0, slots=60)
        assert h.quantile(0.5) is None
        for v in (0.0001, 0.001, 0.01, 0.1):
            h.observe(v, now=1.0)
        q50 = h.quantile(0.5, now=1.0)
        q99 = h.quantile(0.99, now=1.0)
        assert q50 <= q99
        assert q99 >= 0.1

    def test_merge_rejects_geometry_mismatch(self):
        h = WindowedHistogram(slot_seconds=1.0, slots=60)
        other = WindowedHistogram(slot_seconds=2.0, slots=60)
        other.observe(1.0, now=0.0)
        with pytest.raises(ValueError):
            h.merge_dict(other.to_dict())

    def test_registry_kind_collision(self):
        reg = MetricsRegistry()
        reg.observe_windowed("m", 1.0, now=0.0)
        with pytest.raises(ValueError):
            reg.histogram("m")

    # -- the cross-process contract ------------------------------------
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("obs"), st.integers(0, 1),
                      st.integers(0, 100), st.integers(0, 2 ** 20)),
            st.tuples(st.just("ship"), st.integers(0, 1))),
        min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_deltas_is_bit_exact(self, ops):
        """The windowed shipping protocol: two workers observing on a
        shared clock, shipping deltas at arbitrary points, reproduce
        the all-local aggregation *bit-exactly* (dict equality, no
        approx).  Values are multiples of 2^-20 so float sums are
        exactly representable at every partial step; counts and
        min/max are exact unconditionally."""
        name = "health.query_seconds.Q"
        local = MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        master = MetricsRegistry()
        baselines = [{}, {}]

        def ship(w):
            snap = workers[w].snapshot()
            master.merge(snapshot_delta(snap, baselines[w]))
            baselines[w] = snap

        for op in ops:
            if op[0] == "obs":
                _, w, t, k = op
                v = k * 2.0 ** -20
                kwargs = dict(now=float(t), slots=200)
                workers[w].observe_windowed(name, v, **kwargs)
                local.observe_windowed(name, v, **kwargs)
            else:
                ship(op[1])
        ship(0)
        ship(1)

        mine, ref = master.get(name), local.get(name)
        if ref is None:
            assert mine is None
        else:
            assert mine.to_dict() == ref.to_dict()
            assert mine.window(200.0, now=100.0) \
                == ref.window(200.0, now=100.0)


# ----------------------------------------------------------------------
# SLO policies
# ----------------------------------------------------------------------
class TestSloPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            obs.SloPolicy(kind="Q", latency_quantile=1.5)
        with pytest.raises(ValueError):
            obs.SloPolicy(kind="Q", latency_budget_s=0)
        with pytest.raises(ValueError):
            obs.SloPolicy(kind="Q", error_budget=0.0)

    def test_empty_window_is_ok(self):
        reg = MetricsRegistry()
        r = obs.evaluate_slo(obs.SloPolicy(kind="Q"), reg)
        assert r["status"] == "ok"
        assert r["count"] == 0 and r["burn_rate"] == 0.0

    def test_latency_breach_and_burn_rate(self):
        reg = MetricsRegistry()
        p = obs.SloPolicy(kind="Q", latency_budget_s=0.01,
                          latency_quantile=0.5)
        for _ in range(10):  # every query over budget: burn = 1/0.5
            reg.observe_windowed(LATENCY_PREFIX + "Q", 0.2, now=1.0)
        r = obs.evaluate_slo(p, reg, now=1.0)
        assert r["status"] == "breach"
        assert r["burn_rate"] == pytest.approx(2.0)
        assert r["latency"]["frac_over_budget"] == 1.0

    def test_error_breach(self):
        reg = MetricsRegistry()
        p = obs.SloPolicy(kind="Q", error_budget=0.1)
        for _ in range(9):
            reg.observe_windowed(LATENCY_PREFIX + "Q", 0.001, now=1.0)
        for _ in range(2):  # 2/11 errors > 10% budget
            reg.observe_windowed(ERROR_PREFIX + "Q", 0.001, now=1.0)
        r = obs.evaluate_slo(p, reg, now=1.0)
        assert r["status"] == "breach"
        assert r["error_count"] == 2 and r["count"] == 11

    def test_warn_between_warn_fraction_and_budget(self):
        reg = MetricsRegistry()
        p = obs.SloPolicy(kind="Q", error_budget=0.5,
                          warn_fraction=0.5)
        for _ in range(2):
            reg.observe_windowed(LATENCY_PREFIX + "Q", 0.001, now=1.0)
        reg.observe_windowed(ERROR_PREFIX + "Q", 0.001, now=1.0)
        r = obs.evaluate_slo(p, reg, now=1.0)  # rate 1/3, burn 2/3
        assert r["status"] == "warn"

    def test_wildcard_covers_discovered_kinds(self):
        reg = MetricsRegistry()
        reg.observe_windowed(LATENCY_PREFIX + "A", 0.001, now=1.0)
        reg.observe_windowed(LATENCY_PREFIX + "B", 50.0, now=1.0)
        policies = [obs.SloPolicy(kind="A"),
                    obs.SloPolicy(kind="*", latency_budget_s=1.0,
                                  latency_quantile=0.5)]
        report = obs.evaluate_slos(policies, reg, now=1.0)
        kinds = {r["kind"]: r["status"] for r in report["slos"]}
        assert kinds["A"] == "ok"
        assert kinds["B"] == "breach"   # wildcard applied to B only
        assert report["status"] == "breach"

    def test_worst_status(self):
        assert obs.worst_status([]) == "ok"
        assert obs.worst_status(["ok", "warn"]) == "warn"
        assert obs.worst_status(["warn", "breach", "ok"]) == "breach"


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def _root(trace, seconds, start=1.0, error=None, kind="FlowQuery"):
    tags = {"kind": kind}
    if error:
        tags["error"] = error
    return {"trace": trace, "name": "query.execute", "start": start,
            "seconds": seconds, "tags": tags}


class TestFlightRecorder:
    def test_slowest_k_per_window(self):
        rec = obs.FlightRecorder(slowest_k=2, window_seconds=3600.0)
        for trace, secs in (("a", 0.5), ("b", 0.1), ("c", 0.3)):
            rec.record_span(_root(trace, secs))
        kept = {e["trace"] for e in rec.exemplars()}
        assert kept == {"a", "c"}          # b was the fastest, evicted
        assert rec.dropped == 1

    def test_errors_always_retained(self):
        rec = obs.FlightRecorder(slowest_k=1, window_seconds=3600.0)
        rec.record_span(_root("slow", 9.0))
        rec.record_span(_root("err", 0.001, error="ValueError"))
        reasons = {e["trace"]: e["reason"] for e in rec.exemplars()}
        assert reasons == {"slow": "slow", "err": "error"}
        assert rec.exemplars(reason="error")[0]["trace"] == "err"

    def test_child_spans_buffer_until_root_then_append(self):
        rec = obs.FlightRecorder(slowest_k=1, window_seconds=3600.0)
        child = {"trace": "t", "name": "labels.query", "start": 1.0,
                 "seconds": 0.1, "tags": {}}
        rec.record_span(child)
        assert len(rec) == 0               # no root yet: pending
        rec.record_span(_root("t", 0.2))
        late = {"trace": "t", "name": "server.query", "start": 0.9,
                "seconds": 0.3, "tags": {}}
        rec.record_span(late)              # post-decision completion
        [entry] = rec.exemplars()
        assert [s["name"] for s in entry["spans"]] \
            == ["labels.query", "query.execute", "server.query"]

    def test_pending_and_capacity_bounds(self):
        rec = obs.FlightRecorder(slowest_k=8, window_seconds=3600.0,
                                 capacity=2, max_pending=4)
        for i in range(10):                # rootless noise is bounded
            rec.record_span({"trace": f"p{i}", "name": "x",
                             "start": 1.0, "seconds": 0.1, "tags": {}})
        assert rec.dump()["pending"] <= 4
        rec.record_span(_root("err", 0.1, error="E"))
        for trace in ("s1", "s2"):
            rec.record_span(_root(trace, 0.5))
        assert len(rec) == 2               # capacity
        kept = {e["trace"] for e in rec.exemplars()}
        assert "err" in kept               # non-error evicted first

    def test_dump_is_json_safe_and_clear_resets(self):
        rec = obs.FlightRecorder(slowest_k=1, window_seconds=3600.0)
        rec.record_span(_root("t", 0.2))
        json.dumps(rec.dump())
        rec.clear()
        assert len(rec) == 0 and rec.dump()["dropped"] == 0


# ----------------------------------------------------------------------
# watchdog + health verb, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def served_health():
    """A forked 2-worker pool with fast heartbeats behind a live TCP
    server, observability on — the watchdog acceptance harness."""
    obs.reset()
    obs.enable()
    g = make_grid()
    pool = WarmWorkerPool(workers=2, heartbeat_interval=0.1,
                          stall_after=1.5)
    pool.register("g", g)
    pool.prewarm(kinds=("flow", "distance"))
    pool.start()
    server = QueryServer(pool).start_background()
    host, port = server.address
    client = ServiceClient(host, port, timeout=60)
    yield {"g": g, "pool": pool, "server": server, "client": client,
           "host": host, "port": port}
    client.close()
    server.shutdown()
    pool.close()
    obs.reset()


class TestWatchdogEndToEnd:
    def test_ready_and_ok_under_load(self, served_health):
        client = served_health["client"]
        for i in range(8):
            client.query(DistanceQuery("g", 0, 1 + i % 5))
        client.query(FlowQuery("g", 0, 5))
        report = client.health()
        assert report["state"] == "ready"
        assert report["status"] == "ok"
        assert report["workers"]["alive"] == 2
        assert report["uptime_s"] > 0
        kinds = {s["kind"] for s in report["slos"]["slos"]}
        assert "DistanceQuery" in kinds
        assert all(s["status"] == "ok"
                   for s in report["slos"]["slos"])

    def test_heartbeats_advance_per_worker(self, served_health):
        report = served_health["client"].health()
        for row in report["workers"]["detail"]:
            assert row["alive"] and not row["stalled"]
            assert 0.0 <= row["heartbeat_age_s"] < 1.5

    def test_stats_gains_uptime_and_heartbeat_age(self, served_health):
        stats = served_health["client"].stats()
        assert stats["uptime_s"] > 0
        workers = [row for row in stats["occupancy"]
                   if row["worker"] != "in-process"]
        assert len(workers) == 2
        for row in workers:
            assert row["heartbeat_age_s"] >= 0.0

    def test_health_prometheus_format(self, served_health):
        text = served_health["client"].health(format="prometheus")
        assert "# TYPE repro_health_status gauge" in text
        assert "repro_health_workers_alive 2" in text
        assert 'repro_slo_status{kind="DistanceQuery"}' in text

    def test_health_rejects_unknown_format(self, served_health):
        with pytest.raises(ProtocolError):
            served_health["client"].health(format="bogus")

    def test_exemplars_verb_dumps_stitched_trees(self, served_health):
        client = served_health["client"]
        assert wait_for(lambda: client.exemplars()["retained"] > 0)
        dump = client.exemplars()
        assert dump["recording"] is True
        for entry in dump["exemplars"]:
            names = {s["name"] for s in entry["spans"]}
            assert "query.execute" in names
        json.dumps(dump)
        assert len(client.exemplars(limit=1)["exemplars"]) == 1
        with pytest.raises(ProtocolError):
            client.exemplars(limit=0)

    def test_cli_health_and_exemplars(self, served_health, capsys):
        from repro.obs.__main__ import main as obs_main

        addr = "{host}:{port}".format(**served_health)
        assert obs_main(["health", addr]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["state"] == "ready"
        assert obs_main(["health", addr, "--format",
                         "prometheus"]) == 0
        assert "repro_health_status" in capsys.readouterr().out
        assert obs_main(["exemplars", addr, "--trees"]) == 0
        assert "query.execute" in capsys.readouterr().out

    def test_errors_surface_in_slo_and_recorder(self, served_health):
        client = served_health["client"]
        with pytest.raises(ServiceError):
            client.query(DistanceQuery("no-such-graph", 0, 1))
        # the failed query breaches DistanceQuery's 5% default error
        # budget and its trace is retained by reason
        def breached():
            slos = client.health()["slos"]["slos"]
            return any(s["kind"] == "DistanceQuery"
                       and s["status"] == "breach"
                       and s["error_count"] >= 1 for s in slos)

        assert wait_for(breached)
        assert wait_for(lambda: any(
            e["reason"] == "error"
            for e in client.exemplars()["exemplars"]))

    def test_zz_kill_worker_flips_health_to_breach(self, served_health):
        """The acceptance path: SIGKILL one worker under load; the
        watchdog notices, health degrades to breach, survivors keep
        serving."""
        pool, client = served_health["pool"], served_health["client"]
        wid = kill_pool_worker(pool)
        wait_for_reap(pool, wid)

        def breached():
            r = client.health()
            return r["state"] == "degraded" and r["status"] == "breach"

        assert wait_for(breached)
        report = client.health()
        assert report["workers"]["alive"] == 1
        dead = next(row for row in report["workers"]["detail"]
                    if row["worker"] == wid)
        assert not dead["alive"]
        r = client.query(DistanceQuery("g", 0, 3))
        assert r.result is not None        # survivor still serves
        text = client.health(format="prometheus")
        assert "repro_health_status 2" in text
        assert "repro_health_ready 0" in text


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP/SIGCONT")
def test_stalled_worker_detected_and_recovers():
    """A live-but-silent worker (SIGSTOP) goes ``stalled`` once its
    heartbeat age passes ``stall_after``, degrading health without
    declaring it dead; SIGCONT recovers it."""
    obs.enable()
    pool = WarmWorkerPool(workers=2, heartbeat_interval=0.05,
                          stall_after=0.5)
    pool.register("g", make_grid())
    pool.prewarm(kinds=("distance",))
    with pool:
        wid, proc = next(iter(pool._procs.items()))
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            def stalled():
                r = pool.health()
                row = next(d for d in r["workers"]["detail"]
                           if d["worker"] == wid)
                return (row["stalled"] and r["state"] == "degraded"
                        and r["status"] == "breach")

            assert wait_for(stalled)
        finally:
            os.kill(proc.pid, signal.SIGCONT)

        def recovered():
            r = pool.health()
            return r["state"] == "ready" and r["status"] == "ok"

        assert wait_for(recovered)


@pytest.mark.parametrize("workers", [0, 1])
def test_default_health_judges_served_traffic(workers):
    """With observability off, the default, the pool still accounts
    every query it serves: one SLO row per served kind, a breach once
    failures pass the error budget, and the ``pool.*`` series in
    ``metrics()`` — while the process registry stays empty."""
    assert not obs.enabled()
    pool = WarmWorkerPool(workers=workers)
    pool.register("g", make_grid())
    with pool:
        pool.run([DistanceQuery("g", 0, 1), DistanceQuery("g", 0, 2),
                  FlowQuery("g", 0, 5)])
        report = pool.health()
        assert report["status"] == "ok"
        rows = {s["kind"]: s for s in report["slos"]["slos"]}
        assert set(rows) == {"DistanceQuery", "FlowQuery"}
        assert rows["DistanceQuery"]["count"] == 2
        assert all(s["count"] > 0 and s["status"] == "ok"
                   for s in rows.values())
        snap = pool.metrics()
        assert snap["pool.serve_seconds.DistanceQuery"]["count"] == 2
        assert snap["pool.serve_seconds.FlowQuery"]["count"] == 1
        assert snap[LATENCY_PREFIX + "FlowQuery"]["type"] == "windowed"
        if workers:
            assert snap["pool.dispatched"]["value"] == 3
        # one failure in three is past the default 5% error budget
        with pytest.raises(ServiceError, match="unknown graph"):
            pool.submit(DistanceQuery("no-such-graph", 0, 1)).result()
        report = pool.health()
        assert report["status"] == "breach"
        rows = {s["kind"]: s for s in report["slos"]["slos"]}
        assert rows["DistanceQuery"]["status"] == "breach"
        assert rows["DistanceQuery"]["count"] == 3
        assert rows["DistanceQuery"]["error_count"] == 1
        assert rows["FlowQuery"]["status"] == "ok"
        assert ERROR_PREFIX + "DistanceQuery" in pool.metrics()
    assert obs.registry().snapshot() == {}


def test_health_state_machine_lifecycle():
    pool = WarmWorkerPool(workers=0)
    pool.register("g", make_grid())
    r = pool.health()
    assert r["state"] == "starting" and r["status"] == "warn"
    pool.start()
    assert pool.health()["state"] == "ready"
    pool.close()
    r = pool.health()
    assert r["state"] == "closed" and r["status"] == "breach"


def test_background_audit_scheduler_runs_on_idle():
    """Opt-in audit ticks: an idle started pool audits its graphs and
    surfaces the verdict through ``health()``."""
    pool = WarmWorkerPool(workers=0, audit_interval=0.05)
    pool.register("g", make_grid())
    pool.prewarm(kinds=("distance",))
    pool.start()
    try:
        assert wait_for(lambda: pool.health()["audit"] is not None,
                        timeout=15.0)
        audit = pool.health()["audit"]
        assert audit["ok"] is True
        assert audit["graphs"] == {"g": "ok"}
        assert pool.health()["status"] == "ok"
    finally:
        pool.close()


def test_enable_background_audit_after_start():
    """The audit scheduler waits for start(): a configured pool has no
    audit report until its watchdog runs."""
    pool = WarmWorkerPool(workers=0, audit_interval=0.05)
    pool.register("g", make_grid())
    pool.prewarm(kinds=("distance",))
    assert pool.health()["audit"] is None
    pool.start()
    try:
        assert wait_for(lambda: pool.health()["audit"] is not None,
                        timeout=15.0)
    finally:
        pool.close()


def test_pool_constructor_validation():
    with pytest.raises(ServiceError):
        WarmWorkerPool(workers=1, heartbeat_interval=0.0)
    with pytest.raises(ServiceError):
        WarmWorkerPool(workers=1, stall_after=0.0)
    with pytest.raises(ServiceError):
        WarmWorkerPool(workers=1, audit_interval=0.0)
