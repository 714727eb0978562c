"""Tests for repro.obs (DESIGN.md §13): metrics registry semantics,
span nesting, Prometheus rendering, the disabled-path no-op contract,
and end-to-end trace stitching across client → server thread → forked
worker — including the error-frame path and the no-numpy build."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.errors import ProtocolError, ServiceError
from repro.planar.generators import grid, randomize_weights
from repro.server import QueryServer, ServiceClient, WarmWorkerPool
from repro.server import pool as pool_module
from repro.service import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    GraphCatalog,
    execute_query,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def make_grid(rows=4, cols=5, seed=3):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


@pytest.fixture(autouse=True)
def clean_obs(request):
    """Every test starts and ends with the layer off and empty —
    except under the class-scoped ``served_obs`` fixture, which owns
    the enable/reset bracket for its whole class."""
    if "served_obs" in request.fixturenames:
        yield
        return
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        reg = obs.MetricsRegistry()
        reg.inc("served")
        reg.inc("served", 4)
        reg.set_gauge("alive", 3)
        for v in (0.001, 0.002, 0.5):
            reg.observe("lat", v)
        snap = reg.snapshot()
        assert snap["served"]["value"] == 5
        assert snap["alive"]["value"] == 3
        h = snap["lat"]
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(0.503)
        assert sum(h["counts"]) == 3
        # snapshots are JSON-safe by contract
        json.dumps(snap)

    def test_histogram_quantile_monotone(self):
        h = obs.Histogram()
        for v in (0.0001, 0.001, 0.01, 0.1, 1.0):
            h.observe(v)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

    def test_merge_adds_counters_and_histograms(self):
        a = obs.MetricsRegistry()
        b = obs.MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        a.observe("lat", 0.25)
        b.observe("lat", 0.25)
        b.set_gauge("g", 7)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["n"]["value"] == 5
        assert snap["lat"]["count"] == 2
        assert snap["g"]["value"] == 7  # gauges replace

    def test_snapshot_delta_is_exactly_whats_new(self):
        reg = obs.MetricsRegistry()
        reg.inc("n", 2)
        reg.observe("lat", 0.5)
        base = reg.snapshot()
        reg.inc("n", 3)
        reg.observe("lat", 0.125)
        delta = obs.snapshot_delta(reg.snapshot(), base)
        assert delta["n"]["value"] == 3
        assert delta["lat"]["count"] == 1
        # folding the delta into a copy of the baseline reproduces now
        merged = obs.MetricsRegistry()
        merged.merge(base)
        merged.merge(delta)
        assert merged.snapshot() == reg.snapshot()

    def test_empty_delta_is_empty(self):
        reg = obs.MetricsRegistry()
        reg.inc("n")
        base = reg.snapshot()
        assert obs.snapshot_delta(reg.snapshot(), base) == {}


# ----------------------------------------------------------------------
# prometheus rendering
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_render_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        reg.inc("wire.frames_encoded", 7)
        reg.set_gauge("pool.workers_alive", 2)
        reg.observe("wire.encode_seconds", 0.001)
        text = obs.render_prometheus(reg.snapshot())
        assert "repro_wire_frames_encoded_total 7" in text
        assert "repro_pool_workers_alive 2" in text
        assert 'le="+Inf"' in text
        assert "repro_wire_encode_seconds_count 1" in text
        # cumulative bucket counts end at the total count
        bucket_lines = [ln for ln in text.splitlines()
                        if ln.startswith("repro_wire_encode_seconds_"
                                         "bucket")]
        assert bucket_lines[-1].endswith(" 1")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        assert obs.enabled() is False
        assert obs.span("anything", x=1) is obs.NOOP_SPAN
        with obs.span("anything") as sp:
            sp.tag(ignored=True)
        # nothing was recorded anywhere
        assert obs.registry().snapshot() == {}

    def test_nesting_links_parent_and_trace(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = ring.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == spans[1]["span"]
        assert spans[1]["parent"] is None
        assert all(s["seconds"] >= 0 for s in spans)

    def test_exception_tags_error_class(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
        [span] = ring.spans()
        assert span["tags"]["error"] == "ValueError"

    def test_activate_trace_adopts_wire_context(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        token = obs.activate_trace(["t-1", "parent-9"])
        try:
            with obs.span("child"):
                pass
        finally:
            obs.deactivate_trace(token)
        [span] = ring.spans()
        assert span["trace"] == "t-1"
        assert span["parent"] == "parent-9"
        # malformed contexts activate nothing
        assert obs.activate_trace(None) is None
        assert obs.activate_trace(["just-one"]) is None

    def test_execute_query_mints_span_and_counters(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        catalog = GraphCatalog()
        catalog.register("g", make_grid(3, 3))
        q = DistanceQuery("g", 0, 1)
        execute_query(catalog, q)
        execute_query(catalog, q)
        roots = [s for s in ring.spans(name="query.execute")
                 if s["parent"] is None]
        assert len(roots) == 2
        assert roots[0]["trace"] != roots[1]["trace"]
        assert roots[0]["tags"]["kind"] == "DistanceQuery"
        assert roots[0]["tags"]["warm"] is False
        assert roots[1]["tags"]["warm"] is True
        snap = obs.registry().snapshot()
        assert snap["service.result.miss"]["value"] == 1
        assert snap["service.result.hit"]["value"] == 1
        assert snap["service.query_seconds.DistanceQuery"]["count"] == 2

    def test_cut_counts_sibling_flow_reuse(self):
        obs.enable(obs.RingBufferSink())
        catalog = GraphCatalog()
        g = make_grid(3, 3)
        catalog.register("g", g)
        execute_query(catalog, CutQuery("g", 0, g.n - 1))  # flow miss
        execute_query(catalog, FlowQuery("g", 1, g.n - 1))
        execute_query(catalog, CutQuery("g", 1, g.n - 1))  # flow hit
        execute_query(catalog, CutQuery("g", 1, g.n - 1))  # cut hit
        snap = obs.registry().snapshot()
        assert snap["service.cut.flow.miss"]["value"] == 1
        assert snap["service.cut.flow.hit"]["value"] == 1
        # the sibling lookup is not a served query of its own
        assert snap["service.result.miss"]["value"] == 3
        assert snap["service.result.hit"]["value"] == 1

    def test_ndjson_sink_round_trips(self, tmp_path):
        path = tmp_path / "obs.ndjson"
        sink = obs.NdjsonFileSink(path)
        obs.enable(sink)
        with obs.span("one", k=1):
            pass
        sink.close()
        [rec] = obs.read_ndjson(path)
        assert rec["type"] == "span"
        assert rec["name"] == "one"
        assert rec["tags"] == {"k": 1}


# ----------------------------------------------------------------------
# worker shipping protocol
# ----------------------------------------------------------------------
class TestShipping:
    def test_ship_delta_buffers_spans_and_metric_deltas(self):
        obs.enable()
        obs.inc("pre", 5)
        obs.configure_shipping(True)
        with obs.span("worker.site"):
            obs.inc("served")
        payload = obs.ship_delta()
        assert [s["name"] for s in payload["spans"]] == ["worker.site"]
        assert payload["metrics"] == {"served": {"type": "counter",
                                                 "value": 1}}
        # drained: a second call with no new activity ships nothing
        assert obs.ship_delta() is None

    def test_ingest_routes_spans_to_sinks_and_merges_metrics(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        obs.inc("served", 1)
        obs.ingest({"spans": [{"trace": "t", "span": "s",
                               "parent": None, "name": "shipped",
                               "pid": 1, "start": 0.0,
                               "seconds": 0.1}],
                    "metrics": {"served": {"type": "counter",
                                           "value": 2}}})
        assert [s["name"] for s in ring.spans()] == ["shipped"]
        assert obs.registry().snapshot()["served"]["value"] == 3
        obs.ingest(None)  # tolerated


# ----------------------------------------------------------------------
# end-to-end: client → server thread → forked worker
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def served_obs():
    """A forked 2-worker pool behind a live TCP server, with the
    observability layer enabled *before* the fork (workers inherit the
    switch and run in shipping mode)."""
    obs.reset()
    ring = obs.RingBufferSink()
    obs.enable(ring)
    g = make_grid()
    pool = WarmWorkerPool(workers=2)
    pool.register("g", g)
    pool.prewarm(kinds=("flow", "distance"))
    pool.start()
    server = QueryServer(pool).start_background()
    host, port = server.address
    client = ServiceClient(host, port, timeout=60)
    yield {"g": g, "ring": ring, "pool": pool, "server": server,
           "client": client, "host": host, "port": port}
    client.close()
    server.shutdown()
    pool.close()
    obs.reset()


def _wait_for_trace(ring, trace_id, name, tries=100):
    """Worker span deltas ride the reply frame and are ingested by
    whichever thread reads it (a waiting handler thread or the
    watchdog's drain) — poll briefly."""
    for _ in range(tries):
        if any(s["name"] == name for s in ring.spans(trace=trace_id)):
            return ring.spans(trace=trace_id)
        time.sleep(0.05)
    return ring.spans(trace=trace_id)


class TestEndToEndStitching:
    def test_one_query_yields_one_stitched_cross_process_tree(
            self, served_obs):
        ring = served_obs["ring"]
        served_obs["client"].query(FlowQuery("g", 0, 5))
        trace = next(s["trace"] for s in reversed(ring.spans())
                     if s["name"] == "client.query")
        spans = _wait_for_trace(ring, trace, "query.execute")
        names = {s["name"] for s in spans}
        assert {"client.query", "server.query",
                "query.execute"} <= names
        # one trace id everywhere, every parent resolves in-trace
        ids = {s["span"] for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["client.query"]
        assert all(s["parent"] in ids for s in spans
                   if s["parent"] is not None)
        # ...and the tree really crosses the fork boundary
        assert len({s["pid"] for s in spans}) >= 2
        by_id = {s["span"]: s for s in spans}
        execute = next(s for s in spans if s["name"] == "query.execute")
        assert by_id[execute["parent"]]["name"] == "server.query"

    def test_self_times_of_a_stitched_trace_sum_to_the_root(
            self, served_obs):
        ring = served_obs["ring"]
        served_obs["client"].query(FlowQuery("g", 0, 7))
        trace = next(s["trace"] for s in reversed(ring.spans())
                     if s["name"] == "client.query")
        for name in ("query.execute", "server.query"):
            spans = _wait_for_trace(ring, trace, name)
        rows = obs.summarize_spans(spans)
        assert {"client.query", "server.query",
                "query.execute"} <= set(rows)
        [root] = [s for s in spans if s["parent"] is None]
        assert sum(row["self_s"] for row in rows.values()) \
            == pytest.approx(root["seconds"], rel=1e-9, abs=1e-12)
        # exclusive time crosses the fork: the server span's self time
        # excludes the worker's query.execute child
        server = rows["server.query"]
        assert server["self_s"] == pytest.approx(
            server["total_s"] - rows["query.execute"]["total_s"],
            rel=1e-9, abs=1e-12)

    def test_error_frame_path_still_traces(self, served_obs):
        ring = served_obs["ring"]
        report = served_obs["client"].run(
            [DistanceQuery("g", 0, 1), FlowQuery("missing", 0, 1)],
            on_error="return")
        assert report.results[0].error is None
        assert isinstance(report.results[1].error, ServiceError)
        trace = next(s["trace"] for s in reversed(ring.spans())
                     if s["name"] == "client.batch")
        spans = _wait_for_trace(ring, trace, "query.execute")
        names = {s["name"] for s in spans}
        assert {"client.batch", "server.batch",
                "query.execute"} <= names
        ids = {s["span"] for s in spans}
        assert all(s["parent"] in ids for s in spans
                   if s["parent"] is not None)

    def test_stats_reports_worker_pids_liveness_and_metrics(
            self, served_obs):
        served_obs["client"].query(DistanceQuery("g", 0, 2))
        stats = served_obs["client"].stats()
        rows = stats["occupancy"]
        assert len(rows) == 2
        assert all(row["alive"] is True for row in rows)
        pids = {row["pid"] for row in rows}
        assert len(pids) == 2 and os.getpid() not in pids
        assert "metrics" not in stats
        snap = served_obs["pool"].metrics()
        assert snap["pool.serve_seconds.DistanceQuery"]["count"] \
            == stats["by_kind"]["DistanceQuery"]["count"]

    def test_metrics_verb_both_formats(self, served_obs):
        client = served_obs["client"]
        client.query(DistanceQuery("g", 1, 2))
        served_obs["pool"].drain()
        snap = client.metrics()
        assert snap["pool.serve_seconds.DistanceQuery"]["count"] >= 1
        # worker-side sites arrive via shipped deltas
        deadline = time.monotonic() + 10
        while "service.query_seconds.DistanceQuery" not in snap:
            assert time.monotonic() < deadline, sorted(snap)
            time.sleep(0.05)
            snap = client.metrics()
        text = client.metrics(format="prometheus")
        assert "repro_pool_serve_seconds_DistanceQuery_count" in text
        with pytest.raises(ProtocolError):
            client.metrics(format="xml")

    def test_client_reconnect_counter_and_retried_flag(
            self, served_obs):
        client = ServiceClient(served_obs["host"], served_obs["port"],
                               timeout=60)
        assert client.reconnects == 0
        client.ping()
        # a real transport drop: shut the TCP stream down so the next
        # read sees EOF (close() alone keeps the fd alive through the
        # makefile reference)
        import socket as _socket

        client._sock.shutdown(_socket.SHUT_RDWR)
        r = client.query(DistanceQuery("g", 0, 3))
        assert client.reconnects == 1
        assert r.retried is True
        snap = obs.registry().snapshot()
        assert snap["client.reconnects"]["value"] >= 1
        # the next, un-dropped call is not marked
        r2 = client.query(DistanceQuery("g", 0, 3))
        assert r2.retried is False
        client.close()


# ----------------------------------------------------------------------
# in-process pool (workers=0) uses the ambient context directly
# ----------------------------------------------------------------------
def test_workers0_pool_spans_nest_without_shipping():
    obs.reset()
    ring = obs.RingBufferSink()
    obs.enable(ring)
    try:
        pool = WarmWorkerPool(workers=0)
        pool.register("g", make_grid(3, 3))
        pool.start()
        pool.submit(GirthQuery("g")).result()
        spans = ring.spans(name="query.execute")
        assert len(spans) == 1
        assert spans[0]["pid"] == os.getpid()
        assert pool.metrics()["pool.serve_seconds.GirthQuery"]["count"] \
            == 1
        pool.close()
    finally:
        obs.reset()


def test_spliced_response_frames_count_in_wire_metrics():
    # query and batch responses splice the body the pool encoded; the
    # spliced frames must still feed the wire encode counters
    obs.enable()
    pool = WarmWorkerPool(workers=0)
    pool.register("g", make_grid(3, 3))
    pool.start()
    server = QueryServer(pool).start_background()
    try:
        with ServiceClient(*server.address, timeout=60) as client:
            client.query(FlowQuery("g", 0, 8))
            client.run([CutQuery("g", 0, 8), DistanceQuery("g", 0, 1)])
        snap = obs.registry().snapshot()
        # two requests encoded by the client, two responses by the server
        assert snap["wire.frames_encoded"]["value"] == 4
        assert snap["wire.encode_seconds"]["count"] == 4
    finally:
        server.shutdown()
        pool.close()
        obs.reset()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def _log(self, tmp_path):
        path = tmp_path / "obs.ndjson"
        sink = obs.NdjsonFileSink(path)
        obs.enable(sink)
        with obs.span("outer", graph="g"):
            with obs.span("inner"):
                pass
        sink.close()
        return str(path)

    def test_tail_and_summarize_and_tree(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._log(tmp_path)
        assert main(["tail", path, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "count" in out
        assert main(["tree", path]) == 0
        out = capsys.readouterr().out
        assert "outer" in out.splitlines()[1]

    def test_summarize_prints_self_time(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._log(tmp_path)
        assert main(["summarize", path]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["site", "count", "total", "self",
                                  "mean", "max"]
        # outer's self time is its total minus inner's
        cells = {line.split()[0]: line.split() for line in lines}
        outer, inner = cells["outer"], cells["inner"]
        assert float(outer[3][:-2]) == pytest.approx(
            float(outer[2][:-2]) - float(inner[2][:-2]), abs=2e-3)

    def test_scrape_prometheus(self, capsys):
        obs.enable()
        pool = WarmWorkerPool(workers=0)
        pool.register("g", make_grid(3, 3))
        pool.start()
        server = QueryServer(pool).start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port, timeout=60) as c:
                c.query(DistanceQuery("g", 0, 1))
            from repro.obs.__main__ import main

            assert main(["scrape", f"{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert "repro_pool_serve_seconds_DistanceQuery_count 1" in out
        finally:
            server.shutdown()
            pool.close()


# ----------------------------------------------------------------------
# no-numpy build (obs is pure stdlib; the whole stitched path must work)
# ----------------------------------------------------------------------
def test_obs_stitching_under_no_numpy_subprocess():
    code = (
        "import os, time\n"
        "from repro import obs\n"
        "from repro._compat import np\n"
        "assert np is None\n"
        "from repro.planar.generators import grid, randomize_weights\n"
        "from repro.server import QueryServer, ServiceClient, "
        "WarmWorkerPool\n"
        "from repro.service import DistanceQuery\n"
        "ring = obs.RingBufferSink()\n"
        "obs.enable(ring)\n"
        "g = randomize_weights(grid(3, 4), seed=5,"
        " directed_capacities=True)\n"
        "pool = WarmWorkerPool(workers=1)\n"
        "pool.register('g', g)\n"
        "pool.prewarm(kinds=('distance',))\n"
        "pool.start()\n"
        "server = QueryServer(pool).start_background()\n"
        "host, port = server.address\n"
        "with ServiceClient(host, port, timeout=60) as c:\n"
        "    c.query(DistanceQuery('g', 0, 2))\n"
        "trace = next(s['trace'] for s in reversed(ring.spans())\n"
        "             if s['name'] == 'client.query')\n"
        "for _ in range(200):\n"
        "    spans = ring.spans(trace=trace)\n"
        "    if any(s['name'] == 'query.execute' for s in spans):\n"
        "        break\n"
        "    time.sleep(0.05)\n"
        "names = {s['name'] for s in spans}\n"
        "assert {'client.query', 'server.query', 'query.execute'}"
        " <= names, names\n"
        "assert len({s['pid'] for s in spans}) >= 2\n"
        "server.shutdown()\n"
        "pool.close()\n"
        "print('OK')\n"
    )
    env = dict(os.environ, REPRO_ENGINE_NO_NUMPY="1",
               PYTHONPATH="src" + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"


def test_disabled_layer_costs_nothing_visible():
    """The disabled path returns identical results and leaves no state
    behind (the ≤2% timing gate lives in benchmarks/bench_obs.py)."""
    catalog = GraphCatalog()
    catalog.register("g", make_grid(3, 3))
    q = DistanceQuery("g", 0, 1)
    cold = execute_query(catalog, q)
    warm = execute_query(catalog, q)
    assert warm.warm is True and warm.result == cold.result
    execute_query(catalog, CutQuery("g", 0, 8))  # no reuse counters
    assert obs.registry().snapshot() == {}
    assert obs.sinks() == []


# ----------------------------------------------------------------------
# the layer gates itself: disabled helpers write and propagate nothing
# ----------------------------------------------------------------------
class TestDisabledGate:
    def test_metric_helpers_leave_registry_empty(self):
        assert obs.enabled() is False
        obs.inc("x")
        obs.inc("x", 5)
        obs.observe("lat", 0.25)
        obs.set_gauge("g", 7)
        assert obs.registry().snapshot() == {}
        # the same helpers write once the layer is on
        obs.enable()
        obs.inc("x")
        assert obs.registry().snapshot()["x"]["value"] == 1

    def test_activate_trace_is_inert(self):
        token = obs.activate_trace(("t", "s"))
        try:
            assert token is None
            assert obs.current_trace() is None
        finally:
            obs.deactivate_trace(token)

    def test_current_trace_is_none_while_disabled(self):
        obs.enable()
        with obs.span("outer") as sp:
            assert obs.current_trace() == (sp.trace_id, sp.span_id)
            obs.disable()
            assert obs.current_trace() is None

    def test_served_roundtrip_carries_no_trace(self, monkeypatch):
        frames = []
        dispatch = QueryServer.dispatch

        def recording_dispatch(self, frame):
            frames.append(dict(frame))
            return dispatch(self, frame)

        monkeypatch.setattr(QueryServer, "dispatch", recording_dispatch)
        g = make_grid(3, 3)
        pool = WarmWorkerPool(workers=1)
        pool.register("g", g)
        pool.start()
        commands = []
        frame = pool_module._frame

        def recording_frame(msg):
            commands.append(msg)
            return frame(msg)

        # after start(): the forked worker keeps the real encoder
        monkeypatch.setattr(pool_module, "_frame", recording_frame)
        server = QueryServer(pool).start_background()
        try:
            with ServiceClient(*server.address, timeout=60) as client:
                client.ping()
                r = client.query(DistanceQuery("g", 0, 1))
            catalog = GraphCatalog()
            catalog.register("g", g)
            assert r.result == catalog.serve(DistanceQuery("g", 0, 1)).result
        finally:
            server.shutdown()
            pool.close()
        assert [f["verb"] for f in frames] == ["ping", "query"]
        assert all("trace" not in f for f in frames)
        [query_cmd] = [m for m in commands if m[0] == "query"]
        assert query_cmd[4] is None  # the trace context slot
        assert obs.registry().snapshot() == {}


# ----------------------------------------------------------------------
# one gate: outside repro.obs the switch is read only where it chooses
# behaviour, never to guard a metric write or a trace hop
# ----------------------------------------------------------------------
#: (module under src/repro, enclosing function) -> reads allowed there
_SWITCH_READS = {
    # fork workers in shipping mode
    ("server/pool.py", "WarmWorkerPool.start"): 1,
    # the flight recorder is created only with the layer on
    ("server/app.py", "QueryServer.__init__"): 1,
    # the warm hit is a few µs: one flag read, two bodies (bench_obs)
    ("service/queries.py", "execute_query"): 1,
}


def test_switch_read_only_at_allowlisted_sites():
    """Outside ``repro/obs/``, ``obs.enabled()`` / ``_obs_trace._enabled``
    is read (or ``enabled`` imported from ``repro.obs``) only at the
    allowlisted ``(module, enclosing function)`` sites."""
    import ast
    from collections import Counter
    from pathlib import Path

    reads = Counter()

    def visit(node, rel, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            read = (isinstance(child, ast.Attribute)
                    and child.attr in ("enabled", "_enabled")
                    and isinstance(child.value, ast.Name)
                    and child.value.id in ("obs", "_obs_trace", "trace"))
            imported = (isinstance(child, ast.ImportFrom)
                        and (child.module or "").startswith("repro.obs")
                        and any(a.name in ("enabled", "_enabled")
                                for a in child.names))
            if read or imported:
                reads[(rel, ".".join(scope))] += 1
            visit(child, rel, inner)

    root = Path(SRC, "repro")
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not rel.startswith("obs/"):
            visit(ast.parse(path.read_text(encoding="utf-8")), rel, ())
    assert dict(reads) == _SWITCH_READS
