"""Shared helpers: operation accounting, percentiles, memory, the
served-surface process."""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque

#: how many times each run builds its serving state from scratch;
#: ``setup_s`` is the median
SETUP_REPS = 3


class HostClock:
    """Wall time scaled to a reference host speed.

    The hosts this benchmark runs on change speed by up to 1.7x in
    phases of seconds (a fixed pure-Python loop, measured back to back,
    takes from 53 to 91 ms), for CPU time as much as for wall time, and
    the cost of waking another process swings by 1.5x on its own, so
    raw medians of one run do not repeat in the next.  The clock runs a
    fixed calibration between operations (at most every ``interval``
    seconds) and scales each measured interval by the reference
    calibration time over the median of the last few calibration
    times: a scaled figure is the wall time the interval would have
    taken on a host that runs the calibration in the reference time.  A
    change to the program moves scaled figures as it moves raw ones,
    because the calibration runs none of the program's code.

    The calibration is a fixed pure-Python loop or, with ``wakeups``,
    that many one-byte round trips through pipes to an echo process
    instead — for operations whose time is mostly processes waking each
    other, as on the served path.
    """

    LOOP_REFERENCE = 190e-6
    WAKEUP_REFERENCE = 15e-6
    WINDOW = 9

    def __init__(self, wakeups=0, interval=0.02):
        self._recent = deque(maxlen=self.WINDOW)
        self._last = -1.0
        self.wakeups = wakeups
        self.interval = interval
        self.reference = (wakeups * self.WAKEUP_REFERENCE if wakeups
                          else self.LOOP_REFERENCE)
        #: every calibration time measured, for the traced report
        self.calibrations = []
        self._echo = None
        if wakeups:
            self._echo = subprocess.Popen(
                [sys.executable, "-c",
                 "import os\nwhile True:\n    b = os.read(0, 1)\n"
                 "    if not b:\n        break\n    os.write(1, b)\n"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self):
        if self._echo is not None:
            self._echo.stdin.close()
            self._echo.wait(timeout=10)
            self._echo.stdout.close()
            self._echo = None

    def _calibration(self):
        t0 = time.perf_counter()
        if self._echo is None:
            acc = 0
            for i in range(3000):
                acc += i * i
        else:
            out = self._echo.stdin.fileno()
            back = self._echo.stdout.fileno()
            for _ in range(self.wakeups):
                os.write(out, b"x")
                os.read(back, 1)
        return time.perf_counter() - t0

    def calibrate(self, times=1):
        for _ in range(times):
            c = self._calibration()
            self._recent.append(c)
            self.calibrations.append(c)
        self._last = time.perf_counter()

    def tick(self):
        """Calibrate when the last calibration is older than
        ``interval``; call right before starting a timed interval."""
        if time.perf_counter() - self._last > self.interval:
            self.calibrate()

    def scale(self, seconds):
        return seconds * self.reference / statistics.median(self._recent)


@contextlib.contextmanager
def on_all_cpus():
    """Lift the one-CPU pin for the body, for processes spawned in it
    too.  A served query is mostly processes waking each other: with
    client, server and worker pinned to one CPU, the raw distance p50
    ranged from 0.59 to 0.86 ms over eight seeds and the calibration did
    not follow it; with wake-ups crossing CPUs it ranged from 1.10 to
    1.20 ms.  Set-ups stay pinned: unpinned, the served set-up ranged
    from 0.90 to 1.46 s over five seeds."""
    pinned = os.sched_getaffinity(0)
    # the kernel keeps the CPUs of the mask that this process may use
    os.sched_setaffinity(0, range(os.cpu_count()))
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class Ops:
    """Attempted and failed counts per operation kind, plus the
    latency samples of the timed phase (seconds) by sample name."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.samples = {}
        self.wrong = []
        self.unexpected = []

    def done(self, kind, ok=True):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def sample(self, name, seconds):
        self.samples.setdefault(name, []).append(seconds)

    def mark_wrong(self, kind, problems):
        """Turn one answered operation of ``kind`` into a failed one."""
        self.failed[kind] = self.failed.get(kind, 0) + 1
        self.wrong.extend(problems[:3])

    def total_attempted(self):
        return sum(self.attempted.values())

    def total_failed(self):
        return sum(self.failed.values())

    def table(self):
        return {kind: {"attempted": n, "failed": self.failed.get(kind, 0)}
                for kind, n in sorted(self.attempted.items())}


def p50(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def self_peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid):
    """Summed peak resident set (VmHWM) of ``pid`` and its children."""
    total = 0.0
    pids = [pid]
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            pids += [int(p) for p in fh.read().split()]
    except OSError:
        pass
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


class ServerProcess:
    """``python -m repro.server`` on an ephemeral port, serving the demo
    grid ``grid(rows, cols)`` weighted by ``seed``."""

    def __init__(self, src, rows, cols, seed, workers):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(workers), "--rows", str(rows),
             "--cols", str(cols), "--seed", str(seed),
             "--prewarm", "flow,distance"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            start_new_session=True, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.split("listening on ")[1].split()[0] \
            .rsplit(":", 1)
        self.port = int(port)

    def close(self):
        """SIGINT (the server's own clean shutdown), then wait; kill the
        whole session if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def wait_ready(client_cls, server, timeout=60.0):
    """Connect a client and ping until the server answers."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            client = client_cls(server.host, server.port).connect()
            client.ping()
            return client
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
