"""Step timing, the measuring loop and the end-to-end metrics."""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns

import numpy as np

from spans import MEASURE

# The speed of a fixed kernel can drift by tens of percent within seconds
# on a shared machine.  Each step is therefore bracketed by a run of the probe
# kernel, and its time is scaled to a machine on which the probe takes
# PROBE_NOMINAL_MS: t * PROBE_NOMINAL_MS / probe.  The README gives the
# spreads with and without this scaling.
PROBE_ITERATIONS = 50
PROBE_NOMINAL_MS = 0.5


class StepLog:
    """Times steps, keeps their verdicts and, when traced, their spans.

    Step ids count from 0 over the whole run; the first ``warmup`` ids are
    run and checked but not timed.  A step is failed when it raises, exits
    non-zero or fails a check; a failed check also marks the run incorrect.
    """

    def __init__(self, tracer, warmup: int):
        self.tracer = tracer
        self.warmup = warmup
        self.durations: list[float] = []   # seconds, timed steps only
        self.probes: list[float] = []      # ms, probe time around each timed step
        self.units: list[int] = []
        self.timed_ids: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.next_id = 0

    def _keep(self, step_id: int, seconds: float, probe: float, units: int) -> None:
        if step_id >= self.warmup:
            self.durations.append(seconds)
            self.probes.append(probe)
            self.units.append(units)
            self.timed_ids.append(step_id)

    def guarded(self, fn):
        """Run ``fn``; on an exception print it and return None."""
        try:
            return fn()
        except Exception:  # noqa: BLE001 - the run goes on and counts the failure
            traceback.print_exc(file=sys.stderr)
            return None

    def step(self, fn, units: int, span: str | None = None):
        """Time one step; returns its result, or None when it raised."""
        step_id = self.next_id
        self.next_id += 1
        self.attempted += 1
        tracer = self.tracer
        before = probe_ms()
        if tracer is not None:
            tracer.current_step = step_id
            idx = tracer.open("step")
            if span is not None:
                fn = tracer.wrap(span, fn)
        start = perf_counter_ns()
        result = self.guarded(fn)
        end = perf_counter_ns()
        if tracer is not None:
            tracer.close(idx, float(units))
            tracer.current_step = -1
        after = probe_ms()
        if result is None:
            self.failed += 1
        else:
            self._keep(step_id, (end - start) / 1e9, (before + after) / 2, units)
        return result

    def verdict(self, ok: bool) -> None:
        if not ok:
            self.failed += 1
            self.wrong += 1

    def error(self, message: str) -> None:
        print(f"step failed: {message}", file=sys.stderr)
        self.failed += 1

    @contextlib.contextmanager
    def checking(self):
        """Checks run with tracing paused and outside every step."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    # Steps whose bounds are read inside the program (kv-decode).

    def begin_boundaries(self, first_ctx: int) -> None:
        self._marks: list[tuple[int, int, float]] = []
        self._first_ctx = first_ctx
        self._base = self.next_id

    def boundary(self) -> None:
        """A decode-time step boundary: the previous step ends, the probe
        runs, the next step starts."""
        ended = perf_counter_ns()
        probe = probe_ms()
        started = perf_counter_ns()
        s = len(self._marks)
        self._marks.append((ended, started, probe))
        if self.tracer is not None:
            if s:
                self.tracer.add("step", self._marks[s - 1][1], ended, self._base + s - 1,
                                1.0, float(self._first_ctx + s - 1))
            self.tracer.current_step = self._base + s

    def end_boundaries(self, n_steps: int, ok) -> None:
        """Close a round of ``n_steps`` steps; ``ok`` holds one verdict per
        step, or is None when the round raised.  The last step has no
        closing boundary, so it is checked but not timed."""
        if self.tracer is not None:
            self.tracer.current_step = -1
        self.attempted += n_steps
        self.next_id = self._base + n_steps
        if ok is None:
            self.failed += n_steps
            return
        bad = int(np.count_nonzero(~np.asarray(ok)))
        self.failed += bad
        self.wrong += bad
        marks = self._marks
        for s in range(min(len(marks), n_steps) - 1):
            self._keep(self._base + s, (marks[s + 1][0] - marks[s][1]) / 1e9,
                       (marks[s][2] + marks[s + 1][2]) / 2, 1)


_PROBE_X = np.linspace(-1.0, 1.0, 64)
_PROBE_MAGS = np.array([1.0, 19.0, 38.0, 59.0, 84.0, 117.0, 166.0, 247.0]) / 247.0


def probe_ms() -> float:
    """Time of one run of a fixed reference kernel outside `mant`: small
    numpy calls in a Python loop, the same mix as the program's group
    loops, about half a millisecond."""
    start = perf_counter()
    for _ in range(PROBE_ITERATIONS):
        np.argmin(np.abs(_PROBE_X[:, None] - _PROBE_MAGS[None, :]), axis=1).sum()
    return (perf_counter() - start) * 1e3


def probe_median_ms(reps: int = 101) -> float:
    return statistics.median(probe_ms() for _ in range(reps))


def copy_bandwidth(nbytes: int = 64 << 20, reps: int = 5) -> float:
    """Bytes per second of ``np.copyto`` between two buffers larger than
    the caches (best of ``reps``)."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        np.copyto(dst, src)
        best = min(best, perf_counter() - start)
    return src.nbytes / best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer) -> dict:
    """Set up ``setup_reps`` times, then run whole rounds until the next
    round would end past ``seconds``."""
    log = StepLog(tracer, workload.warmup)
    if hasattr(workload, "hook"):
        workload.hook(log)
    setup_times, setup_probes = [], []
    for _ in range(workload.setup_reps):
        state = None
        before = probe_median_ms(5)
        start = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - start)
        setup_probes.append((before + probe_median_ms(5)) / 2)
    probe_before = probe_median_ms()
    if tracer is not None:
        tracer.current_phase = MEASURE
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        workload.run_round(state, rounds, log)
        rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    measured = perf_counter() - start
    probe_after = probe_median_ms()
    rss = peak_rss_mb()
    return {"log": log, "state": state, "setup_times": setup_times,
            "setup_probes": setup_probes, "rounds": rounds,
            "measured_s": measured, "probe_before_ms": probe_before,
            "probe_after_ms": probe_after, "peak_rss_mb": rss,
            "copy_bytes_per_s": copy_bandwidth()}


def end_to_end(workload, run: dict, scaled: bool = True) -> dict[str, float]:
    """The six end-to-end metrics; times are probe-scaled unless
    ``scaled`` is false."""
    log = run["log"]
    durations = np.array(log.durations)
    setup = np.array(run["setup_times"])
    if scaled:
        durations = durations * PROBE_NOMINAL_MS / np.array(log.probes)
        setup = setup * PROBE_NOMINAL_MS / np.array(run["setup_probes"])
    err, ref = workload.err
    return {
        "setup_s": float(np.median(setup)),
        "work_per_s": float(np.sum(log.units) / np.sum(durations)),
        "step_p50_ms": float(np.percentile(durations, 50) * 1e3),
        "step_p90_ms": float(np.percentile(durations, 90) * 1e3),
        "peak_rss_mb": run["peak_rss_mb"],
        "out_rel_err": err / ref,
    }


END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "step_p50_ms": "ms",
                    "step_p90_ms": "ms", "peak_rss_mb": "MiB", "out_rel_err": "ratio"}
