"""Host facts and the host-speed reference.

The reference is a fixed pure-Python loop that does not import
``repro``.  On a shared VM each vCPU independently switches between a
fast and a slow state (about 1.7x apart, lasting a few hundred
milliseconds each) and loses time to the hypervisor (steal), so a raw
timing says more about the neighbours than about the program.

So the coordinator is pinned to the first available CPU and every
worker process to one of the others, and every measured interval is a
*segment*: it ends with a worker barrier, and a reference sample is
taken on every CPU in use at both of its ends.  The reference counts
CPU time, which leaves steal out; the steal the kernel reports for
the segment is taken off its wall time (see ``STEAL_WEIGHT``) and the
rest is scaled by ``NOMINAL_REF_S`` over the reference, each CPU
weighted by the CPU time its processes spent in the segment.  A
normalized reading says how long the work would take on a host where
the loop takes ``NOMINAL_REF_S``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import sys
import time
from contextlib import contextmanager

#: The reference loop's median in the fast state of the host the
#: benchmark was tuned on (2-vCPU x86-64 VM, Python 3.11).  Any
#: constant works; it only sets the units of normalized readings.
NOMINAL_REF_S = 0.001
_REF_ITERATIONS = 2_500
_REF_REPEATS = 3
#: Segments closer than this reuse the previous boundary sample.
_FRESH_S = 0.005
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Share of the stolen CPU time subtracted from a segment's wall time:
#: runs with 5-10% steal read 3-7% fast at 1.0 and 4-6% slow at 0.5.
STEAL_WEIGHT = 0.75


def _reference_loop(n: int) -> int:
    table: dict[int, int] = {}
    values: list[int] = []
    acc = 1
    for i in range(n):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 4095] = table.get(acc & 4095, 0) + i
        if i & 3 == 0:
            values.append(acc >> 7)
    values.sort()
    return len(table) + values[len(values) // 2]


def reference_sample() -> float:
    """Median CPU seconds of a few runs of the reference loop, GC off.

    CPU time, not wall time: the kernel leaves time stolen by the
    hypervisor out of a thread's CPU time, and steal is corrected from
    ``/proc/stat`` instead (see :class:`Timeline`), so the reference
    only measures how fast the vCPU runs while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REF_REPEATS):
            t0 = time.thread_time()
            _reference_loop(_REF_ITERATIONS)
            times.append(time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def _helper_main(cpu: int, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(reference_sample())
    conn.close()


def _task_cpu_ns(pid: int) -> int:
    """CPU time of every thread of a process, from schedstat (ns)."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total


class HostClock:
    """Reference samples and CPU times for the coordinator and workers."""

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.coordinator_cpu = cpus[0]
        self.worker_cpus = cpus[1:] or cpus[:1]
        self.pinned = len(cpus) > 1
        self._helpers: list = []
        self.worker_cpu_of: dict[int, int] = {}
        if self.pinned:
            os.sched_setaffinity(0, {self.coordinator_cpu})
            ctx = multiprocessing.get_context("fork")
            for cpu in self.worker_cpus:
                parent, child = ctx.Pipe()
                process = ctx.Process(
                    target=_helper_main, args=(cpu, child), daemon=True,
                    name=f"perfbench-reference-{cpu}",
                )
                process.start()
                child.close()
                self._helpers.append((cpu, process, parent))

    @property
    def nworkers(self) -> int:
        return len(self.worker_cpus) if self.pinned else 1

    def helper_pids(self) -> set[int]:
        return {process.pid for _cpu, process, _conn in self._helpers}

    def pin_workers(self) -> list[int]:
        """Pin every program child process to a worker CPU; their pids."""
        helpers = self.helper_pids()
        pids = sorted(
            p.pid for p in multiprocessing.active_children()
            if p.pid not in helpers
        )
        for i, pid in enumerate(pids):
            cpu = self.worker_cpus[i % len(self.worker_cpus)]
            if self.pinned and self.worker_cpu_of.get(pid) != cpu:
                try:
                    os.sched_setaffinity(pid, {cpu})
                except OSError:
                    continue
            self.worker_cpu_of[pid] = cpu
        return pids

    def sample(self) -> dict[int, float]:
        """One reference sample per CPU, taken at the same time."""
        for _cpu, _process, conn in self._helpers:
            conn.send(True)
        out = {self.coordinator_cpu: reference_sample()}
        for cpu, _process, conn in self._helpers:
            out[cpu] = conn.recv()
        return out

    def steal(self) -> dict[int, float]:
        """Seconds stolen by the hypervisor so far, per CPU in use."""
        cpus = {f"cpu{c}": c for c in [self.coordinator_cpu, *self.worker_cpus]}
        out = dict.fromkeys(cpus.values(), 0.0)
        try:
            with open("/proc/stat") as f:
                for line in f:
                    fields = line.split()
                    if fields and fields[0] in cpus and len(fields) > 8:
                        out[cpus[fields[0]]] = int(fields[8]) / _CLK_TCK
        except OSError:
            pass
        return out

    def cpu_times(self) -> dict:
        """CPU seconds so far: the coordinator under ``None``, then by pid."""
        out = {None: time.process_time()}
        for pid in self.pin_workers():
            out[pid] = _task_cpu_ns(pid) / 1e9
        return out

    def close(self) -> None:
        for _cpu, process, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
            conn.close()
        self._helpers = []


def _running(wall: float, stolen: float) -> float:
    """Share of an interval's wall time its pipeline was not stolen.

    Steal accrues on a vCPU only while it has work to run, and each CPU
    runs one process of the pipeline, so stolen time is mostly time the
    pipeline stood still.  Only ``STEAL_WEIGHT`` of it is taken off:
    some overlaps work on the other CPU, and the neighbours that steal
    also slow the reference.  The counters tick in 1/CLK_TCK steps, so
    a short interval's share is capped.
    """
    if wall <= 0:
        return 1.0
    return max(wall - STEAL_WEIGHT * stolen, wall / 2) / wall


class Timeline:
    """Measured segments, each normalized by its boundary samples.

    A segment's factor is ``NOMINAL_REF_S`` over the reference of the
    CPUs that did its work, times the share of its wall time not lost
    to steal (:func:`_running`): each CPU's reference is the mean of its
    samples at the two ends of the segment, and the CPUs are weighted
    by the CPU time the processes pinned to them spent in it.  Every
    segment ends with a worker barrier, so the coordinator's and the
    workers' work inside it is done when its wall time stops.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.barrier = None
        #: (wall seconds, reference factor, coordinator reference
        #: factor, seconds stolen, seconds stolen from the coordinator).
        self.segments: list[tuple[float, float, float, float, float]] = []
        #: Seconds the closing worker barrier took, per segment.
        self.barrier_s: dict[int, float] = {}
        self.refs: list[float] = []
        #: The open segment's index, or None between segments.
        self.current: int | None = None
        #: Seconds of steal subtracted over all segments.
        self.stolen = 0.0
        self._open = None
        self._last = None
        self._last_at = -1.0

    def _sample(self) -> dict[int, float]:
        sample = self.clock.sample()
        self.refs.extend(sample.values())
        self._last, self._last_at = sample, time.perf_counter()
        return sample

    def _begin(self, indices: list[int]) -> None:
        if self._last is None or time.perf_counter() - self._last_at > _FRESH_S:
            if self.barrier is not None:
                self.barrier()
            self._sample()
        index = len(self.segments)
        self.segments.append((0.0, 1.0, 1.0, 0.0, 0.0))  # placeholder while open
        indices.append(index)
        self._open = (index, self._last, self.clock.cpu_times(), self.clock.steal())
        self.current = index
        self._t0 = time.perf_counter()

    def _end(self) -> None:
        index, before, cpu0, steal0 = self._open
        if self.barrier is not None:
            tb = time.perf_counter()
            self.barrier()
            self.barrier_s[index] = time.perf_counter() - tb
        wall = time.perf_counter() - self._t0
        self.current = self._open = None
        steal1 = self.clock.steal()
        stolen = {cpu: steal1[cpu] - steal0[cpu] for cpu in steal1}
        cpu1 = self.clock.cpu_times()
        after = self._sample()
        self.stolen += sum(stolen.values())
        coordinator = self.clock.coordinator_cpu
        self.segments[index] = (
            wall,
            self._factor(before, after, cpu0, cpu1),
            NOMINAL_REF_S * 2 / (before[coordinator] + after[coordinator]),
            sum(stolen.values()),
            stolen[coordinator],
        )

    def stolen_since(self, mark: dict[int, float]) -> tuple[float, float]:
        """Steal since ``clock.steal()`` returned ``mark``: (all, coordinator)."""
        now = self.clock.steal()
        stolen = {cpu: now[cpu] - mark[cpu] for cpu in now}
        return sum(stolen.values()), stolen[self.clock.coordinator_cpu]

    @contextmanager
    def segment(self):
        """Time the body; yields the list of its segment indices.

        The list holds one index unless the body calls :meth:`split`.
        """
        indices: list[int] = []
        self._begin(indices)
        self._indices = indices
        try:
            yield indices
        except BaseException:
            self.current = self._open = None
            raise
        self._end()

    def split(self) -> None:
        """End the open segment here and continue in a new one."""
        if self._open is not None:
            self._end()
            self._begin(self._indices)

    def _factor(self, before, after, cpu0, cpu1) -> float:
        clock = self.clock
        weights = {clock.coordinator_cpu: cpu1[None] - cpu0[None]}
        for pid, seconds in cpu1.items():
            if pid is None:
                continue
            cpu = clock.worker_cpu_of.get(pid, clock.coordinator_cpu)
            weights[cpu] = weights.get(cpu, 0.0) + seconds - cpu0.get(pid, 0.0)
        total = sum(w for w in weights.values() if w > 0)
        ref = 0.0
        for cpu in before:
            mean = (before[cpu] + after[cpu]) / 2
            share = (
                max(weights.get(cpu, 0.0), 0.0) / total if total
                else 1.0 / len(before)
            )
            ref += share * mean
        return NOMINAL_REF_S / ref

    def factor(self, index: int) -> float:
        """Normalization of the segment's pipeline (every CPU it used)."""
        wall, ref, _coordinator, stolen, _ = self.segments[index]
        return ref * _running(wall, stolen)

    def coordinator_factor(self, index: int) -> float:
        """Normalization of work done in the coordinator alone.

        Writes run in the coordinator while the workers apply earlier
        routed deltas on their own CPUs, so the pipeline's CPU weights
        would mix an unrelated CPU's speed into write latencies.
        """
        wall, _ref, coordinator, _, stolen = self.segments[index]
        return coordinator * _running(wall, stolen)

    def latency(self, index: int, seconds: float, stolen: float,
                coordinator: bool = False) -> float:
        """One op's normalized latency, given the steal during the op.

        A burst of steal lands on the ops it stalls, so a percentile
        needs each op's own steal taken off, not the segment's average.
        """
        ref = self.segments[index][2 if coordinator else 1]
        return ref * seconds * _running(seconds, stolen)

    def wall(self, index: int) -> float:
        return self.segments[index][0]

    def normalized(self, indices) -> float:
        return sum(self.wall(i) * self.factor(i) for i in indices)


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return []
    return [int(v) for v in fields[1:]]


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of all CPU time the hypervisor stole between two reads."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def peak_rss_mb(pids) -> float:
    """Summed VmHWM (peak resident set) of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def facts(clock: HostClock) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": ".".join(map(str, sys.version_info[:3])),
        "nominal_ref_s": NOMINAL_REF_S,
        "pinned": clock.pinned,
        "coordinator_cpu": clock.coordinator_cpu,
        "worker_cpus": clock.worker_cpus,
    }
