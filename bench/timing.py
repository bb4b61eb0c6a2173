"""CPU time of the benchmark's work, scaled to a nominal host speed."""

from __future__ import annotations

import resource
import statistics
import sys
import time

from workloads import run_child

WINDOW_S = 0.5  # CPU seconds of work between two reference units


def cpu_s() -> float:
    """CPU seconds used by this process and by the children it has waited
    for.  Unlike wall time, it leaves out the time the host spent running
    other work on our core; on an idle host the two agree for these
    single-threaded workloads."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Host speed.  The benchmark shares a host whose speed drifts by a quarter
# and more over minutes, and by up to half within seconds (other tenants,
# shared cores), in CPU time as well as in wall time.  Every half CPU second
# of work the run times a fixed piece of pure-Python work, the reference
# unit, and scales the CPU times measured between two units by the unit's
# nominal time over the mean of those two units.  Every timing metric
# therefore reads in seconds of a host on which one reference unit takes its
# nominal time, which is about this benchmark's development host.  A workload
# whose operations are processes runs the unit in a fresh interpreter, so
# that it also pays process start-up as those operations do; so does each
# set-up probe, which is a fresh interpreter too.
REFERENCE_LOOP = """
table = list(range(4096))
seen = {}
acc = 1
for i in range(60000):
    acc = (acc * 31 + table[i & 4095]) % 65521
    table[(acc ^ i) & 4095] = acc
    if acc & 7 == 0:
        seen[acc] = i
"""
REFERENCE_S = {False: 0.040, True: 0.115}  # nominal: in process, in a child


def reference_unit(in_child: bool) -> float:
    """CPU seconds of one reference unit."""
    start = cpu_s()
    if in_child:
        run_child([sys.executable, "-c", REFERENCE_LOOP])
    else:
        exec(REFERENCE_LOOP, {})
    return cpu_s() - start


class ScaledCosts:
    """CPU seconds per operation, with reference units run between windows
    of work; ``scaled()`` turns them into nominal host seconds."""

    def __init__(self, in_child: bool) -> None:
        self._unit = lambda: reference_unit(in_child)
        self._nominal = REFERENCE_S[in_child]
        self.raw: list[float] = []
        self.windows: list[int] = []  # per operation: the unit before it
        self.references = [self._unit()]
        self._start = cpu_s()

    def add(self, cost: float) -> None:
        self.raw.append(cost)
        self.windows.append(len(self.references) - 1)
        if cpu_s() - self._start >= WINDOW_S:
            self.close_window()

    def close_window(self) -> None:
        self.references.append(self._unit())
        self._start = cpu_s()

    @property
    def scale(self) -> float:
        """The whole run's mean factor, for deciding when to stop."""
        return self._nominal / statistics.fmean(self.references)

    def scaled(self) -> list[float]:
        """Each cost scaled by the units either side of its window; the
        last window must have been closed."""
        refs = self.references
        factors = [2 * self._nominal / (a + b) for a, b in zip(refs, refs[1:])]
        return [c * factors[k] for c, k in zip(self.raw, self.windows)]
