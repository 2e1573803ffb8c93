"""Machine-speed calibration for the betti4 benchmark.

Other load on a shared machine can slow pure-Python code by half or
more for tens of seconds at a time, far more than the changes the
benchmark has to resolve.  The benchmark therefore times this fixed
kernel next to every request and scales the request's wall-clock time
to a reference speed: the speed at which the kernel takes REFERENCE_MS.

The kernel is the benchmark's own code and never changes with the
program, so it tracks only the machine.  It does the same kind of work
as the package's hot loop (growing an lcm lattice with set
comprehensions over exponent tuples, then restricting and minimalizing
at every lattice point), so load slows both alike.
"""

import random
import statistics
from time import perf_counter_ns

import workloads

# The kernel's median on the 2-core machine the benchmark was built on,
# rounded; scaled times read close to that machine's wall-clock times.
REFERENCE_MS = 1.5

_IDEALS = [workloads.model_ideal(random.Random(f"betti4-bench/calibration/{i}")) for i in range(16)]


def kernel():
    total = 0
    for gens in _IDEALS:
        seen = {(0, 0, 0, 0)}
        for g in gens:
            seen |= {tuple(map(max, v, g)) for v in seen}
        for m in seen:
            images = [tuple(a if a == b else 0 for a, b in zip(m, g))
                      for g in gens if all(x <= y for x, y in zip(g, m))]
            total += len(workloads.minimalize(images))
    return total


def kernel_ns():
    """Wall-clock time of one kernel run."""
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def local_medians(samples, reach=10):
    """Median of each sample's neighbourhood: itself and up to reach on each side."""
    return [statistics.median(samples[max(0, i - reach):i + reach + 1])
            for i in range(len(samples))]


def scale(elapsed, kernel_time):
    """elapsed, in the same units, as it would read at the reference speed."""
    return elapsed * REFERENCE_MS * 1e6 / kernel_time
