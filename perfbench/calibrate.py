"""Host-speed calibration for the timed runs.

The host the benchmark was tuned on is a shared VM whose speed flips by up
to 1.8x within seconds, for every layer of a run at once, and CPU time flips
with it.  Raw wall times of the same input therefore spread past any useful
bound.  ``loop`` is a fixed pure-Python workload of the kind the repository
runs (dicts, lists and a heap over a random graph); it does not touch the
repository's code, so no change to the program can move it.  A timed child
process runs it at its start, after ``import repro.cli``, after every sweep
point and at its end, and ``scaled_seconds`` scales each stretch of the
child's time between two runs of the loop by ``REFERENCE_S`` over their mean
time: the time the stretch would take on a host that runs the loop in
``REFERENCE_S``.  The loops' own time is left out.

Interleaved in-process this way on the tuning host, a 192-switch network
build over the loop's time varied by 7 % across 10-s windows in which the
raw build time varied by 60 %; bracketing whole child processes from the
launcher instead corrected nothing, because the speed flips within a run.

The loop and ``REFERENCE_S`` are part of the benchmark's definition:
changing either changes every reported time.
"""

import heapq
import math
import random

#: The loop's time on the host the benchmark was tuned on (a 2-core "Intel(R)
#: Xeon(R) Processor" VM, Python 3.11.7) in its faster state, in seconds.
REFERENCE_S = 0.065

_NODES = 3000


def loop() -> int:
    """Shortest-path sums from 10 sources over a fixed random graph."""
    rng = random.Random(12345)
    adjacency = {node: [] for node in range(_NODES)}
    for _ in range(4 * _NODES):
        a, b = rng.randrange(_NODES), rng.randrange(_NODES)
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    total = 0
    for source in range(0, _NODES, _NODES // 10):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for other in adjacency[node]:
                candidate = d + 1 + (node ^ other) % 3
                if candidate < dist.get(other, 1 << 30):
                    dist[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        total += sum(dist.values())
    return total


def scaled_seconds(loops: list[list[float]], start: float, end: float) -> float:
    """Reference-speed seconds of ``[start, end]`` outside the calibration
    ``loops`` (their ``[start, end]`` timestamps, in order, all after
    ``start``).  A stretch between two loops is scaled by the mean of their
    times; the stretches before the first loop and after the last by that
    loop's time alone."""
    if not loops:
        raise ValueError("no calibration loops")
    total = 0.0
    edge = start
    before = loops[0][1] - loops[0][0]
    for loop_start, loop_end in loops + [[math.inf, math.inf]]:
        after = loop_end - loop_start if loop_start != math.inf else before
        stretch = min(loop_start, end) - edge
        if stretch > 0:
            total += stretch * REFERENCE_S * 2 / (before + after)
        if loop_start >= end:
            break
        edge, before = loop_end, after
    return total
