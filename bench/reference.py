"""Reference loop: a fixed piece of pure-Python work that gauges host speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts
by 40% or more over tens of seconds, while steal time stays near 0: the
vCPU is not descheduled, it just runs slower.  No clock inside the VM
can tell that apart from a slower program, so the benchmark runs this
loop in its own process after every spawn, on the same pinned CPU, and
scales a run's end-to-end times by REF_S over the loop's mean CPU time
in that run.  The loop does what the engine's event loop does per event
(heap push and pop, a Gaussian draw, exp, dict updates, float
formatting) and never changes with the program, so a faster program
still reads faster.

    python3 bench/reference.py

prints the CPU seconds of a few loops.
"""

import heapq
import math
import random
import time

REF_S = 0.05  # nominal CPU seconds of one loop; scaled times are "at REF_S"
EVENTS = 20000  # events per loop: about REF_S on a 2.1 GHz Xeon vCPU


def _loop(events: int) -> int:
    rng = random.Random(12345)
    heap = [(rng.random(), k, "slot") for k in range(64)]
    heapq.heapify(heap)
    state = {"stored": 1.0, "rows": []}
    rows = state["rows"]
    for i in range(events):
        t, k, kind = heapq.heappop(heap)
        fade = math.exp(0.5 * rng.gauss(0.0, 1.0) - 0.125)
        harvest = 1.2 * fade * (0.2 if k & 1 else 0.05)
        state["stored"] = min(2.0, state["stored"] + (harvest - 0.0259) * 0.005)
        if i & 3 == 0:
            rows.append(f"{t:.9f},{k},{kind},{state['stored']:.12g}")
        heapq.heappush(heap, (t + 0.005 + rng.random() * 1e-3, k, kind))
    return len("\n".join(rows))


def reference_cpu_s() -> float:
    """CPU seconds of one reference loop in this process."""
    t0 = time.process_time()
    _loop(EVENTS)
    return time.process_time() - t0


if __name__ == "__main__":
    print(" ".join(f"{reference_cpu_s():.4f}" for _ in range(5)))
