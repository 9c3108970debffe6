"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x for minutes at a time, as other tenants come and go. Every timed round
and set-up is bracketed by calls of `measure`, and its times are rescaled to
the speed at which `measure` takes YARDSTICK_S (see run.Play). The work here
is of the library's kind but independent of it — Python loops over dicts
and lists, small numpy vectors turned into lists, greedy walks on a graph
— so it slows down when the library does, and a change to the library does
not change it.
"""

import time

import numpy as np

# About the time `measure` takes on a 2-core Xeon host (Python 3.11, numpy
# 2.4) when no other tenant slows it: the machine speed that the benchmark's
# times are rescaled to.
YARDSTICK_S = 0.015

_N = 48
_rng = np.random.default_rng(20240601)
_ADJ = {u: sorted({int(v) for v in _rng.choice(_N, 6, replace=False)} - {u}) for u in range(_N)}
_WEIGHT = {(u, v): float(w) for u in range(_N) for v, w in zip(_ADJ[u], _rng.random(6))}
_PRIORITIES = _rng.random((48, _N))


def _walks():
    total = 0.0
    x = _PRIORITIES[0].copy()
    v = np.zeros(_N)
    for row in _PRIORITIES:
        # A velocity update on small vectors, as a swarm step does.
        v = 0.7 * v + 1.5 * (row - x) * 0.5
        x = np.clip(x + v, 0.0, 1.0)
        pri = x.tolist()
        for start in range(0, _N, 4):
            path, seen = [start], {start}
            while len(path) < 12:
                nbrs = [w for w in _ADJ[path[-1]] if w not in seen]
                if not nbrs:
                    break
                nxt = max(nbrs, key=lambda w: (pri[w], -w))
                path.append(nxt)
                seen.add(nxt)
            weights = [_WEIGHT[a, b] for a, b in zip(path, path[1:])]
            if weights:
                total += weights[0] / sum(weights)
    return total


def measure():
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _walks()
    return time.perf_counter() - t0
