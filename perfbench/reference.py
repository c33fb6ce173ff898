"""A fixed piece of pure-Python work that measures how fast the host runs now.

On a shared host the same deterministic op can take up to twice as long in
one stretch as in another, because other tenants slow the CPU for seconds to
minutes at a time. The benchmark times ``reference()`` between ops and
scales each op's time by ``REF_S / (reference time beside it)``, so that a
slow stretch slows both and cancels. A scaled time reads as seconds at the
speed at which ``reference()`` takes ``REF_S``.

The work resembles grpdim's hot loops: recursion, tuple and list building,
dict updates and bitmask tests on small ints. It does not import grpdim, so
a change to the program never changes the reference.
"""

from __future__ import annotations

import random
import time

# Time of one reference() call in the fast stretches of the 2-CPU host the
# benchmark was built on; a fixed constant, so scaled times compare across
# runs and commits.
REF_S = 0.015
_ITEMS = 11


def _graph(n: int) -> list[int]:
    rng = random.Random(1)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _graph(_ITEMS)


def _work() -> int:
    """Bitmask DFS over partitions of a fixed graph into at most 3 classes."""
    adj = _ADJ
    n = len(adj)
    seen: dict = {}
    leaves = 0

    def dfs(item, states):
        nonlocal leaves
        if item == n:
            leaves += 1
            return
        for c in range(min(len(states) + 1, 3)):
            mask, comps = states[c] if c < len(states) else (0, ())
            if adj[item] & mask and (item * 7 + c) % 5 == 0:
                continue
            key = (item, c, mask & 0xFF)
            seen[key] = seen.get(key, 0) + 1
            nxt = list(states)
            state = (mask | 1 << item, comps + ((item, c),))
            if c < len(states):
                nxt[c] = state
            else:
                nxt.append(state)
            dfs(item + 1, nxt)

    dfs(0, [])
    return leaves


LEAVES = _work()  # the reference's own result, checked on every call


def reference() -> float:
    """Seconds taken by one pass of the fixed work, right now."""
    start = time.perf_counter()
    leaves = _work()
    elapsed = time.perf_counter() - start
    if leaves != LEAVES:
        raise RuntimeError(f"reference work returned {leaves}, expected {LEAVES}")
    return elapsed
