"""A fixed pure-Python speed probe.

On a shared machine the speed of the same Python code drifts by +-20% over
seconds, far more than the regressions the bounds must catch. ``probe()``
times a fixed walk over a nested document that builds a path string at every
node, the kind of dispatch the resolver and validator do. ``run.py`` scales
each timing by ``REFERENCE_PROBE_S`` over the probe time measured around it.

The garbage collector is switched off while the probe runs, so a collection
set off by the heap the program keeps alive never lands inside the probe.
This module imports only ``gc`` and ``time``, so ``cold_setup.py`` can use it
without loading modules the program would otherwise import itself.
"""

import gc
from time import perf_counter

# About the median probe time on the machine the first result came from; a
# reported time is the time the operation takes when the probe takes this.
REFERENCE_PROBE_S = 0.0030


def _tree(depth: int):
    if depth == 0:
        return ["leaf", 1, 2.5, None, True]
    tree = {}
    for i in range(3):
        tree["k" + str(i)] = _tree(depth - 1)
    tree["n"] = depth
    return tree


_TREE = _tree(6)


def _walk(value, path: str) -> int:
    total = 0
    if isinstance(value, dict):
        for key in value:
            total += _walk(value[key], path + "/" + key)
    elif isinstance(value, list):
        for i in range(len(value)):
            total += _walk(value[i], path + "/" + str(i))
    else:
        total = len(path)
    return total


def probe() -> float:
    """Seconds one pass of the speed probe takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _walk(_TREE, "")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
