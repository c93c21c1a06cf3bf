"""Memory accounting (paper §3.6-3.7).

Two complementary measurements:

* :func:`traced_peak_bytes` — ``tracemalloc`` peak of a callable: the actual
  Python-heap high-water mark of one query (captures NumPy buffers too).
* Estimator-reported working sets (``Estimator.memory_bytes``) — the
  structural accounting the paper discusses (index resident size, recursion
  stack, node/edge vectors); cheap enough to sample at every grid point.

The paper reports process-level usage of a C++ binary; our two views bracket
the same quantities.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, Tuple


def traced_peak_bytes(operation: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``operation`` and return ``(result, peak_allocated_bytes)``.

    Nested use is supported: if tracing is already active, peaks are
    measured relative to the current snapshot.
    """
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        result = operation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return result, max(0, peak - baseline)


def format_bytes(size: float) -> str:
    """Human-readable byte count (power-of-1024 units)."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GiB"


__all__ = ["traced_peak_bytes", "format_bytes"]
