"""Small order statistics shared by the workloads."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
