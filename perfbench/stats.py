"""Small, pure helpers the benchmark reports with: percentiles, shares,
seed derivation and result digests."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Sequence, Tuple

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def derive_seed(seed: int, *parts: Any) -> int:
    """A 31-bit case seed from the workload seed and any labels.  Adding or
    reordering other cases never moves a case's seed."""
    material = ":".join([str(seed), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:4], "big") >> 1


def nearest_rank(sorted_values: Sequence[float], rank: int) -> float:
    """The ``rank``-th smallest value (1-based)."""
    return sorted_values[rank - 1]


def median(values: Iterable[float]) -> float:
    """Nearest-rank median (the lower middle value of an even count)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    return nearest_rank(s, math.ceil(len(s) / 2))


def tail_percentile(values: Iterable[float], q: float = 99.0) -> Tuple[float, float, int]:
    """The ``q``-th percentile, or the highest lower one that still leaves
    :data:`TAIL_SAMPLES` samples beyond it, never below the median.

    Returns ``(value, percentile_used, sample_count)``.  Nearest-rank:
    the value at rank ``k`` leaves ``n - k`` samples beyond it.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("percentile of no samples")
    k = min(math.ceil(q / 100.0 * n), n - TAIL_SAMPLES)
    k = max(k, math.ceil(n / 2))
    return nearest_rank(s, k), 100.0 * k / n, n


def share(part: int, whole: int) -> float:
    """``part / whole``; a share of nothing attempted is an error, not 0."""
    if whole <= 0:
        raise ValueError(f"share of {whole} attempted")
    if not 0 <= part <= whole:
        raise ValueError(f"share {part} outside 0..{whole}")
    return part / whole


def digest(obj: Any) -> str:
    """sha256 of ``obj`` as canonical JSON; floats keep every digit."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()

