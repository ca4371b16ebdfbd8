"""Hardware prefetcher model.

Intel cores ship several prefetchers; the one that most disturbs per-set
experiments is the *adjacent line* / *streamer* prefetcher, which pulls
neighbouring lines into the cache when it detects sequential accesses.
CacheQuery disables prefetching during measurements (Section 4.3); the
simulated CPU therefore implements a simple next-line prefetcher so that
"forgetting" to disable it visibly corrupts experiments, and exposes the
enable/disable switch the backend flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Cache line size in bytes: the granularity the prefetcher tracks.
LINE_SIZE = 64


@dataclass
class NextLinePrefetcher:
    """Fetches line ``x + 1`` after two consecutive line accesses ``x-1, x``."""

    enabled: bool = True
    _last_line: Optional[int] = field(default=None, repr=False)
    issued: int = 0

    def observe(self, physical_address: int) -> Optional[int]:
        """Observe a demand load; return a prefetch address or ``None``.

        The prefetch is only triggered when the previous demand access
        touched the immediately preceding line, which keeps the model from
        flooding the hierarchy on random access patterns.
        """
        line = physical_address // LINE_SIZE
        previous, self._last_line = self._last_line, line
        if not self.enabled:
            return None
        if previous is not None and line == previous + 1:
            self.issued += 1
            return (line + 1) * LINE_SIZE
        return None

    def reset(self) -> None:
        """Forget the access history (e.g. after a context switch)."""
        self._last_line = None
