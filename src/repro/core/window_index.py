"""The surface the IBWJ driver (``repro.join.ibwj.run_ibwj``) calls on a
sliding-window index (paper §2: probe, retire, insert over any index).

``pos`` is the per-stream arrival position; ``min_pos`` is the oldest
position still inside the window, so probes drop older elements.
"""
from __future__ import annotations

import time


class WindowIndex:
    """Default no-op retire/maintain and an unsplit timed probe.

    Subclasses implement ``insert(key, pos)`` and
    ``probe(lo, hi, min_pos) -> [(key, pos)]``, and override the rest
    where the structure has that step.
    """

    def retire(self, key: int, pos: int) -> None:
        """Remove the tuple that just left the window. No-op for
        structures that filter expired elements by ``min_pos``."""

    def maintain(self, min_pos: int) -> bool:
        """Periodic maintenance after every insert; True when it ran a
        merge (only merges count toward the merge step's cost)."""
        return False

    def probe_split(
        self, lo: int, hi: int, min_pos: int
    ) -> tuple[list[tuple[int, int]], float, float]:
        """(matches, search_s, scan_s) for per-step cost accounting. By
        default the whole probe counts as search."""
        t0 = time.perf_counter()
        out = self.probe(lo, hi, min_pos)
        return out, time.perf_counter() - t0, 0.0
