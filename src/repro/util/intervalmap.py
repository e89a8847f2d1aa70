"""A sorted interval map for sparse block-device contents.

Disk and image contents are modelled symbolically: each sector carries a
*token* identifying what was last written there (an image chunk id, a guest
write id, ...).  Tokens are stored as maximal runs ``(start, end, value)``
so a 32-GB image is a handful of entries, not 64 million.

Used for: the OS image on the server, the local disk's contents, DMA
buffer payloads, and the consistency verification at the end of
deployment.
"""

from __future__ import annotations

from bisect import bisect_right


class IntervalMap:
    """Maps non-negative integer keys to values, stored as runs.

    ``set_range(start, length, value)`` overwrites; ``get(key)`` returns
    the value or ``None``; iteration yields maximal ``(start, end, value)``
    runs in order (``end`` exclusive).
    """

    def __init__(self):
        # Parallel arrays of run starts/ends/values, sorted by start,
        # non-overlapping.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._values: list = []

    def __len__(self) -> int:
        """Number of runs (not keys)."""
        return len(self._starts)

    def __iter__(self):
        return iter(self.runs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalMap):
            return NotImplemented
        return self.runs() == other.runs()

    def __repr__(self):
        preview = ", ".join(
            f"[{s},{e})={v!r}" for s, e, v in self.runs()[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"<IntervalMap {preview}{suffix}>"

    # -- mutation ---------------------------------------------------------

    def set_range(self, start: int, length: int, value) -> None:
        """Set ``[start, start+length)`` to ``value`` (overwrites)."""
        if length <= 0:
            raise ValueError("length must be positive")
        if start < 0:
            raise ValueError("start must be non-negative")
        end = start + length
        self.clear_range(start, length)
        index = bisect_right(self._starts, start)
        self._starts.insert(index, start)
        self._ends.insert(index, end)
        self._values.insert(index, value)
        self._merge_around(index)

    def clear_range(self, start: int, length: int) -> None:
        """Remove any values in ``[start, start+length)``."""
        if length <= 0:
            raise ValueError("length must be positive")
        end = start + length
        starts = self._starts
        # Find first run that could overlap.
        index = bisect_right(starts, start) - 1
        if index < 0:
            index = 0
        new_starts: list[int] = []
        new_ends: list[int] = []
        new_values: list = []
        stop = len(starts)
        while index < stop:
            run_start = starts[index]
            run_end = self._ends[index]
            if run_start >= end:
                break
            if run_end <= start:
                index += 1
                continue
            value = self._values[index]
            # Remove this run; keep non-overlapping pieces.
            del starts[index]
            del self._ends[index]
            del self._values[index]
            stop -= 1
            if run_start < start:
                new_starts.append(run_start)
                new_ends.append(start)
                new_values.append(value)
            if run_end > end:
                new_starts.append(end)
                new_ends.append(run_end)
                new_values.append(value)
        for run_start, run_end, value in zip(new_starts, new_ends,
                                             new_values):
            insert_at = bisect_right(self._starts, run_start)
            self._starts.insert(insert_at, run_start)
            self._ends.insert(insert_at, run_end)
            self._values.insert(insert_at, value)

    def _merge_around(self, index: int) -> None:
        """Coalesce the run at ``index`` with equal-valued neighbours."""
        # Merge with previous.
        if (index > 0
                and self._ends[index - 1] == self._starts[index]
                and self._values[index - 1] == self._values[index]):
            self._ends[index - 1] = self._ends[index]
            del self._starts[index]
            del self._ends[index]
            del self._values[index]
            index -= 1
        # Merge with next.
        if (index + 1 < len(self._starts)
                and self._ends[index] == self._starts[index + 1]
                and self._values[index] == self._values[index + 1]):
            self._ends[index] = self._ends[index + 1]
            del self._starts[index + 1]
            del self._ends[index + 1]
            del self._values[index + 1]

    # -- queries -----------------------------------------------------------

    def get(self, key: int):
        """Value at ``key``, or ``None`` if unset."""
        index = bisect_right(self._starts, key) - 1
        if index >= 0 and self._starts[index] <= key < self._ends[index]:
            return self._values[index]
        return None

    def runs(self) -> list[tuple[int, int, object]]:
        """All runs as ``(start, end, value)``, ``end`` exclusive."""
        return list(zip(self._starts, self._ends, self._values))

    def runs_in(self, start: int, length: int) -> list:
        """Runs overlapping ``[start, start+length)``, clipped to it.

        A new list of ``(start, end, value)`` including synthetic
        ``value=None`` gap runs, so the output tiles the whole query
        range (a list: the copy path asks for about fifteen per block).
        """
        if length <= 0:
            raise ValueError("length must be positive")
        end = start + length
        starts = self._starts
        index = bisect_right(starts, start) - 1
        if index < 0:
            index = 0
        ends = self._ends
        values = self._values
        stop = len(starts)
        if index < stop and ends[index] <= start:
            index += 1
        # The common answers: one run covers the range, or none does.
        if index >= stop or starts[index] >= end:
            return [(start, end, None)]
        if starts[index] <= start and ends[index] >= end:
            return [(start, end, values[index])]
        tiles = []
        cursor = start
        while cursor < end:
            if index >= stop:
                tiles.append((cursor, end, None))
                break
            run_start = starts[index]
            run_end = ends[index]
            if run_end <= cursor:
                index += 1
                continue
            if run_start >= end:
                tiles.append((cursor, end, None))
                break
            if run_start > cursor:
                tiles.append((cursor, run_start, None))
                cursor = run_start
            clipped_end = run_end if run_end < end else end
            tiles.append((cursor, clipped_end, values[index]))
            cursor = clipped_end
            index += 1
        return tiles

    def covered_length(self, start: int, length: int) -> int:
        """How many keys in ``[start, start+length)`` have a value."""
        return sum(run_end - run_start
                   for run_start, run_end, value
                   in self.runs_in(start, length)
                   if value is not None)

    def is_fully_covered(self, start: int, length: int) -> bool:
        return self.covered_length(start, length) == length

    def first_gap(self, start: int, end: int) -> tuple[int, int] | None:
        """The first uncovered ``(gap_start, gap_end)`` in ``[start, end)``."""
        for run_start, run_end, value in self.runs_in(start, end - start):
            if value is None:
                return (run_start, run_end)
        return None

    def total_covered(self) -> int:
        """Total number of keys with a value."""
        return sum(end - start for start, end, _ in self.runs())
