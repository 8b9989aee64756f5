"""Profiling timelines: per-task busy/idle over simulated time.

The end-of-run load-balance number (max/avg busy time) says *that*
work was imbalanced, not *when*. The :class:`TimelineRecorder`
captures every service interval the executor schedules — the same
cost-model charges that produce busy time — and renders them as
bucketed utilisation series, so a skewed partition shows up as one
task pinned at 100% while its siblings idle, over simulated time.

Recording is O(1) per tuple (intervals are emitted in start order per
task and merged on append), and everything derived — utilisation
series and the ASCII rendering — is computed on demand from the
merged intervals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

TaskKey = Tuple[str, int]

#: Utilisation glyphs, idle → saturated.
_GLYPHS = " .:-=*#"


class TimelineRecorder:
    """Busy intervals per (component, task), merged on the fly."""

    def __init__(self):
        self._intervals: Dict[TaskKey, List[List[float]]] = {}
        self.horizon = 0.0

    def record(self, component: str, task: int, start: float, end: float) -> None:
        """Add one service interval (``start <= end``, start order per task)."""
        if end < start:
            raise ValueError(f"interval ends before it starts: {start} > {end}")
        key = (component, task)
        intervals = self._intervals.setdefault(key, [])
        # Touching or overlapping intervals merge: back-to-back tuples
        # become one busy run.
        if intervals and start <= intervals[-1][1]:
            if end > intervals[-1][1]:
                intervals[-1][1] = end
        else:
            intervals.append([start, end])
        if end > self.horizon:
            self.horizon = end

    # -- reading ------------------------------------------------------------
    def tasks(self) -> List[TaskKey]:
        return sorted(self._intervals)

    def components(self) -> List[str]:
        return sorted({component for component, _ in self._intervals})

    def intervals(self, component: str, task: int) -> List[Tuple[float, float]]:
        return [tuple(i) for i in self._intervals.get((component, task), [])]

    def busy_seconds(self, component: str, task: int) -> float:
        return sum(e - s for s, e in self._intervals.get((component, task), []))

    def utilisation(
        self, component: str, task: int, buckets: int, horizon: Optional[float] = None
    ) -> List[float]:
        """Busy fraction of each of ``buckets`` equal time slices."""
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        horizon = self.horizon if horizon is None else horizon
        if horizon <= 0:
            return [0.0] * buckets
        width = horizon / buckets
        busy = [0.0] * buckets
        for start, end in self._intervals.get((component, task), []):
            first = min(buckets - 1, int(start / width))
            last = min(buckets - 1, int(end / width)) if end > start else first
            for b in range(first, last + 1):
                lo, hi = b * width, (b + 1) * width
                overlap = min(end, hi) - max(start, lo)
                if overlap > 0:
                    busy[b] += overlap
        return [min(1.0, value / width) for value in busy]

    def render(
        self,
        component: Optional[str] = None,
        width: int = 60,
        horizon: Optional[float] = None,
        normalise: bool = True,
        axis: str = "simulated",
    ) -> str:
        """ASCII utilisation chart, one row per task.

        Each cell is one time bucket; the glyph ramp ``' .:-=*#'``
        encodes idle → busiest. With ``normalise`` (default) shading is
        relative to the chart's peak cell, so imbalance stays visible
        even when the offered rate is far below saturation and every
        absolute utilisation is tiny; the legend states the peak.
        ``axis`` names the time axis in the chart header and legend —
        the default is the simulator's clock; wall-clock recorders
        (parallel workers, span waterfalls) pass ``"wall"``.
        """
        keys = [
            key
            for key in self.tasks()
            if component is None or key[0] == component
        ]
        if not keys:
            return "(no timeline data)"
        horizon = self.horizon if horizon is None else horizon
        rows = {
            key: self.utilisation(key[0], key[1], width, horizon) for key in keys
        }
        peak = max((u for cells in rows.values() for u in cells), default=0.0)
        scale = peak if (normalise and peak > 0) else 1.0
        label_width = max(len(f"{c}[{t}]") for c, t in keys)
        lines = [
            f"{'task'.ljust(label_width)}  |{f'{axis} time'.center(width)}| busy"
        ]
        for comp, task in keys:
            bar = "".join(
                _GLYPHS[min(len(_GLYPHS) - 1, int(u / scale * (len(_GLYPHS) - 1) + 0.5))]
                for u in rows[(comp, task)]
            )
            busy = self.busy_seconds(comp, task)
            label = f"{comp}[{task}]".ljust(label_width)
            lines.append(f"{label}  |{bar}| {busy:.4f}s")
        legend = f"0 .. {horizon:.4f}s {axis}"
        if normalise and peak > 0:
            legend += f", full shade = {peak:.1%} busy"
        lines.append(f"{'horizon'.ljust(label_width)}  {legend}")
        return "\n".join(lines)

    def as_dict(self, buckets: int = 60) -> Dict[str, object]:
        """JSON-serialisable digest (per-task utilisation series)."""
        return {
            "horizon": self.horizon,
            "buckets": buckets,
            "tasks": [
                {
                    "component": component,
                    "task": task,
                    "busy_seconds": self.busy_seconds(component, task),
                    "utilisation": [
                        round(u, 4)
                        for u in self.utilisation(component, task, buckets)
                    ],
                }
                for component, task in self.tasks()
            ],
        }
