"""The metrics registry: named, labeled counters, gauges and histograms.

One :class:`ObsRegistry` holds every metric of one run. A metric is
identified by a *name* (``task_busy_seconds``) and a *label set*
(``component="join", task="3"``); the registry also carries constant
labels (``method="LEN"``, ``corpus="TWEET"``) stamped onto every
series, so dumps from different runs can be merged and still told
apart.

Three metric kinds cover everything the experiments need:

* :class:`Counter` — monotonically increasing totals (messages,
  candidates, verifications);
* :class:`Gauge` — point-in-time values written by the reporter
  (busy seconds, load balance, makespan);
* :class:`Histogram` — sampled distributions with exact quantiles
  over a bounded reservoir (end-to-end latency).

Everything is deterministic: iteration orders are insertion orders,
and :class:`Histogram` is the one latency reservoir — the simulator's
end-to-end latency and every record-trace stage digest reduce through
it at :data:`LATENCY_CAPACITY`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: Reservoir size of every latency histogram: quantiles are exact up
#: to this many observations.
LATENCY_CAPACITY = 20000


def _label_key(labels: Mapping[str, str]) -> LabelSet:
    """Canonical (sorted) form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def reset_to(self, total: float) -> None:
        """Idempotent sync from an externally accumulated total."""
        self.value = float(total)


class Gauge:
    """A value that can be set to anything at any time."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A sampled distribution with count/sum/min/max and quantiles.

    Backed by a bounded reservoir with deterministic systematic
    thinning (keep every *k*-th observation once full), so quantiles
    are exact for small runs and stable approximations for large ones.
    """

    __slots__ = ("capacity", "count", "sum", "min", "max", "_samples", "_stride")

    def __init__(self, capacity: int = LATENCY_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.count % self._stride:
            return
        self._samples.append(value)
        if len(self._samples) >= self.capacity:
            self._samples = self._samples[::2]
            self._stride *= 2

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The exported digest of this distribution."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricFamily:
    """All series of one metric name, keyed by label set."""

    def __init__(self, name: str, kind: str, help: str = ""):
        self.name = name
        self.kind = kind
        self.help = help
        self._series: Dict[LabelSet, object] = {}

    def labels(self, label_key: LabelSet):
        series = self._series.get(label_key)
        if series is None:
            if self.kind == "counter":
                series = Counter()
            elif self.kind == "gauge":
                series = Gauge()
            else:
                series = Histogram()
            self._series[label_key] = series
        return series

    def items(self) -> Iterator[Tuple[LabelSet, object]]:
        """Series in deterministic (sorted label) order."""
        return iter(sorted(self._series.items()))

    def __len__(self) -> int:
        return len(self._series)


class ObsRegistry:
    """Every metric of one run, plus constant labels stamped on all.

    >>> reg = ObsRegistry(method="LEN")
    >>> reg.counter("candidates", component="join", task=0).inc(5)
    >>> reg.value("candidates", component="join", task=0)
    5.0
    """

    def __init__(self, **const_labels: str):
        self.const_labels = {k: str(v) for k, v in const_labels.items()}
        self._families: Dict[str, MetricFamily] = {}

    # -- publishing ---------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._metric(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._metric(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", **labels: object) -> Histogram:
        return self._metric(name, "histogram", help, labels)

    def _metric(
        self, name: str, kind: str, help: str, labels: Mapping[str, object]
    ):
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        merged = dict(self.const_labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return family.labels(_label_key(merged))

    # -- reading ------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        """Families in name order (deterministic exports)."""
        return [self._families[name] for name in sorted(self._families)]

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def value(self, name: str, **labels: object) -> float:
        """The value of one counter/gauge series (0.0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        merged = dict(self.const_labels)
        merged.update({k: str(v) for k, v in labels.items()})
        series = family._series.get(_label_key(merged))
        if series is None:
            return 0.0
        return series.value  # type: ignore[union-attr]

    def series(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """All (labels, metric) pairs of one family, label-sorted."""
        family = self._families.get(name)
        if family is None:
            return []
        return [(dict(key), metric) for key, metric in family.items()]
