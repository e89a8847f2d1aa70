"""Labeled metric instruments and the registry that owns them.

Production bare-metal managers (Ironic, MAAS) treat provisioning
telemetry as a first-class subsystem; so does this reproduction.  A
:class:`MetricsRegistry` hands out *instruments* — counters, gauges,
log-bucketed histograms, and time series — keyed on ``(name, labels)``,
so two call sites asking for the same metric share one instrument.

Everything here is purely observational: instruments never touch the
simulation clock or event queue, so enabling telemetry cannot perturb a
deployment timeline.  When telemetry is disabled, :data:`NULL_REGISTRY`
hands out shared no-op instruments and the hot paths pay one attribute
call per event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class Counter:
    """Monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self):
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """Last-written value with min/max tracking (queue depth, progress)."""

    __slots__ = ("name", "help", "labels", "unit", "value", "min", "max")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = (), help: str = "",
                 unit: str = ""):
        self.name = name
        self.help = help
        self.labels = labels
        self.unit = unit
        self.value = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def set(self, value: float) -> None:
        self.value = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def __repr__(self):
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """Log-bucketed latency/size distribution with percentile summaries.

    Buckets grow geometrically from ``min_bound`` by ``growth`` per
    bucket, so six decades of latency (microseconds to minutes) fit in a
    few dozen integer counters.  Percentiles are answered from the
    bucket boundaries (upper bound of the covering bucket, clamped to
    the observed min/max), which is the usual Prometheus-style
    approximation: within one ``growth`` factor of exact.
    """

    __slots__ = ("name", "help", "labels", "unit", "min_bound", "growth",
                 "_log_growth", "buckets", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (), help: str = "",
                 unit: str = "seconds", min_bound: float = 1e-6,
                 growth: float = 2.0):
        if min_bound <= 0:
            raise ValueError("min_bound must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self.help = help
        self.labels = labels
        self.unit = unit
        self.min_bound = min_bound
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets: dict[int, int] = {}  # index -> count
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        if value <= self.min_bound:
            return 0
        # Bucket i covers (min_bound * growth**(i-1), min_bound * growth**i].
        return max(0, math.ceil(
            math.log(value / self.min_bound) / self._log_growth - 1e-9))

    def bucket_upper_bound(self, index: int) -> float:
        return self.min_bound * self.growth ** index

    def bucket_bounds(self) -> list:
        """Sorted ``(upper_bound, count)`` pairs for populated buckets."""
        return [(self.bucket_upper_bound(index), self.buckets[index])
                for index in sorted(self.buckets)]

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.sum / self.count

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-quantile (``q`` in [0, 1]).

        An empty histogram answers 0.0 for every quantile — exporters
        and reports run before any observation lands (a deploy that
        never retransmits, say) and must not have to special-case it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                bound = self.bucket_upper_bound(index)
                return min(max(bound, self.min), self.max)
        return self.max

    def summary(self) -> dict:
        """The p50/p95/p99 bundle the reports print.

        Always the full key set: an empty histogram reports zeros
        rather than a truncated dict, so JSON consumers can index
        ``summary()["p99"]`` unconditionally.
        """
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self):
        return f"<Histogram {self.name}{dict(self.labels)} " \
               f"n={self.count}>"


@dataclass
class TimeSeries:
    """Samples of one metric over simulated time."""

    name: str
    unit: str = ""
    samples: list = field(default_factory=list)  # (time, value)

    def record(self, time: float, value: float) -> None:
        self.samples.append((time, value))

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> list:
        return [value for _, value in self.samples]

    def mean(self) -> float:
        values = self.values()
        if not values:
            raise ValueError(f"no samples in series {self.name!r}")
        return sum(values) / len(values)

    def time_weighted_mean(self, until: float | None = None) -> float:
        """Mean weighted by how long each sample was in effect.

        Each sample's value is held from its timestamp until the next
        sample (or ``until``, defaulting to the last timestamp), so a
        burst of rapid samples no longer dominates long steady
        stretches the way the arithmetic :meth:`mean` lets it.
        """
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        if len(self.samples) == 1:
            return self.samples[0][1]
        end = self.samples[-1][0] if until is None else until
        weighted = 0.0
        total = 0.0
        for (time, value), (next_time, _) in zip(self.samples,
                                                 self.samples[1:]):
            span = next_time - time
            weighted += value * span
            total += span
        tail = end - self.samples[-1][0]
        if tail > 0:
            weighted += self.samples[-1][1] * tail
            total += tail
        if total <= 0:
            # All samples share one timestamp: fall back to the mean.
            return self.mean()
        return weighted / total

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]), linearly interpolated."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        values = sorted(self.values())
        if not values:
            raise ValueError(f"no samples in series {self.name!r}")
        if len(values) == 1:
            return values[0]
        position = q * (len(values) - 1)
        low = int(position)
        high = min(low + 1, len(values) - 1)
        fraction = position - low
        return values[low] + (values[high] - values[low]) * fraction

    def min(self) -> float:
        return min(self.values())

    def max(self) -> float:
        return max(self.values())

    def mean_between(self, start: float, end: float) -> float:
        window = [value for time, value in self.samples
                  if start <= time < end]
        if not window:
            raise ValueError(
                f"no samples in [{start}, {end}) of {self.name!r}")
        return sum(window) / len(window)


class Series:
    """A labeled :class:`TimeSeries` registered like any instrument."""

    __slots__ = ("name", "help", "labels", "series")

    kind = "series"

    def __init__(self, name: str, labels: tuple = (), help: str = "",
                 unit: str = ""):
        self.name = name
        self.help = help
        self.labels = labels
        self.series = TimeSeries(name, unit=unit)

    @property
    def unit(self) -> str:
        return self.series.unit

    def record(self, time: float, value: float) -> None:
        self.series.record(time, value)

    def __len__(self) -> int:
        return len(self.series)


class MetricsRegistry:
    """Owns every instrument; the exporters walk it."""

    enabled = True

    _KINDS = {"counter": Counter, "gauge": Gauge,
              "histogram": Histogram, "series": Series}

    def __init__(self):
        self._instruments: dict[tuple, object] = {}

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels=key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, labels, help=help)

    def gauge(self, name: str, help: str = "", unit: str = "",
              **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help=help,
                                   unit=unit)

    def histogram(self, name: str, help: str = "", unit: str = "seconds",
                  min_bound: float = 1e-6, growth: float = 2.0,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help=help,
                                   unit=unit, min_bound=min_bound,
                                   growth=growth)

    def series(self, name: str, help: str = "", unit: str = "",
               **labels) -> Series:
        return self._get_or_create(Series, name, labels, help=help,
                                   unit=unit)

    def collect(self, kind: str | None = None) -> list:
        """Every instrument (optionally of one kind), in name order."""
        instruments = sorted(self._instruments.items())
        return [instrument for (_, _), instrument in instruments
                if kind is None or instrument.kind == kind]

    def get(self, name: str, **labels):
        """Look up one instrument, or ``None``."""
        return self._instruments.get(
            (name, tuple(sorted(labels.items()))))

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Shared do-nothing instrument; safe to hand to every call site."""

    __slots__ = ()

    name = "null"
    help = ""
    labels: tuple = ()
    unit = ""
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0
    min = None
    max = None

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, time: float, value: float) -> None:
        pass

    def __len__(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: every request returns the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", unit: str = "", **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", unit: str = "seconds",
                  min_bound: float = 1e-6, growth: float = 2.0,
                  **labels):
        return _NULL_INSTRUMENT

    def series(self, name: str, help: str = "", unit: str = "", **labels):
        return _NULL_INSTRUMENT

    def collect(self, kind: str | None = None) -> list:
        return []

    def get(self, name: str, **labels):
        return None

    def __len__(self) -> int:
        return 0


#: Shared disabled registry.
NULL_REGISTRY = NullRegistry()
