"""The metrics registry: named counters and histograms for the pipeline.

The paper's efficiency story (Section 3.2, Figures 5-7) is told in *counts*
— oracle calls, changes tested, triage rounds — and *distributions* — per
-file run times.  :class:`MetricsRegistry` is the one place those numbers
accumulate: any component holding a registry can ``incr`` a counter or
``observe`` a histogram sample by name, and the registry renders the whole
collection as a flat dict (machine use) or an aligned text table (CLI
``--metrics``).

Zero dependencies, and a :data:`NULL_METRICS` null object so instrumented
code never branches on "is telemetry on?": the default registry accepts
every call and records nothing.

Counter names are dotted families, minted where the count happens: the
oracle's ``oracle.*`` (calls, prefix reuse, ``oracle.store.*`` for the
verdict store's hits, writes and failed segment I/O, which ``repro
report``'s persistent-store table reads back), the enumerator's
``enum.generated.*``/``enum.tested.*``/``enum.success.*`` (one per rule)
and the searcher's ``search.*``.  Histograms hold samples: the tracer's
``span.<name>.seconds`` durations (summed per span by
:meth:`MetricsRegistry.span_seconds` for the event log's closing
``metrics`` event) and ``triage.depth``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

Number = Union[int, float]

class Counter:
    """A monotonically growing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


#: How many raw samples a histogram retains (oldest kept).  ``count``,
#: ``sum``, ``min`` and ``max`` stay exact forever; only the raw samples
#: (the evaluation layer's Fig. 7 curves) are capped.
SAMPLE_CAP = 2048


class Histogram:
    """A named sample distribution with bounded raw-sample retention.

    The scalar statistics — :attr:`count`, :attr:`total`, :attr:`mean`,
    :attr:`min`, :attr:`max` — are maintained incrementally and stay
    **exact** no matter how many samples arrive.  Raw samples are retained
    in arrival order up to :data:`SAMPLE_CAP`: below the cap the
    evaluation layer's CDF curves are exact; past it they come from the
    first :data:`SAMPLE_CAP` observations.  First-K retention (rather than
    random sampling) keeps every operation reproducible and :meth:`merge`
    associative: concatenate-then-truncate groups the same way regardless
    of merge order.
    """

    __slots__ = ("name", "_samples", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: Number) -> None:
        v = float(value)
        if self._count == 0:
            self._min = self._max = v
        else:
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v
        self._count += 1
        self._sum += v
        if len(self._samples) < SAMPLE_CAP:
            self._samples.append(v)

    @property
    def values(self) -> List[float]:
        """The retained raw samples (a copy; the first :data:`SAMPLE_CAP`)."""
        return list(self._samples)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's statistics and samples into this one.

        Associative: scalar sums and extremes are order-insensitive, and
        the retained samples concatenate in merge order then truncate to
        the cap — ``((a+b)+c`` and ``a+(b+c)`` retain the identical list
        — the determinism batch aggregation relies on.
        """
        if other._count == 0:
            return
        if self._count == 0:
            self._min, self._max = other._min, other._max
        else:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        self._count += other._count
        self._sum += other._sum
        room = SAMPLE_CAP - len(self._samples)
        if room > 0:
            self._samples.extend(other._samples[:room])

    def merge_snapshot_data(self, data: Dict[str, Any]) -> None:
        """Fold one histogram's :meth:`MetricsRegistry.snapshot` entry in."""
        other = Histogram(self.name)
        other._count = int(data["count"])
        other._sum = float(data["sum"])
        other._min = float(data["min"])
        other._max = float(data["max"])
        other._samples = [float(v) for v in data["samples"]]
        self.merge(other)

    def snapshot_data(self) -> Dict[str, Any]:
        """This histogram's wire shape (see :meth:`merge_snapshot_data`)."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "samples": list(self._samples),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named counters and histograms, created on first touch.

    >>> reg = MetricsRegistry()
    >>> reg.incr("oracle.calls")
    >>> reg.incr("oracle.calls", 2)
    >>> reg.value("oracle.calls")
    3
    >>> reg.observe("search.seconds", 0.25)
    >>> reg.as_dict()["search.seconds.count"]
    1
    """

    #: Instrumented code may consult this to skip expensive label building.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    def incr(self, name: str, n: int = 1) -> None:
        self.counter(name).incr(n)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    # -- reading ---------------------------------------------------------

    def value(self, name: str) -> int:
        """Current count for ``name`` (0 if never incremented)."""
        found = self._counters.get(name)
        return found.value if found is not None else 0

    def values_of(self, name: str) -> List[float]:
        """Raw observations for histogram ``name`` (empty if absent)."""
        found = self._histograms.get(name)
        return list(found.values) if found is not None else []

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """All counter values, optionally filtered by name prefix."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histogram_names(self, prefix: str = "") -> List[str]:
        """Names of all histograms, optionally filtered by prefix."""
        return [name for name in sorted(self._histograms) if name.startswith(prefix)]

    def span_seconds(self) -> Dict[str, float]:
        """Total seconds per tracer span, from the ``span.<name>.seconds``
        histograms a :class:`~repro.obs.Tracer` feeds (empty without one)."""
        return {
            name[len("span."):-len(".seconds")]: hist.total
            for name, hist in sorted(self._histograms.items())
            if name.startswith("span.") and name.endswith(".seconds")
        }

    def as_dict(self) -> Dict[str, Number]:
        """Flatten everything to one ``name -> number`` dict.

        Histograms contribute ``<name>.count/.total/.mean/.min/.max``.
        """
        out: Dict[str, Number] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
        for name, hist in sorted(self._histograms.items()):
            out[f"{name}.count"] = hist.count
            out[f"{name}.total"] = hist.total
            out[f"{name}.mean"] = hist.mean
            out[f"{name}.min"] = hist.min
            out[f"{name}.max"] = hist.max
        return out

    def render_table(self, title: str = "metrics") -> str:
        """Aligned two-column text table of :meth:`as_dict`."""
        flat = self.as_dict()
        if not flat:
            return f"{title}: (empty)"
        width = max(len(name) for name in flat)
        lines = [f"{title}:"]
        for name, value in flat.items():
            shown = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else str(value)
            lines.append(f"  {name.ljust(width)}  {shown}")
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()

    # -- cross-process transport ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data copy of the whole registry.

        The wire format batch workers ship home in each
        :class:`~repro.core.seminal.BatchEntry`: JSON- and pickle-friendly,
        no live objects.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.snapshot_data() for n, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict into this registry, in name order."""
        for name in sorted(snapshot.get("counters", ())):
            value = snapshot["counters"][name]
            if value:
                self.incr(name, value)
        for name in sorted(snapshot.get("histograms", ())):
            data = snapshot["histograms"][name]
            if data["count"]:
                self.histogram(name).merge_snapshot_data(data)


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0

    def incr(self, n: int = 1) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class NullMetrics:
    """The do-nothing registry instrumented code holds by default.

    Every method is a no-op; :attr:`enabled` lets hot paths skip building
    expensive metric labels altogether.
    """

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def histogram(self, name: str) -> _NullCounter:  # same no-op shape
        return _NULL_COUNTER

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def value(self, name: str) -> int:
        return 0

    def values_of(self, name: str) -> List[float]:
        return []

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {}

    def histogram_names(self, prefix: str = "") -> List[str]:
        return []

    def span_seconds(self) -> Dict[str, float]:
        return {}

    def as_dict(self) -> Dict[str, Number]:
        return {}

    def render_table(self, title: str = "metrics") -> str:
        return f"{title}: (disabled)"

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "histograms": {}}

    def merge_snapshot(self, snapshot) -> None:
        pass


#: Shared null instance — identity-comparable (``metrics is NULL_METRICS``).
NULL_METRICS = NullMetrics()
