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
report``'s persistent-store table reads back), and the
enumerator/searcher's ``changes.*``/``search.*``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

Number = Union[int, float]

#: Fixed histogram bucket boundaries (seconds-flavoured, Prometheus style).
#: Shared by every process so bucket counts merge exactly: a batch
#: worker's histogram snapshot and the parent's registry bucket
#: identically, and the
#: Prometheus exposition (:func:`repro.obs.export.render_prometheus`) is
#: stable across hosts.  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


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
#: ``sum``, ``min``, ``max``, and ``bucket_counts`` stay exact forever;
#: only quantile estimates become approximate past the cap.
SAMPLE_CAP = 2048


class Histogram:
    """A named sample distribution with bounded raw-sample retention.

    The scalar statistics — :attr:`count`, :attr:`total`, :attr:`mean`,
    :attr:`min`, :attr:`max` — and the fixed-boundary
    :meth:`bucket_counts` are maintained incrementally and stay **exact**
    no matter how many samples arrive, so a long-lived served process
    never grows without bound.  Raw samples are additionally retained
    (in arrival order) up to ``sample_cap``: below the cap, quantiles and
    the evaluation layer's CDF curves are exact, as before; past it they
    are computed from the first ``sample_cap`` observations — a bounded
    deterministic reservoir, documented as approximate.  First-K
    retention (rather than random sampling) keeps every operation
    reproducible and :meth:`merge` associative: concatenate-then-truncate
    groups the same way regardless of merge order.

    :data:`DEFAULT_BUCKETS` supplies the bucket boundaries every process
    shares, so :meth:`bucket_counts` (the Prometheus view) and
    :meth:`merge` agree no matter which side of a process boundary the
    samples were observed on.
    """

    __slots__ = (
        "name", "buckets", "sample_cap",
        "_samples", "_count", "_sum", "_min", "_max", "_raw_buckets",
    )

    def __init__(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        sample_cap: int = SAMPLE_CAP,
    ):
        self.name = name
        self.buckets: Tuple[float, ...] = (
            tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        )
        self.sample_cap = max(1, int(sample_cap))
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        #: Per-bucket (non-cumulative) counts, plus the implicit ``+Inf``.
        self._raw_buckets: List[int] = [0] * (len(self.buckets) + 1)

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
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self._raw_buckets[i] += 1
                break
        else:
            self._raw_buckets[-1] += 1
        if len(self._samples) < self.sample_cap:
            self._samples.append(v)

    @property
    def values(self) -> List[float]:
        """The retained raw samples (a copy; first ``sample_cap`` kept)."""
        return list(self._samples)

    @property
    def truncated(self) -> bool:
        """True once observations beyond ``sample_cap`` were dropped."""
        return self._count > len(self._samples)

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

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 1] (over the retained
        samples — approximate past ``sample_cap``)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, int(round(p * (len(ordered) - 1)))))
        return ordered[index]

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile, ``q`` in [0, 1].

        The estimator ``repro report`` prints (p50/p90/p99 columns): with
        no samples the answer is 0.0, with one sample it is that sample,
        otherwise the value is interpolated between the two order
        statistics bracketing rank ``q * (n - 1)``.  Computed over the
        retained samples, so approximate past ``sample_cap``.
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        q = min(1.0, max(0.0, q))
        rank = q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def bucket_counts(self) -> List[int]:
        """Cumulative sample counts per bucket boundary, plus ``+Inf``.

        ``len(result) == len(self.buckets) + 1``; the last entry equals
        :attr:`count` (the implicit ``+Inf`` bucket), matching Prometheus
        histogram semantics (``le`` is inclusive).  Exact at any volume —
        bucket tallies are maintained per observation, not derived from
        the capped raw samples.
        """
        counts: List[int] = []
        running = 0
        for raw in self._raw_buckets:
            running += raw
            counts.append(running)
        return counts

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's statistics and samples into this one.

        Associative: scalar sums/extremes and per-bucket tallies are
        order-insensitive, and the retained samples concatenate in merge
        order then truncate to the cap — ``((a+b)+c`` and ``a+(b+c)``
        retain the identical list — the determinism batch aggregation
        relies on.
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
        if len(other._raw_buckets) == len(self._raw_buckets):
            for i, raw in enumerate(other._raw_buckets):
                self._raw_buckets[i] += raw
        else:  # mismatched boundaries: re-bucket the retained samples
            for v in other._samples:
                for i, bound in enumerate(self.buckets):
                    if v <= bound:
                        self._raw_buckets[i] += 1
                        break
                else:
                    self._raw_buckets[-1] += 1
        room = self.sample_cap - len(self._samples)
        if room > 0:
            self._samples.extend(other._samples[:room])

    def merge_snapshot_data(self, data: Any) -> None:
        """Fold one histogram's :meth:`MetricsRegistry.snapshot` entry in.

        Accepts both wire shapes: the compact list of raw samples (the
        only shape emitted below the cap — and by older writers), and the
        dict carrying exact scalar/bucket state for truncated histograms.
        """
        if isinstance(data, dict):
            other = Histogram(self.name, self.buckets, sample_cap=self.sample_cap)
            other._count = int(data.get("count", 0))
            other._sum = float(data.get("sum", 0.0))
            other._min = float(data.get("min", 0.0))
            other._max = float(data.get("max", 0.0))
            other._samples = [float(v) for v in data.get("samples", [])]
            raw = data.get("raw_buckets")
            if raw is not None and len(raw) == len(other._raw_buckets):
                other._raw_buckets = [int(n) for n in raw]
            else:  # unknown boundaries: re-bucket what samples we have
                other._raw_buckets = [0] * (len(other.buckets) + 1)
                for v in other._samples:
                    for i, bound in enumerate(other.buckets):
                        if v <= bound:
                            other._raw_buckets[i] += 1
                            break
                    else:
                        other._raw_buckets[-1] += 1
            self.merge(other)
        else:
            for v in data:
                self.observe(float(v))

    def snapshot_data(self) -> Any:
        """This histogram's wire shape (see :meth:`merge_snapshot_data`)."""
        if not self.truncated:
            return list(self._samples)
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "raw_buckets": list(self._raw_buckets),
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

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's numbers into this one."""
        for name, counter in sorted(other._counters.items()):
            self.incr(name, counter.value)
        for name, hist in sorted(other._histograms.items()):
            self.histogram(name).merge(hist)

    # -- cross-process transport ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data copy of the whole registry.

        The wire format batch workers ship home in each
        :class:`~repro.core.seminal.BatchEntry` (and the ``metrics`` section of a :class:`~repro.obs.export.RunReport`):
        JSON- and pickle-friendly, no live objects.
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
            if data:
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

    def as_dict(self) -> Dict[str, Number]:
        return {}

    def render_table(self, title: str = "metrics") -> str:
        return f"{title}: (disabled)"

    def reset(self) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "histograms": {}}

    def merge_snapshot(self, snapshot) -> None:
        pass


#: Shared null instance — identity-comparable (``metrics is NULL_METRICS``).
NULL_METRICS = NullMetrics()
