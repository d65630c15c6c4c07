"""``repro.faults`` — deterministic fault injection for the search stack.

The resilience layer (:mod:`repro.core.resilience`, plus the oracle's crash
guard) promises that ``explain()`` degrades to best-effort suggestions under
*any* oracle failure.  This module is how we prove it: :class:`ChaosOracle`
wraps the real :class:`~repro.core.oracle.Oracle` and injects failures on a
deterministic, seeded schedule —

* **crashes** (``crash_every``): every Nth check raises (a plain
  :class:`ChaosCrash` or a simulated :class:`RecursionError`), exercising
  the oracle's crash-isolation guard;
* **latency** (``latency_every``/``latency_seconds``): every Nth check
  sleeps first, exercising wall-clock deadlines;
* **cache corruption** (``corrupt_cache_every``): every Nth check flips the
  verdict of a random (seeded) memo entry, exercising the search's
  tolerance of a lying oracle — outcomes may be wrong but must stay
  well-formed;
* **snapshot poisoning** (``poison_snapshot_after``): once armed, the
  prefix snapshot is wrapped so any use of it explodes, exercising the
  self-healing incremental fallback (``oracle.prefix.fallbacks``);
* **stale declaration tables** (``stale_decl_table``): every Nth check
  marks the armed outcome table stale, so replays must degrade to real
  checks;
* **flaky store I/O** (a :class:`FlakyStore` passed as ``store=``):
  ``OSError`` from the verdict store's segment read/write seams on a
  deterministic schedule, exercising the ``repro.core.retry`` policy and
  the degrade-to-cache-miss path.

Schedules key off the oracle's own call counter, so a given
``(plan, program)`` pair replays identically — chaos tests are ordinary
deterministic tests.  The injected ``sleep`` is swappable for tests that
must not actually block.

Inspired by fault-injection harnesses around solver-backed tools: the SMT
localizers bound solver effort per query and treat timeouts as ordinary
answers; we hold our oracle to the same standard and test it by firing
every failure mode on every corpus program (see ``tests/faults``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

from repro.core.oracle import Oracle
from repro.store.verdicts import VerdictStore


class ChaosCrash(RuntimeError):
    """An injected oracle crash (the generic fault)."""


class SnapshotPoisoned(RuntimeError):
    """An injected failure from using a poisoned prefix snapshot."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic schedule of injected failures.

    All knobs default to "off"; the empty plan makes :class:`ChaosOracle`
    a transparent wrapper (the equivalence tests rely on that).  ``seed``
    feeds the RNG used only where a schedule needs a choice (which cache
    entry to corrupt), keeping every run replayable.
    """

    name: str = "chaos"
    #: Raise on every Nth oracle check (1 = every check).
    crash_every: Optional[int] = None
    #: Flavour of injected crashes: "runtime" or "recursion", both raised
    #: through the crash-isolation guard.
    crash_kind: str = "runtime"
    #: Sleep before every Nth check.
    latency_every: Optional[int] = None
    latency_seconds: float = 0.0
    #: Flip the verdict of one random memo entry every Nth check
    #: (requires the oracle cache to be enabled to have any effect).
    corrupt_cache_every: Optional[int] = None
    #: Poison the armed prefix snapshot from the Nth check onward.
    poison_snapshot_after: Optional[int] = None
    #: Mark the armed declaration outcome table stale on every Nth check:
    #: every replay-time fingerprint verification must then refuse,
    #: degrading replays to real checks — correct answers, never wrong.
    stale_decl_table: Optional[int] = None
    seed: int = 0

    @property
    def active(self) -> bool:
        return any(
            getattr(self, f.name) for f in fields(self)
            if f.name not in ("name", "crash_kind", "seed", "latency_seconds")
        )

    def crash_exception(self) -> BaseException:
        if self.crash_kind == "recursion":
            return RecursionError(f"[{self.name}] injected deep-recursion crash")
        return ChaosCrash(f"[{self.name}] injected oracle crash")


def standard_fault_plans() -> Dict[str, FaultPlan]:
    """The named plans the chaos suite (and CI smoke) runs every program
    through.  Latencies are kept tiny: the point is schedule coverage,
    not real waiting."""
    return {
        "crash-every-3": FaultPlan(name="crash-every-3", crash_every=3),
        "crash-every-1": FaultPlan(name="crash-every-1", crash_every=1),
        "recursion-crash": FaultPlan(
            name="recursion-crash", crash_every=4, crash_kind="recursion"
        ),
        "latency": FaultPlan(
            name="latency", latency_every=2, latency_seconds=0.0002
        ),
        "cache-corruption": FaultPlan(
            name="cache-corruption", corrupt_cache_every=2, seed=1234
        ),
        "snapshot-poison": FaultPlan(
            name="snapshot-poison", poison_snapshot_after=1
        ),
        "stale-decl-table": FaultPlan(
            name="stale-decl-table", stale_decl_table=1
        ),
    }


#: Template for :attr:`ChaosOracle.injected` (one key per fault family).
_INJECTED_ZERO: Dict[str, int] = {
    "crash": 0, "latency": 0, "cache": 0, "snapshot": 0, "stale": 0,
}


class _PoisonedSnapshot:
    """Wraps a real snapshot: still *matches* candidates (so the oracle
    takes the incremental path) but explodes the moment inference touches
    any of its state — exactly the shape of a corrupted-snapshot bug."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    def matches(self, program) -> bool:
        return object.__getattribute__(self, "_inner").matches(program)

    def __getattr__(self, name):
        raise SnapshotPoisoned(f"poisoned snapshot attribute access: {name!r}")


class ChaosOracle(Oracle):
    """An :class:`Oracle` that injects failures per a :class:`FaultPlan`.

    Construct it with the same keyword arguments as :class:`Oracle`
    (budget, cache, metrics, ...) plus the plan; pass it to
    ``explain(..., oracle=...)``.  Injected-fault counts are exposed in
    :attr:`injected` (reset per search, like the oracle's own counters).
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sleep: Callable[[float], None] = time.sleep,
        **oracle_kwargs,
    ):
        super().__init__(**oracle_kwargs)
        self.plan = plan
        self._sleep = sleep
        self._rng = random.Random(plan.seed)
        self.injected: Dict[str, int] = dict(_INJECTED_ZERO)

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.plan.seed)
        self.injected = dict(_INJECTED_ZERO)

    def _check_once(self, program):
        # ``check`` has already incremented ``calls``, so the schedule
        # counter n is 1-based: "every Nth" fires on calls N, 2N, ...
        n = self.calls
        plan = self.plan
        if plan.latency_every and n % plan.latency_every == 0:
            self.injected["latency"] += 1
            self._sleep(plan.latency_seconds)
        if (
            plan.poison_snapshot_after is not None
            and n >= plan.poison_snapshot_after
            and self._snapshot is not None
            and not isinstance(self._snapshot, _PoisonedSnapshot)
        ):
            self.injected["snapshot"] += 1
            self._snapshot = _PoisonedSnapshot(self._snapshot)
        if (
            plan.stale_decl_table
            and n % plan.stale_decl_table == 0
            and self._decl_table is not None
        ):
            # A stale table must *degrade* — every replay refuses its
            # fingerprint verification and re-checks for real — never
            # serve a wrong answer.
            self.injected["stale"] += 1
            self._decl_table.stale = True
        if plan.crash_every and n % plan.crash_every == 0:
            self.injected["crash"] += 1
            raise plan.crash_exception()
        result = super()._check_once(program)
        if (
            plan.corrupt_cache_every
            and self._cache
            and n % plan.corrupt_cache_every == 0
        ):
            self._corrupt_cache_entry()
        return result

    def _corrupt_cache_entry(self) -> None:
        """Flip the verdict of one seeded-random memo entry in place.

        The corrupted entry is a structurally valid ``CheckResult`` with
        the opposite ``ok`` — the worst *silent* cache failure: the oracle
        confidently serves a wrong answer.  The search must still return a
        well-formed (if wrong) outcome.
        """
        from repro.miniml.infer import CheckResult

        key = self._rng.choice(list(self._cache))
        old = self._cache[key]
        self.injected["cache"] += 1
        self._cache[key] = CheckResult(ok=not old.ok)


class FlakyStore(VerdictStore):
    """A :class:`~repro.store.VerdictStore` whose segment I/O fails on a
    deterministic schedule.

    Every ``fail_every``-th segment I/O attempt raises ``OSError``, and
    each failure repeats for ``fail_streak - 1`` further attempts: a
    streak of 1 is a transient blip a single retry absorbs; a streak at
    or past the retry policy's attempt budget exhausts the retry and
    exercises the degrade path (read → segment skipped, write → verdicts
    recomputed by the next process).  The schedule counts attempts
    (retries included), so a given (schedule, workload, policy) triple
    replays identically.
    """

    def __init__(
        self,
        path,
        *,
        fail_every: int = 3,
        fail_streak: int = 1,
        fail_reads: bool = True,
        fail_writes: bool = True,
        **store_kwargs,
    ):
        # Fault state must exist before super().__init__, which calls
        # _load() straight into the overridden read seam.
        self._fail_every = max(1, int(fail_every))
        self._fail_streak = max(1, int(fail_streak))
        self._fail_reads = fail_reads
        self._fail_writes = fail_writes
        self._io_ops = 0
        self._streak_left = 0
        self.injected_io_failures = 0
        super().__init__(path, **store_kwargs)

    def _maybe_fail(self, op: str) -> None:
        if op == "read" and not self._fail_reads:
            return
        if op == "write" and not self._fail_writes:
            return
        if self._streak_left:
            self._streak_left -= 1
            self.injected_io_failures += 1
            raise OSError(f"[flaky-store] injected {op} failure (streak)")
        self._io_ops += 1
        if self._io_ops % self._fail_every == 0:
            self._streak_left = self._fail_streak - 1
            self.injected_io_failures += 1
            raise OSError(f"[flaky-store] injected {op} failure #{self._io_ops}")

    def _read_segment_text(self, segment):
        self._maybe_fail("read")
        return super()._read_segment_text(segment)

    def _write_segment_file(self, tmp, final, body):
        self._maybe_fail("write")
        super()._write_segment_file(tmp, final, body)
