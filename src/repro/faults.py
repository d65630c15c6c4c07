"""``repro.faults`` — deterministic fault injection for the search stack.

The resilience layer (:mod:`repro.core.resilience`, plus the oracle's crash
guard) promises that ``explain()`` degrades to best-effort suggestions under
*any* oracle failure.  This module is how we prove it: :class:`ChaosOracle`
wraps the real :class:`~repro.core.oracle.Oracle` and injects failures on a
deterministic schedule —

* **crashes** (``crash_every``): every Nth check raises (a plain
  :class:`ChaosCrash` or a simulated :class:`RecursionError`), exercising
  the oracle's crash-isolation guard;
* **latency** (``latency_every``/``latency_seconds``): every Nth check
  sleeps first, exercising wall-clock deadlines;
* **lying verdicts** (``flip_verdict_every``): every Nth verdict the
  oracle returns is flipped, exercising the search's tolerance of a lying
  oracle — outcomes may be wrong but must stay well-formed;
* **snapshot poisoning** (``poison_snapshot_after``): from the Nth check
  on, the armed prefix snapshot is wrapped so any use of it explodes —
  one armed during the current check included, so the check that arms
  it is its first casualty — exercising the oracle's self-healing
  snapshot fallback (``oracle.prefix.fallbacks``);
* **decl-table poisoning** (``poison_decl_table_after``): once recorded,
  the declaration table's recorded declarations are replaced by a
  stand-in that explodes when read, exercising the oracle's table fallback
  (``oracle.decl.fallbacks``) and the from-scratch check behind it;
* **flaky store I/O** (a :class:`FlakyStore` passed as ``store=``):
  ``OSError`` from the verdict store's segment read/write seams on a
  deterministic schedule, exercising the store's fail-once
  degrade-to-cache-miss path.

Schedules key off the oracle's own counters, so a given
``(plan, program)`` pair replays identically — chaos tests are ordinary
deterministic tests.  The injected ``sleep`` is swappable for tests that
must not actually block.

Inspired by fault-injection harnesses around solver-backed tools: the SMT
localizers bound solver effort per query and treat timeouts as ordinary
answers; we hold our oracle to the same standard and test it by firing
every failure mode on every corpus program (see ``tests/faults``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

from repro.core.oracle import Oracle
from repro.miniml.infer import CheckResult
from repro.store.verdicts import VerdictStore


class ChaosCrash(RuntimeError):
    """An injected oracle crash (the generic fault)."""


class SnapshotPoisoned(RuntimeError):
    """An injected failure from using a poisoned prefix snapshot."""


class DeclTablePoisoned(RuntimeError):
    """An injected failure from reading a poisoned decl-table entry."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic schedule of injected failures.

    All knobs default to "off"; the empty plan makes :class:`ChaosOracle`
    a transparent wrapper (the equivalence tests rely on that).
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
    #: Flip every Nth verdict :meth:`ChaosOracle.check` returns.
    flip_verdict_every: Optional[int] = None
    #: Poison the armed prefix snapshot from the Nth check onward.
    poison_snapshot_after: Optional[int] = None
    #: Poison the recorded declaration table from the Nth check
    #: onward: the table route raises, the oracle drops the table, and a
    #: from-scratch check answers — correct answers, never wrong.
    poison_decl_table_after: Optional[int] = None

    @property
    def active(self) -> bool:
        return any(
            getattr(self, f.name) for f in fields(self)
            if f.name not in ("name", "crash_kind", "latency_seconds")
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
        "verdict-flip": FaultPlan(name="verdict-flip", flip_verdict_every=2),
        "snapshot-poison": FaultPlan(
            name="snapshot-poison", poison_snapshot_after=1
        ),
        "decl-table-poison": FaultPlan(
            name="decl-table-poison", poison_decl_table_after=1
        ),
    }


#: Template for :attr:`ChaosOracle.injected` (one key per fault family).
_INJECTED_ZERO: Dict[str, int] = {
    "crash": 0, "latency": 0, "flip": 0, "snapshot": 0, "table": 0,
}


class _PoisonedSnapshot:
    """Wraps a real snapshot: still *matches* candidates (so the oracle
    takes the snapshot route) but explodes the moment the oracle checks
    against it — exactly the shape of a corrupted-snapshot bug."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    def matches(self, program) -> bool:
        return object.__getattribute__(self, "_inner").matches(program)

    def __getattr__(self, name):
        raise SnapshotPoisoned(f"poisoned snapshot attribute access: {name!r}")


class _PoisonedEntry:
    """Stands in for the decl table's recorded declarations and explodes
    the moment the table route reads them — the shape of a
    corrupted-table bug."""

    __slots__ = ()

    def __getattr__(self, name):
        raise DeclTablePoisoned(f"poisoned decl-table entry access: {name!r}")

    def __getitem__(self, index):
        return self.__getattr__("__getitem__")


class ChaosOracle(Oracle):
    """An :class:`Oracle` that injects failures per a :class:`FaultPlan`.

    Construct it with the same keyword arguments as :class:`Oracle`
    (budget, metrics, ...) plus the plan; pass it to
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
        self._verdicts = 0
        self.injected: Dict[str, int] = dict(_INJECTED_ZERO)

    def reset(self) -> None:
        super().reset()
        self._verdicts = 0
        self.injected = dict(_INJECTED_ZERO)

    def check(self, program) -> CheckResult:
        result = super().check(program)
        every = self.plan.flip_verdict_every
        if every:
            self._verdicts += 1
            if self._verdicts % every == 0:
                # The worst *silent* failure: a well-formed verdict with
                # the opposite ``ok``, confidently served.
                self.injected["flip"] += 1
                result = CheckResult(ok=not result.ok)
        return result

    def _check_once(self, program):
        # ``check`` has already incremented ``calls``, so the schedule
        # counter n is 1-based: "every Nth" fires on calls N, 2N, ...
        n = self.calls
        plan = self.plan
        if plan.latency_every and n % plan.latency_every == 0:
            self.injected["latency"] += 1
            self._sleep(plan.latency_seconds)
        self._poison_snapshot()
        if (
            plan.poison_decl_table_after is not None
            and n >= plan.poison_decl_table_after
            and self._decl_table
            and not isinstance(self._decl_table[0], _PoisonedEntry)
        ):
            # A poisoned table must *degrade* — the oracle drops it and
            # checks from scratch — never serve a wrong answer.
            self.injected["table"] += 1
            self._decl_table = (_PoisonedEntry(),) + self._decl_table[1:]
        if plan.crash_every and n % plan.crash_every == 0:
            self.injected["crash"] += 1
            raise plan.crash_exception()
        return super()._check_once(program)

    def _arm_snapshot(self, program) -> bool:
        # The oracle arms the snapshot inside a check (the first
        # candidate's): poison it before that check uses it.
        armed = super()._arm_snapshot(program)
        self._poison_snapshot()
        return armed

    def _poison_snapshot(self) -> None:
        after = self.plan.poison_snapshot_after
        if (
            after is not None
            and self.calls >= after
            and self._snapshot is not None
            and not isinstance(self._snapshot, _PoisonedSnapshot)
        ):
            self.injected["snapshot"] += 1
            self._snapshot = _PoisonedSnapshot(self._snapshot)


class FlakyStore(VerdictStore):
    """A :class:`~repro.store.VerdictStore` whose segment I/O fails on a
    deterministic schedule.

    Every ``fail_every``-th segment read or publish raises ``OSError``
    (``fail_every=1``: every one, a persistent failure such as a full
    disk), exercising the degrade path: a failed read skips the segment,
    a failed publish keeps its verdicts pending for the next publish.
    The schedule counts operations, so a given (schedule, workload) pair
    replays identically.
    """

    def __init__(
        self,
        path,
        *,
        fail_every: int = 3,
        fail_reads: bool = True,
        fail_writes: bool = True,
        **store_kwargs,
    ):
        # Fault state must exist before super().__init__, which calls
        # refresh() straight into the overridden read seam.
        self._fail_every = max(1, int(fail_every))
        self._fail_reads = fail_reads
        self._fail_writes = fail_writes
        self._io_ops = 0
        self.injected_io_failures = 0
        super().__init__(path, **store_kwargs)

    def _maybe_fail(self, op: str) -> None:
        if op == "read" and not self._fail_reads:
            return
        if op == "write" and not self._fail_writes:
            return
        self._io_ops += 1
        if self._io_ops % self._fail_every == 0:
            self.injected_io_failures += 1
            raise OSError(f"[flaky-store] injected {op} failure #{self._io_ops}")

    def _read_segment_text(self, segment):
        self._maybe_fail("read")
        return super()._read_segment_text(segment)

    def _write_segment_file(self, tmp, final, body):
        self._maybe_fail("write")
        super()._write_segment_file(tmp, final, body)
