"""The type-checker oracle (paper Figure 1, right-hand box).

SEMINAL's defining architectural property is that the search procedure has
*no knowledge of type-system specifics*: it only asks "does this program
type-check?".  :class:`Oracle` wraps any ``Program -> CheckResult`` function
behind exactly that interface, adding:

* call counting (the paper's efficiency metric — Section 2.2's lazy change
  collections exist precisely to "reduce calls to the type-checker"),
* an optional budget so pathological searches terminate,
* an optional memo cache keyed on structural keys (off by default to match
  the paper; benchmarks can enable it for the ablation study), and
* **prefix reuse**: after the searcher localizes the first failing
  declaration, it arms a :class:`~repro.miniml.infer.PrefixSnapshot` via
  :meth:`Oracle.arm_prefix`; every subsequent candidate that shares the
  passing prefix (which is all of them — the searcher only mutates the
  failing declaration) is then checked incrementally, inferring only the
  declarations after the snapshot point.  A candidate that *does* edit the
  prefix invalidates the snapshot and falls back to a full check, so the
  answers are identical either way.  ``cross_check=True`` re-runs every
  incremental answer from scratch and raises :class:`IncrementalMismatch`
  on disagreement — the assertion mode the equivalence tests exercise.

Fault tolerance (the resilience layer, see :mod:`repro.core.resilience`):
the oracle is the trust boundary between the search and an arbitrary
checker, so it also absorbs that checker's failures instead of letting
them kill the search:

* **Crash isolation** — an unexpected exception from a check (a
  ``RecursionError`` on a deep candidate, a latent ``UnifyError`` leak, a
  snapshot bug, an injected chaos fault) is converted into "candidate
  rejected": :meth:`check` returns a failing ``CheckResult``, counts
  ``oracle.crashes``, and keeps a bounded sample of tracebacks for the
  degradation report.  ``strict=True`` disables the guard for debugging.
* **Depth pre-check** — candidates whose AST depth exceeds ``max_depth``
  (default: derived from the interpreter's recursion limit) are rejected
  *before* inference via an identity-memoized iterative
  :class:`~repro.tree.DepthProbe`, so deep trees can never trip Python's
  recursion limit inside the checker in the first place.
* **Self-healing incremental mode** — a crash on the prefix-reuse fast
  path (e.g. a poisoned snapshot) disarms the snapshot, counts
  ``oracle.prefix.fallbacks``, and transparently re-runs the candidate
  from scratch; the cross-check assertion mode still raises, so tests
  keep their strict equivalence oracle.

Telemetry: an oracle holding a :class:`~repro.obs.MetricsRegistry` counts
``oracle.calls`` (and the ``.ok``/``.fail`` split), ``oracle.cache.hits``/
``oracle.cache.misses``, ``oracle.budget_exceeded``, the prefix-reuse set
``oracle.prefix.armed``/``oracle.prefix.reused``/
``oracle.prefix.invalidated``/``oracle.prefix.fallbacks``/
``oracle.full_checks``, and the resilience pair ``oracle.crashes``/
``oracle.depth_rejected``.  The default is the no-op
:data:`~repro.obs.NULL_METRICS`, so the hot path never branches on
whether telemetry is on.
"""

from __future__ import annotations

import sys
import traceback
from typing import Callable, Dict, List, Optional, Protocol, Union

from repro.miniml.errors import MiniMLTypeError
from repro.miniml.infer import (
    CheckResult,
    PrefixSnapshot,
    SpeculativeState,
    TrailIntegrityError,
    record_decl_table,
    replay_decl_table,
    snapshot_prefix,
    typecheck_program,
)
from repro.miniml.types import Trail, set_trail
from repro.obs import NULL_EVENTS, NULL_METRICS
from repro.store.fingerprint import NO_PREFIX_FP, prefix_fingerprint
from repro.store.verdicts import STORABLE_KINDS
from repro.tree import DepthProbe, StructuralKeyer

#: Sentinel for "derive ``max_depth`` from the interpreter's limit".
AUTO_DEPTH = "auto"

#: How a stored verdict was computed — the accounting "kind" the
#: verdict store persists (:data:`~repro.store.verdicts.STORABLE_KINDS`)
#: so a store hit replays the exact counters the original check bumped.
VERDICT_FULL = "full"                      #: from-scratch check
VERDICT_REUSED = "reused"                  #: incremental prefix-reuse path
VERDICT_INVALIDATED = "invalidated"        #: snapshot invalidated, then full


def default_max_depth() -> int:
    """A candidate-AST depth the recursive checker can safely absorb.

    Inference spends several Python frames per AST level (dispatch,
    unification, helpers), so the ceiling leaves generous headroom under
    ``sys.getrecursionlimit()``.  Human-written programs (the paper's
    corpus tops out well under depth 100) never come close.
    """
    return max(64, sys.getrecursionlimit() // 6)


class BudgetExceeded(Exception):
    """The searcher used up its oracle-call budget."""

    def __init__(self, budget: int):
        super().__init__(f"oracle budget of {budget} calls exceeded")
        self.budget = budget


class IncrementalMismatch(AssertionError):
    """An incremental (prefix-reuse) answer diverged from the from-scratch
    answer — a soundness bug, surfaced only in ``cross_check`` mode."""


class TypecheckFn(Protocol):
    def __call__(self, program) -> CheckResult: ...  # pragma: no cover


def _error_text(result: CheckResult) -> Optional[str]:
    return result.error.render() if result.error is not None else None


class StoredError(MiniMLTypeError):
    """A checker message replayed from the persistent verdict store.

    The store persists the *rendered* text (which already includes the
    location line), so reconstruction is exact for every display path;
    the original error's ``kind`` tag rides along for fidelity.  The
    ``node`` payload is not persisted — store-served verdicts answer the
    searcher's boolean question and the CLI's message display, not
    span-level grading (which re-checks from scratch anyway).
    """

    def __init__(self, text: str, kind: Optional[str] = None):
        super().__init__(text)
        if kind:
            self.kind = kind


class Oracle:
    """Boolean yes/no oracle with accounting.

    Parameters
    ----------
    typecheck:
        The underlying checker.  Defaults to MiniML's
        :func:`~repro.miniml.infer.typecheck_program`.
    max_calls:
        Hard budget; exceeding it raises :class:`BudgetExceeded`, which the
        searcher catches to return the suggestions found so far.
    cache:
        Memoize results by structural key.  Sound because the checker is
        deterministic and ignores spans/synthetic flags; keys are built by
        an identity-memoizing :class:`~repro.tree.StructuralKeyer`, so a
        candidate differing from the root program in one declaration keys
        in time proportional to that declaration, not the whole program.
        Entries are additionally tagged with the prefix *generation* (a
        counter bumped every time a snapshot is armed, invalidated, or
        healed away), so a verdict computed under a snapshot that later
        proves poisoned or stale can never be served again.
    key_fn:
        Override the cache-key function (language specific).  ``render`` is
        accepted as a deprecated alias.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to count into (default: the
        shared no-op registry).
    incremental:
        Allow prefix reuse (on by default; :meth:`arm_prefix` becomes a
        no-op when off — the CLI's ``--no-incremental``).
    cross_check:
        Re-check every prefix-reused answer from scratch and raise
        :class:`IncrementalMismatch` if the answers differ.  Test/debug
        mode: it deliberately pays the full cost it normally saves.
    snapshot_fn:
        ``(program, n_decls) -> PrefixSnapshot | None`` used by
        :meth:`arm_prefix`.  Defaults to MiniML's
        :func:`~repro.miniml.infer.snapshot_prefix` when ``typecheck`` is
        the default; a custom ``typecheck`` must bring its own snapshot
        function (and accept a ``prefix=`` keyword) to opt into reuse.
    max_depth:
        Reject candidates whose AST depth exceeds this before invoking the
        checker (``oracle.depth_rejected``; never counted as a call).  The
        default :data:`AUTO_DEPTH` derives a limit from the interpreter's
        recursion limit; ``None`` disables the pre-check.
    strict:
        Disable crash isolation: unexpected checker exceptions propagate
        instead of rejecting the candidate.  Debug/test mode.
    crash_sample_limit:
        How many crash tracebacks to retain in :attr:`crash_samples`.
    depprune:
        Enable the declaration outcome table (dependency-pruned
        re-checking — the second reuse tier behind prefix snapshots; see
        :meth:`arm_decl_table`).  On by default; requires ``incremental``
        and a substrate with record/replay support (the MiniML default).
        Turning it off never changes answers, only ``oracle.decl.*``
        telemetry and wall time.
    speculate:
        Enable trail-based speculative checking (the third reuse tier, in
        front of the copying prefix path).  When a snapshot is armed, a
        :class:`~repro.miniml.infer.SpeculativeState` is built once —
        paying the table/value copies a single time — and each matching
        candidate's suffix is then checked against that *live* state, with
        every destructive write recorded on an undo trail and rolled back
        afterwards (``oracle.trail.speculated`` / ``.rolled_back``).  Any
        exception on the speculative path — including a
        :class:`~repro.miniml.infer.TrailIntegrityError` — degrades the
        check to the copying path (``oracle.trail.fallbacks``) without
        changing the answer.  On by default; requires ``incremental`` and
        the MiniML substrate.  Turning it off never changes answers, only
        the ``oracle.trail.*`` telemetry and wall time.
    """

    def __init__(
        self,
        typecheck: Optional[TypecheckFn] = None,
        max_calls: Optional[int] = None,
        cache: bool = False,
        key_fn: Optional[Callable] = None,
        metrics=None,
        incremental: bool = True,
        cross_check: bool = False,
        snapshot_fn: Optional[Callable] = None,
        render: Optional[Callable] = None,
        max_depth: Union[int, str, None] = AUTO_DEPTH,
        strict: bool = False,
        crash_sample_limit: int = 5,
        events=None,
        store=None,
        depprune: bool = True,
        speculate: bool = True,
    ):
        self._typecheck = typecheck if typecheck is not None else typecheck_program
        self.max_calls = max_calls
        self.calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.full_checks = 0
        self.prefix_reused = 0
        self.prefix_invalidated = 0
        self.prefix_fallbacks = 0
        self.crashes = 0
        self.depth_rejections = 0
        #: Per-declaration accounting (the dependency-pruning telemetry):
        #: declarations really inferred / replayed from the outcome table /
        #: skipped via prefix snapshots / degraded from replay to check.
        self.decls_checked = 0
        self.decls_replayed = 0
        self.decls_skipped = 0
        self.decls_degraded = 0
        self.crash_samples: List[str] = []
        self.crash_sample_limit = crash_sample_limit
        self.strict = strict
        if max_depth == AUTO_DEPTH:
            max_depth = default_max_depth()
        self.max_depth: Optional[int] = max_depth
        self._depth_probe = DepthProbe() if max_depth is not None else None
        self._cache: Optional[Dict[object, CheckResult]] = {} if cache else None
        self._keyer: Optional[StructuralKeyer] = None
        if key_fn is not None:
            self._key = key_fn
        elif render is not None:  # pre-structural-key API
            self._key = render
        else:
            self._keyer = StructuralKeyer()
            self._key = self._keyer
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS
        self.incremental = incremental
        self.cross_check = cross_check
        if snapshot_fn is not None:
            self._snapshot_fn: Optional[Callable] = snapshot_fn
        else:
            self._snapshot_fn = snapshot_prefix if typecheck is None else None
        self._snapshot = None
        #: Dependency-pruned re-checking (the second reuse tier, behind
        #: prefix snapshots).  Like snapshots, the record/replay functions
        #: default to the MiniML substrate only when ``typecheck`` is the
        #: default — a custom checker opts out automatically.
        self.depprune = depprune
        self._decl_record_fn: Optional[Callable] = (
            record_decl_table if typecheck is None else None
        )
        self._decl_replay_fn: Optional[Callable] = (
            replay_decl_table if typecheck is None else None
        )
        self._decl_table = None
        self._decl_pending = None
        #: Trail-based speculation (the third reuse tier).  Only the
        #: MiniML substrate knows how to build a live armed state from a
        #: PrefixSnapshot; a custom checker opts out automatically.
        self.speculate = speculate
        self._spec_supported = typecheck is None
        self._spec_state: Optional[SpeculativeState] = None
        #: Shared undo trail for the speculative decl-table replay (the
        #: same push/pop discipline the snapshot tier uses, applied to the
        #: table's recorded weak schemes).
        self._trail: Optional[Trail] = (
            Trail() if (speculate and self._spec_supported) else None
        )
        self.trail_speculated = 0
        self.trail_rolled_back = 0
        self.trail_fallbacks = 0
        #: Bumped whenever the prefix state changes (armed / invalidated /
        #: healed / reset): part of the memo key, so cached verdicts are
        #: scoped to the snapshot regime they were computed under.
        self._prefix_gen = 0
        #: Content-addressed analogue of ``_prefix_gen`` for the disk
        #: tier: the fingerprint of the armed snapshot's declarations, or
        #: :data:`~repro.store.fingerprint.NO_PREFIX_FP` when unarmed.
        #: ``None`` disables the store for the current regime (e.g. the
        #: snapshot could not be fingerprinted).
        self._prefix_fp: Optional[str] = NO_PREFIX_FP
        self.store = None
        self.store_hits = 0
        self.store_misses = 0
        self.store_writes = 0
        if store is not None:
            self.attach_store(store)

    # ------------------------------------------------------------------
    # Resilience accounting
    # ------------------------------------------------------------------

    def _record_crash(self, err: BaseException) -> None:
        """Account one isolated crash (converted to "candidate rejected")."""
        sample = "".join(
            traceback.format_exception_only(type(err), err)
        ).strip()
        self.crashes += 1
        self.metrics.incr("oracle.crashes")
        if len(self.crash_samples) < self.crash_sample_limit:
            self.crash_samples.append(sample)
        self.events.emit("oracle_crash", error=sample)

    # ------------------------------------------------------------------
    # The persistent verdict store (disk tier behind the memo)
    # ------------------------------------------------------------------

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.VerdictStore` as the disk tier.

        Probe order per check: memory memo → store → real check (the
        verdict is written back to the store on the way out).  Store hits
        still count toward ``self.calls`` (the budget and ``--stats``
        accounting, which must be byte-identical warm or cold) but *not*
        toward the ``oracle.calls`` metric, which counts real checker
        invocations — that split is what makes a warm run's metric
        strictly smaller while everything user-visible stays identical.
        Disabled under ``cross_check`` (the point of that mode is to
        re-run checks, not to skip them).
        """
        self.store = store
        n = store.take_invalidated()
        if n:
            self.metrics.incr("oracle.store.invalidated", n)
        self._drain_store_io()

    def _drain_store_io(self) -> None:
        """Surface the store's retried/failed segment I/O (see
        :meth:`VerdictStore.take_io_counters`) as ``oracle.store.retries``
        / ``oracle.store.io_errors`` metrics and a ``store_io_error``
        event — transient ``OSError``s degrade to cache misses, but the
        supervision table should still show they happened."""
        if self.store is None:
            return
        take = getattr(self.store, "take_io_counters", None)
        if take is None:
            return
        try:
            retries, errors = take()
        except Exception:
            return
        if retries:
            self.metrics.incr("oracle.store.retries", retries)
        if errors:
            self.metrics.incr("oracle.store.io_errors", errors)
            self.events.emit("store_io_error", errors=errors, retries=retries)

    @property
    def _store_active(self) -> bool:
        return (
            self.store is not None
            and not self.cross_check
            and self._prefix_fp is not None
        )

    def _stored_result(self, entry) -> CheckResult:
        error = None
        if not entry.ok and entry.err is not None:
            error = StoredError(entry.err, entry.err_kind)
        return CheckResult(ok=entry.ok, error=error)

    def _replay_stored_kind(self, kind: str) -> None:
        """Replay the accounting a real check of this ``kind`` would have
        done, so prefix-reuse counters (and hence ``--stats``) are
        byte-identical whether the verdict was computed or recalled."""
        if kind == VERDICT_REUSED:
            self.prefix_reused += 1
            self.metrics.incr("oracle.prefix.reused")
            return
        if kind == VERDICT_INVALIDATED:
            # The original check dropped the snapshot before re-checking
            # from scratch; mirror that so subsequent checks run (and
            # probe the store) under the same no-prefix regime.
            self._drop_snapshot()
            self.prefix_invalidated += 1
            self.metrics.incr("oracle.prefix.invalidated")
        self.full_checks += 1
        self.metrics.incr("oracle.full_checks")

    def _store_write(self, prefix_fp, skey, result, counters_before) -> None:
        """Persist a freshly computed verdict.

        The kind is classified from the counter deltas around the check;
        crash and fallback outcomes are never persisted — they are checker
        failures, not answers.  Write failures degrade silently (the store
        is a cache).
        """
        crashes, fallbacks, reused, invalidated = counters_before
        if self.crashes != crashes or self.prefix_fallbacks != fallbacks:
            return
        if self.prefix_reused > reused:
            kind = VERDICT_REUSED
        elif self.prefix_invalidated > invalidated:
            kind = VERDICT_INVALIDATED
        else:
            kind = VERDICT_FULL
        try:
            err = _error_text(result) if not result.ok else None
            err_kind = getattr(result.error, "kind", None) if result.error else None
            if self.store.put(prefix_fp, skey, result.ok, kind, err, err_kind):
                self.store_writes += 1
                self.metrics.incr("oracle.store.writes")
        except Exception:
            if self.strict:
                raise
        self._drain_store_io()

    # ------------------------------------------------------------------
    # Prefix reuse
    # ------------------------------------------------------------------

    def adopt_keyer(self, keyer) -> bool:
        """Share a search-owned :class:`~repro.tree.StructuralKeyer`.

        The searcher builds one keyer per search (dedup, oracle cache, and
        the declaration outcome table all intern into it — the
        ``search.keys.interned`` metric); adopting replaces the oracle's
        private default keyer.  No-op (False) when a custom ``key_fn`` was
        supplied — overriding it could change cache semantics.
        """
        if self._keyer is None:
            return False
        self._keyer = keyer
        self._key = keyer
        return True

    @property
    def prefix_armed(self) -> bool:
        return self._snapshot is not None

    def arm_prefix(self, program, n_decls: int) -> bool:
        """Snapshot the environment after ``program.decls[:n_decls]``.

        Called by the searcher right after localization with the index of
        the first failing declaration: everything before it passed, and
        every candidate the search generates shares those declarations by
        identity.  Returns True when a snapshot was armed; no-op (False)
        when incremental reuse is off, the substrate does not support it,
        the prefix is empty, the prefix unexpectedly fails to check, or
        the snapshot function itself crashes (counted as an isolated
        crash — a broken snapshot must not kill the search).
        """
        self._drop_snapshot()
        if not self.incremental or self._snapshot_fn is None or n_decls <= 0:
            return False
        try:
            snapshot = self._snapshot_fn(program, n_decls)
        except Exception as err:
            if self.strict:
                raise
            self._record_crash(err)
            return False
        if snapshot is None:
            return False
        self._snapshot = snapshot
        self._prefix_gen += 1
        if self.store is not None:
            try:
                self._prefix_fp = prefix_fingerprint(
                    self._key(decl) for decl in snapshot.decls
                )
            except Exception:
                # Unfingerprintable snapshot (custom key_fn, odd decls):
                # disable the disk tier for this regime rather than risk
                # serving another regime's verdicts.
                self._prefix_fp = None
        if (
            self.speculate
            and self._spec_supported
            and isinstance(snapshot, PrefixSnapshot)
        ):
            try:
                self._spec_state = SpeculativeState(snapshot)
            except Exception:
                if self.strict:
                    raise
                # Arming the live state is an optimization; failing to
                # build it degrades every check to the copying path.
                self._spec_state = None
                self.trail_fallbacks += 1
                self.metrics.incr("oracle.trail.fallbacks")
        self.metrics.incr("oracle.prefix.armed")
        return True

    def _drop_snapshot(self) -> None:
        if self._snapshot is not None:
            self._snapshot = None
            self._prefix_gen += 1
        self._spec_state = None
        self._prefix_fp = NO_PREFIX_FP

    # ------------------------------------------------------------------
    # Declaration outcome table (dependency-pruned re-checking)
    # ------------------------------------------------------------------

    @property
    def decl_table_armed(self) -> bool:
        return self._decl_table is not None or self._decl_pending is not None

    def arm_decl_table(self, program) -> bool:
        """Arm the per-declaration outcome table for a baseline program.

        Called by the searcher *before* its initial check.  Arming is
        lazy: the recording pass runs on the first check that reaches the
        full (non-snapshot) path — which for the searcher is that initial
        check itself, so recording costs nothing beyond the check the
        search was going to pay anyway.  Once recorded, every full-path
        check replays unaffected declarations from the table and really
        re-infers only the changed ones and their dependents.  No-op
        (False) when dependency pruning or incremental reuse is off, or
        the substrate has no record/replay functions.
        """
        self._decl_table = None
        self._decl_pending = None
        if (
            not self.depprune
            or not self.incremental
            or self._decl_record_fn is None
            or self._decl_replay_fn is None
        ):
            return False
        self._decl_pending = program
        return True

    def _drop_decl_table(self) -> None:
        self._decl_table = None
        self._decl_pending = None

    def _decl_key_fn(self):
        # The table interns declaration keys into the same keyer the cache
        # uses; with a custom key_fn the substrate default applies.
        return self._keyer

    def _decl_tier(self, program) -> Optional[CheckResult]:
        """Serve a full-path check from the declaration outcome table.

        Returns ``None`` when the tier cannot answer (not armed, recording
        produced no table) — the caller falls through to a plain full
        check.  Any exception inside the tier degrades the same way: the
        table is dropped, ``oracle.decl.fallbacks`` counts the incident,
        and the plain check supplies the (always correct) answer.
        """
        if self._decl_table is None and self._decl_pending is None:
            return None
        try:
            extra_checked = 0
            if self._decl_table is None:
                baseline = self._decl_pending
                self._decl_pending = None
                table, base_result = self._decl_record_fn(
                    baseline, key_fn=self._decl_key_fn()
                )
                if table is None:
                    # Recording failed soundly (e.g. recursion blowup):
                    # the pass is still a complete check of the baseline.
                    return base_result if baseline is program else None
                self._decl_table = table
                self.metrics.incr("oracle.decl.armed")
                if baseline is program:
                    return base_result
                # The recording pass inferred the baseline's declarations
                # on behalf of this check; attribute that cost here.
                extra_checked = base_result.decls_checked
            if self._trail is not None and self._decl_table.free_vars:
                # Speculative replay: skip the per-pass weak-scheme
                # substitution and undo any links the check applies.  Any
                # failure inside degrades through the outer handler (the
                # table may be stale either way); the trail fallback is
                # counted so the degradation is visible.
                try:
                    result = self._spec_replay(program)
                except Exception:
                    if self.strict:
                        raise
                    self.trail_fallbacks += 1
                    self.metrics.incr("oracle.trail.fallbacks")
                    raise
            else:
                result = self._decl_replay_fn(
                    program, self._decl_table, key_fn=self._decl_key_fn()
                )
            if extra_checked:
                result.decls_checked += extra_checked
            return result
        except Exception:
            if self.strict:
                raise
            self._drop_decl_table()
            self.metrics.incr("oracle.decl.fallbacks")
            return None

    def _spec_replay(self, program) -> CheckResult:
        """Replay the decl table against its *live* weak schemes.

        The copying replay path pays one ``_substitute`` walk per recorded
        scheme per check to keep the table's weak type variables pristine
        (the ``instantiate_values`` discipline).  With a trail armed we can
        skip the copy entirely: the check unifies against the recorded
        variables in place, and ``undo`` restores their links and levels
        before the next check observes them.  Sound for the same reason
        the snapshot tier's speculation is — within one pass, a fresh copy
        and a live-then-undone original are observationally identical, and
        :func:`~repro.core.depgraph.plan_replay`'s value-restriction
        clique escalation already forces a real re-check of every
        declaration entangled with a weak scheme whenever one could be
        constrained differently.

        Errors that outlive the rollback (store persistence,
        cross-checking) are frozen *before* undo un-unifies the types they
        reference.  Any integrity violation raises — the caller counts the
        trail fallback and lets :meth:`_decl_tier`'s outer handler drop
        the (possibly corrupt) table and degrade to a plain full check.
        """
        trail = self._trail
        mark = trail.mark()
        previous = set_trail(trail)
        try:
            result = self._decl_replay_fn(
                program,
                self._decl_table,
                key_fn=self._decl_key_fn(),
                weak_copy=False,
            )
            if result.error is not None and (self._store_active or self.cross_check):
                result.error.freeze()
        except BaseException as unexpected:
            set_trail(previous)
            try:
                trail.undo(mark)
            except BaseException as undo_err:
                raise TrailIntegrityError(
                    "speculative replay rollback failed; armed table corrupt"
                ) from undo_err
            raise unexpected
        set_trail(previous)
        if trail.mark() < mark:
            raise TrailIntegrityError(
                "trail shrank below the pre-replay mark; armed table corrupt"
            )
        undone = trail.undo(mark)
        self.trail_speculated += 1
        self.trail_rolled_back += undone
        self.metrics.incr("oracle.trail.speculated")
        if undone:
            self.metrics.incr("oracle.trail.rolled_back", undone)
        return result

    def _account_decls(self, result) -> None:
        """Fold one check's per-declaration accounting into the counters."""
        checked = getattr(result, "decls_checked", 0)
        replayed = getattr(result, "decls_replayed", 0)
        skipped = getattr(result, "decls_skipped", 0)
        degraded = getattr(result, "decls_degraded", 0)
        if checked:
            self.decls_checked += checked
            self.metrics.incr("oracle.decl.checked", checked)
        if replayed:
            self.decls_replayed += replayed
            self.metrics.incr("oracle.decl.replayed", replayed)
        if skipped:
            self.decls_skipped += skipped
            self.metrics.incr("oracle.decl.skipped", skipped)
        if degraded:
            self.decls_degraded += degraded
            self.metrics.incr("oracle.decl.degraded", degraded)

    def _check_once(self, program) -> CheckResult:
        """One logical typecheck, via the armed prefix when possible."""
        snapshot = self._snapshot
        if snapshot is not None:
            if snapshot.matches(program):
                spec = self._spec_state
                if spec is not None and spec.snapshot is snapshot:
                    # Third tier: check the suffix against the live armed
                    # state and roll the trail back.  Errors that outlive
                    # the rollback (store persistence, cross-checking) are
                    # rendered *before* undo un-unifies the types they
                    # reference.
                    rolled_before = spec.rolled_back
                    try:
                        result = spec.check(
                            program,
                            freeze_errors=self._store_active or self.cross_check,
                        )
                    except Exception:
                        if self.strict:
                            raise
                        # Trail-integrity violation or an unexpected crash
                        # on the speculative path: discard the live state
                        # and degrade to the copying path — which answers
                        # (or crashes into the prefix self-healing) exactly
                        # as it would with speculation off.
                        self._spec_state = None
                        self.trail_fallbacks += 1
                        self.metrics.incr("oracle.trail.fallbacks")
                    else:
                        rolled = spec.rolled_back - rolled_before
                        self.trail_speculated += 1
                        self.trail_rolled_back += rolled
                        self.metrics.incr("oracle.trail.speculated")
                        if rolled:
                            self.metrics.incr("oracle.trail.rolled_back", rolled)
                        self.prefix_reused += 1
                        self.metrics.incr("oracle.prefix.reused")
                        if self.cross_check:
                            self._assert_equivalent(program, result)
                        return result
                try:
                    result = self._typecheck(program, prefix=snapshot)
                except Exception as err:
                    if self.strict:
                        raise
                    # Self-healing: a crash on the incremental fast path
                    # (poisoned snapshot, latent prefix-reuse bug) disarms
                    # reuse and falls through to a from-scratch check.
                    self._drop_snapshot()
                    self.prefix_fallbacks += 1
                    self.metrics.incr("oracle.prefix.fallbacks")
                    self._record_crash(err)
                else:
                    self.prefix_reused += 1
                    self.metrics.incr("oracle.prefix.reused")
                    if self.cross_check:
                        self._assert_equivalent(program, result)
                    return result
            else:
                # The candidate edited a declaration at or before the
                # snapshot point: the cached environment no longer applies.
                # Drop it — the searcher's candidates would keep missing
                # anyway.
                self._drop_snapshot()
                self.prefix_invalidated += 1
                self.metrics.incr("oracle.prefix.invalidated")
        served = self._decl_tier(program)
        if served is not None:
            # Table-served answers are full checks for every existing
            # counter (calls, full_checks, store kinds): the pruning shows
            # up only in the oracle.decl.* family, so suggestions, ranks,
            # and --stats stay byte-identical with pruning on or off.
            self.full_checks += 1
            self.metrics.incr("oracle.full_checks")
            if self.cross_check:
                self._assert_equivalent(
                    program, served, metric="oracle.decl.crosschecked"
                )
            return served
        self.full_checks += 1
        self.metrics.incr("oracle.full_checks")
        return self._typecheck(program)

    def _assert_equivalent(
        self, program, incremental: CheckResult,
        metric: str = "oracle.prefix.crosschecked",
    ) -> None:
        """Cross-check an incremental answer against a from-scratch run."""
        self.metrics.incr(metric)
        full = self._typecheck(program)
        if incremental.ok != full.ok or (
            not full.ok and _error_text(incremental) != _error_text(full)
        ):
            raise IncrementalMismatch(
                "incremental oracle diverged from from-scratch answer:\n"
                f"  incremental: ok={incremental.ok} error={_error_text(incremental)!r}\n"
                f"  from-scratch: ok={full.ok} error={_error_text(full)!r}"
            )

    # ------------------------------------------------------------------
    # The oracle interface
    # ------------------------------------------------------------------

    def check(self, program) -> CheckResult:
        """Run the type-checker, honouring budget, cache, and crash guard.

        Accounting order matters: the depth pre-check comes first (a
        too-deep candidate is rejected for free, before keying or checking
        could recurse into it); a cache hit is then free and served even
        when the budget is spent; the budget gate comes next, so a call
        that raises :class:`BudgetExceeded` was never a cache miss
        (nothing was checked) and counts toward neither ``calls`` nor
        ``cache_misses``.  Finally, unless ``strict``, any unexpected
        exception from the checker is isolated: the candidate is rejected
        (``ok=False``) and the crash is counted instead of propagated.
        Only :class:`BudgetExceeded` and the ``cross_check`` assertion
        :class:`IncrementalMismatch` ever escape.
        """
        try:
            return self._check(program)
        except (BudgetExceeded, IncrementalMismatch):
            raise
        except Exception as err:
            # Bookkeeping crashes (e.g. structural keying of a deep tree
            # with the depth pre-check disabled) — still candidate-reject.
            if self.strict:
                raise
            self._record_crash(err)
            return CheckResult(ok=False)

    def _check(self, program) -> CheckResult:
        if self._depth_probe is not None and self._depth_probe.exceeds(
            program, self.max_depth
        ):
            self.depth_rejections += 1
            self.metrics.incr("oracle.depth_rejected")
            return CheckResult(ok=False)
        skey = None
        if self._cache is not None:
            skey = self._key(program)
            hit = self._cache.get((self._prefix_gen, skey))
            if hit is not None:
                self.cache_hits += 1
                self.metrics.incr("oracle.cache.hits")
                return hit
        if self.max_calls is not None and self.calls >= self.max_calls:
            self.metrics.incr("oracle.budget_exceeded")
            raise BudgetExceeded(self.max_calls)
        if self._cache is not None:
            self.cache_misses += 1
            self.metrics.incr("oracle.cache.misses")
        self.calls += 1
        store_fp = None
        if self._store_active:
            # Disk tier: probed after the memo and *after* the budget
            # gate and call counting — a store hit spends budget exactly
            # like a real check, so the budget-exhaustion point (and the
            # whole downstream search) is identical warm or cold.
            if skey is None:
                skey = self._key(program)
            store_fp = self._prefix_fp
            try:
                stored = self.store.get(store_fp, skey)
            except Exception:
                # A broken probe degrades to a miss — it must never leak
                # into the outer crash guard and reject the candidate.
                if self.strict:
                    raise
                stored = None
            if stored is not None:
                self.store_hits += 1
                self.metrics.incr("oracle.store.hits")
                self._replay_stored_kind(stored.kind)
                result = self._stored_result(stored)
                if self._cache is not None:
                    self._cache[(self._prefix_gen, skey)] = result
                return result
            self.store_misses += 1
            self.metrics.incr("oracle.store.misses")
        before = (
            self.crashes,
            self.prefix_fallbacks,
            self.prefix_reused,
            self.prefix_invalidated,
        )
        try:
            result = self._check_once(program)
        except IncrementalMismatch:
            raise
        except Exception as err:
            if self.strict:
                raise
            self._record_crash(err)
            result = CheckResult(ok=False)
        self._account_decls(result)
        self.metrics.incr("oracle.calls")
        self.metrics.incr("oracle.calls.ok" if result.ok else "oracle.calls.fail")
        if store_fp is not None:
            self._store_write(store_fp, skey, result, before)
        if self._cache is not None:
            # Re-tag with the *current* generation: if the check itself
            # invalidated or healed away the snapshot, the result was
            # computed from scratch and belongs to the new regime.
            self._cache[(self._prefix_gen, skey)] = result
        return result

    def passes(self, program) -> bool:
        """The boolean question the searcher actually asks."""
        return self.check(program).ok

    def reset(self) -> None:
        """Clear accounting, cache, and the prefix snapshot between searches.

        The metrics registry is *not* cleared: it aggregates across
        searches by design (reset it explicitly if per-search numbers are
        wanted).
        """
        self.calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.full_checks = 0
        self.prefix_reused = 0
        self.prefix_invalidated = 0
        self.prefix_fallbacks = 0
        self.crashes = 0
        self.depth_rejections = 0
        self.decls_checked = 0
        self.decls_replayed = 0
        self.decls_skipped = 0
        self.decls_degraded = 0
        self.crash_samples = []
        self._snapshot = None
        self._spec_state = None
        self.trail_speculated = 0
        self.trail_rolled_back = 0
        self.trail_fallbacks = 0
        if self._trail is not None:
            self._trail.clear()
        self._decl_table = None
        self._decl_pending = None
        self._prefix_gen = 0
        self._prefix_fp = NO_PREFIX_FP
        self.store_hits = 0
        self.store_misses = 0
        self.store_writes = 0
        if self._cache is not None:
            self._cache = {}
        if self._keyer is not None:
            self._keyer.clear()
        if self._depth_probe is not None:
            self._depth_probe.clear()
