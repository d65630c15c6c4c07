"""The type-checker oracle (paper Figure 1, right-hand box).

SEMINAL's defining architectural property is that the search procedure has
*no knowledge of type-system specifics*: it only asks "does this program
type-check?".  :class:`Oracle` wraps any ``Program -> CheckResult`` function
behind exactly that interface, adding:

* call counting (the paper's efficiency metric — Section 2.2's lazy change
  collections exist precisely to "reduce calls to the type-checker"),
* an optional budget so pathological searches terminate, and
* **reuse** (the default MiniML checker only; a custom ``typecheck`` is
  always called from scratch).  The oracle arms its own reuse, so the
  searcher only asks yes/no questions: the first check after
  :meth:`Oracle.reset` (or of a fresh oracle) is the search's *baseline*.
  A check is answered by one of two routes, with a from-scratch check as
  the single fallback:

  - the *declaration table*: its recording pass *is* the baseline check,
    and it then answers every program whose declarations *are* (``is``)
    the baseline's up to its own end or the baseline's first failure —
    localization's prefix scan — from the recorded verdict, without
    inferring anything.  It matches by identity and keys nothing: only
    the verdict store keys programs;
  - the *prefix snapshot*: the first check the table declines that
    edits one of the baseline's declarations (the first candidate after
    localization, which rewrites the failing declaration) arms a
    :class:`~repro.miniml.infer.SpeculativeState` on the declarations
    before the edited one, once per search; every candidate that shares
    that passing prefix (which is all of them — the searcher only
    mutates the failing declaration) infers only the declarations after
    the snapshot point, against the live armed state, with an undo trail
    rolling the state back afterwards.

  Every other check (a candidate that edits the snapshot's prefix, or
  any check when no snapshot is armed and the table declines) is a
  from-scratch check; the snapshot stays armed for the next candidate
  that shares it, so the answers are identical either way.  The tests
  compare every reused answer with a from-scratch check.

Fault tolerance (the resilience layer, see :mod:`repro.core.resilience`):
the oracle is the trust boundary between the search and an arbitrary
checker, so it also absorbs that checker's failures instead of letting
them kill the search:

* **Crash isolation** — an unexpected exception from a check (a
  ``RecursionError`` on a deep candidate, a latent ``UnifyError`` leak, a
  snapshot bug, an injected chaos fault) is converted into "candidate
  rejected": :meth:`check` returns a failing ``CheckResult``, counts
  ``oracle.crashes``, and keeps a bounded sample of tracebacks for the
  degradation report.
* **Depth pre-check** — candidates whose AST depth exceeds
  :func:`default_max_depth` (derived from the interpreter's recursion
  limit) are rejected *before* inference, and before the verdict store
  keys them, by a :class:`~repro.tree.DepthProbe`, whose memo of subtree
  heights leaves only each candidate's rebuilt spine to walk, so deep
  trees can never trip Python's recursion limit inside the checker in
  the first place; a baseline it rejects is not recorded as a table.
* **Self-healing reuse** — any exception from the snapshot route (a
  poisoned snapshot, a :class:`~repro.miniml.infer.TrailIntegrityError`)
  disarms the snapshot for the rest of the search, counts
  ``oracle.prefix.fallbacks``, and transparently answers the candidate
  from the decl table or from scratch; a failure inside the table route
  drops the table (``oracle.decl.fallbacks``) the same way.

Telemetry: an oracle holding a :class:`~repro.obs.MetricsRegistry` counts
``oracle.calls`` (and the ``.ok``/``.fail`` split),
``oracle.budget_exceeded``, the prefix-reuse set ``oracle.prefix.armed``/
``oracle.prefix.reused``/``oracle.prefix.fallbacks``/``oracle.full_checks``,
the trail pair
``oracle.trail.speculated``/``oracle.trail.rolled_back``, the
``oracle.decl.*`` table accounting, the resilience pair
``oracle.crashes``/``oracle.depth_rejected``, and the verdict store's
``oracle.store.*`` set (hits, misses, writes, invalidated entries, and
``io_errors``: segment reads or publishes that failed once and degraded
to cache misses, with no retry).  The default is the no-op
:data:`~repro.obs.NULL_METRICS`, so the hot path never branches on
whether telemetry is on.
"""

from __future__ import annotations

import sys
import traceback
from typing import List, Optional, Protocol

from repro.miniml.errors import MiniMLTypeError
from repro.miniml.infer import (
    CheckResult,
    record_decl_table,
    replay_decl_table,
    snapshot_prefix,
    typecheck_program,
)
from repro.obs import NULL_EVENTS, NULL_METRICS
from repro.tree import DepthProbe, StructuralKeyer, TreeTooDeep

#: How many crash messages an oracle keeps in :attr:`Oracle.crash_samples`
#: per search (every crash is still counted).
CRASH_SAMPLE_LIMIT = 5


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


class TypecheckFn(Protocol):
    def __call__(self, program) -> CheckResult: ...  # pragma: no cover


def _error_text(result: CheckResult) -> Optional[str]:
    return result.error.render() if result.error is not None else None


def _first_edit(baseline, program) -> Optional[int]:
    """Index of the first of ``baseline``'s declarations ``program`` does
    not share by identity; ``None`` when it shares every one it has."""
    pairs = enumerate(zip(baseline.decls, program.decls))
    return next((i for i, (mine, theirs) in pairs if mine is not theirs), None)


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
        :func:`~repro.miniml.infer.typecheck_program`, which turns reuse
        on (the table and snapshot routes, armed from the first check
        after :meth:`reset`); any custom checker is called from scratch
        for every check.
    max_calls:
        Hard budget; exceeding it raises :class:`BudgetExceeded`, which the
        searcher catches to return the suggestions found so far.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to count into (default: the
        shared no-op registry).

    Candidates deeper than :func:`default_max_depth` are rejected before
    the checker runs and before the store keys them
    (``oracle.depth_rejected``; never counted as a call).  Only the
    verdict store keys programs: the reuse tiers match declarations by
    identity, and the depth guard keeps its own memo of heights.
    """

    def __init__(
        self,
        typecheck: Optional[TypecheckFn] = None,
        max_calls: Optional[int] = None,
        metrics=None,
        events=None,
        store=None,
    ):
        self._typecheck = typecheck if typecheck is not None else typecheck_program
        self.max_calls = max_calls
        self.max_depth = default_max_depth()
        #: The one structural keyer of a search: only the verdict store
        #: keys programs, and :meth:`reset` clears it (the searcher
        #: reports its size as ``search.keys.interned``).
        self.keyer = StructuralKeyer()
        self._depth_probe = DepthProbe()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS
        #: Reuse is on exactly when the checker is MiniML's own: only it
        #: has a snapshot and a decl table to reuse.
        self._reuse = typecheck is None
        self.store = None
        self.reset()
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
        if len(self.crash_samples) < CRASH_SAMPLE_LIMIT:
            self.crash_samples.append(sample)
        self.events.emit("oracle_crash", error=sample)

    # ------------------------------------------------------------------
    # The persistent verdict store (the disk tier)
    # ------------------------------------------------------------------

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.VerdictStore` as the disk tier.

        Probe order per check: store → real check (the verdict is
        written back to the store on the way out).  A stored verdict is
        keyed by the program alone: the checker's answer depends on
        nothing else, whichever route computed it.  Store hits still
        count toward ``self.calls`` (the budget and the ``[N oracle
        calls]`` line, which must be byte-identical warm or cold) but
        *not* toward the ``oracle.calls`` metric or the reuse counters
        (``full_checks``, ``oracle.prefix.reused``, ...), which count work
        the checker actually did.
        """
        self.store = store
        n = store.take_invalidated()
        if n:
            self.metrics.incr("oracle.store.invalidated", n)
        self.drain_store_io()

    def drain_store_io(self) -> None:
        """Surface the store's failed segment I/O (see
        :meth:`VerdictStore.take_io_errors`) as the
        ``oracle.store.io_errors`` metric and a ``store_io_error`` event:
        a failed read or publish degrades to cache misses, but the report
        should still show it happened.  :func:`~repro.core.explain` calls
        this again after its end-of-search publish."""
        errors = self.store.take_io_errors()
        if errors:
            self.metrics.incr("oracle.store.io_errors", errors)
            self.events.emit("store_io_error", errors=errors)

    def _stored_result(self, entry) -> CheckResult:
        error = None
        if not entry.ok and entry.err is not None:
            error = StoredError(entry.err, entry.err_kind)
        return CheckResult(ok=entry.ok, error=error)

    def _store_write(self, skey, result) -> None:
        """Persist a freshly computed verdict (write failures degrade
        silently: the store is a cache)."""
        try:
            err = _error_text(result) if not result.ok else None
            err_kind = getattr(result.error, "kind", None) if result.error else None
            if self.store.put(skey, result.ok, err, err_kind):
                self.store_writes += 1
                self.metrics.incr("oracle.store.writes")
        except Exception:
            pass
        self.drain_store_io()

    # ------------------------------------------------------------------
    # Reuse: the declaration table and the prefix snapshot
    # ------------------------------------------------------------------

    def _decl_tier(self, program) -> Optional[CheckResult]:
        """Serve a full-path check from the declaration table.

        The first check to reach this tier records the table from the
        baseline: for the searcher that is the baseline check itself, so
        recording costs nothing beyond the check the search was going to
        pay anyway.  Returns ``None`` when the tier cannot answer (no
        table, ``program`` is not an unchanged prefix of the baseline) —
        the caller falls through.  Any exception inside the tier degrades
        the same way: the table is dropped, ``oracle.decl.fallbacks``
        counts the incident, and the caller supplies the (always correct)
        answer.
        """
        try:
            if self._baseline is not None:
                baseline, self._baseline = self._baseline, None
                if baseline is not program and (
                    _first_edit(baseline, program) is not None
                ):
                    # A candidate, reached with the baseline served from
                    # the store: the table could not answer it, and the
                    # prefix checks it serves are over.
                    return None
                table, base_result = record_decl_table(baseline)
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
                if base_result.decls_checked:
                    self.metrics.incr(
                        "oracle.decl.checked", base_result.decls_checked
                    )
            if self._decl_table is None:
                return None
            return replay_decl_table(program, self._decl_table)
        except Exception:
            self._decl_table = None
            self.metrics.incr("oracle.decl.fallbacks")
            return None

    def _arm_snapshot(self, program) -> bool:
        """Snapshot the declarations ``program`` shares with the
        baseline, at most once a search.

        Called on a check the table does not answer.  Only a check that
        *edits* a baseline declaration arms: the first candidate, which
        rewrites the failing declaration localization found, so the
        snapshot is the passing prefix every later candidate shares.  The
        baseline, its prefixes and its extensions edit nothing, and an
        edit of the first declaration leaves no prefix; neither uses up
        the arming.  False when nothing was armed: also when the shared
        prefix unexpectedly fails or snapshotting crashes (counted as an
        isolated crash — it must not kill the search).
        """
        baseline = self._arm_base
        if baseline is None:
            return False
        upto = _first_edit(baseline, program)
        if not upto:
            return False
        self._arm_base = None
        try:
            self._snapshot = snapshot_prefix(baseline, upto)
        except Exception as err:
            self._record_crash(err)
            return False
        if self._snapshot is None:
            return False
        self.metrics.incr("oracle.prefix.armed")
        return True

    def _speculate(self, program) -> Optional[CheckResult]:
        """Check ``program``'s suffix against the armed snapshot.

        ``None`` when no snapshot is armed, when ``program`` edited a
        declaration at or before the snapshot point (the snapshot stays
        armed for the next candidate), or when the snapshot route crashed:
        self-healing disarms it for the rest of the search.
        """
        snapshot = self._snapshot
        if snapshot is None or not snapshot.matches(program):
            return None
        # An error the store persists outlives the rollback, so it is
        # rendered *before* undo un-unifies the types it references.
        try:
            result = snapshot.check(program, freeze_errors=self.store is not None)
        except Exception as err:
            self._snapshot = None
            self.prefix_fallbacks += 1
            self.metrics.incr("oracle.prefix.fallbacks")
            self._record_crash(err)
            return None
        self._account_trail(result)
        self.prefix_reused += 1
        self.metrics.incr("oracle.prefix.reused")
        return result

    def _account_trail(self, result) -> None:
        """Count one check answered against shared live state under a trail."""
        self.metrics.incr("oracle.trail.speculated")
        if result.rolled_back:
            self.metrics.incr("oracle.trail.rolled_back", result.rolled_back)

    def _account_decls(self, result) -> None:
        """Fold one check's per-declaration accounting into the metrics."""
        checked = getattr(result, "decls_checked", 0)
        replayed = getattr(result, "decls_replayed", 0)
        skipped = getattr(result, "decls_skipped", 0)
        if checked:
            self.metrics.incr("oracle.decl.checked", checked)
        if replayed:
            self.metrics.incr("oracle.decl.replayed", replayed)
        if skipped:
            self.metrics.incr("oracle.decl.skipped", skipped)

    def _check_once(self, program) -> CheckResult:
        """One logical typecheck: snapshot, then table, then scratch."""
        result = self._speculate(program)
        if result is not None:
            return result
        served = self._decl_tier(program)
        # Arm before counting: a candidate the new snapshot answers is not
        # a full check.
        if served is None and self._arm_snapshot(program):
            result = self._speculate(program)
            if result is not None:
                return result
        # Table-served answers are full checks for every existing counter
        # (calls, full_checks): the table shows up only in the
        # oracle.decl.* family, so suggestions, ranks, and --stats are
        # byte-identical to a from-scratch oracle's.
        self.full_checks += 1
        self.metrics.incr("oracle.full_checks")
        return served if served is not None else self._typecheck(program)

    # ------------------------------------------------------------------
    # The oracle interface
    # ------------------------------------------------------------------

    def check(self, program) -> CheckResult:
        """Run the type-checker, honouring budget, store, and crash guard.

        Accounting order matters: the depth pre-check comes first (a
        too-deep candidate is rejected for free, before checking could
        recurse into it and before the store keys it; a tree too deep to
        key is rejected the same way); the budget gate comes next, so a
        call that raises :class:`BudgetExceeded` checked nothing and does
        not count toward ``calls``.  Finally, any unexpected exception
        from the checker is isolated: the candidate is rejected
        (``ok=False``) and the crash is counted instead of propagated.
        Only :class:`BudgetExceeded` ever escapes.
        """
        try:
            return self._check(program)
        except BudgetExceeded:
            raise
        except Exception as err:
            # Bookkeeping crashes (a store key or depth read that blew
            # up) — still candidate-reject.
            self._record_crash(err)
            return CheckResult(ok=False)

    def _check(self, program) -> CheckResult:
        if self._awaiting_baseline:
            # The search's baseline: the table records it, and the first
            # candidate arms the snapshot on it.
            self._awaiting_baseline = False
            self._baseline = self._arm_base = program
        if self._depth_probe.exceeds(program, self.max_depth):
            return self._reject_too_deep(program)
        skey = None
        if self.store is not None:
            # A tree too deep to key is too deep to check.
            try:
                skey = self.keyer(program)
            except TreeTooDeep:
                return self._reject_too_deep(program)
        if self.max_calls is not None and self.calls >= self.max_calls:
            self.metrics.incr("oracle.budget_exceeded")
            raise BudgetExceeded(self.max_calls)
        self.calls += 1
        if skey is not None:
            # Disk tier: probed *after* the budget gate and call counting
            # — a store hit spends budget exactly like a real check, so
            # the budget-exhaustion point (and the whole downstream
            # search) is identical warm or cold.
            try:
                stored = self.store.get(skey)
            except Exception:
                # A broken probe degrades to a miss — it must never leak
                # into the outer crash guard and reject the candidate.
                stored = None
            if stored is not None:
                self.store_hits += 1
                self.metrics.incr("oracle.store.hits")
                return self._stored_result(stored)
            self.store_misses += 1
            self.metrics.incr("oracle.store.misses")
        crashes = self.crashes
        try:
            result = self._check_once(program)
        except Exception as err:
            self._record_crash(err)
            result = CheckResult(ok=False)
        self._account_decls(result)
        self.metrics.incr("oracle.calls")
        self.metrics.incr("oracle.calls.ok" if result.ok else "oracle.calls.fail")
        # A check that crashed (a snapshot fallback included) produced a
        # checker failure, not an answer: never persist it.
        if skey is not None and self.crashes == crashes:
            self._store_write(skey, result)
        return result

    def _reject_too_deep(self, program) -> CheckResult:
        self.depth_rejections += 1
        self.metrics.incr("oracle.depth_rejected")
        if self._baseline is program:
            # Recording would infer the tree the guard just refused.
            self._baseline = None
        return CheckResult(ok=False)

    def passes(self, program) -> bool:
        """The boolean question the searcher actually asks."""
        return self.check(program).ok

    def reset(self) -> None:
        """Clear accounting, keys, depths and the reuse tiers between searches.

        The next check is the new search's baseline: the table records
        it, and the first candidate arms the snapshot on the declarations
        it shares with it.  The metrics registry is *not*
        cleared: it aggregates across searches by design (reset it
        explicitly if per-search numbers are wanted).
        """
        self.calls = 0
        self.full_checks = 0
        self.prefix_reused = 0
        self.prefix_fallbacks = 0
        self.crashes = 0
        self.depth_rejections = 0
        self.crash_samples: List[str] = []
        self._awaiting_baseline = self._reuse
        #: The baseline, until the table's recording pass consumes it.
        self._baseline = None
        self._decl_table = None
        #: The baseline, until a candidate arms the snapshot on it.
        self._arm_base = None
        self._snapshot = None
        self.store_hits = 0
        self.store_misses = 0
        self.store_writes = 0
        self.keyer.clear()
        self._depth_probe.clear()
