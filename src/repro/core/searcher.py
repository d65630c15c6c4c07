"""The searcher: SEMINAL's top-down search procedure (Sections 2.1-2.3).

Given an ill-typed program, the searcher:

1. tests increasingly long prefixes of the top-level definitions to localize
   the first failing definition (Section 2.1),
2. descends recursively from that definition, using *removal* (replacement
   by the ``raise Foo`` wildcard) to find the smallest subtrees whose removal
   makes the program type-check,
3. at every removal-successful node, additionally tries the enumerator's
   *constructive changes* (Section 2.2) and *adaptation to context*
   (Section 2.3),
4. when the only result for a sizable subtree is removing it wholesale,
   switches to *triage* mode (Section 2.4, :mod:`repro.core.triage`) to
   isolate one of several independent errors.

The searcher knows nothing about MiniML's type system: every decision is a
boolean oracle answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from repro.miniml.ast_nodes import (
    Binding,
    DExpr,
    DLet,
    Decl,
    EVar,
    Expr,
    Pattern,
    Program,
)
from repro.miniml.errors import MiniMLTypeError
from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_TRACER, format_path
from repro.tree import Node, Path, StructuralKeyer, get_at, node_size, replace_at

from .changes import (
    KIND_ADAPT,
    KIND_REMOVE,
    Change,
    ChangeNode,
    Suggestion,
)
from .enumerator import (
    MiniMLEnumerator,
    adapt_expr,
    is_searchable,
    wildcard_expr,
    wildcard_for,
)
from .oracle import BudgetExceeded, Oracle
from .resilience import (
    Deadline,
    DeadlineExceeded,
    DegradationReport,
    REASON_BUDGET,
    REASON_CRASH,
    REASON_DEADLINE,
    REASON_FALLBACK,
)


@dataclass
class SearchConfig:
    """Tunables for the search procedure.

    ``triage_threshold`` is the paper's "nontrivial number of descendants":
    a subtree smaller than this is simply reported as removable rather than
    triaged.  ``max_triage_depth`` bounds nested triage.
    ``disabled_rules`` feeds the enumerator (ablation studies).
    """

    max_oracle_calls: Optional[int] = 20000
    #: Wall-clock budget for the whole search (None = unlimited).  Checked
    #: in :meth:`Searcher._tick` before every oracle test; exhaustion never
    #: escapes ``explain()`` — the outcome carries the best-so-far
    #: suggestions plus a :class:`~repro.core.resilience.DegradationReport`.
    deadline_seconds: Optional[float] = None
    #: Fraction of the deadline after which the searcher sheds its
    #: expensive optional phases (constructive changes, adaptation,
    #: triage) to protect the removal results already in hand.
    shed_fraction: float = 0.85
    enable_triage: bool = True
    enable_adaptation: bool = True
    #: Arm the oracle's prefix snapshot after localization so candidates
    #: (which only ever mutate the failing declaration) skip re-inferring
    #: the passing prefix.  Answer-preserving; off = from-scratch per call.
    incremental: bool = True
    #: Arm the oracle's declaration outcome table before the initial check
    #: (the second reuse tier, behind prefix snapshots): full-path checks —
    #: chiefly the O(n²) localization prefixes — replay recorded schemes
    #: for unaffected declarations and really re-infer only changed ones
    #: and their dependents.  Answer-preserving by construction (replays
    #: are fingerprint-verified and degrade to real checks); requires
    #: ``incremental``.
    depprune: bool = True
    #: Trail-based speculative inference (the third reuse tier, in front
    #: of the copying prefix path): candidates are checked against the
    #: *live* armed environment and every destructive write is rolled
    #: back via an undo trail, skipping the per-check table/value copies
    #: entirely.  Answer-preserving (any trail-integrity violation
    #: degrades to the copying path); requires ``incremental``.
    speculate: bool = True
    triage_threshold: int = 5
    max_triage_depth: int = 3
    disabled_rules: Sequence[str] = ()
    #: Sibling-removal strategy for triage contexts (Section 2.4 discusses
    #: the design space): "greedy" is the paper's cumulative one-at-a-time
    #: middle road, "remove-all" wildcards every other sibling at once,
    #: "exhaustive" searches minimal subsets (exponential; bounded).
    triage_strategy: str = "greedy"
    #: Eager (non-lazy) change enumeration — the A1 ablation strawman.
    eager_enumeration: bool = False
    #: User-supplied change generators (the Section 6 open framework).
    custom_rules: Sequence = ()
    #: Skip the oracle call for candidates whose structural key was already
    #: tested in this ``search_program`` run, replaying the memoized
    #: verdict instead — suggestions are unchanged by construction; only
    #: duplicate checks are saved (``search.dedup_skipped``).
    dedup: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.shed_fraction <= 1.0):
            raise ValueError(
                f"shed_fraction must be in (0, 1], got {self.shed_fraction!r}"
            )

    @property
    def soft_deadline_fraction(self) -> float:
        """Backward-compatible alias for :attr:`shed_fraction` (the knob's
        pre-supervision name)."""
        return self.shed_fraction


@dataclass
class SearchStats:
    """Where the oracle calls went (the paper's efficiency story, itemized).

    Section 2.2 motivates lazy change collections by oracle-call cost; this
    breakdown shows which search phase spends them on a given file.
    """

    prefix_tests: int = 0
    removal_tests: int = 0
    constructive_tests: int = 0
    adaptation_tests: int = 0
    triage_tests: int = 0
    #: Candidates whose verdict was replayed from the per-search dedup
    #: memo instead of spending an oracle call (not counted in any of the
    #: per-phase test counters above).
    dedup_skipped: int = 0
    rule_successes: Dict[str, int] = field(default_factory=dict)

    def record_success(self, rule: str) -> None:
        key = rule or "(removal/adapt)"
        self.rule_successes[key] = self.rule_successes.get(key, 0) + 1

    def summary(self) -> str:
        parts = [
            f"prefix={self.prefix_tests}",
            f"removal={self.removal_tests}",
            f"constructive={self.constructive_tests}",
            f"adaptation={self.adaptation_tests}",
            f"triage={self.triage_tests}",
        ]
        line = "oracle calls by phase: " + " ".join(parts)
        if self.dedup_skipped:
            line += f"\nduplicate candidates skipped: {self.dedup_skipped}"
        if self.rule_successes:
            winners = ", ".join(
                f"{name}x{count}"
                for name, count in sorted(self.rule_successes.items(), key=lambda kv: -kv[1])
            )
            line += f"\nsuccessful changes: {winners}"
        return line


@dataclass
class SearchOutcome:
    """Everything the search learned about one ill-typed program."""

    ok: bool
    program: Program
    checker_error: Optional[MiniMLTypeError] = None
    suggestions: List[Suggestion] = field(default_factory=list)
    bad_decl_index: Optional[int] = None
    oracle_calls: int = 0
    budget_exhausted: bool = False
    stats: SearchStats = field(default_factory=SearchStats)
    #: What (if anything) the search gave up: reasons, crash counts,
    #: shed phases, elapsed wall clock.  Always present after a search.
    degradation: DegradationReport = field(default_factory=DegradationReport)


class Searcher:
    """Drives the change worklist against the oracle (paper Figure 1).

    ``tracer``/``metrics`` are the profiling hooks: spans are emitted for
    every search phase (``localize``, ``descend``, ``enumerate``, ``adapt``,
    and — via :mod:`repro.core.triage` — ``triage``), each carrying the AST
    path, node size, and oracle calls consumed.  The defaults are the
    shared null objects, which keep the hot path allocation-free.
    """

    def __init__(
        self,
        oracle: Optional[Oracle] = None,
        enumerator: Optional[MiniMLEnumerator] = None,
        config: Optional[SearchConfig] = None,
        tracer=None,
        metrics=None,
        events=None,
    ):
        self.config = config or SearchConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS
        self.oracle = oracle or Oracle(
            max_calls=self.config.max_oracle_calls,
            metrics=self.metrics,
            speculate=self.config.speculate,
        )
        # Adopt a caller-supplied oracle into this search's registry unless
        # it was already wired to one of its own (same for the event log).
        if self.metrics is not NULL_METRICS and self.oracle.metrics is NULL_METRICS:
            self.oracle.metrics = self.metrics
        if self.events is not NULL_EVENTS and getattr(
            self.oracle, "events", NULL_EVENTS
        ) is NULL_EVENTS:
            self.oracle.events = self.events
        self.enumerator = enumerator or MiniMLEnumerator(
            self.config.disabled_rules,
            eager=self.config.eager_enumeration,
            custom_rules=self.config.custom_rules,
            metrics=self.metrics,
        )
        if self.metrics is not NULL_METRICS and self.enumerator.metrics is NULL_METRICS:
            self.enumerator.metrics = self.metrics
        self.stats = SearchStats()
        self.degradation = DegradationReport()
        self._deadline: Optional[Deadline] = None
        #: One structural keyer per search: the dedup memo, the oracle's
        #: cache/store keys, and the declaration outcome table all intern
        #: subtree keys into this single identity memo
        #: (``search.keys.interned``), instead of each call site paying to
        #: rebuild keys for the same shared subtrees.
        self._keyer = StructuralKeyer()
        self.oracle.adopt_keyer(self._keyer)
        self._dedup_keyer: Optional[StructuralKeyer] = (
            self._keyer if self.config.dedup else None
        )
        #: The dedup memo: candidate structural key -> verdict.
        self._tested: Dict[object, bool] = {}

    def _tick(self, phase: str) -> None:
        """Count one oracle test against a phase, in both sinks.

        Doubles as the deadline checkpoint: every oracle test passes
        through here, so the wall-clock budget is enforced with call-level
        granularity alongside the oracle-call budget.
        """
        setattr(self.stats, phase, getattr(self.stats, phase) + 1)
        self.metrics.incr("search." + phase)
        deadline = self._deadline
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(deadline.seconds, deadline.elapsed())

    def _shed(self, phase: str) -> bool:
        """Whether the soft deadline says to skip one unit of ``phase``.

        Past ``soft_deadline_fraction`` of the wall-clock budget the
        search keeps its cheap removal descent but sheds the expensive
        optional phases, so the hard deadline lands on a search that has
        already banked its best-effort answers.
        """
        deadline = self._deadline
        if deadline is None or not deadline.soft_expired():
            return False
        self.degradation.note_shed(phase)
        self.metrics.incr("search.shed." + phase)
        return True

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def search_program(self, program: Program) -> SearchOutcome:
        """Search for changes that make ``program`` type-check.

        Best-effort by contract: budget or deadline exhaustion (and any
        isolated oracle crash) never raises out of here — the outcome
        carries whatever suggestions were found plus a
        :class:`~repro.core.resilience.DegradationReport` saying what was
        given up.
        """
        self.oracle.reset()
        self.stats = SearchStats()
        self._tested = {}
        self._keyer.clear()
        report = DegradationReport(
            budget=self.config.max_oracle_calls,
            deadline_seconds=self.config.deadline_seconds,
        )
        report.attach_events(self.events)
        self.degradation = report
        self._deadline = Deadline(
            self.config.deadline_seconds, self.config.shed_fraction
        )
        with self.tracer.span("search", decls=len(program.decls)) as sp:
            outcome = SearchOutcome(ok=False, program=program, degradation=report)
            try:
                # Arm the declaration outcome table *before* the initial
                # check: recording piggybacks on that check's full pass, so
                # every later full-path check (localization prefixes above
                # all) replays unaffected declarations instead of
                # re-inferring them.
                if self.config.depprune and self.config.incremental:
                    self.oracle.arm_decl_table(program)
                first = self.oracle.check(program)
                if first.ok:
                    outcome.ok = True
                else:
                    outcome.checker_error = first.error
                    bad = self._localize_bad_decl(program)
                    outcome.bad_decl_index = bad
                    # Everything before the failing declaration passed, and
                    # every candidate below only mutates that declaration — so
                    # snapshot the prefix environment once and let the oracle
                    # check candidates incrementally from there.
                    if self.config.incremental:
                        self.oracle.arm_prefix(program, bad)
                    # Search within the failing prefix: later declarations are
                    # ignored entirely, as in the paper ("It does not examine
                    # the third top-level binding").
                    prefix = Program(program.decls[: bad + 1])
                    outcome.suggestions = self._search_decl(prefix, (("decls", bad),))
            except BudgetExceeded:
                outcome.budget_exhausted = True
                report.note(REASON_BUDGET)
            except DeadlineExceeded:
                report.note(REASON_DEADLINE)
            outcome.oracle_calls = self.oracle.calls
            outcome.stats = self.stats
            self._finalize_degradation(report)
            interned = self._keyer.interned
            if interned:
                self.metrics.incr("search.keys.interned", interned)
            if not outcome.ok:
                self.metrics.incr("search.suggestions", len(outcome.suggestions))
            sp.set("oracle_calls", self.oracle.calls)
            sp.set("suggestions", len(outcome.suggestions))
            return outcome

    def _finalize_degradation(self, report: DegradationReport) -> None:
        """Fold the oracle's resilience accounting into the search report."""
        oracle = self.oracle
        report.oracle_crashes = getattr(oracle, "crashes", 0)
        report.prefix_fallbacks = getattr(oracle, "prefix_fallbacks", 0)
        report.depth_rejections = getattr(oracle, "depth_rejections", 0)
        report.crash_samples = list(getattr(oracle, "crash_samples", ()))
        if report.oracle_crashes or report.depth_rejections:
            report.note(REASON_CRASH)
        if report.prefix_fallbacks:
            report.note(REASON_FALLBACK)
        if self._deadline is not None:
            report.elapsed_seconds = self._deadline.elapsed()
        if report.degraded:
            self.metrics.incr("search.degraded")

    def _localize_bad_decl(self, program: Program) -> int:
        """Index of the first top-level declaration whose prefix fails.

        Precondition: the whole program is known to fail (``search_program``
        checked it).  The final prefix *is* the whole program, so when every
        proper prefix passes the answer must be the last declaration — no
        oracle call needed to re-confirm the failure we started from.
        """
        with self.tracer.span("localize", decls=len(program.decls)) as sp:
            calls_before = self.oracle.calls
            last = len(program.decls) - 1
            for i in range(last):
                self._tick("prefix_tests")
                if not self.oracle.passes(Program(program.decls[: i + 1])):
                    sp.set("bad_decl", i)
                    sp.set("oracle_calls", self.oracle.calls - calls_before)
                    return i
            sp.set("bad_decl", last)
            sp.set("oracle_calls", self.oracle.calls - calls_before)
            return last

    # ------------------------------------------------------------------
    # Declaration-level search
    # ------------------------------------------------------------------

    def _search_decl(self, root: Program, decl_path: Path) -> List[Suggestion]:
        decl = get_at(root, decl_path)
        results: List[Suggestion] = []
        # Declaration-level constructive changes (e.g. ``make-rec``).
        results.extend(self._try_changes(root, decl_path, decl))
        # Recurse into the searchable roots of the declaration.
        for sub_path in self._searchable_children(root, decl_path):
            target = get_at(root, sub_path)
            wildcard = wildcard_for(target)
            if wildcard is None:
                continue
            self._tick("removal_tests")
            if self._passes(replace_at(root, sub_path, wildcard)):
                results.extend(self._search(root, sub_path, triage_depth=0))
        return results

    # ------------------------------------------------------------------
    # Regular-mode recursive search
    # ------------------------------------------------------------------

    def _search(self, root: Program, path: Path, triage_depth: int) -> List[Suggestion]:
        """Search below ``path``.

        Precondition: replacing the node at ``path`` with a wildcard makes
        ``root`` type-check.
        """
        node = get_at(root, path)
        # Expensive span labels (pretty path, subtree size) are computed only
        # when a real tracer is listening.
        if self.tracer.enabled:
            span = self.tracer.span(
                "descend",
                path=format_path(path),
                size=node_size(node),
                depth=triage_depth,
            )
        else:
            span = self.tracer.span("descend")
        with span as sp:
            calls_before = self.oracle.calls
            results = self._search_below(root, path, node, triage_depth)
            sp.set("oracle_calls", self.oracle.calls - calls_before)
            return results

    def _search_below(
        self, root: Program, path: Path, node: Node, triage_depth: int
    ) -> List[Suggestion]:
        results: List[Suggestion] = []

        # 1. Find children whose lone removal also fixes the program.
        child_fixes: List[Path] = []
        for child_path in self._searchable_children(root, path):
            child = get_at(root, child_path)
            wildcard = wildcard_for(child)
            if wildcard is None:
                continue
            self._tick("removal_tests")
            if self._passes(replace_at(root, child_path, wildcard)):
                child_fixes.append(child_path)

        # 2. Recurse into each fixing child: the error is localizable deeper.
        for child_path in child_fixes:
            results.extend(self._search(root, child_path, triage_depth))

        # 3. Constructive changes at this node (shed past the soft deadline:
        #    the removal results above are the cheap, already-banked core).
        if not self._shed("constructive"):
            constructive = self._try_changes(root, path, node)
            results.extend(constructive)

        # 4. Adaptation to context (expressions only).  Build the adapted
        #    expression once: the replacement reported in the Change must be
        #    the very object the oracle tested, not a second wrapping.
        if (
            self.config.enable_adaptation
            and isinstance(node, Expr)
            and not self._shed("adaptation")
        ):
            adapted_node = adapt_expr(node)
            adapted = replace_at(root, path, adapted_node)
            self._tick("adaptation_tests")
            if self.tracer.enabled:
                span = self.tracer.span("adapt", path=format_path(path))
            else:
                span = self.tracer.span("adapt")
            with span as sp:
                fits = self._passes(adapted)
                sp.set("fits", fits)
            if fits:
                change = Change(
                    path=path,
                    original=node,
                    replacement=adapted_node,
                    kind=KIND_ADAPT,
                    description="the expression is well-typed on its own; "
                    "its context expects a different type",
                )
                results.append(self._suggest(change, adapted))

        # 5. If no child removal fixed things, this node is a minimal
        #    removable unit: report its removal.
        if not child_fixes:
            wildcard = wildcard_for(node)
            if wildcard is not None:
                fixed = replace_at(root, path, wildcard)
                change = Change(
                    path=path,
                    original=node,
                    replacement=wildcard,
                    kind=KIND_REMOVE,
                    description="removing this expression fixes the type error",
                )
                suggestion = self._suggest(change, fixed)
                self._flag_unbound(root, path, node, suggestion)
                results.append(suggestion)

        # 6. Triage: the only outcome for a big subtree is removing it all.
        only_removal = all(s.kind == KIND_REMOVE and s.change.path == path for s in results)
        if (
            only_removal
            and self.config.enable_triage
            and triage_depth < self.config.max_triage_depth
            and node_size(node) > self.config.triage_threshold
        ):
            from .triage import triage_node

            triaged = triage_node(self, root, path, triage_depth + 1)
            if triaged:
                # The wholesale removal that triggered triage "is almost
                # never useful" (Section 2.4); report the isolated errors.
                results = [
                    s
                    for s in results
                    if not (s.kind == KIND_REMOVE and s.change.path == path)
                ]
                results.extend(triaged)
        return results

    # ------------------------------------------------------------------
    # Change application
    # ------------------------------------------------------------------

    def _try_changes(self, root: Program, path: Path, node: Node) -> List[Suggestion]:
        """Run the enumerator's (lazy, structured) changes for one node."""
        results: List[Suggestion] = []
        # FIFO worklist: a deque keeps lazy expansions O(1) per pop where
        # ``list.pop(0)`` was O(n) (quadratic over long expansion chains).
        worklist: Deque[ChangeNode] = deque(self.enumerator.changes(node, path))
        if not worklist:
            return results
        if self.tracer.enabled:
            span = self.tracer.span("enumerate", path=format_path(path))
        else:
            span = self.tracer.span("enumerate")
        with span as sp:
            calls_before = self.oracle.calls
            tested = self._drain(root, worklist, results)
            sp.set("tested", tested)
            sp.set("successes", len(results))
            sp.set("oracle_calls", self.oracle.calls - calls_before)
        return results

    def _drain(
        self,
        root: Program,
        worklist: Deque[ChangeNode],
        results: List[Suggestion],
    ) -> int:
        """The worklist loop, plus the per-search dedup memo."""
        tested = 0
        keyer = self._dedup_keyer
        while worklist:
            change_node = worklist.popleft()
            change = change_node.change
            candidate = replace_at(root, change.path, change.replacement)
            key = keyer(candidate) if keyer is not None else None
            verdict = self._tested.get(key) if key is not None else None
            if verdict is None:
                self._tick("constructive_tests")
                self.metrics.incr(f"enum.tested.{change.rule or 'unknown'}")
                tested += 1
                verdict = self._passes(candidate)
                if key is not None:
                    self._tested[key] = verdict
            else:
                self._count_dedup_skip()
            self._apply_verdict(change_node, change, candidate, verdict, results, worklist)
        return tested

    def _count_dedup_skip(self) -> None:
        self.stats.dedup_skipped += 1
        self.metrics.incr("search.dedup_skipped")

    def _apply_verdict(
        self,
        change_node: ChangeNode,
        change: Change,
        candidate: Program,
        verdict: bool,
        results: List[Suggestion],
        worklist: Deque[ChangeNode],
    ) -> None:
        """Record one (candidate, verdict) pair: suggestion + expansions.

        This is the only place enumeration outcomes are produced, shared
        verbatim by checked and memo-replayed candidates — which is what
        makes "byte-identical suggestions" with dedup on or off a
        structural property rather than a testing hope.
        """
        if verdict:
            if not change.is_probe:
                self.stats.record_success(change.rule)
                self.metrics.incr(f"enum.success.{change.rule or 'unknown'}")
                results.append(self._suggest(change, candidate))
            if change_node.on_success is not None:
                worklist.extend(self._expanded(change_node.on_success()))
        else:
            if change_node.on_failure is not None:
                worklist.extend(self._expanded(change_node.on_failure()))

    def _expanded(self, followups: List[ChangeNode]) -> List[ChangeNode]:
        """Count lazily expanded follow-up changes (generated-vs-tested)."""
        if self.metrics.enabled:
            for cn in followups:
                self.metrics.incr(f"enum.generated.{cn.change.rule or 'unknown'}")
        return followups

    def _suggest(self, change: Change, fixed_program: Program) -> Suggestion:
        return Suggestion(change=change, program=fixed_program)

    def _flag_unbound(self, root: Program, path: Path, node: Node, suggestion: Suggestion) -> None:
        """Removal worked; if adaptation fails on a variable it is unbound.

        Section 3.3: "because removing print works but replacing it with
        adapt print does not, we can conclude that print is an unbound
        variable."
        """
        if not isinstance(node, EVar):
            return
        if not self.config.enable_adaptation:
            return
        self._tick("adaptation_tests")
        if not self._passes(replace_at(root, path, adapt_expr(node))):
            suggestion.unbound_variable = node.name

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _passes(self, program: Program) -> bool:
        return self.oracle.passes(program)

    def _searchable_children(self, root: Program, path: Path) -> Iterator[Path]:
        """Paths of the nearest searchable descendants (exprs/patterns),
        looking through transparent nodes like match cases and bindings."""
        node = get_at(root, path)
        yield from self._searchable_under(node, path)

    def _searchable_under(self, node: Node, path: Path) -> Iterator[Path]:
        for step, child in node.child_items():
            child_path = path + (step,)
            if is_searchable(child):
                yield child_path
            else:
                yield from self._searchable_under(child, child_path)
