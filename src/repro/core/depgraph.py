"""Declaration dependency graph and per-declaration outcome table.

This is the planning half of dependency-pruned re-checking (the second
oracle reuse tier behind prefix snapshots).  The language-specific halves —
def/use extraction and the actual record/replay inference passes — live in
:mod:`repro.miniml.deps` and :mod:`repro.miniml.infer`; everything here
operates on opaque ``(namespace, name)`` pairs and structural keys, so the
planner itself is checker-agnostic.

The contract: an armed baseline program has been fully inferred once, and
each declaration's outcome recorded in a :class:`DeclTable` entry —
structural key, def/use sets, the resulting schemes (opaque to this
module), and canonical fingerprints of both the schemes it produced and
the used-names slice of the environment it was checked in.  Given a
candidate near-copy, :func:`plan_replay` decides per declaration whether
the recorded outcome can be *replayed* or the declaration must be
*checked* (really re-inferred):

* a declaration whose structural key differs from the recorded one is
  changed — it must be checked, and the names it defines (in both its
  baseline and candidate form) become *dirty*;
* an unchanged declaration that uses a dirty name can observe the change —
  checked, and its defs become dirty too;
* an unchanged declaration that *re-defines* a dirty name without using it
  shadows the change — the name leaves the dirty set, cutting the
  dependency edge for everything after it;
* declarations entangled through the value restriction (recorded schemes
  sharing free type variables — e.g. ``let r = ref []`` observed through
  later uses) are handled as cliques: if any checked declaration touches a
  weak name, *every* declaration touching a weak name is checked, because
  replaying a weak scheme bakes in constraints the baseline's later
  declarations applied to it.

Replay-time fingerprint verification (in the checker's replay pass) is the
belt-and-braces backstop: a replayed declaration whose used-names
environment slice no longer matches the recording degrades to a real
check — never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Name = Tuple[str, str]

#: Planner decisions, per candidate declaration index.
PLAN_REPLAY = "replay"
PLAN_CHECK = "check"


@dataclass
class DeclOutcome:
    """The recorded outcome of one baseline declaration.

    ``bindings``, ``error``, and the fingerprint payloads are opaque here;
    the checker that recorded them is the only consumer.
    """

    #: Structural key of the declaration node (shared-keyer interned).
    skey: Any
    uses: FrozenSet[Name] = field(default_factory=frozenset)
    defs: FrozenSet[Name] = field(default_factory=frozenset)
    #: Value bindings this declaration introduced (name -> scheme).
    bindings: Dict[str, Any] = field(default_factory=dict)
    #: Canonical fingerprint of each binding's resulting scheme.
    scheme_fp: Dict[str, str] = field(default_factory=dict)
    #: Canonical fingerprint of the used-names env slice (only names bound
    #: by earlier declarations of the same program — base-env names cannot
    #: change between baseline and candidate).
    env_fp: Dict[str, str] = field(default_factory=dict)
    #: Value names bound here whose scheme had free type variables when
    #: bound (the value restriction's weak bindings), even if a later
    #: declaration of the baseline pinned them.
    weak_names: FrozenSet[str] = field(default_factory=frozenset)
    #: The recorded checker error, when this declaration failed (the
    #: baseline pass stops here; no later entries exist).
    error: Optional[Any] = None


@dataclass
class DeclTable:
    """Per-declaration outcome table for one armed baseline program.

    ``free_vars`` collects the free type variables of all weak recorded
    schemes.  A replay pass binds the recorded schemes live; when this is
    non-empty it runs under an undo trail, so a candidate's unifications
    with those variables are rolled back and the recorded table is never
    mutated (see :func:`repro.miniml.infer.replay_decl_table`).
    """

    entries: List[DeclOutcome] = field(default_factory=list)
    free_vars: Tuple[Any, ...] = ()
    #: Chaos hook (see repro.faults): a stale table must fail every
    #: replay-time fingerprint verification, degrading to real checks.
    stale: bool = False
    #: Lazily cached :attr:`weak_value_names` — entries are frozen after
    #: recording, and the replay planner asks once per oracle call.
    _weak_cache: Optional[FrozenSet[str]] = None
    #: Lazily cached :attr:`self_consistent` (same freezing argument).
    _consistent_cache: Optional[bool] = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def weak_value_names(self) -> FrozenSet[str]:
        cached = self._weak_cache
        if cached is None:
            weak: Set[str] = set()
            for entry in self.entries:
                weak.update(entry.weak_names)
            cached = frozenset(weak)
            self._weak_cache = cached
        return cached

    @property
    def self_consistent(self) -> bool:
        """Whether every entry's recorded env slice matches the table.

        Replay-time fingerprint verification, applied to an *unchanged*
        program, compares each entry's ``env_fp`` against the
        ``scheme_fp`` of whichever earlier entry (in shadowing order) last
        defined the name — a computation over the table alone.  The
        pure-prefix replay fast path verifies it here once per table
        instead of once per check; a corrupted table fails and falls back
        to the slow loop, which degrades the affected suffix to real
        checks exactly as before.
        """
        cached = self._consistent_cache
        if cached is None:
            current: Dict[str, str] = {}
            cached = True
            for entry in self.entries:
                for name, fp in entry.env_fp.items():
                    if current.get(name) != fp:
                        cached = False
                        break
                if not cached:
                    break
                current.update(entry.scheme_fp)
            self._consistent_cache = cached
        return cached


def _forward_plan(
    n: int,
    seeds: Set[int],
    uses_of,
    defs_of,
    baseline_defs_of,
) -> Set[int]:
    """One pass of dirty-name propagation; returns the checked set."""
    dirty: Set[Name] = set()
    checked: Set[int] = set()
    for i in range(n):
        if i in seeds:
            checked.add(i)
            dirty |= defs_of(i) | baseline_defs_of(i)
        elif uses_of(i) & dirty:
            checked.add(i)
            dirty |= defs_of(i)
        else:
            dirty -= defs_of(i)
    return checked


def plan_replay(
    table: DeclTable,
    candidate_skeys: Sequence[Any],
    candidate_use_defs: Sequence[Tuple[FrozenSet[Name], FrozenSet[Name]]],
) -> List[str]:
    """Per-declaration replay/check plan for a candidate program.

    ``candidate_skeys[i]`` is the structural key of candidate declaration
    ``i`` (from the same shared keyer the table was recorded with);
    ``candidate_use_defs[i]`` its def/use summary.  The result has one
    :data:`PLAN_REPLAY` / :data:`PLAN_CHECK` decision per candidate
    declaration.
    """
    n = len(candidate_skeys)
    m = len(table.entries)
    changed: Set[int] = set()
    for i in range(n):
        if i >= m or candidate_skeys[i] != table.entries[i].skey:
            changed.add(i)

    def uses_of(i: int) -> FrozenSet[Name]:
        if i in changed or i >= m:
            return candidate_use_defs[i][0]
        return table.entries[i].uses

    def defs_of(i: int) -> FrozenSet[Name]:
        if i in changed or i >= m:
            return candidate_use_defs[i][1]
        return table.entries[i].defs

    def baseline_defs_of(i: int) -> FrozenSet[Name]:
        # A changed declaration dirties what it *used to* define too: a
        # candidate that renames `let f` to `let g` must invalidate
        # baseline users of `f` (their recorded check resolved `f` here).
        if i in changed and i < m:
            return table.entries[i].defs
        return frozenset()

    weak = table.weak_value_names
    weak_names: FrozenSet[Name] = frozenset(("value", name) for name in weak)

    def touches_weak(i: int) -> bool:
        return bool((uses_of(i) | defs_of(i) | baseline_defs_of(i)) & weak_names)

    seeds = set(changed)
    while True:
        checked = _forward_plan(n, seeds, uses_of, defs_of, baseline_defs_of)
        if weak_names and any(touches_weak(i) for i in checked):
            # Value-restriction clique: a checked declaration can link the
            # weak schemes' free type variables differently than the
            # baseline did, so every declaration touching a weak name must
            # be re-inferred together (fresh, unconstrained variables).
            escalated = seeds | {i for i in range(n) if touches_weak(i)}
            if escalated != seeds:
                seeds = escalated
                continue
        break
    return [PLAN_CHECK if i in checked else PLAN_REPLAY for i in range(n)]
