"""Per-layer timing for the traced run: wrappers around each layer's public
functions, installed from outside the program where its callers look them up.

A layer's self time is the time inside its wrapped calls minus the time in
wrapped calls nested inside them, so self times add up to the time spent
inside the outermost wrapped calls.  The names the program binds at import
or construction time are patched in the namespace the caller reads:
``seminal`` imports ``parse_program`` and ``rank`` by name, and ``Oracle``
binds ``typecheck_program`` and the reuse-tier functions from
``repro.core.oracle`` when it is built, so the wrappers must be in place
before the traced calls construct their oracles.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import repro.core.oracle as oracle_module
import repro.core.seminal as seminal_module
from repro.core.enumerator import MiniMLEnumerator
from repro.core.oracle import Oracle
from repro.core.searcher import Searcher
from repro.core.seminal import ExplainResult
from repro.miniml.infer import SpeculativeState
from repro.store.verdicts import VerdictStore
from repro.tree import DepthProbe, StructuralKeyer


def _typecheck_kind(args, kwargs) -> str:
    """A check against an armed snapshot (the copying reuse path) or a
    check from scratch."""
    return "infer.snapshot_check" if kwargs.get("prefix") is not None else "infer.typecheck"


def _count_candidates(trace: "LayerTrace", result) -> None:
    trace.calls["enumerator.candidates"] += len(result)


def _count_accepted(trace: "LayerTrace", result) -> None:
    if result.ok:
        trace.calls["oracle.accepted"] += 1


#: (owner, attribute, self-time bucket, call-count name, result tally).
#: A bucket is a layer, except that the store's calls keep one per method.
#: A callable count name is given the call's arguments.
PATCHES: List[Tuple[object, str, str, object, Optional[Callable]]] = [
    (seminal_module, "parse_program", "parse", "parse.calls", None),
    (Searcher, "search_program", "searcher", "searcher.calls", None),
    (MiniMLEnumerator, "changes", "enumerator", "enumerator.calls", _count_candidates),
    (Oracle, "check", "oracle", "oracle.checks", _count_accepted),
    (DepthProbe, "exceeds", "depth_probe", "depth_probe.calls", None),
    (StructuralKeyer, "__call__", "keyer", "keyer.calls", None),
    (oracle_module, "typecheck_program", "infer", _typecheck_kind, None),
    (oracle_module, "snapshot_prefix", "infer", "infer.snapshot", None),
    (oracle_module, "record_decl_table", "infer", "infer.record", None),
    (oracle_module, "replay_decl_table", "infer", "infer.replay", None),
    (SpeculativeState, "check", "infer", "infer.speculate", None),
    (seminal_module, "rank", "ranker", "ranker.calls", None),
    (ExplainResult, "render", "render", "render.calls", None),
    (ExplainResult, "render_best", "render", "render.calls", None),
    (VerdictStore, "__init__", "store.open", "store.open", None),
    (VerdictStore, "get", "store.get", "store.get", None),
    (VerdictStore, "put", "store.put", "store.put", None),
    (VerdictStore, "flush", "store.flush", "store.flush", None),
    (VerdictStore, "close", "store.flush", "store.close", None),
]

#: The calls of every entry point into inference.
INFER_CALLS = (
    "infer.typecheck",
    "infer.snapshot_check",
    "infer.snapshot",
    "infer.record",
    "infer.replay",
    "infer.speculate",
)


class LayerTrace:
    """Self time and call counts per layer, accumulated while installed."""

    def __init__(self) -> None:
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        #: Time spent in wrapped calls nested in each open wrapped call.
        self._nested: List[float] = [0.0]

    def _wrap(self, fn: Callable, bucket: str, count, tally: Optional[Callable]):
        clock = time.perf_counter
        nested = self._nested
        self_s = self.self_s
        calls = self.calls

        def timed(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[bucket] += elapsed - nested.pop()
                nested[-1] += elapsed
                calls[count if isinstance(count, str) else count(args, kwargs)] += 1
            if tally is not None:
                tally(self, result)
            return result

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, name, bucket, count, tally in PATCHES:
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, bucket, count, tally))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    @property
    def covered_s(self) -> float:
        """Time inside the outermost wrapped calls (the sum of self times)."""
        return sum(self.self_s.values())
