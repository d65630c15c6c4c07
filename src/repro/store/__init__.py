"""Persistent cross-run verdict store (the oracle's disk tier).

SEMINAL's cost model is oracle calls: the searcher asks the type-checker
thousands of yes/no questions, and most of them recur verbatim across
runs — re-explaining the same file after an edit, re-running the corpus
study, or serving repeated traffic.  The oracle's prefix snapshot and
decl table only live for one search; this package persists verdicts to
disk so every subsequent run warm-starts.

Contents:

* :mod:`repro.store.fingerprint` — the content-addressed key scheme:
  ``(checker fingerprint, structural key)``.
* :mod:`repro.store.verdicts` — :class:`VerdictStore`: append-only JSONL
  segment files published atomically (write-temp + rename) so concurrent
  processes share one directory without locks; corrupt or torn segments
  are skipped, never raised (the :mod:`repro.core.resilience` contract).
  It holds verdicts and nothing else.
* :mod:`repro.store.cli` — ``python -m repro cache stats|clear|compact``.
"""

from .fingerprint import STORE_SCHEMA_VERSION, checker_fingerprint, key_digest
from .verdicts import StoredVerdict, StoreStats, VerdictStore

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "StoredVerdict",
    "VerdictStore",
    "checker_fingerprint",
    "key_digest",
]
