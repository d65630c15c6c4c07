"""Content-addressed fingerprints for the persistent verdict store.

The checker is a yes/no oracle whose answer depends on the program
alone, so a stored verdict is reusable exactly when two things are
unchanged:

* **the checker itself** — :func:`checker_fingerprint` hashes the source
  bytes of every module the MiniML checker is built from (inference,
  unification, types, the stdlib environment, the AST definitions) plus
  the store schema version, so editing the type system or the standard
  library silently invalidates every stale verdict on the next run;
* **the program being asked about** — :func:`key_digest` hashes its
  :class:`~repro.tree.StructuralKeyer` key (spans and formatting never
  matter).

Which reuse route (prefix snapshot, decl table, from scratch) computed a
verdict is not part of its address: every route gives the from-scratch
answer.

All digests are truncated SHA-256.  Hash-consed structural keys
(:class:`~repro.tree.HCKey`) contribute their cached Merkle ``digest`` —
content-derived, so deterministic across processes and platforms, and
O(1) amortized for shared subtrees; legacy tuple keys (and any other key
material) are digested over their deterministic ``repr``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

#: Bump when the on-disk entry format changes incompatibly.  Segment
#: headers carry it: readers skip a segment under any other version and
#: ``compact`` deletes it, so an old segment is never misread.  It is
#: folded into the checker fingerprint as well.  Version 2 dropped the
#: per-entry prefix fingerprint and accounting kind of version 1.
STORE_SCHEMA_VERSION = 2

#: Modules whose source defines what "the checker" means.  The stdlib is
#: included because its typings are the environment every program is
#: checked in; the AST module because structural keys are built from its
#: class names and field lists.
_CHECKER_MODULES = (
    "repro.miniml.infer",
    "repro.miniml.unify",
    "repro.miniml.types",
    "repro.miniml.stdlib",
    "repro.miniml.ast_nodes",
    "repro.miniml.errors",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


@lru_cache(maxsize=None)
def checker_fingerprint() -> str:
    """Fingerprint of the type-checker implementation currently loaded.

    Cached for the life of the process (module sources cannot change
    under a running interpreter in any way the store could honour).
    Modules without reachable source (frozen, zipped) contribute their
    name only — the fingerprint still distinguishes schema versions.
    """
    import importlib

    h = hashlib.sha256()
    h.update(f"store-schema:{STORE_SCHEMA_VERSION};".encode())
    for name in _CHECKER_MODULES:
        h.update(name.encode())
        h.update(b"=")
        try:
            module = importlib.import_module(name)
            path = getattr(module, "__file__", None)
            if path:
                with open(path, "rb") as fh:
                    h.update(fh.read())
        except Exception:
            # Degrade, never raise: an unreadable module just contributes
            # its name, weakening invalidation rather than crashing.
            pass
        h.update(b";")
    return h.hexdigest()[:32]


def key_digest(structural_key: object) -> str:
    """Digest of one program's structural key (the per-entry address).

    Hash-consed keys (:class:`~repro.tree.HCKey`) carry a cached
    content-based Merkle digest, making repeated digests of shared
    subtrees O(1); anything else digests its deterministic ``repr``.
    """
    from repro.tree import HCKey

    if isinstance(structural_key, HCKey):
        return structural_key.digest
    return _digest(repr(structural_key).encode())
