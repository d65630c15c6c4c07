"""``python -m repro cache`` — inspect and maintain a verdict store.

Subcommands::

    repro cache stats   --store PATH            sizes, segments, invalidated
    repro cache clear   --store PATH            delete every segment
    repro cache compact --store PATH [--max-bytes N]
                                                drop stale/torn files, evict
                                                oldest-published segments
                                                until under the cap

Exit codes: 0 on success, 2 on usage errors (matching the main CLI),
including a ``--store`` that is not an existing directory (never created).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .verdicts import VerdictStore


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain a persistent verdict store.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for name, doc in (
        ("stats", "show store size, segments, and invalidation counts"),
        ("clear", "delete every segment in the store"),
        ("compact", "drop stale segments and enforce a size cap"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--store", required=True, help="store directory")
        if name == "compact":
            p.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                help="evict the oldest-published segments until total "
                "segment bytes fit under this cap",
            )
    return parser


def cache_main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not os.path.isdir(args.store):
        print(f"error: not a store directory: {args.store}", file=sys.stderr)
        return 2
    store = VerdictStore(args.store, read_only=(args.action == "stats"))
    if args.action == "stats":
        stats = store.stats()
        print(f"store: {stats.path}", file=out)
        print(
            f"  segments: {stats.segments}  entries: {stats.entries}"
            f"  bytes: {stats.bytes}",
            file=out,
        )
        print(
            f"  invalidated: {stats.invalidated}"
            f"  skipped segments: {stats.skipped_segments}"
            f"  skipped lines: {stats.skipped_lines}"
            f"  tmp files: {stats.tmp_files}",
            file=out,
        )
        for name, entries, size in stats.per_segment:
            print(f"    {name}  entries={entries}  bytes={size}", file=out)
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} file(s) from {store.path}", file=out)
        return 0
    summary = store.compact(max_bytes=args.max_bytes)
    print(
        f"compacted {store.path}: removed {summary['removed_segments']} "
        f"segment(s) ({summary['removed_bytes']} bytes) and "
        f"{summary['removed_tmp']} temp file(s); "
        f"{summary['remaining_segments']} segment(s) "
        f"({summary['remaining_bytes']} bytes) remain",
        file=out,
    )
    return 0
