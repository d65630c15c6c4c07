"""Unit tests for the persistent verdict store (`repro.store`).

The store's contract is resilience-first: whatever is on disk — whole
segments, torn tails, stale fingerprints, leftover temp files, garbage —
opening and probing must degrade to a smaller cache, never raise.  These
tests exercise that contract file-by-file, plus the maintenance verbs
behind ``python -m repro cache``.
"""

from __future__ import annotations

import json

import pytest

from repro.store import (
    STORE_SCHEMA_VERSION,
    StoredVerdict,
    VerdictStore,
    checker_fingerprint,
    key_digest,
    verdicts,
)

KEY_A = ("Let", ("Var", "x"), ("Lit", 1))
KEY_B = ("Let", ("Var", "y"), ("Lit", 2))
KEY_C = ("App", ("Var", "f"), ("Lit", True))


class TestFingerprints:
    def test_checker_fingerprint_is_stable_hex(self):
        fp = checker_fingerprint()
        assert fp == checker_fingerprint()
        assert len(fp) == 32
        int(fp, 16)  # hex digest

    def test_key_digest_distinguishes_programs(self):
        assert key_digest(KEY_A) != key_digest(KEY_B)
        assert key_digest(KEY_A) == key_digest(KEY_A)


class TestRoundTrip:
    def test_put_get_same_process(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert store.get(KEY_A) is None  # miss
        assert store.put(KEY_A, False, err="boom", err_kind="mismatch")
        entry = store.get(KEY_A)
        assert entry == StoredVerdict(ok=False, err="boom", err_kind="mismatch")
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
            store.put(KEY_B, False, err="no")
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 2
        assert again.get(KEY_A).ok is True
        failing = again.get(KEY_B)
        assert (failing.ok, failing.err) == (False, "no")

    def test_segment_lines_carry_only_key_and_answer(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
            store.put(KEY_B, False, err="no", err_kind="mismatch")
        header, *lines = _segment(tmp_path / "s").read_text().splitlines()
        assert json.loads(header) == {
            "v": STORE_SCHEMA_VERSION, "checker": checker_fingerprint()
        }
        assert [sorted(json.loads(line)) for line in lines] == [
            ["ek", "err", "k", "ok"]
        ] * 2

    def test_put_refuses_duplicates(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert store.put(KEY_A, True)
        assert not store.put(KEY_A, True)
        assert len(store) == 1
        store.flush()
        assert len(_segment(tmp_path / "s").read_text().splitlines()) == 2

    def test_read_only_never_writes(self, tmp_path):
        (tmp_path / "s").mkdir()
        store = VerdictStore(tmp_path / "s", read_only=True)
        assert not store.put(KEY_A, True)
        store.close()
        assert list((tmp_path / "s").iterdir()) == []

    def test_read_only_missing_directory_degrades(self, tmp_path):
        store = VerdictStore(tmp_path / "absent", read_only=True)
        assert store.get(KEY_A) is None

    def test_flush_every_publishes_automatically(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verdicts, "FLUSH_EVERY", 2)
        store = VerdictStore(tmp_path / "s")
        store.put(KEY_A, True)
        assert not list((tmp_path / "s").glob("seg-*"))
        store.put(KEY_B, True)
        assert len(list((tmp_path / "s").glob("seg-*"))) == 1


def _segment(store_dir):
    segments = sorted(store_dir.glob("seg-*.jsonl"))
    assert segments, "expected a published segment"
    return segments[0]


class TestCorruptionDegrades:
    """Torn and corrupt files shrink the cache; they never raise."""

    @pytest.fixture
    def populated(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
            store.put(KEY_B, False, err="no")
        return tmp_path / "s"

    def test_garbage_line_skipped_rest_kept(self, populated):
        seg = _segment(populated)
        seg.write_text(seg.read_text() + "{not json\n")
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert len(store) == 2

    def test_torn_tail_skipped_rest_kept(self, populated):
        seg = _segment(populated)
        text = seg.read_text()
        seg.write_text(text[: len(text) - 10])  # tear the last line
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert store.get(KEY_A) is not None
        assert store.get(KEY_B) is None

    def test_missing_fields_skipped(self, populated):
        seg = _segment(populated)
        seg.write_text(seg.read_text() + json.dumps({"ok": True}) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert len(store) == 2

    def test_garbage_header_skips_segment(self, populated):
        seg = _segment(populated)
        body = seg.read_text().splitlines()
        seg.write_text("\n".join(["garbage header"] + body[1:]) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 0

    def test_future_schema_version_skips_segment(self, populated):
        seg = _segment(populated)
        lines = seg.read_text().splitlines()
        header = json.loads(lines[0])
        header["v"] = STORE_SCHEMA_VERSION + 1
        seg.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 0

    def test_empty_segment_skipped(self, populated):
        (populated / "seg-0000000000000-1-9.jsonl").write_text("")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 2

    def test_tmp_files_ignored(self, populated):
        (populated / ".tmp-999-1").write_text('{"k": "torn')
        store = VerdictStore(populated)
        assert len(store) == 2
        assert store.skipped_segments == 0


class TestInvalidation:
    def _write_stale_segment(self, store_dir, n=3):
        store_dir.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"v": STORE_SCHEMA_VERSION, "checker": "0" * 32})]
        for i in range(n):
            lines.append(json.dumps({"k": f"{i:032d}", "ok": True}))
        (store_dir / "seg-0000000000000-1-1.jsonl").write_text(
            "\n".join(lines) + "\n"
        )

    def test_stale_checker_entries_not_indexed(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert len(store) == 0
        assert store.invalidated == 3

    def test_take_invalidated_reports_once(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert store.take_invalidated() == 3
        assert store.take_invalidated() == 0

    def test_compact_deletes_stale_segments(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
        summary = VerdictStore(tmp_path / "s").compact()
        assert summary["removed_segments"] == 1
        assert summary["remaining_segments"] == 1
        fresh = VerdictStore(tmp_path / "s")
        assert fresh.invalidated == 0
        assert len(fresh) == 1

    def test_version_1_segment_never_served_and_compacted(self, tmp_path):
        # The version-1 format: a per-entry prefix fingerprint and
        # accounting kind.  Even under the current checker fingerprint it
        # is skipped whole, and compaction deletes it.
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        old = store_dir / "seg-0000000000000-1-1.jsonl"
        old.write_text("\n".join([
            json.dumps({"v": 1, "checker": checker_fingerprint()}),
            json.dumps({"p": "-", "k": key_digest(KEY_A), "ok": True,
                        "kind": "full", "err": None, "ek": None}),
        ]) + "\n")
        store = VerdictStore(store_dir)
        assert store.get(KEY_A) is None
        assert len(store) == 0
        assert store.skipped_segments == 1
        assert store.compact()["removed_segments"] == 1
        assert not old.exists()


class TestCompaction:
    def test_compact_drops_tmp_files(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
        (tmp_path / "s" / ".tmp-4242-7").write_text("half a segm")
        summary = VerdictStore(tmp_path / "s").compact()
        assert summary["removed_tmp"] == 1
        assert summary["remaining_segments"] == 1

    def test_size_cap_evicts_oldest_published_first(self, tmp_path):
        import time

        store = VerdictStore(tmp_path / "s")
        names = []
        for key in (KEY_A, KEY_B, KEY_C):
            store.put(key, True)
            names.append(store.flush())
            time.sleep(0.01)  # distinct publish stamps
        store.close()
        # A hit on the oldest segment does not save it: the store keeps
        # no recency, only publish order.
        reader = VerdictStore(tmp_path / "s")
        assert reader.get(KEY_A) is not None
        reader.close()

        survivor = VerdictStore(tmp_path / "s")
        one_size = max(
            p.stat().st_size for p in (tmp_path / "s").glob("seg-*.jsonl")
        )
        summary = survivor.compact(max_bytes=one_size)
        assert summary["removed_segments"] == 2
        assert summary["remaining_bytes"] <= one_size
        remaining = [p.name for p in (tmp_path / "s").glob("seg-*.jsonl")]
        assert remaining == names[-1:]  # the newest segment survived
        fresh = VerdictStore(tmp_path / "s", read_only=True)
        assert [fresh.get(k) is not None for k in (KEY_A, KEY_B, KEY_C)] == [
            False, False, True
        ]

    def test_leftover_hits_directory_is_ignored(self, tmp_path):
        # Older versions kept hit-recency markers under hits/; the store
        # neither reads, writes nor deletes them.
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
        hits = tmp_path / "s" / "hits"
        hits.mkdir()
        (hits / _segment(tmp_path / "s").name).write_text("4000000000.0\n")
        store = VerdictStore(tmp_path / "s")
        assert store.get(KEY_A).ok is True
        assert store.compact(max_bytes=0)["removed_segments"] == 1
        assert store.clear() == 0
        assert [p.name for p in (tmp_path / "s").iterdir()] == ["hits"]
        assert len(list(hits.iterdir())) == 1

    def test_clear_removes_everything(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
            store.get(KEY_A)
        (tmp_path / "s" / ".tmp-1-1").write_text("x")
        store = VerdictStore(tmp_path / "s")
        assert store.clear() >= 2
        assert len(store) == 0
        assert not list((tmp_path / "s").glob("seg-*"))
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 0


class TestStats:
    def test_stats_counts_segments_and_entries(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(KEY_A, True)
            store.put(KEY_B, False, err="no")
        (tmp_path / "s" / ".tmp-1-1").write_text("x")
        stats = VerdictStore(tmp_path / "s").stats()
        assert stats.segments == 1
        assert stats.entries == 2
        assert stats.bytes > 0
        assert stats.tmp_files == 1
        assert stats.per_segment[0][1] == 2
