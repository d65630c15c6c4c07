"""Tests for :func:`repro.core.parallel.resolve_jobs`, the ``jobs`` knob
behind ``explain_many`` and ``repro explain --jobs``."""

from __future__ import annotations

import os

import pytest

from repro.core.parallel import AUTO_JOBS, resolve_jobs


class TestResolveJobs:
    def test_serial_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs("3") == 3

    def test_auto_is_cpu_count(self):
        assert resolve_jobs(AUTO_JOBS) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1, "many", 1.5])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)
