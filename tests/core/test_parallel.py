"""Tests for :func:`repro.core.parallel.resolve_jobs`, the ``jobs`` knob
behind ``explain_many`` and ``repro explain --jobs``, and for
:func:`~repro.core.parallel.sigint_deferred`, which keeps a Ctrl-C from
landing while the pool forks."""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.parallel import AUTO_JOBS, resolve_jobs, sigint_deferred


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


@pytest.mark.skipif(
    not hasattr(signal, "pthread_sigmask"), reason="POSIX signal masks"
)
class TestSigintDeferred:
    def test_interrupt_lands_after_the_block(self):
        finished = []
        with pytest.raises(KeyboardInterrupt):
            with sigint_deferred():
                os.kill(os.getpid(), signal.SIGINT)
                finished.append(True)
        assert finished == [True]

    def test_mask_is_restored(self):
        before = signal.pthread_sigmask(signal.SIG_BLOCK, set())
        with sigint_deferred():
            assert signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, set())
        assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == before
