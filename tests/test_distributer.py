"""Unit tests for RequestDistributer capability sniffing and stats.

The distributer inspects the backend's ``submit_write``/``submit_read``
signatures once at construction and then forwards or drops the optional
``stream`` / ``on_error`` kwargs accordingly — these tests pin that
contract with fake backends at both ends of the capability spectrum.
"""

import pytest

from repro.core.distributer import RequestDistributer


class FullBackend:
    """Supports multi-stream placement and error reporting."""

    def __init__(self):
        self.writes = []
        self.reads = []
        self.trimmed = set()
        self.stored = set()

    def submit_write(self, lba, nbytes, on_complete=None, key=None,
                     stream=0, on_error=None):
        self.writes.append(
            {"lba": lba, "nbytes": nbytes, "key": key,
             "stream": stream, "on_error": on_error}
        )
        self.stored.add(key)
        if on_complete:
            on_complete()

    def submit_read(self, lba, nbytes, on_complete=None, key=None,
                    on_error=None):
        self.reads.append(
            {"lba": lba, "nbytes": nbytes, "key": key, "on_error": on_error}
        )
        if on_complete:
            on_complete()

    def trim(self, key):
        self.trimmed.add(key)
        if key in self.stored:
            self.stored.remove(key)
            return True
        return False


class MinimalBackend:
    """Bare-bones backend: no stream, no on_error parameters."""

    def __init__(self):
        self.write_kwargs = []
        self.read_kwargs = []
        self.stored = set()

    def submit_write(self, lba, nbytes, on_complete=None, key=None):
        self.write_kwargs.append((lba, nbytes, key))
        self.stored.add(key)
        if on_complete:
            on_complete()

    def submit_read(self, lba, nbytes, on_complete=None, key=None):
        self.read_kwargs.append((lba, nbytes, key))
        if on_complete:
            on_complete()

    def trim(self, key):
        if key in self.stored:
            self.stored.remove(key)
            return True
        return False


class WriteOnlyErrorBackend(MinimalBackend):
    """on_error on writes only — must NOT count as error-capable."""

    def submit_write(self, lba, nbytes, on_complete=None, key=None,
                     on_error=None):
        super().submit_write(lba, nbytes, on_complete=on_complete, key=key)


class TestCapabilitySniffing:
    def test_full_backend_flags(self):
        d = RequestDistributer(FullBackend())
        assert d._supports_streams
        assert d._supports_errors

    def test_minimal_backend_flags(self):
        d = RequestDistributer(MinimalBackend())
        assert not d._supports_streams
        assert not d._supports_errors

    def test_error_support_requires_both_paths(self):
        # on_error only on submit_write is not enough: reads would raise
        d = RequestDistributer(WriteOnlyErrorBackend())
        assert not d._supports_errors


class TestKwargForwarding:
    def test_stream_forwarded_when_supported_and_nonzero(self):
        be = FullBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096, stream=3)
        assert be.writes[-1]["stream"] == 3

    def test_stream_zero_not_forwarded_explicitly(self):
        # stream=0 means "no placement hint": the kwarg is omitted so
        # the backend's own default applies
        be = FullBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096, stream=0)
        assert be.writes[-1]["stream"] == 0  # backend default, not passed

    def test_stream_dropped_for_minimal_backend(self):
        be = MinimalBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096, stream=7)  # must not raise TypeError
        assert be.write_kwargs == [(0, 4096, "k")]

    def test_on_error_forwarded_on_writes(self):
        be = FullBackend()
        d = RequestDistributer(be)
        boom = lambda exc: None
        d.write("k", 0, 4096, on_error=boom)
        assert be.writes[-1]["on_error"] is boom

    def test_on_error_routed_on_reads(self):
        be = FullBackend()
        d = RequestDistributer(be)
        boom = lambda exc: None
        d.read("k", 0, 4096, on_error=boom)
        assert be.reads[-1]["on_error"] is boom

    def test_on_error_dropped_for_minimal_backend(self):
        be = MinimalBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096, on_error=lambda exc: None)
        d.read("k", 0, 4096, on_error=lambda exc: None)
        assert len(be.write_kwargs) == 1
        assert len(be.read_kwargs) == 1

    def test_completion_callbacks_still_fire(self):
        be = MinimalBackend()
        d = RequestDistributer(be)
        done = []
        d.write("k", 0, 4096, on_complete=lambda: done.append("w"))
        d.read("k", 0, 4096, on_complete=lambda: done.append("r"))
        assert done == ["w", "r"]


class TestStatsAccounting:
    def test_issued_counts_and_bytes(self):
        d = RequestDistributer(MinimalBackend())
        d.write("a", 0, 4096)
        d.write("b", 4096, 8192)
        d.read("a", 0, 4096)
        assert d.stats.issued_writes == 2
        assert d.stats.written_bytes == 12288
        assert d.stats.issued_reads == 1
        assert d.stats.read_bytes == 4096

    def test_trim_attempted_vs_effective(self):
        be = MinimalBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096)
        assert d.trim("k") is True      # extent existed
        assert d.trim("k") is False     # nothing left: attempted only
        assert d.trim("ghost") is False
        assert d.stats.trims_attempted == 3
        assert d.stats.trims_effective == 1

    def test_size_validation(self):
        d = RequestDistributer(MinimalBackend())
        with pytest.raises(ValueError):
            d.write("k", 0, 0)
        with pytest.raises(ValueError):
            d.read("k", 0, -1)
