"""Unit tests for RequestDistributer forwarding and size validation.

The distributer calls the :class:`~repro.flash.ssd.StorageBackend`
protocol directly: ``stream`` and ``on_error`` are declared parameters
every backend accepts, so nothing is sniffed or dropped per call.
"""

import inspect

import pytest

from repro.core.distributer import RequestDistributer
from repro.flash.hdd import SimulatedHDD
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD, StorageBackend


class FullBackend:
    """Records every argument the distributer hands over."""

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


@pytest.mark.parametrize("cls", [SimulatedSSD, RAIS5, SimulatedHDD])
@pytest.mark.parametrize("method", ["submit_write", "submit_read", "trim"])
def test_backends_satisfy_the_protocol_signatures(cls, method):
    declared = inspect.signature(getattr(StorageBackend, method)).parameters
    actual = inspect.signature(getattr(cls, method)).parameters
    assert list(actual) == list(declared)
    for name, param in declared.items():
        assert actual[name].default == param.default, name


class TestForwarding:
    def test_stream_and_on_error_forwarded_on_writes(self):
        be = FullBackend()
        d = RequestDistributer(be)
        boom = lambda exc: None
        d.write("k", 0, 4096, stream=3, on_error=boom)
        assert be.writes[-1]["stream"] == 3
        assert be.writes[-1]["on_error"] is boom
        d.write("k", 0, 4096)
        assert be.writes[-1]["stream"] == 0
        assert be.writes[-1]["on_error"] is None

    def test_on_error_routed_on_reads(self):
        be = FullBackend()
        d = RequestDistributer(be)
        boom = lambda exc: None
        d.read("k", 0, 4096, on_error=boom)
        assert be.reads[-1]["on_error"] is boom

    def test_completion_callbacks_fire(self):
        d = RequestDistributer(FullBackend())
        done = []
        d.write("k", 0, 4096, on_complete=lambda: done.append("w"))
        d.read("k", 0, 4096, on_complete=lambda: done.append("r"))
        assert done == ["w", "r"]


class TestStatsAccounting:
    def test_issued_counts_and_bytes(self):
        be = FullBackend()
        d = RequestDistributer(be)
        d.write("a", 0, 4096)
        d.write("b", 4096, 8192)
        d.read("a", 0, 4096)
        assert [w["nbytes"] for w in be.writes] == [4096, 8192]
        assert [r["nbytes"] for r in be.reads] == [4096]

    def test_trim_attempted_vs_effective(self):
        be = FullBackend()
        d = RequestDistributer(be)
        d.write("k", 0, 4096)
        assert d.trim("k") is True      # extent existed
        assert d.trim("k") is False     # nothing left: attempted only
        assert d.trim("ghost") is False
        assert be.trimmed == {"k", "ghost"}

    def test_size_validation(self):
        d = RequestDistributer(FullBackend())
        with pytest.raises(ValueError):
            d.write("k", 0, 0)
        with pytest.raises(ValueError):
            d.read("k", 0, -1)
