"""The Request Distributer (paper Fig 4).

"Responsible for issuing the processed data to or fetching the requested
data from the flash-based storage subsystem."  In this implementation
it is the single point through which the EDC device talks to whatever
:class:`~repro.flash.ssd.StorageBackend` sits below — one SSD or a RAIS
array — and the one place that validates request sizes.  The backend
counts the I/O it serves (``DeviceStats``, the FTL).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.flash.ssd import StorageBackend

__all__ = ["RequestDistributer"]


class RequestDistributer:
    """Issues processed requests to the flash backend."""

    def __init__(self, backend: StorageBackend) -> None:
        self.backend = backend

    def write(
        self,
        key: Hashable,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        stream: int = 0,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Issue a (possibly compressed) write of ``nbytes`` under ``key``.

        ``stream`` and ``on_error`` are part of the
        :class:`~repro.flash.ssd.StorageBackend` protocol: backends
        without multi-stream placement, or that cannot fail, ignore
        them.
        """
        if nbytes <= 0:
            raise ValueError(f"write size must be positive: {nbytes!r}")
        self.backend.submit_write(
            lba, nbytes, on_complete=on_complete, key=key, stream=stream,
            on_error=on_error,
        )

    def read(
        self,
        key: Hashable,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Fetch ``nbytes`` of stored data for ``key``."""
        if nbytes <= 0:
            raise ValueError(f"read size must be positive: {nbytes!r}")
        self.backend.submit_read(
            lba, nbytes, on_complete=on_complete, key=key, on_error=on_error
        )

    def trim(self, key: Hashable) -> bool:
        """Invalidate the backend extent of an evicted mapping entry;
        ``True`` when the backend held one under ``key``."""
        return bool(self.backend.trim(key))
