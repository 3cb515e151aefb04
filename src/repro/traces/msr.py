"""MSR Cambridge trace format.

The SNIA IOTTA repository distributes the MSR Cambridge enterprise
traces (usr_0, prxy_0, …) as CSV with one request per line:

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

``Timestamp`` is a Windows FILETIME (100 ns ticks since 1601-01-01),
``Type`` is ``Read``/``Write``, ``Offset`` and ``Size`` are bytes, and
``ResponseTime`` is in 100 ns ticks (ignored here — we re-measure it).
"""

from __future__ import annotations

import io
from array import array
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.traces.model import Trace

__all__ = ["parse_msr", "write_msr", "FILETIME_TICKS_PER_SECOND"]

FILETIME_TICKS_PER_SECOND = 10_000_000


class MsrFormatError(ValueError):
    """Raised on malformed MSR trace lines."""


def _iter_lines(source: Union[str, Path, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", errors="replace") as fh:
            yield from fh
    else:
        yield from source


def parse_msr(
    source: Union[str, Path, Iterable[str]],
    name: str = "msr",
    disk: Optional[int] = None,
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse an MSR Cambridge CSV trace.

    Timestamps are re-based so the first kept request arrives at t=0.

    Parameters
    ----------
    disk:
        Keep only this ``DiskNumber`` (``None`` keeps all, separating
        disks into disjoint address regions).
    """
    times, writes, lbas, sizes = array("d"), bytearray(), array("q"), array("q")
    first_ticks: Optional[int] = None
    disk_region = 1 << 44
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 6:
            raise MsrFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            ticks = int(parts[0])
            line_disk = int(parts[2])
            typ = parts[3].strip().lower()
            offset = int(parts[4])
            size = int(parts[5])
        except ValueError as exc:
            raise MsrFormatError(f"line {lineno}: {exc}") from exc
        for field, value in (("DiskNumber", line_disk), ("Offset", offset)):
            if value < 0:
                raise MsrFormatError(f"line {lineno}: negative {field} {value}")
        if disk is not None and line_disk != disk:
            continue
        if typ not in ("read", "write"):
            raise MsrFormatError(f"line {lineno}: bad type {parts[3]!r}")
        if size <= 0:
            continue
        if first_ticks is None:
            first_ticks = ticks
        t = (ticks - first_ticks) / FILETIME_TICKS_PER_SECOND
        if t < 0:
            continue  # out-of-order stragglers before the rebase origin
        lba = offset + (0 if disk is not None else line_disk * disk_region)
        try:
            lbas.append(lba)
            sizes.append(size)
        except OverflowError as exc:  # the columns hold 64-bit byte addresses
            raise MsrFormatError(f"line {lineno}: {exc}") from exc
        times.append(t)
        writes.append(typ == "write")
        if max_requests is not None and len(times) >= max_requests:
            break
    return Trace.from_columns(name, times, writes, lbas, sizes)


def write_msr(
    trace: Trace,
    destination: Union[str, Path, io.TextIOBase],
    hostname: str = "host",
    disk: int = 0,
) -> None:
    """Write ``trace`` in MSR Cambridge CSV format."""

    def _emit(fh) -> None:
        for r in trace:
            ticks = int(round(r.time * FILETIME_TICKS_PER_SECOND))
            typ = "Read" if r.is_read else "Write"
            fh.write(f"{ticks},{hostname},{disk},{typ},{r.lba},{r.nbytes},0\n")

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as fh:
            _emit(fh)
    else:
        _emit(destination)
