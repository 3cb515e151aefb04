"""SPC (Storage Performance Council) trace format.

The UMass trace repository distributes the Financial1/Financial2 OLTP
traces in SPC format: one request per line,

    ASU,LBA,Size,Opcode,Timestamp[,...]

where ``ASU`` is the application storage unit number, ``LBA`` the block
address in 512-byte units, ``Size`` the request size in bytes,
``Opcode`` is ``r``/``R`` or ``w``/``W``, and ``Timestamp`` is seconds
(float) from trace start.  Extra trailing fields are ignored.
"""

from __future__ import annotations

import io
import math
from array import array
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.traces.model import Trace

__all__ = ["parse_spc", "write_spc", "SPC_SECTOR"]

#: SPC LBAs are in 512-byte sectors.
SPC_SECTOR = 512


class SpcFormatError(ValueError):
    """Raised on malformed SPC trace lines."""


def _iter_lines(source: Union[str, Path, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", errors="replace") as fh:
            yield from fh
    else:
        yield from source


def parse_spc(
    source: Union[str, Path, Iterable[str]],
    name: str = "spc",
    asu: Optional[int] = None,
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse an SPC-format trace.

    Parameters
    ----------
    source:
        A path or an iterable of lines.
    asu:
        Keep only requests for this application storage unit (the UMass
        financial traces interleave several); ``None`` keeps all, with
        ASUs separated into disjoint address ranges.
    max_requests:
        Stop after this many parsed requests.
    """
    times, writes, lbas, sizes = array("d"), bytearray(), array("q"), array("q")
    # Each ASU gets its own 1 TB address region so different units never
    # alias when the caller keeps all of them.
    asu_region = 1 << 40
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise SpcFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            line_asu = int(parts[0])
            lba = int(parts[1])
            size = int(parts[2])
            opcode = parts[3].strip().lower()
            ts = float(parts[4])
        except ValueError as exc:
            raise SpcFormatError(f"line {lineno}: {exc}") from exc
        for field, value in (("ASU", line_asu), ("LBA", lba)):
            if value < 0:
                raise SpcFormatError(f"line {lineno}: negative {field} {value}")
        if not (ts >= 0 and math.isfinite(ts)):  # also rejects NaN
            raise SpcFormatError(f"line {lineno}: bad Timestamp {parts[4]!r}")
        if asu is not None and line_asu != asu:
            continue
        if opcode not in ("r", "w"):
            raise SpcFormatError(f"line {lineno}: bad opcode {parts[3]!r}")
        if size <= 0:
            continue  # zero-length requests occur in the wild; skip them
        offset = lba * SPC_SECTOR + (0 if asu is not None else line_asu * asu_region)
        try:
            lbas.append(offset)
            sizes.append(size)
        except OverflowError as exc:  # the columns hold 64-bit byte addresses
            raise SpcFormatError(f"line {lineno}: {exc}") from exc
        times.append(ts)
        writes.append(opcode == "w")
        if max_requests is not None and len(times) >= max_requests:
            break
    return Trace.from_columns(name, times, writes, lbas, sizes)


def write_spc(trace: Trace, destination: Union[str, Path, io.TextIOBase]) -> None:
    """Write ``trace`` in SPC format (single ASU 0)."""

    def _emit(fh) -> None:
        for r in trace:
            if r.lba % SPC_SECTOR:
                raise SpcFormatError(
                    f"LBA {r.lba} not sector-aligned; SPC uses 512-byte units"
                )
            fh.write(
                f"0,{r.lba // SPC_SECTOR},{r.nbytes},{r.op.lower()},{r.time:.6f}\n"
            )

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as fh:
            _emit(fh)
    else:
        _emit(destination)
