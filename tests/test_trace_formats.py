"""Tests for the SPC and MSR trace format parsers/writers."""

import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.model import IORequest, Trace
from repro.traces.msr import MsrFormatError, parse_msr, write_msr
from repro.traces.spc import SPC_SECTOR, SpcFormatError, parse_spc, write_spc


class TestSpcParse:
    def test_basic_line(self):
        t = parse_spc(["0,8,4096,r,0.5"])
        assert len(t) == 1
        req = t[0]
        assert req.is_read
        assert req.lba == 8 * SPC_SECTOR
        assert req.nbytes == 4096
        assert req.time == 0.5

    def test_write_opcode_case_insensitive(self):
        t = parse_spc(["0,0,512,W,0.0"])
        assert t[0].is_write

    def test_asu_filter(self):
        lines = ["0,0,512,r,0.0", "1,0,512,r,0.1", "0,8,512,r,0.2"]
        t = parse_spc(lines, asu=0)
        assert len(t) == 2

    def test_asus_separated_when_unfiltered(self):
        lines = ["0,0,512,r,0.0", "1,0,512,r,0.1"]
        t = parse_spc(lines)
        assert t[0].lba != t[1].lba

    def test_blank_and_comment_lines_skipped(self):
        t = parse_spc(["", "# header", "0,0,512,r,0.0"])
        assert len(t) == 1

    def test_zero_size_skipped(self):
        t = parse_spc(["0,0,0,r,0.0", "0,0,512,r,0.1"])
        assert len(t) == 1

    def test_max_requests(self):
        lines = [f"0,{i},512,r,{i}.0" for i in range(10)]
        assert len(parse_spc(lines, max_requests=3)) == 3

    def test_extra_fields_ignored(self):
        t = parse_spc(["0,0,512,r,0.0,extra,fields"])
        assert len(t) == 1

    @pytest.mark.parametrize(
        "line", ["0,0,512", "x,0,512,r,0.0", "0,0,512,z,0.0", "0,0,notanint,r,0.0"]
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(SpcFormatError):
            parse_spc([line])

    @pytest.mark.parametrize("line,field", [
        ("0,0,512,r,inf", "Timestamp"),
        ("0,0,512,r,nan", "Timestamp"),
        ("0,0,512,r,-1.0", "Timestamp"),
        ("1,-8,512,r,0.0", "LBA"),
        ("-1,0,512,r,0.0", "ASU"),
    ])
    def test_bad_field_names_line_and_field(self, line, field):
        with pytest.raises(SpcFormatError, match=f"line 2: .*{field}"):
            parse_spc(["0,0,512,r,0.0", line])


class TestSpcRoundTrip:
    def test_write_then_parse(self, tmp_path):
        trace = Trace(
            "t",
            [
                IORequest(0.0, "W", 0, 4096),
                IORequest(0.5, "R", 8192, 512),
            ],
        )
        path = tmp_path / "t.spc"
        write_spc(trace, path)
        back = parse_spc(path, asu=0)
        assert len(back) == 2
        assert back[0].lba == 0 and back[0].is_write
        assert back[1].lba == 8192 and back[1].nbytes == 512

    def test_write_to_stream(self):
        buf = io.StringIO()
        write_spc(Trace("t", [IORequest(1.0, "R", 512, 512)]), buf)
        assert buf.getvalue() == "0,1,512,r,1.000000\n"

    def test_unaligned_lba_rejected(self):
        buf = io.StringIO()
        with pytest.raises(SpcFormatError):
            write_spc(Trace("t", [IORequest(0.0, "R", 100, 512)]), buf)


class TestMsrParse:
    def test_basic_line(self):
        line = "128166372003061629,usr,0,Read,7014609920,24576,41286"
        t = parse_msr([line])
        assert len(t) == 1
        assert t[0].is_read
        assert t[0].lba == 7014609920
        assert t[0].nbytes == 24576
        assert t[0].time == 0.0  # rebased

    def test_timestamps_rebased_to_seconds(self):
        base = 128166372003061629
        lines = [
            f"{base},usr,0,Read,0,512,0",
            f"{base + 10_000_000},usr,0,Write,4096,512,0",
        ]
        t = parse_msr(lines)
        assert t[1].time == pytest.approx(1.0)
        assert t[1].is_write

    def test_disk_filter(self):
        lines = [
            "100,usr,0,Read,0,512,0",
            "200,usr,1,Read,0,512,0",
        ]
        assert len(parse_msr(lines, disk=1)) == 1

    def test_disks_separated_when_unfiltered(self):
        lines = ["100,usr,0,Read,0,512,0", "100,usr,1,Read,0,512,0"]
        t = parse_msr(lines)
        assert t[0].lba != t[1].lba

    def test_zero_size_skipped(self):
        lines = ["100,usr,0,Read,0,0,0", "200,usr,0,Read,0,512,0"]
        assert len(parse_msr(lines)) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "100,usr,0,Read,0",
            "abc,usr,0,Read,0,512,0",
            "100,usr,0,Modify,0,512,0",
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(MsrFormatError):
            parse_msr([line])

    @pytest.mark.parametrize("line,field", [
        ("100,usr,1,Read,-4096,512,0", "Offset"),
        ("100,usr,-1,Read,0,512,0", "DiskNumber"),
    ])
    def test_bad_field_names_line_and_field(self, line, field):
        with pytest.raises(MsrFormatError, match=f"line 2: .*{field}"):
            parse_msr(["100,usr,0,Read,0,512,0", line])


class TestMsrRoundTrip:
    def test_write_then_parse(self, tmp_path):
        trace = Trace(
            "t",
            [IORequest(0.0, "W", 4096, 4096), IORequest(2.5, "R", 0, 512)],
        )
        path = tmp_path / "t.csv"
        write_msr(trace, path)
        back = parse_msr(path, disk=0)
        assert len(back) == 2
        assert back[0].is_write and back[0].lba == 4096
        assert back[1].time == pytest.approx(2.5)

    def test_stream_format(self):
        buf = io.StringIO()
        write_msr(Trace("t", [IORequest(1.0, "R", 0, 512)]), buf, hostname="h", disk=3)
        assert buf.getvalue() == "10000000,h,3,Read,0,512,0\n"


def _rows(trace):
    return [dataclasses.astuple(r) for r in trace]


class TestRoundTripFieldForField:
    """A written trace parses back to the same requests, field for field,
    when its times are ones the format writes exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 10**8), st.sampled_from("RW"),
                  st.integers(0, 1 << 30), st.integers(1, 1 << 20)),
        max_size=30,
    ))
    def test_spc(self, rows):
        # microsecond times (SPC writes six decimals), sector addresses
        trace = Trace("t", [
            IORequest(us / 1e6, op, sector * SPC_SECTOR, n) for us, op, sector, n in rows
        ])
        buf = io.StringIO()
        write_spc(trace, buf)
        back = parse_spc(io.StringIO(buf.getvalue()).readlines(), asu=0)
        assert _rows(back) == _rows(trace)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 10**10), st.sampled_from("RW"),
                  st.integers(0, 1 << 40), st.integers(1, 1 << 20)),
        min_size=1, max_size=30,
    ))
    def test_msr(self, rows):
        # FILETIME ticks from 0 (MSR times are re-based to the first)
        first = min(ticks for ticks, *_ in rows)
        trace = Trace("t", [
            IORequest((ticks - first) / 10_000_000, op, lba, n) for ticks, op, lba, n in rows
        ])
        buf = io.StringIO()
        write_msr(trace, buf)
        back = parse_msr(io.StringIO(buf.getvalue()).readlines(), disk=0)
        assert _rows(back) == _rows(trace)

    @pytest.mark.parametrize("parse, line, error", [
        (parse_spc, "0,18014398509481984,512,r,0.0", SpcFormatError),
        (parse_msr, "100,usr,0,Read,9223372036854775808,512,0", MsrFormatError),
    ])
    def test_an_address_beyond_64_bits_names_its_line(self, parse, line, error):
        with pytest.raises(error, match="line 1: "):
            parse([line])
