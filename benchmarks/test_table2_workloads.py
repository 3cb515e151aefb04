"""Table II — characteristics of the evaluation workloads.

Paper: read/write ratio, raw IOPS and average request size of Fin1,
Fin2, Usr_0 and Prxy_0.
"""


def test_table1_setup_echo(exhibit):
    rows = exhibit("table1")
    assert any("X25-E" in v for _, v in rows)
    assert any("Lzf" in v for _, v in rows)


def test_table2_workload_characteristics(exhibit):
    by = {r["trace"]: r for r in exhibit("table2")}
    # Published shapes of the four traces:
    assert by["Fin1"]["write_ratio"] > 0.65          # write-heavy OLTP
    assert by["Fin2"]["write_ratio"] < 0.35          # read-heavy OLTP
    assert by["Prxy_0"]["write_ratio"] > 0.9         # proxy: nearly all writes
    assert by["Usr_0"]["avg_req_kb"] > 8             # large requests
    assert by["Fin1"]["avg_req_kb"] < 6
    assert by["Fin2"]["avg_req_kb"] < 6
