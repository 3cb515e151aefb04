"""EXPERIMENTS.md's measured blocks are exactly what the exhibits print.

Each ``<!-- exhibit: NAME -->`` marker there is followed by a fenced
block holding ``render(data)`` of that row of ``EXHIBITS``.  To
regenerate one, paste the output of ``python -m repro.bench exhibit NAME``.
"""

import pathlib
import re

from repro.bench.figures import EXHIBITS

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- exhibit: (\w+) -->\n```text\n(.*?)```", re.S)


def _lines(text):
    # render_table pads cells, and editors strip trailing spaces
    return [line.rstrip() for line in text.strip("\n").splitlines()]


def test_each_exhibit_block_is_this_sessions_render(exhibit):
    blocks = BLOCK.findall(LEDGER.read_text(encoding="utf-8"))
    names = [name for name, _ in blocks]
    assert sorted(names) == sorted(EXHIBITS), (
        f"EXPERIMENTS.md needs one marked block per exhibit, has {names}")
    stale = []
    for name, block in blocks:
        got, want = _lines(block), _lines(EXHIBITS[name][1](exhibit(name)))
        if got != want:
            i = next((i for i, pair in enumerate(zip(got, want))
                      if pair[0] != pair[1]), min(len(got), len(want)))
            stale.append(f"{name}, block line {i + 1}: "
                         f"{got[i:i + 1]} != {want[i:i + 1]}")
    assert not stale, (
        "EXPERIMENTS.md differs from `python -m repro.bench exhibit NAME` for:\n"
        + "\n".join(stale))
