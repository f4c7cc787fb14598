"""The site battery's ``kernel --report`` bytes, pinned per site.

``bench/gen.py`` ``site_battery`` draws 1000 jump sites per seed: random
realizable accessible and inaccessible sites and perfect-insider sites.
``tests/golden/kernel_battery_digests.json`` holds, for seeds 1 and 7 and
both modes, each site's exit code and the SHA-256 of its ``--report`` file.
The exact half is the ground truth of the site solver; the float half pins
the float operation order.  The tier-1 test replays the first 200 seed-1
sites in both modes; the whole table is replayed with

    PYTHONPATH=src python tests/test_kernel_battery.py --check

and regenerated, only in a change that moves kernel reports on purpose, with

    PYTHONPATH=src python tests/test_kernel_battery.py
"""

import json
import os
import pathlib
import sys
import tempfile

from test_corpus import run_case
from test_golden_reports import GOLDEN, MODES

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402

DIGESTS = GOLDEN / "kernel_battery_digests.json"
SEEDS = (1, 7)
SITES = 1000
REPLAYED = 200  # seed-1 sites replayed by the tier-1 test


def digests(seed: int, count: int, workdir: pathlib.Path) -> dict:
    """{mode: [[exit code, report SHA-256], ...]} for the first ``count``
    sites of the seed's battery."""
    texts = [json.dumps(doc) for doc, _ in gen.site_battery(seed, SITES)[:count]]
    return {mode: [run_case("kernel", text, mode, workdir)[:2] for text in texts]
            for mode in MODES}


def render(table: dict) -> str:
    """One line per site, so a moved site shows as one line."""
    blocks = []
    for seed, modes in table.items():
        rows = [f'  "{mode}": [\n' + ",\n".join(f"   {json.dumps(r)}" for r in runs) + "\n  ]"
                for mode, runs in modes.items()]
        blocks.append(f'"{seed}": {{\n' + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def moved(want: dict, got: dict) -> list:
    """(mode, site, pinned, replayed) for every site whose run moved."""
    return [(mode, i, a, b) for mode in MODES
            for i, (a, b) in enumerate(zip(want[mode], got[mode])) if a != b]


def test_battery_replays_its_digests(monkeypatch, tmp_path):
    monkeypatch.delenv("FORGE_MODE", raising=False)
    want = json.loads(DIGESTS.read_text())
    assert sorted(want) == [str(s) for s in SEEDS]
    assert all(len(want[str(s)][m]) == SITES for s in SEEDS for m in MODES)
    got = digests(1, REPLAYED, tmp_path)
    assert moved(want["1"], got) == []


if __name__ == "__main__":
    os.environ.pop("FORGE_MODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        table = {str(seed): digests(seed, SITES, pathlib.Path(tmp)) for seed in SEEDS}
    if sys.argv[1:] == ["--check"]:
        want = json.loads(DIGESTS.read_text())
        bad = {seed: moved(want[seed], table[seed]) for seed in table}
        sys.exit(f"battery sites moved: {bad}" if any(bad.values()) else 0)
    DIGESTS.write_text(render(table))
