"""tools/preset_hashes.py reads the pinned CSV hashes from CHANGES.md and
tabulates each preset's hash with its wall seconds.

Only the parsing and the table are tested here; no preset is run.
"""

import importlib.util
from pathlib import Path

from macfusion.cli import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("preset_hashes", ROOT / "tools" / "preset_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_changes_md_pins_every_preset():
    pinned = _tool().pinned_hashes(PRESETS)
    assert sorted(pinned) == sorted(PRESETS)
    assert len(PRESETS) == 9


def test_last_pair_per_preset_wins(tmp_path):
    first, later, other = "a" * 64, "b" * 64, "c" * 64
    text = (
        f"fig2 {first} pinned first.\n"
        f"Later: fig2 {later}, fig4 {other}.\n"
        f"Not a preset: xfig2 {first}, fig2-large {first}; too short: fig5 {'d' * 63}.\n"
    )
    path = tmp_path / "CHANGES.md"
    path.write_text(text, encoding="utf-8")
    assert _tool().pinned_hashes(["fig2", "fig4", "fig5"], str(path)) == {"fig2": later, "fig4": other}


def test_summary_puts_wall_seconds_next_to_each_hash():
    h, g = "a" * 64, "b" * 64
    results = {("fig2", 1): (h, 2.0), ("fig2", 2): (h, 1.25), ("fig5", 1): (g, 10.0), ("fig5", 2): (None, 6.0)}
    lines = _tool().summary(["fig2", "fig5"], [1, 2], results)
    assert lines[0].split() == ["preset", "workers=1", "workers=2", "sha256"]
    assert lines[1].split() == ["fig2", "2.0", "s", "1.2", "s", h]
    assert lines[2].endswith("differs between worker counts")
    assert lines[3].split() == ["total", "12.0", "s", "7.2", "s"]
