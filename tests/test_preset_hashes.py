"""tools/preset_hashes.py reads the pinned CSV hashes from CHANGES.md.

Only the parsing is tested here; no preset is run.
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


def test_first_pair_per_preset_wins(tmp_path):
    first, later, other = "a" * 64, "b" * 64, "c" * 64
    text = (
        f"fig2 {first} pinned first.\n"
        f"Later: fig2 {later}, fig4 {other}.\n"
        f"Not a preset: xfig2 {later}, fig2-large {later}; too short: fig5 {'d' * 63}.\n"
    )
    path = tmp_path / "CHANGES.md"
    path.write_text(text, encoding="utf-8")
    assert _tool().pinned_hashes(["fig2", "fig4", "fig5"], str(path)) == {"fig2": first, "fig4": other}
