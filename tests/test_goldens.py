"""The committed goldens are exactly what scripts/regen_goldens.py writes
from the current implementation, byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"


def test_regenerated_goldens_are_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location("regen_goldens", ROOT / "scripts" / "regen_goldens.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    assert regen.main(tmp_path) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDENS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes(), name
