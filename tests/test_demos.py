"""Each demo prints exactly the text it printed when its digest was taken:
the demo runs in-process and the sha256 of its stdout is compared."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_lattes_maps.py": "6fe97d08e330fa97266b6ed22c37673e3276fd2a33cf9a329250a57c3dace92a",
    "02_trace_criterion.py": "414d58b250604e9ac4fd1b79850ac366d85ac95571c0b6fe92c2c0c1e86baf36",
    "03_residue_symbols.py": "01b6bfa4a66905ee7f3aba19230a5a6eb119c25aa6c2624e9092bbd9d070b47d",
    "04_obstructions_and_densities.py": "fd4c81f7befa8b727b0f98f1cf32a3c315a06284d3e1c1ec76594a8ccf52582a",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
