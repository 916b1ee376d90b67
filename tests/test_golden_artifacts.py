"""Every bundled-scenario artifact is byte-identical to its recorded SHA-256.

golden_artifacts.json holds the digests of all files run_scenario writes for
the bundled scenarios, recorded with the numpy release it names.  Criterion 9
only compares two runs of the current code with each other; this test pins
the bytes themselves, so a change to CSV formatting or to the numeric core
that alters any artifact fails here.  FFT and transcendental results may
differ in the last bit between numpy releases, so the check is skipped under
a numpy release other than the recorded one.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from slowlight import load_scenario, run_scenario
from slowlight.scenario import BUNDLED_SCENARIOS

GOLDEN = json.loads((Path(__file__).parent / "golden_artifacts.json").read_text())


def test_bundled_artifacts_match_golden_digests(tmp_path):
    numpy_release = ".".join(np.__version__.split(".")[:2])
    if numpy_release != GOLDEN["numpy"]:
        pytest.skip(f"digests recorded with numpy {GOLDEN['numpy']}, running {np.__version__}")
    digests = {}
    for name in BUNDLED_SCENARIOS:
        run_scenario(load_scenario(name, out_dir=tmp_path / name))
        for f in sorted((tmp_path / name).iterdir()):
            digests[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    expected = GOLDEN["artifacts"]
    assert sorted(digests) == sorted(expected)
    changed = [key for key in expected if digests[key] != expected[key]]
    assert not changed, f"artifacts differ from the golden digests: {changed}"
