"""Demo outputs: each ``demos/<name>.py`` must print exactly
``demos/expected/<name>.txt``.

The demos are seeded, so their output changes only when the random stream
or a printed formula changes on purpose.  To rewrite an expected file after
such a change (and say why in CHANGES.md), run

    PYTHONPATH=src python demos/<name>.py > demos/expected/<name>.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True
    ).stdout
    assert out == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
