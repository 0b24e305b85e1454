"""Golden digests of the experiments built on the power simulator.

Table VI rows carry unrounded float power ratios, so any reordering of
the controller's float operations shows up here even when every rendered
table still looks the same. ``tests/golden/powersim_rows.json`` holds the
sha256 of the ``table6``, ``capacity`` and ``dramcache`` results' rows and
text at test fidelity.

Regenerate only when a result change is intended::

    PYTHONPATH=src python tests/test_powersim_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments.common import ExperimentContext
from repro.experiments.runner import EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden" / "powersim_rows.json"
EXPERIMENT_IDS = ("table6", "capacity", "dramcache")
#: test fidelity (the same knobs as ``tests/test_experiments.py``)
FIDELITY = {"refs_per_iteration": 10_000, "scale": 1.0 / 256.0}


def _sha256(obj) -> str:
    def plain(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"no JSON form for {type(o).__name__}")

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict:
    ctx = ExperimentContext(**FIDELITY)
    out = {}
    for exp_id in EXPERIMENT_IDS:
        res = EXPERIMENTS[exp_id](ctx)
        out[exp_id] = {"rows": _sha256(res.rows), "text": _sha256(res.text)}
    return out


def test_powersim_rows_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert expected["fidelity"] == FIDELITY
    assert compute_digests() == expected["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"fidelity": FIDELITY, "digests": compute_digests()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
