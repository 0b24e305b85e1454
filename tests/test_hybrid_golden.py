"""Golden digests of the policy-zoo sweep.

Each ``policy_zoo`` row is one (workload, policy, device, budget) cell
evaluated over a replayed trace; any change to page-map lookups, policy
hook arithmetic or wear accounting shifts a row even when the rendered
table still looks the same. ``tests/golden/hybrid_rows.json`` holds the
sha256 of the ``policy_zoo`` result's rows and text at test fidelity.
(The ``dramcache`` experiment is pinned by ``powersim_rows.json``.)

Regenerate only when a result change is intended::

    PYTHONPATH=src python tests/test_hybrid_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.common import ExperimentContext
from repro.experiments.runner import EXPERIMENTS

if not __package__:  # run as a script for --regenerate
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_powersim_golden import FIDELITY, _sha256  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "hybrid_rows.json"
EXPERIMENT_IDS = ("policy_zoo",)


def compute_digests() -> dict:
    ctx = ExperimentContext(**FIDELITY)
    out = {}
    for exp_id in EXPERIMENT_IDS:
        res = EXPERIMENTS[exp_id](ctx)
        out[exp_id] = {"rows": _sha256(res.rows), "text": _sha256(res.text)}
    return out


def test_policy_zoo_rows_match_golden():
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
