"""Every checkpoint of ``run_all()`` matches the benchmark's golden record
(``perfbench/golden_prove.json``, read only), field by field, so a kernel
rewrite that changes a rendered expression fails here and not only in the
benchmark.  The live report may carry checkpoints the golden lacks."""
import json
from pathlib import Path

import pytest

from singmin.proofs import reports_to_json, run_all

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_prove.json"
FIELDS = ("mode", "computed", "expected", "factor")
CHECKPOINTS = json.loads(GOLDEN.read_text())["checkpoints"]


@pytest.fixture(scope="module")
def live():
    doc = json.loads(reports_to_json(run_all()))
    return {
        (rep["theorem"], cp["name"]): cp
        for rep in doc["reports"]
        for cp in rep["checkpoints"]
    }


def test_golden_keeps_every_checkpoint():
    assert len(CHECKPOINTS) >= 55


@pytest.mark.parametrize("want", CHECKPOINTS, ids=lambda cp: f"{cp['theorem']}/{cp['name']}")
def test_checkpoint_matches_the_golden(live, want):
    key = (want["theorem"], want["name"])
    assert key in live
    for field in FIELDS:
        assert live[key][field] == want[field], field
