"""Acceptance battery: one test per criterion, run through `validation.run_all`.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and the measured numbers.  The same runner backs the CLI
`validate` task.
"""

import hashlib
import json
import tempfile

import pytest

from shearmix import cli, validation

# SHA-256 of each criterion's details as `shearmix validate` writes them into
# validation.json, with the one BLAS thread that conftest.py sets (two threads
# move the dense gaps in their last bits).  A change that moves any number of
# the battery fails here.
DETAILS_SHA256 = {
    1: "007f7ad9d37e1c28a95dfde52cf25b4effd5d2e957051afab2d2ec2943d017d1",
    2: "d67aa955b0adab29a06dfba103c15f731f0b069fd4875c535a7589e04b09097e",
    3: "ef2964a1a6255952e7473fe42e1d5b5779974ee1f0687885619ebcc07015ad06",
    4: "e6c0cb708b0f996e5ac75a6695ec72ee4be4226f12e3e1b9da9d50a8e9cf379e",
    5: "6c0728e5a616869e71005ae35488d595b0d10f8d273fc504110a17b5efc1c209",
    6: "a08df84b388ec954cfa044153d9c1471758237d2d0aae74e9d33653ec3e04e9a",
    7: "1dfd03a74507f3ceb752c9f1f19e15b47924b70a30304973117aa75718a4b4a0",
    8: "3e4ae89c10931dd1f987a70516679eb4113923eefe0afc566e3eae097bda41dd",
    9: "23535030f1433ab86d0eb3e6164616d4fddfc81ade40b3f40900d4f0c036c277",
    10: "6570b515b37887a1ad908c784ac1a2f0b306afa653903fd3924ff4527dcd0751",
    11: "8c3a1da19419ad9b564e8d0d8cf0aac865734b276f82fdd1c1cbb3a0c174ee39",
}


@pytest.mark.parametrize(
    "cid,name",
    [(cid, name) for cid, name, _ in validation.CRITERIA],
    ids=[f"c{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in validation.CRITERIA],
)
def test_criterion(cid, name):
    (result,) = validation.run_all(ids=[cid])
    print(result.line())
    for key, value in result.details.items():
        print(f"        {key}: {value}")
    assert result.passed, f"criterion {cid} ({name}) failed: {result.details}"
    blob = json.dumps(cli._jsonable(result.details), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DETAILS_SHA256[cid]


def test_criterion_11_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    _, passed = validation.criterion_11()
    assert passed
    assert list(tmp_path.iterdir()) == []
