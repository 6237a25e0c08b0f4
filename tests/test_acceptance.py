"""Acceptance battery: one test per criterion, run through `validation.run_all`.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and the measured numbers.  The same runner backs the CLI
`validate` task.
"""

import tempfile

import pytest

from shearmix import validation


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


def test_criterion_11_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    _, passed = validation.criterion_11()
    assert passed
    assert list(tmp_path.iterdir()) == []
