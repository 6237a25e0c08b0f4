"""Acceptance battery: one test per criterion, shared spectral cache.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and the measured numbers.  The same checks back the CLI
`validate` task.
"""

import tempfile
import time

import pytest

from shearmix import validation

_CACHE: dict = {}


@pytest.mark.parametrize(
    "cid,name,func",
    validation.CRITERIA,
    ids=[f"c{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in validation.CRITERIA],
)
def test_criterion(cid, name, func):
    start = time.time()
    details, passed = func(cache=_CACHE)
    result = validation.CriterionResult(cid, name, passed, details, time.time() - start)
    print(result.line())
    for key, value in details.items():
        print(f"        {key}: {value}")
    assert passed, f"criterion {cid} ({name}) failed: {details}"


def test_criterion_11_removes_its_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _, passed = validation.criterion_11()
    assert passed
    assert list(tmp_path.iterdir()) == []
