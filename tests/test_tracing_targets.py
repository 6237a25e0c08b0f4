"""The traced benchmark run wraps every name in perfbench's TARGETS, and reads the CLI's output.

`perfbench.tracing.Tracer.install` looks each (owner, attribute) up in the
owner's own __dict__, so a rename or a move of a traced function or method
breaks the traced run.  The first test reads TARGETS and wraps nothing.  The
traced run also reads a spectrum job's `spectral_summary.json`, `sweep.csv`
and `manifest.json`; the second test runs its readers on a small job.
"""

import json
import numbers
from types import SimpleNamespace

from perfbench import tracing
from shearmix import cli


def test_every_traced_name_is_defined_on_its_owner():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_the_readers_of_a_spectrum_job_read_numbers(tmp_path):
    config = {"task": "spectrum",
              "velocity": {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5],
                           "values": [0.0, 1.0]},
              "params": {"k": 1, "boundary": "dirichlet", "n": 16, "s_points": 64}}
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    job = SimpleNamespace(facts={"out": out, "config": config})
    facts = tracing._sweep_facts(job)
    assert len(facts) == 5 and all(isinstance(v, numbers.Number) for v in facts)
    assert tracing._artifact_bytes(job) > 0
