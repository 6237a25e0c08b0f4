"""Rebuild references.json: the stored outputs of the fixed battery jobs.

Runs every job that declares a reference key, at both sizes, through the
same CLI path the benchmark times, and stores the numbers the checks
compare against (the whole bounds report; ``r_lambda1`` of each sweep).
Run from the repository root, at a commit whose numbers are trusted::

    python3 perfbench/make_references.py
"""

import json
import shutil
import sys

from run import ROOT, limit_threads

limit_threads()  # the same BLAS setting as the timed runs
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    work = ROOT / ".perfbench_out" / "references-work"
    refs = {}
    try:
        for workload in workloads.WORKLOADS:
            for tiny in (False, True):
                for job in workloads.build(workload, 0, work / workload, tiny=tiny):
                    key = job.facts.get("ref")
                    if key is None:
                        continue
                    _, out = job.output(job.call())
                    if key.startswith("bounds/"):
                        refs[key] = json.loads((out / "bounds.json").read_text())
                    else:
                        summary = json.loads((out / "spectral_summary.json").read_text())
                        refs[key] = summary["r_lambda1"]
                    print(key)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
