"""Tier-1 verdict: the suite passes but for the acceptance clauses that fail by design.

Run from anywhere in a checkout (needs only what the test suite needs):

    python tests/data/tier1_verdict.py

It runs the Tier-1 command, ``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors`` from the repository root, and exits 0 only if the tests
that fail (or error) are exactly the five clauses in ``BY_DESIGN``.  Each asserts a printed
claim of the paper that the package's verified values contradict (README, "Expected
failures").  Otherwise it prints each other failure and each of the five that did not fail,
and exits 1.  pytest's own report goes to stdout as usual.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BY_DESIGN = ("06c_printed_squeezed_vacuum_p2", "07b_fig1_positive_flanks", "07c_fig1_im_invariance",
             "09b_bell_violation_band", "09d_bell_plateau_exceeds_two")
EXPECTED = {f"tests.test_acceptance::test_criterion_{name}" for name in BY_DESIGN}


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory(prefix="tier1_verdict_") as scratch:
        report = Path(scratch) / "report.xml"
        code = subprocess.call([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                                f"--junitxml={report}"], cwd=ROOT, env=env)
        if code not in (0, 1):  # 1: some tests failed; anything else: the run itself did not finish
            sys.exit(f"pytest exited {code}")
        # a module that fails to import is a case with no class name, named by its module
        failed = {"::".join(filter(None, (case.get("classname"), case.get("name"))))
                  for case in ElementTree.parse(report).iter("testcase")
                  if case.find("failure") is not None or case.find("error") is not None}
    for test in sorted(failed - EXPECTED):
        print(f"unexpected failure: {test}")
    for test in sorted(EXPECTED - failed):
        print(f"by-design failure did not fail: {test}")
    if failed == EXPECTED:
        print(f"only the {len(EXPECTED)} by-design failures")
    sys.exit(failed != EXPECTED)


if __name__ == "__main__":
    main()
