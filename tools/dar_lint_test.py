#!/usr/bin/env python3
"""Golden-output test for tools/dar_lint.py.

Runs the linter over the fixture tree in tools/testdata/lint_fixture (which
plants at least one violation of each rule, plus allowlisted files that must
stay silent) and diffs stdout against tools/testdata/expected_lint_output.txt.
Also asserts the exit codes: 1 on the fixture, 0 on the real tree, and that
every registered rule fires somewhere in the golden output — a rule nobody
violates in the fixture is a rule whose regression coverage silently rotted.
"""

import difflib
import pathlib
import re
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent
REPO = TOOLS.parent

# Every rule dar_lint.py implements. Adding a rule without a fixture case
# (and a golden line) fails the coverage check below.
ALL_RULES = {
    "header-guard",
    "no-iostream",
    "no-naked-new",
    "no-unseeded-rng",
    "no-raw-mutex",
    "no-detached-thread",
    "no-lingering-deprecated",
    "test-registered",
    "unique-temp-path",
    "wire-in-codec",
}


def main():
    fixture = TOOLS / "testdata" / "lint_fixture"
    expected_path = TOOLS / "testdata" / "expected_lint_output.txt"

    proc = subprocess.run(
        [sys.executable, str(TOOLS / "dar_lint.py"), "--root", str(fixture)],
        capture_output=True, text=True)
    if proc.returncode != 1:
        print(f"FAIL: expected exit 1 on the fixture, got {proc.returncode}")
        print(proc.stdout + proc.stderr)
        return 1

    expected = expected_path.read_text()
    covered = set(re.findall(r"\[([a-z-]+)\]", expected))
    if covered != ALL_RULES:
        missing = sorted(ALL_RULES - covered)
        extra = sorted(covered - ALL_RULES)
        print(f"FAIL: golden output rule coverage mismatch: "
              f"missing={missing} unknown={extra}")
        return 1

    if proc.stdout != expected:
        print("FAIL: lint output differs from golden file:")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile="expected_lint_output.txt", tofile="actual"))
        return 1

    proc = subprocess.run(
        [sys.executable, str(TOOLS / "dar_lint.py"), "--root", str(REPO)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("FAIL: the real tree must lint clean:")
        print(proc.stdout + proc.stderr)
        return 1

    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
