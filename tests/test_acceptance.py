"""Acceptance gate: every exit criterion runs at its pinned scale and scope.

One test per criterion, printing a PASS/FAIL line; a final test replays the
whole selftest twice and requires byte-identical reports.
"""

import io
from contextlib import redirect_stdout

import pytest

from deltamat import cli
from deltamat.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("slug", [slug for slug, _ in CRITERIA])
def test_criterion(slug):
    ok, detail = run_criterion(slug)
    print(f"{'PASS' if ok else 'FAIL'} {slug}: {detail}")
    assert ok, f"{slug}: {detail}"


def test_selftest_byte_identical_across_runs():
    reports = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["selftest"])
        reports.append((code, buf.getvalue()))
    assert reports[0][0] == 0
    assert reports[0] == reports[1]
    assert reports[0][1].strip().endswith("selftest: all criteria pass")
