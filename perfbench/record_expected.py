#!/usr/bin/env python3
"""Regenerate expected.json: the verdicts the cli workload can only record.

Whether the generating polynomials of an instance are Lorentzian has no
cheaper independent computation here, so the verdict of ``deltamat
lorentzian`` on each pinned cli instance is recorded once and checked on
every run.  Run from the root of a checkout:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import EXPECTED_FILE, cli_instances, run_cli, serialize_dm


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    workdir = Path.cwd() / "perfbench" / "out" / "record-expected"
    workdir.mkdir(parents=True, exist_ok=True)
    verdicts = {}
    try:
        for inst in cli_instances():
            path = workdir / "instance.dm"
            path.write_text(serialize_dm(inst.n, inst.masks), encoding="utf-8")
            verdicts[inst.name] = {}
            for which in ("indep", "efls"):
                code, stdout = run_cli(["lorentzian", str(path), "--which", which])
                verdicts[inst.name][which] = [code, stdout.splitlines()[-1]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_FILE.write_text(json.dumps({"lorentzian": verdicts}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
