#!/usr/bin/env python3
"""Regenerate frozen.json, the reference outputs the benchmark checks.

    python3 benchmark/freeze.py

Runs one pass of every workload at seed 0 and records the outputs that
every seed must reproduce (eigen-p2 thresholds are recorded as c^p t_N).
Only a change that redefines the benchmark regenerates this file; a change
to the program must reproduce it.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    frozen = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.WORK_DIR / f"freeze-{name}"
        try:
            wl = cls(0, workdir)
            checked = wl.check(wl.execute())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if checked.failed or checked.incorrect:
            print(f"{name}: {checked.failed + checked.incorrect}", file=sys.stderr)
            return 1
        frozen[name] = checked.observed
    workloads.FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
