#!/usr/bin/env python3
"""One-shot acceptance-headroom report (not part of the repeated workloads).

    python3 perfbench/headroom.py

Runs ``tests/test_acceptance.py -s`` once (a couple of minutes) and turns
every ``ACCEPTANCE NN PASS (x s / budget y s) label`` line into elapsed time
against budget.  Prints the report as JSON and writes it to
``perfbench/_work/acceptance_headroom.json``.  It gates nothing: the
acceptance tests themselves enforce their budgets.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"ACCEPTANCE (\d+) (\w+) \(\s*([\d.]+)s / budget ([\d.]+)s\) (.*)")


def parse(text: str) -> list:
    rows = []
    for match in LINE.finditer(text):
        number, status, elapsed, budget, label = match.groups()
        elapsed, budget = float(elapsed), float(budget)
        rows.append({"criterion": int(number), "status": status, "elapsed_s": elapsed,
                     "budget_s": budget, "used_frac": elapsed / budget, "label": label.strip()})
    return rows


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    report = {"pytest_exit_code": proc.returncode, "criteria": parse(proc.stdout)}
    out = Path(__file__).resolve().parent / "_work" / "acceptance_headroom.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
