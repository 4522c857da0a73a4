#!/usr/bin/env python3
"""Run every workload once, printing its per-op verdicts, fail_ratio and
end-to-end metrics with units.

    python3 perfbench/report.py [--seed N]

Each workload runs through run.py for BENCHMARK.json's run_seconds, untraced;
the exit code is non-zero if any run failed or any op failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines.pop()) if proc.returncode == 0 else {"correct": False}
        print("\n".join(lines), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
