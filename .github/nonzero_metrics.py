"""Fail unless each named metric is above 0 in a benchmark run's output.

Usage: python .github/nonzero_metrics.py RUN_OUTPUT METRIC...

RUN_OUTPUT holds what `perfbench/run.py --trace 1` printed; its last
line is the JSON record.  A traced function that moves out from under
the tracer's wrapper reads 0 instead of failing the run, so this check
is what notices it.
"""

import json
import sys

path, *names = sys.argv[1:]
with open(path, encoding="utf-8") as handle:
    metrics = json.loads(handle.read().splitlines()[-1])["metrics"]
zero = [name for name in names if not metrics[name]["value"] > 0]
print("metrics at 0:", zero or "none")
sys.exit(1 if zero else 0)
