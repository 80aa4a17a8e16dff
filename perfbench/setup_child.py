"""Fresh-process set-up probe.

Imports the package, parses the workload's config from stdin and builds the
preset arm, then prints the three phase times as one JSON line: the line
marks "ready". The parent times the whole span from spawning this process.

    python3 perfbench/setup_child.py SRC_DIR < workload.ini
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import myoarm.cli  # noqa: E402,F401  (the package's whole import graph)
from myoarm import config  # noqa: E402

t1 = time.perf_counter()
cfg = config.parse_config(sys.stdin.read(), env={})
t2 = time.perf_counter()
config.arm_from_config(cfg)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "arm_build_s": t3 - t2}), flush=True)
