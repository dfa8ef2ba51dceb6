"""Set-up cost in a fresh interpreter: import subreglab, build the catalog, parse configs.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml...  (with src/ on PYTHONPATH)
Prints one JSON line {"setup_s": seconds}. Interpreter start-up is not counted.
"""

import json
import sys
import time

t0 = time.perf_counter()
import yaml  # noqa: E402

import subreglab  # noqa: E402
from subreglab import radius_cli  # noqa: E402

subreglab.catalog()
for path in sys.argv[1:]:
    with open(path) as fh:
        radius_cli.parse_config(yaml.safe_load(fh))
print(json.dumps({"setup_s": time.perf_counter() - t0}))
