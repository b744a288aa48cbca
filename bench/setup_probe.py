"""Set-up of one benchmark run, in a fresh process timed by run.py.

Imports gldx from the checkout, generates and loads the workload's
configs, prints ``ready`` and exits.

    python3 bench/setup_probe.py <workload> <seed> <config-dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gldx.cli  # noqa: E402,F401
from workloads import WORKLOADS, write_configs  # noqa: E402

write_configs(WORKLOADS[sys.argv[1]](int(sys.argv[2])), Path(sys.argv[3]))
print("ready", flush=True)
