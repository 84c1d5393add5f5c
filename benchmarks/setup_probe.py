"""One benchmark run's set-up in a fresh interpreter: import the library and
build the workload's configs, then print `ready`.  run.py times it from spawn
to that line.

Usage: python3 benchmarks/setup_probe.py WORKLOAD
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.make_configs(workloads.load_pipeline(), sys.argv[1])
    print("ready", flush=True)
