"""One set-up sample in a fresh interpreter.

``python3 setup_probe.py <workload> <slot> <size>`` imports the package,
compiles the workload's plan and, for a pooled workload, starts the
shared pool and waits for every worker.  It then prints
``time.monotonic()``, which the parent subtracts from its own reading
taken just before the spawn (both read the system-wide monotonic clock).
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(name: str, slot: str, size: str) -> None:
    import workloads
    from repro.experiments.scheduler import shutdown_shared_pool

    workload = workloads.build(name, size, workdir=HERE)
    workload.cells(int(slot))
    if workload.jobs > 1:
        workloads.start_pool(workload.jobs)
    ready = time.monotonic()
    shutdown_shared_pool()
    print(ready)


if __name__ == "__main__":
    main(*sys.argv[1:4])
