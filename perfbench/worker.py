"""Fresh-interpreter entry point for one workload round or set-up.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T [--check] [--trace] [--setup-only]

``run.py`` starts it with ``PYTHONPATH=src`` so that permpat comes from the
checkout.  The speed sampler starts first, and the set-up clock starts
before permpat is imported.
"""

import sys
import time

from speed import SpeedSampler, pin_to_one_cpu


def main() -> int:
    pin_to_one_cpu()
    with SpeedSampler() as sampler:
        setup_start = time.perf_counter()
        import workloads  # imports permpat: part of the set-up

        return workloads.main(sampler, setup_start)


if __name__ == "__main__":
    sys.exit(main())
