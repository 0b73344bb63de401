"""Time one workload's set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of `import anisoplate` until the
workload's inputs are ready.  `run.py` starts it several times per run and
reports the median as `setup_s`.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402  (imports no anisoplate)


def main(argv):
    name, seed = argv[1], int(argv[2])
    t0 = time.perf_counter()
    WORKLOADS[name].setup(seed)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv)
