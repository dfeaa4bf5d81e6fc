"""Times one cold set-up of the package in a fresh interpreter: the import,
building the loop and noise as the CLI does, and one warm-up evaluation.

    python3 perfbench/setup_probe.py SRC_DIR OMEGA_TAU LAMBDA_SQ

Prints the elapsed seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from tripod_holonomy import cli, mean_fidelity, with_total_time  # noqa: E402

cfg = cli.RunConfig()
loop = cli.build_loop(cfg)
noise = cli.build_noise(cfg).with_lambda_sq(float(sys.argv[3]))
mean_fidelity(with_total_time(loop, float(sys.argv[2])), noise)
print(repr(time.perf_counter() - T0))
