"""Set-up time of betti4 in a fresh interpreter.

Usage (from the repository root): python3 bench/setup_probe.py <CLI args...>

Times ``import betti4.cli`` plus one ``main(argv)`` call with the given
arguments, then prints "<seconds> <exit code> <kernel ns>" followed by
the call's captured output; the last field is the median time of the
calibration kernel (calibration.py) run afterwards in this process.
Only modules the interpreter has already loaded at start-up are
imported before the clock starts, so everything betti4 pulls in is
counted and interpreter start-up is not.
"""

import io
import os
import sys
import time

CALIBRATION_RUNS = 11


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    captured = io.StringIO()
    real_stdout = sys.stdout
    start = time.perf_counter()
    import betti4.cli

    sys.stdout = captured
    try:
        code = betti4.cli.main(sys.argv[1:])
    finally:
        sys.stdout = real_stdout
    elapsed = time.perf_counter() - start
    import statistics

    import calibration

    kernel = statistics.median(calibration.kernel_ns() for _ in range(CALIBRATION_RUNS))
    print(f"{elapsed!r} {code} {kernel}")
    sys.stdout.write(captured.getvalue())


if __name__ == "__main__":
    main()
