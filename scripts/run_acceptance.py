#!/usr/bin/env python3
"""Run the acceptance suite with per-criterion pass/fail lines and the wall
time of each criterion (pytest --durations=0)."""

import subprocess
import sys


def main() -> int:
    return subprocess.call([
        sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s",
        "--durations=0",
    ])


if __name__ == "__main__":
    sys.exit(main())
