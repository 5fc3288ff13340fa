"""The set-up of one benchmark run: write a workload's scenario files for a
seed and load them. It runs in a fresh process, so that set-up time covers
the interpreter start and the imports, as it does for a user of the CLI.

    python3 bench/prepare.py <workload> <seed> <work dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relaynet.cli import load_scenario  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> None:
    workload, seed, work = argv
    load_scenario(WORKLOADS[workload].prepare(int(seed), Path(work)))


if __name__ == "__main__":
    main(sys.argv[1:])
