"""Record bench/expected.json: the inputs a workload seed can select (map
symmetries, fig2 noise seeds) and the SHA-256 of every artefact of each.

    python3 bench/record.py

The benchmark fails any command whose artefacts differ from these hashes,
so record only at a commit whose outputs are known to be right, and again
only in a change that means to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # noqa: F401  (puts src/ on the path and pins BLAS threads)
from checks import Checker, sha256
from relaynet import cli
from workloads import EXPECTED_PATH, WORKLOADS, noisy_runs

NOISE_CANDIDATES = range(64)


def run_and_hash(commands, work: Path, n_goals: int) -> dict[str, str] | None:
    """Artefact hashes of the commands, or None, with the reason on stderr,
    when one of them fails."""
    checker = Checker(work, {}, n_goals)
    hashes = {}
    for cmd in commands:
        shutil.rmtree(work / cmd.out, ignore_errors=True)
        rc = cli.main(list(cmd.argv))
        problems = [f"exit status {rc}"] if rc != 0 else checker.content_problems(cmd)
        if problems:
            print(f"left out {cmd.out}: {'; '.join(problems)}", file=sys.stderr)
            return None
        for name in cmd.artefacts:
            hashes[f"{cmd.out}/{name}"] = sha256(work / cmd.out / name)
    return hashes


def replans(work: Path, cmd) -> int:
    header, row = (work / cmd.out / "metrics.csv").read_text().splitlines()
    return int(dict(zip(header.split(","), row.split(",")))["replans"])


def main() -> None:
    record = {"fig2_noise_pool": [], "symmetries": {}, "hashes": {}}
    for wl in WORKLOADS.values():
        work = run.WORK_ROOT / "record" / wl.name
        shutil.rmtree(work, ignore_errors=True)
        per_input = record["hashes"][wl.name] = {}
        if wl.scenario is None:
            scenario = wl.write_input(0, work)
            n_goals = len(json.loads(scenario.read_text())["goals"])
            hashes = {}
            for n in NOISE_CANDIDATES:
                cmds = noisy_runs(str(scenario), [n], work)
                got = run_and_hash(cmds, work, n_goals)
                # a pass must do the same work whatever the seed: keep the
                # noise seeds on which every mode stalls and replans once
                if got is not None and all(replans(work, c) == 1 for c in cmds):
                    record["fig2_noise_pool"].append(n)
                    hashes.update(got)
            per_input["fig2"] = hashes
        else:
            usable = record["symmetries"][wl.name] = []
            for k in range(8):
                scenario = wl.write_input(k, work)
                n_goals = len(json.loads(scenario.read_text())["goals"])
                got = run_and_hash(wl.commands(k, work), work, n_goals)
                if got is not None:
                    usable.append(k)
                    per_input[f"sym{k}"] = got
        print(f"{wl.name}: {sum(len(h) for h in per_input.values())} artefacts", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
