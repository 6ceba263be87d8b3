"""Record the output digest of every sub-seed a run of each seed simulates.

    python3 perfbench/record_digests.py --seeds 0-10 --seconds 24

Writes ``digests.json``: workload -> sub-seed -> canonical digest of the
simulated outputs.  ``run.py`` then fails any sample whose outputs
differ.  Re-record only in a change that means to alter simulated
behaviour, and say why there; a change that only makes the simulator
faster or smaller must leave every digest as it is.
"""

import argparse
import json
import sys
from typing import Dict, List

from run import plan, sample, subseed
from worker import DIGESTS, WORKLOADS


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)

    with DIGESTS.open() as handle:
        recorded: Dict[str, Dict[str, str]] = json.load(handle)
    for workload in args.workload or WORKLOADS:
        table = recorded.setdefault(workload, {})
        for seed in args.seeds:
            for index in range(plan(workload, args.seconds, trace=False)):
                inputs = subseed(seed, index)
                result = sample(workload, inputs, trace=False)
                if result.get("crashed"):
                    print(f"{workload}: {result['failures'][0]}", file=sys.stderr)
                    continue  # nothing to record; run.py counts it failed
                # a stale recorded digest is what this script replaces;
                # any other failed check means the outputs are wrong
                broken = [f for f in result["failures"] if not f.startswith("digest ")]
                if broken:
                    print(f"{workload} seed {inputs}: {broken}", file=sys.stderr)
                    return 1
                table[str(inputs)] = result["digest"]
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
        recorded[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        with DIGESTS.open("w") as handle:
            json.dump(recorded, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
