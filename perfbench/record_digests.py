#!/usr/bin/env python3
"""Record the SHA-256 of every file each workload writes, at the given seeds.

    python3 perfbench/record_digests.py 0 1 2

At a recorded seed the benchmark requires these exact bytes, so re-record
only when the outputs are meant to change (a new random-stream version or a
CSV format change). Outputs must pass the structural checks to be recorded.
"""

import json
import shutil
import sys

import workloads

SCRATCH = workloads.ROOT / ".perfbench" / "record"


def main(seeds: list[int]) -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    import rispla.cli

    digests = workloads.load_digests()
    try:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                it = workloads.run_iteration(name, rispla.cli.main, SCRATCH, seed)
                if it.failed:
                    print(f"{name} seed {seed}: not recorded: {it.problems}", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = {
                    p.name: workloads.sha256(p) for p in sorted((SCRATCH / "out").iterdir())}
                print(f"{name} seed {seed}: {len(digests[name][str(seed)])} files")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
