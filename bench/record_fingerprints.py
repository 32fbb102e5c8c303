"""Record output fingerprints of the current eewsim for the benchmark oracle.

    python3 bench/record_fingerprints.py [seed ...]      (default: seeds 0-4)

For every workload and seed, runs ``eewsim all`` once, requires the oracle
to pass, and stores the digests of the generated inputs with the numeric
fingerprint of the outputs in ``fingerprints.json``. Benchmark runs on a
recorded seed then require outputs within 1e-9 relative of these values.
Record only from a commit whose outputs are known good.
"""

import json
import shutil
import sys

import oracle
from run import FINGERPRINTS, WORK_ROOT, Run
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    refs: dict = {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            work = WORK_ROOT / f"record-{workload.name}-{seed}"
            try:
                run = Run(workload, seed, work, use_fingerprints=False)
                out = work / "out"
                if run.run("all", run.eewsim("all", out)) is None or not run.verify("all", out):
                    print("\n".join(run.failures), file=sys.stderr)
                    return 1
                refs.setdefault(workload.name, {})[str(seed)] = {
                    "inputs": oracle.digests(run.config.parent),
                    "outputs": oracle.fingerprint(out),
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {workload.name} seed {seed}")
    FINGERPRINTS.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or list(range(5))))
