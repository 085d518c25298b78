"""Time one benchmark set-up in this fresh interpreter: import mvtk, then
generate the inputs of a workload for a seed.  Prints the seconds as
measured and rescaled to the reference host (see harness.Reference).

    python3 perfbench/setup_probe.py identities 1
"""

import sys

import harness
from harness import NullTracer


def main(workload: str, seed: str) -> int:
    def setup():
        harness.import_mvtk()
        import workloads

        workloads.WORKLOADS[workload].generate(int(seed), NullTracer())

    wall, scaled = harness.scaled_seconds(setup)
    print(wall, scaled)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
