"""Set-up child of the benchmark: build one workload's inputs.

Runs in its own process so the timed phase's peak memory excludes
set-up (synthesis and, for ``forecast``, training).  Builds the inputs
once under ``--work`` (a build is byte-identical under the seed) and
prints one JSON line with the build's wall time, the reference loop's
time around it (``reference.py``), the workload properties and, with
``--trace 1``, the set-up trace.

    python3 pvsdebench/prepare.py --workload NAME --work DIR \
        --config JSON --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--config", required=True,
                        help="RunConfig fields as a JSON object")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap.enter():
        sys.stderr.write(f"no pvsde sources under {bootstrap.SRC}\n")
        return 2

    import layers
    import reference
    import spans
    import workloads
    from pvsde.pipeline import RunConfig

    cfg = RunConfig(**json.loads(args.config))
    tracer = spans.Tracer()
    ref = reference.seconds()
    t0 = time.perf_counter()
    if args.trace:
        with spans.patched(tracer, layers.PROBES):
            properties = workloads.prepare(args.workload, cfg, args.work)
    else:
        properties = workloads.prepare(args.workload, cfg, args.work)
    seconds = time.perf_counter() - t0
    ref = (ref + reference.seconds()) / 2
    print(json.dumps(dict(setup_s=seconds, ref_s=ref, properties=properties,
                          trace=tracer.to_dict() if args.trace else None)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
