"""The traced pass of ``run.py --trace 1``.

    python3 perfbench/traced_pass.py WORKLOAD SEED WORKDIR  (from the repo root)

It runs in a fresh interpreter, so that no process-wide cache warmed by
the untraced pass serves it: both passes start cold.  It rebuilds the
workload's documents in WORKDIR from the seed (the same bytes the untraced
pass read), runs the job list once with every layer wrapped, puts every
original back, writes the spans to WORKDIR/spans.jsonl and prints one JSON
object: the pass's wall time at reference speed, each job's exit code and
stdout digest, the per-layer metrics with their units, and the bindings
left wrapped.
"""

import json
import sys

sys.path.insert(0, "src")

import jobs as jobmod  # noqa: E402
from run import Speed, digest, run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    jobs = jobmod.build(workload, seed, workdir).jobs
    tracer = Tracer()
    try:
        outcomes = run_pass(jobs, jobmod.Outcome, Speed(), tracer)
    finally:
        not_restored = tracer.close()
    tracer.write_spans(f"{workdir}/spans.jsonl")
    print(json.dumps({
        "wall": sum(o.scaled for o in outcomes.values()),
        "jobs": {name: [o.code, digest(o.out)]
                 for name, o in outcomes.items()},
        "layer": tracer.metrics(),
        "not_restored": not_restored,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
