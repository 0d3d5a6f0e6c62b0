"""One benchmark child: a reference pass or a batch of timed ops.

Started by ``bench/run.py`` as ``python -m bench.child JOB.json`` in a
fresh interpreter with a private working directory. The job names the
workload, seed and mode; the child builds the inputs, reports when it
is ready (the end of set-up), runs, and writes ``result.json`` (and, when
traced, ``spans.jsonl``) next to the job file. Timestamps are
``time.perf_counter()`` values, which on Linux read the system-wide
monotonic clock, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv) -> int:
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text())
    from bench.workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]]
    inputs = workload.build(job["seed"])
    ready = time.perf_counter()
    result = {"ready": ready}
    if job["mode"] == "reference":
        result["reference"] = workload.reference(inputs)
        (job_path.parent / "result.json").write_text(json.dumps(result))
        return 0

    recorder = None
    if job["traced"]:
        from bench.layers import Recorder, Tracing
        recorder = Recorder()
        Tracing(recorder).install()
    ops = []
    for k in job["ops"]:
        if recorder is not None:
            recorder.begin_op(k)
        error = None
        start = time.perf_counter()
        try:
            value = workload.op(inputs, k)
        except Exception:
            value, error = None, traceback.format_exc()
        end = time.perf_counter()
        if recorder is not None:
            recorder.end_op()
        record = {"k": k, "start": start, "end": end}
        if error is None:
            record["out"] = {"k": k, **workload.outputs(inputs, k, value)}
        else:
            record["error"] = error
        ops.append(record)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = ops
    (job_path.parent / "result.json").write_text(json.dumps(result))
    if recorder is not None:
        with open(job_path.parent / "spans.jsonl", "w") as fh:
            for row in recorder.rows():
                fh.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
