"""Write bench/golden.json from the current program at the reference seed.

    PYTHONPATH=src python3 bench/make_golden.py

Run it only at a commit whose outputs are trusted: the file pins the golden
ops of every workload (worker.GOLDEN_OPS) for all later runs.
"""

import json

import worker
import workloads

if __name__ == "__main__":
    record = {"reference_seed": worker.REFERENCE_SEED,
              "workloads": {w: worker.golden_summaries(w) for w in workloads.WORKLOADS}}
    worker.GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {worker.GOLDEN}")
