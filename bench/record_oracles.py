"""Write oracles.json from the current src/: report hashes and check reports.

    python3 bench/record_oracles.py

Runs every workload's ops once on the corpus as written, with the ops
storing what they would otherwise compare.  Run it only at a commit
whose outputs are known good; the benchmark treats the recorded values
as the truth.
"""

from __future__ import annotations

import json
import time

from run import OUT, import_gencluster
from workloads import ORACLE_FILE, WORKLOADS


def main():
    gc = import_gencluster()
    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"sha256": {}, "checks": {}}
    for cls in WORKLOADS.values():
        workload = cls(gc, None, workdir, time.perf_counter, recording=out)
        for _, op in workload.ops():
            op({})
    ORACLE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote", ORACLE_FILE)


if __name__ == "__main__":
    main()
