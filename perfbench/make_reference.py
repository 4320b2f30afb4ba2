#!/usr/bin/env python3
"""Write the reference outputs that timed runs with --seed 0 are checked against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the first operations of each workload's seed-0 plan at jobs 1 and stores,
per operation, the fields workloads.py compares: for test-n20k the decision,
J_reported, J_list and per-J W and p_value; for the Monte Carlo workloads the
per-cell reject_rate, avg_J and failures. Regenerate only when the expected
outputs change on purpose.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import environment, import_package, outcomes, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Operations with a stored reference, per workload: several times what one
# run completes on a 2-core Xeon at this version, so faster builds stay checked.
REFERENCE_OPS = {"test-n20k": 90, "mc-t1-n500": 18 * 24, "mc-suppd-n5000-jobs2": 3 * 20}


def main(names) -> int:
    pkg = import_package()
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        workdir = HERE.parent / ".perfbench_work" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            plan = wl.plan(0, workdir)
            ops = plan["ops"][: REFERENCE_OPS[name]]
            p = run_pass(wl, pkg, ops, 1)
            outs = outcomes(wl, pkg, p, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [(op["index"], o.problems) for op, o in zip(ops, outs) if o.problems]
        if bad:
            raise SystemExit(f"{name}: operations failed, no reference written: {bad[:3]}")
        doc = {"workload": name, "seed": 0, "environment": environment(pkg), "ops": [o.summary for o in outs]}
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(ops)} operations in {p.wall:.1f} s -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
