"""Record reference outputs for every workload, size and input variant.

    python3 bench/record_reference.py [SIZE ...]   # default: every size

writes bench/reference.json, replacing the sizes named and keeping others.

Run it only at a commit whose outputs are known good: the benchmark fails
every op whose output differs from what this records. Ops run in-process
(CLI commands through mfkappa.cli.main), so the benchmark's subprocess runs
are checked against the library path.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def record(size: str, name: str, variant: int) -> dict:
    from workloads import WORKLOADS, run_inprocess_cli
    work = os.path.join(run.HERE, "_work", f"record-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = WORKLOADS[name](size, variant, work, run.child_env())
        wl.setup()
        ops = {}
        for op in wl.ops:
            if wl.cli:
                run_inprocess_cli(op.argvs)
                ops[op.key] = op.digest()
            else:
                ops[op.key] = op.digest(op.call())
        return {"setup": wl.setup_digest(), "ops": ops}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run.load_package()
    from workloads import SIZES, VARIANTS, WORKLOADS
    sizes = sys.argv[1:] or list(SIZES)
    out = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            out = json.load(fh)
    for size in sizes:
        out[size] = {}
        for name in WORKLOADS:
            for variant in range(VARIANTS):
                print(size, name, variant, file=sys.stderr, flush=True)
                out[size].setdefault(name, {})[str(variant)] = \
                    record(size, name, variant)
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
