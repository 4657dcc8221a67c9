"""Record the deterministic outputs of every pool case in reference.json.

Run from the root of a palab checkout at the commit whose outputs become the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

Every later run compares its deterministic outputs against this file (see
``TOLERANCES`` in workloads.py).  Sampled outputs have no reference; they are
checked by palab's verdicts only.
"""

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record(cls, picks_list) -> dict:
    entries = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for picks in picks_list:
            for op in cls(0, workdir, picks).run_pass():
                if not op.ok:
                    raise SystemExit(f"{cls.name} {op.name}: {op.error}")
                if op.ref_key:
                    entries[op.ref_key] = {name: op.values[name] for name in op.ref_fields}
    return dict(sorted(entries.items()))


def main() -> int:
    pool = range(workloads.POOL_SIZE)
    out = {
        "about": "Deterministic outputs of the benchmark's pool cases, recorded by make_reference.py.",
        "tolerances": workloads.TOLERANCES,
        "workloads": {
            "mdep_bootstrap": record(workloads.MdepBootstrap, [{1: k, 2: k} for k in pool]),
            "exact_lattice": record(workloads.ExactLattice,
                                    [{"stein": k, 1: k, 2: k, 3: k} for k in pool]),
            "ustat_partition": record(workloads.UstatPartition, [None]),
            "gibbs_partition": {},
        },
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
