"""Record the reference outputs of the metric-small and refine-ladder catalogues.

    python3 perfbench/make_references.py

Run from the repository root.  Every catalogue instance of both sizes is
solved once with the library as it stands and its transport costs (and, for
refinement studies, the W1 gaps) are written to ``references.json``, which
the benchmark's output checks compare against.  An instance whose solve
fails is recorded with its error, so ops on it count as failed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import REFERENCES, WORKLOADS  # noqa: E402


def main():
    refs = {}
    for name in ("metric-small", "refine-ladder"):
        for wl in WORKLOADS[name].values():
            for case in wl.catalogue():
                try:
                    out = wl.op(case)
                except Exception as exc:  # recorded, so the benchmark counts it failed
                    refs[case["key"]] = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    refs[case["key"]] = {k: out[k] for k in ("T", "w1_gaps") if k in out}
                print(case["key"], refs[case["key"]], flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
