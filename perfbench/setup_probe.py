"""Set-up probe: a fresh interpreter computes one workload's first result.

    python3 perfbench/setup_probe.py <workload>
    python3 perfbench/setup_probe.py --reference

Prints {"import_s": ..., "tables_s": ...}: the time to import the package,
then the time of the first operation, which builds the lazy tables that
every later operation of that workload uses.

With --reference the interpreter does fixed set-up work that shares no
code with the package instead: it imports numpy and the standard modules
the package imports, then runs the reference loop of run.py. Its time
calibrates the package's set-up time.
"""

import json
import sys
import time

REFERENCE_LOOPS = 10


def reference() -> None:
    import dataclasses, itertools, json, random  # noqa: F401,E401
    import numpy  # noqa: F401
    from run import reference_loop
    for _ in range(REFERENCE_LOOPS):
        reference_loop()


def main() -> None:
    t0 = time.perf_counter()
    if sys.argv[1] == "--reference":
        reference()
        print(json.dumps({"reference_s": time.perf_counter() - t0}))
        return
    from sourcetree import use_source_tree
    use_source_tree()
    t1 = time.perf_counter()
    import workloads
    workloads.first_result(sys.argv[1])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1}))


if __name__ == "__main__":
    main()
