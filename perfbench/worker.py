"""One benchmark process: `python3 perfbench/worker.py MODE --workload W
--seed N [--trace]`, run from the repository root with `src` on PYTHONPATH.

Modes: `reference` runs reference_loop() and nothing else (run.py scales
its times by the time of this process); `setup` imports starchain and
validates the workload's configs; `run` runs the workload once (`--trace`
wraps the layer boundaries first); `micro` runs the microbenchmarks.  The last stdout line is one JSON object.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction


def reference_loop(n=40000):
    """Seconds taken by a fixed loop over the operations starchain's
    scalars are made of: build a dict of n Fractions under tuple keys
    (a few MiB, so it feels cache and memory contention too), then update
    its entries in a scattered order with Fraction products and sums."""
    t0 = time.perf_counter()
    table = {(i % 251, i // 251, i % 7): Fraction(i % 97 + 1, i % 89 + 2)
             for i in range(n)}
    keys = list(table)
    acc = Fraction(0)
    for j in range(n):
        key = keys[j * 7919 % n]
        acc = table[key] = table[key] * Fraction(j % 13 + 1, 3) + acc
        if acc.denominator > 10 ** 9:
            acc = Fraction(1, j % 5 + 1)
    return time.perf_counter() - t0


def _import_starchain():
    import starchain
    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(starchain.__file__).startswith(src):
        raise SystemExit(f"starchain was imported from {starchain.__file__}, "
                         f"not from {src}")


def execute(mode, workload=None, seed=0, trace=False, tiny=False):
    """Do one worker's job in this process; returns its JSON-able result.
    `tiny` selects the smoke-test sizes."""
    if mode == "reference":
        return {"seconds": reference_loop()}
    _import_starchain()
    import workloads
    if mode == "setup":
        workloads.setup(workload, seed)
        return {"ready": time.perf_counter()}
    if mode == "micro":
        import micro
        if tiny:
            return {"micro": micro.run(workloads.TINY["chains"]["torus"],
                                       batch_s=0.0)}
        return {"micro": micro.run()}

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        reports = workloads.run(workload, seed, tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "digest": hashlib.sha256("".join(
            r.to_json() + "\n" for r in reports).encode()).hexdigest(),
        "checks": [[c.name, c.passed, c.runtime]
                   for r in reports for c in r.checks],
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["spans"] = tracer.metrics()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("reference", "setup", "run", "micro"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(execute(args.mode, args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
