"""starchain benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  W is one of chains, laws, or `all` to run
each in turn.  Every run of a workload is a fresh `perfbench/worker.py`
process (cold lru_cache tables, as a CLI user pays them), one at a time.

--trace 0 repeats, for --seconds (at least once): spawn a `reference`
process, a `setup` process and a `run` process, and time each.  It prints
the end-to-end metrics: wall_s (median wall time of one run process,
spawn to exit), setup_s (median time of one setup process from spawn
until `import starchain` and config validation finish, bytecode already
compiled), peak_rss_mib (median peak RSS of the run processes) and
checks_passed_frac (checks passed over checks attempted; a check fails if
its `passed` is false, its process fails, or its report bytes differ
between the processes of one invocation).

wall_s and setup_s are in reference seconds: their medians times
REFERENCE_S over the median time of the run's `reference` processes.  A
`reference` process runs a fixed pure-Python loop of exact arithmetic, the
kind starchain's scalars do, and imports nothing from starchain.  The
speed of a shared 2-vCPU host drifts by up to 1.8x over minutes (one
`chains` process took 2.1-3.9 s within five minutes) and CPU time drifts
with it, so raw medians of runs made minutes apart spread by more than a
quarter; the reference process slows down with the host, and the scaled
medians cancel the drift.  The raw medians are printed too.

--trace 1 runs the workload once untraced and once with every layer
boundary wrapped (see tracer.py), then the microbenchmarks (micro.py), and
prints the per-layer metrics.  It checks that tracing left the reports
unchanged and that each boundary is reached, or not, where COVERAGE says.

The report digest of a run is the sha256 of its reports' `to_json()`
bytes, one report a line, and is compared against the seed-commit record
in perfbench/baseline.json.  The last stdout line is a JSON object with the
keys correct, attempted, failed and metrics, where attempted and failed
count worker processes.  A process fails when it errors, when its report
digest differs from that of the run's first process, or when it differs
from the seed-commit record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from micro import UNITS as MICRO_UNITS  # noqa: E402
from tracer import metric_units  # noqa: E402

WORKLOADS = ("chains", "laws")
RUN_DEADLINE_S = 160
# Time of one `reference` worker process, spawn to exit, on the host that
# defines a reference second: a 2-vCPU host with Python 3.11.7, at its
# fastest.
REFERENCE_S = 0.25

CHECK_NAMES = (
    "trace-side-equals-integral-side", "value-is-reciprocal-volume",
    "coinvariant-roundtrip", "splitting-chain-map", "decomposition-chain-map",
    "abstract-character-cycle", "crossed-conjugated-character-cycle",
    "torus-star-associativity", "weyl-star-associativity",
    "generator-commutator", "unit-trace", "trace-kills-commutators",
    "torus-differential-identities", "crossed-differential-identities",
    "group-differential-identities", "twisted-trace-cocycle",
    "chains-to-forms-chain-map", "normalization-chain-size",
    "lie-differential-squares", "defect-class-datum",
    "genus-leading-coefficient",
)

# Boundaries each workload must reach (calls > 0) and must not reach.
# Only `laws` reaches weyl, lie_gf and forms.
LAWS_ONLY = ["weyl.star", "lie_gf.lie_differential", "lie_gf.gf_form",
             "lie_gf.a_hat_series", "forms.hkr", "forms.d_hat"]
COVERAGE = {
    # phi_pair also reaches q_map, through d_map on crossed chains.
    "chains": {
        "called": ["scalars.field_mul", "scalars.field_add",
                   "scalars.field_embed", "scalars.hbar_mul",
                   "scalars.hbar_add", "scalars.ulaurent_mul",
                   "scalars.ulaurent_add", "torus.star", "torus.mode_phase",
                   "torus.crossed_star", "cyclic.boundary",
                   "cyclic.connes_boundary", "cyclic.mixed_boundary",
                   "cyclic.inner_boundary", "cyclic.total_boundary",
                   "cyclic.q_map", "cyclic.d_map",
                   "cyclic.homogeneous_to_coinvariants",
                   "cyclic.chern_character", "group_coh.phi_pair",
                   "group_coh.TraceFunctional.pair", "group_coh.trace_pair",
                   "group_coh.equivariant_ahat", "group_coh.equivariant_theta",
                   "group_coh.cup", "group_coh.exponential"],
        "zero": LAWS_ONLY,
    },
    "laws": {
        "called": ["torus.star", "cyclic.boundary", "cyclic.connes_boundary",
                   "cyclic.mixed_boundary", "group_coh.TraceFunctional.pair",
                   *LAWS_ONLY],
        "zero": ["group_coh.phi_pair", "cyclic.q_map",
                 "cyclic.chern_character"],
    },
}


def end_to_end_units():
    return {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
            "checks_passed_frac": "frac"}


def per_layer_units():
    units = dict(metric_units())
    units.update({f"scenarios.check.{n}_s": "s" for n in CHECK_NAMES})
    units["trace.overhead_frac"] = "frac"
    units.update(MICRO_UNITS)
    return units


class Spawner:
    """Starts worker processes one at a time and keeps the tallies."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH"))
            if p)
        self.attempted = 0
        self.failed = 0

    def __call__(self, *args):
        """Run the worker; returns (spawn time, end time, parsed JSON or
        None when the process failed)."""
        self.attempted += 1
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - t0, 1))
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"  worker {' '.join(args)} timed out", flush=True)
            return t0, time.perf_counter(), None
        t1 = time.perf_counter()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failed += 1
            print(f"  worker {' '.join(args)} failed "
                  f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}",
                  flush=True)
            return t0, t1, None
        return t0, t1, json.loads(lines[-1])


def _digest_status(workload, seed, digest):
    """(status line, whether the digest matches the seed-commit record)."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        want = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    if want is None:
        return "no seed-commit record for this seed", True
    if want == digest:
        return "match the seed-commit record", True
    return f"DIFFER from the seed-commit record {want}", False


def measure(workload, seed, seconds, spawn):
    """The --trace 0 run; returns (metrics, correct)."""
    common = ("--workload", workload, "--seed", str(seed))
    spawn("setup", *common)  # compiles bytecode

    start = time.perf_counter()
    refs, setups, walls, rss, results, rounds = [], [], [], [], [], []
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= seconds):
        r0 = time.perf_counter()
        t0, t1, out = spawn("reference")
        if out is not None:
            refs.append(t1 - t0)
        t0, _, out = spawn("setup", *common)
        if out is not None:
            setups.append(out["ready"] - t0)
        t0, t1, out = spawn("run", *common)
        results.append(out)
        if out is None:
            break
        walls.append(t1 - t0)
        rss.append(out["rss_mib"])
        rounds.append(time.perf_counter() - r0)

    good = [r for r in results if r is not None]
    reference = good[0]["digest"] if good else None
    width = len(good[0]["checks"]) if good else 1
    attempted = passed = 0
    failed_names = set()
    for r in results:
        attempted += width
        if r is None:
            continue
        if r["digest"] != reference:
            spawn.failed += 1
            continue
        for name, ok, _ in r["checks"]:
            passed += ok
            if not ok:
                failed_names.add(name)

    print(f"workload {workload} seed {seed}: {len(walls)} run(s)")
    if reference is not None:
        status, matches = _digest_status(workload, seed, reference)
        if not matches:
            spawn.failed += sum(r["digest"] == reference for r in good)
        print(f"  report sha256 {reference} {status}")
    for name in sorted(failed_names):
        print(f"  failed check: {name}")
    print(f"  checks_failed_frac {(attempted - passed) / attempted:.6f} frac "
          f"({attempted - passed} of {attempted} checks)")
    raw = {name: statistics.median(v) if v else 0.0
           for name, v in (("wall_s", walls), ("setup_s", setups),
                           ("reference", refs))}
    print("  raw medians: " + ", ".join(f"{k} {v:.6g} s"
                                        for k, v in raw.items()))
    scale = REFERENCE_S / raw["reference"] if refs else 1.0
    values = {
        "wall_s": raw["wall_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mib": statistics.median(rss) if rss else 0.0,
        "checks_passed_frac": passed / attempted,
    }
    return values, bool(good)


def trace(workload, seed, spawn):
    """The --trace 1 run; returns (metrics, correct)."""
    common = ("--workload", workload, "--seed", str(seed))
    t0, t1, plain = spawn("run", *common)
    t2, t3, traced = spawn("run", *common, "--trace")
    _, _, mic = spawn("micro")
    correct = None not in (plain, traced, mic)
    values = dict.fromkeys(per_layer_units(), 0.0)
    print(f"workload {workload} seed {seed}: traced")
    if plain is not None:
        for name, _, runtime in plain["checks"]:
            values[f"scenarios.check.{name}_s"] += runtime
    if plain is not None and traced is not None:
        values["trace.overhead_frac"] = (t3 - t2) / (t1 - t0)
        if traced["digest"] != plain["digest"]:
            correct = False
            print("  tracing changed the report bytes")
        for name, (value, _) in traced["spans"].items():
            values[name] = value
        for span in COVERAGE[workload]["called"]:
            if values[f"{span}.calls"] == 0:
                correct = False
                print(f"  coverage: {span} was never called")
        for span in COVERAGE[workload]["zero"]:
            if values[f"{span}.calls"] != 0:
                correct = False
                print(f"  coverage: {span} was called "
                      f"{values[f'{span}.calls']} times, expected none")
    if mic is not None:
        values.update(mic["micro"])
    return values, correct


def run_one(workload, seed, seconds, traced, spawn=None):
    """Measure one workload and print its metrics; `spawn` defaults to a
    Spawner of worker processes."""
    spawn = spawn or Spawner(time.perf_counter() + RUN_DEADLINE_S)
    if traced:
        values, correct = trace(workload, seed, spawn)
        units = per_layer_units()
    else:
        values, correct = measure(workload, seed, seconds, spawn)
        units = end_to_end_units()
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": correct and spawn.failed == 0,
            "attempted": spawn.attempted, "failed": spawn.failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for path in ("src/starchain/__init__.py", "configs/default.json"):
        if not os.path.isfile(path):
            print(f"{path} not found: run from the root of a starchain "
                  "checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        result = {w: run_one(w, args.seed, args.seconds, args.trace)
                  for w in WORKLOADS}
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
