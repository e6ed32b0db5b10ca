"""Smoke test of the benchmark: every workload's code path once on a tiny
config, in this process, and every metric name printed.

    python -m pytest -q perfbench

Run it from the repository root (it reads configs/default.json).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import worker  # noqa: E402

# perfbench/baseline.json records digests of full-size reports only, so
# the smoke test uses a seed it has no record for.
SEED = 99991


class InProcess:
    """Stands in for run.Spawner: does each worker's job here, at the
    smoke-test sizes.  Each distinct job runs once, and every workload run
    is a traced one, so each workload's code path runs once in all."""

    def __init__(self, done):
        self.attempted = self.failed = 0
        self.done = done

    def __call__(self, mode, *args):
        self.attempted += 1
        workload = args[args.index("--workload") + 1] if args else None
        seed = int(args[args.index("--seed") + 1]) if args else 0
        job = (mode, workload, seed)
        if job not in self.done:
            t0 = time.perf_counter()
            out = worker.execute(*job, trace=mode == "run", tiny=True)
            self.done[job] = (time.perf_counter() - t0,
                              json.loads(json.dumps(out)))
        elapsed, out = self.done[job]
        return 0.0, elapsed, out


def test_every_metric_prints(capsys, monkeypatch):
    monkeypatch.chdir(os.path.dirname(HERE))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    done = {}
    for spec in bench["workloads"]:
        for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_one(spec["name"], SEED, 0, traced,
                                 InProcess(done))
            printed = capsys.readouterr().out
            assert result["correct"] and result["failed"] == 0, printed
            for metric in bench[kind]:
                name = metric["name"]
                assert result["metrics"][name]["unit"] == metric["unit"]
                assert f"  {name} " in printed, name
