"""Self-test of the benchmark on tiny versions of each workload.

    python3 perfbench/selftest.py          # check, about a minute
    python3 perfbench/selftest.py --pin    # re-pin digests.json (seed 0)

The check runs every workload at the tiny size through ``run.py`` and
asserts that:

- every metric named in BENCHMARK.json is emitted with its unit, untraced
  (end-to-end) and traced (per-layer);
- the artifact digests match the pinned ones (``correct`` is true);
- count metrics repeat exactly across two traced runs;
- deep_search and remote give the pinned digests at ``--parallelism 1``
  as well as at their default of 2.

``--pin`` runs each workload once per size at seed 0 and rewrites
``digests.json``. Re-pin only in a change that alters an artifact format
on purpose, and name the artifacts whose digests moved.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench_run(workload, trace, parallelism=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    if parallelism is not None:
        cmd += ["--parallelism", str(parallelism)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, what):
    got = result["metrics"]
    for metric in declared:
        name = metric["name"]
        assert name in got, f"{what}: metric {name} missing"
        assert got[name]["unit"] == metric["unit"], (
            f"{what}: {name} has unit {got[name]['unit']}, "
            f"declared {metric['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    assert not extra, f"{what}: undeclared metrics {sorted(extra)}"


def check():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for workload in names:
        result = bench_run(workload, 0)
        assert result["correct"], f"{workload}: outputs incorrect"
        assert result["failed"] == 0, f"{workload}: failed operations"
        check_metrics(result, spec["end_to_end"], f"{workload} untraced")
        traced = [bench_run(workload, 1) for _ in range(2)]
        for result in traced:
            assert result["correct"], f"{workload} traced: outputs incorrect"
            check_metrics(result, spec["per_layer"], f"{workload} traced")
        for name, value in traced[0]["metrics"].items():
            if not run.is_time(name):
                again = traced[1]["metrics"][name]["value"]
                assert value["value"] == again, (
                    f"{workload}: count {name} differs: "
                    f"{value['value']} then {again}")
        if workloads.WORKLOADS[workload]["parallelism"] > 1:
            result = bench_run(workload, 0, parallelism=1)
            assert result["correct"], f"{workload}: parallelism 1 differs"
        print(f"ok {workload}")


def pin():
    pinned = {}
    for workload in workloads.WORKLOADS:
        for size in ("tiny", "full"):
            digests = run.pin_digests(workload, size, seed=0)
            pinned.setdefault(workload, {}).setdefault(size, {})["0"] = digests
            print(f"pinned {workload} {size}")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json instead of checking")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
    else:
        check()
        print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
