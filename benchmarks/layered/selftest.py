#!/usr/bin/env python3
"""Self-test of the layered benchmark: run ``--smoke``, validate the output.

    python3 benchmarks/layered/selftest.py

Not collected by pytest on purpose (neither ``test_*.py`` nor
``bench_*.py``): it starts a dozen processes and takes ~25 s.  Checks

* the ``--smoke`` run exits 0 with zero failed operations, prints a
  summary ending in ``"claim": null`` and writes nothing at the root;
* the result file carries the host metadata and, for every workload,
  every metric ``BENCHMARK.json`` names that applies to it, with its unit
  and a number, and none that does not;
* harness spans form one tree per traced pass: unique ids, one root, every
  parent present and enclosing its child;
* the driver form (``--workload --seed --seconds --trace``) ends with one
  JSON object of exactly the contract's keys and metric names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
HOST_KEYS = {"cpus", "python", "numpy", "platform", "git_commit", "seed",
             "smoke", "seconds"}


def last_line(done: "subprocess.CompletedProcess[bytes]") -> str:
    return done.stdout.decode().rstrip().rsplit("\n", 1)[-1]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_spans(name: str, spans: List[Dict[str, Any]]) -> None:
    by_id = {span["id"]: span for span in spans}
    check(len(by_id) == len(spans) > 0, f"{name}: span ids not unique")
    check(len({span["trace"] for span in spans}) == 1,
          f"{name}: spans of one pass must share a trace id")
    roots = [span for span in spans if span["parent"] is None]
    check(len(roots) == 1, f"{name}: expected one root span")
    for span in spans:
        check(span["end"] >= span["start"], f"{name}: negative span")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        check(parent is not None, f"{name}: dangling parent {span}")
        check(parent["start"] <= span["start"] and span["end"] <= parent["end"],
              f"{name}: span {span['name']} escapes {parent['name']}")
    names = {span["name"] for span in spans}
    for expected in ("apps.build_orion_program", "loop.run",
                     "backend.run_epoch", "program.close", "probes"):
        check(expected in names, f"{name}: no {expected} span")


def check_result_file(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    check(list(result)[-1] == "claim" and result["claim"] is None,
          "result must end with claim: null")
    check(HOST_KEYS <= set(result["host"]), "host metadata incomplete")
    check(result["host"]["cpus"] >= 1, "cpu count missing")
    check(list(result["workloads"]) == [w["name"] for w in contract["workloads"]],
          "workloads differ from BENCHMARK.json")
    for name, record in result["workloads"].items():
        ops = record["operations"]
        check(ops["failed"] == 0, f"{name}: {ops['failures']}")
        check(ops["attempted"] >= 3 + 1 + 4, f"{name}: too few operations")
        check(record["kernel_tier"] and record["params"]["data"],
              f"{name}: parameters or kernel tier missing")
        for section in ("end_to_end", "per_layer"):
            for definition in contract[section]:
                metric = definition["name"]
                entry = record[section].get(metric)
                if not WORKLOADS[name].measures(metric):
                    check(entry is None,
                          f"{name}: {metric} does not apply, must be omitted")
                    continue
                check(entry is not None, f"{name}: {metric} missing")
                check(entry["unit"] == definition["unit"],
                      f"{name}: {metric} unit")
                check(isinstance(entry["value"], (int, float)),
                      f"{name}: {metric} not a number")
        for metric, entry in record["end_to_end"].items():
            check(entry["value"] > 0,
                  f"{name}: end-to-end {metric} must be positive")
        check(not record["unresolved_probes"],
              f"{name}: {record['unresolved_probes']}")
        check_spans(name, record["spans"])


def check_driver_line(line: str, contract: Dict[str, Any], section: str) -> None:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"driver line keys: {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"driver line: {line[:200]}")
    expected = {definition["name"]: definition["unit"]
                for definition in contract[section]}
    check(set(result["metrics"]) == set(expected),
          f"driver metrics differ from BENCHMARK.json {section}")
    for name, entry in result["metrics"].items():
        check(set(entry) == {"value", "unit"}
              and entry["unit"] == expected[name]
              and isinstance(entry["value"], (int, float)),
              f"driver metric {name}: {entry}")
        check(section == "per_layer" or entry["value"] > 0,
              f"driver end-to-end metric {name} must be positive")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    out = HERE / "results" / "selftest.json"
    at_root = sorted(path.name for path in ROOT.iterdir())
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                          stdout=subprocess.PIPE, timeout=170)
    check(done.returncode == 0,
          f"--smoke exited {done.returncode}: {last_line(done)}")
    summary = json.loads(last_line(done))
    check(list(summary)[-1] == "claim" and summary["claim"] is None,
          "summary must end with claim: null")
    check(sorted(path.name for path in ROOT.iterdir()) == at_root,
          "--smoke wrote at the repository root")
    with open(out) as handle:
        check_result_file(json.load(handle), contract)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--smoke", "--workload", "slr_mp2", "--seed", "3",
                   "--seconds", "0.2", "--trace", str(trace)],
            stdout=subprocess.PIPE, timeout=170,
        )
        check(done.returncode == 0, f"driver form exited {done.returncode}")
        check_driver_line(last_line(done), contract, section)
    print("layered benchmark self-test: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
