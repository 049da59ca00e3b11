#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and checks
the result line against the contract: exactly the keys correct/attempted/
failed/metrics, every output check passed, and metric names and units equal
to BENCHMARK.json's end_to_end (untraced) or per_layer (traced) lists. It then
checks that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/smoke_test.py        # from the repository root, ~1-2 min
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SECONDS = 1


def run(bench, cwd, workload, trace):
    command = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                                  "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def check_result(bench, done, trace):
    """Returns a list of problems with one run's output."""
    problems = []
    if done.returncode != 0:
        problems.append(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    if not trace:
        for name, m in result.get("metrics", {}).items():
            if m.get("value") == 0:
                problems.append(f"end-to-end metric {name} is 0")
    if not lines[-2].startswith('{"provenance"'):
        problems.append("no provenance line before the result")
    return problems


def check_bare_directory(bench):
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bench, bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("exited 0 without the library sources")
    if any(line.startswith('{"correct"') for line in done.stdout.splitlines()):
        problems.append("printed a result without the library sources")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(bench, run(bench, ROOT, workload, trace), trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    problems = check_bare_directory(bench)
    print(f"bare directory: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
