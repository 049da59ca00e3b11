#!/usr/bin/env python3
"""End-to-end AW4A origin benchmark entry point.

Builds the benchmark binary from source (perfbench/ plus the library in src/)
into .bench_build/, runs one workload, and prints a provenance line followed,
as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --read-rps 20000 --push-hz 20 \\
        --workload warm_read --seed 1 --seconds 10 --trace 0

Same-seed runs of the same sources must reproduce the outcome guards
(savings_ratio, paw_met_ratio and the digest of every condition-matrix
answer); the first run of a seed records them in .bench_build/outcomes.json
and later runs are checked against that record.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "aw4a_perfbench")
OUTCOMES = os.path.join(BUILD_DIR, "outcomes.json")
WORKLOADS = ("warm_read", "cold_build", "push_storm")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "aw4a_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            log(f"cannot run {step[0]}: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return True


def git_sha():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the library and benchmark sources (documentation aside), so
    results of different sources are told apart even in a checkout that is
    not a git work tree."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if not f.endswith(".md")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_outcome(key, detail):
    """Same sources and seed must give the same outcome guards; the first run
    of a key records them. Returns an error message or None."""
    metrics = detail["metrics"]
    outcome = {
        "outcome_digest": detail["outcome_digest"],
        "savings_ratio": metrics["savings_ratio"]["value"],
        "paw_met_ratio": metrics["paw_met_ratio"]["value"],
    }
    try:
        with open(OUTCOMES) as f:
            records = json.load(f)
    except (OSError, ValueError):
        records = {}
    recorded = records.get(key)
    if recorded is not None:
        if recorded != outcome:
            return f"outcome guards differ from an earlier run of {key}: {recorded} vs {outcome}"
        return None
    records[key] = outcome
    with open(OUTCOMES + ".tmp", "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
    os.replace(OUTCOMES + ".tmp", OUTCOMES)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--read-rps", required=True, type=float,
                        help="open-loop read rate of warm_read and push_storm "
                             "(fixed in BENCHMARK.json)")
    parser.add_argument("--push-hz", required=True, type=float,
                        help="push_storm's content-push rate (fixed in BENCHMARK.json)")
    args = parser.parse_args()

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--read-rps", repr(args.read_rps), "--push-hz", repr(args.push_hz)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode not in (0, 1) or len(lines) < 2:
        log(f"benchmark failed (exit {done.returncode})")
        return 2
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])

    sources = source_sha256()
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": sources,
        "build_type": detail.pop("build_type"),
        "compiler": detail.pop("compiler"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "read_rps": args.read_rps,
        "push_hz": args.push_hz,
    }
    error = check_outcome(f"{sources}/{args.workload}/{args.seed}", detail)
    if error is not None:
        log(error)
        result["correct"] = False
    if detail.get("first_failure"):
        log(f"output check failed: {detail['first_failure']}")
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
