#!/usr/bin/env python3
"""End-to-end benchmark of tzgeo: builds the benchmark from source, runs one workload.

    python3 perfbench/run.py --workload analyze-csv --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout.  The benchmark binary (perfbench/src) and
the library (src/) are built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); reports and span dumps land in its out/
directory.  The last line of stdout is the run's result object.  See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

WORKLOADS = ("analyze-csv", "geolocate-crowd", "fleet-campaign")
# Fresh processes that each set up once and time one cold pass; with the
# measuring process's own pass 0 they give cold_pass_s a median of three.
COLD_PROCESSES = 2
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_hash(root):
    """SHA-256 over every file of src/ (path and bytes), in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "tzgeo_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "tzgeo_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no tzgeo sources under {root}/src; run from a source checkout")
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 3

    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(build_dir / "out"), "--git-rev", git_rev(root),
            "--source-hash", source_hash(root)]
    cold_processes = 0 if args.trace else COLD_PROCESSES
    results = []
    for mode in ["cold"] * cold_processes + ["run"]:
        result = run_binary(base + ["--mode", mode], root)
        if result is None:
            return 4
        results.append(result)
    print(json.dumps(merge(results, args.trace)))
    return 0


def run_binary(command, root):
    """Runs one benchmark process; returns its result object or None."""
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark process exceeded {RUN_TIMEOUT_S} s and was killed")
        return None
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"benchmark process exited with code {run.returncode}")
        return None
    return json.loads(lines[-1])


def merge(results, trace):
    """One result from the cold processes and the measuring process (last).

    cold_pass_s and setup_s become medians over every process; the report
    digests of all processes must agree, which checks that the same seed
    gives the same outputs across runs."""
    final = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = final["metrics"]
    if not trace:
        attempted += 1
        digests = {r["digest"] for r in results}
        if len(digests) != 1:
            log(f"report digests differ across processes: {sorted(digests)}")
            failed += 1
        metrics["cold_pass_s"]["value"] = statistics.median(
            r["metrics"]["cold_pass_s"]["value"] for r in results)
        metrics["setup_s"]["value"] = statistics.median(
            s for r in results for s in r["setup_samples"])
        metrics["checks_ok_frac"]["value"] = (attempted - failed) / attempted
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
