#!/usr/bin/env python3
"""SafeLight benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the library, the
`safelight` CLI and the `perfbench` driver from source into
.bench_build/perfbench (Release), trains the model zoo the workloads load
once per build directory, then runs the driver for one workload in its own
process. The driver's stdout is passed through; its last line is the JSON
result. This script checks that the result names exactly the metrics
BENCHMARK.json lists for the mode and exits nonzero otherwise.

Workloads, metrics and the layer -> end-to-end map are described in
BENCHMARK.json and perfbench/catalogue.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(BUILD, "state")
DRIVER = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def source_digest():
    """Commit of the checkout, or a digest of the sources when there is no
    git metadata."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Configures and builds once per build directory; later calls are
    incremental no-ops. Build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                       stdout=sys.stderr, check=True)
        subprocess.run([DRIVER, "--prepare", "--root", STATE],
                       stdout=sys.stderr, check=True)


def run_driver(args):
    """Runs the driver in its own process group so that a timeout also
    stops the dist workers it spawned; returns (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, out.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SafeLight sources next to %s; nothing to build" % HERE)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2
    if opts.selftest:
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"]).returncode
    if not opts.workload:
        parser.error("--workload is required")

    code, lines = run_driver(["--workload", opts.workload,
                              "--seed", str(opts.seed),
                              "--seconds", str(opts.seconds),
                              "--trace", str(opts.trace), "--root", STATE])
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        log("driver failed with exit code %d" % code)
        if lines:
            print(lines[-1])
        return code or 1
    result = json.loads(lines[-1])
    missing = expected_metrics(opts.trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: %s" % sorted(missing))
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
