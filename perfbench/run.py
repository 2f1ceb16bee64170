#!/usr/bin/env python3
"""Build and run the step/serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_step --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark program
(perfbench/perfbench.cpp) in Release mode under $CARGO_TARGET_DIR
(default .bench_build) of the repository root; later calls only re-check
the build. The build log goes to stderr, so the last line of stdout is the
program's result object. Each run's record (provenance, steal ticks,
calibration time and the unbounded figures) is printed on the line before
it and saved under .bench_out/.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def run_logged(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", out, "-j", jobs])
    exe = os.path.join(out, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"benchmark program not built at {exe}")
    return exe


def source_provenance():
    """The git sha when the checkout is a repository, plus a hash of the
    library and benchmark sources, which identifies the code either way."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()[:16]


def main(argv):
    exe = build()
    try:
        proc = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s", 3)
    if "--selftest" in argv:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited with {proc.returncode}", proc.returncode or 1)
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    record["git_sha"], record["source_hash"] = source_provenance()
    record["result"] = result
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{record['workload']}_seed{record['seed']}_trace{record['traced']}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    del record["result"]
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
