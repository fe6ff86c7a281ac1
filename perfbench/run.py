#!/usr/bin/env python3
"""Build and run the end-to-end training benchmark.

    python3 perfbench/run.py --workload lan-3lc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the library from src/ plus the driver) into
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Exits non-zero without a result when the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def source_id():
    """The git commit when run in a git checkout, else a digest of the
    sources the binary is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True).stdout.strip()
            return out.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv
    if "--selftest" not in argv:
        cmd += ["--commit", source_id(), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
