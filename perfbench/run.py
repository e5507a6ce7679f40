#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/CMakeLists.txt (the library, the `mcfuser` CLI and the
benchmark program, Release) into .bench_build/; later calls only bring
that build up to date.  Prints a host fingerprint line, then the
program's output, whose last line is the JSON result.  Every file the
run writes stays under .bench_build/.
"""
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def nproc():
    return len(os.sched_getaffinity(0))


def private_env():
    """Keeps compiler temp files and kernel caches inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    env["MCFUSER_JIT_CACHE_DIR"] = os.path.join(BUILD, "cache", "jit")
    return env


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        sys.stderr.write("perfbench: no mcfuser sources next to perfbench/; "
                         "run from the root of a full checkout\n")
        return False
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()),
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=private_env()) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def cmake_cache(key):
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """The commit when the checkout is a git tree, else a digest of the
    library sources (the benchmark's checkouts are plain file trees)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def fingerprint():
    model, flags = platform.processor(), []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and ":" in line:
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and ":" in line:
                    flags = line.split(":", 1)[1].split()
                if model and flags:
                    break
    except OSError:
        pass
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                       "avx512vl", "avx512_bf16", "avx512_fp16", "amx_tile")
           if f in flags]
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    return {"cpu": model, "nproc": nproc(), "isa": isa, "compiler": cxx,
            "compiler_version": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "revision": source_revision()}


def main():
    if not build():
        return 2
    print("# host " + json.dumps(fingerprint()), flush=True)
    args = [BINARY] + sys.argv[1:] + ["--work-dir", os.path.join(BUILD, "run")]
    try:
        return subprocess.run(args, cwd=ROOT, env=private_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
