#!/usr/bin/env python3
"""The benchmark's own test, at a small budget.

    python3 perfbench/test_bench.py [--seconds S]

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs perfbench/run.py untraced and traced and checks that:
  * the run is correct and its last line is the result JSON;
  * every declared metric is printed with its declared unit, and no
    end-to-end metric is 0;
  * the traced run's spans cover >= 95% of an operation's wall time (at
    the 1st percentile over operations) and its Chrome trace parses;
  * serve-open reports its generator's lateness.
It also checks that the benchmark exits non-zero without a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, seed=7):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout, p.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out, err = run(wl, args.seconds, trace)
            tag = "%s --trace %d" % (wl, trace)
            check(code == 0 and result is not None and result["correct"],
                  tag + ": exits 0 with a correct result" +
                  ("" if code == 0 else " (rc %d: %s)" % (code, err[-300:])))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1, tag + ": result keys")
            for m in spec[table]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "%s: %s printed in %s" % (tag, m["name"], m["unit"]))
                if trace == 0 and got is not None:
                    check(got["value"] != 0, "%s: %s is not 0" % (tag, m["name"]))
            if trace == 1:
                cov = result["metrics"]["trace.span_coverage_p01"]["value"]
                check(cov >= 0.95, "%s: spans cover %.3f of op wall time" % (tag, cov))
                path = re.search(r"^# chrome trace: (.*)$", out, re.M)
                ok = False
                if path:
                    with open(path.group(1)) as f:
                        ok = len(json.load(f)["traceEvents"]) > 0
                check(ok, tag + ": Chrome trace written and parses")
            if wl == "serve-open":
                if trace == 0:
                    check(re.search(r"lateness p50 +[0-9.]+ p99 +[0-9.]+ ms", out)
                          is not None, tag + ": prints generator lateness")
                else:
                    late = result["metrics"]["load.lateness_ms_p99"]["value"]
                    check(late > 0, tag + ": reports generator lateness")

    # Outside a full checkout the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    check(p.returncode != 0 and not last[0].startswith("{"),
          "bare directory: exits %d without a result" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
