#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Everything the build and the runs write (the Go build cache, the binary,
the span files of traced runs) goes under .bench_build/ in the current
directory. "--workload all" runs every
workload, each in its own process, and ends with one combined result line.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["oneshot", "incremental", "serve", "parallel"]
RUN_LIMIT_S = 170  # one workload's run, after the build


def build(env, out_dir):
    binary = os.path.join(out_dir, "perfbench")
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run(binary, env, args):
    """Run one workload; return its exit code and output lines."""
    with subprocess.Popen([binary] + args, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    return proc.returncode, out.splitlines()


def main():
    out_dir = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        GOTMPDIR=out_dir,
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),  # Go telemetry counters
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = build(env, out_dir)
    args = sys.argv[1:]
    if "--workload" not in args or args[args.index("--workload") + 1] != "all":
        code, lines = run(binary, env, args)
        print("\n".join(lines))
        sys.exit(code)

    i = args.index("--workload")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        code, lines = run(binary, env, args[:i + 1] + [name] + args[i + 2:])
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("perfbench: %s printed no result" % name)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
