#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds libaiwc and the benchmark program from source into
.bench_build/ (incremental after the first run), runs one workload and
prints its report. The last stdout line is one JSON object holding every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1); a per-layer metric of a layer the workload does not run
reads 0. The exit code is 0 when the run completed and its output
parsed, whatever its checks found: "correct" carries that.

--smoke runs every workload at tiny sizes, traced and untraced, and
fails unless each run is correct, no check failed, every metric is
present with its unit, and every per-layer metric is measured by at
least one workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build (incremental after the first run) to stderr."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(tmp)  # compiler temporaries stay here
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (stdout lines, parsed final JSON)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, f"spans-{workload}-{seed}.json")]
    env = {k: v for k, v in os.environ.items()
           if k not in ("AIWC_TRACE", "AIWC_THREADS")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit code {proc.returncode}\n"
                           + proc.stdout)
    return lines[:-1], json.loads(lines[-1])


def conform(result, declared, fill_missing):
    """Check the result against the declared metrics; return it in order."""
    if not isinstance(result.get("correct"), bool):
        raise ValueError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise ValueError(f"'{key}' is not an integer")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    emitted = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in emitted.items():
        if name not in units:
            raise ValueError(f"metric '{name}' is not declared")
        if value["unit"] != units[name]:
            raise ValueError(f"metric '{name}' has unit '{value['unit']}',"
                             f" declared '{units[name]}'")
    metrics = {}
    for name, unit in units.items():
        if name in emitted:
            metrics[name] = emitted[name]
        elif fill_missing:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"metric '{name}' is missing")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(binary, spec):
    measured = set()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            try:
                _, result = run(binary, w["name"], 7, 1, trace, tiny=True)
                measured.update(result["metrics"])
                conform(result, spec[key], fill_missing=bool(trace))
                if not result["correct"] or result["failed"] != 0:
                    raise ValueError(f"failed_ratio {result['failed']}/"
                                     f"{result['attempted']}")
                print(f"PASS {w['name']} trace={trace}: "
                      f"{len(result['metrics'])} metrics, failed 0/"
                      f"{result['attempted']}")
            except (RuntimeError, ValueError, KeyError,
                    json.JSONDecodeError, subprocess.TimeoutExpired) as e:
                ok = False
                print(f"FAIL {w['name']} trace={trace}: {e}")
    never = [m["name"] for m in spec["per_layer"]
             if m["name"] not in measured]
    if never:
        ok = False
        print("FAIL per-layer metrics no workload measures: "
              + ", ".join(never))
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        binary = build()
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: cannot build the benchmark: {e}")
        return 1

    if args.smoke:
        return smoke(binary, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload '{args.workload}'")
        return 2
    try:
        lines, result = run(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        key = "per_layer" if args.trace else "end_to_end"
        result = conform(result, spec[key], fill_missing=bool(args.trace))
    except (RuntimeError, ValueError, KeyError, json.JSONDecodeError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: run failed: {e}")
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
