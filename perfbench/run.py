#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the `ndp` library and
the perfbench binary from source into .bench_build/ (or $CARGO_TARGET_DIR,
taken relative to the checkout); later calls reuse that build. The binary's
last stdout line is the JSON result. --self-test runs every workload of
BENCHMARK.json at a tiny size, traced and untraced, and checks that every
metric it names is emitted with its unit and direction.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the binary; returns its path or exits 1."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    # A configure that failed part-way leaves a cache but no Makefile.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def bench_env():
    env = dict(os.environ)
    # Every workload pins its instruction budget; drop the global override
    # anyway so nothing else in the process can read it.
    env.pop("NDPAGE_INSTRS", None)
    env.pop("NDPSIM_LOG", None)
    return env


def run_binary(binary, args, capture):
    cmd = [binary, "--workloads", os.path.join(HERE, "workloads.json")] + args
    proc = subprocess.Popen(cmd, env=bench_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    return proc.returncode, out.decode() if capture else ""


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    code, out = run_binary(binary, ["--catalogue"], capture=True)
    catalogue = {m["name"]: m for m in json.loads(out.strip().splitlines()[-1])}
    problems = []
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[kind]}
        emitted = {n for n, m in catalogue.items() if m["kind"] == kind}
        if set(listed) != emitted:
            problems.append("%s: BENCHMARK.json and the binary disagree on %s"
                            % (kind, sorted(set(listed) ^ emitted)))
        for name, m in listed.items():
            c = catalogue.get(name)
            if c and (c["unit"], c["better"]) != (m["unit"], m["better"]):
                problems.append("%s: unit/direction %s/%s in BENCHMARK.json, "
                                "%s/%s in the binary" % (name, m["unit"],
                                m["better"], c["unit"], c["better"]))
    for w in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(binary, [
                "--workload", w["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny",
                "--spans-dir", build_dir()], capture=True)
            tag = "%s --trace %d" % (w["name"], trace)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append("%s: no JSON result (exit %d)" % (tag, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
                continue
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d operations failed"
                                % (tag, result["failed"], result["attempted"]))
            for m in bench[kind]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: %s not emitted" % (tag, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append("%s: %s emitted as %s" % (tag, m["name"], got))
            extra = set(result["metrics"]) - {m["name"] for m in bench[kind]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
            print("self-test: %s: %d metrics, %d attempted, %d failed"
                  % (tag, len(result["metrics"]), result["attempted"],
                     result["failed"]))
    for p in problems:
        print("self-test: FAIL: " + p)
    print("self-test: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    code, _ = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans-dir", spans], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
