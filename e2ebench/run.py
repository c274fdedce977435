#!/usr/bin/env python3
"""End-to-end benchmark of the rthv library (see README.md beside this file).

Run from the root of a checkout:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds the benchmark into .bench_build/ on first use, runs one workload
      and prints, as the last stdout line, one JSON object with the keys
      correct, attempted, failed and metrics.

  python3 e2ebench/run.py steady [--workloads a,b] [--seeds 1,2,3] [--seconds S] [--trace 0|1]
      Steadiness report: runs each workload once per seed and prints, per
      metric, the median, quartiles, min/max and the quartile spread as a
      share of the median next to the bound BENCHMARK.json allows.

  python3 e2ebench/run.py selftest
      Shows that the correctness checks bite: a digest compared against
      another seed's reference, and an injected non-conserving count, must
      both be reported as failures.

  python3 e2ebench/run.py refs [--seeds 1,2]
      Re-records the reference digests in refs.json (only after a change
      that is meant to alter simulated behaviour).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
REFS = os.path.join(HERE, "refs.json")
WORKLOADS = ["paper_suite", "campaign_10irq", "hunt_storm", "multicore_4core"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark package; exits 2 without sources."""
    for needed in ("src/CMakeLists.txt", "configs/paper_baseline.ini"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"e2ebench: {needed} missing; run from a full checkout")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "e2ebench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"e2ebench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", ROOT]
    if trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(BUILD, "spans", f"{workload}-{seed}.csv")]
    cmd += list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        log(f"e2ebench: {workload} exited with {done.returncode}")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"e2ebench: {workload} printed no report")
        sys.exit(1)
    return json.loads(lines[-1])


def load_refs():
    with open(REFS) as f:
        return json.load(f)


def digest_mismatches(report, refs):
    """Workloads whose digest differs from the reference kept for this seed."""
    bad = []
    for workload, digest in report["digests"].items():
        want = refs.get(workload, {}).get(str(report["seed"]))
        if want is not None and want != digest:
            bad.append(f"{workload}: digest {digest} != reference {want}")
    return bad


def result(report, refs):
    """The contract's result object for one binary report."""
    failed = report["failed"]
    mismatches = digest_mismatches(report, refs)
    for line in report["failures"] + mismatches:
        log("FAILED:", line)
    if mismatches:
        failed = report["attempted"]  # every run of a pass feeds its digest
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }


def cmd_run(args):
    build()
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result(report, load_refs())))


def cmd_steady(args):
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    refs = load_refs()
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        failed = 0
        for seed in args.seeds.split(","):
            out = result(run_binary(workload, int(seed), args.seconds, args.trace), refs)
            failed += out["failed"]
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"  {workload} seed {seed} done")
        print(f"\n== {workload}: {len(args.seeds.split(','))} runs, failed {failed}")
        print(f"{'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"{name:34} {units[name]:>6} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{min(v):12.5g} {max(v):12.5g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def cmd_selftest(_args):
    build()
    refs = load_refs()
    workload = "multicore_4core"
    ok = True
    report = run_binary(workload, 1, 1, 0)
    if digest_mismatches(report, refs):
        log("selftest: seed 1 does not match its own reference")
        ok = False
    report["seed"] = 2  # judge seed 1's outputs against seed 2's reference
    if not digest_mismatches(report, refs) or result(report, refs)["correct"]:
        log("selftest: a wrong-seed digest was not flagged")
        ok = False
    report = run_binary(workload, 1, 1, 0, ["--inject-nonconserving"])
    if report["failed"] == 0 or result(report, refs)["correct"]:
        log("selftest: an injected non-conserving count was not flagged")
        ok = False
    print("selftest: " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def cmd_refs(args):
    build()
    refs = load_refs() if os.path.exists(REFS) else {}
    for workload in WORKLOADS:
        for seed in args.seeds.split(","):
            report = run_binary(workload, int(seed), 1, 0)
            if report["failed"]:
                log(f"refs: {workload} seed {seed} failed its checks; not recorded")
                sys.exit(1)
            refs.setdefault(workload, {})[seed] = report["digests"][workload]
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(refs, indent=2, sort_keys=True))


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("steady", "selftest", "refs"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        p.add_argument("--workloads", default=",".join(WORKLOADS))
        p.add_argument("--seeds", default="1,2,3,4,5" if argv[0] == "steady" else "1,2")
        p.add_argument("--seconds", type=float, default=10)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = p.parse_args(argv[1:])
        {"steady": cmd_steady, "selftest": cmd_selftest, "refs": cmd_refs}[argv[0]](args)
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    main()
