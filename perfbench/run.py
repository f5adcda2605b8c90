#!/usr/bin/env python3
"""Repo benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload library|serve|expand \\
        --seed N --seconds S --trace 0|1

It builds perfbench/ppbench (Release) from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), trains the finetuned sd1/sd2
weights there once (outside every timed region), generates the workload's
inputs from the seed, runs them and prints the metrics named in
BENCHMARK.json: end-to-end metrics when --trace 0, per-layer metrics of a
traced run when --trace 1. The last stdout line is the result object; the
line before it records the host fingerprint, the weights hash, every
correctness check and the failures by reason. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402

RUN_TIMEOUT_S = 170
WEIGHTS = ("ft_sd1.bin", "ft_sd2.bin")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    for rel in ("src/CMakeLists.txt", "bench/benchutil.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise SystemExit(f"perfbench: {rel} not found; run from a full "
                             "checkout of the repository")
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "ppbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "ppbench")


def weights_hash(binary, env):
    """Trains the weights once per build directory; returns their sha256."""
    cache = env["PP_CACHE_DIR"]
    if not all(os.path.isfile(os.path.join(cache, w)) for w in WEIGHTS):
        log("training sd1/sd2 weights (one time)")
        subprocess.run([binary, "train"], env=env, stdout=sys.stderr,
                       check=True)
    h = hashlib.sha256()
    for w in WEIGHTS:
        with open(os.path.join(cache, w), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["library", "serve", "expand"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    env = dict(os.environ)
    env["PP_CACHE_DIR"] = os.path.join(build_dir, "weights")
    env["PP_TRACE_BUF"] = str(1 << 18)  # events per thread in a traced run
    whash = weights_hash(binary, env)

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    plan_path = os.path.join(runs, f"plan-{tag}.json")
    out_path = os.path.join(runs, f"out-{tag}.json")
    plan = bench.make_plan(args.workload, args.seed, args.seconds, args.trace,
                           cfg)
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    subprocess.run([binary, "run", plan_path, out_path], env=env,
                   stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    with open(out_path) as f:
        raw = json.load(f)

    fp = raw["fingerprint"]
    if fp["build_type"] != "Release" or fp["sanitized"] or \
            "-fsanitize" in fp["cxx_flags"]:
        raise SystemExit("perfbench: refusing to report from a "
                         f"{fp['build_type']} / sanitized build")

    attempted, failed, failures = bench.tally(raw["outcomes"])
    checks = raw["checks"]
    correct = all(checks.values())
    flags = []
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "fingerprint": fp, "weights_sha256": whash,
            "weights_match": whash == cfg["weights_sha256"],
            "checks": checks, "failures": failures}
    if not info["weights_match"]:
        log(f"weights hash {whash} differs from the recorded "
            f"{cfg['weights_sha256']}: runs are not comparable")

    if args.trace:
        metrics = bench.per_layer(raw)
        if args.workload == "library" and \
                abs(metrics["obs.span_coverage"] - 1.0) > 0.10:
            flags.append("diffusion+denoise+drc+select spans cover "
                         f"{metrics['obs.span_coverage']:.3f} of the timed "
                         "core calls (outside 1 +/- 0.10)")
    else:
        metrics = bench.end_to_end(raw, cfg[args.workload])
        if "send_lag_ms" in raw:
            lag = raw["send_lag_ms"]
            info["send_lag_p99_ms"] = bench.percentile(lag, 99)
            info["send_lag_max_ms"] = max(lag)
            if max(lag) > cfg["serve"]["max_send_lag_ms"]:
                # The schedule was not kept: these latencies are not valid.
                correct = False
                flags.append("send lag above bound: latency not reported")
                for k in ("p50_ms", "p95_ms", "slo_frac"):
                    metrics.pop(k, None)
        missing = sorted(set(units) - set(metrics))
        if missing:
            correct = False
            flags.append(f"not reported: {', '.join(missing)}")
        info["latency_values"] = sum(len(s) for s in raw["latency_segments"])
        rates = [n / t for n, t in zip(raw["rate_items"], raw["rate_secs"])]
        if len(rates) >= 2:
            info["rate_quartiles"] = statistics.quantiles(rates, n=4)
    info["flags"] = flags
    for f_ in flags:
        log("FLAG:", f_)
    print(json.dumps(info), flush=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units}}), flush=True)


if __name__ == "__main__":
    main()
