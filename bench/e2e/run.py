#!/usr/bin/env python3
"""Build and run the eqc end-to-end benchmark (see README.md).

One run of one workload (the form BENCHMARK.json's command takes):
    run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
prints the benchmark binary's JSON result as its last line.

Every workload (the default):
    run.sh [--runs N] [--seed S] [--smoke] [--check] [--trace 0|1|DIR]
prints `workload metric value unit` for every metric (the median over
the runs), writes build-e2e/results.json and exits 1 if any check
fails. --trace DIR keeps the trace and layer files in DIR.

Two sets of runs for the recorded baseline:
    run.sh --baseline [--runs N] [--seed S]
writes build-e2e/baseline.json.

Interleaved A/B against another revision's library sources:
    run.sh --ab REV [--pairs N] [--seed S]
builds REV's src/ with this benchmark, alternates which side runs first
and reports, per workload and metric, the medians and quartiles, the
win fraction and a verdict.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
JOBS = str(min(os.cpu_count() or 1, 4))
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, src_dir=None):
    """Configure (once) and build eqc_e2e; returns the binary's path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if src_dir:
            cmd.append(f"-DEQC_SRC_DIR={src_dir}")
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", JOBS,
                    "--target", "eqc_e2e"], stdout=sys.stderr, check=True)
    return build_dir / "eqc_e2e"


def run_once(binary, workload, seed, args, trace_dir=None):
    """One benchmark process; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds),
           "--trace", "1" if trace_dir else "0"]
    if trace_dir:
        cmd += ["--trace-dir", str(trace_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.check:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def spread(values):
    """Median, first and third quartile of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def summarize(runs):
    """Per-metric median, quartiles and IQR share over a list of results."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3 = spread(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "iqr_frac": (q3 - q1) / abs(med) if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"],
                     "values": values}
    return out


def run_set(binary, args, seeds, trace_dir=None):
    """All workloads over the given seeds; returns (ok, per-workload data)."""
    ok = True
    data = {}
    for w in WORKLOADS:
        runs = []
        for seed in seeds:
            code, result = run_once(binary, w, seed, args, trace_dir)
            if code != 0 or not result or not result["correct"]:
                log(f"{w} seed {seed}: checks failed (exit {code})")
                ok = False
            if result:
                runs.append(result)
        if runs:
            data[w] = {"seeds": list(seeds), "summary": summarize(runs)}
    return ok, data


def print_summary(data):
    for w, d in data.items():
        for name, s in d["summary"].items():
            print(f"{w} {name} {s['median']:.6g} {s['unit']}")


def machine():
    info = {"nproc": os.cpu_count(), "cpu": platform.processor()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    info["caches"] = caches
    return info


def git_head():
    """Short hash of the checked-out commit, or None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def export_revision(rev):
    """Extract @p rev's src/ under build-e2e/ab/; returns that src path."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                          rev], stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip()
    tree = BUILD / "ab" / sha
    if not (tree / "src").exists():
        blob = subprocess.run(["git", "-C", str(ROOT), "archive",
                               "--format=tar", sha, "src"],
                              stdout=subprocess.PIPE, check=True).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tree)
    return sha, tree / "src"


def ab_verdict(name, base, head):
    """Verdict for one (workload, metric) over paired runs.

    improved: at least ten pairs, the head wins at least nine tenths of
    them and the medians differ by more than the base's own quartile
    spread. regressed: the head's median is worse by more than the
    metric's bound. unresolved: the base's own spread exceeds the bound
    and not every head run beats every base run.
    """
    spec = METRICS[name]
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bmed, bq1, bq3 = spread(base)
    hmed, _, _ = spread(head)
    worse = -sign * (hmed - bmed) / abs(bmed) if bmed else 0.0
    bound = spec.get("bound")
    if (len(base) >= 10 and wins >= 0.9 * len(base)
            and abs(hmed - bmed) > bq3 - bq1):
        verdict = "improved"
    elif bound is not None and worse > bound:
        verdict = "regressed"
    elif (bound is not None and bmed and (bq3 - bq1) / abs(bmed) > bound
          and not all(sign * (h - b) > 0 for h in head for b in base)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return wins / len(base), verdict


def ab(args):
    sha, src = export_revision(args.ab)
    base_bin = build(BUILD / "ab" / f"build-{sha}", src)
    head_bin = build(BUILD)
    values = {}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("base", base_bin), ("head", head_bin)]
        for w in WORKLOADS:
            pair = {}
            for side, binary in sides if i % 2 == 0 else sides[::-1]:
                code, result = run_once(binary, w, seed, args)
                if code != 0 or not result or not result["correct"]:
                    log(f"{side} {w} seed {seed}: checks failed; "
                        "pair dropped")
                    ok = False
                    break
                pair[side] = result["metrics"]
            if len(pair) < 2:
                continue
            for name in pair["base"]:
                v = values.setdefault((w, name), {"base": [], "head": []})
                for side in ("base", "head"):
                    v[side].append(pair[side][name]["value"])
    report = []
    for (w, name), v in values.items():
        frac, verdict = ab_verdict(name, v["base"], v["head"])
        bmed, bq1, bq3 = spread(v["base"])
        hmed, hq1, hq3 = spread(v["head"])
        report.append({"workload": w, "metric": name, "verdict": verdict,
                       "win_frac": frac, "base": [bq1, bmed, bq3],
                       "head": [hq1, hmed, hq3]})
        print(f"{w} {name} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] "
              f"head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}] "
              f"wins {frac:.2f} {verdict}")
    (BUILD / "ab.json").write_text(json.dumps(
        {"base": sha, "pairs": args.pairs, "report": report}, indent=1))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", default="0",
                   help="0, 1, or a directory for the trace files")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--ab", metavar="REV")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    trace_dir = None
    if args.trace != "0":
        trace_dir = BUILD / "trace" if args.trace == "1" else Path(args.trace)

    try:
        binary = build(BUILD)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    if args.ab:
        return ab(args)

    if args.workload:
        code, result = run_once(binary, args.workload, args.seed, args,
                                trace_dir)
        if result:
            print(json.dumps(result))
        return code if result else 1

    if args.baseline:
        sets = []
        for k in range(2):
            first = args.seed + k * args.runs
            ok, data = run_set(binary, args,
                               range(first, first + args.runs))
            if not ok:
                return 1
            sets.append(data)
        (BUILD / "baseline.json").write_text(json.dumps(
            {"commit": git_head(), "machine": machine(),
             "seconds": args.seconds, "sets": sets}, indent=1))
        print_summary(sets[0])
        return 0

    ok, data = run_set(binary, args,
                       range(args.seed, args.seed + args.runs), trace_dir)
    print_summary(data)
    (BUILD / "results.json").write_text(json.dumps(
        {"machine": machine(), "seconds": args.seconds, "smoke": args.smoke,
         "trace": str(trace_dir) if trace_dir else None,
         "workloads": data}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
