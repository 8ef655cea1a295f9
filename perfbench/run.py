#!/usr/bin/env python3
"""End-to-end benchmark runner for the bgpbh blackholing monitor.

Builds the harness (perfbench/CMakeLists.txt compiles the library from
../src) into .bench_build/ and runs it.  Three modes:

  run.py --workload W --seed N --seconds S --trace 0|1
      One benchmark run.  The last stdout line is the harness's JSON
      result: {"correct", "attempted", "failed", "metrics"}.

  run.py --smoke
      Short runs of every workload, traced and untraced: checks the
      correctness gate and that every metric BENCHMARK.json names is
      emitted with its unit.

  run.py --selftest [--runs 10] [--sets 2] [--workloads W ...]
      Steadiness self-test: SETS sets of RUNS runs of every workload
      (a new seed each run) on one build.  Prints each end-to-end
      metric's median and quartiles per set, its spread (IQR / median)
      against the bound in BENCHMARK.json, and the shift between sets.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "perfbench"
BINARY = CMAKE_DIR / "perf_e2e"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of the library sources the harness is built from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not (ROOT / "src" / "api" / "session.h").is_file():
        log(f"run.py: no library sources under {ROOT / 'src'}; "
            "run from a full checkout of the repository")
        return False
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return False
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target", "perf_e2e"],
        stdout=sys.stderr)
    return result.returncode == 0 and BINARY.is_file()


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs the harness; returns (exit code, stdout text)."""
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        log(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke():
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_once(w["name"], 1, 1, trace, smoke=True)
            result = last_json(out) if code == 0 else None
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {}
            if result is not None:
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
            problems = []
            if result is None:
                problems.append(f"exit code {code}, no result")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"gate: correct={result['correct']} "
                                    f"failed={result['failed']}")
                if got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    units = sorted(k for k in set(want) & set(got)
                                   if want[k] != got[k])
                    problems.append(f"metrics: missing {missing} extra {extra} "
                                    f"unit mismatch {units}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def selftest(runs, sets, workloads, seconds):
    spec = load_spec()
    seconds = seconds or spec["run_seconds"]
    names = workloads or [w["name"] for w in spec["workloads"]]
    results = {}  # (set, workload) -> list of metric dicts
    ok = True
    for s in range(sets):
        for w in names:
            for r in range(runs):
                seed = 1000 * (s + 1) + r
                t0 = time.time()
                code, out = run_once(w, seed, seconds, 0)
                res = last_json(out) if code == 0 else None
                if res is None or not res["correct"] or res["failed"]:
                    log(f"selftest: {w} seed {seed} FAILED (exit {code})")
                    ok = False
                    continue
                results.setdefault((s, w), []).append(res["metrics"])
                log(f"selftest: set {s + 1} {w} seed {seed} "
                    f"{time.time() - t0:.0f} s")
    report = []
    for w in names:
        print(f"\n== {w}")
        print(f"{'metric':24s} {'bound':>6s} " + " ".join(
            f"{'set%d median [q1, q3] spread' % (s + 1):>44s}"
            for s in range(sets)) + "   shift")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for s in range(sets):
                vals = [r[name]["value"] for r in results.get((s, w), [])]
                if len(vals) < 2:
                    cols.append(f"{'(too few runs)':>44s}")
                    ok = False
                    continue
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                flag = ""
                if sp > bound:
                    flag, ok = " !!", False
                elif sp > bound / 3:
                    flag = " !"
                cols.append(f"{med:12.5g} [{q1:10.5g}, {q3:10.5g}] "
                            f"{100 * sp:5.1f}%{flag:3s}")
                report.append({"workload": w, "set": s + 1, "metric": name,
                               "median": med, "q1": q1, "q3": q3,
                               "spread": sp, "bound": bound, "values": vals})
            shift = ""
            if len(medians) >= 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                shift = f"{100 * worse:+6.1f}%"
                if worse > bound:
                    shift += " !!"
                    ok = False
            print(f"{name:24s} {bound:6.2f} " + " ".join(cols) + "   " + shift)
    out = BUILD / f"selftest-{int(time.time())}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nraw results: {out}")
    print("selftest: ok" if ok else "selftest: NOT STEADY")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    if not args.smoke and not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("run.py: build failed")
        return 1
    if args.smoke:
        return smoke()
    if args.selftest:
        return selftest(args.runs, args.sets, args.workloads, args.seconds)

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    code, out = run_once(args.workload, args.seed, seconds, args.trace)
    if code != 0:
        log(f"run.py: harness exited with {code}")
        return code or 1
    meta = {"git_sha": git_sha(), "src_digest": source_digest(),
            "nproc": os.cpu_count()}
    print(json.dumps({"meta": meta}))
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
