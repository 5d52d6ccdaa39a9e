#!/usr/bin/env python3
"""Entry point of the mbias benchmark.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 10 --trace 0

builds perfbench/ (and the mbias sources it includes) with CMake into
$CARGO_TARGET_DIR or .bench_build/, then runs the mbench binary under a
seed-padded environment block.  The last stdout line is the JSON result.

Compare two sets of saved run outputs (files or directories):

    python3 perfbench/run.py compare BASE CANDIDATE

Self-test the benchmark itself:

    python3 perfbench/run.py selftest

See perfbench/README.md for the workloads, the metrics and the method.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_all", "setup_sweep", "noise_reps", "explain_ref"]
RUN_TIMEOUT_S = 170
ENV_PAD_MAX = 4096
SETUP_SAMPLES = 15
# Per-layer counts that repeat exactly for the same code and seed.  (Cache
# misses, and the record/replay split, depend on which worker races to a
# miss first, so they are not among them.)
DETERMINISTIC_COUNTS = [
    "sim.runs", "sim.reference_runs", "campaign.store_appends",
    "stats.resamples",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds mbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mbias sources next to perfbench/ (%s/src)" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=log, stderr=log)
        if r.returncode:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    r = subprocess.run(["cmake", "--build", out, "--target", "mbench",
                        "-j", jobs], stdout=log, stderr=log)
    if r.returncode:
        fail("build failed")
    return os.path.join(out, "mbench")


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # a plain source checkout: source_digest() is the identity
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args),
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over every file the benchmark builds or checks against:
    a tree identity that also works in a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench", os.path.join("tests", "golden")):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def env_pad(seed):
    """The seed's environment padding in bytes (0..4 KiB)."""
    return random.Random(seed * 2654435761 + 17).randrange(ENV_PAD_MAX + 1)


def run_once(args, extra):
    binary = build()
    jobs = min(4, len(os.sched_getaffinity(0)))
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    tree = git("rev-parse", "HEAD^{tree}")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    pad = env_pad(args.seed)
    env = dict(os.environ)
    # The paper's remedy, applied to the benchmark process itself: its
    # environment block grows by a seed-drawn 0..4 KiB before main().
    env["MBENCH_ENV_PAD"] = "x" * pad
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--root", ROOT, "--workdir", workdir,
           "--env-pad", str(pad), "--source-digest", source_digest(),
           "--tree", tree or "none", "--commit", git("rev-parse", "HEAD") or "none",
           "--dirty", "1" if dirty else "0"] + extra

    def spawn(more):
        stamp = ["--spawn-ns", str(time.monotonic_ns())]
        try:
            return subprocess.run(cmd + more + stamp, env=env, cwd=ROOT,
                                  stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)

    # Set-up time is a handful of milliseconds: sample it in a few
    # processes that stop once set up, and let the run report the median.
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = spawn(["--setup-only"])
        if r.returncode:
            sys.stdout.write(r.stdout.decode())
            return r.returncode
        samples.append(json.loads(r.stdout.decode().splitlines()[-1])["setup_s"])
    r = spawn(["--setup-samples", ",".join("%.9f" % s for s in samples)])
    sys.stdout.write(r.stdout.decode())
    sys.stdout.flush()
    return r.returncode


# --------------------------------------------------------------------
# compare

def load_runs(paths):
    """{(workload, trace): [(seed, provenance, result)]} from saved
    stdout of runs (provenance line followed by the result line)."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p))]
        else:
            files.append(p)
    runs = {}
    for path in files:
        prov = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                d = json.loads(line)
                if "provenance" in d:
                    prov = d["provenance"]
                elif "metrics" in d and prov is not None:
                    key = (prov["workload"], prov["trace"])
                    runs.setdefault(key, []).append((prov["seed"], prov, d))
                    prov = None
    for v in runs.values():
        v.sort(key=lambda r: r[0])
    return runs


def compare(base_paths, cand_paths):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base, cand = load_runs(base_paths), load_runs(cand_paths)
    binary = build()
    lines, labels = [], []
    for (wl, trace) in sorted(set(base) & set(cand)):
        if trace:
            continue
        a, b = base[(wl, trace)], cand[(wl, trace)]
        for metric in better:
            va = [r[2]["metrics"][metric]["value"] for r in a]
            vb = [r[2]["metrics"][metric]["value"] for r in b]
            labels.append((wl, metric))
            lines.append("%s:%s %d %s %d %s" % (
                wl, metric, len(va), " ".join(map(repr, va)),
                len(vb), " ".join(map(repr, vb))))
    r = subprocess.run([binary, "compare"], input="\n".join(lines) + "\n",
                       capture_output=True, text=True)
    if r.returncode:
        fail("mbench compare failed: " + r.stderr)
    print("%-12s %-18s %9s %9s %9s  %s" % (
        "workload", "metric", "ratio", "ci_lo", "ci_hi", "verdict"))
    for (wl, metric), out in zip(labels, r.stdout.splitlines()):
        _, ratio, lo, hi = out.split()
        ratio, lo, hi = float(ratio), float(lo), float(hi)
        if lo == hi == 1.0:
            verdict = "same (identical values)"
        elif not (lo == lo and hi == hi) or lo <= 1.0 <= hi:
            verdict = "unresolved (CI spans 1.0)"
        else:
            up = lo > 1.0
            verdict = "better" if up == (better[metric] == "higher") else "worse"
        print("%-12s %-18s %9.4f %9.4f %9.4f  %s" % (wl, metric, ratio, lo, hi,
                                                      verdict))
    # Deterministic counts must match exactly, seed for seed.
    print("\nexact counts (same seed, same value expected):")
    for key in sorted(set(base) & set(cand)):
        a = {r[0]: r for r in base[key]}
        b = {r[0]: r for r in cand[key]}
        for seed in sorted(set(a) & set(b)):
            pa, ra = a[seed][1], a[seed][2]
            pb, rb = b[seed][1], b[seed][2]
            diffs = []
            for field in ("sim_insts_per_pass", "digest"):
                if pa.get(field) != pb.get(field):
                    diffs.append("%s %s -> %s" % (field, pa.get(field),
                                                  pb.get(field)))
            for m in DETERMINISTIC_COUNTS:
                x = ra["metrics"].get(m, {}).get("value")
                y = rb["metrics"].get(m, {}).get("value")
                if x != y:
                    diffs.append("%s %s -> %s" % (m, x, y))
            print("  %-12s trace=%d seed=%-6d %s" % (
                key[0], key[1], seed, "; ".join(diffs) if diffs else "same"))
    return 0


# --------------------------------------------------------------------
# selftest

def run_child(args):
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    return r.returncode, r.stdout, lines


def selftest():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for wl in WORKLOADS:
        base = ["--workload", wl, "--seconds", "1", "--trace", "0"]
        _, a, _ = run_child(base + ["--seed", "1", "--print-inputs"])
        _, b, _ = run_child(base + ["--seed", "1", "--print-inputs"])
        _, c, _ = run_child(base + ["--seed", "2", "--print-inputs"])
        expect(a == b and a.strip() != "", wl + ": inputs are a function of the seed")
        if wl != "paper_all":  # paper_all's seed only permutes the order
            expect(a != c, wl + ": another seed gives other inputs")

    for wl in WORKLOADS:
        rc, _, lines = run_child(["--workload", wl, "--seed", "3",
                                  "--seconds", "1", "--trace", "1"])
        prov = json.loads(lines[-2])["provenance"] if len(lines) >= 2 else {}
        res = json.loads(lines[-1]) if lines else {}
        expect(rc == 0 and res.get("correct") is True and
               prov.get("traced_digest_equal") is True,
               wl + ": traced and untraced passes give the same digest")
        m = {k: v["value"] for k, v in res.get("metrics", {}).items()}
        shares = sum(v for k, v in m.items() if k.endswith("_s") and
                     not k.startswith(("pipeline.figure_s.", "bench.")))
        wall = m.get("bench.traced_wall_s", -1.0)
        expect(abs(shares - wall) <= 1e-6 * wall,
               "%s: layer self times + unattributed = traced wall (%.6f vs %.6f)"
               % (wl, shares, wall))

    for wl, flag in (("paper_all", "--corrupt-golden"),
                     ("explain_ref", "--corrupt-golden"),
                     ("setup_sweep", "--corrupt-spot-check"),
                     ("noise_reps", "--corrupt-spot-check")):
        rc, _, lines = run_child(["--workload", wl, "--seed", "4",
                                  "--seconds", "1", "--trace", "0", flag])
        res = json.loads(lines[-1]) if lines else {}
        ok_frac = res.get("metrics", {}).get("ok_frac", {}).get("value", 1.0)
        expect(rc != 0 and res.get("correct") is False and
               res.get("failed", 0) > 0 and ok_frac < 1.0,
               "%s %s: failure is counted and the exit code is nonzero" % (wl, flag))

    print("%d self-test failure(s)" % len(failures))
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) < 3:
            fail("usage: run.py compare BASE CANDIDATE")
        return compare([argv[1]], [argv[2]])
    if argv[:1] == ["selftest"]:
        return selftest()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = p.parse_known_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return run_once(args, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
