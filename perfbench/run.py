#!/usr/bin/env python3
"""Reorder-then-iterate benchmark.

Runs one workload through the program's public pipeline
(GraphGen -> DiGraph.fromEdges -> Reorder.order -> Metric.positiveEdges ->
DiGraph.relabel -> SeqEngine / SparkBlockAsyncEngine), checks every result,
and prints one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a separate traced pass.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload queries-lj --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke          # every workload, small inputs

The first run builds the program and the harness with sbt (offline) into
perfbench/.build and perfbench/target; later runs reuse the build while the
sources are unchanged. Each run writes a full report (metadata, per-pass
values, fingerprints, spans) to perfbench/.build/work/reports/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ["queries-lj", "blocks-cp", "table2-cp"]
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A fixed heap and the throughput collector: timings then depend far less on
# when the collector runs than with the default G1 and a growing heap. The heap
# is backed by transparent huge pages where the kernel allows them (GoGraph
# chases boxed objects, so its speed otherwise varies with TLB misses).
HEAP = "4g"

# Spark on JDK 17 needs the module opens its launcher scripts normally add.
OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads, as sorted paths relative to ROOT."""
    roots = [PROGRAM_SRC, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in roots:
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def source_hash():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout and waits."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def sbt_options():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    opts = ["-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "-Dsbt.offline=true",
            "-Djava.io.tmpdir=" + tmp, "-J-XX:-UsePerfData"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
    return opts


def ensure_built(stamp):
    """Returns the runtime classpath, building first if the sources changed."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    log("building (sbt, offline) ...")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SPARK_HOME" not in env:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise RuntimeError("Spark not found: set SPARK_HOME")
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    code, out = run_bounded(
        ["sbt", "--batch"] + sbt_options() + ["compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True)
    # `export` prints the classpath as a bare line, without a log prefix
    lines = [l.strip() for l in out.splitlines()
             if l.strip() and not l.startswith("[") and (".jar" in l or "classes" in l)]
    sys.stderr.write("".join(l + "\n" for l in out.splitlines() if l.strip() not in lines))
    if code != 0 or not lines:
        raise RuntimeError("build failed (sbt exit code %d)" % code)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def run_workload(cp, stamp, sha, workload, seed, seconds, trace, smoke):
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages",
            "-XX:-UsePerfData"] + OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "src", "main", "resources", "log4j2.properties"),
        "-cp", cp, "perfbench.Main",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", WORK, "--git-sha", sha, "--source-hash", stamp,
    ] + (["--smoke"] if smoke else []))
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1")
    code, out = run_bounded(cmd, JVM_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError("%s: JVM exit code %d" % (workload, code))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise RuntimeError("%s: malformed result line" % workload)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload path on the small analogues, with the same checks")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        log("program sources not found under %s; run from a checkout of the repository" % PROGRAM_SRC)
        return 2
    try:
        stamp = source_hash()
        cp = ensure_built(stamp)
        sha = git_sha()
        if args.smoke:
            results = []
            for w in [args.workload] if args.workload else WORKLOADS:
                r = run_workload(cp, stamp, sha, w, args.seed, min(args.seconds, 1), args.trace, True)
                log("smoke %s: correct=%s attempted=%d failed=%d" % (w, r["correct"], r["attempted"], r["failed"]))
                results.append(r)
            print(json.dumps({
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {},
            }))
            return 0
        r = run_workload(cp, stamp, sha, args.workload, args.seed, args.seconds, args.trace, False)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
