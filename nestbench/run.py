#!/usr/bin/env python3
"""Benchmark of the NRC-to-Spark compiler's routes; see nestbench/README.md.

Run from the repository root:

    python3 nestbench/run.py --workload tpch_nest --seed 1 --seconds 10 --trace 0
    python3 nestbench/run.py --selftest

The first run builds the benchmark and the compiler from source with sbt
(the benchmark's own build in this directory depends on the root build) and
caches the resulting classpath under .bench_build/nestbench; later runs start
the JVM directly. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "nestbench")

# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "nestbench/build.sbt", "nestbench/project/build.properties", "nestbench/src"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# Spark on JDK 17 needs these packages opened, as in the root build.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def fail(msg, code=2):
    print(f"nestbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def classpath(sha):
    """Build with sbt unless the cached classpath matches the sources."""
    cp_file = os.path.join(WORK, "classpath.txt")
    sha_file = os.path.join(WORK, "source.sha")
    if os.path.exists(cp_file) and os.path.exists(sha_file):
        with open(sha_file) as f:
            if f.read().strip() == sha:
                with open(cp_file) as g:
                    return g.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    print("nestbench: building with sbt ...", file=sys.stderr)
    try:
        out = subprocess.run([sbt, "--batch", "-Dsbt.server.autostart=false",
                              "export Runtime/fullClasspath"],
                             cwd=HERE, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    os.makedirs(WORK, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(sha_file, "w") as f:
        f.write(sha)
    return lines[-1]


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_file):
        return
    with open(spec_file) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}, "
             f"or units differ", 4)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from a checkout of the whole repository")

    sha = source_sha()
    cp = classpath(sha)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xmx3g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}",
           f"-Dnestbench.work={WORK}", f"-Dnestbench.gitSha={git_sha()}",
           f"-Dnestbench.sourceSha={sha}"]
    cmd += [f"--add-opens=java.base/{o}=ALL-UNNAMED" for o in OPENS]
    cmd += ["-cp", cp, "nestbench.Main"]
    if args.selftest:
        cmd += ["--selftest"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"run failed with exit code {proc.returncode}", proc.returncode or 1)
    if not args.selftest:
        result = json.loads(lines[-1])
        check_metrics(result, args.trace == 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
