#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flight_mcar05 --seed 1 --seconds 20 --trace 0

The first run in a checkout builds the program and the harness from source
with sbt (into .bench_build/ and the sbt target directories); later runs
reuse the build while the sources are unchanged. The harness then runs in
one JVM with Spark in local mode on every core. The last line printed is one
JSON object with the keys correct, attempted, failed and metrics. Any other
outcome exits non-zero without printing a result.

Extra options, used by selftest.py: --scale tiny (small inputs) and
--fault truncate (drop one output row of the first imputation call).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 175
MAIN_CLASS = "repro.perfbench.Main"

JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    ]
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads or is run by: the program's build and main
    sources, and the harness's."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH_DIR, "src")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH_DIR, "build.sbt"),
             os.path.abspath(__file__)]
    for proj in (os.path.join(ROOT, "project"), os.path.join(BENCH_DIR, "project")):
        if os.path.isdir(proj):
            files += [os.path.join(proj, f) for f in sorted(os.listdir(proj))
                      if f.endswith((".sbt", ".scala", ".properties"))]
    for r in roots:
        for d, subdirs, names in os.walk(r):
            subdirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Compile with sbt unless the sources are unchanged since the last
    build; return the runtime classpath."""
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    stamp_file = os.path.join(BUILD_DIR, "stamp.txt")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    log("building program and harness with sbt")
    for stale in (cp_file, stamp_file, os.path.join(BUILD_DIR, "classes.jsa")):
        if os.path.exists(stale):
            os.remove(stale)
    env = dict(os.environ)
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspathAsJars"]
    t0 = time.time()
    code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=BENCH_DIR, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        raise SystemExit(f"perfbench: sbt build failed with code {code}")
    cp = [l.strip() for l in out.splitlines()
          if l.strip() and not l.startswith("[") and ".jar" in l and os.pathsep in l]
    if not cp:
        raise SystemExit("perfbench: sbt printed no classpath")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(cp[-1])
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    log(f"built in {time.time() - t0:.0f} s")
    return cp[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--fault", choices=["truncate"])
    a = ap.parse_args()

    missing = [p for p in ("build.sbt", os.path.join("src", "main", "scala"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise SystemExit(f"perfbench: program sources not found next to the harness: {missing}")

    classpath = build()
    # A class-data archive of the JVM's loaded classes, written by the first
    # run after a build and mapped by later runs, cuts JVM and Spark start-up.
    cds = os.path.join(BUILD_DIR, "classes.jsa")
    cds_opt = (f"-XX:SharedArchiveFile={cds}" if os.path.exists(cds)
               else f"-XX:ArchiveClassesAtExit={cds}")
    tmp = os.path.join(BUILD_DIR, "tmp")
    local = os.path.join(BUILD_DIR, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=local)
    # No perf-data file: the JVM would write it under the system temp dir.
    cmd = (["java", "-Xmx2g", "-XX:-UsePerfData", "-Xshare:auto", cds_opt,
            "-Xlog:disable", "-Xlog:all=warning:stderr"] + JAVA_OPENS + [
        "-Djdk.reflect.useDirectMethodHandle=false",
        "-Dio.netty.tryReflectionSetAccessible=true",
        f"-Djava.io.tmpdir={tmp}",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={local}",
        f"-Dspark.sql.warehouse.dir={os.path.join(BUILD_DIR, 'warehouse')}",
        "-cp", classpath, MAIN_CLASS,
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--scale", a.scale,
    ] + (["--fault", a.fault] if a.fault else []))
    try:
        code, out = run_group(cmd, RUN_LIMIT_S, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: run exceeded {RUN_LIMIT_S} s")
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        raise SystemExit(f"perfbench: harness exited with code {code}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("perfbench: harness printed no result")
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
