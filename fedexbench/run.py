#!/usr/bin/env python3
"""Run one FEDEX explain benchmark workload and print its metrics.

Usage, from the repository root:

    python3 fedexbench/run.py --workload filter-exact --seed 7 --seconds 10 --trace 0

The first run builds the repository and the benchmark with sbt (offline) and
keeps the classpath in fedexbench/.work; later runs start the JVM directly.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Every metric named there must be reported, with the unit named there.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

T0 = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
RUN_LIMIT_S = 175  # a run must end within 180 s, set-up included
BUILD_LIMIT_S = 840

# Spark on JDK 17 needs these module opens (as in the repository's build).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def die(msg):
    print(f"fedexbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
                os.path.join(HERE, "src", "main")):
        for d, _, fs in sorted(os.walk(top)):
            files += [os.path.join(d, f) for f in sorted(fs)]
    return [f for f in files if os.path.isfile(f)]


def fingerprint():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The benchmark's runtime classpath and whether it was built just now
    (sources changed since the last build)."""
    stamp_path, cp_path = os.path.join(WORK, "stamp"), os.path.join(WORK, "classpath.txt")
    stamp = fingerprint()
    if os.path.exists(stamp_path) and os.path.exists(cp_path):
        with open(stamp_path) as s, open(cp_path) as c:
            old, cp = s.read().strip(), c.read().strip()
        if old == stamp and all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp, False
    os.makedirs(WORK, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                             timeout=BUILD_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        die("build timed out")
    lines = [l.strip() for l in out.stdout.splitlines() if l.strip()]
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))  # the last line is the classpath
    if out.returncode != 0 or not lines:
        die(f"build failed (sbt exit {out.returncode})")
    cp = lines[-1]
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        die("build did not report a usable classpath")
    with open(cp_path, "w") as c:
        c.write(cp + "\n")
    with open(stamp_path, "w") as s:
        s.write(stamp + "\n")
    return cp, True


def run_jvm(cp, args, limit_s):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = [java, "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", f"-Dfedexbench.work={WORK}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, "fedexbench.Main", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"run exceeded {limit_s:.0f} s")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(os.path.join(ROOT, "src", "main")):
        die(f"no repository sources next to {HERE}; run from a full checkout")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cp, built = classpath()
    code, out = run_jvm(cp, args, RUN_LIMIT_S - (0 if built else time.monotonic() - T0))
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        die(f"run produced no result (exit {code})")
    result = json.loads(lines[-1])
    for l in lines[:-1]:
        print(l)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} [{m['unit']}] not reported as named: {got}")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
