#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ against the library in src/
and runs one workload of BENCHMARK.json.

  python3 perfbench/run.py --open-rate 25 --workload ts3net_open \\
      --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds into $CARGO_TARGET_DIR
(default .bench_build), writes nothing else, and prints the program's
"# ..." report lines followed by one JSON result line. It exits non-zero,
without a result line, when the build or a self-test fails, and non-zero,
with a result line that says "correct": false, when an output check or a
reconciliation fails.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
RUN_TIMEOUT_S = 170


def schema_errors(spec):
    """Returns the ways `spec` breaks the BENCHMARK.json contract."""
    errors = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if not isinstance(spec, dict) or set(spec) != want:
        return ["top-level keys must be exactly %s" % sorted(want)]
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32 or
            not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command: 1..32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        errors.append("command: no absolute paths or '..'")
    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16 or
            not all(isinstance(p, str) and PATH_RE.match(p) and
                    not p.startswith("/") and ".." not in p.split("/")
                    for p in paths)):
        errors.append("paths: 1..16 relative paths of [A-Za-z0-9_.-/]")
    seconds = spec["run_seconds"]
    if type(seconds) is not int or not 1 <= seconds <= 60:
        errors.append("run_seconds: a whole number from 1 to 60")
    names = []

    def check_list(key, lo, hi, keys):
        items = spec[key]
        if not isinstance(items, list) or not lo <= len(items) <= hi:
            errors.append("%s: %d..%d entries" % (key, lo, hi))
            return []
        for item in items:
            if not isinstance(item, dict) or set(item) != keys:
                errors.append("%s: entries have exactly %s" %
                              (key, sorted(keys)))
                continue
            if not isinstance(item["name"], str) or \
                    not NAME_RE.match(item["name"]):
                errors.append("%s: bad name %r" % (key, item["name"]))
            names.append(item["name"])
        return [i for i in items if isinstance(i, dict) and set(i) == keys]

    for w in check_list("workloads", 2, 8, {"name", "why"}):
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            errors.append("workloads: 'why' is one line of 1..200 chars")
    metric_keys = {"name", "unit", "better"}
    for key, hi, keys in (("end_to_end", 16, metric_keys | {"bound"}),
                          ("per_layer", 128, metric_keys)):
        for m in check_list(key, 1, hi, keys):
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errors.append("%s: bad unit %r" % (key, m["unit"]))
            if m["better"] not in ("lower", "higher"):
                errors.append("%s: better is lower or higher" % key)
            if "bound" in keys:
                b = m["bound"]
                if isinstance(b, bool) or not isinstance(b, (int, float)) or \
                        not 0 < b <= 0.25:
                    errors.append("%s: bound in (0, 0.25]" % key)
    if len(set(names)) != len(names):
        errors.append("names must be unique")
    setup = [m for m in spec["end_to_end"]
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if len(setup) != 1 or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup[0].get("bound", 0)
             for m in spec["end_to_end"] if isinstance(m, dict)):
        errors.append("setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        errors.append("at most 64 KiB")
    return errors


def result_errors(spec, result, trace):
    """Returns the ways a result line breaks the contract for `spec`."""
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int or result[key] < 0:
            errors.append("%s must be a whole number" % key)
    if type(result["attempted"]) is int and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or \
            set(metrics) != {m["name"] for m in declared}:
        return errors + ["metrics must be exactly the declared %s" %
                         ("per_layer" if trace else "end_to_end")]
    for m in declared:
        got = metrics[m["name"]]
        if not isinstance(got, dict) or set(got) != {"value", "unit"} or \
                got["unit"] != m["unit"] or \
                isinstance(got["value"], bool) or \
                not isinstance(got["value"], (int, float)):
            errors.append("metric %s: {value, unit %s}" %
                          (m["name"], m["unit"]))
    return errors


def self_test_schema(spec):
    """Checks schema_errors accepts `spec` and rejects broken copies."""
    failures = []
    if schema_errors(spec):
        failures.append("BENCHMARK.json: %s" % schema_errors(spec))

    def broken(mutate):
        copy = json.loads(json.dumps(spec))
        mutate(copy)
        return copy

    cases = {
        "extra top-level key": lambda s: s.update(extra=1),
        "bound above 0.25": lambda s: s["end_to_end"][1].update(bound=0.3),
        "bad metric name": lambda s: s["per_layer"][0].update(name="a/b"),
        "duplicate name": lambda s: s["per_layer"].append(
            dict(s["per_layer"][0])),
        "one workload": lambda s: s.update(workloads=s["workloads"][:1]),
        "absolute command path": lambda s: s["command"].append("/x"),
        "run_seconds 0": lambda s: s.update(run_seconds=0),
        "no setup_s": lambda s: s.update(end_to_end=[
            m for m in s["end_to_end"] if m["name"] != "setup_s"]),
    }
    for what, mutate in cases.items():
        if not schema_errors(broken(mutate)):
            failures.append("schema accepted: %s" % what)
    for name, ok in (("p50_ms", True), ("serve.queue_wait_p99_us", True),
                     ("a b", False), ("_x", False), ("x" * 65, False)):
        if bool(NAME_RE.match(name)) != ok:
            failures.append("metric name %r" % name)
    return failures


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures and builds ts3bench; returns its path or None."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", build_dir, "--target", "ts3bench",
              "-j", str(nproc())]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "ts3bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--open-rate", type=float,
                        help="ts3net_open offered rate, requests/s")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e,
              file=sys.stderr)
        return 1
    failures = self_test_schema(spec)
    if failures:
        print("perfbench: self-test FAILED: %s" % "; ".join(failures),
              file=sys.stderr)
        return 1
    if not args.selftest and (
            args.workload not in [w["name"] for w in spec["workloads"]] or
            args.seconds is None or args.seconds <= 0):
        parser.error("--workload must name a workload of BENCHMARK.json "
                     "and --seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    if subprocess.run([binary, "--selftest"], stdout=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        return 1
    if args.selftest:
        print("perfbench self-tests: ok")
        return 0

    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    if args.open_rate is not None:
        command.append("--open_rate=%g" % args.open_rate)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    errors = result_errors(spec, result, args.trace == 1)
    if errors:
        print("\n".join(lines[:-1]))
        print("perfbench: bad result line: %s" % "; ".join(errors),
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    if run.returncode != 0 or not result["correct"]:
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
