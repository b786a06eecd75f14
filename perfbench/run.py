#!/usr/bin/env python3
"""Build and run the repository benchmark, record results, compare two sets.

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload onboard --seed 1 --seconds 10 --trace 0

It builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), prints the machine it ran on (nproc, `rustc -V`, the
commit), then runs the benchmark. The last line of standard output is the
result JSON. `--record FILE` also appends the result, with those machine
facts, as one JSON line to FILE.

Run a series of seeds and print each end-to-end metric's median and
quartile spread:

    python3 perfbench/run.py series --workloads onboard,optimize,explore \
        --seeds 1-10 --seconds 10 --record before.jsonl

Compare two recorded sets (the parent first), following the rule for
claiming a gain: each side's failed/attempted operations and incorrect runs
per workload (incorrect runs are left out of the figures, and no gain is
granted when the change fails more than the parent), then each side's median
and quartiles per (metric x workload), the share of same-seed pairs the
change wins, and the parent's own quartile spread:

    python3 perfbench/run.py compare before.jsonl after.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# End-to-end metrics the benchmark prints and records on a `not-gated` line
# but BENCHMARK.json gives no bound (see EndToEnd::not_gated in src/common.rs),
# with the direction that is better.
NOT_GATED = {"throughput_rps": "higher", "latency_p50_ms": "lower", "latency_tail_ms": "lower"}
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        cwd=ROOT,
    )
    if result.returncode != 0:
        return None
    binary = os.path.join(target_dir(), "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def command_output(args):
    try:
        out = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def machine():
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
    }


def run_once(binary, workload, seed, seconds, trace, record=None, echo=True):
    """Runs one benchmark process; returns (exit code, result dict or None)."""
    env_facts = machine()
    if echo:
        print(
            "machine: nproc={nproc} rustc={rustc!r} commit={commit}".format(**env_facts),
            flush=True,
        )
    args = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    last = None
    not_gated = {}
    for line in proc.stdout:
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
        if line.startswith("not-gated "):
            not_gated = json.loads(line[len("not-gated "):])
        if line.strip():
            last = line.strip()
    code = proc.wait()
    result = None
    if code == 0 and last is not None:
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            code = 1
    if result is not None:
        result["not_gated"] = not_gated
    if result is not None and record:
        entry = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "machine": env_facts,
            "result": result,
        }
        with open(record, "a") as f:
            f.write(json.dumps(entry) + "\n")
    return code, result


def metric_values(entry):
    """Every end-to-end metric of one recorded run: the gated ones and those
    printed without a bound."""
    return {**entry["result"]["metrics"], **entry["result"].get("not_gated", {})}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                if entry["trace"] == 0:
                    rows.setdefault(entry["workload"], []).append(entry)
    return rows


def series(args):
    binary = build()
    if binary is None:
        return 1
    spec = benchmark_spec()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    values = {}
    status = 0
    for workload in workloads:
        for seed in seeds:
            code, result = run_once(binary, workload, seed, args.seconds, 0, args.record, echo=False)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed (exit {code})", file=sys.stderr)
                status = 1
                continue
            metrics = {**result["metrics"], **result["not_gated"]}
            for name, m in metrics.items():
                values.setdefault((workload, name), []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in metrics.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<10} {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for (workload, name), vals in values.items():
        med, q1, q3, rel = spread(vals)
        flag = "" if name not in bounds or rel <= bounds[name] / 3 else "  > bound/3"
        print(f"{workload:<10} {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f} "
              f"{bounds.get(name, '-'):>6}{flag}")
    return status


def failures(entries):
    """(runs, runs with correct=false, failed, attempted) over one side's runs."""
    results = [e["result"] for e in entries]
    return (
        len(results),
        sum(1 for r in results if not r["correct"]),
        sum(r["failed"] for r in results),
        sum(r["attempted"] for r in results),
    )


def fails_more(change, parent):
    """Whether the change's runs fail more often than the parent's, by
    failed/attempted or by the share of runs whose answers were wrong."""
    runs_a, wrong_a, failed_a, attempted_a = change
    runs_b, wrong_b, failed_b, attempted_b = parent
    ratio = lambda num, den: num / den if den else 0.0
    return (ratio(failed_a, attempted_a) > ratio(failed_b, attempted_b)
            or ratio(wrong_a, runs_a) > ratio(wrong_b, runs_b))


def compare(args):
    spec = benchmark_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # Printed and recorded without a bound: a regression is not assessed.
    better.update(NOT_GATED)
    before, after = load(args.before), load(args.after)
    for workload in sorted(set(before) & set(after)):
        for side, entries in (("parent", before[workload]), ("change", after[workload])):
            runs, wrong, failed, attempted = failures(entries)
            print(f"{workload:<10} {side}: {failed}/{attempted} operations failed, "
                  f"{wrong}/{runs} runs incorrect (left out of the figures below)")
    print(f"{'workload':<10} {'metric':<20} {'parent med [q1,q3]':>34} {'change med [q1,q3]':>34} "
          f"{'wins':>9} {'parent iqr':>11}  verdict")
    for workload in sorted(set(before) & set(after)):
        more_failures = fails_more(failures(after[workload]), failures(before[workload]))
        correct_before = [e for e in before[workload] if e["result"]["correct"]]
        correct_after = [e for e in after[workload] if e["result"]["correct"]]
        for name in better:
            b = {e["seed"]: metric_values(e)[name]["value"] for e in correct_before if name in metric_values(e)}
            a = {e["seed"]: metric_values(e)[name]["value"] for e in correct_after if name in metric_values(e)}
            if not a or not b:
                continue
            bmed, bq1, bq3, _ = spread(list(b.values()))
            amed, aq1, aq3, _ = spread(list(a.values()))
            sign = 1 if better[name] == "higher" else -1
            pairs = [(b[s], a[s]) for s in b if s in a]
            wins = sum(1 for pb, pa in pairs if sign * (pa - pb) > 0)
            losses = sum(1 for pb, pa in pairs if sign * (pa - pb) < 0)
            share = wins / len(pairs) if pairs else 0.0
            parent_iqr = bq3 - bq1
            worse_by = sign * (bmed - amed) / abs(bmed) if bmed else 0.0
            if pairs and share >= 0.9 and sign * (amed - bmed) > parent_iqr:
                # A gain does not count when the change fails more than the parent.
                verdict = "no gain: more failures" if more_failures else "gain"
            elif name not in bounds:
                verdict = "no bound"
            elif worse_by > bounds[name]:
                verdict = "regression"
            elif parent_iqr / abs(bmed or 1) > bounds[name] and not (
                pairs and losses == 0 and min(sign * pa for _, pa in pairs) > max(sign * pb for pb, _ in pairs)
            ):
                verdict = "unresolved"
            else:
                verdict = "no change beyond bound"
            print(f"{workload:<10} {name:<20} {bmed:>12.6g} [{bq1:.6g},{bq3:.6g}] "
                  f"{amed:>12.6g} [{aq1:.6g},{aq3:.6g}] {wins:>3}/{len(pairs):<3} {share:>5.0%} "
                  f"{parent_iqr:>11.6g}  {verdict}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("series", "compare"):
        parser = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "series":
            parser.add_argument("--workloads", default="")
            parser.add_argument("--seeds", default="1-10")
            parser.add_argument("--seconds", type=int, default=benchmark_spec()["run_seconds"])
            parser.add_argument("--record", default=None)
            return series(parser.parse_args(sys.argv[2:]))
        parser.add_argument("before")
        parser.add_argument("after")
        return compare(parser.parse_args(sys.argv[2:]))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    binary = build()
    if binary is None:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return 1
    code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace, args.record)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
