#!/usr/bin/env python3
"""subreglab benchmark: drives the CLI entry `subreglab.radius_cli.main` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # one table for every workload
    python3 perfbench/run.py --write-golden        # re-baseline golden.json

Run it from the repository root. One client, closed loop, one process, BLAS
threads pinned to 1. A pass runs every config of the workload twice in a
fresh output directory: the fresh run computes and writes the cache and is
the one timed; the second run is a cache hit. Passes repeat until --seconds
is used up (at least three), and timings are medians over passes. Every
payload is checked, see README.md. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
GOLDEN = os.path.join(HERE, "golden.json")
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 7
REF_PY_STEPS = 120_000  # with REF_NP_STEPS, about 50 ms a loop on a 2-core VM
REF_NP_STEPS = 2_000
EXIT_OF_STATUS = {"ok": 0, "verification_fail": 3, "inconsistency": 4}
LIMITS = ("only the wall and CPU time of this benchmark's own processes are measured; "
          "there are no hardware counters and no system-wide tracing; the machine's "
          "cores are shared with other workloads")

sys.path.insert(0, HERE)
import payload as pl  # noqa: E402
import layertrace as tr  # noqa: E402
import workloads as wl  # noqa: E402


def load_package():
    """Pin BLAS threads, put src/ first on the path, import the CLI module."""
    os.environ.update(BLAS_PIN)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from subreglab import radius_cli
    return radius_cli


# ---------------------------------------------------------------------------
# one CLI invocation and one pass


@dataclasses.dataclass
class Invocation:
    config: str
    hit: bool  # the run that should be served from the cache
    exit: int
    seconds: float
    cpu_s: float
    digest: str | None = None
    keys: dict | None = None
    status: str | None = None
    from_cache: bool | None = None
    problems: list = dataclasses.field(default_factory=list)


def invoke(radius_cli, spec: wl.ConfigSpec, path: str, out_dir: str, hit: bool,
           tracer: tr.Tracer | None = None) -> Invocation:
    main = radius_cli.main
    if tracer is not None:
        main = tracer.timed(tr.HIT if hit else tr.FRESH, main)
    buf = io.StringIO()
    argv = ["run", path, "--out", out_dir, "--format", "full"]
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    inv = Invocation(spec.name, hit, code, seconds, cpu)
    try:
        doc = json.loads(buf.getvalue())
    except ValueError:
        inv.problems.append(f"{spec.name}: output is not JSON")
        return inv
    inv.digest, inv.keys, inv.status = pl.digest(doc), pl.key_digests(doc), doc.get("status")
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            inv.from_cache = "timings" not in json.load(fh)
    except (OSError, ValueError):
        pass
    return inv


def reference_seconds() -> float:
    """Time a fixed loop of Python float arithmetic and small numpy calls.

    The loop calls nothing of subreglab, so its time changes only with the
    speed the machine gives this process at that moment.
    """
    import numpy as np
    a = np.arange(1.0, 10.0).reshape(3, 3)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, REF_PY_STEPS):
        x = i * 1e-5
        acc += math.sin(x) * x + abs(x - 0.5) / (1.0 + x * x)
    for i in range(REF_NP_STEPS):
        acc += float(np.linalg.norm(a @ np.array([i, 1.0, 2.0]), 1))
    return time.perf_counter() - t0


@dataclasses.dataclass
class Pass:
    traced: bool
    wall_s: float  # fresh runs only
    wall_ref: float  # fresh runs only, each in units of the reference loop around it
    cpu_s: float
    load_before: tuple
    load_after: tuple
    runs: list
    ref_s: list  # reference loop times, one before and one after each fresh run


def run_pass(radius_cli, specs, paths, pass_dir: str, tracer=None) -> Pass:
    load_before = os.getloadavg()
    runs, refs, wall_ref = [], [], 0.0
    try:
        for spec, path in zip(specs, paths):
            out = os.path.join(pass_dir, spec.name)
            before = reference_seconds()
            fresh = invoke(radius_cli, spec, path, out, False, tracer)
            after = reference_seconds()
            runs += [fresh, invoke(radius_cli, spec, path, out, True, tracer)]
            refs += [before, after]
            wall_ref += fresh.seconds / ((before + after) / 2)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    fresh = [r for r in runs if not r.hit]
    return Pass(tracer is not None, sum(r.seconds for r in fresh), wall_ref,
                sum(r.cpu_s for r in fresh), load_before, os.getloadavg(), runs, refs)


# ---------------------------------------------------------------------------
# correctness


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


class Checker:
    """Golden digests at golden seeds; status-only checks at any other seed.

    A run fails when its exit code is not the expected one, when its payload
    digest differs from the golden digest (golden seeds), or from the fresh
    run's (cache hits) or the first pass's (later passes). A fresh run that
    was served from the cache, or a cache hit that recomputed, also fails.
    """

    def __init__(self, workload: str, seed: int, golden: dict):
        self.golden = golden["digests"].get(workload, {}).get(str(seed))
        self.mode = "golden" if self.golden is not None else "status-only"
        self.first: dict[str, str] = {}
        self.known_defects: set[str] = set()

    def check(self, spec: wl.ConfigSpec, fresh: Invocation, hit: Invocation):
        for inv in (fresh, hit):
            what = f"{spec.name} ({'cache hit' if inv.hit else 'fresh'})"
            if inv.digest is None:
                continue
            if self.golden is not None:
                g = self.golden[spec.name]
                if inv.exit != g["exit"]:
                    inv.problems.append(f"{what}: exit {inv.exit}, golden exit {g['exit']}")
                if inv.digest != g["sha256"]:
                    key = pl.first_difference(g["keys"], inv.keys)
                    inv.problems.append(f"{what}: payload differs from golden, "
                                        f"first differing key {key!r}")
            elif inv.exit not in spec.expected_exits:
                inv.problems.append(f"{what}: exit {inv.exit}, expected "
                                    f"{' or '.join(map(str, spec.expected_exits))}")
            if EXIT_OF_STATUS.get(inv.status) != inv.exit:
                inv.problems.append(f"{what}: exit {inv.exit} but payload status {inv.status!r}")
            if inv.from_cache is not inv.hit:
                inv.problems.append(f"{what}: cache {'hit' if inv.from_cache else 'miss'} "
                                    "where the other was expected")
        if hit.digest != fresh.digest and None not in (hit.digest, fresh.digest):
            key = pl.first_difference(fresh.keys, hit.keys)
            hit.problems.append(f"{spec.name}: cache hit differs from the fresh run, "
                                f"first differing key {key!r}")
        if fresh.digest is not None:
            first = self.first.setdefault(spec.name, fresh.digest)
            if fresh.digest != first:
                fresh.problems.append(f"{spec.name}: payload differs from the first pass")
        if self.golden is None and not fresh.problems and fresh.exit != 0:
            self.known_defects.add(f"{spec.name}: exit {fresh.exit} (status {fresh.status})")

    def check_pass(self, specs, p: Pass):
        for spec, (fresh, hit) in zip(specs, zip(p.runs[::2], p.runs[1::2])):
            self.check(spec, fresh, hit)


# ---------------------------------------------------------------------------
# set-up probes and run context


def setup_seconds(config_paths: list[str]) -> list[float]:
    """SETUP_PROBES fresh interpreters, each timing import, catalog() and parsing."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               *config_paths], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "subreglab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_context() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "limits": LIMITS,
    }


# ---------------------------------------------------------------------------
# one benchmark run


def trace_failures(workload: str, layer: dict, unstable: list[str]) -> list[str]:
    """The traced run's own checks: layer isolation and repeatable call counts."""
    out = [f"layer isolation: {d}" for d in tr.isolation_drift(workload, layer)]
    if unstable:
        out.append("call counts differ between traced passes: " + ", ".join(unstable))
    return out


def result_line(metrics: dict, attempted: int, failed: int, trace_failed: list[str]) -> dict:
    """The last output line. A failed run or a failed trace check makes it incorrect."""
    return {"correct": failed == 0 and not trace_failed, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    radius_cli = load_package()
    workload = wl.WORKLOADS[name]
    specs = workload.configs(seed)
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    checker = Checker(name, seed, load_golden())
    context = run_context()
    print("context " + json.dumps(context, sort_keys=True))
    try:
        paths = wl.write_configs(specs, os.path.join(run_dir, "configs"))
        setup = setup_seconds(paths)
        passes: list[Pass] = []
        tracers: list[tr.Tracer] = []
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            n_plain = sum(not p.traced for p in passes)
            n_traced = len(passes) - n_plain
            if traced:
                done = n_plain >= MIN_TRACED_PASSES and n_traced >= MIN_TRACED_PASSES
            else:
                done = n_plain >= MIN_PASSES
            if done and elapsed + statistics.mean(p.wall_s for p in passes) > seconds:
                break
            pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
            if traced and n_traced < n_plain:
                with tr.Tracer() as tracer:
                    p = run_pass(radius_cli, specs, paths, pass_dir, tracer)
                tracers.append(tracer)
            else:
                p = run_pass(radius_cli, specs, paths, pass_dir)
            checker.check_pass(specs, p)
            passes.append(p)
            print(f"pass {len(passes)}{' traced' if p.traced else ''}: fresh wall "
                  f"{p.wall_s:.4f} s = {p.wall_ref:.2f} ref, cpu {p.cpu_s:.4f} s, load "
                  f"{p.load_before[0]:.2f} -> {p.load_after[0]:.2f}", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    runs = [r for p in passes for r in p.runs]
    problems = [msg for r in runs for msg in r.problems]
    failed = sum(bool(r.problems) for r in runs)
    for msg, n in collections.Counter(problems).items():
        print(f"FAIL {msg}" + (f" (x{n})" if n > 1 else ""))
    for msg in sorted(checker.known_defects):
        print(f"known defect, reported not failed: {msg}")
    print(f"check: {checker.mode} digests at seed {seed}, {len(runs)} runs, {failed} failed")

    plain = [p for p in passes if not p.traced]
    walls = [p.wall_s for p in plain]
    wall_refs = [p.wall_ref for p in plain]
    if traced:
        per_pass = [t.layer_metrics() for t in tracers]
        layer, unstable = tr.merge_passes(per_pass)
        traced_ref = statistics.median(p.wall_ref for p in passes if p.traced)
        layer["process.cpu_s"] = statistics.median(p.cpu_s for p in plain)
        layer["trace.overhead_frac"] = traced_ref / statistics.median(wall_refs) - 1.0
        metrics = {k: (layer[k], unit) for k, unit in tr.LAYER_METRICS.items()}
        drift = tr.isolation_drift(name, layer)
        trace_failed = trace_failures(name, layer, unstable)
        for msg in trace_failed:
            print(f"FAIL {msg}")
        if not drift:
            print("layer isolation: pass")
        for k, (v, unit) in metrics.items():
            print(f"{k} = {v:.6g} {unit}")
        trace_doc = {"workload": name, "seed": seed, "metrics": layer,
                     "isolation_drift": drift, "unstable_counts": unstable,
                     "passes": [t.dump() for t in tracers]}
        with open(os.path.join(results_dir, f"{name}-seed{seed}-spans.json"), "w") as fh:
            json.dump(trace_doc, fh, indent=1)
    else:
        trace_failed = []
        metrics = {
            "wall_ref": (statistics.median(wall_refs), "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        lo, _, hi = statistics.quantiles(walls, n=4)
        print(f"wall_s = {statistics.median(walls):.4f} s (median of {len(walls)} passes, "
              f"quartiles {lo:.4f} .. {hi:.4f})")
        lo, _, hi = statistics.quantiles(wall_refs, n=4)
        print(f"wall_ref = {metrics['wall_ref'][0]:.3f} ref (quartiles {lo:.3f} .. {hi:.3f}; "
              f"reference loop median {statistics.median(r for p in plain for r in p.ref_s):.4f} s)")
        print(f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh "
              f"interpreters)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"failed_frac = {failed / len(runs):g} ratio ({failed} of {len(runs)} runs)")

    result = result_line(metrics, len(runs), failed, trace_failed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "context": context, "setup_s": setup, "wall_s": statistics.median(walls),
              "failed_frac": failed / len(runs),
              "problems": problems, "known_defects": sorted(checker.known_defects),
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "wall_ref": p.wall_ref,
                          "ref_s": p.ref_s, "cpu_s": p.cpu_s,
                          "loadavg_before": p.load_before, "loadavg_after": p.load_after,
                          "runs": [{"config": r.config, "hit": r.hit, "exit": r.exit,
                                    "seconds": r.seconds, "digest": r.digest}
                                   for r in p.runs]} for p in passes],
              "result": result}
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{int(traced)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload in one table; golden re-baselining


def run_all(seed: int, seconds: float) -> int:
    rows = []
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        with open(os.path.join(WORK, "results", f"{name}-seed{seed}-trace0.json")) as fh:
            wall = json.load(fh)["wall_s"]
        rows.append((name, wall, m["wall_ref"], m["setup_s"], m["peak_rss_mb"],
                     res["failed"], res["attempted"]))
    print(f"seed {seed}, {seconds:g} s per workload")
    print(f"{'workload':<17} {'wall_s (s)':>11} {'wall_ref (ref)':>15} {'setup_s (s)':>12} "
          f"{'peak_rss_mb (MB)':>17} {'failed_frac (ratio)':>20}")
    for name, wall, ref, setup, rss, failed, n in rows:
        print(f"{name:<17} {wall:>11.4f} {ref:>15.3f} {setup:>12.4f} {rss:>17.1f} "
              f"{failed / n:>9g} ({failed}/{n} runs)")
    return 0 if all(r[5] == 0 for r in rows) else 1


def write_golden() -> int:
    """Run one pass of every workload at the desk seed and the held-out seed and
    store the payload digests. Use only when a change is meant to alter payloads."""
    radius_cli = load_package()
    digests: dict = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in (wl.DESK_SEED, wl.HELD_OUT_SEED):
            specs = workload.configs(seed)
            run_dir = os.path.join(WORK, f"golden-{name}-seed{seed}")
            try:
                paths = wl.write_configs(specs, os.path.join(run_dir, "configs"))
                p = run_pass(radius_cli, specs, paths, os.path.join(run_dir, "pass"))
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            entry = {}
            for spec, fresh, hit in zip(specs, p.runs[::2], p.runs[1::2]):
                if fresh.exit not in spec.expected_exits or fresh.digest != hit.digest:
                    print(f"refusing to write golden: {name} {spec.name} seed {seed} "
                          f"exit {fresh.exit}", file=sys.stderr)
                    return 1
                entry[spec.name] = {"exit": fresh.exit, "sha256": fresh.digest,
                                    "keys": fresh.keys}
            digests.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {len(entry)} payloads", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"desk_seed": wl.DESK_SEED, "held_out_seed": wl.HELD_OUT_SEED,
                   "src_sha256": source_digest(), "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DESK_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="re-baseline golden.json at the desk seed and the held-out seed")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subreglab", "radius_cli.py")):
        print(f"error: no subreglab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
