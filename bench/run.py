"""mfkappa benchmark: one closed-loop client, one workload per run.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload cli --seed 1 --seconds 42 --trace 0

Rerun on a second seed by changing --seed only; every other setting stays.
The seed picks one of 16 recorded input variants (seed % 16), so the same
seed always gives the same inputs and every output is checked against
bench/reference.json, recorded from the code at the commit that added the
benchmark (regenerate with bench/record_reference.py only when an output
change is intended).

Each run is a closed loop: one client in this process, at most one `mfk`
subprocess alive at a time, the next op sent only after the previous one
ended. An op is one unit of user work; a run takes a workload's ops in turn
until --seconds is used up (every op at least once). Set-up runs three times
and setup_s is the median.

Workloads and why each is here
------------------------------
BENCHMARK.json gates two: cli and sweep-1e7. The other three run by hand.
cli           each generate-cli op, then an op that runs `mfk analyze
              --auto-size` and `mfk classify` on the dust it just wrote, as
              a field-cli op does; set-up is generate-cli's. The whole CLI
              path, and the gated stand-in for field-cli and generate-cli:
              a shared 2-vCPU host's CPU speed swings by about 1.5x for up
              to a minute at a time, so CLI ops need long runs, and one CLI
              workload with a near-empty set-up gets the longest runs within
              a fixed time for all runs. Over a 210 s series of field-cli
              and generate-cli ops, windows of 32 s spread by 16%
              (IQR/median of their mean op time), windows of 48 s by 9%.
              The analyzed dusts are generate-cli's: binomial cascade,
              disjoint superposition, Farey and random uniform (field-cli
              has a Cantor cascade in place of Farey).
field-cli     an op runs `mfk analyze FILE --auto-size` then `mfk classify`
              as subprocesses on one of four S=1e6 text dusts (binomial
              cascade, middle-third Cantor cascade, disjoint two-cascade
              superposition, random uniform). The experimentalist's real
              path: interpreter start, import and text parsing dominate;
              cover is about 1%.
sweep-1e7     set-up generates one 1e7-point binomial cascade in memory; an
              op runs sweep_boxes over 11 box counts spanning the sizing
              window [A^2, 2 sqrt(S)], classify and features on every
              spectrum, compare_sweep and render_spectra_svg. Cover is about
              85% of an op, geometry most of the rest; no text I/O, no import.
generate-cli  an op runs one `mfk generate` of selfsimilar S=1e6,
              superposed S=1e6 --disjoint, farey Q=1000 or uniform random
              S=1e6. The write side of the dust I/O field-cli reads, plus the
              generators; no cover or classify work.
              field-cli and generate-cli are gated through cli.
regime-scan   an op is one classify of an in-memory spectrum; set-up builds
              spectra from S in {1e4, 1e5, 1e6} dusts of the four kinds at
              the auto-sized B and at 1.8 B (n from 7 to 41 points, every
              regime appears), each classified with the default config and
              with min_run=4, where detect_segment's O(n^3) polyfit loop
              shows. Every other layer is bypassed. Not listed in
              BENCHMARK.json, so not gated: on a shared 2-vCPU host its
              run medians swung by up to 1.75x between runs a minute apart,
              past any usable bound. Run it by hand, with --trace 1 for the
              classifier's layers.

Output
------
The last line of stdout is one JSON object
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}
`failed` counts ops with a nonzero exit, an exception, or an output that
differs from the reference; `correct` is false if any op failed or a set-up
output differs. With --trace 0 the metrics are the end-to-end ones:
    setup_s      s     median wall time of three set-ups
    op_mean_s    s     mean op wall time: the mean over the workload's op
                       kinds of each kind's mean, so a run that stops
                       part-way through the list weighs every kind the same
    items_per_s  1/s   work per second of op time, the items of one pass
                       over the op list over the sum of the per-kind means:
                       dust points for the CLI workloads (points_per_s;
                       in cli a dust counts once for the op that writes it
                       and once for the op that analyzes it), spectra for
                       sweep-1e7 and regime-scan (spectra_per_s)
    peak_rss_mb  MB    peak resident memory of the process doing the work:
                       the largest mfk subprocess for the CLI workloads,
                       this process (set-up included) otherwise
Both are means, not medians, because a shared host runs each vCPU in a fast
and a slow state about 1.5x apart, each lasting seconds to a minute: the
median of a run's ops jumps between the two states, while the mean follows
the share of time spent in each. On a 2-vCPU host, over repeated
`mfk generate uniform` ops of about 2 s, nine consecutive 8-op medians
spread by 11% of their median, and the 8-op means by 3%.
The line before it is {"info": ...}: op_p50_s (median op wall time), the op
tail (the highest percentile with at least ten ops beyond it, its
percentile and the op count, omitted below 20 ops), each op's time by kind,
failed_ratio, the throughput under its own name, the
quality records (the five acceptance clauses that fail by design, recorded
so that any estimator change shows; they are not gated) and the
environment (git sha, source hash, versions, nproc, CPU, L3, the
sweep-1e7 working set). The same goes to bench/results/.

With --trace 1 (per-layer metrics) the run wraps the public functions of
each module from outside (see tracing.py) and runs CLI commands in-process
through mfkappa.cli.main(argv). Each op is run untraced and then traced;
the CLI workloads also run it as a subprocess. Per-layer metrics:
    <span>_s               s      self time per traced op (mean), for every
                                  span in tracing.SPAN_NAMES
    setup.<span>_s         s      self time in one traced set-up
    setup.trace.unaccounted_s     set-up time outside any span
    trace.op_s             s      mean traced op wall time
    trace.unaccounted_s    s      op time outside any top-level span
    trace.overhead_ratio   ratio  median traced/untraced op time, minus 1
    cli.import_s           s      `python -c "import mfkappa.cli"` minus a
                                  bare `python -c pass` (CLI workloads)
    cli.process_s          s      subprocess wall time per op (CLI)
    measure.read_dust_mb_per_s, measure.write_dust_mb_per_s
                           MB/s   file bytes over inclusive time
    measure.cover_points_per_s  1/s   points covered per second of cover
    measure.cover_bytes_computed bytes computed from the seed kernel's
                                  access pattern per op, not measured
    spectrum.sweep_ok_ratio ratio spectra produced / box counts attempted
    geometry.detect_segment_fits count least-squares windows fitted per op
A layer a workload never calls reports 0. Rates use all spans, set-up
included; per-op values use traced ops only. Spans go to bench/results/.

Layer -> the end-to-end metric it should move
---------------------------------------------
cli runs generate-cli's ops and field-cli's kind of op, so a layer that moves
either moves cli.
cli.import_s, cli.process_s, cli.main_s -> op_mean_s on field-cli and
    generate-cli; nothing on sweep-1e7 or regime-scan
measure.read_dust_* -> items_per_s on field-cli
measure.write_dust_* -> items_per_s on generate-cli, setup_s on field-cli
measure.CantorDust_s (sort and range checks) -> all workloads
measure.cover_* -> items_per_s on sweep-1e7; negligible on field-cli
spectrum.alpha_field_s, histogram_spectrum_s, estimate_s (self),
    sweep_ok_ratio, read_spectrum_csv_s, format_spectrum_csv_s
    -> sweep-1e7 and field-cli
geometry.* -> items_per_s on regime-scan (not gated), about 15% of an op
    on sweep-1e7, a small share of field-cli
oracles.gen_*_s -> items_per_s on generate-cli, setup_s on sweep-1e7
svgplot.render_spectra_svg_s -> sweep-1e7 (small)
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT = 120

END_TO_END_UNITS = {"setup_s": "s", "op_mean_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def load_package():
    """Import mfkappa from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mfkappa", "__init__.py")):
        sys.exit(f"error: no mfkappa sources in {SRC}; "
                 "run from the root of a checkout")
    sys.path.insert(0, SRC)
    import mfkappa
    if not os.path.abspath(mfkappa.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported mfkappa from {mfkappa.__file__}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["MFK_NO_COLOR"] = "1"
    return env


def run_subprocess(cmd, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[3:5])} exited with "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return dt


def op_stream(ops, seconds):
    """Yield `ops` in turn until the next one, judged by the length of the
    last, would end past `seconds`; every op at least once."""
    t_start = time.perf_counter()
    last = 0.0
    for k in itertools.count():
        if k >= len(ops) and time.perf_counter() - t_start + last > seconds:
            return
        t0 = time.perf_counter()
        yield ops[k % len(ops)]
        last = time.perf_counter() - t0


def tail(times):
    """Highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 20:
        return None
    return {"value": sorted(times)[n - 11],
            "percentile": round(100.0 * (n - 10) / n, 3), "count": n}


class Checker:
    def __init__(self, reference: dict | None):
        from workloads import matches
        self.matches = matches
        self.ref = reference
        self.attempted = 0
        self.failed = 0

    def op(self, wl, op, produce) -> None:
        """Run produce() (which runs the op and returns its digest), count
        the op, and compare the digest with the reference."""
        self.attempted += 1
        try:
            got = produce()
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"op {wl.name}/{op.key} failed: {exc}", file=sys.stderr)
            self.failed += 1
            return
        if self.ref is None or not self.matches(self.ref["ops"][op.key], got):
            print(f"op {wl.name}/{op.key}: output differs from the "
                  "reference", file=sys.stderr)
            self.failed += 1


def run_untraced(wl, checker, seconds, env):
    """Returns {op key: [wall time of each run of that op]}."""
    from workloads import mfk_command
    times = {op.key: [] for op in wl.ops}
    for op in op_stream(wl.ops, seconds):
        dt = [0.0]

        def produce():
            if wl.cli:
                for argv in op.argvs:
                    dt[0] += run_subprocess(mfk_command(argv), env)
                return op.digest()
            t0 = time.perf_counter()
            result = op.call()
            dt[0] = time.perf_counter() - t0
            return op.digest(result)

        checker.op(wl, op, produce)
        times[op.key].append(dt[0])
    return times


def op_metrics(wl, times) -> dict:
    """op_mean_s and items_per_s from per-kind mean op times."""
    means = [statistics.fmean(times[op.key]) for op in wl.ops]
    return {"op_mean_s": statistics.fmean(means),
            "items_per_s": sum(op.items for op in wl.ops) / sum(means)}


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def import_probe(env, repeats=3) -> float:
    """Median fresh-interpreter import of mfkappa.cli minus a bare start."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(run_subprocess([sys.executable, "-c", "pass"], env))
        full.append(run_subprocess(
            [sys.executable, "-c", "import mfkappa.cli"], env))
    return statistics.median(full) - statistics.median(bare)


def run_traced(wl, checker, seconds, env, tracer):
    """Each op: (CLI only) a subprocess run, an untraced in-process run, a
    traced in-process run. Returns per-layer metrics."""
    from tracing import SPAN_NAMES
    from workloads import mfk_command, run_inprocess_cli
    process, untraced, traced, op_ids = [], [], [], []

    def in_process(op):
        t0 = time.perf_counter()
        if wl.cli:
            run_inprocess_cli(op.argvs)
            result = None
        else:
            result = op.call()
        return time.perf_counter() - t0, result

    import_s = import_probe(env) if wl.cli else 0.0
    for k, op in enumerate(op_stream(wl.ops, seconds)):
        op_id = f"op{k}"

        def produce():
            if wl.cli:
                wall = sum(run_subprocess(mfk_command(a), env)
                           for a in op.argvs)
            plain, _ = in_process(op)
            tracer.op = op_id
            tracer.install()
            try:
                dt, result = in_process(op)
            finally:
                tracer.uninstall()
            if wl.cli:
                process.append(wall)
            untraced.append(plain)
            traced.append(dt)
            op_ids.append(op_id)
            return op.digest() if wl.cli else op.digest(result)

        checker.op(wl, op, produce)

    n = max(1, len(op_ids))
    self_t = tracer.self_times()
    top = tracer.top_level_time()
    counts = sum(tracer.counts.values(), Counter())
    op_counts = sum((tracer.counts[o] for o in op_ids), Counter())

    def rate(amount, span):
        t = tracer.inclusive_time(span)
        return amount / t if t > 0 else 0.0

    m = {f"{name}_s": sum(self_t[o][name] for o in op_ids) / n
         for name in SPAN_NAMES}
    m.update({f"setup.{name}_s": self_t["setup"][name]
              for name in SETUP_SPANS})
    m["setup.trace.unaccounted_s"] = tracer.setup_wall - top["setup"]
    op_wall = dict(zip(op_ids, traced))
    m["trace.op_s"] = sum(traced) / n
    m["trace.unaccounted_s"] = sum(op_wall[o] - top[o] for o in op_ids) / n
    m["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1.0 if traced else 0.0
    m["cli.import_s"] = import_s
    m["cli.process_s"] = statistics.median(process) if process else 0.0
    m["measure.read_dust_mb_per_s"] = rate(
        counts["read_dust_bytes"] / 1e6, "measure.read_dust")
    m["measure.write_dust_mb_per_s"] = rate(
        counts["write_dust_bytes"] / 1e6, "measure.write_dust")
    m["measure.cover_points_per_s"] = rate(
        counts["cover_points"], "measure.cover")
    m["measure.cover_bytes_computed"] = op_counts["cover_bytes"] / n
    attempted = op_counts["sweep_attempted"]
    m["spectrum.sweep_ok_ratio"] = (op_counts["sweep_ok"] / attempted
                                    if attempted else 0.0)
    m["geometry.detect_segment_fits"] = op_counts["detect_segment_fits"] / n
    return m


# Layers that set-up can reach (generators, dust writes, spectra for
# regime-scan), reported from one traced set-up.
SETUP_SPANS = ("measure.write_dust", "measure.CantorDust", "measure.cover",
               "spectrum.alpha_field", "spectrum.histogram_spectrum",
               "spectrum.estimate", "oracles.gen_selfsimilar",
               "oracles.gen_superposed", "oracles.gen_uniform")


def per_layer_units() -> dict:
    """Name -> unit of every --trace 1 metric, in output order."""
    from tracing import SPAN_NAMES
    units = {f"{name}_s": "s" for name in SPAN_NAMES}
    units.update({f"setup.{name}_s": "s" for name in SETUP_SPANS})
    units.update({
        "setup.trace.unaccounted_s": "s", "trace.op_s": "s",
        "trace.unaccounted_s": "s", "trace.overhead_ratio": "ratio",
        "cli.import_s": "s", "cli.process_s": "s",
        "measure.read_dust_mb_per_s": "MB/s",
        "measure.write_dust_mb_per_s": "MB/s",
        "measure.cover_points_per_s": "1/s",
        "measure.cover_bytes_computed": "bytes",
        "spectrum.sweep_ok_ratio": "ratio",
        "geometry.detect_segment_fits": "count"})
    return units


# --- records that are not gated -----------------------------------------

def quality_records() -> dict:
    """The five acceptance clauses that fail by design, measured exactly
    as tests/test_acceptance.py measures them (first seed it checks)."""
    import math
    import numpy as np
    from mfkappa import geometry, oracles, spectrum

    uni = spectrum.estimate(oracles.gen_uniform(10_000, "random", seed=0),
                            100, 9)
    cantor = spectrum.estimate(oracles.gen_selfsimilar(
        oracles.SelfSimilarSpec(p=(0.5, 0.5), r=(1 / 3, 1 / 3), depth=13,
                                S=10_000, seed=0)), 100, 9)
    binom_def = oracles.SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5),
                                        depth=13, S=10_000, seed=0)
    orc = oracles.oracle_spectrum(binom_def, np.arange(-5, 5.0001, 0.05))
    binom = spectrum.estimate(oracles.gen_selfsimilar(binom_def), 100, 9)
    order = np.argsort(orc.alphas)
    mask = binom.fs >= 0.3
    dist = np.abs(binom.fs[mask] - np.interp(
        binom.alphas[mask], orc.alphas[order], orc.fs[order]))
    farey_dust = oracles.gen_farey(200)
    farey = spectrum.estimate(farey_dust,
                              *spectrum.auto_size(farey_dust.sample_size))
    fs = farey.fs
    return {
        "uniform_f_max": {"value": geometry.features(uni).f_max,
                          "bound": ">= 0.95"},
        "cantor_alpha_M": {"value": geometry.features(cantor).alpha_M,
                           "bound": f"{math.log(2) / math.log(3):.4f} "
                                    "+- 0.08"},
        "binomial_oracle_distance": {"value": float(np.max(dist)),
                                     "bound": "<= 0.10"},
        "binomial_f_max": {"value": geometry.features(binom).f_max,
                           "bound": "1 +- 0.08"},
        "farey_rises": {"value": [float(b - a)
                                  for a, b in zip(fs[1:], fs[2:]) if b > a],
                        "bound": "at most one rise, <= 0.05"},
    }


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _read_first(path, prefix=""):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return None


def environment(wl_sizes) -> dict:
    import numpy as np
    from importlib import metadata
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mfkappa")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    l3 = _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size")
    l3_bytes = None
    if l3:
        scale = {"K": 1024, "M": 1024 ** 2}.get(l3[-1], 1)
        l3_bytes = int(l3.rstrip("KM")) * scale
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name")
        or platform.processor() or None,
        "l3_bytes": l3_bytes,
        # sweep-1e7 working set: float64 points plus int64 box indices
        "sweep_working_set_bytes": 16 * wl_sizes["sweep_S"],
        "cover_bytes_computed_is": "computed from the kernel's access "
                                   "pattern, not measured",
    }


# --- main ----------------------------------------------------------------

def main(argv=None) -> int:
    load_package()
    from workloads import SIZES, VARIANTS, WORKLOADS, matches

    ap = argparse.ArgumentParser(description="mfkappa benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'smoke' is the smoke test's")
    args = ap.parse_args(argv)

    variant = args.seed % VARIANTS
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.size][args.workload][str(variant)]
    except (OSError, KeyError):
        reference = None
        print("no reference for this workload and variant", file=sys.stderr)

    env = child_env()
    cls = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    checker = Checker(reference)
    info = {"workload": args.workload, "seed": args.seed,
            "variant": variant, "size": args.size, "trace": args.trace}

    def fresh_workload():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        return cls(args.size, variant, work, env)

    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            wl = fresh_workload()
            tracer.op = "setup"
            tracer.install()
            t0 = time.perf_counter()
            try:
                wl.setup()
            finally:
                tracer.setup_wall = time.perf_counter() - t0
                tracer.uninstall()
            metrics = run_traced(wl, checker, args.seconds, env, tracer)
            units = per_layer_units()
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                wl = None  # drop the previous inputs first
                wl = fresh_workload()
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            times = run_untraced(wl, checker, args.seconds, env)
            metrics = {"setup_s": statistics.median(setup_times),
                       **op_metrics(wl, times),
                       "peak_rss_mb": peak_rss_mb(wl)}
            units = END_TO_END_UNITS
            every = [t for ts in times.values() for t in ts]
            info.update({
                "setup_runs_s": setup_times, "op_count": len(every),
                "op_p50_s": statistics.median(every),
                "op_tail_s": tail(every),
                "op_times_s": times,
                f"{wl.item}_per_s": metrics["items_per_s"]})
        setup_ok = reference is not None and \
            matches(reference["setup"], wl.setup_digest())
        if not setup_ok:
            print("set-up output differs from the reference",
                  file=sys.stderr)
        info["failed_ratio"] = checker.failed / max(1, checker.attempted)
        info["quality"] = quality_records()
        info["environment"] = environment(SIZES[args.size])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": bool(setup_ok and checker.failed == 0
                              and checker.attempted > 0),
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u}
                          for k, u in units.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-{args.size}-seed{args.seed}"
                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w") as fh:
            for k, (name, t0, t1, parent, op) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
