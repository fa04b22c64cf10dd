#!/usr/bin/env python3
"""uvmsim benchmark: sweep throughput end to end, plus a per-layer ledger.

Run from the repository root:

    python3 bench/perf/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Every call first brings .bench_build up to date with the sources: the
first call configures and builds bench/perf (which builds the simulator
library it links), later calls rebuild what changed.  A run then measures the workload in whole
passes over its cell list, one uvmsim_perf process per pass, checks every
cell, prints a readable table and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ledger.  See
bench/perf/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
NPROC = min(4, len(os.sched_getaffinity(0)))

# Run shape per workload.  pass_s is the host time of one pass on the
# reference host (4-core Intel Xeon @ 2.1GHz); a run measures a fixed
# number of passes sized from it, so two commits compare the same cells.
WORKLOADS = {
    "paper-sweep": {"scale": 1.0, "jobs": NPROC, "pass_s": 0.45},
    "resident": {"scale": 0.5, "jobs": 1, "pass_s": 0.36},
    "thrash": {"scale": 0.1, "jobs": 1, "pass_s": 0.66},
    "replay": {"scale": 0.25, "jobs": 1, "pass_s": 0.8},
}
# Passes per cell_wall_tail_ms group.  With at least 11, the ten cells
# beyond a group's tail can all be runs of its slowest cell, so the
# tail does not sit on the step between two cells' host times.
TAIL_GROUP_PASSES = 11
# Input variants of an end-to-end run.  Some cells' host time depends on
# their input far more than others' (paper-sweep's bfs/MRU4K takes 55 to
# 140 ms over seeds 1-30, next to about 70 ms for the slowest cells of
# most seeds), so a tail over one seed's cells follows that seed.  Pass i
# draws its inputs from variant i mod INPUT_VARIANTS of --seed, and every
# tail group sees each variant.  replay keeps --seed: its trace is
# recorded once, in set-up.
INPUT_VARIANTS = TAIL_GROUP_PASSES
TRACED_ROUNDS = 3
RECORD_REPS = 5
PASS_TIMEOUT_S = 150

# simcore_micro benchmark -> per-layer metric (ns per item).
MICRO = {
    "BM_EventSchedulePodFire": "sim.event_fire_ns",
    "BM_L1CacheAccess": "gpu.l1_probe_ns",
    "BM_L2CacheAccess": "gpu.l2_probe_ns",
    "BM_TlbLookupInsert": "mem.tlb_op_ns",
    "BM_ResidencyResidentEvictChurn": "core.residency_op_ns",
    "BM_TreeMarkUnmark": "core.tree_op_ns",
}

END_TO_END_UNITS = {
    "sims_per_s": "1/s",
    "cell_wall_p50_ms": "ms",
    "cell_wall_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class Bench:
    """One benchmark run: its spans, failure counts and the binaries."""

    def __init__(self, args):
        self.args = args
        self.shape = WORKLOADS[args.workload]
        self.replay_scale = WORKLOADS["replay"]["scale"]
        if args.scale is not None:
            self.shape = dict(self.shape, scale=args.scale)
            self.replay_scale = args.scale
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    # ------------------------------------------------------------ helpers

    def span(self, name, t0, t1, **args):
        self.spans.append({"name": name, "ph": "X", "pid": 0, "tid": 0,
                           "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                           "args": args})

    def timed(self, name, cmd):
        """Run a helper process; returns (stdout, seconds)."""
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        t1 = time.monotonic_ns()
        self.span(name, t0, t1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: {name} exited {proc.returncode}")
        return proc.stdout, (t1 - t0) / 1e9

    def variant_seed(self, i):
        """The seed of input variant i mod INPUT_VARIANTS; the variants
        of two --seed values never overlap."""
        return ((self.args.seed * INPUT_VARIANTS + i % INPUT_VARIANTS)
                % 2**63)

    def run_pass(self, workload, scale, flags, label, seed=None):
        """One uvmsim_perf pass; None when the process failed."""
        seed = self.args.seed if seed is None else seed
        cmd = [str(self.perf), f"--workload={workload}",
               f"--seed={seed}", f"--scale={scale}"] + flags
        if self.args.mutate:
            cmd.append(f"--mutate={self.args.mutate}")
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        t1 = time.monotonic_ns()
        self.span(f"uvmsim_perf {label}", t0, t1, cmd=" ".join(cmd[1:]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{label}: uvmsim_perf exited "
                              f"{proc.returncode}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["spawn_to_first_cell_s"] = (
            result["first_cell_mono_ns"] - t0) / 1e9
        self.attempted += len(result["cells"])
        for cell in result["cells"]:
            if cell["error"]:
                self.failed += 1
                self.notes.append(f"{label}: {cell['workload']}/"
                                  f"{cell['policy']}: {cell['error']}")
        return result

    def same_digest(self, passes, what):
        """Identical cells must give identical stats in every pass; a
        pass that disagrees with the first counts all its cells failed."""
        for p in passes[1:]:
            if p["digest"] != passes[0]["digest"]:
                self.failed += len(p["cells"])
                self.notes.append(f"{what}: stats digest {p['digest']} "
                                  f"!= {passes[0]['digest']}")
        return passes[0]["digest"] if passes else "none"

    def record_trace(self):
        """Record the replay workload's .uvmt; returns (path, seconds)."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"dbbuffer-seed{self.args.seed}.uvmt"
        cmd = [str(self.trace_tool), "record", "--workload=dbbuffer",
               f"--scale={self.replay_scale}",
               f"--workload-seed={self.args.seed}",
               "--warps=4", f"--out={path}"]
        times = []
        for _ in range(RECORD_REPS):
            # Rewriting a file in place makes the file system flush it
            # on close, a disk wait of up to ~100 ms that a user
            # recording a new trace does not pay; start from no file.
            path.unlink(missing_ok=True)
            times.append(self.timed("uvmsim_trace record", cmd)[1])
        return path, times

    # -------------------------------------------------------------- build

    def build(self):
        """Configure once, then always build: the incremental build is
        close to a no-op when nothing changed, and picks up any edit to
        the sources since the last run.  Outside every timed pass."""
        BUILD.mkdir(exist_ok=True)
        cmds = [["cmake", "--build", str(BUILD), f"-j{NPROC}"]]
        if not (BUILD / "CMakeCache.txt").exists():
            cmds.insert(0, ["cmake", "-S", str(ROOT / "bench" / "perf"),
                            "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        log = BUILD / "build.log"
        with open(log, "w") as f:
            for cmd in cmds:
                if subprocess.run(cmd, stdout=f, stderr=f).returncode:
                    sys.stderr.write(log.read_text()[-4000:])
                    raise SystemExit("error: benchmark build failed")
        # A fresh build leaves its outputs to be written back to disk;
        # wait for that here, not during the first timed passes.
        os.sync()
        self.perf = self.binary("uvmsim_perf")
        self.trace_tool = self.binary("uvmsim_trace")
        self.micro = self.binary("simcore_micro")

    @staticmethod
    def binary(name):
        for path in sorted(BUILD.rglob(name)):
            if path.is_file() and os.access(path, os.X_OK):
                return path
        raise SystemExit(f"error: {name} not found under {BUILD}")

    # ---------------------------------------------------------- end to end

    def end_to_end(self):
        w = self.args.workload
        scale, jobs = self.shape["scale"], self.shape["jobs"]
        passes_wanted = max(3, round(self.args.seconds /
                                     self.shape["pass_s"]))
        flags = [f"--jobs={jobs}"]
        record_times = []
        if w == "replay":
            path, record_times = self.record_trace()
            flags.append(f"--replay={path}")
        passes = [p for p in (self.run_pass(
            w, scale, flags, f"pass {i}",
            None if w == "replay" else self.variant_seed(i))
            for i in range(passes_wanted)) if p]
        if not passes:
            raise SystemExit("error: every pass failed")
        by_seed = {}
        for p in passes:
            by_seed.setdefault(p["seed"], []).append(p)
        digests = [self.same_digest(ps, f"{w} seed {s}")
                   for s, ps in by_seed.items()]

        cells = sorted(c["host_ns"] / 1e6 for p in passes
                       for c in p["cells"])
        n = len(cells)
        # The tail is taken in each group of consecutive passes and the
        # median reported: a burst of load from outside the benchmark
        # slows a few passes, and so moves one group's tail.
        groups = max(1, len(passes) // TAIL_GROUP_PASSES)
        tails = []
        for g in range(groups):
            part = sorted(c["host_ns"] / 1e6 for p in passes[
                g * len(passes) // groups:(g + 1) * len(passes) // groups]
                for c in p["cells"])
            m = len(part)
            tails.append(part[m - 11] if m > 10 else part[-1])
        tail = statistics.median(tails)
        m = n // groups
        tail_what = (f"median over {groups} groups of passes of the "
                     + (f"p{100.0 * (m - 10) / m:.1f} (10 of about {m} "
                        f"cells slower)" if m > 10 else
                        f"slowest of about {m} cells"))
        setup = statistics.median(p["spawn_to_first_cell_s"]
                                  for p in passes)
        if record_times:
            setup += statistics.median(record_times)
        # Medians over passes, so a burst of load from outside the
        # benchmark moves a run's figures less.
        metrics = {
            "sims_per_s": len(passes[0]["cells"]) / statistics.median(
                p["wall_ns"] / 1e9 for p in passes),
            "cell_wall_p50_ms": statistics.median(cells),
            "cell_wall_tail_ms": tail,
            "setup_s": setup,
            "peak_rss_mib": statistics.median(
                p["peak_rss_kib"] for p in passes) / 1024,
        }
        print(f"workload {w}  seed {self.args.seed} ({len(by_seed)} input "
              f"variants)  scale {scale}  jobs {jobs}  "
              f"{len(passes[0]['cells'])} cells/pass x "
              f"{len(passes)} passes = {n} cells")
        hosts = {"peak_rss_mib": "host memory"}
        for name, value in metrics.items():
            extra = f"  {tail_what}" if name == "cell_wall_tail_ms" else ""
            print(f"  {name:<22} {value:>12.4f} {END_TO_END_UNITS[name]:<4}"
                  f" {hosts.get(name, 'host time')}{extra}")
        frac = self.failed / max(1, self.attempted)
        print(f"  {'failed_frac':<22} {frac:>12.4f} ratio "
              f"({self.failed} of {self.attempted} cells failed a check)")
        print(f"  stats digest per input variant (seed: digest): "
              + ", ".join(f"{s}: {d}" for s, d in zip(by_seed, digests)))
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in metrics.items()}

    # ------------------------------------------------------------- traced

    def micro_rates(self):
        pattern = "^(" + "|".join(MICRO) + ")$"
        out, _ = self.timed("simcore_micro", [
            str(self.micro), f"--benchmark_filter={pattern}",
            "--benchmark_min_time=0.1", "--benchmark_format=json"])
        rates = {}
        for b in json.loads(out)["benchmarks"]:
            if b["name"] in MICRO:
                rates[MICRO[b["name"]]] = 1e9 / b["items_per_second"]
        missing = set(MICRO.values()) - set(rates)
        if missing:
            raise SystemExit(f"error: simcore_micro lacks {missing}")
        return rates

    def ledger(self):
        w = self.args.workload
        scale, nproc = self.shape["scale"], NPROC
        OUT.mkdir(exist_ok=True)
        trace_path, record_times = self.record_trace()
        validate_times = [self.timed("uvmsim_trace validate", [
            str(self.trace_tool), "validate", f"--in={trace_path}"])[1]
            for _ in range(5)]
        replay_flag = [f"--replay={trace_path}"] if w == "replay" else []
        cpp_spans = OUT / f"{w}-seed{self.args.seed}-cells.json"

        rounds = []
        for r in range(TRACED_ROUNDS):
            a = self.run_pass(w, scale, ["--jobs=1"] + replay_flag,
                              f"round {r} serial")
            b = self.run_pass(w, scale, [f"--jobs={nproc}"] + replay_flag,
                              f"round {r} jobs={nproc}")
            c = self.run_pass(w, scale, ["--trace", f"--out={cpp_spans}"]
                              + replay_flag, f"round {r} traced")
            d = self.run_pass(w, scale, ["--jobs=1", "--oversubscription=0"]
                              + replay_flag, f"round {r} 0% twins")
            rp = a if w == "replay" else self.run_pass(
                "replay", self.replay_scale,
                ["--jobs=1", f"--replay={trace_path}"], f"round {r} replay")
            if None in (a, b, c, d, rp):
                continue
            rounds.append({"a": a, "b": b, "c": c, "d": d, "replay": rp})
        if not rounds:
            raise SystemExit("error: every traced round failed")
        digest = self.same_digest([x[k] for x in rounds
                                   for k in ("a", "b", "c")], w)
        self.same_digest([x["d"] for x in rounds], f"{w} 0% twins")
        self.same_digest([x["replay"] for x in rounds], "replay")

        def med(f):
            return statistics.median(f(x) for x in rounds)

        def total(p, key):
            return sum(c[key] for c in p["cells"])

        def self_ns(p):
            return total(p, "run_ns") - total(p, "gen_ns")

        def replay_ratio(p):
            cells = p["cells"]
            return (sum(c["host_ns"] for c in cells[0::2]) /
                    sum(c["host_ns"] for c in cells[1::2]))

        s = rounds[0]["c"]["sums"]
        accesses = s["sm.accesses_issued"]
        l1 = s["sm.l1.hits"] + s["sm.l1.misses"]
        l2 = s["l2.hits"] + s["l2.misses"]
        tlb = s["sm.tlb.hits"] + s["sm.tlb.misses"]
        migrated = s["gmmu.pages_migrated"]
        mshr = s["mshr.primary_faults"] + s["mshr.merged_faults"]
        size_mib = trace_path.stat().st_size / 2**20

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "workloads.gen_s": (med(lambda x: total(x["c"], "gen_ns") / 1e9),
                                "s"),
            "workloads.gen_share": (med(lambda x: total(x["c"], "gen_ns") /
                                        total(x["c"], "run_ns")), "ratio"),
            "workloads.warp_ops": (total(rounds[0]["c"], "warp_ops"),
                                   "count"),
            "workloads.decode_mib_per_s": (
                size_mib / statistics.median(validate_times), "MiB/s"),
            "workloads.replay_overhead": (
                med(lambda x: replay_ratio(x["replay"])), "ratio"),
            "workloads.record_s": (statistics.median(record_times), "s"),
            "api.run_self_s": (med(lambda x: self_ns(x["c"]) / 1e9), "s"),
            "api.host_ns_per_access": (med(lambda x: self_ns(x["c"]) /
                                           accesses), "ns"),
            "api.executor.parallel_efficiency": (med(lambda x: total(
                x["b"], "host_ns") / (nproc * x["b"]["wall_ns"])), "ratio"),
            "api.executor.scaling": (med(lambda x: x["a"]["wall_ns"] /
                                         x["b"]["wall_ns"]), "ratio"),
            "gpu.warp_accesses": (accesses, "count"),
            "gpu.l1.probes_per_access": (ratio(l1, accesses), "ratio"),
            "gpu.l1.hit_ratio": (ratio(s["sm.l1.hits"], l1), "ratio"),
            "gpu.l2.probes_per_access": (ratio(l2, accesses), "ratio"),
            "gpu.l2.hit_ratio": (ratio(s["l2.hits"], l2), "ratio"),
            "gpu.dram.accesses": (s["dram.accesses"], "count"),
            "mem.tlb.miss_ratio": (ratio(s["sm.tlb.misses"], tlb), "ratio"),
            "mem.page_walks_per_access": (
                ratio(s["gmmu.page_walks"], accesses), "ratio"),
            "mem.walk_queue_delay_ns": (ratio(
                s["gmmu.walk_queue_delay_total_ns"], s["gmmu.page_walks"]),
                "ns"),
            "mem.mshr.merge_ratio": (ratio(s["mshr.merged_faults"], mshr),
                                     "ratio"),
            "core.host_us_per_migration": (med(lambda x: (
                total(x["a"], "host_ns") - total(x["d"], "host_ns")) / 1e3 /
                total(x["a"], "pages_migrated")), "us"),
            "core.far_faults_per_kaccess": (
                ratio(1e3 * s["gmmu.far_faults"], accesses), "ratio"),
            "core.pages_migrated": (migrated, "count"),
            "core.pages_evicted": (s["gmmu.pages_evicted"], "count"),
            "core.thrash_ratio": (ratio(s["gmmu.pages_thrashed"], migrated),
                                  "ratio"),
            "core.prefetch_share": (ratio(s["gmmu.pages_prefetched"],
                                          migrated), "ratio"),
            "core.skipped_services": (s["gmmu.skipped_services"], "count"),
            "interconnect.h2d_bytes": (s["pcie.h2d.bytes"], "B"),
            "interconnect.d2h_bytes": (s["pcie.d2h.bytes"], "B"),
            "interconnect.h2d_gbps": (ratio(s["pcie.h2d.bytes"] / 1e9,
                                            s["pcie.h2d.busy_s"]), "GB/s"),
            "model.kernel_ms": (s["gpu.kernel_time_us"] / 1e3, "ms"),
            "trace.overhead": (med(lambda x: total(x["c"], "host_ns") /
                                   total(x["c"], "untraced_ns") - 1),
                               "ratio"),
        }
        for name, value in self.micro_rates().items():
            metrics[name] = (value, "ns")

        print(f"traced workload {w}  seed {self.args.seed}  scale {scale}  "
              f"{len(rounds)} rounds x (serial, jobs={nproc}, traced, 0% "
              f"twins{'' if w == 'replay' else ', replay'})")
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name:<34} {value:>16.6g} {unit}")
        print(f"  stats digest {digest} (serial = jobs={nproc} = traced)")
        print(f"  failed_frac {self.failed / max(1, self.attempted):.4f} "
              f"({self.failed} of {self.attempted} cells)")
        self.write_spans(cpp_spans)
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def write_spans(self, cpp_spans):
        """Merge the last traced pass's cell spans with the process spans
        recorded here into one Chrome trace_event file."""
        events = list(self.spans)
        if cpp_spans.exists():
            events += json.loads(cpp_spans.read_text())["traceEvents"]
        path = OUT / f"{self.args.workload}-seed{self.args.seed}-trace.json"
        path.write_text(json.dumps({"traceEvents": events}) + "\n")
        print(f"  spans: {path.relative_to(ROOT)} ({len(events)} events)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's problem scale "
                             "(self-test only; metrics are not comparable)")
    parser.add_argument("--mutate", default="",
                        help="add 1 to this statistic in every cell before "
                             "the checks (self-test of failed_frac)")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")

    bench = Bench(args)
    bench.build()
    metrics = bench.ledger() if args.trace else bench.end_to_end()
    for note in bench.notes[:20]:
        print(f"  FAILED {note}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
