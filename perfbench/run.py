#!/usr/bin/env python3
"""Paper-suite benchmark: one workload, one host thread, checked outputs.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 30 --trace 0

Builds the simulator libraries and perfbench_driver from source (see
CMakeLists.txt), makes the workload's inputs from --seed, runs one driver
process per pass until --seconds are used up (at least three passes), checks
every cell against reference.json and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1, which adds one traced pass. README.md maps every metric to its
layer and explains the checks. --tiny runs small inputs (the self-test);
--record rewrites reference.json from the current program.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Metric names and units come from the benchmark's own declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("pingpong", "openatom_ib", "matmul_bgp", "openatom_ib_sharded")
APP_RUNS = {
    "openatom_ib": ["msg-full", "ckd-full", "msg-pc", "ckd-pc"],
    "openatom_ib_sharded": ["msg-full", "ckd-full", "msg-pc", "ckd-pc"],
    "matmul_bgp": ["msg", "ckd"],
}
# The sharded workload must reproduce the serial cells bit for bit.
REFERENCE_OF = {"openatom_ib_sharded": "openatom_ib"}
PAPER_SIZES = [100, 1000, 5000, 10000, 20000, 30000, 40000, 70000, 100000, 500000]
EXTRA_SIZES = 4   # seed-drawn pingpong sizes, one per log-spaced stratum
MIN_PASSES = 3
# Every pass, the traced one included, ends this long after the build.
RUN_LIMIT_S = 170

# Tables 1 (Abe) and 2 (Surveyor) of the paper, RTT in us per PAPER_SIZES.
PAPER_RTT_US = {
    "ib/charm": [22.924, 25.110, 47.340, 66.176, 96.215, 160.470, 191.343,
                 271.803, 353.305, 1399.145],
    "ib/ckdirect": [12.383, 16.108, 29.330, 43.136, 68.927, 93.422, 120.954,
                    195.248, 275.322, 1294.358],
    "ib/mpich_vmi": [12.367, 19.669, 37.318, 60.892, 102.684, 127.591,
                     201.148, 322.687, 332.690, 1396.942],
    "ib/mvapich": [12.302, 19.436, 37.311, 56.249, 88.659, 119.452, 144.973,
                   236.545, 315.692, 1386.051],
    "ib/mvapich_put": [16.801, 22.821, 51.750, 64.202, 94.250, 120.218,
                       146.028, 232.021, 308.942, 1369.516],
    "bgp/charm": [14.467, 20.822, 44.822, 72.976, 128.166, 186.771, 240.306,
                  400.226, 560.634, 2693.601],
    "bgp/ckdirect": [5.133, 11.379, 33.112, 60.675, 115.103, 169.552,
                     223.599, 383.732, 543.491, 2677.072],
    "bgp/ibm": [7.606, 13.936, 39.903, 66.661, 120.548, 173.041, 226.739,
                386.712, 546.740, 2680.459],
    "bgp/ibm_put": [14.049, 17.836, 39.963, 67.972, 122.693, 178.571,
                    232.629, 392.388, 552.708, 2685.972],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not target.resolve().is_relative_to(ROOT):
        target = ROOT / ".bench_build"
    out = target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = []
    if not (out / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                 "-j", jobs])
    # The compiler's scratch files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out / "perfbench_driver"


def make_inputs(workload, seed):
    """Driver arguments drawn from the seed: extra pingpong sizes,
    log-uniform over 100 B .. 500 KB and stratified (one per quarter of the
    log range) so that every run has sizes on both sides of the IB
    eager/rendezvous cut-over. The app workloads are the paper's fixed
    cells, which the seed leaves unchanged."""
    if workload != "pingpong":
        return [], []
    rng = random.Random(seed)
    lo, hi = math.log(100), math.log(500_000)
    sizes = []
    for k in range(EXTRA_SIZES):
        a = lo + (hi - lo) * k / EXTRA_SIZES
        size = round(math.exp(rng.uniform(a, a + (hi - lo) / EXTRA_SIZES)))
        while size in PAPER_SIZES or size in sizes:
            size += 1
        sizes.append(size)
    return sizes, ["--sizes", ",".join(map(str, sizes))]


def run_pass(driver, workload, args, tiny, traced, deadline):
    cmd = [str(driver), "--workload", workload, *args]
    if tiny:
        cmd += ["--tiny", "1"]
    if traced:
        cmd += ["--traced", "1"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload} pass timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_cells(workload, reference, extra_sizes):
    if workload != "pingpong":
        return list(APP_RUNS[workload])
    drivers = sorted({name.rsplit("/", 1)[0] for name in reference})
    return list(reference) + [f"{d}/{s}" for d in drivers for s in extra_sizes]


def cell_ok(name, cell, ref, cells, first):
    """A cell fails if it errored, differs from its reference (fixed cells)
    or from the first pass (drawn cells), or, for a drawn pingpong size, if
    CkDirect is not faster than default Charm++ at that size."""
    if cell is None or "error" in cell:
        return False
    if name in ref:
        want = ref[name]
        if cell["result"] != want["result"]:
            return False
        return "counts" not in want or cell.get("counts") == want["counts"]
    if first is not None and first.get(name, {}).get("result") != cell["result"]:
        return False
    machine, driver, size = name.split("/")
    if driver == "ckdirect":
        charm = cells.get(f"{machine}/charm/{size}", {}).get("result")
        return charm is not None and cell["result"]["rtt_us"] < charm["rtt_us"]
    return True


def check(workload, passes, ref, extra_sizes):
    """Counts cell runs attempted and failed over every pass; a pass that
    crashed (None) fails all its cells."""
    names = expected_cells(workload, ref, extra_sizes)
    first = passes[0]["cells"] if passes[0] else None
    attempted = failed = 0
    for p in passes:
        cells = p["cells"] if p else {}
        for name in names:
            attempted += 1
            if not cell_ok(name, cells.get(name), ref, cells, first):
                failed += 1
                log(f"{workload}: cell {name} failed: {cells.get(name)}")
    return attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(passes):
    """The pass with the least wall time. Other tenants of a shared host
    only ever add time, in bursts of seconds to minutes; the fastest pass
    is the least disturbed reading of what the code costs."""
    return min(passes, key=lambda p: p["wall_s"])


def end_to_end(passes):
    best = fastest(passes)
    return {"wall_s": best["wall_s"], "cpu_s": best["cpu_s"],
            "setup_s": median([p["setup_s"] for p in passes]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes])}


HOST_TIMERS = [f"{family}.host_s.{machine}"
               for family in ("charm", "ckdirect", "mpi") for machine in ("ib", "bgp")
               ] + ["pgas.host_s.ib"]
COUNTS = ["sim.events", "sim.windows", "sim.ring_pushes", "sim.ring_overflow",
          "charm.pumps", "ckdirect.puts", "ckdirect.callbacks",
          "ckdirect.poll_scans", "net.fabric_bytes", "net.fabric_messages",
          "ib.rdma_writes", "dcmf.sends", "util.pool_misses"] + [
          f"sim.layer_us.{layer}"
          for layer in ("scheduler", "transport", "fabric", "ckdirect", "app")]
TRACED_COUNTS = ["trace.events", "trace.dropped", "ckdirect.sentinels_scanned",
                 "causal.put.queue_us", "causal.put.wire_us",
                 "causal.put.poll_us", "causal.put.handler_us",
                 "causal.msg.queue_us", "causal.msg.wire_us",
                 "causal.msg.handler_us"]


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, passes, traced):
    """Per-layer metrics: host timers of the measured work come from the
    fastest untraced pass, like wall_s; set-up timers are medians over the
    passes, like setup_s. Counters come from the first pass (every pass has
    the same), trace splits from the traced pass. A layer a workload does
    not run reads 0."""
    counts = passes[0]["counts"]
    count = lambda k: counts.get(k, 0.0)
    best = fastest(passes)
    wall = best["wall_s"]
    m = {k: best["timers"].get(k, 0.0) for k in HOST_TIMERS}
    setup = lambda k: median([p["timers"].get(k, 0.0) for p in passes])
    m["charm.setup_s"] = setup("charm.setup_s")
    for r in sorted({r for runs in APP_RUNS.values() for r in runs}):
        m[f"apps.setup_s.{r}"] = setup(f"apps.setup_s.{r}")
        m[f"apps.run_s.{r}"] = best["timers"].get(f"apps.run_s.{r}", 0.0)
    m.update({k: count(k) for k in COUNTS})
    tcounts = traced["counts"] if traced else {}
    m.update({k: tcounts.get(k, 0.0) for k in TRACED_COUNTS})

    m["sim.ns_per_event"] = ratio(wall * 1e9, count("sim.events"))
    m["sim.events_per_window"] = ratio(count("sim.events"), count("sim.windows"))
    m["charm.pump_yield"] = ratio(count("charm.messages"), count("charm.pumps"))
    m["ckdirect.hit_frac"] = ratio(count("ckdirect.sentinel_hits"),
                                   m["ckdirect.sentinels_scanned"])
    runs = APP_RUNS.get(workload, [])
    m["ckdirect.excess_s"] = sum(
        ((1 if r.startswith("ckd") else -1) * m[f"apps.run_s.{r}"] for r in runs), 0.0)
    hits = count("util.pool_hits")
    m["util.pool_hit_frac"] = ratio(hits, hits + count("util.pool_misses"))
    m["mem.minor_faults"] = best["minor_faults"]
    m["mem.sys_s"] = best["sys_s"]
    # One traced pass against the typical untraced one: host noise of a few
    # percent can exceed the ring's cost, so small readings may go negative.
    m["trace.overhead_frac"] = (
        traced["wall_s"] / median([p["wall_s"] for p in passes]) - 1.0
        if traced else 0.0)
    m["paper_err_pct"] = 0.0
    if workload == "pingpong":
        cells = passes[0]["cells"]
        m["paper_err_pct"] = 100.0 * max(
            abs(cells[f"{key}/{size}"]["result"]["rtt_us"] / paper - 1.0)
            for key, row in PAPER_RTT_US.items()
            for size, paper in zip(PAPER_SIZES, row))
    return m


def with_units(values, kind):
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in SPEC[kind]}


def record(driver):
    """Rewrite reference.json with the current program's fixed cells."""
    reference = {}
    for size in ("full", "tiny"):
        reference[size] = {}
        for workload in ("pingpong", "openatom_ib", "matmul_bgp"):
            p = run_pass(driver, workload, [], size == "tiny", False,
                         time.monotonic() + RUN_LIMIT_S)
            if p is None or any("error" in c for c in p["cells"].values()):
                log(f"cannot record {workload} ({size})")
                sys.exit(1)
            reference[size][workload] = p["cells"]
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    opts = ap.parse_args()
    if not opts.record and opts.workload is None:
        ap.error("--workload is required")

    driver = build()
    if opts.record:
        record(driver)
        return
    size = "tiny" if opts.tiny else "full"
    ref = json.loads((HERE / "reference.json").read_text())[size][
        REFERENCE_OF.get(opts.workload, opts.workload)]
    extra_sizes, args = make_inputs(opts.workload, opts.seed)

    passes, start = [], time.monotonic()
    deadline = start + RUN_LIMIT_S
    while True:
        passes.append(run_pass(driver, opts.workload, args, opts.tiny, False,
                               deadline))
        elapsed = time.monotonic() - start
        # Stop before a further pass would overrun the measuring time.
        if (len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > opts.seconds
                or time.monotonic() >= deadline):
            break
    # One extra traced pass; the sharded engine is not traced (serial
    # workloads carry the trace metrics).
    traced = []
    if opts.trace and opts.workload != "openatom_ib_sharded":
        traced = [run_pass(driver, opts.workload, args, opts.tiny, True,
                           deadline)]
    attempted, failed = check(opts.workload, passes + traced, ref, extra_sizes)

    good = [p for p in passes if p]
    consistent = all(p["counts"] == good[0]["counts"] for p in good)
    if not consistent:
        log("per-layer counts differ between identical passes")
    metrics = {}
    if good and opts.trace:
        metrics = with_units(per_layer(opts.workload, good, traced and traced[0]),
                             "per_layer")
    elif good:
        metrics = with_units(end_to_end(good), "end_to_end")
    print(json.dumps({"correct": failed == 0 and consistent and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
