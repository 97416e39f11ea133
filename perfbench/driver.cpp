// Paper-suite benchmark driver: one pass of one workload, in this process
// and on one host thread. Prints one JSON line holding the pass's host
// costs, its per-layer timers and counters, and the virtual result of every
// cell. perfbench/run.py runs one process per pass, checks the cells against
// reference.json and folds the passes into the benchmark's metrics (see
// perfbench/README.md).
//
//   perfbench_driver --workload pingpong|openatom_ib|openatom_ib_sharded|
//                               matmul_bgp
//                    [--sizes 1234,56789]  extra pingpong sizes (bytes)
//                    [--traced 1]          enable the trace ring
//                    [--tiny 1]            small inputs (the self-test)
//
// Every layer is measured from outside: the driver times its own calls
// into public functions and reads public counters after each call.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/matmul/matmul.hpp"
#include "apps/openatom/openatom.hpp"
#include "charm/runtime.hpp"
#include "ckdirect/ckdirect.hpp"
#include "ckdirect/manager_ib.hpp"
#include "dcmf/dcmf.hpp"
#include "harness/machines.hpp"
#include "harness/pingpong.hpp"
#include "harness/profile.hpp"
#include "ib/verbs.hpp"
#include "mpi/mpi_costs.hpp"
#include "pgas/pgas.hpp"
#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/pool.hpp"
#include "util/require.hpp"

using namespace ckd;

namespace {

// ---- host cost of an interval ----------------------------------------------

struct HostCost {
  double wall = 0.0;    ///< steady-clock seconds
  double cpu = 0.0;     ///< user + sys seconds of every thread
  double sys = 0.0;     ///< sys seconds
  double minflt = 0.0;  ///< minor page faults

  HostCost& operator+=(const HostCost& o) {
    wall += o.wall;
    cpu += o.cpu;
    sys += o.sys;
    minflt += o.minflt;
    return *this;
  }
  HostCost operator-(const HostCost& o) const {
    return {wall - o.wall, cpu - o.cpu, sys - o.sys, minflt - o.minflt};
  }
};

HostCost hostNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  return {wall, secs(ru.ru_utime) + secs(ru.ru_stime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

template <class F>
HostCost timed(F&& fn) {
  const HostCost start = hostNow();
  fn();
  return hostNow() - start;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- one pass ----------------------------------------------------------------

using Counts = std::map<std::string, double>;

/// Host cost and observations of one pass. Set-up is constructor time;
/// `excluded` (the driver's own trace analysis and the seed-drawn pingpong
/// probes) stays out of every metric.
struct Pass {
  HostCost setup;
  HostCost excluded;
  Counts timers;  ///< per-layer host seconds
  Counts counts;  ///< per-layer counters (deterministic)
  util::JsonValue cells = util::JsonValue::object();

  // Count-weighted causal latency splits of the traced pass.
  double putChains = 0.0, msgChains = 0.0;
  sim::LayerBreakdown putSum, msgSum;

  void addPool(const util::BufferPool::Stats& before) {
    const util::BufferPool::Stats after = util::BufferPool::processStats();
    counts["util.pool_hits"] += static_cast<double>(after.hits - before.hits);
    counts["util.pool_misses"] +=
        static_cast<double>(after.misses - before.misses);
  }

  void addCausal(const sim::LatencySummary& put, const sim::LatencySummary& msg) {
    const auto fold = [](double& n, sim::LayerBreakdown& sum,
                         const sim::LatencySummary& s) {
      const double c = static_cast<double>(s.count);
      n += c;
      sum.queue_us += c * s.mean.queue_us;
      sum.wire_us += c * s.mean.wire_us;
      sum.poll_us += c * s.mean.poll_us;
      sum.handler_us += c * s.mean.handler_us;
    };
    fold(putChains, putSum, put);
    fold(msgChains, msgSum, msg);
  }
};

/// Σ of the scanned poll-queue lengths: every sentinel a scan read.
double sentinelsScanned(const std::vector<sim::TraceEvent>& events) {
  double sum = 0.0;
  for (const sim::TraceEvent& e : events)
    if (e.tag == sim::TraceTag::kDirectPollScan) sum += e.value;
  return sum;
}

/// Always-on per-engine metrics: virtual time per layer, and the CkDirect
/// sentinels a poll scan found set (callbacks detected by polling).
void addEngineCounts(Counts& counts, const sim::TraceRecorder& trace) {
  for (std::size_t i = 0; i < sim::kLayerCount; ++i) {
    const auto layer = static_cast<sim::Layer>(i);
    counts["sim.layer_us." + std::string(sim::layerName(layer))] +=
        trace.layerTime(layer);
  }
  counts["ckdirect.sentinel_hits"] +=
      static_cast<double>(trace.count(sim::TraceTag::kDirectSentinelHit));
}

util::JsonValue toJson(const Counts& m) {
  util::JsonValue obj = util::JsonValue::object();
  for (const auto& [k, v] : m) obj.set(k, util::JsonValue(v));
  return obj;
}

util::JsonValue errorCell(const std::string& what) {
  util::JsonValue cell = util::JsonValue::object();
  cell.set("error", util::JsonValue(what));
  return cell;
}

std::vector<std::string> splitList(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

// ---- pingpong ------------------------------------------------------------------

using PingFn = std::function<double(const charm::MachineConfig&,
                                    const harness::PingpongConfig&)>;

struct PingDriver {
  const char* name;
  const char* family;  ///< per-layer host timer: charm | ckdirect | mpi | pgas
  bool bgp;
  PingFn run;
};

/// Every pingpong driver of harness/pingpong.hpp: Tables 1-2's variants on
/// the machine the paper measured each on, plus the RDMA-channel MPI and
/// PGAS designs on Abe.
std::vector<PingDriver> pingDrivers() {
  const mpi::MpiCosts vmi = mpi::mpichVmiCosts();
  const mpi::MpiCosts mvapich = mpi::mvapichCosts();
  const mpi::MpiCosts ibm = mpi::ibmBgpCosts();
  const pgas::PgasCosts dart = pgas::dartIbCosts();
  const auto mpiOf = [](auto fn, mpi::MpiCosts flavor) -> PingFn {
    return [fn, flavor](const charm::MachineConfig& m,
                        const harness::PingpongConfig& c) {
      return fn(m, flavor, c);
    };
  };
  return {
      {"charm", "charm", false, harness::charmPingpongRtt},
      {"ckdirect", "ckdirect", false, harness::ckdirectPingpongRtt},
      {"mpich_vmi", "mpi", false, mpiOf(harness::mpiPingpongRtt, vmi)},
      {"mvapich", "mpi", false, mpiOf(harness::mpiPingpongRtt, mvapich)},
      {"mvapich_put", "mpi", false, mpiOf(harness::mpiPutPingpongRtt, mvapich)},
      {"mpi_rdma", "mpi", false, mpiOf(harness::mpiRdmaPingpongRtt, mvapich)},
      {"pgas", "pgas", false,
       [dart](const charm::MachineConfig& m, const harness::PingpongConfig& c) {
         return harness::pgasPingpongRtt(m, dart, c);
       }},
      {"charm", "charm", true, harness::charmPingpongRtt},
      {"ckdirect", "ckdirect", true, harness::ckdirectPingpongRtt},
      {"ibm", "mpi", true, mpiOf(harness::mpiPingpongRtt, ibm)},
      {"ibm_put", "mpi", true, mpiOf(harness::mpiPutPingpongRtt, ibm)},
  };
}

/// The paper's ten sizes; every seed measures exactly these cells.
const std::vector<std::size_t> kPaperSizes = {
    100, 1000, 5000, 10000, 20000, 30000, 40000, 70000, 100000, 500000};

void addPingCounts(const harness::ProfileReport& report, bool traced,
                   Pass& pass) {
  Counts& c = pass.counts;
  c["charm.pumps"] += report.pumpsPerPe.sum();
  c["charm.messages"] += report.messagesPerPe.sum();
  c["ckdirect.puts"] += static_cast<double>(report.ckdirectPuts);
  c["ckdirect.callbacks"] += static_cast<double>(report.ckdirectCallbacks);
  const auto tag = [&report](sim::TraceTag t) {
    return static_cast<double>(report.tagCounts[static_cast<std::size_t>(t)]);
  };
  c["ckdirect.poll_scans"] += tag(sim::TraceTag::kDirectPollScan);
  c["ckdirect.sentinel_hits"] += tag(sim::TraceTag::kDirectSentinelHit);
  c["net.fabric_bytes"] += static_cast<double>(report.fabricBytes);
  c["net.fabric_messages"] += static_cast<double>(report.fabricMessages);
  for (std::size_t i = 0; i < sim::kLayerCount; ++i)
    c["sim.layer_us." + std::string(sim::layerName(static_cast<sim::Layer>(i)))] +=
        report.layerTime_us[i];
  if (traced) {
    c["trace.events"] += static_cast<double>(report.traceRecorded);
    c["trace.dropped"] += static_cast<double>(report.traceDropped);
    c["ckdirect.sentinels_scanned"] += sentinelsScanned(report.traceEvents);
    pass.addCausal(report.putLatency, report.msgLatency);
  }
}

void runPingpong(const util::Args& args, bool tiny, bool traced, Pass& pass) {
  std::vector<std::size_t> drawn;
  for (const std::string& s : splitList(args.get("sizes", "")))
    drawn.push_back(static_cast<std::size_t>(std::stoull(s)));
  // Closed loop, one message in flight; the paper's tables use 1000 trips.
  const int iterations = tiny ? 20 : 1000;
  const charm::MachineConfig ib = harness::abeMachine(2, 1);
  const charm::MachineConfig bgp = harness::surveyorMachine(2, 1);
  const std::vector<PingDriver> drivers = pingDrivers();

  // Set-up: every driver builds its world inside the call, so a
  // one-iteration call per cell stands for the cell's set-up cost.
  for (const PingDriver& d : drivers)
    for (const std::size_t bytes : kPaperSizes) {
      harness::PingpongConfig cfg;
      cfg.bytes = bytes;
      cfg.iterations = 1;
      pass.setup += timed([&] { d.run(d.bgp ? bgp : ib, cfg); });
    }

  // Measured: the paper cells. Then the seed-drawn sizes, whose results are
  // checked but whose cost stays out of every metric, so that host time
  // compares across seeds.
  const util::BufferPool::Stats pool0 = util::BufferPool::processStats();
  for (const bool measured : {true, false}) {
    if (!measured) pass.addPool(pool0);
    for (const PingDriver& d : drivers) {
      const std::string machine = d.bgp ? "bgp" : "ib";
      for (const std::size_t bytes : measured ? kPaperSizes : drawn) {
        const std::string cellName =
            machine + "/" + d.name + "/" + std::to_string(bytes);
        harness::ProfileReport report;
        harness::PingpongConfig cfg;
        cfg.bytes = bytes;
        cfg.iterations = iterations;
        cfg.trace = traced;
        cfg.profile = &report;
        double rtt = 0.0;
        const std::uint64_t events0 = sim::Engine::processExecutedEvents();
        HostCost cost;
        try {
          cost = timed([&] { rtt = d.run(d.bgp ? bgp : ib, cfg); });
        } catch (const std::exception& e) {
          pass.cells.set(cellName, errorCell(e.what()));
          continue;
        }
        if (measured) {
          pass.timers[std::string(d.family) + ".host_s." + machine] += cost.wall;
          pass.counts["sim.events"] += static_cast<double>(
              sim::Engine::processExecutedEvents() - events0);
          addPingCounts(report, traced, pass);
        } else {
          pass.excluded += cost;
        }
        util::JsonValue result = util::JsonValue::object();
        result.set("rtt_us", util::JsonValue(rtt));
        util::JsonValue cell = util::JsonValue::object();
        cell.set("result", std::move(result));
        pass.cells.set(cellName, std::move(cell));
      }
    }
  }
}

// ---- applications ----------------------------------------------------------------

/// Runs a built application and reports its virtual result.
using Launch = std::function<util::JsonValue()>;

struct AppRun {
  std::string name;  ///< the cell's name: msg-full, ckd, ...
  charm::MachineConfig machine;
  /// Constructs the application on `rts`; the returned closure owns it.
  std::function<Launch(charm::Runtime&)> build;
};

util::JsonValue appResult(double avgUs, double totalUs, std::uint64_t msgs) {
  util::JsonValue r = util::JsonValue::object();
  r.set("avg_us", util::JsonValue(avgUs));
  r.set("total_us", util::JsonValue(totalUs));
  r.set("messages", util::JsonValue(msgs));
  return r;
}

/// Fig. 4's 64-PE cell: Abe with 2 PEs per node, 1024 states x 16 planes,
/// stateBlocks 2 (65,536 CkDirect channels), one step, ReadyMark/PollQ.
std::vector<AppRun> openatomRuns(bool tiny, int shards) {
  const int pes = tiny ? 16 : 64;
  charm::MachineConfig machine = harness::abeMachine(pes, 2);
  machine.shards = shards;
  machine.shardThreads = shards > 0 ? 1 : 0;
  std::vector<AppRun> runs;
  for (const bool ckd : {false, true})
    for (const bool pcOnly : {false, true}) {
      apps::openatom::Config cfg;
      cfg.nstates = tiny ? 64 : 1024;
      cfg.nplanes = tiny ? 4 : 16;
      cfg.points = 900;
      cfg.stateBlocks = 2;
      cfg.steps = 1;
      cfg.mode = ckd ? apps::openatom::Mode::kCkDirect
                     : apps::openatom::Mode::kMessages;
      cfg.ready = apps::openatom::ReadyStrategy::kMarkDeferPoll;
      cfg.pc_only = pcOnly;
      cfg.real_compute = false;
      cfg.phase1_us_per_point = cfg.phase4_us_per_point = 0.22;
      cfg.compute_per_flop_us = 0.28e-3 / 2.0;
      cfg.copy_per_byte_us = machine.netParams.self_per_byte_us;
      runs.push_back({std::string(ckd ? "ckd" : "msg") + (pcOnly ? "-pc" : "-full"),
                      machine, [cfg](charm::Runtime& rts) -> Launch {
                        auto app = std::make_shared<apps::openatom::OpenAtomApp>(
                            rts, cfg);
                        return [app] {
                          const auto r = app->execute();
                          return appResult(r.avg_step_us, r.total_us,
                                           r.messages_sent);
                        };
                      }});
    }
  return runs;
}

/// Fig. 3's 1024-PE Blue Gene/P cell: 2048^3, three iterations, msg + ckd.
std::vector<AppRun> matmulRuns(bool tiny) {
  const int pes = tiny ? 64 : 1024;
  const charm::MachineConfig machine = harness::surveyorMachine(pes, 4);
  std::vector<AppRun> runs;
  for (const bool ckd : {false, true}) {
    apps::matmul::Config cfg;
    cfg.m = cfg.n = cfg.k = tiny ? 256 : 2048;
    apps::matmul::chooseGrid(pes, cfg.cx, cfg.cy, cfg.cz);
    cfg.iterations = tiny ? 1 : 3;
    cfg.mode = ckd ? apps::matmul::Mode::kCkDirect : apps::matmul::Mode::kMessages;
    cfg.real_compute = false;
    cfg.compute_per_flop_us = 0.74e-3;
    cfg.copy_per_byte_us = machine.netParams.self_per_byte_us * 4.0;
    runs.push_back({ckd ? "ckd" : "msg", machine,
                    [cfg](charm::Runtime& rts) -> Launch {
                      auto app =
                          std::make_shared<apps::matmul::MatmulApp>(rts, cfg);
                      return [app] {
                        const auto r = app->execute();
                        return appResult(r.avg_iteration_us, r.total_us,
                                         r.messages_sent);
                      };
                    }});
  }
  return runs;
}

/// Per-layer counters of a finished runtime, merged across engines. The
/// cell's own `counts` pin the model counts the sharded guard compares.
void addRuntimeCounts(charm::Runtime& rts, Counts& c, Counts& cell) {
  cell["events"] = static_cast<double>(rts.executedEvents());
  for (int pe = 0; pe < rts.numPes(); ++pe) {
    c["charm.pumps"] += static_cast<double>(rts.scheduler(pe).pumps());
    c["charm.messages"] +=
        static_cast<double>(rts.scheduler(pe).messagesProcessed());
  }
  cell["puts"] = cell["callbacks"] = cell["poll_scans"] = 0.0;
  // peek, not of(): observing must not create the manager.
  if (const direct::Manager* mgr = direct::Manager::peek(rts)) {
    cell["puts"] = static_cast<double>(mgr->putsIssued());
    cell["callbacks"] = static_cast<double>(mgr->callbacksInvoked());
    if (const auto* ibm = dynamic_cast<const direct::IbManager*>(mgr))
      cell["poll_scans"] = static_cast<double>(ibm->pollScans());
  }
  c["sim.events"] += cell["events"];
  c["ckdirect.puts"] += cell["puts"];
  c["ckdirect.callbacks"] += cell["callbacks"];
  c["ckdirect.poll_scans"] += cell["poll_scans"];
  c["net.fabric_bytes"] += static_cast<double>(rts.fabric().bytesSubmitted());
  c["net.fabric_messages"] +=
      static_cast<double>(rts.fabric().messagesSubmitted());
  if (rts.layer() == charm::LayerKind::kInfiniband)
    c["ib.rdma_writes"] += static_cast<double>(rts.ibVerbs().rdmaWritesPosted());
  else
    c["dcmf.sends"] += static_cast<double>(rts.dcmf().sendsPosted());
  if (sim::ParallelEngine* par = rts.parallelEngine()) {
    c["sim.windows"] += static_cast<double>(par->windows());
    const sim::ParallelEngine::RingStats rings = par->ringStats();
    c["sim.ring_pushes"] += static_cast<double>(rings.pushes);
    c["sim.ring_overflow"] += static_cast<double>(rings.overflow);
    // The coordinator engine alone sees none of the shards' events.
    addEngineCounts(c, par->serialEngine().trace());
    for (int s = 0; s < par->shards(); ++s)
      addEngineCounts(c, par->shardEngine(s).trace());
  } else {
    addEngineCounts(c, rts.engine().trace());
  }
}

/// Trace ring capacity for a traced app run, with room to spare: a ckd-full
/// OpenAtom run records about 1.3M events, and a dropped event would skew
/// the splits.
constexpr std::size_t kAppTraceCapacity = std::size_t{1} << 22;

void runApp(AppRun& run, bool traced, Pass& pass) {
  const util::BufferPool::Stats pool0 = util::BufferPool::processStats();
  std::unique_ptr<charm::Runtime> rts;
  Launch launch;
  HostCost cost = timed([&] { rts = std::make_unique<charm::Runtime>(run.machine); });
  pass.timers["charm.setup_s"] += cost.wall;
  pass.setup += cost;
  if (traced) rts->enableTracing(kAppTraceCapacity);
  cost = timed([&] { launch = run.build(*rts); });
  pass.timers["apps.setup_s." + run.name] += cost.wall;
  pass.setup += cost;

  util::JsonValue result;
  pass.timers["apps.run_s." + run.name] += timed([&] { result = launch(); }).wall;

  util::JsonValue cell = util::JsonValue::object();
  pass.excluded += timed([&] {
    Counts cellCounts;
    addRuntimeCounts(*rts, pass.counts, cellCounts);
    pass.addPool(pool0);
    // The sharded guard: the engine must really be the one asked for.
    const int shards = run.machine.shards;
    const sim::ParallelEngine* par = rts->parallelEngine();
    if (shards > 0 &&
        (par == nullptr || par->shards() != shards || par->windows() == 0)) {
      cell = errorCell("sharded engine not engaged: expected " +
                       std::to_string(shards) + " shards and windows > 0");
      return;
    }
    if (traced) {
      const sim::TraceRecorder& trace = rts->engine().trace();
      pass.counts["trace.events"] += static_cast<double>(trace.recorded());
      pass.counts["trace.dropped"] += static_cast<double>(trace.dropped());
      const std::vector<sim::TraceEvent> events = rts->traceEvents();
      pass.counts["ckdirect.sentinels_scanned"] += sentinelsScanned(events);
      const sim::CausalGraph graph(events);
      pass.addCausal(graph.putLatency(), graph.messageLatency());
    }
    cell.set("result", std::move(result));
    cell.set("counts", toJson(cellCounts));
  });
  // Teardown is part of what a run costs its user: measured, not set-up.
  launch = nullptr;
  rts.reset();
  pass.cells.set(run.name, std::move(cell));
}

/// Runs in the figure binaries' order: what one run leaves in the
/// allocator and the pool moves the next run's host time by up to 15%.
void runApps(std::vector<AppRun> runs, bool traced, Pass& pass) {
  for (AppRun& run : runs) {
    try {
      runApp(run, traced, pass);
    } catch (const std::exception& e) {
      pass.cells.set(run.name, errorCell(e.what()));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string workload = args.get("workload", "");
  const bool tiny = args.getInt("tiny", 0) != 0;
  const bool traced = args.getInt("traced", 0) != 0;
  // Trace metrics read one engine; the sharded workload carries none.
  CKD_REQUIRE(!(traced && workload == "openatom_ib_sharded"),
              "the sharded workload has no traced pass");

  Pass pass;
  const HostCost total = timed([&] {
    if (workload == "pingpong")
      runPingpong(args, tiny, traced, pass);
    else if (workload == "openatom_ib")
      runApps(openatomRuns(tiny, 0), traced, pass);
    else if (workload == "openatom_ib_sharded")
      runApps(openatomRuns(tiny, 4), traced, pass);
    else if (workload == "matmul_bgp")
      runApps(matmulRuns(tiny), traced, pass);
    else
      CKD_REQUIRE(false,
                  "--workload must be pingpong, openatom_ib, "
                  "openatom_ib_sharded or matmul_bgp");
  });
  const HostCost measured = total - pass.setup - pass.excluded;

  Counts& c = pass.counts;
  if (pass.putChains > 0) {
    c["causal.put.queue_us"] = pass.putSum.queue_us / pass.putChains;
    c["causal.put.wire_us"] = pass.putSum.wire_us / pass.putChains;
    c["causal.put.poll_us"] = pass.putSum.poll_us / pass.putChains;
    c["causal.put.handler_us"] = pass.putSum.handler_us / pass.putChains;
  }
  if (pass.msgChains > 0) {
    c["causal.msg.queue_us"] = pass.msgSum.queue_us / pass.msgChains;
    c["causal.msg.wire_us"] = pass.msgSum.wire_us / pass.msgChains;
    c["causal.msg.handler_us"] = pass.msgSum.handler_us / pass.msgChains;
  }

  util::JsonValue doc = util::JsonValue::object();
  doc.set("workload", util::JsonValue(workload));
  doc.set("traced", util::JsonValue(traced));
  doc.set("wall_s", util::JsonValue(measured.wall));
  doc.set("cpu_s", util::JsonValue(measured.cpu));
  doc.set("sys_s", util::JsonValue(measured.sys));
  doc.set("minor_faults", util::JsonValue(measured.minflt));
  doc.set("setup_s", util::JsonValue(pass.setup.wall));
  doc.set("peak_rss_mb", util::JsonValue(peakRssMb()));
  doc.set("timers", toJson(pass.timers));
  doc.set("counts", toJson(pass.counts));
  doc.set("cells", std::move(pass.cells));
  std::cout << doc.dump() << "\n";
  return 0;
}
