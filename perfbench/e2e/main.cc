// End-to-end TPC-W benchmark of the mtdb cluster: closed-loop clients drive
// TPC-W interactions through the public ClusterController/Connection API on
// one in-process cluster, with the per-layer budget measured from outside in
// a separate traced run. See perfbench/README.md.
//
//   perfbench_tpcw --workload browse|order|longtail --seed N --seconds S
//                  --trace 0|1 --wal-dir DIR
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Lines before it are a human-readable report. Exits 1 when the
// correctness gate fails, 2 on bad arguments or a failed set-up.

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "e2e/gate.h"
#include "e2e/stats.h"
#include "e2e/timed_transport.h"
#include "e2e/tpcw_client.h"
#include "e2e/tracer.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/random.h"
#include "src/net/inproc_transport.h"
#include "src/obs/metrics.h"
#include "src/workload/tpcw.h"

namespace perfbench {
namespace {

using mtdb::workload::Interaction;
using mtdb::workload::TpcwMix;

constexpr int kMachines = 4;
constexpr int kReplicas = 2;
constexpr int kClients = 3;
// The whole process (clients, strands, WAL flushers) runs on this many
// CPUs. Every RPC hands off between threads; spread over all the vCPUs of a
// shared host, each hand-off may wait for the host to wake a halted vCPU,
// and throughput then follows the host's load more than the program's.
constexpr int kCpus = 2;
constexpr double kWarmupSeconds = 1.0;
// The measured window is cut into this many equal segments.
constexpr int kSegments = 100;
constexpr int kNumInteractions = 10;

// The RPC types every workload issues inside client transactions; the
// per-type net/machine metrics are reported for these.
constexpr std::array kRpcTypes = {
    mtdb::net::RpcType::kBegin, mtdb::net::RpcType::kExecutePrepared,
    mtdb::net::RpcType::kCommit, mtdb::net::RpcType::kPrepare,
    mtdb::net::RpcType::kCommitPrepared};

struct WorkloadSpec {
  const char* name;
  TpcwMix mix;
  int tenants;
  // A new Connect (and statement-set Prepare) per transaction instead of
  // one persistent session per client.
  bool connect_per_txn;
  // Zipf skew of tenant popularity within each client's partition.
  double zipf_theta;
  // Set-ups per untraced run; setup_s is their median.
  int setups;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"browse", TpcwMix::kBrowsing, kClients, false, 0, 9},
    {"order", TpcwMix::kOrdering, kClients, false, 0, 9},
    {"longtail", TpcwMix::kShopping, 256, true, 0.99, 5},
};

mtdb::workload::TpcwScale Scale() {
  mtdb::workload::TpcwScale scale;
  scale.items = 200;
  scale.customers = 200;
  scale.initial_orders = 50;
  return scale;
}

const char* InteractionName(Interaction interaction) {
  static const char* const kNames[kNumInteractions] = {
      "Home",          "NewProducts",     "BestSellers", "ProductDetail",
      "SearchBySubject", "SearchByTitle", "ShoppingCartAdd", "BuyConfirm",
      "OrderInquiry",  "AdminUpdate"};
  return kNames[static_cast<int>(interaction)];
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string wal_dir;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) args.workload = &spec;
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--wal-dir") {
      args.wal_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload == nullptr || !have_seed ||
      args.seconds <= 0 || args.wal_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

// ---------------------------------------------------------------------------
// Cluster set-up

// Members are destroyed in reverse order: the controller (and with it every
// machine, engine and WAL) goes before the transports it calls through.
struct Cluster {
  std::unique_ptr<mtdb::net::InProcTransport> inner;
  std::unique_ptr<TimedTransport> timed;
  std::vector<std::string> wal_paths;
  std::vector<std::string> tenants;
  std::unique_ptr<mtdb::ClusterController> controller;
};

// Every tenant gets the same TPC-W population for a given tenant index,
// whatever the run's seed: the seed varies the request streams, not the
// database, so runs with different seeds measure the same system.
mtdb::Result<std::unique_ptr<Cluster>> BuildCluster(const WorkloadSpec& spec,
                                                    Tracer* tracer,
                                                    const std::string& dir) {
  auto cluster = std::make_unique<Cluster>();
  cluster->inner = std::make_unique<mtdb::net::InProcTransport>();
  cluster->timed = std::make_unique<TimedTransport>(cluster->inner.get(),
                                                    tracer);
  mtdb::ClusterControllerOptions options;
  options.read_option = mtdb::ReadRoutingOption::kPerDatabase;
  options.write_policy = mtdb::WriteAckPolicy::kConservative;
  options.default_replicas = kReplicas;
  options.transport = cluster->timed.get();
  cluster->controller = std::make_unique<mtdb::ClusterController>(options);

  std::filesystem::create_directories(dir);
  for (int m = 0; m < kMachines; ++m) {
    mtdb::MachineOptions machine;
    machine.base_op_latency_us = 0;
    machine.engine_options.buffer_pool_pages = 0;
    machine.engine_options.cache_miss_penalty_us = 0;
    machine.engine_options.wal_path =
        dir + "/machine" + std::to_string(m) + ".wal";
    machine.engine_options.wal_sync_policy = mtdb::wal::SyncPolicy::kGroup;
    machine.engine_options.wal_sync_delay_us = 0;
    std::filesystem::remove(machine.engine_options.wal_path);
    cluster->wal_paths.push_back(machine.engine_options.wal_path);
    cluster->controller->AddMachine(machine);
  }

  for (int t = 0; t < spec.tenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "t%03d", t);
    cluster->tenants.emplace_back(name);
    mtdb::workload::TpcwScale scale = Scale();
    scale.seed = 1'000'003 + static_cast<uint64_t>(t);
    mtdb::ClusterController* c = cluster->controller.get();
    MTDB_RETURN_IF_ERROR(c->CreateDatabase(name, kReplicas));
    MTDB_RETURN_IF_ERROR(mtdb::workload::CreateTpcwSchema(c, name));
    MTDB_RETURN_IF_ERROR(mtdb::workload::LoadTpcwData(c, name, scale));
  }
  return cluster;
}

// ---------------------------------------------------------------------------
// Registry counters (read from outside; the program already keeps them)

struct Counters {
  std::map<std::string, double> values;

  static Counters Read() {
    static const char* const kCounters[] = {
        "mtdb_wal_appends_total",       "mtdb_wal_syncs_total",
        "mtdb_plan_cache_hit_total",    "mtdb_plan_cache_miss_total",
        "mtdb_sql_parse_total",         "mtdb_catalog_reloads_total",
        "mtdb_prepared_evicted",        "mtdb_qos_throttled_total",
        "mtdb_deadlock_total",          "mtdb_lock_timeout_total",
        "mtdb_rpc_request_bytes_total", "mtdb_rpc_response_bytes_total"};
    static const char* const kHistograms[] = {"mtdb_wal_flush_latency_us",
                                              "mtdb_qos_queue_wait_us",
                                              "mtdb_lock_wait_us"};
    auto& registry = mtdb::obs::MetricsRegistry::Global();
    Counters out;
    for (const char* name : kCounters) {
      out.values[name] = static_cast<double>(registry.SumCounter(name));
    }
    for (const char* name : kHistograms) {
      out.values[std::string(name) + ".count"] = 0;
      out.values[std::string(name) + ".sum"] = 0;
    }
    for (const auto& series : registry.Snapshot()) {
      if (series.kind != mtdb::obs::SeriesSnapshot::Kind::kHistogram) continue;
      for (const char* name : kHistograms) {
        if (series.name != name) continue;
        const auto count = static_cast<double>(series.histogram.count);
        out.values[series.name + ".count"] += count;
        out.values[series.name + ".sum"] += count * series.histogram.mean;
      }
    }
    return out;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    for (const auto& [name, value] : after.values) {
      values[name] += value - before.values.at(name);
    }
  }
  double operator[](const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
};

// ---------------------------------------------------------------------------
// The closed loop

// The measured window is cut into equal segments. Segment -1 is warm-up;
// segments [0, segments) are measured; `segments` means stop. In a traced
// run the odd segments are traced.
struct Control {
  std::atomic<int> segment{-1};
  int segments = 1;
  bool trace = false;
  bool Traced(int s) const { return trace && s % 2 == 1; }
};

// What one client saw complete in one segment.
struct SegmentTally {
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t failed = 0;
  // Latency of committed interactions (ns); untraced segments only.
  std::vector<int64_t> all_ns, read_ns, write_ns;
};

struct ClientResult {
  std::vector<SegmentTally> tally;
  // Attempts/failures per interaction, and failures per status code, over
  // the measured segments. Wrong results count over the whole run.
  std::array<int64_t, kNumInteractions> attempts{};
  std::array<int64_t, kNumInteractions> failures{};
  std::map<std::string, int64_t> failures_by_code;
  int64_t wrong_results = 0;
  mtdb::Status fatal;
};

class ClientThread {
 public:
  ClientThread(const WorkloadSpec& spec, Cluster* cluster,
               std::vector<Tenant>* tenants, Tracer* tracer, int slot,
               uint64_t seed, Control* control, ClientResult* result)
      : spec_(spec),
        tenants_(tenants),
        tracer_(tracer),
        slot_(slot),
        control_(control),
        result_(result),
        client_(cluster->controller.get(), tracer, slot, Scale(), seed) {
    for (size_t t = static_cast<size_t>(slot); t < tenants->size();
         t += kClients) {
      owned_.push_back(t);
    }
    if (spec.zipf_theta > 0) {
      zipf_.emplace(owned_.size(), spec.zipf_theta, seed ^ 0x5A5A5A5A5A5AULL);
    }
    result_->tally.resize(static_cast<size_t>(control->segments));
  }

  // Opens the persistent session (browse/order); nothing on longtail.
  void Open() {
    if (spec_.connect_per_txn) return;
    Tracer::BindThread(slot_);
    conn_ = client_.Connect((*tenants_)[owned_[0]].db);
    auto stmts = client_.Prepare(conn_.get());
    if (stmts.ok()) {
      stmts_ = *stmts;
    } else {
      result_->fatal = stmts.status();
    }
    Tracer::BindThread(-1);
  }

  void Close() {
    if (conn_ == nullptr) return;
    Tracer::BindThread(slot_);
    client_.Disconnect(std::move(conn_));
    Tracer::BindThread(-1);
  }

  void Loop() {
    Tracer::BindThread(slot_);
    while (result_->fatal.ok()) {
      if (control_->segment.load(std::memory_order_acquire) >=
          control_->segments) {
        break;
      }
      RunOne();
    }
    Tracer::BindThread(-1);
  }

 private:
  void RunOne() {
    Tenant& tenant = (*tenants_)[owned_[zipf_ ? zipf_->Next() : 0]];
    const Interaction interaction =
        mtdb::workload::DrawInteraction(spec_.mix, client_.rng());
    const bool traced_at_start = tracer_->enabled();
    const int64_t start_ns = NowNs();
    Outcome outcome;
    if (spec_.connect_per_txn) {
      std::unique_ptr<mtdb::Connection> conn = client_.Connect(tenant.db);
      auto stmts = client_.Prepare(conn.get());
      if (stmts.ok()) {
        outcome = client_.Run(conn.get(), *stmts, &tenant, interaction);
      } else {
        outcome.status = stmts.status();
      }
      client_.Disconnect(std::move(conn));
    } else {
      outcome = client_.Run(conn_.get(), stmts_, &tenant, interaction);
    }
    const int64_t end_ns = NowNs();
    if (traced_at_start && tracer_->enabled()) {
      tracer_->RecordTxn(slot_, {start_ns, end_ns, outcome.txn_id});
    }

    if (outcome.wrong_result) ++result_->wrong_results;
    const int segment = control_->segment.load(std::memory_order_acquire);
    if (segment < 0 || segment >= control_->segments) return;
    SegmentTally& tally = result_->tally[static_cast<size_t>(segment)];
    const auto index = static_cast<size_t>(interaction);
    ++tally.attempted;
    ++result_->attempts[index];
    if (!outcome.status.ok()) {
      ++tally.failed;
      ++result_->failures[index];
      ++result_->failures_by_code[std::string(
          mtdb::StatusCodeName(outcome.status.code()))];
      return;
    }
    ++tally.committed;
    if (control_->Traced(segment)) return;  // no latency samples
    const int64_t ns = end_ns - start_ns;
    tally.all_ns.push_back(ns);
    (outcome.write ? tally.write_ns : tally.read_ns).push_back(ns);
  }

  const WorkloadSpec& spec_;
  std::vector<Tenant>* tenants_;
  Tracer* tracer_;
  int slot_;
  Control* control_;
  ClientResult* result_;
  TpcwClient client_;
  std::vector<size_t> owned_;
  std::optional<mtdb::ZipfianGenerator> zipf_;
  std::unique_ptr<mtdb::Connection> conn_;
  mtdb::workload::TpcwStatements stmts_;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintMetricLines(const char* section, const std::vector<Metric>& metrics) {
  std::printf("[%s]\n", section);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Restricts the calling thread, and every thread it starts afterwards, to
// the first `n` CPUs it may run on.
void PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

// Host-wide CPU time from /proc/stat, in clock ticks: {steal, all}. Steal
// is time the hypervisor ran something else while a vCPU wanted to run.
std::array<double, 2> HostCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::array<double, 2> out{};
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(stat >> ticks)) break;
    out[1] += ticks;
    if (field == 7) out[0] = ticks;
  }
  return out;
}

// Quantile q in [0, 1] of `values`, interpolated as Percentile does.
double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double MedianOf(std::vector<double> values) {
  return QuantileOf(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics from the spans of the traced segments and the registry
// deltas over them.
std::vector<Metric> LayerMetrics(const std::vector<Tracer::ClientSpans>& spans,
                                 const Counters& delta, int64_t committed,
                                 double tps_untraced, double tps_traced) {
  std::array<double, kNumCallKinds> call_ns{};
  std::array<int64_t, kNumCallKinds> call_n{};
  std::map<mtdb::net::RpcType, std::array<double, 3>> rpc;  // rtt, server, n
  int64_t txns = 0, rpcs_in_txns = 0, remints_in_txns = 0;
  double txn_ns = 0, covered_ns = 0, self_ns = 0;

  for (const Tracer::ClientSpans& client : spans) {
    for (const CallSpan& c : client.calls) {
      const auto k = static_cast<size_t>(c.kind);
      call_ns[k] += static_cast<double>(c.end_ns - c.start_ns);
      ++call_n[k];
    }
    std::vector<RpcSpan> rpcs = client.rpcs;
    std::sort(rpcs.begin(), rpcs.end(), [](const RpcSpan& a, const RpcSpan& b) {
      return a.start_ns < b.start_ns;
    });
    for (const RpcSpan& r : rpcs) {
      auto& acc = rpc[r.type];
      acc[0] += static_cast<double>(r.end_ns - r.start_ns);
      acc[1] += static_cast<double>(std::max<int64_t>(r.server_us, 0)) * 1e3;
      acc[2] += 1;
    }
    // Calls and transactions are recorded in time order by one thread; walk
    // them together. A call's children are the RPCs that start inside it.
    // A transaction's RPCs are those carrying its txn_id, plus the control
    // RPCs (txn_id 0, e.g. a PrepareStatement re-mint) its calls issued.
    size_t ci = 0, ri = 0;
    for (const TxnSpan& txn : client.txns) {
      ++txns;
      txn_ns += static_cast<double>(txn.end_ns - txn.start_ns);
      while (ci < client.calls.size() &&
             client.calls[ci].start_ns < txn.start_ns) {
        ++ci;
      }
      while (ri < rpcs.size() && rpcs[ri].start_ns < txn.start_ns) ++ri;
      std::vector<Interval> calls_in_txn;
      for (; ci < client.calls.size() &&
             client.calls[ci].end_ns <= txn.end_ns;
           ++ci) {
        const CallSpan& c = client.calls[ci];
        calls_in_txn.push_back({c.start_ns, c.end_ns});
        std::vector<Interval> children;
        for (; ri < rpcs.size() && rpcs[ri].start_ns <= c.end_ns; ++ri) {
          if (rpcs[ri].start_ns < c.start_ns) continue;
          children.push_back({rpcs[ri].start_ns, rpcs[ri].end_ns});
          if (rpcs[ri].txn_id != txn.txn_id && rpcs[ri].txn_id != 0) continue;
          ++rpcs_in_txns;
          if (rpcs[ri].type == mtdb::net::RpcType::kPrepareStatement) {
            ++remints_in_txns;
          }
        }
        self_ns += static_cast<double>(
            SelfTime({c.start_ns, c.end_ns}, children));
      }
      covered_ns += static_cast<double>(
          UnionLength(calls_in_txn, {txn.start_ns, txn.end_ns}));
    }
  }

  std::vector<Metric> out;
  auto call_mean_us = [&](CallKind kind) {
    const auto k = static_cast<size_t>(kind);
    return Ratio(call_ns[k], static_cast<double>(call_n[k])) / 1e3;
  };
  const auto per_txn = static_cast<double>(txns);
  out.push_back({"cluster.connect_us", call_mean_us(CallKind::kConnect), "us"});
  out.push_back(
      {"cluster.disconnect_us", call_mean_us(CallKind::kDisconnect), "us"});
  out.push_back({"cluster.prepare_us", call_mean_us(CallKind::kPrepare), "us"});
  out.push_back({"cluster.begin_us", call_mean_us(CallKind::kBegin), "us"});
  out.push_back({"cluster.execute_us", call_mean_us(CallKind::kExecute), "us"});
  out.push_back({"cluster.commit_us", call_mean_us(CallKind::kCommit), "us"});
  out.push_back(
      {"cluster.self_us_per_txn", Ratio(self_ns, per_txn) / 1e3, "us/txn"});
  out.push_back({"cluster.rpcs_per_txn",
                 Ratio(static_cast<double>(rpcs_in_txns), per_txn),
                 "count/txn"});
  out.push_back({"cluster.remints_per_txn",
                 Ratio(static_cast<double>(remints_in_txns), per_txn),
                 "count/txn"});
  for (mtdb::net::RpcType type : kRpcTypes) {
    const auto& acc = rpc[type];
    const std::string name(mtdb::net::RpcTypeName(type));
    const double rtt = Ratio(acc[0], acc[2]) / 1e3;
    const double server = Ratio(acc[1], acc[2]) / 1e3;
    out.push_back({"net.rtt_us." + name, rtt, "us"});
    out.push_back({"net.hop_us." + name, rtt - server, "us"});
    out.push_back({"machine.server_us." + name, server, "us"});
  }
  const auto committed_d = static_cast<double>(committed);
  out.push_back({"net.request_bytes_per_txn",
                 Ratio(delta["mtdb_rpc_request_bytes_total"], committed_d),
                 "B/txn"});
  out.push_back({"net.response_bytes_per_txn",
                 Ratio(delta["mtdb_rpc_response_bytes_total"], committed_d),
                 "B/txn"});
  out.push_back({"wal.appends_per_txn",
                 Ratio(delta["mtdb_wal_appends_total"], committed_d),
                 "count/txn"});
  out.push_back({"wal.records_per_sync",
                 Ratio(delta["mtdb_wal_appends_total"],
                       delta["mtdb_wal_syncs_total"]),
                 "count/sync"});
  out.push_back({"wal.flush_us",
                 Ratio(delta["mtdb_wal_flush_latency_us.sum"],
                       delta["mtdb_wal_flush_latency_us.count"]),
                 "us"});
  const double hits = delta["mtdb_plan_cache_hit_total"];
  out.push_back({"sql.plan_cache_hit_ratio",
                 Ratio(hits, hits + delta["mtdb_plan_cache_miss_total"]),
                 "ratio"});
  out.push_back({"sql.parses_per_txn",
                 Ratio(delta["mtdb_sql_parse_total"], committed_d),
                 "count/txn"});
  out.push_back(
      {"catalog.reloads", delta["mtdb_catalog_reloads_total"], "count"});
  out.push_back(
      {"catalog.prepared_evicted", delta["mtdb_prepared_evicted"], "count"});
  out.push_back({"qos.queue_wait_us",
                 Ratio(delta["mtdb_qos_queue_wait_us.sum"],
                       delta["mtdb_qos_queue_wait_us.count"]),
                 "us"});
  out.push_back({"qos.throttled", delta["mtdb_qos_throttled_total"], "count"});
  out.push_back({"storage.lock_wait_us_per_txn",
                 Ratio(delta["mtdb_lock_wait_us.sum"], committed_d),
                 "us/txn"});
  out.push_back({"storage.deadlocks", delta["mtdb_deadlock_total"], "count"});
  out.push_back(
      {"storage.lock_timeouts", delta["mtdb_lock_timeout_total"], "count"});
  out.push_back({"obs.trace_overhead",
                 tps_untraced > 0 ? 1.0 - tps_traced / tps_untraced : 0,
                 "ratio"});
  out.push_back(
      {"obs.trace_coverage", Ratio(covered_ns, txn_ns), "ratio"});
  return out;
}

int Main(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  PinToCpus(kCpus);
  Tracer tracer(kClients);

  // Set-up: build the cluster several times and report the median; the
  // last one serves the run.
  std::vector<double> setup_seconds;
  std::unique_ptr<Cluster> cluster;
  const int setups = args.trace ? 1 : spec.setups;
  for (int i = 0; i < setups; ++i) {
    cluster.reset();
    std::filesystem::remove_all(args.wal_dir);
    const int64_t start_ns = NowNs();
    auto built = BuildCluster(spec, &tracer, args.wal_dir);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      std::filesystem::remove_all(args.wal_dir);
      return 2;
    }
    cluster = std::move(*built);
    setup_seconds.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
  }

  std::vector<Tenant> tenants;
  mtdb::Random offsets(args.seed ^ 0x0DDBA11ULL);
  for (const std::string& db : cluster->tenants) {
    tenants.push_back({.db = db, .order_offset = offsets.Next()});
  }

  Control control;
  control.segments = kSegments;
  control.trace = args.trace;
  std::vector<ClientResult> results(kClients);
  std::vector<std::unique_ptr<ClientThread>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientThread>(
        spec, cluster.get(), &tenants, &tracer, c,
        args.seed * 7919 + static_cast<uint64_t>(c) + 1, &control,
        &results[static_cast<size_t>(c)]));
  }

  // Sessions open (and later close) outside the measured window; in a
  // traced run their Connect/Prepare/~Connection calls are still timed.
  tracer.SetEnabled(args.trace);
  for (auto& client : clients) client->Open();
  tracer.SetEnabled(false);

  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&client] { client->Loop(); });
  }
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(kWarmupSeconds);
  const std::array<double, 2> host_before = HostCpuTicks();
  const double segment_s = args.seconds / control.segments;
  std::vector<double> segment_elapsed;
  Counters traced_delta;
  for (int s = 0; s < control.segments; ++s) {
    const bool traced = control.Traced(s);
    tracer.SetEnabled(traced);
    const Counters before = traced ? Counters::Read() : Counters{};
    const int64_t start_ns = NowNs();
    control.segment.store(s, std::memory_order_release);
    sleep_s(segment_s);
    if (traced) traced_delta.AddDelta(before, Counters::Read());
    segment_elapsed.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
  }
  tracer.SetEnabled(false);
  const std::array<double, 2> host_after = HostCpuTicks();
  control.segment.store(control.segments, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  tracer.SetEnabled(args.trace);
  for (auto& client : clients) client->Close();
  tracer.SetEnabled(false);
  const std::vector<Tracer::ClientSpans> spans = tracer.Take();

  // Aggregate the clients, segment by segment.
  ClientResult total;
  total.tally.resize(static_cast<size_t>(control.segments));
  for (ClientResult& r : results) {
    if (!r.fatal.ok()) {
      std::fprintf(stderr, "client failed: %s\n", r.fatal.ToString().c_str());
      return 2;
    }
    for (size_t s = 0; s < r.tally.size(); ++s) {
      SegmentTally& to = total.tally[s];
      SegmentTally& from = r.tally[s];
      to.attempted += from.attempted;
      to.committed += from.committed;
      to.failed += from.failed;
      to.all_ns.insert(to.all_ns.end(), from.all_ns.begin(), from.all_ns.end());
      to.read_ns.insert(to.read_ns.end(), from.read_ns.begin(),
                        from.read_ns.end());
      to.write_ns.insert(to.write_ns.end(), from.write_ns.begin(),
                         from.write_ns.end());
    }
    for (int i = 0; i < kNumInteractions; ++i) {
      total.attempts[i] += r.attempts[i];
      total.failures[i] += r.failures[i];
    }
    for (const auto& [code, n] : r.failures_by_code) {
      total.failures_by_code[code] += n;
    }
    total.wrong_results += r.wrong_results;
  }
  int64_t attempted = 0, failed = 0;
  double elapsed[2] = {0, 0};     // untraced, traced
  int64_t committed[2] = {0, 0};  // untraced, traced
  std::vector<double> segment_tps;  // untraced segments
  for (int s = 0; s < control.segments; ++s) {
    const SegmentTally& tally = total.tally[static_cast<size_t>(s)];
    const int traced = control.Traced(s) ? 1 : 0;
    attempted += tally.attempted;
    failed += tally.failed;
    committed[traced] += tally.committed;
    elapsed[traced] += segment_elapsed[static_cast<size_t>(s)];
    if (traced == 0) {
      segment_tps.push_back(static_cast<double>(tally.committed) /
                            segment_elapsed[static_cast<size_t>(s)]);
    }
  }
  const double tps[2] = {
      Ratio(static_cast<double>(committed[0]), elapsed[0]),
      Ratio(static_cast<double>(committed[1]), elapsed[1])};

  // Correctness gate, outside the timed window.
  const int64_t gate_start_ns = NowNs();
  GateReport gate =
      RunGate(cluster->controller.get(), cluster->tenants, cluster->wal_paths);
  for (const Tenant& tenant : tenants) {
    const int64_t want = Scale().initial_orders + tenant.buys_committed;
    for (const char* table : {"orders", "cc_xacts"}) {
      const auto got =
          static_cast<int64_t>(gate.row_counts[tenant.db][table]);
      if (got != want) {
        gate.mismatches.push_back(tenant.db + "." + table + " holds " +
                                  std::to_string(got) + " rows, expected " +
                                  std::to_string(want) +
                                  " (loaded + committed BuyConfirm)");
      }
    }
  }
  const double gate_s = static_cast<double>(NowNs() - gate_start_ns) / 1e9;
  const bool correct = gate.ok() && total.wrong_results == 0;

  cluster.reset();
  std::filesystem::remove_all(args.wal_dir);

  // Report.
  std::printf("workload %s seed %" PRIu64 " seconds %.1f trace %d: "
              "%d machines, %d replicas, %d clients, %zu tenants\n",
              spec.name, args.seed, args.seconds, args.trace ? 1 : 0,
              kMachines, kReplicas, kClients, tenants.size());
  std::printf("attempted %" PRId64 " failed %" PRId64
              " failed_ratio %.6f wrong_results %" PRId64 "\n",
              attempted, failed,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              total.wrong_results);
  for (int i = 0; i < kNumInteractions; ++i) {
    if (total.attempts[i] == 0) continue;
    std::printf("  %-16s attempted %8" PRId64 " failed %" PRId64 "\n",
                InteractionName(static_cast<Interaction>(i)), total.attempts[i],
                total.failures[i]);
  }
  for (const auto& [code, n] : total.failures_by_code) {
    std::printf("  failures %-16s %" PRId64 "\n", code.c_str(), n);
  }
  std::printf("gate %s: %" PRId64 " dumps compared in %.2f s\n",
              gate.ok() ? "passed" : "FAILED", gate.dumps_compared, gate_s);
  for (const std::string& m : gate.mismatches) {
    std::printf("  mismatch: %s\n", m.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    auto us = [](std::vector<int64_t>& ns, double p) {
      return Percentile(ns, p) / 1e3;
    };
    // Percentiles come from every untraced sample of the run, pooled.
    std::vector<int64_t> all_ns, read_ns, write_ns;
    for (int s = 0; s < control.segments; ++s) {
      if (control.Traced(s)) continue;
      const SegmentTally& t = total.tally[static_cast<size_t>(s)];
      all_ns.insert(all_ns.end(), t.all_ns.begin(), t.all_ns.end());
      read_ns.insert(read_ns.end(), t.read_ns.begin(), t.read_ns.end());
      write_ns.insert(write_ns.end(), t.write_ns.begin(), t.write_ns.end());
    }
    std::printf("samples: all %zu read %zu write %zu\n", all_ns.size(),
                read_ns.size(), write_ns.size());
    std::printf("host steal %.1f%% of all CPU time in the window\n",
                100 * Ratio(host_after[0] - host_before[0],
                            host_after[1] - host_before[1]));
    std::printf("segment txn/s: min %.0f p25 %.0f median %.0f p75 %.0f "
                "max %.0f\n",
                QuantileOf(segment_tps, 0), QuantileOf(segment_tps, 0.25),
                QuantileOf(segment_tps, 0.5), QuantileOf(segment_tps, 0.75),
                QuantileOf(segment_tps, 1));
    metrics = {
        // The upper quartile of the segments (200 ms each in a 20 s run):
        // the host's noise only ever slows a segment down, so the faster
        // segments track the program and move less with the host than an
        // average would.
        {"txn_per_s", QuantileOf(segment_tps, 0.75), "1/s"},
        {"txn_p50_us", us(all_ns, 50), "us"},
        {"read_txn_p50_us", us(read_ns, 50), "us"},
        {"write_txn_p50_us", us(write_ns, 50), "us"},
        {"commit_ratio",
         Ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "ratio"},
        {"setup_s", MedianOf(setup_seconds), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    PrintMetricLines("end_to_end", metrics);
    // Printed, but not in the result line: on a shared host the tails
    // follow the host's scheduling more than the program, run to run.
    PrintMetricLines(
        "report_only",
        {{"txn_p90_us", us(all_ns, 90), "us"},
         {"txn_p99_us", us(all_ns, 99), "us"},
         {"read_txn_p90_us", us(read_ns, 90), "us"},
         {"read_txn_p99_us", us(read_ns, 99), "us"},
         {"write_txn_p90_us", us(write_ns, 90), "us"},
         {"write_txn_p99_us", us(write_ns, 99), "us"}});
  } else {
    std::printf("traced segments: %" PRId64 " committed, %.1f txn/s "
                "(untraced segments %.1f txn/s)\n",
                committed[1], tps[1], tps[0]);
    metrics = LayerMetrics(spans, traced_delta, committed[1], tps[0], tps[1]);
    PrintMetricLines("per_layer", metrics);
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload browse|order|longtail --seed N "
                 "--seconds S --trace 0|1 --wal-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Main(*args);
}
