// End-to-end benchmark for BG3: three seeded closed-loop workloads
// (follow, risk_ttl, rw_ro_sync) against the public GraphDB and Bg3Cluster
// APIs. perfbench/README.md documents the workloads, metrics and method.
//
//   bg3_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <result.json>
//
// --trace 0 measures the end-to-end metrics with the engine's timing
// instrumentation off. --trace 1 alternates untimed and timed sub-windows
// and reports per-layer metrics computed only from outside the engine: the
// benchmark's own spans around each public call it makes, plus window deltas
// of counters and `bg3.<layer>.*_ns` histograms the engine already exports.
// Exit status: 0 ok, 1 a correctness check failed (the result file is still
// written), 2 bad arguments.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/latency_model.h"
#include "common/clock.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/graph_db.h"
#include "graph/traversal.h"
#include "replication/cluster.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

namespace {

using bg3::MetricsRegistry;
using bg3::NowMicros;
using bg3::NowNanos;
using bg3::Result;
using bg3::Slice;
using bg3::Status;
namespace core = bg3::core;
namespace graph = bg3::graph;

// Three closed-loop clients leave one of the host's four cores to the
// engine's background threads (GC). rw_ro_sync runs on one CPU instead
// (RwRoSyncWorkload::cpus).
constexpr int kClients = 3;
// Each run builds, loads and warms this many independent instances, each
// with its own inputs, and measures seconds / kInstances on each. A timed
// run reports the median over instances of every end-to-end metric (with
// two, their mean), which averages out the inputs and page layout one load
// happens to produce. Two long windows average more of the shared host's
// slow stretches into each run than more, shorter ones would, for the same
// set-up time.
constexpr int kInstances = 2;
// Sub-windows of a traced run per instance: even ones untimed, odd ones
// timed.
constexpr int kTraceWindows = 4;
constexpr graph::EdgeType kEdgeType = 1;
constexpr size_t kPropertyBytes = 16;
// User payload of one edge: src id + dst id + properties.
constexpr uint64_t kEdgeUserBytes = 8 + 8 + kPropertyBytes;
constexpr size_t kNoLimit = size_t{1} << 30;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return bg3::Mix64(seed * 0x9E3779B97F4A7C15ull + stream + 1);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Confines this thread, and every thread it starts from now on, to the
/// last `n` CPUs it may run on (the first takes most of the guest's
/// interrupts). Returns them as a list ("3"), or "all" when `n` is 0 or not
/// fewer than the CPUs allowed.
std::string PinToCpus(int n) {
  cpu_set_t allowed;
  if (n <= 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) <= n) {
    return "all";
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1, left = n; cpu >= 0 && left > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
    --left;
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "all";
  return list;
}

/// CPU time in clock ticks, summed over all CPUs: the first line of
/// /proc/stat and this process's utime + stime. Two kinds of time are not
/// caused by this process and mark a run whose timings were stretched by
/// other load: `steal`, when a virtual CPU was ready to run but the
/// hypervisor ran another guest, and CPU time of other processes.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t busy = 0;  ///< user + nice + system + irq + softirq
  uint64_t steal = 0;
  uint64_t self = 0;

  void Add(const CpuTicks& from, const CpuTicks& to) {
    total += to.total - from.total;
    busy += to.busy - from.busy;
    steal += to.steal - from.steal;
    self += to.self - from.self;
  }
  /// Share of all CPU time taken by other guests or other processes.
  double ContendedFrac() const {
    const double other = busy > self ? static_cast<double>(busy - self) : 0;
    return Ratio(static_cast<double>(steal) + other,
                 static_cast<double>(total));
  }
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  uint64_t v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) {
      t.steal = v;
    } else if (i != 3 && i != 4) {
      t.busy += v;
    }
  }
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const size_t paren = line.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream rest(line.substr(paren + 2));
    std::string field;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f >= 14) t.self += std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  return t;
}

/// Above this share of CPU time taken by other guests or processes during
/// the measured windows, a result is flagged `host_contended`: its timings
/// are not comparable with other runs'.
constexpr double kContendedFrac = 0.05;

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// --- closed-loop clients -----------------------------------------------------

struct OpResult {
  bool write = false;
  bool ok = true;           ///< false: the call returned a non-OK status.
  uint64_t user_bytes = 0;  ///< user bytes acknowledged by a write.
};

/// One client's counts for one measured window.
struct WindowCounts {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  uint64_t span_ns = 0;  ///< sum of the spans around each public call.
  std::vector<uint32_t> read_ns;
  std::vector<uint32_t> write_ns;

  void Merge(const WindowCounts& o) {
    ops += o.ops;
    failed += o.failed;
    user_bytes += o.user_bytes;
    span_ns += o.span_ns;
    read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
    write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
  }
};

class Client {
 public:
  virtual ~Client() = default;
  /// Issues one public call and returns once it has been answered.
  virtual OpResult Step() = 0;

  /// The first few failed calls, for the result's `op_failures`.
  std::vector<std::string> errors;

 protected:
  bool Note(const Status& s, const char* call) {
    if (!s.ok() && errors.size() < 5) {
      errors.push_back(call + (": " + s.ToString()));
    }
    return s.ok();
  }
};

/// Runs one thread per client, each a closed loop, from Start() to Stop().
/// The main thread opens and closes numbered windows; an op counts in the
/// window that was open when it started. Ops started while no window was
/// open (warm-up, between windows) are only counted and checked for failure.
class ClientPool {
 public:
  ClientPool(std::vector<std::unique_ptr<Client>> clients, int windows)
      : clients_(std::move(clients)),
        counts_(clients_.size(), std::vector<WindowCounts>(windows)),
        outside_(clients_.size()) {}
  ~ClientPool() { Stop(); }

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  void Start() {
    for (size_t i = 0; i < clients_.size(); ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
  void OpenWindow(int w) { window_.store(w, std::memory_order_release); }
  void CloseWindow() { window_.store(-1, std::memory_order_release); }
  /// Writes acknowledged inside any window so far.
  uint64_t window_writes() const {
    return window_writes_.load(std::memory_order_relaxed);
  }

  const std::vector<std::unique_ptr<Client>>& clients() const {
    return clients_;
  }

  /// Every client's counts of window `w`, merged (only after Stop()).
  WindowCounts Merged(int w) const {
    WindowCounts m;
    for (const auto& per_client : counts_) m.Merge(per_client[w]);
    return m;
  }
  /// Every client's ops and failures outside any window (only after Stop()).
  WindowCounts MergedOutside() const {
    WindowCounts m;
    for (const WindowCounts& c : outside_) m.Merge(c);
    return m;
  }

 private:
  void Loop(size_t i) {
    Client* client = clients_[i].get();
    std::vector<WindowCounts>& mine = counts_[i];
    for (auto& w : mine) w.read_ns.reserve(1 << 18);
    while (!stop_.load(std::memory_order_relaxed)) {
      const int w = window_.load(std::memory_order_acquire);
      const uint64_t t0 = NowNanos();
      const OpResult r = client->Step();
      const uint64_t dt = NowNanos() - t0;
      if (w < 0) {
        ++outside_[i].ops;
        outside_[i].failed += !r.ok;
        continue;
      }
      WindowCounts& c = mine[w];
      ++c.ops;
      c.span_ns += dt;
      (r.write ? c.write_ns : c.read_ns)
          .push_back(static_cast<uint32_t>(std::min<uint64_t>(dt, UINT32_MAX)));
      if (!r.ok) {
        ++c.failed;
      } else if (r.write) {
        c.user_bytes += r.user_bytes;
        window_writes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<WindowCounts>> counts_;
  std::vector<WindowCounts> outside_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> window_{-1};
  std::atomic<uint64_t> window_writes_{0};
};

double PercentileUs(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0.0;
  const size_t k = std::min(
      v->size() - 1, static_cast<size_t>(q * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return (*v)[k] / 1000.0;
}

// --- counter and histogram deltas over measured windows ----------------------

/// Monotonic counters read through public accessors (IoStats, per-tree
/// Bw-tree stats, WAL writer totals, RO node stats), keyed by local names.
using Counters = std::map<std::string, uint64_t>;

struct Snap {
  MetricsRegistry::Snapshot reg;
  Counters own;
};

struct WindowDelta {
  std::map<std::string, double> counters;
  std::map<std::string, uint64_t> hist_count;
  std::map<std::string, double> hist_sum_ns;

  void Add(const Snap& a, const Snap& b) {
    for (const auto& [name, v] : b.own) {
      auto it = a.own.find(name);
      const uint64_t before = it == a.own.end() ? 0 : it->second;
      counters[name] += static_cast<double>(v) - static_cast<double>(before);
    }
    for (const auto& [name, h] : b.reg.histograms) {
      auto it = a.reg.histograms.find(name);
      uint64_t c0 = 0;
      double s0 = 0;
      if (it != a.reg.histograms.end()) {
        c0 = it->second.count;
        s0 = it->second.mean * static_cast<double>(it->second.count);
      }
      hist_count[name] += h.count - c0;
      hist_sum_ns[name] += h.mean * static_cast<double>(h.count) - s0;
    }
  }

  double C(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double Count(const std::string& hist) const {
    auto it = hist_count.find(hist);
    return it == hist_count.end() ? 0.0 : static_cast<double>(it->second);
  }
  /// Inclusive time recorded by a histogram in the window: count × mean.
  double TotalUs(const std::string& hist) const {
    auto it = hist_sum_ns.find(hist);
    return it == hist_sum_ns.end() ? 0.0 : it->second / 1000.0;
  }
  double MeanUs(const std::string& hist) const {
    return Ratio(TotalUs(hist), Count(hist));
  }
};

// --- result document ---------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< samples behind the value; 0 for a level.
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric of a timed run (--trace 0). BENCHMARK.json lists all but
/// failed_frac and storage_reads_per_read, which read 0 on some workloads.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"read_p50_us", "us"},     {"read_p99_us", "us"},
    {"write_p50_us", "us"},    {"write_p99_us", "us"},
    {"failed_frac", "ratio"},  {"write_amp", "ratio"},
    {"storage_reads_per_read", "ratio"},
    {"space_amp", "ratio"},    {"rss_mb", "MB"},
};

/// Every metric of a traced run (--trace 1), each reported by every
/// workload; a layer the workload does not enter reads 0. BENCHMARK.json
/// lists all but bwtree.evictions and bwtree.miss_frac, which read 0 while
/// no workload has a memory budget.
constexpr MetricSpec kPerLayer[] = {
    {"api.get_neighbors.us", "us"},
    {"api.get_neighbors.calls_per_op", "ratio"},
    {"api.add_edge.us", "us"},
    {"api.self_us_per_op", "us"},
    {"admission.admitted", "count"},
    {"admission.shed", "count"},
    {"forest.scan.us", "us"},
    {"forest.scan.calls_per_op", "ratio"},
    {"forest.upsert.us", "us"},
    {"forest.split_out.count", "count"},
    {"forest.split_out.ms_total", "ms"},
    {"forest.trees", "count"},
    {"forest.self_us_per_op", "us"},
    {"bwtree.scan.us", "us"},
    {"bwtree.write.us", "us"},
    {"bwtree.consolidate.count", "count"},
    {"bwtree.smo_split.count", "count"},
    {"bwtree.latch.shared_conflicts_per_kop", "count/kop"},
    {"bwtree.latch.exclusive_conflicts_per_kop", "count/kop"},
    {"bwtree.evictions", "count"},
    {"bwtree.resident_mb", "MB"},
    {"bwtree.miss_frac", "ratio"},
    {"bwtree.self_us_per_op", "us"},
    {"gc.cycles", "count"},
    {"gc.cycle.ms_total", "ms"},
    {"gc.moved_bytes_per_user_byte", "ratio"},
    {"gc.freed_per_moved_byte", "ratio"},
    {"gc.extents_reclaimed", "count"},
    {"gc.extents_expired", "count"},
    {"wal.enqueue.us", "us"},
    {"wal.serialize.us", "us"},
    {"wal.append.us", "us"},
    {"wal.commit_wait.us", "us"},
    {"wal.batches_per_put", "ratio"},
    {"wal.bytes_per_put", "B"},
    {"replication.group_flushes", "count"},
    {"replication.flush_bytes_per_put", "B"},
    {"replication.ro_get.us", "us"},
    {"replication.ro.replayed_per_get", "ratio"},
    {"replication.ro.cache_hit_frac", "ratio"},
    {"replication.ro.storage_reads_per_get", "ratio"},
    {"cloud.append.us", "us"},
    {"cloud.read.us", "us"},
    {"cloud.us_per_op", "us"},
    {"cloud.append_ops_per_op", "ratio"},
    {"cloud.append_bytes_per_op", "B"},
    {"cloud.read_ops_per_op", "ratio"},
    {"cloud.read_bytes_per_op", "B"},
    {"cloud.sim_storage_ms_per_kop", "ms/kop"},
    {"cloud.cost_nusd_per_op", "nUSD"},
    {"cloud.stored_mb", "MB"},
    {"cloud.live_mb", "MB"},
    {"trace.overhead_frac", "ratio"},
};

/// Per-layer metrics README.md names that cannot be measured from outside
/// the engine, with the reason; every traced result lists them.
constexpr std::pair<const char*, const char*> kUnmeasured[] = {
    {"bwtree.get.us, forest.lookup.us",
     "no workload issues point lookups (GetEdge/GetVertex): GetNeighbors "
     "reads through forest.scan and bwtree.scan"},
    {"replication.poll.us",
     "follower Gets poll the WAL through RoNode::PollWalLocked, which has "
     "no timed scope; bg3.replication.poll_ns covers only the explicit "
     "RoNode::PollWal() entry, which the cluster read path never calls"},
    {"cloud.read.us for WAL tail and GC reads",
     "only CloudStore::Read is timed; TailRecords (follower WAL polls on "
     "rw_ro_sync) and ReadValidRecords (GC relocation) count in IoStats "
     "but have no timed scope, so cloud time excludes them"},
    {"wal self time (wal ⊃ cloud)",
     "bg3.cloud.append_ns is one histogram for every stream, so the WAL's "
     "cloud appends cannot be told apart from group-flush appends; "
     "wal.enqueue.us (caller time outside commit_wait) stands in"},
};

const char* UnitOf(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  std::fprintf(stderr, "unknown metric %s\n", name.c_str());
  std::abort();
}

struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> config;
  std::vector<std::string> check_failures;
  uint64_t check_misses = 0;
  std::vector<std::string> op_failures;

  void Set(const std::string& name, double value, uint64_t samples = 0) {
    metrics[name] = Metric{value, UnitOf(name), samples};
  }
  template <typename T>
  void Config(const std::string& key, const T& value) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      config[key] = value;
    } else {
      config[key] = std::to_string(value);
    }
  }
  void Miss(const std::string& what) {
    ++check_misses;
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
};

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// CPUs the whole run (clients and engine threads) is confined to; 0:
  /// every CPU the process may use.
  virtual int cpus() const { return 0; }
  /// Builds a fresh instance and loads it; `seed` derives every input.
  virtual void Build(uint64_t seed) = 0;
  virtual std::vector<std::unique_ptr<Client>> MakeClients() = 0;
  /// Polled every 100 ms while the clients run after Build(); true once the
  /// instance is in steady state. `elapsed_s` counts from the first poll.
  virtual bool Warm(double elapsed_s) = 0;
  /// Destroys the instance.
  virtual void Destroy() = 0;
  virtual bg3::cloud::CloudStore* store() = 0;
  /// Workload-specific monotonic counters, sampled around each window;
  /// `reg` is the registry snapshot taken at the same moment.
  virtual void AddCounters(const MetricsRegistry::Snapshot& reg,
                           Counters* out) = 0;
  /// Live user bytes at `now_us` (space_amp's base).
  virtual double LiveUserBytes(uint64_t now_us) = 0;
  /// If not 0, the timed run reads space_amp and rss_mb once the window
  /// has acknowledged this many writes, not at its end; LiveUserBytes()
  /// must then be safe to call while the clients run.
  virtual uint64_t SpaceSampleWrites() const { return 0; }
  /// Per-layer metrics of the traced windows (after the shared ones).
  virtual void LayerMetrics(const WindowDelta& d, const WindowCounts& c,
                            Report* r) = 0;
  /// Correctness checks, run after the clients stopped.
  virtual void Check(Report* r) = 0;
  virtual void Describe(Report* r) = 0;
};

/// Records every acknowledged AddEdge of a bulk load, so the benchmark's
/// model of the graph is exactly what the engine acknowledged.
class RecordingEngine : public graph::GraphEngine {
 public:
  struct Edge {
    graph::VertexId src;
    graph::VertexId dst;
    graph::TimestampUs created_us;
  };
  explicit RecordingEngine(graph::GraphEngine* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  Status AddVertex(graph::VertexId id, const Slice& p,
                   const bg3::OpContext* ctx) override {
    return inner_->AddVertex(id, p, ctx);
  }
  Result<std::string> GetVertex(graph::VertexId id,
                                const bg3::OpContext* ctx) override {
    return inner_->GetVertex(id, ctx);
  }
  Status DeleteVertex(graph::VertexId id, graph::EdgeType t,
                      const bg3::OpContext* ctx) override {
    return inner_->DeleteVertex(id, t, ctx);
  }
  Status AddEdge(graph::VertexId src, graph::EdgeType t, graph::VertexId dst,
                 const Slice& p, graph::TimestampUs created_us,
                 const bg3::OpContext* ctx) override {
    Status s = inner_->AddEdge(src, t, dst, p, created_us, ctx);
    if (s.ok()) edges.push_back(Edge{src, dst, created_us});
    return s;
  }
  Status DeleteEdge(graph::VertexId src, graph::EdgeType t,
                    graph::VertexId dst, const bg3::OpContext* ctx) override {
    return inner_->DeleteEdge(src, t, dst, ctx);
  }
  Result<std::string> GetEdge(graph::VertexId src, graph::EdgeType t,
                              graph::VertexId dst,
                              const bg3::OpContext* ctx) override {
    return inner_->GetEdge(src, t, dst, ctx);
  }
  Status GetNeighbors(graph::VertexId src, graph::EdgeType t, size_t limit,
                      std::vector<graph::Neighbor>* out,
                      const bg3::OpContext* ctx) override {
    return inner_->GetNeighbors(src, t, limit, out, ctx);
  }

  std::vector<Edge> edges;

 private:
  graph::GraphEngine* const inner_;
};

/// Shared base of the two single-GraphDB workloads.
class GraphWorkload : public Workload {
 public:
  GraphWorkload(uint64_t vertices, uint64_t load_edges)
      : vertices_(vertices), load_edges_(load_edges) {}

  bg3::cloud::CloudStore* store() override { return store_.get(); }

  void Destroy() override {
    db_.reset();
    store_.reset();
  }

  void AddCounters(const MetricsRegistry::Snapshot& reg,
                   Counters* out) override {
    std::vector<bg3::bwtree::BwTree*> trees;
    db_->forest()->AppendTrees(&trees);
    trees.push_back(db_->vertex_tree());
    uint64_t gets = 0, scans = 0, evictions = 0;
    for (bg3::bwtree::BwTree* t : trees) {
      gets += t->stats().gets.Get();
      scans += t->stats().scans.Get();
      evictions += t->stats().page_evictions.Get();
    }
    (*out)["bwtree.gets"] = gets;
    (*out)["bwtree.scans"] = scans;
    (*out)["bwtree.page_evictions"] = evictions;
    const core::DbStats s = db_->Stats();
    (*out)["gc.extents_reclaimed"] = s.gc_extents_reclaimed;
    (*out)["gc.extents_expired"] = s.gc_extents_expired;
    (*out)["gc.bytes_freed"] = s.gc_bytes_freed;
    (*out)["forest.split_outs"] = s.split_outs;
    const auto& adm = db_->admission();
    (*out)["admission.admitted"] = adm.admitted().Get();
    (*out)["admission.shed"] = adm.shed().Get();
    const std::string& p = db_->metrics_prefix();
    (*out)["bwtree.latch.shared_conflicts"] =
        reg.counters.at(p + "bwtree.latch.shared_conflicts");
    (*out)["bwtree.latch.exclusive_conflicts"] =
        reg.counters.at(p + "bwtree.latch.exclusive_conflicts");
  }

  void LayerMetrics(const WindowDelta& d, const WindowCounts& c,
                    Report* r) override {
    const double ops = static_cast<double>(c.ops);
    const double forest_us = d.TotalUs("bg3.forest.upsert_ns") +
                             d.TotalUs("bg3.forest.lookup_ns") +
                             d.TotalUs("bg3.forest.scan_ns");
    const double bwtree_us = d.TotalUs("bg3.bwtree.write_ns") +
                             d.TotalUs("bg3.bwtree.get_ns") +
                             d.TotalUs("bg3.bwtree.scan_ns");
    const double cloud_us =
        d.TotalUs("bg3.cloud.append_ns") + d.TotalUs("bg3.cloud.read_ns");
    // Strict chain api ⊃ forest ⊃ bwtree ⊃ cloud: self = inclusive minus
    // the next layer's inclusive time.
    r->Set("api.self_us_per_op", (c.span_ns / 1000.0 - forest_us) / ops,
           c.ops);
    r->Set("forest.self_us_per_op", (forest_us - bwtree_us) / ops, c.ops);
    r->Set("bwtree.self_us_per_op", (bwtree_us - cloud_us) / ops, c.ops);
    r->Set("admission.admitted", d.C("admission.admitted"));
    r->Set("admission.shed", d.C("admission.shed"));
    r->Set("forest.split_out.count", d.C("forest.split_outs"));
    r->Set("forest.split_out.ms_total",
           d.TotalUs("bg3.forest.split_out_ns") / 1000.0,
           d.Count("bg3.forest.split_out_ns"));
    const core::DbStats s = db_->Stats();
    r->Set("forest.trees", static_cast<double>(s.tree_count));
    r->Set("bwtree.resident_mb", s.resident_bytes / 1048576.0);
    r->Set("bwtree.latch.shared_conflicts_per_kop",
           d.C("bwtree.latch.shared_conflicts") * 1000.0 / ops, c.ops);
    r->Set("bwtree.latch.exclusive_conflicts_per_kop",
           d.C("bwtree.latch.exclusive_conflicts") * 1000.0 / ops, c.ops);
    r->Set("bwtree.evictions", d.C("bwtree.page_evictions"));
    const double tree_reads = d.C("bwtree.gets") + d.C("bwtree.scans");
    r->Set("bwtree.miss_frac", Ratio(d.C("io.read_ops"), tree_reads),
           static_cast<uint64_t>(tree_reads));
    r->Set("gc.cycles", d.Count("bg3.api.run_gc_cycle_ns"));
    r->Set("gc.cycle.ms_total", d.TotalUs("bg3.gc.cycle_ns") / 1000.0,
           static_cast<uint64_t>(d.Count("bg3.gc.cycle_ns")));
    r->Set("gc.moved_bytes_per_user_byte",
           Ratio(d.C("io.gc_moved_bytes"), static_cast<double>(c.user_bytes)));
    r->Set("gc.freed_per_moved_byte",
           Ratio(d.C("gc.bytes_freed"), d.C("io.gc_moved_bytes")));
    r->Set("gc.extents_reclaimed", d.C("gc.extents_reclaimed"));
    r->Set("gc.extents_expired", d.C("gc.extents_expired"));
  }

 protected:
  /// Fresh store + DB, then the bulk load split across kClients loader
  /// threads (each a LoadGraph over its own seeded share of the edges).
  void BuildAndLoad(const core::GraphDBOptions& options) {
    store_ = std::make_unique<bg3::cloud::CloudStore>(
        bg3::cloud::CloudStoreOptions{});
    db_ = std::make_unique<core::GraphDB>(store_.get(), options);
    std::vector<std::unique_ptr<RecordingEngine>> recorders;
    std::vector<std::thread> loaders;
    std::atomic<bool> load_ok{true};
    for (int t = 0; t < kClients; ++t) {
      recorders.push_back(std::make_unique<RecordingEngine>(db_.get()));
    }
    for (int t = 0; t < kClients; ++t) {
      loaders.emplace_back([&, t] {
        bg3::workload::GraphGenOptions g;
        g.num_sources = vertices_;
        g.num_dests = vertices_;
        g.num_edges = load_edges_ / kClients;
        g.zipf_theta = 0.8;
        g.edge_type = kEdgeType;
        g.property_bytes = kPropertyBytes;
        g.seed = DeriveSeed(seed_, 100 + t);
        if (!bg3::workload::LoadGraph(recorders[t].get(), g).ok()) {
          load_ok = false;
        }
      });
    }
    for (auto& t : loaders) t.join();
    if (!load_ok) {
      std::fprintf(stderr, "bulk load failed\n");
      std::exit(1);
    }
    loaded_.clear();
    for (const auto& rec : recorders) {
      loaded_.insert(loaded_.end(), rec->edges.begin(), rec->edges.end());
    }
  }

  uint64_t seed_ = 0;
  const uint64_t vertices_;
  const uint64_t load_edges_;
  std::unique_ptr<bg3::cloud::CloudStore> store_;
  std::unique_ptr<core::GraphDB> db_;
  std::vector<RecordingEngine::Edge> loaded_;
};

// Douyin Follow (Table 1): 99% GetNeighbors(limit 32), 1% AddEdge, Zipf 0.8
// over a preloaded power-law graph that fits in memory (no budget, no GC).
class FollowWorkload : public GraphWorkload {
 public:
  static constexpr uint64_t kUsers = 50'000;
  static constexpr uint64_t kLoadEdges = 300'000;
  static constexpr size_t kReadLimit = 32;
  static constexpr double kWarmSeconds = 1.0;

  FollowWorkload() : GraphWorkload(kUsers, kLoadEdges) {}

  void Build(uint64_t seed) override {
    seed_ = seed;
    core::GraphDBOptions o;
    o.admission.enabled = true;
    clients_.clear();
    BuildAndLoad(o);
  }

  class FollowClient : public Client {
   public:
    FollowClient(core::GraphDB* db, uint64_t seed)
        : db_(db),
          gen_({kUsers, 0.8, 0.01}, seed),
          props_(bg3::workload::MakeProperties(seed, kPropertyBytes)) {}

    OpResult Step() override {
      const bg3::workload::Op op = gen_.Next();
      if (op.type == bg3::workload::Op::Type::kInsertEdge) {
        const bool ok = Note(
            db_->AddEdge(op.src, kEdgeType, op.dst, props_, db_->NowUs()),
            "AddEdge");
        if (ok) acked.emplace_back(op.src, op.dst);
        return {true, ok, kEdgeUserBytes};
      }
      buf_.clear();
      return {false,
              Note(db_->GetNeighbors(op.src, kEdgeType, kReadLimit, &buf_),
                   "GetNeighbors"),
              0};
    }

    std::vector<std::pair<graph::VertexId, graph::VertexId>> acked;

   private:
    core::GraphDB* const db_;
    bg3::workload::FollowWorkload gen_;
    const std::string props_;
    std::vector<graph::Neighbor> buf_;
  };

  std::vector<std::unique_ptr<Client>> MakeClients() override {
    std::vector<std::unique_ptr<Client>> out;
    for (int t = 0; t < kClients; ++t) {
      auto c = std::make_unique<FollowClient>(db_.get(), DeriveSeed(seed_, t));
      clients_.push_back(c.get());
      out.push_back(std::move(c));
    }
    return out;
  }

  bool Warm(double elapsed_s) override { return elapsed_s >= kWarmSeconds; }

  double LiveUserBytes(uint64_t) override {
    return static_cast<double>(Model().size()) * kEdgeUserBytes;
  }

  void Check(Report* r) override {
    // Inserts only add edges, so the acknowledged set does not depend on
    // thread order: every source's full adjacency must equal the model.
    std::vector<std::vector<graph::VertexId>> expect(kUsers);
    for (uint64_t key : Model()) expect[key >> 32].push_back(key & 0xffffffff);
    std::vector<graph::Neighbor> got;
    for (uint64_t src = 0; src < kUsers; ++src) {
      got.clear();
      Status s = db_->GetNeighbors(src, kEdgeType, kNoLimit, &got);
      if (!s.ok()) {
        r->Miss("GetNeighbors(" + std::to_string(src) + ") " + s.ToString());
        continue;
      }
      std::vector<graph::VertexId> dsts;
      for (const auto& n : got) dsts.push_back(n.dst);
      std::sort(dsts.begin(), dsts.end());
      std::vector<graph::VertexId>& want = expect[src];
      std::sort(want.begin(), want.end());
      if (dsts != want) {
        r->Miss("adjacency of " + std::to_string(src) + ": got " +
                std::to_string(dsts.size()) + " edges, model " +
                std::to_string(want.size()));
      }
    }
    r->Config("check.sources", kUsers);
  }

  void Describe(Report* r) override {
    r->Config("graph.vertices", kUsers);
    r->Config("graph.load_edges", kLoadEdges);
    r->Config("graph.zipf_theta", "0.8");
    r->Config("mix", "99% GetNeighbors(limit 32), 1% AddEdge");
    r->Config("memory_budget_bytes", 0);
    r->Config("edge_ttl_us", 0);
    r->Config("gc", "off");
    r->Config("admission", "enabled, default slots (non-shedding)");
    r->Config("warmup_s", kWarmSeconds);
  }

 private:
  /// Distinct acknowledged (src, dst) pairs, packed src << 32 | dst.
  std::vector<uint64_t> Model() const {
    std::vector<uint64_t> keys;
    keys.reserve(loaded_.size());
    for (const auto& e : loaded_) keys.push_back(e.src << 32 | e.dst);
    for (const FollowClient* c : clients_) {
      for (const auto& [s, d] : c->acked) keys.push_back(s << 32 | d);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  std::vector<FollowClient*> clients_;
};

// Financial Risk Control (Table 1): 50% AddEdge, 50% 5-10-hop IsReachable
// (fan-out 6) over TTL'd edges, with background GC expiring extents in
// place. Fits in memory: README.md, "Known defect", explains why it runs
// without a memory budget.
class RiskTtlWorkload : public GraphWorkload {
 public:
  static constexpr uint64_t kAccounts = 50'000;
  static constexpr uint64_t kLoadEdges = 150'000;
  static constexpr uint64_t kTtlUs = 2'000'000;
  static constexpr uint64_t kGcIntervalMs = 100;
  static constexpr size_t kFanout = 6;
  static constexpr double kMinWarmSeconds = 3.0;
  static constexpr double kMaxWarmSeconds = 10.0;
  static constexpr double kSliceSeconds = 0.5;

  RiskTtlWorkload() : GraphWorkload(kAccounts, kLoadEdges) {}

  void Build(uint64_t seed) override {
    seed_ = seed;
    core::GraphDBOptions o;
    o.edge_ttl_us = kTtlUs;
    o.admission.enabled = true;
    clients_.clear();
    BuildAndLoad(o);
    resident_after_load_ = static_cast<double>(db_->Stats().resident_bytes);
    db_->StartMaintenance(kGcIntervalMs);
    warm_expired0_ = db_->Stats().gc_extents_expired;
    slices_.clear();
    acked_bytes_ = 0;
  }

  class RiskClient : public Client {
   public:
    RiskClient(core::GraphDB* db, uint64_t seed, int owner,
               std::atomic<uint64_t>* acked_bytes)
        : db_(db),
          gen_({kAccounts, 0.8, 5, 10}, seed),
          owner_(owner),
          props_(bg3::workload::MakeProperties(seed, kPropertyBytes)),
          acked_bytes_(acked_bytes) {}

    OpResult Step() override {
      const bg3::workload::Op op = gen_.Next();
      if (op.type == bg3::workload::Op::Type::kInsertEdge) {
        // Each client writes only sources it owns, so per pair the last
        // acknowledged insert is the stored one and the TTL check is exact.
        graph::VertexId src = op.src - op.src % kClients + owner_;
        if (src >= kAccounts) src -= kClients;
        const uint64_t created = db_->NowUs();
        const bool ok = Note(
            db_->AddEdge(src, kEdgeType, op.dst, props_, created), "AddEdge");
        if (ok) {
          created_[src << 32 | op.dst] = created;
          acked_bytes_->fetch_add(kEdgeUserBytes, std::memory_order_relaxed);
        }
        return {true, ok, kEdgeUserBytes};
      }
      graph::TraversalOptions t;
      t.hops = op.hops;
      t.fanout_per_vertex = kFanout;
      Result<bool> r = graph::IsReachable(db_, op.src, op.dst, kEdgeType, t);
      return {false, Note(r.status(), "IsReachable"), 0};
    }

    /// Last acknowledged created_us per (src << 32 | dst) this client wrote.
    std::unordered_map<uint64_t, uint64_t> created_;

   private:
    core::GraphDB* const db_;
    bg3::workload::RiskControlWorkload gen_;
    const int owner_;
    const std::string props_;
    std::atomic<uint64_t>* const acked_bytes_;
  };

  std::vector<std::unique_ptr<Client>> MakeClients() override {
    std::vector<std::unique_ptr<Client>> out;
    for (int t = 0; t < kClients; ++t) {
      auto c = std::make_unique<RiskClient>(db_.get(), DeriveSeed(seed_, t), t,
                                            &acked_bytes_);
      clients_.push_back(c.get());
      out.push_back(std::move(c));
    }
    return out;
  }

  // Warm once the loaded edges have expired, GC has expired several extents
  // in place, and write_amp over consecutive 0.5 s slices has levelled off.
  bool Warm(double elapsed_s) override {
    const uint64_t appended = store_->stats().append_bytes.Get();
    const uint64_t acked = acked_bytes_.load(std::memory_order_relaxed);
    if (slices_.empty() || elapsed_s - slice_start_s_ >= kSliceSeconds) {
      if (!slices_.empty()) {
        slices_.push_back(Ratio(static_cast<double>(appended - slice_appended_),
                                static_cast<double>(acked - slice_acked_)));
      } else {
        slices_.push_back(0);
      }
      slice_start_s_ = elapsed_s;
      slice_appended_ = appended;
      slice_acked_ = acked;
    }
    if (elapsed_s >= kMaxWarmSeconds) {
      warm_capped_ = true;
      return true;
    }
    if (elapsed_s < kMinWarmSeconds) return false;
    if (db_->Stats().gc_extents_expired < warm_expired0_ + 3) return false;
    const size_t n = slices_.size();
    if (n < 3) return false;
    const double a = slices_[n - 2], b = slices_[n - 1];
    return a > 0 && std::abs(b - a) <= 0.1 * a;
  }

  double LiveUserBytes(uint64_t now_us) override {
    double live = 0;
    for (const auto& [key, created] : LastCreated()) {
      if (created + kTtlUs > now_us) live += kEdgeUserBytes;
    }
    return live;
  }

  void Check(Report* r) override {
    std::vector<std::unordered_map<graph::VertexId, uint64_t>> model(kAccounts);
    for (const auto& [key, created] : LastCreated()) {
      model[key >> 32][key & 0xffffffff] = created;
    }
    std::vector<graph::Neighbor> got;
    for (uint64_t src = 0; src < kAccounts; ++src) {
      got.clear();
      const uint64_t before = db_->NowUs();
      Status s = db_->GetNeighbors(src, kEdgeType, kNoLimit, &got);
      const uint64_t after = db_->NowUs();
      if (!s.ok()) {
        r->Miss("GetNeighbors(" + std::to_string(src) + ") " + s.ToString());
        continue;
      }
      const auto& want = model[src];
      size_t present_unexpired = 0;
      for (const auto& n : got) {
        auto it = want.find(n.dst);
        if (it == want.end()) {
          r->Miss("edge " + std::to_string(src) + "->" +
                  std::to_string(n.dst) + " was never inserted");
        } else if (n.created_us + kTtlUs <= before) {
          r->Miss("expired edge returned");
        } else if (it->second + kTtlUs > after) {
          if (n.created_us == it->second) {
            ++present_unexpired;
          } else {
            r->Miss("edge " + std::to_string(src) + "->" +
                    std::to_string(n.dst) + " is not the last insert");
          }
        }
      }
      // Every edge that cannot have expired by the time the read returned
      // must be present.
      size_t must = 0;
      for (const auto& [dst, created] : want) must += created + kTtlUs > after;
      if (present_unexpired != must) {
        r->Miss("source " + std::to_string(src) + ": " +
                std::to_string(must) + " unexpired edges in model, " +
                std::to_string(present_unexpired) + " returned");
      }
    }
    r->Config("check.sources", kAccounts);
  }

  void Describe(Report* r) override {
    r->Config("graph.vertices", kAccounts);
    r->Config("graph.load_edges", kLoadEdges);
    r->Config("graph.zipf_theta", "0.8");
    r->Config("mix", "50% AddEdge, 50% IsReachable 5-10 hops, fan-out 6");
    r->Config("edge_ttl_us", kTtlUs);
    r->Config("gc", "StartMaintenance(" + std::to_string(kGcIntervalMs) +
                        " ms), kWorkloadAware");
    r->Config("memory_budget_bytes", 0);
    r->Config("resident_bytes_after_load", resident_after_load_);
    r->Config("admission", "enabled, default slots (non-shedding)");
    r->Config("warmup_capped", warm_capped_ ? "true" : "false");
  }

 private:
  /// Last acknowledged created_us per pair: load first, then the clients'
  /// inserts, which are later than the load and owner-partitioned.
  std::unordered_map<uint64_t, uint64_t> LastCreated() const {
    std::unordered_map<uint64_t, uint64_t> last;
    for (const auto& e : loaded_) {
      uint64_t& c = last[e.src << 32 | e.dst];
      c = std::max<uint64_t>(c, e.created_us);
    }
    for (const RiskClient* c : clients_) {
      for (const auto& [key, created] : c->created_) last[key] = created;
    }
    return last;
  }

  std::vector<RiskClient*> clients_;
  std::atomic<uint64_t> acked_bytes_{0};
  double resident_after_load_ = 0;
  uint64_t warm_expired0_ = 0;
  std::vector<double> slices_;
  double slice_start_s_ = 0;
  uint64_t slice_appended_ = 0;
  uint64_t slice_acked_ = 0;
  bool warm_capped_ = false;
};

// Read-write / read-only sync: a Bg3Cluster of 2 partitions x 1 follower,
// 20% Put to the leader and 80% strictly fresh Get from followers, Zipf 0.8
// over 100K keys with 64 B values.
class RwRoSyncWorkload : public Workload {
 public:
  static constexpr uint64_t kKeys = 100'000;
  static constexpr size_t kValueBytes = 64;
  static constexpr size_t kKeyBytes = 13;
  static constexpr double kWarmSeconds = 1.0;

  // Every Put wakes its partition's WAL serializer and appender threads and
  // waits for them, and follower Gets queue on the follower's exclusive
  // latch. Spread over the host's vCPUs, each of these hand-offs wakes a
  // halted vCPU, which takes as long as the hypervisor lets it: at 14%
  // stolen CPU time throughput fell by 40% and read p99 doubled. On one
  // CPU every hand-off is a context switch inside the guest; throughput is
  // about 85% of the four-CPU figure on a quiet host.
  int cpus() const override { return 1; }

  static std::string Key(uint64_t k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k%012llu",
                  static_cast<unsigned long long>(k));
    return buf;
  }
  /// 64-byte value naming the key and the writer's version.
  static std::string Value(uint64_t k, uint64_t version) {
    char buf[kValueBytes + 1];
    std::snprintf(buf, sizeof(buf), "v%012llu.%020llu.",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(version));
    std::string v(buf);
    v.resize(kValueBytes, 'x');
    return v;
  }

  bg3::cloud::CloudStore* store() override { return store_.get(); }

  void Build(uint64_t seed) override {
    seed_ = seed;
    clients_.clear();
    store_ = std::make_unique<bg3::cloud::CloudStore>(
        bg3::cloud::CloudStoreOptions{});
    cluster_ = std::make_unique<bg3::replication::Bg3Cluster>(
        store_.get(), bg3::replication::ClusterOptions{});
    std::vector<std::thread> loaders;
    std::atomic<bool> ok{true};
    for (int t = 0; t < kClients; ++t) {
      loaders.emplace_back([&, t] {
        for (uint64_t k = t; k < kKeys; k += kClients) {
          if (!cluster_->Put(Key(k), Value(k, 0)).ok()) ok = false;
        }
      });
    }
    for (auto& t : loaders) t.join();
    if (!ok) {
      std::fprintf(stderr, "cluster load failed\n");
      std::exit(1);
    }
  }

  void Destroy() override {
    cluster_.reset();
    store_.reset();
  }

  class RwClient : public Client {
   public:
    RwClient(bg3::replication::Bg3Cluster* cluster, uint64_t seed, int owner)
        : cluster_(cluster),
          zipf_(kKeys, 0.8, seed),
          rng_(seed + 1),
          owner_(owner) {}

    OpResult Step() override {
      // Each client reads and writes only keys it owns, so every read has
      // exactly one correct answer: its own last acknowledged write.
      uint64_t k = zipf_.Next();
      k = k - k % kClients + owner_;
      if (k >= kKeys) k -= kClients;
      if (rng_.Uniform(5) == 0) {
        const uint64_t version =
            (static_cast<uint64_t>(owner_) + 1) << 40 | ++seq_;
        const bool ok = Note(cluster_->Put(Key(k), Value(k, version)), "Put");
        if (ok) last[k] = version;
        return {true, ok, kKeyBytes + kValueBytes};
      }
      Result<std::string> r = cluster_->Get(Key(k));
      if (!Note(r.status(), "Get")) return {false, false, 0};
      auto it = last.find(k);
      if (r.value() != Value(k, it == last.end() ? 0 : it->second)) {
        if (ryw_failures.size() < 5) {
          ryw_failures.push_back("read-your-writes on " + Key(k) +
                                 ": stale value " + r.value());
        }
        ++ryw_misses;
      }
      return {false, true, 0};
    }

    std::unordered_map<uint64_t, uint64_t> last;  ///< key -> acked version.
    std::vector<std::string> ryw_failures;
    uint64_t ryw_misses = 0;

   private:
    bg3::replication::Bg3Cluster* const cluster_;
    bg3::ZipfGenerator zipf_;
    bg3::Random rng_;
    const int owner_;
    uint64_t seq_ = 0;
  };

  std::vector<std::unique_ptr<Client>> MakeClients() override {
    std::vector<std::unique_ptr<Client>> out;
    for (int t = 0; t < kClients; ++t) {
      auto c =
          std::make_unique<RwClient>(cluster_.get(), DeriveSeed(seed_, t), t);
      clients_.push_back(c.get());
      out.push_back(std::move(c));
    }
    return out;
  }

  bool Warm(double elapsed_s) override { return elapsed_s >= kWarmSeconds; }

  void AddCounters(const MetricsRegistry::Snapshot&, Counters* out) override {
    uint64_t records = 0, batches = 0, wal_bytes = 0;
    uint64_t hits = 0, misses = 0, replayed = 0, storage_reads = 0;
    for (int p = 0; p < cluster_->partitions(); ++p) {
      bg3::replication::RwNode* leader = cluster_->leader(p);
      records += leader->wal_writer()->records_appended();
      batches += leader->wal_writer()->batches_appended();
      wal_bytes += store_->TotalBytes(leader->options().wal.stream);
      bg3::replication::RoNodeStats& ro = cluster_->follower(p, 0)->stats();
      hits += ro.cache_hits.Get();
      misses += ro.cache_misses.Get();
      replayed += ro.replayed.Get();
      storage_reads += ro.storage_reads.Get();
    }
    (*out)["wal.records"] = records;
    (*out)["wal.batches"] = batches;
    (*out)["wal.stream_bytes"] = wal_bytes;
    (*out)["ro.cache_hits"] = hits;
    (*out)["ro.cache_misses"] = misses;
    (*out)["ro.replayed"] = replayed;
    (*out)["ro.storage_reads"] = storage_reads;
  }

  double LiveUserBytes(uint64_t) override {
    return static_cast<double>(kKeys * (kKeyBytes + kValueBytes));
  }

  // Nothing reclaims the cluster's store (no GC, no WAL truncation), so
  // stored bytes and RSS at the window's end grow with the Puts done in it:
  // read them after a fixed number instead, about 40% of the Puts a quiet
  // 11 s window acknowledges.
  uint64_t SpaceSampleWrites() const override { return 60'000; }

  void LayerMetrics(const WindowDelta& d, const WindowCounts& c,
                    Report* r) override {
    const double ops = static_cast<double>(c.ops);
    const double puts = static_cast<double>(c.write_ns.size());
    const double reads = static_cast<double>(c.read_ns.size());
    // api ⊃ {leader bwtree write (puts), follower ro_get (gets)};
    // the leader's bwtree write ⊃ its WAL append.
    const double bwtree_us = d.TotalUs("bg3.bwtree.write_ns");
    const double wal_us = d.TotalUs("bg3.wal.append_ns");
    r->Set("api.self_us_per_op",
           (c.span_ns / 1000.0 - bwtree_us -
            d.TotalUs("bg3.replication.ro_get_ns")) /
               ops, c.ops);
    r->Set("bwtree.self_us_per_op", (bwtree_us - wal_us) / ops, c.ops);
    // WalWriter::Append = enqueue + seal + commit_wait; the part outside
    // commit_wait is the caller's enqueue time.
    r->Set("wal.enqueue.us",
           Ratio(wal_us - d.TotalUs("bg3.wal.commit_wait_ns"),
                 d.Count("bg3.wal.append_ns")),
           static_cast<uint64_t>(d.Count("bg3.wal.append_ns")));
    r->Set("wal.batches_per_put", d.C("wal.batches") / puts,
           static_cast<uint64_t>(puts));
    r->Set("wal.bytes_per_put", d.C("wal.stream_bytes") / puts,
           static_cast<uint64_t>(puts));
    // Every WAL record is a Put except the kCheckpoint record each group
    // flush appends.
    r->Set("replication.group_flushes", d.C("wal.records") - puts);
    r->Set("replication.flush_bytes_per_put",
           (d.C("io.append_bytes") - d.C("wal.stream_bytes")) / puts,
           static_cast<uint64_t>(puts));
    r->Set("replication.ro.replayed_per_get", d.C("ro.replayed") / reads,
           static_cast<uint64_t>(reads));
    r->Set("replication.ro.cache_hit_frac",
           Ratio(d.C("ro.cache_hits"),
                 d.C("ro.cache_hits") + d.C("ro.cache_misses")));
    r->Set("replication.ro.storage_reads_per_get",
           d.C("ro.storage_reads") / reads,
           static_cast<uint64_t>(reads));
  }

  void Check(Report* r) override {
    std::vector<uint64_t> model(kKeys, 0);
    for (const RwClient* c : clients_) {
      for (const std::string& f : c->ryw_failures) r->Miss(f);
      r->check_misses += c->ryw_misses - c->ryw_failures.size();
      for (const auto& [k, v] : c->last) model[k] = v;
    }
    // Followers agree with the leader, and both hold every acknowledged
    // last value; then again after each leader crashes and recovers from
    // shared storage.
    auto sweep = [&](const char* phase) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        const std::string want = Value(k, model[k]);
        Result<std::string> leader = cluster_->GetFromLeader(Key(k));
        Result<std::string> follower = cluster_->Get(Key(k));
        auto describe = [](const Result<std::string>& got) {
          return got.ok() ? "read " + got.value() : got.status().ToString();
        };
        if (!leader.ok() || leader.value() != want) {
          r->Miss(std::string(phase) + ": leader " + describe(leader) +
                  ", want " + want);
        }
        if (!follower.ok() || follower.value() != want) {
          r->Miss(std::string(phase) + ": follower " + describe(follower) +
                  ", want " + want);
        }
      }
    };
    sweep("after run");
    for (int p = 0; p < cluster_->partitions(); ++p) {
      Status s = cluster_->CrashAndRecoverLeader(p);
      if (!s.ok()) r->Miss("CrashAndRecoverLeader: " + s.ToString());
    }
    sweep("after leader recovery");
    r->Config("check.keys", kKeys);
  }

  void Describe(Report* r) override {
    r->Config("keys", kKeys);
    r->Config("key_bytes", kKeyBytes);
    r->Config("value_bytes", kValueBytes);
    r->Config("keys.zipf_theta", "0.8");
    r->Config("topology", "2 partitions x 1 follower");
    r->Config("mix", "20% Put (leader), 80% Get (follower, min_poll_gap_us 0)");
    r->Config("memory_budget_bytes", 0);
    r->Config("edge_ttl_us", 0);
    r->Config("warmup_s", kWarmSeconds);
  }

 private:
  uint64_t seed_ = 0;
  std::unique_ptr<bg3::cloud::CloudStore> store_;
  std::unique_ptr<bg3::replication::Bg3Cluster> cluster_;
  std::vector<RwClient*> clients_;
};

// --- measurement -------------------------------------------------------------

Snap TakeSnap(Workload* wl) {
  Snap s;
  s.reg = MetricsRegistry::Default().TakeSnapshot();
  const bg3::cloud::IoStats& io = wl->store()->stats();
  s.own["io.append_ops"] = io.append_ops.Get();
  s.own["io.append_bytes"] = io.append_bytes.Get();
  s.own["io.read_ops"] = io.read_ops.Get();
  s.own["io.read_bytes"] = io.read_bytes.Get();
  s.own["io.gc_moved_bytes"] = io.gc_moved_bytes.Get();
  wl->AddCounters(s.reg, &s.own);
  return s;
}

/// What space_amp and rss_mb are computed from.
struct SpaceSample {
  bool taken = false;
  double stored = 0;     ///< cloud bytes stored
  double live_user = 0;  ///< live user bytes
  double rss_mb = 0;
};

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(s * 1e6)));
}

/// Metrics every workload shares in the traced run: the api spans, the
/// engine's per-layer histograms and cloud I/O per op.
void SharedLayerMetrics(const WindowDelta& d, const WindowCounts& c,
                        Report* r) {
  const double ops = static_cast<double>(c.ops);
  const uint64_t n = c.ops;
  auto mean = [&](const char* name, const char* hist) {
    r->Set(name, d.MeanUs(hist), static_cast<uint64_t>(d.Count(hist)));
  };
  mean("api.get_neighbors.us", "bg3.api.get_neighbors_ns");
  r->Set("api.get_neighbors.calls_per_op",
         d.Count("bg3.api.get_neighbors_ns") / ops, n);
  mean("api.add_edge.us", "bg3.api.add_edge_ns");
  mean("forest.scan.us", "bg3.forest.scan_ns");
  r->Set("forest.scan.calls_per_op", d.Count("bg3.forest.scan_ns") / ops, n);
  mean("forest.upsert.us", "bg3.forest.upsert_ns");
  mean("bwtree.scan.us", "bg3.bwtree.scan_ns");
  mean("bwtree.write.us", "bg3.bwtree.write_ns");
  r->Set("bwtree.consolidate.count", d.Count("bg3.bwtree.consolidate_ns"));
  r->Set("bwtree.smo_split.count", d.Count("bg3.bwtree.smo_split_ns"));
  mean("wal.serialize.us", "bg3.wal.serialize_ns");
  mean("wal.append.us", "bg3.wal.append_ns");
  mean("wal.commit_wait.us", "bg3.wal.commit_wait_ns");
  mean("replication.ro_get.us", "bg3.replication.ro_get_ns");
  mean("cloud.append.us", "bg3.cloud.append_ns");
  mean("cloud.read.us", "bg3.cloud.read_ns");
  r->Set("cloud.us_per_op",
         (d.TotalUs("bg3.cloud.append_ns") + d.TotalUs("bg3.cloud.read_ns")) /
             ops, n);

  const double a_ops = d.C("io.append_ops"), a_bytes = d.C("io.append_bytes");
  const double r_ops = d.C("io.read_ops"), r_bytes = d.C("io.read_bytes");
  r->Set("cloud.append_ops_per_op", a_ops / ops, n);
  r->Set("cloud.append_bytes_per_op", a_bytes / ops, n);
  r->Set("cloud.read_ops_per_op", r_ops / ops, n);
  r->Set("cloud.read_bytes_per_op", r_bytes / ops, n);
  // Simulated storage time of the window's I/O under the default latency
  // model at zero utilization; service time is linear in bytes, so the
  // per-op mean size gives the exact total. Never added to wall time.
  const bg3::cloud::LatencyModel model;
  const double sim_us =
      (a_ops > 0 ? a_ops * model.AppendLatencyUs(
                               static_cast<size_t>(a_bytes / a_ops))
                 : 0) +
      (r_ops > 0 ? r_ops * model.ReadLatencyUs(
                               static_cast<size_t>(r_bytes / r_ops))
                 : 0);
  r->Set("cloud.sim_storage_ms_per_kop", sim_us / ops, n);
  const bg3::CostModel cost;
  const double usd =
      cost.ReadCostUsd(static_cast<uint64_t>(r_ops),
                       static_cast<uint64_t>(r_bytes)) +
      cost.WriteCostUsd(static_cast<uint64_t>(a_ops),
                        static_cast<uint64_t>(a_bytes));
  r->Set("cloud.cost_nusd_per_op", usd * 1e9 / ops, n);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->out.empty() &&
         a->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "follow") return std::make_unique<FollowWorkload>();
  if (name == "risk_ttl") return std::make_unique<RiskTtlWorkload>();
  if (name == "rw_ro_sync") return std::make_unique<RwRoSyncWorkload>();
  return nullptr;
}

std::string RenderReport(const Args& args, const Report& r, bool correct,
                         uint64_t attempted, uint64_t failed) {
  bg3::JsonWriter w(2);
  w.BeginObject();
  w.KV("workload", args.workload);
  w.KV("trace", args.trace);
  w.KV("correct", correct);
  w.KV("attempted", attempted);
  w.KV("failed", failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, m] : r.metrics) {
    w.Key(name);
    w.BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    w.KV("samples", m.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("config");
  w.BeginObject();
  for (const auto& [k, v] : r.config) w.KV(k, v);
  w.EndObject();
  w.Key("check_failures");
  w.BeginArray();
  for (const auto& f : r.check_failures) w.Value(f);
  w.EndArray();
  w.Key("op_failures");
  w.BeginArray();
  for (const auto& f : r.op_failures) w.Value(f);
  w.EndArray();
  if (args.trace) {
    w.Key("unmeasured");
    w.BeginObject();
    for (const auto& [name, why] : kUnmeasured) w.KV(name, why);
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) return 2;
  // Before Build() starts any engine thread, so that all of them inherit it.
  const std::string cpus = PinToCpus(wl->cpus());
  // The timed run measures the engine with its timing probes off; the
  // traced run turns them on only inside its timed sub-windows.
  bg3::obs::SetTimingEnabled(false);

  Report r;

  const int windows = args.trace ? kTraceWindows : 1;
  const double window_len = args.seconds / (kInstances * windows);
  std::vector<double> setup_s, stored_mb, live_mb;
  // Timed-run metrics of each instance (see kInstances).
  std::map<std::string, std::vector<double>> per_instance;
  WindowDelta delta;  // registry and counter deltas of measured windows only
  // c: measured (timed) windows; untimed: a traced run's untimed windows;
  // outside: warm-up and the gaps between windows.
  WindowCounts c, untimed, outside;
  double c_s = 0, untimed_s = 0;
  // CPU ticks over set-up and over the windows, and each instance's
  // contended share of its windows.
  CpuTicks setup_ticks, window_ticks;
  std::string contended_per_instance;
  const uint64_t sample_writes = wl->SpaceSampleWrites();
  // Instances whose window ended before sample_writes writes.
  int space_at_end = 0;
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) r.Set(m.name, 0);
  }
  for (int i = 0; i < kInstances; ++i) {
    const uint64_t t0 = NowMicros();
    const CpuTicks setup0 = ReadCpuTicks();
    // Each instance gets its own inputs (graph, key choices), derived from
    // the run's seed, so a run averages over several input draws.
    wl->Build(DeriveSeed(args.seed, 1000 + i));
    ClientPool pool(wl->MakeClients(), windows);
    pool.Start();
    const uint64_t warm0 = NowMicros();
    while (!wl->Warm((NowMicros() - warm0) / 1e6)) SleepSeconds(0.1);
    setup_s.push_back((NowMicros() - t0) / 1e6);
    setup_ticks.Add(setup0, ReadCpuTicks());

    std::vector<double> window_s(windows);
    SpaceSample space;
    CpuTicks instance_ticks;
    const double appended_before = delta.C("io.append_bytes");
    const double read_ops_before = delta.C("io.read_ops");
    for (int w = 0; w < windows; ++w) {
      const bool timed = args.trace && w % 2 == 1;
      bg3::obs::SetTimingEnabled(timed);
      const Snap before = TakeSnap(wl.get());
      const CpuTicks ticks0 = ReadCpuTicks();
      const uint64_t w0 = NowMicros();
      pool.OpenWindow(w);
      if (sample_writes == 0 || args.trace) {
        SleepSeconds(window_len);
      } else {
        const uint64_t end = w0 + static_cast<uint64_t>(window_len * 1e6);
        for (uint64_t now = w0; now < end; now = NowMicros()) {
          if (!space.taken && pool.window_writes() >= sample_writes) {
            space = {true, static_cast<double>(wl->store()->TotalBytes()),
                     wl->LiveUserBytes(now), RssMb()};
          }
          SleepSeconds(std::min(0.01, (end - now) / 1e6));
        }
      }
      pool.CloseWindow();
      window_s[w] = (NowMicros() - w0) / 1e6;
      instance_ticks.Add(ticks0, ReadCpuTicks());
      const Snap after = TakeSnap(wl.get());
      bg3::obs::SetTimingEnabled(false);
      if (!args.trace || timed) delta.Add(before, after);
    }
    const uint64_t end_us = NowMicros();
    window_ticks.Add(CpuTicks{}, instance_ticks);
    contended_per_instance +=
        (i ? " " : "") + Fmt(instance_ticks.ContendedFrac());
    const double stored = static_cast<double>(wl->store()->TotalBytes());
    stored_mb.push_back(stored / 1048576.0);
    live_mb.push_back(wl->store()->LiveBytes() / 1048576.0);
    const double rss = RssMb();
    pool.Stop();
    if (!space.taken) {
      space = {true, stored, wl->LiveUserBytes(end_us), rss};
      if (sample_writes != 0) ++space_at_end;
    }

    for (int w = 0; w < windows; ++w) {
      if (!args.trace || w % 2 == 1) {
        c.Merge(pool.Merged(w));
        c_s += window_s[w];
      } else {
        untimed.Merge(pool.Merged(w));
        untimed_s += window_s[w];
      }
    }
    outside.Merge(pool.MergedOutside());
    if (!args.trace) {
      WindowCounts m = pool.Merged(0);
      const double reads = static_cast<double>(m.read_ns.size());
      auto add = [&](const char* name, double v) {
        per_instance[name].push_back(v);
      };
      add("ops_per_s", m.ops / window_s[0]);
      add("read_p50_us", PercentileUs(&m.read_ns, 0.50));
      add("read_p99_us", PercentileUs(&m.read_ns, 0.99));
      add("write_p50_us", PercentileUs(&m.write_ns, 0.50));
      add("write_p99_us", PercentileUs(&m.write_ns, 0.99));
      add("write_amp", Ratio(delta.C("io.append_bytes") - appended_before,
                             static_cast<double>(m.user_bytes)));
      add("storage_reads_per_read",
          Ratio(delta.C("io.read_ops") - read_ops_before, reads));
      add("space_amp", Ratio(space.stored, space.live_user));
      add("rss_mb", space.rss_mb);
    }
    for (const auto& client : pool.clients()) {
      r.op_failures.insert(r.op_failures.end(), client->errors.begin(),
                           client->errors.end());
    }
    wl->Check(&r);
    if (i + 1 == kInstances) {
      if (args.trace) wl->LayerMetrics(delta, c, &r);
      wl->Describe(&r);
    }
    wl->Destroy();
    // Hand the freed instance back to the OS so the next one's rss_mb
    // counts only itself.
    malloc_trim(0);
  }

  // Every call the clients made, measured or not, and every non-OK one.
  const uint64_t attempted = c.ops + untimed.ops + outside.ops;
  const uint64_t failed =
      c.failed + untimed.failed + outside.failed + r.check_misses;
  const uint64_t writes = c.write_ns.size();
  if (!args.trace) {
    const uint64_t reads = c.read_ns.size();
    per_instance["setup_s"] = setup_s;
    const std::map<std::string, uint64_t> samples = {
        {"setup_s", kInstances},   {"ops_per_s", c.ops},
        {"read_p50_us", reads},    {"read_p99_us", reads},
        {"write_p50_us", writes},  {"write_p99_us", writes},
        {"write_amp", writes},     {"storage_reads_per_read", reads},
        {"space_amp", kInstances}, {"rss_mb", kInstances}};
    for (const auto& [name, values] : per_instance) {
      r.Set(name, Median(values), samples.at(name));
      std::string list;
      for (double v : values) list += (list.empty() ? "" : " ") + Fmt(v);
      r.config["instances." + name] = list;
    }
    r.Set("failed_frac",
          Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          attempted);
  } else {
    SharedLayerMetrics(delta, c, &r);
    r.Set("cloud.stored_mb", Median(stored_mb), kInstances);
    r.Set("cloud.live_mb", Median(live_mb), kInstances);
    r.Set("trace.overhead_frac",
          1.0 - Ratio(c.ops / c_s, untimed.ops / untimed_s),
          c.ops + untimed.ops);
  }

  r.Config("seed", args.seed);
  r.Config("seconds", args.seconds);
  r.Config("clients", kClients);
  r.Config("cpus", cpus);
  r.Config("loop", "closed");
  r.Config("nproc", std::thread::hardware_concurrency());
  r.Config("instances", kInstances);
  if (sample_writes != 0 && !args.trace) {
    r.Config("space_sample_writes", sample_writes);
    r.Config("space_sampled_at_window_end", space_at_end);
  }
  r.Config("measured_s", c_s);
  r.Config("build_type", BG3_PERFBENCH_BUILD_TYPE);
#ifdef BG3_ENABLE_DCHECKS
  r.Config("dchecks", "on");
#else
  r.Config("dchecks", "off");
#endif
  const double contended = window_ticks.ContendedFrac();
  r.Config("host.contended_frac", contended);
  r.Config("host.contended_frac_setup", setup_ticks.ContendedFrac());
  r.Config("instances.host.contended_frac", contended_per_instance);
  r.Config("host.steal_frac",
           Ratio(static_cast<double>(window_ticks.steal),
                 static_cast<double>(window_ticks.total)));
  r.Config("host_contended", contended > kContendedFrac ? "true" : "false");
  r.Config("flush_policy",
           "GraphDB trees kSync + kReadOptimized; cluster WAL kPipelined "
           "group_size 1 wall_latency_scale 0, flush_group_pages 64 / "
           "flush_group_mutations 8192");

  const bool correct = r.check_misses == 0;
  const std::string doc = RenderReport(args, r, correct, attempted, failed);
  std::ofstream out(args.out);
  out << doc << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  for (const auto& f : r.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bg3_perfbench --workload follow|risk_ttl|rw_ro_sync "
                 "--seed N --seconds S --trace 0|1 --out FILE\n");
    return 2;
  }
  return Run(args);
}
