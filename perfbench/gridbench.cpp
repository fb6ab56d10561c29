// gridbench: closed-loop end-to-end benchmark over the real GridRM code.
//
// One process runs one workload (local_fresh, monitor_ingest or
// federated_grid) on a sim::Topology whose network runs in charge mode:
// simulated latency is accounted, never slept, so wall time is the
// program's own CPU and synchronisation cost. Client threads run a
// closed loop (each waits for its reply before taking the next op) over
// an operation sequence generated from --seed. Operations run in fixed
// batches; between batches, with every client parked, the harness
// settles background work and advances simulated time by a fixed step.
// Cache expiry, poll ticks and tsdb seals therefore fall on the same
// operation indices on every run and every commit.
//
// Output: human-readable lines, then one JSON object on the last line
// holding every metric, the deterministic counters and the output
// checks (perfbench/run.py turns it into the benchmark result).
//
// --trace 1 additionally records a root span per operation and, for a
// sample of operations after the counter window, replays the same
// inputs layer by layer through each layer's public entry points on
// the harness thread. Spans are written to --trace-out as JSON lines.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "gridrm/agents/snmp_codec.hpp"
#include "gridrm/core/site_poller.hpp"
#include "gridrm/dbc/result_io.hpp"
#include "gridrm/drivers/driver_common.hpp"
#include "gridrm/sim/topology.hpp"
#include "gridrm/sql/parser.hpp"
#include "gridrm/sql/vec/engine.hpp"
#include "gridrm/store/database.hpp"
#include "gridrm/store/federated_planner.hpp"
#include "gridrm/util/url.hpp"

namespace {

using namespace gridrm;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Small helpers.

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Deterministic per-operation random stream: op `index` of run `seed`
/// draws the same choices no matter which thread runs it or when.
util::Rng opRng(std::uint64_t seed, std::uint64_t index, std::uint64_t salt = 0) {
  return util::Rng(seed * 0x9e3779b97f4a7c15ULL ^ (index + 1) * 0xbf58476d1ce4e5b9ULL ^
                   salt * 0x94d049bb133111ebULL);
}

/// Position of op `index` within its batch's fixed mix: every batch
/// holds the same count of each op kind, and the seed only decides the
/// order (so which client runs which kind, and when) through an affine
/// permutation (a * pos + b) mod n with gcd(a, n) = 1. A fixed mix keeps
/// per-op counters and latency percentiles from drifting with the seed.
std::size_t batchSlot(std::uint64_t seed, std::uint64_t index, std::size_t n) {
  util::Rng rng = opRng(seed, index / n, 0x51u);
  std::uint64_t a = 1 + rng.below(n - 1);
  while (std::gcd(a, static_cast<std::uint64_t>(n)) != 1) a = a + 1 < n ? a + 1 : 1;
  const std::uint64_t b = rng.below(n);
  return static_cast<std::size_t>((a * (index % n) + b) % n);
}

/// Zipf(s) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(util::Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string resultText(const dbc::VectorResultSet& rs) {
  dbc::VectorResultSet copy(rs.metaData(), rs.rows());
  return dbc::serializeResultSet(copy);
}

std::vector<std::string> columnNames(const dbc::ResultSetMetaData& meta) {
  std::vector<std::string> names;
  for (const auto& c : meta.columns()) names.push_back(c.name);
  return names;
}

std::size_t columnIndex(const dbc::ResultSetMetaData& meta,
                        const std::string& name) {
  const auto& cols = meta.columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return i;
  }
  throw std::runtime_error("result has no column " + name);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::uint64_t opId = 0;
  /// Probe spans time a layer call that is not on the op's blocking
  /// path (e.g. the same statement run on the interpreter); they are
  /// excluded from the residual.
  bool probe = false;

  double us() const { return static_cast<double>(endNs - startNs) / 1000.0; }
};

class Tracer {
 public:
  /// Time `fn` as a span named `name` under `parent`; returns its id.
  template <typename Fn>
  std::int64_t span(const std::string& name, std::int64_t parent,
                    std::uint64_t opId, Fn&& fn, bool probe = false) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.opId = opId;
    s.probe = probe;
    s.id = nextId_++;
    s.startNs = nowNs();
    fn();
    s.endNs = nowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  std::int64_t root(const std::string& name, std::uint64_t opId,
                    std::int64_t startNs, std::int64_t endNs) {
    Span s;
    s.name = name;
    s.opId = opId;
    s.id = nextId_++;
    s.startNs = startNs;
    s.endNs = endNs;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (µs) of every span by id: its duration minus that of its
  /// non-probe children. For a root span this is the op's residual, the
  /// time no measured layer accounts for.
  std::map<std::int64_t, double> selfUs() const {
    std::map<std::int64_t, double> self;
    for (const auto& s : spans_) self[s.id] += s.us();
    for (const auto& s : spans_) {
      if (s.parent >= 0 && !s.probe) self[s.parent] -= s.us();
    }
    return self;
  }

  /// Median duration (µs) of every span with this name.
  double medianUs(const std::string& name) const {
    std::vector<double> v;
    for (const auto& s : spans_) {
      if (s.name == name) v.push_back(s.us());
    }
    return median(std::move(v));
  }

 private:
  std::vector<Span> spans_;
  std::int64_t nextId_ = 1;
};

// ---------------------------------------------------------------------
// Counters read from the public stats getters, summed over gateways.

struct Counters {
  std::uint64_t netRequests = 0;
  std::uint64_t netDatagrams = 0;
  std::uint64_t netBytes = 0;
  std::uint64_t wanBytes = 0;
  std::uint64_t parses = 0;
  sql::vec::VecEngineStats vec;
  std::uint64_t planHits = 0;
  std::uint64_t planLookups = 0;
  core::PoolStats pool;
  core::CacheStats cache;
  std::array<core::LaneStats, core::kLaneCount> lanes{};
  store::tsdb::TsdbStats tsdb;
  stream::StreamStats stream;
  global::GlobalStats coordinator;
  std::uint64_t fragmentRowsShipped = 0;
};

/// Every network endpoint of a topology, split into LAN (agents) and
/// WAN (gateway producers and directory replicas) for byte accounting.
struct Endpoints {
  std::vector<net::Address> lan;
  std::vector<net::Address> wan;
};

Endpoints collectEndpoints(sim::Topology& topo) {
  Endpoints e;
  for (std::size_t g = 0; g < topo.gatewayCount(); ++g) {
    for (const auto& url : topo.gateway(g).dataSources()) {
      auto u = util::Url::parse(url);
      if (u) e.lan.push_back({u->host(), u->port()});
    }
    if (auto* layer = topo.globalLayer(g)) e.wan.push_back(layer->producerAddress());
    e.lan.push_back(topo.gateway(g).eventAddress());
  }
  for (const auto& a : topo.directorySeeds()) e.wan.push_back(a);
  return e;
}

/// Open `perSource` pooled connections to every source of `gw` up front,
/// so measured ops never open one: an open is a request whose count
/// would depend on how many threads collide on one source.
void fillPool(core::Gateway& gw, std::size_t perSource) {
  for (const auto& url : gw.dataSources()) {
    std::vector<core::ConnectionManager::Lease> leases;
    for (std::size_t i = 0; i < perSource; ++i) {
      leases.push_back(gw.connectionManager().acquire(*util::Url::parse(url), {}));
    }
  }
}

Counters readCounters(sim::Topology& topo, const Endpoints& ends) {
  Counters c;
  net::Network& network = topo.network();
  c.netRequests = network.totalRequests();
  c.netDatagrams = network.totalDatagrams();
  for (const auto& a : ends.lan) {
    const auto s = network.stats(a);
    c.netBytes += s.bytesIn + s.bytesOut;
  }
  for (const auto& a : ends.wan) {
    const auto s = network.stats(a);
    c.netBytes += s.bytesIn + s.bytesOut;
    c.wanBytes += s.bytesIn + s.bytesOut;
  }
  c.parses = sql::parseSelectCount();
  c.vec = sql::vec::engineStats();
  for (std::size_t g = 0; g < topo.gatewayCount(); ++g) {
    core::Gateway& gw = topo.gateway(g);
    const auto plan = gw.planCache().stats();
    c.planHits += plan.hits + plan.statementHits + plan.federatedHits;
    c.planLookups += plan.hits + plan.statementHits + plan.federatedHits +
                     plan.misses + plan.statementMisses + plan.federatedMisses;
    const auto pool = gw.connectionManager().stats();
    c.pool.acquisitions += pool.acquisitions;
    c.pool.poolHits += pool.poolHits;
    const auto cache = gw.cache().stats();
    c.cache.hits += cache.hits;
    c.cache.misses += cache.misses;
    const auto sched = gw.scheduler().stats();
    for (std::size_t l = 0; l < core::kLaneCount; ++l) {
      c.lanes[l].executed += sched.lanes[l].executed;
      c.lanes[l].cancelled += sched.lanes[l].cancelled;
      c.lanes[l].rejected += sched.lanes[l].rejected;
      c.lanes[l].maxQueued = std::max(c.lanes[l].maxQueued, sched.lanes[l].maxQueued);
    }
    if (auto* layer = topo.globalLayer(g)) {
      const auto gs = layer->stats();
      c.fragmentRowsShipped += gs.fragmentRowsShipped;
      if (g == 0) c.coordinator = gs;
    }
  }
  if (auto* ts = topo.gateway(0).timeSeriesStore()) c.tsdb = ts->stats();
  c.stream = topo.gateway(0).streamStats();
  return c;
}

// ---------------------------------------------------------------------
// Metrics, checks and the workload interface.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks_.push_back({name, ok, detail});
  }
  bool allChecksPass() const {
    for (const auto& c : checks_) {
      if (!c.ok) return false;
    }
    return true;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  const std::vector<Check>& checks() const { return checks_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
};

/// Outcome of one client operation.
struct OpResult {
  bool ok = true;
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t clients() const = 0;
  virtual std::size_t batchOps() const = 0;
  /// Batches in the fixed counter window: the deterministic counters
  /// (requests, bytes, parses, ...) are read over exactly these ops.
  virtual std::uint64_t windowBatches() const { return 32; }
  /// Set-ups per run, fixed so that the reported median covers the same
  /// set-ups on every commit; chosen to take a few seconds.
  virtual std::size_t setUps() const = 0;
  /// Build the world: topology, warm-up, history, subscriptions.
  virtual void setUp(std::uint64_t seed) = 0;
  /// Name of op `index`'s kind (root span name).
  virtual std::string kind(std::uint64_t index) const = 0;
  /// Run op `index` on a client thread.
  virtual OpResult run(std::uint64_t index) = 0;
  /// Work one extra thread does in every batch beside the clients.
  virtual bool hasSideWork() const { return false; }
  virtual void sideWork(std::uint64_t /*batch*/) {}
  /// Single-threaded, all clients parked: settle background work.
  virtual void settle() = 0;
  /// Single-threaded: advance simulated time past batch `batch`.
  virtual void advance(std::uint64_t batch) = 0;
  virtual sim::Topology& topology() = 0;
  virtual const Endpoints& endpoints() const = 0;
  /// Replay op `index` layer by layer under root span `root`.
  virtual void replay(std::uint64_t index, Tracer& tracer, std::int64_t root) = 0;
  /// Replay one batch of side work (monitor: the harvester's ingest).
  /// `startNs`/`endNs` bound the side work as it ran in the batch.
  virtual void replaySide(std::uint64_t /*batch*/, Tracer& /*tracer*/, std::int64_t /*startNs*/,
                          std::int64_t /*endNs*/) {}
  /// Called once, after the last set-up and before the first op.
  virtual void beginMeasure() {}
  /// End-of-run output checks and workload-specific metrics.
  virtual void finish(Report& report, double wallSeconds) = 0;
};

/// Seed of the simulated world (host models, links). Fixed, so the
/// workload seed changes only the operation sequence and a run's cost
/// does not move with the hosts' simulated load.
constexpr std::uint64_t kWorldSeed = 1;

/// Processor columns every host-level query below projects.
const char* const kProcessorCols = "HostName, ClusterName, Load1, Load5";

// ---------------------------------------------------------------------
// local_fresh: one gateway, one site with every agent kind; single-source
// queries over all seven drivers plus multi-source fan-outs, uncached.

class LocalFresh final : public Workload {
 public:
  std::size_t clients() const override { return 4; }
  std::size_t batchOps() const override { return 64; }
  std::uint64_t windowBatches() const override { return 96; }
  std::size_t setUps() const override { return 300; }

  void setUp(std::uint64_t seed) override {
    seed_ = seed;
    sim::TopologyOptions o;
    o.gateways = 1;
    o.hostsPerGateway = kHosts;
    o.seed = kWorldSeed;
    o.federation = false;
    o.fullAgentSet = true;
    o.gatewayBase.queryWorkers = 4;
    topo_ = std::make_unique<sim::Topology>(o);
    core::Gateway& gw = topo_->gateway(0);
    const std::string& admin = topo_->adminToken(0);
    token_ = gw.openSession(core::Principal::monitor("portal"));
    agents::SiteSimulation& site = topo_->site(0);
    for (std::size_t i = 0; i < site.cluster().size(); ++i) {
      hosts_.insert(site.cluster().host(i).name());
    }
    head_ = site.cluster().host(0).name();

    // Coarse-grained drivers keep a per-connection response cache; which
    // pooled connection a query lands on depends on thread timing, so
    // "fresh" sources disable it (cachems=0) to keep request counts a
    // pure function of the op sequence.
    for (const std::string driver : {"ganglia", "nws", "mds"}) {
      const std::string url = site.headUrl(driver);
      gw.removeDataSource(admin, url);
      gw.addDataSource(admin, url + "?cachems=0");
    }
    for (const auto& url : gw.dataSources()) {
      const auto u = util::Url::parse(url);
      Source s;
      s.url = url;
      s.driver = u->subprotocol();
      s.host = u->host();
      s.agent = net::Address{u->host(), u->port()};
      if (s.driver == "nws") {
        s.sql = {"SELECT HostName, Resource, Measurement, Forecast FROM NetworkForecast",
                 "SELECT Resource, Forecast, ForecastError FROM NetworkForecast"};
        s.native = "LIST";
      } else if (s.driver == "mds") {
        s.sql = {"SELECT HostName, OSName, Architecture FROM Host",
                 std::string("SELECT ") + kProcessorCols + " FROM Processor"};
        s.native = "SEARCH o=grid sub (objectClass=GlueHost)";
        fanOutUrls_.push_back(url);
      } else {
        s.sql = {std::string("SELECT ") + kProcessorCols + " FROM Processor",
                 "SELECT HostName, RAMSize, RAMAvailable FROM Memory"};
        if (s.driver == "ganglia") s.native = "dump";
        if (s.driver == "netlogger") s.native = "EVENTS";
        if (s.driver == "scms") s.native = "NODES";
        if (s.driver == "sql") {
          s.native = "SELECT HostName, Load1 FROM Processor";
        }
        if (s.driver == "snmp") {
          agents::snmp::Pdu pdu;
          pdu.type = agents::snmp::PduType::Get;
          pdu.community = "public";
          pdu.requestId = 1;
          pdu.varbinds.push_back({agents::snmp::Oid::parse(agents::snmp::oids::kSysUpTime), {}});
          s.native = agents::snmp::encodePdu(pdu);
        }
        fanOutUrls_.push_back(url);
      }
      if (s.driver == "snmp") {
        snmpSources_.push_back(sources_.size());
      } else {
        headSources_[s.driver] = sources_.size();
      }
      sources_.push_back(std::move(s));
    }
    drivers_ = {"snmp", "ganglia", "nws", "netlogger", "scms", "sql", "mds"};

    fillPool(gw, clients());
    // Warm every statement's parsed plan once, serially, as a running
    // gateway would have: concurrent first uses of a cold plan parse it
    // a timing-dependent number of times.
    core::QueryOptions warm;
    warm.useCache = false;
    for (const auto& s : sources_) {
      for (const auto& sql : s.sql) {
        (void)gw.submitQuery(token_, {s.url}, sql, warm);
        // Parsed here, not per op, so sql.parse_count counts only the
        // gateway's own parses.
        std::vector<std::string>& cols = projection_[sql];
        cols.clear();
        for (const auto& item : sql::parseSelect(sql).items) cols.push_back(item.expr->name);
      }
    }
    ends_ = collectEndpoints(*topo_);
  }

  std::string kind(std::uint64_t index) const override {
    const Op op = makeOp(index);
    return op.fanOut ? "op.fan_out" : "op.single." + sources_[op.source].driver;
  }

  OpResult run(std::uint64_t index) override {
    const Op op = makeOp(index);
    core::QueryOptions qo;
    qo.useCache = false;
    core::Gateway& gw = topo_->gateway(0);
    if (op.fanOut) {
      auto r = gw.submitQuery(token_, fanOutUrls_, op.sql, qo);
      if (!r.failures.empty()) return {false, r.failures.front().message};
      // Rows per source: one per SNMP host, the whole cluster per head
      // source, the head alone for NetLogger.
      const std::size_t want = kHosts + 4 * kHosts + 1;
      if (r.rows->rowCount() != want) {
        return {false, "fan-out returned " + std::to_string(r.rows->rowCount()) + " rows"};
      }
      return {};
    }
    const Source& s = sources_[op.source];
    auto r = gw.submitQuery(token_, {s.url}, op.sql, qo);
    if (!r.failures.empty()) return {false, r.failures.front().message};
    return checkInventory(s, op.sql, r.rows->underlying());
  }

  void settle() override { topo_->quiesce(); }
  void advance(std::uint64_t /*batch*/) override {
    topo_->loop().runFor(kStep);
  }
  sim::Topology& topology() override { return *topo_; }
  const Endpoints& endpoints() const override { return ends_; }

  void replay(std::uint64_t index, Tracer& t, std::int64_t root) override {
    const Op op = makeOp(index);
    core::Gateway& gw = topo_->gateway(0);
    const core::Principal principal = core::Principal::monitor("portal");
    core::QueryOptions qo;
    qo.useCache = false;
    t.span("core.security.authorize", root, index, [&] {
      (void)gw.authorize(token_, core::Operation::RealTimeQuery);
    });
    if (op.fanOut) {
      t.span("core.request.query", root, index, [&] {
        (void)gw.requestManager().query(principal, fanOutUrls_, op.sql, qo);
      });
      return;
    }
    const Source& s = sources_[op.source];
    const std::int64_t rq = t.span("core.request.query", root, index, [&] {
      (void)gw.requestManager().queryOne(principal, s.url, op.sql, qo);
    });
    std::optional<core::ConnectionManager::Lease> lease;
    t.span("core.pool.acquire", rq, index, [&] {
      lease.emplace(gw.connectionManager().acquire(*util::Url::parse(s.url), {}));
    });
    const std::int64_t ex = t.span("drivers.execute." + s.driver, rq, index, [&] {
      auto stmt = (*lease)->createStatement();
      (void)stmt->executeQuery(op.sql);
    });
    // The driver's own parse is a plan-cache hit; this probe times the
    // uncached parse + GLUE bind that a cold or evicted plan costs.
    t.span("drivers.parse", ex, index, [&] {
      (void)drivers::ParsedQuery::parse(op.sql, gw.schemaManager().schema());
    }, /*probe=*/true);
    const std::string agent = s.driver;
    t.span("agents.native." + agent, ex, index, [&] {
      (void)gw.network().request({"gateway", 0}, s.agent, s.native);
    });
  }

  void finish(Report& /*report*/, double /*wallSeconds*/) override {}

 private:
  static constexpr std::size_t kHosts = 16;
  static constexpr util::Duration kStep = util::kSecond;

  struct Source {
    std::string url;
    std::string driver;
    std::string host;
    net::Address agent;
    std::vector<std::string> sql;
    std::string native;  // the driver's own wire request, replayed raw
  };
  struct Op {
    bool fanOut = false;
    std::size_t source = 0;
    std::string sql;
  };

  Op makeOp(std::uint64_t index) const {
    util::Rng rng = opRng(seed_, index);
    Op op;
    // Per batch of 64: 8 fan-outs and 8 single-source queries per driver.
    const std::size_t slot = batchSlot(seed_, index, batchOps());
    if (slot < 8) {
      op.fanOut = true;
      op.sql = rng.below(2) == 0
                   ? std::string("SELECT ") + kProcessorCols + " FROM Processor"
                   : "SELECT HostName, RAMSize, RAMAvailable FROM Memory";
      return op;
    }
    // SNMP picks one of the per-host agents.
    const std::string& driver = drivers_[(slot - 8) % drivers_.size()];
    op.source = driver == "snmp" ? snmpSources_[rng.below(snmpSources_.size())]
                                 : headSources_.at(driver);
    const Source& s = sources_[op.source];
    op.sql = s.sql[rng.below(s.sql.size())];
    return op;
  }

  /// Row counts and GLUE columns must match the source's inventory.
  OpResult checkInventory(const Source& s, const std::string& sqlText,
                          const dbc::VectorResultSet& rs) const {
    const std::vector<std::string>& want = projection_.at(sqlText);
    if (columnNames(rs.metaData()) != want) return {false, "GLUE columns differ from projection"};
    std::set<std::string> seen;
    const bool hasHost = std::find(want.begin(), want.end(), "HostName") != want.end();
    if (hasHost) {
      const std::size_t hc = columnIndex(rs.metaData(), "HostName");
      for (const auto& row : rs.rows()) seen.insert(row[hc].toString());
    }
    std::size_t rows = 0;
    std::set<std::string> hosts;
    if (s.driver == "snmp") {
      rows = 1;
      hosts = {s.host};
    } else if (s.driver == "netlogger") {
      rows = 1;
      hosts = {head_};
    } else if (s.driver == "nws") {
      rows = 3;  // latency, bandwidth, availableCpu of the head sensor
      hosts = {head_};
    } else {
      rows = kHosts;
      hosts = hosts_;
    }
    if (rs.rowCount() != rows) {
      return {false, s.driver + " returned " + std::to_string(rs.rowCount()) + " rows"};
    }
    if (hasHost && seen != hosts) return {false, s.driver + " host set differs from inventory"};
    return {};
  }

  std::uint64_t seed_ = 1;
  std::unique_ptr<sim::Topology> topo_;
  std::string token_;
  std::set<std::string> hosts_;
  std::string head_;
  std::vector<Source> sources_;
  std::vector<std::size_t> snmpSources_;
  std::map<std::string, std::size_t> headSources_;
  std::vector<std::string> fanOutUrls_;
  std::vector<std::string> drivers_;
  std::map<std::string, std::vector<std::string>> projection_;  // sql -> columns
  Endpoints ends_;
};

// ---------------------------------------------------------------------
// monitor_ingest: a 64-host site harvested into the tsdb and the stream
// engine while three readers mix cached views and history queries.

class MonitorIngest final : public Workload {
 public:
  std::size_t clients() const override { return 3; }
  std::size_t batchOps() const override { return 96; }
  std::size_t setUps() const override { return 12; }
  bool hasSideWork() const override { return true; }

  void setUp(std::uint64_t seed) override {
    seed_ = seed;
    sim::TopologyOptions o;
    o.gateways = 1;
    o.hostsPerGateway = kHosts;
    o.seed = kWorldSeed;
    o.federation = false;
    o.gatewayBase.queryWorkers = 4;
    // Raw history outlives the readers' 1 h windows (which reach back at
    // most 66 min) but not the 75 min pre-fill, so retention prunes
    // while every window stays exact. A window reaching past the raw
    // TTL undercounts whenever the rollup rewrite does not apply.
    o.gatewayBase.tsdb.rawTtl = 70 * kMinute;
    topo_ = std::make_unique<sim::Topology>(o);
    core::Gateway& gw = topo_->gateway(0);
    urls_ = gw.dataSources();
    std::sort(urls_.begin(), urls_.end());
    for (std::size_t i = 0; i < urls_.size(); ++i) urlIndex_[urls_[i]] = i;

    // History pre-fill: 75 simulated minutes of 10 s polls, enough for
    // the 1 h windows the readers aggregate over. The pre-fill polls one
    // host after another so the sealed segments, and so
    // history_bytes_per_sample, are the same on every run. (Serial
    // polls also sidestep RequestManager::recordHistory's non-atomic
    // check-then-create of the history table: concurrent first polls
    // can replace the table and lose rows, which the row-conservation
    // check caught.)
    core::QueryOptions fill;
    fill.useCache = false;
    fill.recordHistory = true;
    fill.lane = core::Lane::Background;
    for (util::Duration t = 0; t < kPrefill; t += kPrefillInterval) {
      topo_->loop().runFor(kPrefillInterval);
      for (const auto& url : urls_) {
        (void)gw.requestManager().queryOne(core::Principal::monitor("harvester"), url, kPollSql,
                                           fill);
      }
      for (auto& times : pollTimes_) times.push_back(topo_->loop().now());
    }
    topo_->quiesce();
    historyBytesPerSample_ = gw.timeSeriesStore()->stats().bytesPerSample();
    // Measured phase: the hosts split into kGroups pollers, one ticked
    // per batch, so each host is polled every kGroups steps and every
    // batch ingests the same number of rows.
    for (std::size_t g = 0; g < kGroups; ++g) {
      pollers_[g] = std::make_unique<core::SitePoller>(
          gw.requestManager(), topo_->loop().clock(), core::Principal::monitor("harvester"));
      pollers_[g]->setStreamSink(&gw.streamEngine());
    }
    for (std::size_t i = 0; i < urls_.size(); ++i) {
      pollers_[i % kGroups]->addTask({urls_[i], kPollSql, kStep, true, true});
    }
    // Opened after the pre-fill so the idle timeout counts from here.
    token_ = gw.openSession(core::Principal::monitor("portal"));

    // ~256 continuous queries: mostly duplicates of eight statements
    // (many portal users watching the same views), plus per-host ones.
    const std::vector<std::string> shared = {
        "SELECT HostName, Load1 FROM Processor WHERE Load1 > 0.5",
        "SELECT HostName, Load1, Load5 FROM Processor WHERE Load5 > 1.0",
        "SELECT HostName, IdlePct FROM Processor WHERE IdlePct < 50",
        "SELECT HostName, UserPct FROM Processor WHERE UserPct > 20",
        "SELECT HostName, ClockSpeed FROM Processor WHERE ClockSpeed >= 2000",
        "SELECT HostName, CPUCount, Load1 FROM Processor WHERE CPUCount >= 2",
        "SELECT HostName, Load15 FROM Processor",
        "SELECT HostName, SystemPct FROM Processor WHERE SystemPct > 5"};
    // A fixed mix: 30 of each shared statement; the seed picks the hosts
    // of the per-host ones.
    util::Rng rng = opRng(seed, 0, 0x5u);
    for (std::size_t i = 0, k = 0; i < kSubscriptions; ++i) {
      std::string sql;
      if (i % 16 == 15) {
        sql = "SELECT HostName, Load1 FROM Processor WHERE HostName = '" +
              topo_->site(0).cluster().host(rng.below(kHosts)).name() + "'";
      } else {
        sql = shared[k++ % shared.size()];
      }
      subSql_.push_back(sql);
      gw.subscribeQuery(token_, "*", sql, [this](const stream::StreamDelta& d) { onDelta(d); });
    }

    // Reader views: keys distinct from the poller's, so its cache
    // refreshes never decide whether a reader hits.
    views_ = {std::string("SELECT ") + kProcessorCols + " FROM Processor",
              "SELECT HostName, UserPct, SystemPct, IdlePct FROM Processor",
              "SELECT HostName, RAMAvailable FROM Memory"};
    zipf_ = std::make_unique<Zipf>(urls_.size() * views_.size(), 1.1);
    // Deterministic key order behind the Zipf ranks.
    util::Rng perm = opRng(seed, 0, 0x7u);
    for (std::size_t i = 0; i < urls_.size() * views_.size(); ++i) keyOrder_.push_back(i);
    for (std::size_t i = keyOrder_.size(); i > 1; --i) {
      std::swap(keyOrder_[i - 1], keyOrder_[perm.below(i)]);
    }
    // Readers and the harvester together touch a source at most this
    // often at once.
    fillPool(gw, clients() + 1);
    core::QueryOptions warm;
    warm.useCache = false;
    for (const auto& view : views_) (void)gw.submitQuery(token_, {urls_.front()}, view, warm);
    ends_ = collectEndpoints(*topo_);
  }

  std::string kind(std::uint64_t index) const override {
    switch (makeOp(index).type) {
      case OpType::View: return "op.view";
      case OpType::Range: return "op.history_range";
      default: return "op.history_group_by";
    }
  }

  OpResult run(std::uint64_t index) override {
    const Op op = makeOp(index);
    core::Gateway& gw = topo_->gateway(0);
    if (op.type == OpType::View) {
      core::QueryOptions qo;
      qo.cacheTtl = kViewTtl;
      auto r = gw.submitQuery(token_, {op.url}, op.sql, qo);
      if (!r.failures.empty()) return {false, r.failures.front().message};
      if (r.rows->rowCount() != 1) return {false, "view returned wrong row count"};
      return {};
    }
    auto rs = gw.submitHistoricalQuery(token_, op.sql);
    if (op.type == OpType::Range) {
      const std::size_t expect = pollsIn(urlIndex_.at(op.url), op.lo, op.hi);
      if (rs->rowCount() != expect) {
        return {false, "range scan returned " + std::to_string(rs->rowCount()) +
                           " rows, want " + std::to_string(expect)};
      }
      return {};
    }
    if (rs->rowCount() != urls_.size()) return {false, "group-by returned wrong group count"};
    for (const auto& row : rs->rows()) {
      const std::size_t expect = pollsIn(urlIndex_.at(row[0].toString()), op.lo, op.hi);
      if (static_cast<std::size_t>(row[1].asInt()) != expect) {
        return {false, "group-by COUNT(*) " + row[1].toString() + " != " + std::to_string(expect)};
      }
    }
    return {};
  }

  void beginMeasure() override {
    measureStartSim_ = topo_->loop().now();
    rowsAtStart_ = topo_->gateway(0).requestManager().stats().rowsRecorded;
    drawBatchKeys(0);
  }

  void sideWork(std::uint64_t batch) override {
    tickStartNs_.store(nowNs(), std::memory_order_release);
    const std::size_t g = batch % kGroups;
    const util::TimePoint now = topo_->loop().now();
    pollers_[g]->tick();
    std::scoped_lock lock(pollMu_);
    pollTimes_[g].push_back(now);
  }

  void settle() override { topo_->quiesce(); }

  void advance(std::uint64_t batch) override {
    topo_->loop().runFor(kStep);
    // Retention every simulated minute: seals rollup buckets and evicts
    // raw rows past the tier TTL.
    if ((batch + 1) % 60 == 0) pruned_ += topo_->gateway(0).enforceRetention();
    drawBatchKeys(batch + 1);
  }

  sim::Topology& topology() override { return *topo_; }
  const Endpoints& endpoints() const override { return ends_; }

  void replay(std::uint64_t index, Tracer& t, std::int64_t root) override {
    const Op op = makeOp(index);
    core::Gateway& gw = topo_->gateway(0);
    if (op.type == OpType::View) {
      t.span("core.security.authorize", root, index, [&] {
        (void)gw.authorize(token_, core::Operation::RealTimeQuery);
      });
      t.span("core.cache.lookup", root, index, [&] {
        (void)gw.cache().lookup(core::CacheController::key(op.url, op.sql));
      });
      return;
    }
    t.span("core.security.authorize", root, index, [&] {
      (void)gw.authorize(token_, core::Operation::HistoricalQuery);
    });
    std::optional<sql::SelectStatement> stmt;
    t.span("sql.parse", root, index, [&] { stmt.emplace(sql::parseSelect(op.sql)); });
    std::unique_ptr<dbc::VectorResultSet> raw;
    t.span("store.tsdb.query", root, index, [&] {
      (void)gw.timeSeriesStore()->query(*stmt);
    });
    // The same statement on the SQL executor over the window's raw rows.
    const auto rawStmt = sql::parseSelect(
        "SELECT * FROM HistoryProcessor WHERE RecordedAt >= " + std::to_string(op.lo) +
        " AND RecordedAt < " + std::to_string(op.hi));
    raw = gw.timeSeriesStore()->query(rawStmt);
    t.span("sql.execute_select", root, index, [&] {
      (void)store::executeSelect(*stmt, raw->metaData().columns(), raw->rows());
    }, /*probe=*/true);
  }

  void replaySide(std::uint64_t batch, Tracer& t, std::int64_t startNs,
                  std::int64_t endNs) override {
    // Replay this batch's harvest into a benchmark-owned tsdb and stream
    // engine holding the same subscriptions: the same rows through the
    // same layer entry points, without disturbing the gateway's state.
    core::Gateway& gw = topo_->gateway(0);
    if (!replicaTsdb_) {
      replicaTsdb_ = std::make_unique<store::tsdb::TimeSeriesStore>(topo_->loop().clock());
      replicaStream_ = std::make_unique<stream::ContinuousQueryEngine>(topo_->loop().clock());
      for (const auto& sql : subSql_) replicaStream_->subscribe("*", sql, [](const stream::StreamDelta&) {});
    }
    const std::int64_t root = t.root("ingest.batch", batch, startNs, endNs);
    core::QueryOptions qo;
    qo.useCache = false;
    for (std::size_t i = 0; i < urls_.size(); i += 8) {
      auto r = gw.requestManager().queryOne(core::Principal::monitor("harvester"), urls_[i], kPollSql, qo);
      if (!r.rows) continue;
      const dbc::VectorResultSet& rs = r.rows->underlying();
      const std::string table = "HistoryProcessor";
      if (!replicaTsdb_->hasTable(table)) {
        std::vector<dbc::ColumnInfo> cols{{"Source", util::ValueType::String, "", table},
                                          {"RecordedAt", util::ValueType::Int, "us", table}};
        for (const auto& c : rs.metaData().columns()) cols.push_back(c);
        replicaTsdb_->createTable(table, cols, "RecordedAt");
      }
      t.span("store.tsdb.append", root, batch, [&] {
        for (const auto& row : rs.rows()) {
          std::vector<util::Value> out{util::Value(urls_[i]), util::Value(topo_->loop().now())};
          out.insert(out.end(), row.begin(), row.end());
          replicaTsdb_->append(table, std::move(out));
        }
      }, true);
      t.span("stream.on_rows", root, batch, [&] {
        replicaStream_->onRows(urls_[i], "Processor", rs);
      }, true);
    }
  }

  void finish(Report& r, double wallSeconds) override {
    core::Gateway& gw = topo_->gateway(0);
    topo_->quiesce();
    const auto stats = gw.requestManager().stats();
    const auto count = gw.submitHistoricalQuery(token_, "SELECT COUNT(*) FROM HistoryProcessor");
    const auto queryable = static_cast<std::uint64_t>(count->rows().at(0).at(0).asInt());
    r.check("monitor_ingest.rows_conserved",
            stats.rowsRecorded == queryable + pruned_,
            "harvested " + std::to_string(stats.rowsRecorded) + " = queryable " +
                std::to_string(queryable) + " + pruned " + std::to_string(pruned_));
    const auto ss = gw.streamStats();
    r.check("monitor_ingest.stream_rows_conserved",
            ss.rowsQueued == ss.rowsDelivered + ss.rowsDropped,
            "matched " + std::to_string(ss.rowsQueued) + " = delivered " +
                std::to_string(ss.rowsDelivered) + " + dropped " + std::to_string(ss.rowsDropped));
    r.check("monitor_ingest.consumer_rows", consumerRows_.load() == ss.rowsDelivered,
            "consumer saw " + std::to_string(consumerRows_.load()) + " rows");
    const double measuredRows = static_cast<double>(stats.rowsRecorded - rowsAtStart_);
    r.set("ingest_rows_per_s", ratio(measuredRows, wallSeconds), "1/s");
    std::vector<double> lags;
    {
      std::scoped_lock lock(lagMu_);
      lags = lagUs_;
    }
    r.set("delta_lag_p50_us", quantile(lags, 0.5), "us");
    r.set("delta_lag_p99_us", quantile(lags, 0.99), "us");
    r.set("delta_lag_samples", static_cast<double>(lags.size()), "count");
    r.set("history_bytes_per_sample", historyBytesPerSample_, "B");
  }

 private:
  static constexpr std::size_t kHosts = 64;
  static constexpr std::size_t kSubscriptions = 256;
  static constexpr std::size_t kViews = 76;  // view slots per batch
  /// Portal views accept 30 s staleness: with 76 distinct keys a batch,
  /// a 5 s TTL left only two thirds of views hits, which put the median
  /// op on the hit/miss boundary.
  static constexpr util::Duration kViewTtl = 30 * util::kSecond;
  static constexpr util::Duration kStep = util::kSecond;
  static constexpr util::Duration kPrefillInterval = 10 * util::kSecond;
  static constexpr util::Duration kPrefill = 75 * 60 * util::kSecond;
  static constexpr util::Duration kMinute = 60 * util::kSecond;
  static constexpr const char* kPollSql = "SELECT * FROM Processor";

  enum class OpType { View, Range, GroupBy };
  struct Op {
    OpType type = OpType::View;
    std::string url;
    std::string sql;
    util::TimePoint lo = 0;
    util::TimePoint hi = 0;
  };

  Op makeOp(std::uint64_t index) const {
    util::Rng rng = opRng(seed_, index);
    Op op;
    // Per batch of 96: 76 cached views, 15 range scans, 5 GROUP BYs.
    const std::size_t slot = batchSlot(seed_, index, batchOps());
    // The batch's simulated instant is fixed by the op index.
    const util::TimePoint now = measureStartSim_ + static_cast<util::TimePoint>(index / batchOps()) * kStep;
    if (slot >= 20) {
      const std::size_t key = batchKeys_[slot - 20];
      op.url = urls_[key % urls_.size()];
      op.sql = views_[key / urls_.size()];
      return op;
    }
    if (slot >= 5) {
      op.type = OpType::Range;
      op.url = urls_[rng.below(urls_.size())];
      const std::string& url = op.url;
      op.hi = now;  // excludes the poll running concurrently at `now`
      op.lo = now - static_cast<util::Duration>(60 + rng.below(240)) * util::kSecond;
      op.sql = "SELECT HostName, Load1, Load5 FROM HistoryProcessor WHERE Source = '" + url +
               "' AND RecordedAt >= " + std::to_string(op.lo) + " AND RecordedAt < " +
               std::to_string(op.hi);
      return op;
    }
    op.type = OpType::GroupBy;
    // A 1 h window aligned to the 1 m rollup buckets, ending at least a
    // minute back so the concurrent poll never falls inside it.
    op.hi = (now / kMinute - 1 - static_cast<util::TimePoint>(rng.below(5))) * kMinute;
    op.lo = op.hi - 60 * kMinute;
    op.sql = "SELECT Source, COUNT(*), AVG(Load1), MAX(Load5) FROM HistoryProcessor "
             "WHERE RecordedAt >= " + std::to_string(op.lo) + " AND RecordedAt < " +
             std::to_string(op.hi) + " GROUP BY Source";
    return op;
  }

  /// The current batch's view keys: kViews distinct Zipf draws, so no
  /// two readers miss on one key at once. The gateway's single flight
  /// has a window in which a second miss on a key just settled still
  /// refetches, which would make request counts timing-dependent. Keys
  /// repeat across batches, so most views are still cache hits.
  /// Between batches only (advance and beginMeasure).
  void drawBatchKeys(std::uint64_t batch) {
    util::Rng rng = opRng(seed_, batch, 0x9u);
    std::set<std::size_t> seen;
    batchKeys_.clear();
    while (batchKeys_.size() < kViews) {
      const std::size_t key = keyOrder_[zipf_->draw(rng)];
      if (seen.insert(key).second) batchKeys_.push_back(key);
    }
  }

  /// Polls of host `host` in [lo, hi): each records one row.
  std::size_t pollsIn(std::size_t host, util::TimePoint lo, util::TimePoint hi) const {
    std::scoped_lock lock(pollMu_);
    const auto& times = pollTimes_[host % kGroups];
    return static_cast<std::size_t>(std::lower_bound(times.begin(), times.end(), hi) -
                                    std::lower_bound(times.begin(), times.end(), lo));
  }

  void onDelta(const stream::StreamDelta& d) {
    consumerRows_.fetch_add(d.rows.size(), std::memory_order_relaxed);
    if (deltaCount_.fetch_add(1, std::memory_order_relaxed) % 8 != 0) return;
    const std::int64_t start = tickStartNs_.load(std::memory_order_acquire);
    if (start == 0) return;
    const double lag = static_cast<double>(nowNs() - start) / 1000.0;
    std::scoped_lock lock(lagMu_);
    lagUs_.push_back(lag);
  }

  std::uint64_t seed_ = 1;
  std::unique_ptr<sim::Topology> topo_;
  static constexpr std::size_t kGroups = 4;
  std::array<std::unique_ptr<core::SitePoller>, kGroups> pollers_;
  std::map<std::string, std::size_t> urlIndex_;
  std::string token_;
  std::vector<std::string> urls_;
  std::vector<std::string> views_;
  std::vector<std::string> subSql_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<std::size_t> keyOrder_;
  std::vector<std::size_t> batchKeys_;
  util::TimePoint measureStartSim_ = 0;
  mutable std::mutex pollMu_;
  std::array<std::vector<util::TimePoint>, kGroups> pollTimes_;
  std::uint64_t rowsAtStart_ = 0;
  double historyBytesPerSample_ = 0;
  std::size_t pruned_ = 0;
  std::atomic<std::int64_t> tickStartNs_{0};
  std::atomic<std::uint64_t> consumerRows_{0};
  std::atomic<std::uint64_t> deltaCount_{0};
  std::mutex lagMu_;
  std::vector<double> lagUs_;
  std::unique_ptr<store::tsdb::TimeSeriesStore> replicaTsdb_;
  std::unique_ptr<stream::ContinuousQueryEngine> replicaStream_;
  Endpoints ends_;
};

// ---------------------------------------------------------------------
// federated_grid: 8 gateways x 16 hosts; two clients at the coordinator
// run push-down aggregates, a ship-all statement and single-host
// remote queries, uncached.

class FederatedGrid final : public Workload {
 public:
  std::size_t clients() const override { return 2; }
  std::size_t batchOps() const override { return 32; }
  std::size_t setUps() const override { return 100; }

  void setUp(std::uint64_t seed) override {
    seed_ = seed;
    sim::TopologyOptions o;
    o.gateways = kSites;
    o.hostsPerGateway = kHosts;
    o.seed = kWorldSeed;
    o.federation = true;
    topo_ = std::make_unique<sim::Topology>(o);
    core::Gateway& gw = topo_->gateway(0);
    token_ = gw.openSession(core::Principal::monitor("scheduler"));
    for (std::size_t s = 0; s < kSites; ++s) {
      std::vector<std::string> siteUrls = topo_->gateway(s).dataSources();
      std::sort(siteUrls.begin(), siteUrls.end());
      for (const auto& u : siteUrls) allUrls_.push_back(u);
      siteUrls_.push_back(siteUrls);
      for (std::size_t h = 0; h < kHosts; ++h) {
        allHosts_.push_back(topo_->site(s).cluster().host(h).name());
      }
    }
    // Warm the coordinator's directory lookup cache and every site's
    // fragment plan, as a long-running grid would be.
    core::QueryOptions qo;
    qo.useCache = false;
    for (const auto& sql : kPushdown) {
      (void)topo_->globalLayer(0)->federatedQuery(token_, allUrls_, sql, qo);
    }
    topo_->quiesce();
    for (std::size_t s = 0; s < kSites; ++s) fillPool(topo_->gateway(s), clients() + 1);
    ends_ = collectEndpoints(*topo_);
  }

  std::string kind(std::uint64_t index) const override {
    const Op op = makeOp(index);
    if (op.type == OpType::Remote) return "op.global_query";
    return op.type == OpType::ShipAll ? "op.federated_ship_all" : "op.federated_pushdown";
  }

  OpResult run(std::uint64_t index) override {
    const Op op = makeOp(index);
    global::GlobalLayer& layer = *topo_->globalLayer(0);
    core::QueryOptions qo;
    qo.useCache = false;
    if (op.type == OpType::Remote) {
      auto r = layer.globalQuery(token_, {op.url}, op.sql, qo);
      if (!r.failures.empty()) return {false, r.failures.front().message};
      const auto& rs = r.rows->underlying();
      if (rs.rowCount() != 1) return {false, "remote host query returned wrong row count"};
      const std::size_t hc = columnIndex(rs.metaData(), "HostName");
      if (rs.rows()[0][hc].toString() != op.host) return {false, "remote host query: wrong host"};
      return {};
    }
    const auto mode = op.type == OpType::ShipAll ? global::FederatedMode::ShipAllRows
                                                 : global::FederatedMode::Auto;
    auto r = layer.federatedQuery(token_, allUrls_, op.sql, qo, mode);
    if (!r.failures.empty() || !r.staleSources.empty()) {
      return {false, r.failures.empty() ? "stale sources" : r.failures.front().message};
    }
    const auto& rs = r.rows->underlying();
    if (rs.rowCount() == 0) return {false, "federated query returned no groups"};
    const std::size_t cc = columnIndex(rs.metaData(), "count(*)");
    std::int64_t hosts = 0;
    for (const auto& row : rs.rows()) hosts += row[cc].asInt();
    if (hosts != static_cast<std::int64_t>(kSites * kHosts)) {
      return {false, "federated COUNT(*) over all sites != host count"};
    }
    return {};
  }

  void settle() override { topo_->quiesce(); }

  void advance(std::uint64_t batch) override {
    if (batch % kIdentityEvery == kIdentityEvery - 1) checkPushdownIdentity();
    topo_->loop().runFor(kStep);
  }
  sim::Topology& topology() override { return *topo_; }
  const Endpoints& endpoints() const override { return ends_; }

  void replay(std::uint64_t index, Tracer& t, std::int64_t root) override {
    const Op op = makeOp(index);
    global::GlobalLayer& layer = *topo_->globalLayer(0);
    core::QueryOptions qo;
    qo.useCache = false;
    util::Rng rng = opRng(seed_, index, 0x11u);
    const std::size_t site = 1 + rng.below(kSites - 1);
    if (op.type == OpType::Remote) {
      t.span("global.directory.lookup_many", root, index, [&] {
        (void)layer.directory().lookupMany({op.host});
      }, true);
      return;
    }
    t.span("global.directory.lookup_many", root, index, [&] {
      (void)layer.directory().lookupMany(allHosts_);
    }, true);
    std::shared_ptr<const store::FederatedPlan> plan;
    t.span("store.federated.plan", root, index, [&] {
      plan = store::planFederated(sql::parseSelect(op.sql));
    });
    // One site's fetch: globalQuery over that site's sources.
    t.span("global.remote_fetch", root, index, [&] {
      (void)layer.globalQuery(token_, siteUrls_[site], "SELECT * FROM Processor", qo);
    });
    // Rebuild per-site partials the way each site computes them, then
    // time the coordinator merge alone.
    std::vector<store::SitePartial> partials;
    const bool decomposed = plan->pushdown && op.type == OpType::Pushdown;
    const auto fragment = sql::parseSelect(decomposed ? plan->fragmentSql : plan->shipAllSql);
    for (std::size_t s = 0; s < kSites; ++s) {
      auto rows = topo_->gateway(s).submitQuery(topo_->adminToken(s), siteUrls_[s],
                                                "SELECT * FROM Processor", qo);
      const auto& rs = rows.rows->underlying();
      std::vector<dbc::ColumnInfo> cols(rs.metaData().columns().begin() + 1,
                                        rs.metaData().columns().end());
      std::vector<std::vector<util::Value>> body;
      for (const auto& row : rs.rows()) body.emplace_back(row.begin() + 1, row.end());
      auto part = store::executeSelect(fragment, cols, body);
      partials.push_back({part->metaData().columns(), part->rows()});
    }
    t.span("store.federated.merge", root, index, [&] {
      (void)store::mergeFederated(*plan, partials, decomposed);
    });
  }

  void finish(Report& r, double /*wallSeconds*/) override {
    r.check("federated_grid.pushdown_identical_to_ship_all",
            identityChecks_ > 0 && identityError_.empty(),
            std::to_string(identityChecks_) + " push-down results compared byte for byte" +
                (identityError_.empty() ? "" : ": " + identityError_));
  }

 private:
  static constexpr std::size_t kSites = 8;
  static constexpr std::size_t kHosts = 16;
  static constexpr std::uint64_t kIdentityEvery = 8;
  // Byte-identity statements over columns that do not drift. The two
  // modes scan different column sets at each site, so they read site
  // cache entries filled at different simulated instants; load columns
  // can then differ within the cache TTL, which is by design.
  static inline const std::vector<std::string> kIdentity = {
      "SELECT CPUCount, COUNT(*), SUM(CPUCount), MIN(HostName), MAX(HostName) FROM Processor "
      "GROUP BY CPUCount",
      "SELECT COUNT(*), SUM(CPUCount), MIN(CPUCount), MAX(HostName) FROM Processor"};
  static constexpr util::Duration kStep = util::kSecond;
  // SNMP agents leave ClusterName NULL, so grouping is by CPUCount.
  static inline const std::vector<std::string> kPushdown = {
      "SELECT CPUCount, COUNT(*), AVG(Load1) FROM Processor GROUP BY CPUCount",
      "SELECT CPUCount, COUNT(*), AVG(Load5), MAX(Load1) FROM Processor GROUP BY CPUCount",
      "SELECT COUNT(*), AVG(Load15), MAX(SystemPct) FROM Processor"};
  // The planner pushes down every valid statement this grid serves, so
  // the ship-all statement forces FederatedMode::ShipAllRows.
  static constexpr const char* kShipAll =
      "SELECT CPUCount, COUNT(*), MIN(Load15), AVG(IdlePct) FROM Processor GROUP BY CPUCount";

  enum class OpType { Pushdown, ShipAll, Remote };
  struct Op {
    OpType type = OpType::Pushdown;
    std::string sql;
    std::string url;
    std::string host;
  };

  /// E18 invariant, every kIdentityEvery batches between batches: the
  /// push-down result must be byte-identical to ship-all-rows.
  void checkPushdownIdentity() {
    global::GlobalLayer& layer = *topo_->globalLayer(0);
    core::QueryOptions qo;
    qo.useCache = false;
    for (const auto& sql : kIdentity) {
      auto pushed = layer.federatedQuery(token_, allUrls_, sql, qo, global::FederatedMode::Auto);
      auto base = layer.federatedQuery(token_, allUrls_, sql, qo,
                                       global::FederatedMode::ShipAllRows);
      ++identityChecks_;
      if (!pushed.failures.empty() || !base.failures.empty()) {
        identityError_ = "site failure in: " + sql;
      } else if (resultText(pushed.rows->underlying()) != resultText(base.rows->underlying())) {
        identityError_ = "push-down differs from ship-all: " + sql;
      }
    }
  }

  Op makeOp(std::uint64_t index) const {
    util::Rng rng = opRng(seed_, index);
    Op op;
    // Per batch of 32: 22 push-downs, 3 ship-alls, 7 remote host queries.
    const std::size_t slot = batchSlot(seed_, index, batchOps());
    if (slot >= 10) {
      op.sql = kPushdown[rng.below(kPushdown.size())];
    } else if (slot < 3) {
      op.type = OpType::ShipAll;
      op.sql = kShipAll;
    } else {
      op.type = OpType::Remote;
      const std::size_t site = 1 + rng.below(kSites - 1);
      const std::size_t host = rng.below(kHosts);
      op.url = siteUrls_[site][host];
      op.host = util::Url::parse(op.url)->host();
      op.sql = std::string("SELECT ") + kProcessorCols + " FROM Processor";
    }
    return op;
  }

  std::uint64_t seed_ = 1;
  std::unique_ptr<sim::Topology> topo_;
  std::string token_;
  std::vector<std::string> allUrls_;
  std::vector<std::vector<std::string>> siteUrls_;
  std::vector<std::string> allHosts_;
  std::uint64_t identityChecks_ = 0;
  std::string identityError_;
  Endpoints ends_;
};

// ---------------------------------------------------------------------
// Closed-loop batch runner: client threads pull op indices until the
// batch is exhausted; an optional side thread does one unit of side
// work per batch. runBatch() returns when every thread is done.

struct OpSample {
  std::uint64_t index = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  bool ok = true;
};

class BatchRunner {
 public:
  explicit BatchRunner(Workload& w) : w_(w), samples_(w.clients()) {
    for (std::size_t c = 0; c < w.clients(); ++c) {
      threads_.emplace_back([this, c] { clientLoop(c); });
    }
    if (w.hasSideWork()) threads_.emplace_back([this] { sideLoop(); });
  }
  ~BatchRunner() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  void runBatch(std::uint64_t first, std::uint64_t count, std::uint64_t batch) {
    std::unique_lock lock(mu_);
    next_.store(first);
    end_ = first + count;
    batch_ = batch;
    pending_ = threads_.size();
    ++generation_;
    cv_.notify_all();
    doneCv_.wait(lock, [this] { return pending_ == 0; });
  }

  std::vector<OpSample> takeSamples() {
    std::vector<OpSample> all;
    for (auto& v : samples_) {
      all.insert(all.end(), v.begin(), v.end());
      v.clear();
    }
    return all;
  }
  std::vector<std::string> errors() {
    std::scoped_lock lock(errMu_);
    return errors_;
  }
  std::int64_t sideStartNs() const { return sideStart_; }
  std::int64_t sideEndNs() const { return sideEnd_; }

 private:
  bool waitForBatch(std::uint64_t& seen) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return false;
    seen = generation_;
    return true;
  }
  void finishOne() {
    std::scoped_lock lock(mu_);
    if (--pending_ == 0) doneCv_.notify_all();
  }

  void clientLoop(std::size_t c) {
    std::uint64_t seen = 0;
    while (waitForBatch(seen)) {
      for (;;) {
        const std::uint64_t i = next_.fetch_add(1);
        if (i >= end_) break;
        OpSample s;
        s.index = i;
        s.startNs = nowNs();
        OpResult r;
        try {
          r = w_.run(i);
        } catch (const std::exception& e) {
          r = {false, e.what()};
        }
        s.endNs = nowNs();
        s.ok = r.ok;
        samples_[c].push_back(s);
        if (!r.ok) {
          std::scoped_lock lock(errMu_);
          if (errors_.size() < 8) errors_.push_back("op " + std::to_string(i) + ": " + r.error);
        }
      }
      finishOne();
    }
  }

  void sideLoop() {
    std::uint64_t seen = 0;
    while (waitForBatch(seen)) {
      sideStart_ = nowNs();
      try {
        w_.sideWork(batch_);
      } catch (const std::exception& e) {
        std::scoped_lock lock(errMu_);
        if (errors_.size() < 8) errors_.push_back(std::string("side work: ") + e.what());
      }
      sideEnd_ = nowNs();
      finishOne();
    }
  }

  Workload& w_;
  std::vector<std::vector<OpSample>> samples_;  // one per client thread
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> next_{0};
  std::uint64_t end_ = 0;
  std::uint64_t batch_ = 0;
  std::int64_t sideStart_ = 0;
  std::int64_t sideEnd_ = 0;
  std::mutex errMu_;
  std::vector<std::string> errors_;
  std::vector<std::thread> threads_;  // declared last: joins before the rest dies
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "local_fresh") return std::make_unique<LocalFresh>();
  if (name == "monitor_ingest") return std::make_unique<MonitorIngest>();
  if (name == "federated_grid") return std::make_unique<FederatedGrid>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;
};

/// Traced runs replay every Nth op after the counter window, over at
/// least kMinTracedBatches batches.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::uint64_t kMinTracedBatches = 16;

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--trace-out") a.traceOut = value();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

void writeTrace(const std::string& path, const Tracer& t,
                const std::map<std::int64_t, double>& self) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace to " + path);
  for (const auto& s : t.spans()) {
    out << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.opId << ",\"name\":\"" << jsonEscape(s.name)
        << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << ",\"probe\":" << (s.probe ? "true" : "false") << "}\n";
  }
  // Per-op summary: root duration, self time per layer, residual.
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const auto& s : t.spans()) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  for (const auto& s : t.spans()) {
    if (s.parent >= 0) continue;
    out << "{\"type\":\"op\",\"op\":" << s.opId << ",\"root\":\"" << jsonEscape(s.name)
        << "\",\"root_us\":" << num(s.us()) << ",\"self_us\":{";
    bool first = true;
    std::function<void(const Span&)> walk = [&](const Span& sp) {
      for (const Span* c : children[sp.id]) {
        out << (first ? "" : ",") << "\"" << jsonEscape(c->name) << "\":" << num(self.at(c->id));
        first = false;
        walk(*c);
      }
    };
    walk(s);
    out << "},\"residual_us\":" << num(self.at(s.id)) << "}\n";
  }
}

int runBenchmark(const Args& args) {
  // Set-up is repeated and its median reported, so a later change that
  // moves work into set-up shows in setup_s. Half the set-ups run before
  // the measured phase and half after it: the machine's speed moves in
  // phases of seconds, and two spans ~30 s apart sample more of them.
  std::vector<double> setupTimes;
  std::unique_ptr<Workload> w;
  auto setUpAgain = [&] {
    w.reset();
    // Hand the torn-down world's memory back to the OS, so peak_rss_mb
    // measures the live world, not how the set-up churn fragmented the
    // heap (which varied from process to process).
    malloc_trim(0);
    auto fresh = makeWorkload(args.workload);
    const std::int64_t t0 = nowNs();
    fresh->setUp(args.seed);
    setupTimes.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    w = std::move(fresh);
  };
  const std::size_t setUps = makeWorkload(args.workload)->setUps();
  for (std::size_t i = 0; i < setUps / 2; ++i) setUpAgain();
  w->beginMeasure();
  sim::Topology& topo = w->topology();

  Report report;
  Tracer tracer;
  std::vector<OpSample> samples;
  std::vector<std::string> errors;

  w->settle();
  (void)net::Network::drainChargedLatency();
  const Counters before = readCounters(topo, w->endpoints());
  Counters window;
  util::Duration windowCharge = 0;
  std::uint64_t windowOps = 0;
  // Peak RSS is read at the end of the counter window too: later, the
  // harness's own op samples and the history a longer run ingests grow
  // with throughput, so a faster commit would read as using more memory.
  double windowRssMb = 0;
  std::int64_t excludedNs = 0;  // trace replays, not part of the run
  // Replay time excluded before each batch: subtracted from the batch's
  // op times to place them on the run's time axis without replays.
  std::vector<std::int64_t> excludedBefore;
  std::uint64_t batches = 0;
  const std::uint64_t perBatch = w->batchOps();
  const std::int64_t start = nowNs();
  {
    BatchRunner runner(*w);
    for (std::uint64_t b = 0;; ++b) {
      excludedBefore.push_back(excludedNs);
      runner.runBatch(b * perBatch, perBatch, b);
      ++batches;
      w->settle();
      std::vector<OpSample> batchSamples = runner.takeSamples();
      if (b + 1 == w->windowBatches()) {
        windowCharge = net::Network::drainChargedLatency();
        window = readCounters(topo, w->endpoints());
        windowOps = (b + 1) * perBatch;
        windowRssMb = peakRssMb();
      }
      if (args.trace && b >= w->windowBatches()) {
        const std::int64_t r0 = nowNs();
        for (const auto& s : batchSamples) {
          if (s.index % kSampleEvery != 0) continue;
          const std::string kind = w->kind(s.index);
          const std::int64_t root = tracer.root(kind, s.index, s.startNs, s.endNs);
          w->replay(s.index, tracer, root);
        }
        if (w->hasSideWork() && b % 4 == 0) {
          w->replaySide(b, tracer, runner.sideStartNs(), runner.sideEndNs());
        }
        w->settle();
        excludedNs += nowNs() - r0;
      }
      samples.insert(samples.end(), batchSamples.begin(), batchSamples.end());
      const double elapsed = static_cast<double>(nowNs() - start - excludedNs) / 1e9;
      // Traced runs go on past the window long enough to replay samples.
      const std::uint64_t minBatches = w->windowBatches() + (args.trace ? kMinTracedBatches : 0);
      if (b + 1 >= minBatches && elapsed >= args.seconds) break;
      w->advance(b);
    }
    errors = runner.errors();
  }
  const double wall = static_cast<double>(nowNs() - start - excludedNs) / 1e9;
  w->settle();

  // End-to-end metrics.
  std::uint64_t failed = 0;
  for (const auto& s : samples) {
    if (!s.ok) ++failed;
  }
  const double ops = static_cast<double>(samples.size());
  const double wops = static_cast<double>(windowOps);
  // Timings are medians over equal slices of the run (by op completion
  // time), so a burst of interference from outside the process moves a
  // few slices, not the reported figure. Latencies per slice, in µs:
  auto slices = [&](double sliceSeconds) {
    const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(wall / sliceSeconds));
    std::vector<std::vector<double>> lat(n);
    for (const auto& s : samples) {
      const std::int64_t runNs = s.endNs - start - excludedBefore[s.index / perBatch];
      const double at = static_cast<double>(runNs) / 1e9 / wall;
      const auto i = std::min(n - 1, static_cast<std::size_t>(std::max(0.0, at) * static_cast<double>(n)));
      lat[i].push_back(static_cast<double>(s.endNs - s.startNs) / 1000.0);
    }
    return lat;
  };
  // Throughput and p50 over half-second slices; p99 over 3 s slices, so
  // each holds at least ten ops beyond its p99 (the slowest workload
  // completes ~700 ops/s).
  std::vector<double> sliceRate, sliceP50, sliceP99;
  const std::vector<std::vector<double>> half = slices(0.5);
  for (const auto& v : half) {
    if (v.empty()) continue;
    sliceRate.push_back(static_cast<double>(v.size()) / (wall / static_cast<double>(half.size())));
    sliceP50.push_back(quantile(v, 0.5));
  }
  for (const auto& v : slices(3.0)) {
    if (!v.empty()) sliceP99.push_back(quantile(v, 0.99));
  }
  report.set("ops_per_s", median(sliceRate), "1/s");
  report.set("op_p50_us", median(sliceP50), "us");
  report.set("op_p99_us", median(sliceP99), "us");
  report.set("op_samples", ops, "count");
  report.set("error_frac", ratio(static_cast<double>(failed), ops), "fraction");
  report.set("peak_rss_mb", windowRssMb, "MB");
  report.set("net_requests_per_op",
             ratio(static_cast<double>(window.netRequests - before.netRequests), wops), "count");
  report.set("net_bytes_per_op",
             ratio(static_cast<double>(window.netBytes - before.netBytes), wops), "B");
  report.set("wan_bytes_per_op",
             ratio(static_cast<double>(window.wanBytes - before.wanBytes), wops), "B");
  report.set("net.sim_us_per_op", ratio(static_cast<double>(windowCharge), wops), "us");
  report.set("batches", static_cast<double>(batches), "count");
  std::map<std::string, std::vector<double>> byKind;
  for (const auto& s : samples) {
    byKind[w->kind(s.index)].push_back(static_cast<double>(s.endNs - s.startNs) / 1000.0);
  }
  for (auto& [k, v] : byKind) {
    report.set(k + ".count", static_cast<double>(v.size()), "count");
    report.set(k + ".p50_us", quantile(v, 0.5), "us");
  }
  report.set("wall_s", wall, "s");

  // Counter-derived per-layer metrics over the fixed window.
  const Counters& a = before;
  const Counters& z = window;
  auto d = [](std::uint64_t hi, std::uint64_t lo) { return static_cast<double>(hi - lo); };
  report.set("sql.parse_count", ratio(d(z.parses, a.parses), wops), "count/op");
  report.set("drivers.plan_cache_hit_ratio",
             ratio(d(z.planHits, a.planHits), d(z.planLookups, a.planLookups)), "ratio");
  report.set("core.pool.reuse_ratio",
             ratio(d(z.pool.poolHits, a.pool.poolHits), d(z.pool.acquisitions, a.pool.acquisitions)),
             "ratio");
  report.set("net.requests_per_op", ratio(d(z.netRequests, a.netRequests), wops), "count");
  report.set("net.bytes_per_op", ratio(d(z.netBytes, a.netBytes), wops), "B");
  report.set("net.datagrams_per_op", ratio(d(z.netDatagrams, a.netDatagrams), wops), "count");
  const char* laneNames[] = {"interactive", "hedge", "background"};
  for (std::size_t l = 0; l < core::kLaneCount; ++l) {
    const std::string p = std::string("core.scheduler.");
    report.set(p + "executed." + laneNames[l],
               ratio(d(z.lanes[l].executed, a.lanes[l].executed), wops), "count/op");
    report.set(p + "cancelled." + laneNames[l], d(z.lanes[l].cancelled, a.lanes[l].cancelled),
               "count");
    report.set(p + "rejected." + laneNames[l], d(z.lanes[l].rejected, a.lanes[l].rejected),
               "count");
    report.set(p + "max_queued." + laneNames[l], static_cast<double>(z.lanes[l].maxQueued),
               "count");
  }
  report.set("core.cache.hit_ratio",
             ratio(d(z.cache.hits, a.cache.hits),
                   d(z.cache.hits, a.cache.hits) + d(z.cache.misses, a.cache.misses)),
             "ratio");
  report.set("store.tsdb.seal_count",
             ratio(d(z.tsdb.seals, a.tsdb.seals) * 1000.0,
                   d(z.tsdb.appendedRows, a.tsdb.appendedRows)),
             "count/1k_rows");
  report.set("store.tsdb.bytes_per_sample", z.tsdb.bytesPerSample(), "B");
  const double tsdbQueries = d(z.tsdb.queries, a.tsdb.queries);
  report.set("store.tsdb.tier_hit_ratio",
             ratio(d(z.tsdb.tierHits1m, a.tsdb.tierHits1m) + d(z.tsdb.tierHits1h, a.tsdb.tierHits1h),
                   tsdbQueries),
             "ratio");
  report.set("sql.vec.fallback_ratio",
             ratio(d(z.vec.vecFallbacks, a.vec.vecFallbacks),
                   d(z.vec.vecFallbacks, a.vec.vecFallbacks) +
                       d(z.vec.vecStatements, a.vec.vecStatements)),
             "ratio");
  report.set("stream.rows_delivered_per_batch",
             ratio(d(z.stream.rowsDelivered, a.stream.rowsDelivered),
                   d(z.stream.batchesIngested, a.stream.batchesIngested)),
             "count");
  report.set("stream.deltas_dropped", d(z.stream.deltasDropped, a.stream.deltasDropped), "count");
  report.set("global.lookup_cache_hit_ratio",
             ratio(d(z.coordinator.lookupCacheHits, a.coordinator.lookupCacheHits),
                   d(z.coordinator.lookupCacheHits, a.coordinator.lookupCacheHits) +
                       d(z.coordinator.directoryLookups, a.coordinator.directoryLookups)),
             "ratio");
  report.set("global.frames_per_op",
             ratio(d(z.coordinator.fragmentFramesReceived, a.coordinator.fragmentFramesReceived),
                   wops),
             "count");
  report.set("global.fragment_rows_per_op",
             ratio(d(z.fragmentRowsShipped, a.fragmentRowsShipped), wops), "count");
  report.set("global.nacks",
             d(z.coordinator.fragmentNacksSent, a.coordinator.fragmentNacksSent) +
                 d(z.coordinator.nacksSent, a.coordinator.nacksSent),
             "count");

  // Workload-specific metrics read 0 where the workload has no such path.
  for (const char* name : {"ingest_rows_per_s", "delta_lag_p50_us", "delta_lag_p99_us",
                           "delta_lag_samples", "history_bytes_per_sample"}) {
    report.set(name, 0.0, "");
  }
  w->finish(report, wall);
  report.check("no_failed_ops", failed == 0,
               failed == 0 ? "" : (errors.empty() ? "failures" : errors.front()));

  if (args.trace) {
    // Per-layer timings: median duration of each layer's replayed span
    // (0 on workloads that never cross the layer).
    const std::vector<std::pair<std::string, std::string>> layerSpans = {
        {"drivers.parse_us", "drivers.parse"},
        {"core.pool.acquire_us", "core.pool.acquire"},
        {"core.request.query_us", "core.request.query"},
        {"core.security.authorize_us", "core.security.authorize"},
        {"core.cache.lookup_us", "core.cache.lookup"},
        {"store.tsdb.query_us", "store.tsdb.query"},
        {"store.tsdb.append_us", "store.tsdb.append"},
        {"sql.execute_select_us", "sql.execute_select"},
        {"stream.on_rows_us", "stream.on_rows"},
        {"global.directory.lookup_many_us", "global.directory.lookup_many"},
        {"store.federated.plan_us", "store.federated.plan"},
        {"store.federated.merge_us", "store.federated.merge"},
        {"global.remote_fetch_us", "global.remote_fetch"}};
    for (const auto& [metric, span] : layerSpans) report.set(metric, tracer.medianUs(span), "us");
    for (const char* d : {"snmp", "ganglia", "nws", "netlogger", "scms", "sql", "mds"}) {
      report.set(std::string("drivers.execute_us.") + d,
                 tracer.medianUs(std::string("drivers.execute.") + d), "us");
      report.set(std::string("agents.native_us.") + d,
                 tracer.medianUs(std::string("agents.native.") + d), "us");
    }
    const std::map<std::int64_t, double> self = tracer.selfUs();
    std::vector<double> residual;
    for (const auto& s : tracer.spans()) {
      if (s.parent < 0 && s.name != "ingest.batch") residual.push_back(self.at(s.id));
    }
    report.set("trace.residual_us", median(residual), "us");
    report.set("trace.sampled_ops", static_cast<double>(residual.size()), "count");
    report.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    report.set("trace.replay_s", static_cast<double>(excludedNs) / 1e9, "s");
    if (!args.traceOut.empty()) writeTrace(args.traceOut, tracer, self);
  }

  // The measured world is done with; the second half of the set-ups.
  for (std::size_t i = setUps / 2; i < setUps; ++i) setUpAgain();
  report.set("setup_s", median(setupTimes), "s");
  report.set("setup_runs", static_cast<double>(setupTimes.size()), "count");

  // Human-readable summary, then the machine-readable line.
  std::printf("workload %s seed %llu: %llu ops in %.3f s (%llu batches)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(samples.size()),
              wall, static_cast<unsigned long long>(batches));
  for (const auto& m : report.metrics()) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& c : report.checks()) {
    std::printf("  check %-40s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  for (const auto& e : errors) std::printf("  error: %s\n", e.c_str());

  std::ostringstream json;
  json << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
       << ",\"correct\":" << (report.allChecksPass() ? "true" : "false")
       << ",\"attempted\":" << samples.size() << ",\"failed\":" << failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& m : report.metrics()) {
    json << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << num(m.value)
         << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  json << "},\"checks\":{";
  first = true;
  for (const auto& c : report.checks()) {
    json << (first ? "" : ",") << "\"" << c.name << "\":{\"ok\":" << (c.ok ? "true" : "false")
         << ",\"detail\":\"" << jsonEscape(c.detail) << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return report.allChecksPass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runBenchmark(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridbench: %s\n", e.what());
    return 2;
  }
}
