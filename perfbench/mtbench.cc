// mtbench: wall-clock TPC-W benchmark through a live MTCache server.
//
// One process holds a TPC-W backend and one MTCache server wired together by
// transactional replication (the same public tpcw / mtcache / repl / engine
// calls sim::Fleet::BuildSystem makes). Client threads drive the cache closed
// loop with zero think time; one thread runs the replication agents and ties
// the shared SimClock to wall time; one thread probes freshness open loop.
// Every engine option stays at its default.
//
// Usage:
//   mtbench --workload browse|order|adhoc --seed N --seconds S --trace 0|1
//           [--commit SHA] [--trace-out FILE]
//
// stdout: one `{"run_record": ...}` line, then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// See perfbench/README.md for what each metric means.

#include <sched.h>
#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/consistency.h"
#include "common/random.h"
#include "mtcache/mtcache.h"
#include "repl/replication.h"
#include "sql/parser.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace {

using namespace mtcache;  // NOLINT(build/namespaces)
using tpcw::Interaction;
using tpcw::TpcwDriver;
using SteadyClock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif

// Fixed load-shape constants (see README.md, "Load shape").
constexpr int kSetups = 7;                     // setup_s is their median
constexpr double kProbeRatePerSec = 200;       // freshness probes, open loop
constexpr double kProbeTimeoutSec = 5.0;       // a probe not visible by then fails
constexpr auto kAgentIdlePause = std::chrono::microseconds(100);
constexpr double kTraceSliceSec = 0.25;        // traced / untraced alternation
constexpr int kHotKeysPerTable = 256;          // adhoc point-lookup key set
constexpr int64_t kPriceCapFloor = 1000000;    // above every i_cost, o_total
constexpr int kReplaySamplePerClient = 64;     // adhoc transparency replay
constexpr size_t kMaxSpansPerThread = 4u << 20;
constexpr size_t kMaxFailureMessages = 5;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample (sorts a copy); 0 if empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  if (rank < 1) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

/// Shortest round-trip decimal rendering of a double (JSON number).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PreciseSleeps() {
#ifdef __linux__
  // The default 50 us timer slack would stretch the agent's 100 us pause
  // and blur the prober's schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
#endif
}

// ---------------------------------------------------------------------------
// Options and workloads
// ---------------------------------------------------------------------------

enum class Driver { kTpcw, kAdhoc };

struct WorkloadSpec {
  const char* name;
  Driver driver;
  tpcw::WorkloadMix mix;
  double cached_fraction;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"browse", Driver::kTpcw, tpcw::WorkloadMix::kBrowsing, 1.0},
    {"order", Driver::kTpcw, tpcw::WorkloadMix::kOrdering, 1.0},
    {"adhoc", Driver::kAdhoc, tpcw::WorkloadMix::kBrowsing, 0.5},
};

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options* opts, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) opts->workload = &w;
      }
      if (opts->workload == nullptr) {
        *error = "unknown workload: " + value;
        return false;
      }
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts->trace = value == "1";
    } else if (flag == "--commit") {
      opts->commit = value;
    } else if (flag == "--trace-out") {
      opts->trace_out = value;
    } else {
      *error = "unknown flag: " + flag;
      return false;
    }
  }
  if (opts->workload == nullptr) {
    *error = "--workload is required";
    return false;
  }
  if (opts->seconds <= 0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own timing wrappers around calls into each layer.
// Each thread appends to its own log (no locking); ids are unique per
// process because the thread number sits in the high bits.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
};

class SpanLog {
 public:
  explicit SpanLog(uint64_t thread) : next_id_((thread + 1) << 40) {}

  uint64_t NextId() { return ++next_id_; }
  /// Records a span under a fresh id, or under `id` when it is given.
  void Record(const char* name, uint64_t parent, uint64_t op,
              SteadyClock::time_point start, SteadyClock::time_point end,
              uint64_t id = 0) {
    if (id == 0) id = NextId();
    if (spans_.size() >= kMaxSpansPerThread) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, id, parent, op, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

/// Durations (us) of every span named `name` across `logs`.
std::vector<double> SpanMicros(const std::vector<const SpanLog*>& logs,
                               const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (name == s.name) out.push_back(MicrosBetween(s.start, s.end));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

constexpr const char* kProbeTable = "bench_probe";
constexpr const char* kProbeView = "bench_probe_cache";

/// Backend + one MTCache server + replication, built as sim::Fleet does.
/// Member order follows Fleet: the MTCache layer is torn down first.
struct System {
  SimClock clock;
  LinkedServerRegistry links;
  std::unique_ptr<Server> backend;
  std::unique_ptr<Server> cache;
  std::unique_ptr<ReplicationSystem> repl;
  std::unique_ptr<MTCache> mtcache;
  double load_s = 0;
  double mtcache_setup_s = 0;
  /// Reads of the backend's own DMVs issued by the benchmark; each one is a
  /// SELECT that the next dm_exec_query_stats read counts.
  int64_t backend_dmv_reads = 0;
};

Status BuildSystem(const tpcw::TpcwConfig& config, double cached_fraction,
                   System* sys) {
  auto t0 = SteadyClock::now();
  sys->backend = std::make_unique<Server>(ServerOptions{"backend", "dbo", {}},
                                          &sys->clock, &sys->links);
  MT_RETURN_IF_ERROR(tpcw::CreateSchema(sys->backend.get()));
  MT_RETURN_IF_ERROR(tpcw::GenerateData(sys->backend.get(), config));
  MT_RETURN_IF_ERROR(tpcw::CreateProcedures(sys->backend.get(), config));
  sys->clock.AdvanceTo(tpcw::LoadEndTime(config));
  sys->load_s = SecondsBetween(t0, SteadyClock::now());

  // The freshness probe's one-row table exists before MTCache::Setup so the
  // shadow catalog knows it; the TPC-W tables stay untouched by probes.
  MT_RETURN_IF_ERROR(sys->backend->ExecuteScript(
      std::string("CREATE TABLE ") + kProbeTable +
      " (id INT PRIMARY KEY, seq INT); INSERT INTO " + kProbeTable +
      " VALUES (1, 0)"));

  auto t1 = SteadyClock::now();
  sys->repl = std::make_unique<ReplicationSystem>(&sys->clock);
  sys->cache = std::make_unique<Server>(ServerOptions{"cache1", "dbo", {}},
                                        &sys->clock, &sys->links);
  auto setup =
      MTCache::Setup(sys->cache.get(), sys->backend.get(), sys->repl.get());
  MT_RETURN_IF_ERROR(setup.status());
  sys->mtcache = setup.ConsumeValue();
  MT_RETURN_IF_ERROR(
      tpcw::SetupTpcwCache(sys->mtcache.get(), config, cached_fraction));
  MT_RETURN_IF_ERROR(sys->mtcache->CreateCachedView(
      kProbeView, std::string("SELECT * FROM ") + kProbeTable));
  sys->mtcache_setup_s = SecondsBetween(t1, SteadyClock::now());
  return Status::Ok();
}

StatusOr<std::vector<Row>> QueryRows(Server* server, const std::string& sql) {
  MT_ASSIGN_OR_RETURN(QueryResult result, server->Execute(sql));
  return std::move(result.rows);
}

StatusOr<int64_t> CountRows(Server* server, const std::string& table) {
  MT_ASSIGN_OR_RETURN(std::vector<Row> rows,
                      QueryRows(server, "SELECT COUNT(*) FROM " + table));
  if (rows.size() != 1) return Status::Internal("COUNT returned no row");
  return rows[0][0].AsInt();
}

/// SELECT executions and their summed elapsed seconds, from the backend's
/// own sys.dm_exec_query_stats.
struct BackendStatements {
  int64_t executions = 0;
  double seconds = 0;
  int64_t dmv_reads_before = 0;  // benchmark DMV reads issued before this one
};

StatusOr<BackendStatements> ReadBackendStatements(System* sys) {
  BackendStatements out;
  out.dmv_reads_before = sys->backend_dmv_reads++;
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      QueryRows(sys->backend.get(),
                "SELECT executions, latency_avg FROM sys.dm_exec_query_stats"));
  for (const Row& row : rows) {
    out.executions += row[0].AsInt();
    out.seconds += row[1].AsDouble() * static_cast<double>(row[0].AsInt());
  }
  return out;
}

/// SELECTs the backend executed between two reads, minus the benchmark's
/// own DMV reads in between (the earlier read itself is one of them).
int64_t BackendSelectsBetween(const BackendStatements& a,
                              const BackendStatements& b) {
  return (b.executions - a.executions) -
         (b.dmv_reads_before - a.dmv_reads_before);
}

/// Everything read from the DMVs at one edge of the timed window.
struct Snapshot {
  BackendStatements backend;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_entries = 0;
  double wait_latch_s = 0;
  double wait_wal_s = 0;
  double wait_plan_s = 0;
  int64_t vectorized_rows = 0;
  int64_t vector_fallbacks = 0;
  int64_t offload_matches = 0;
  int64_t offload_avoided = 0;
  int64_t records_scanned = 0;
  int64_t txns_applied = 0;
  int64_t txns_retried = 0;
  int64_t batches = 0;
  double batch_txns = 0;
};

StatusOr<Snapshot> TakeSnapshot(System* sys) {
  Snapshot s;
  MT_ASSIGN_OR_RETURN(s.backend, ReadBackendStatements(sys));
  Server* cache = sys->cache.get();
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> plan,
      QueryRows(cache, "SELECT hits, misses, cached_statements "
                       "FROM sys.dm_plan_cache"));
  if (plan.size() != 1) return Status::Internal("dm_plan_cache: no row");
  s.plan_hits = plan[0][0].AsInt();
  s.plan_misses = plan[0][1].AsInt();
  s.plan_entries = plan[0][2].AsInt();
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> waits,
      QueryRows(cache, "SELECT wait_type, wait_seconds FROM "
                       "sys.dm_os_wait_stats"));
  for (const Row& row : waits) {
    const std::string& type = row[0].AsString();
    double seconds = row[1].AsDouble();
    if (type.rfind("TABLE_LATCH", 0) == 0) s.wait_latch_s += seconds;
    if (type == "WAL_MUTEX") s.wait_wal_s += seconds;
    if (type.rfind("PLAN_CACHE", 0) == 0) s.wait_plan_s += seconds;
  }
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> vec,
      QueryRows(cache, "SELECT vectorized_rows, vector_fallbacks FROM "
                       "sys.dm_exec_vector_stats"));
  if (vec.size() != 1) return Status::Internal("dm_exec_vector_stats: no row");
  s.vectorized_rows = vec[0][0].AsInt();
  s.vector_fallbacks = vec[0][1].AsInt();
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> offload,
      QueryRows(cache, "SELECT matches, roundtrips_avoided FROM "
                       "sys.dm_mtcache_view_offload"));
  for (const Row& row : offload) {
    s.offload_matches += row[0].AsInt();
    s.offload_avoided += row[1].AsInt();
  }
  MT_ASSIGN_OR_RETURN(
      std::vector<Row> repl,
      QueryRows(cache, "SELECT records_scanned, txns_applied, txns_retried, "
                       "batches_distributed, avg_batch_size FROM "
                       "sys.dm_repl_metrics"));
  if (repl.size() != 1) return Status::Internal("dm_repl_metrics: no row");
  s.records_scanned = repl[0][0].AsInt();
  s.txns_applied = repl[0][1].AsInt();
  s.txns_retried = repl[0][2].AsInt();
  s.batches = repl[0][3].AsInt();
  s.batch_txns = repl[0][4].AsDouble() * static_cast<double>(s.batches);
  return s;
}

struct TableCounts {
  int64_t orders = 0;
  int64_t order_line = 0;
  int64_t customer = 0;
};

StatusOr<TableCounts> CountTpcwRows(Server* backend) {
  TableCounts c;
  MT_ASSIGN_OR_RETURN(c.orders, CountRows(backend, "orders"));
  MT_ASSIGN_OR_RETURN(c.order_line, CountRows(backend, "order_line"));
  MT_ASSIGN_OR_RETURN(c.customer, CountRows(backend, "customer"));
  return c;
}

// ---------------------------------------------------------------------------
// Ad-hoc SQL generator: point lookups on item / orders / customer over a hot
// key set, plus short key ranges with random bounds. Every statement's
// expected answer shape is known: the keys [lo, hi], one row per key.
// ---------------------------------------------------------------------------

struct AdhocTable {
  const char* table;
  const char* key;
  const char* point_columns;
  int point_width;
  const char* range_column;
  int64_t rows;
};

struct AdhocStatement {
  std::string sql;
  int columns = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

class AdhocGenerator {
 public:
  /// `hot_seed` is shared by all clients so their hot statements coincide;
  /// `seed` drives this client's own draws.
  AdhocGenerator(const tpcw::TpcwConfig& config, uint64_t hot_seed,
                 uint64_t seed)
      : rng_(seed) {
    tables_ = {
        {"item", "i_id", "i_id, i_title, i_cost, i_stock", 4, "i_cost",
         config.num_items},
        {"orders", "o_id", "o_id, o_c_id, o_total, o_status", 4, "o_total",
         config.num_orders},
        {"customer", "c_id", "c_id, c_uname, c_discount", 3, nullptr,
         config.num_customers},
    };
    // One key per equal slice of the key space, so every seed's hot set
    // straddles the cached range the same way (half inside at 0.5).
    Random hot(hot_seed);
    for (const AdhocTable& t : tables_) {
      std::vector<int64_t> keys;
      for (int i = 0; i < kHotKeysPerTable; ++i) {
        int64_t lo = 1 + t.rows * i / kHotKeysPerTable;
        int64_t hi = std::max(lo, t.rows * (i + 1) / kHotKeysPerTable);
        keys.push_back(hot.Uniform(lo, hi));
      }
      hot_keys_.push_back(std::move(keys));
    }
  }

  AdhocStatement Next() {
    // 35% item, 35% orders, 25% customer point lookups; 2.5% item and 2.5%
    // orders ranges.
    double u = rng_.NextDouble();
    if (u < 0.35) return Point(0);
    if (u < 0.70) return Point(1);
    if (u < 0.95) return Point(2);
    return Range(u < 0.975 ? 0 : 1);
  }

  /// Every hot point statement once (plan-cache warm-up).
  std::vector<AdhocStatement> HotStatements() const {
    std::vector<AdhocStatement> out;
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (int64_t key : hot_keys_[t]) out.push_back(PointFor(t, key));
    }
    return out;
  }

 private:
  AdhocStatement Point(size_t t) {
    return PointFor(t, hot_keys_[t][rng_.Uniform(0, kHotKeysPerTable - 1)]);
  }

  AdhocStatement PointFor(size_t t, int64_t key) const {
    const AdhocTable& table = tables_[t];
    AdhocStatement s;
    s.sql = std::string("SELECT ") + table.point_columns + " FROM " +
            table.table + " WHERE " + table.key + " = " + std::to_string(key);
    s.columns = table.point_width;
    s.lo = s.hi = key;
    return s;
  }

  /// A short key range with a price cap: the cap is a random literal above
  /// every price (kPriceCapFloor), so the answer is exactly the key range
  /// while the statement text is practically never repeated.
  AdhocStatement Range(size_t t) {
    const AdhocTable& table = tables_[t];
    AdhocStatement s;
    s.lo = rng_.Uniform(1, table.rows);
    s.hi = std::min<int64_t>(table.rows, s.lo + rng_.Uniform(0, 15));
    int64_t cents = rng_.Uniform(0, 99999999);
    char cap[32];
    std::snprintf(cap, sizeof(cap), "%lld.%02lld",
                  static_cast<long long>(kPriceCapFloor + cents / 100),
                  static_cast<long long>(cents % 100));
    s.sql = std::string("SELECT ") + table.key + ", " + table.range_column +
            " FROM " + table.table + " WHERE " + table.key +
            " >= " + std::to_string(s.lo) + " AND " + table.key +
            " <= " + std::to_string(s.hi) + " AND " + table.range_column +
            " < " + std::string(cap);
    s.columns = 2;
    return s;
  }

  Random rng_;
  std::vector<AdhocTable> tables_;
  std::vector<std::vector<int64_t>> hot_keys_;
};

/// Empty when `result` has the expected shape: `columns` columns and exactly
/// the keys [lo, hi] in its first column, once each.
std::string CheckAdhocShape(const AdhocStatement& stmt,
                            const QueryResult& result) {
  if (result.schema.num_columns() != stmt.columns) {
    return "expected " + std::to_string(stmt.columns) + " columns, got " +
           std::to_string(result.schema.num_columns());
  }
  if (static_cast<int64_t>(result.rows.size()) != stmt.hi - stmt.lo + 1) {
    return "expected " + std::to_string(stmt.hi - stmt.lo + 1) +
           " rows, got " + std::to_string(result.rows.size());
  }
  std::vector<int64_t> keys;
  for (const Row& row : result.rows) {
    if (row.empty() || row[0].is_null()) return "NULL key";
    keys.push_back(row[0].AsInt());
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] != stmt.lo + static_cast<int64_t>(i)) {
      return "unexpected key " + std::to_string(keys[i]);
    }
  }
  return "";
}

/// Sorted textual rows: the multiset a transparent cache must reproduce.
std::vector<std::string> RowMultiset(const QueryResult& result) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "\x1f";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Empty when `sql` returns the same multiset on the cache and the backend.
std::string CompareOnBothTiers(System* sys, const std::string& sql) {
  auto on_cache = sys->cache->Execute(sql);
  auto on_backend = sys->backend->Execute(sql);
  if (!on_cache.ok()) return "cache: " + on_cache.status().ToString();
  if (!on_backend.ok()) return "backend: " + on_backend.status().ToString();
  if (on_cache->schema.num_columns() != on_backend->schema.num_columns() ||
      RowMultiset(*on_cache) != RowMultiset(*on_backend)) {
    return "cache and backend answers differ";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Threads of the timed window
// ---------------------------------------------------------------------------

/// Set by the main thread; read by all loops.
struct Window {
  SteadyClock::time_point start;
  SteadyClock::time_point deadline;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  bool trace = false;

  /// Under --trace 1 the clients alternate kTraceSliceSec slices with and
  /// without their timing wrappers, so the traced run also measures what
  /// tracing costs.
  bool TracedSlice(SteadyClock::time_point t) const {
    if (!trace) return false;
    return static_cast<int64_t>(SecondsBetween(start, t) / kTraceSliceSec) %
               2 == 1;
  }
};

void WaitForGo(const Window& w) {
  while (!w.go.load(std::memory_order_acquire)) std::this_thread::yield();
}

struct ClientResult {
  explicit ClientResult(uint64_t thread) : spans(thread) {}
  std::vector<double> latency_us;  // every attempted op, failures included
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t remote_ops = 0;           // adhoc: ExecStats showed a RemoteQuery
  int64_t traced_ops = 0;
  int64_t untraced_ops = 0;
  std::vector<std::string> failures;
  std::vector<std::string> replay_sample;  // adhoc statement texts
  SpanLog spans;
  SteadyClock::time_point end;
};

void NoteFailure(ClientResult* r, const std::string& what) {
  ++r->failed;
  if (r->failures.size() < kMaxFailureMessages) r->failures.push_back(what);
}

/// Span names per TPC-W interaction, "tpcw.<Interaction>".
const std::vector<std::string>& InteractionSpanNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (int i = 0; i < tpcw::kNumInteractions; ++i) {
      v->push_back(std::string("tpcw.") +
                   tpcw::InteractionName(static_cast<Interaction>(i)));
    }
    return v;
  }();
  return *names;
}

void TpcwClient(const Window* w, TpcwDriver* driver, tpcw::WorkloadMix mix,
                ClientResult* out) {
  WaitForGo(*w);
  for (;;) {
    auto t0 = SteadyClock::now();
    if (t0 >= w->deadline) break;
    Interaction kind = driver->Pick(mix);
    auto result = driver->Run(kind);
    auto t1 = SteadyClock::now();
    out->latency_us.push_back(MicrosBetween(t0, t1));
    ++out->ops;
    if (w->TracedSlice(t0)) {
      ++out->traced_ops;
      uint64_t op = out->spans.NextId();
      out->spans.Record(InteractionSpanNames()[static_cast<int>(kind)].c_str(),
                        0, op, t0, t1, op);
    } else {
      ++out->untraced_ops;
    }
    if (!result.ok()) {
      NoteFailure(out, std::string(tpcw::InteractionName(kind)) + ": " +
                           result.status().ToString());
    }
  }
  out->end = SteadyClock::now();
}

void AdhocClient(System* sys, const Window* w, AdhocGenerator* gen,
                 uint64_t seed, ClientResult* out) {
  Random sampler(seed ^ 0x5a3c1e);
  std::unordered_set<std::string> seen;
  WaitForGo(*w);
  int64_t stream_index = 0;
  for (;;) {
    auto t0 = SteadyClock::now();
    if (t0 >= w->deadline) break;
    AdhocStatement stmt = gen->Next();
    const bool traced = w->TracedSlice(t0);
    const auto op_start = t0;
    const uint64_t op = traced ? out->spans.NextId() : 0;
    if (traced) {
      // The timing wrappers: parse on its own, and compile (Explain minus
      // parse) the first time this client sends a text. Both run outside
      // the operation's latency, on the same statement the cache executes.
      auto p0 = SteadyClock::now();
      auto parsed = ParseSqlScript(stmt.sql);
      auto p1 = SteadyClock::now();
      out->spans.Record("sql.parse", op, op, p0, p1);
      if (seen.insert(stmt.sql).second) {
        auto e0 = SteadyClock::now();
        auto explained = sys->cache->Explain(stmt.sql);
        auto e1 = SteadyClock::now();
        out->spans.Record("opt.explain", op, op, e0, e1);
        if (!explained.ok() || !parsed.ok()) {
          NoteFailure(out, "explain: " + stmt.sql);
        }
      }
      t0 = SteadyClock::now();
    }
    ExecStats stats;
    auto result = sys->cache->Execute(stmt.sql, {}, &stats);
    auto t1 = SteadyClock::now();
    out->latency_us.push_back(MicrosBetween(t0, t1));
    ++out->ops;
    if (traced) {
      ++out->traced_ops;
      out->spans.Record("engine.execute", op, op, t0, t1);
      out->spans.Record("adhoc.op", 0, op, op_start, t1, op);
    } else {
      ++out->untraced_ops;
    }
    if (stats.remote_queries > 0) ++out->remote_ops;
    if (!result.ok()) {
      NoteFailure(out, stmt.sql + ": " + result.status().ToString());
    } else {
      std::string shape = CheckAdhocShape(stmt, *result);
      if (!shape.empty()) NoteFailure(out, stmt.sql + ": " + shape);
    }
    // Reservoir sample of the run's statement texts for the replay check.
    ++stream_index;
    if (out->replay_sample.size() < kReplaySamplePerClient) {
      out->replay_sample.push_back(stmt.sql);
    } else {
      int64_t slot = sampler.Uniform(0, stream_index - 1);
      if (slot < kReplaySamplePerClient) out->replay_sample[slot] = stmt.sql;
    }
  }
  out->end = SteadyClock::now();
}

struct AgentResult {
  explicit AgentResult(uint64_t thread) : spans(thread) {}
  int64_t rounds = 0;
  int64_t errors = 0;
  std::string first_error;
  double busy_s = 0;
  double total_s = 0;
  int64_t backlog_txns_max = 0;  // most txns one distribution call applied
  SpanLog spans;
};

/// Replication agent: log reader then distribution agent, round after round;
/// pauses kAgentIdlePause only after a round that found no work. Also ties
/// the SimClock to wall time (GETDATE(), retry backoff, lag histogram).
void AgentLoop(System* sys, const Window* w, double sim_base,
               AgentResult* out) {
  PreciseSleeps();
  const ReplicationMetrics& m = sys->repl->metrics();
  WaitForGo(*w);
  auto begin = SteadyClock::now();
  while (!w->stop.load(std::memory_order_relaxed)) {
    auto t0 = SteadyClock::now();
    sys->clock.AdvanceTo(sim_base + SecondsBetween(w->start, t0));
    int64_t scanned = m.records_scanned;
    int64_t applied = m.txns_applied;
    Status read = sys->repl->RunLogReader(sys->backend.get(), nullptr);
    auto t1 = SteadyClock::now();
    Status apply = sys->repl->RunDistributionAgent(sys->cache.get(), nullptr);
    auto t2 = SteadyClock::now();
    ++out->rounds;
    for (const Status* s : {&read, &apply}) {
      if (!s->ok()) {
        if (out->errors++ == 0) out->first_error = s->ToString();
      }
    }
    bool read_work = m.records_scanned > scanned;
    bool apply_work = m.txns_applied > applied;
    if (w->trace) {
      if (read_work) {
        out->spans.Record("repl.log_reader", 0, 0, t0, t1);
        out->busy_s += SecondsBetween(t0, t1);
      }
      if (apply_work) {
        out->spans.Record("repl.distribute", 0, 0, t1, t2);
        out->busy_s += SecondsBetween(t1, t2);
      }
      // The agent drains its whole queue per call, so the txns one call
      // applied are the backlog it found.
      out->backlog_txns_max =
          std::max(out->backlog_txns_max, m.txns_applied - applied);
    }
    if (!read_work && !apply_work) std::this_thread::sleep_for(kAgentIdlePause);
  }
  out->total_s = SecondsBetween(begin, SteadyClock::now());
}

struct ProbeResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> freshness_us;  // due time -> visible on the cache
  std::vector<double> lateness_us;   // due time -> write sent
  std::vector<std::string> failures;
};

/// One freshness probe: write the next sequence number through the cache
/// (forwarded DML to the backend), then poll the cache's view until it
/// shows. Returns the error, or empty on success.
std::string RunProbe(System* sys, int64_t seq,
                     SteadyClock::time_point due) {
  auto write = sys->cache->Execute(std::string("UPDATE ") + kProbeTable +
                                   " SET seq = " + std::to_string(seq) +
                                   " WHERE id = 1");
  if (!write.ok()) return "probe write: " + write.status().ToString();
  const std::string poll =
      std::string("SELECT seq FROM ") + kProbeView + " WHERE id = 1";
  for (;;) {
    auto r = sys->cache->Execute(poll);
    if (!r.ok()) return "probe poll: " + r.status().ToString();
    if (r->rows.size() == 1 && r->rows[0][0].AsInt() >= seq) return "";
    if (SecondsBetween(due, SteadyClock::now()) > kProbeTimeoutSec) {
      return "probe " + std::to_string(seq) + " not visible after " +
             Num(kProbeTimeoutSec) + " s";
    }
    std::this_thread::yield();
  }
}

void ProbeLoop(System* sys, const Window* w, int64_t first_seq,
               ProbeResult* out) {
  PreciseSleeps();
  WaitForGo(*w);
  const auto interval = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(1.0 / kProbeRatePerSec));
  int64_t seq = first_seq;
  for (int64_t i = 0;; ++i) {
    auto due = w->start + i * interval;
    if (due >= w->deadline) break;
    std::this_thread::sleep_until(due);
    auto sent = SteadyClock::now();
    ++out->attempted;
    std::string error = RunProbe(sys, ++seq, due);
    auto visible = SteadyClock::now();
    out->lateness_us.push_back(MicrosBetween(due, sent));
    if (!error.empty()) {
      ++out->failed;
      if (out->failures.size() < kMaxFailureMessages) {
        out->failures.push_back(error);
      }
      continue;
    }
    out->freshness_us.push_back(MicrosBetween(due, visible));
  }
}

// ---------------------------------------------------------------------------
// Set-up, checks and the run
// ---------------------------------------------------------------------------

/// The backend_reads_per_op self-test: a scripted sequence whose backend
/// SELECT count is known in advance, counted the same way as the metric.
/// customer is never cached (3 remote lookups = 3 backend SELECTs); item
/// key 1 is cached at every fraction (0); the forwarded probe UPDATE runs
/// no SELECT on the backend (0).
Status SelfTestBackendCount(System* sys) {
  constexpr int64_t kExpected = 3;
  MT_ASSIGN_OR_RETURN(BackendStatements before, ReadBackendStatements(sys));
  for (int c = 1; c <= 3; ++c) {
    MT_RETURN_IF_ERROR(
        sys->cache
            ->Execute("SELECT c_uname FROM customer WHERE c_id = " +
                      std::to_string(c))
            .status());
  }
  for (int i = 0; i < 2; ++i) {
    MT_RETURN_IF_ERROR(
        sys->cache->Execute("SELECT i_title FROM item WHERE i_id = 1")
            .status());
  }
  MT_RETURN_IF_ERROR(sys->cache
                         ->Execute(std::string("UPDATE ") + kProbeTable +
                                   " SET seq = 0 WHERE id = 1")
                         .status());
  MT_ASSIGN_OR_RETURN(BackendStatements after, ReadBackendStatements(sys));
  int64_t counted = BackendSelectsBetween(before, after);
  if (counted != kExpected) {
    return Status::Internal("backend SELECT self-test counted " +
                            std::to_string(counted) + ", expected " +
                            std::to_string(kExpected));
  }
  return Status::Ok();
}

Status DrainAndCheck(System* sys, int64_t* diffs, int64_t* violations) {
  MT_RETURN_IF_ERROR(DrainPipeline(sys->repl.get(), &sys->clock, 2000));
  ConsistencyReport report =
      ConsistencyChecker(sys->repl.get(), sys->backend.get(), sys->cache.get())
          .Check();
  *diffs = 0;
  for (const auto& d : report.diffs) {
    *diffs += static_cast<int64_t>(d.missing.size() + d.extra.size());
  }
  *violations = static_cast<int64_t>(report.violations.size());
  if (!report.ok()) return Status::Internal(report.ToString());
  return Status::Ok();
}

/// Builds the system, runs the self-test and the warm-up, and leaves the
/// pipeline drained. The warm-up driver owns index `clients` under stride
/// `clients + 1`; the timed clients own 0..clients-1.
Status SetUp(const Options& opts, const tpcw::TpcwConfig& config, int clients,
             System* sys) {
  MT_RETURN_IF_ERROR(
      BuildSystem(config, opts.workload->cached_fraction, sys));
  MT_RETURN_IF_ERROR(SelfTestBackendCount(sys));
  if (opts.workload->driver == Driver::kTpcw) {
    TpcwDriver warm(sys->cache.get(), config, opts.seed ^ 0x3a11,
                    /*driver_index=*/clients, /*driver_stride=*/clients + 1);
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < tpcw::kNumInteractions; ++k) {
        MT_RETURN_IF_ERROR(warm.Run(static_cast<Interaction>(k)).status());
      }
    }
  } else {
    for (const char* check : {"SELECT COUNT(*) FROM item WHERE i_cost >= ",
                              "SELECT COUNT(*) FROM orders WHERE o_total >= "}) {
      MT_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          QueryRows(sys->backend.get(),
                    check + std::to_string(kPriceCapFloor)));
      if (rows.size() != 1 || rows[0][0].AsInt() != 0) {
        return Status::Internal("a price reaches the adhoc price cap");
      }
    }
    AdhocGenerator gen(config, opts.seed, opts.seed);
    for (const AdhocStatement& s : gen.HotStatements()) {
      MT_RETURN_IF_ERROR(sys->cache->Execute(s.sql).status());
    }
  }
  return DrainPipeline(sys->repl.get(), &sys->clock, 2000);
}

/// Post-run transparency check for the procedure workloads: a seeded set of
/// read-procedure calls answered by the cache and by the backend.
std::vector<std::string> ProcedureTransparency(System* sys,
                                               const tpcw::TpcwConfig& config,
                                               uint64_t seed) {
  Random rng(seed ^ 0x7a11);
  std::vector<std::string> problems;
  const std::vector<std::string>& words = tpcw::TitleWords();
  for (int i = 0; i < 4; ++i) {
    Value item = Value::Int(rng.Uniform(1, config.num_items));
    Value customer = Value::Int(rng.Uniform(1, config.num_customers));
    Value user = Value::String(
        "user" + std::to_string(rng.Uniform(1, config.num_customers)));
    Value subject =
        Value::String(tpcw::kSubjects[rng.Uniform(0, tpcw::kNumSubjects - 1)]);
    const std::string& word = words[rng.Uniform(0, words.size() - 1)];
    const std::vector<std::pair<std::string, std::vector<Value>>> calls = {
        {"getbook", {item}},
        {"getrelated", {item}},
        {"getname", {customer}},
        {"getcustomer", {user}},
        {"getcdiscount", {customer}},
        {"getpassword", {user}},
        {"dosubjectsearch", {subject}},
        {"dotitlesearch", {Value::String("%" + word + "%")}},
        {"doauthorsearch", {Value::String(word + "%")}},
        {"getnewproducts", {subject}},
        {"getbestsellers", {subject}},
        {"getmostrecentorder", {user}},
    };
    for (const auto& [proc, args] : calls) {
      ExecStats s1, s2;
      auto on_cache = sys->cache->CallProcedure(proc, args, &s1);
      auto on_backend = sys->backend->CallProcedure(proc, args, &s2);
      if (!on_cache.ok() || !on_backend.ok()) {
        problems.push_back(proc + ": " +
                           (on_cache.ok() ? on_backend.status()
                                          : on_cache.status())
                               .ToString());
      } else if (on_cache->schema.num_columns() !=
                     on_backend->schema.num_columns() ||
                 RowMultiset(*on_cache) != RowMultiset(*on_backend)) {
        problems.push_back(proc + ": cache and backend answers differ");
      }
    }
  }
  return problems;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                SteadyClock::time_point origin) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mtbench: cannot write trace to %s\n", path.c_str());
    return;
  }
  out << "name\tid\tparent\top\tstart_us\tend_us\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.op
          << '\t' << Num(MicrosBetween(origin, s.start)) << '\t'
          << Num(MicrosBetween(origin, s.end)) << '\n';
    }
  }
}

int Run(const Options& opts) {
  const auto process_start = SteadyClock::now();
  const int cores = UsableCores();
  const int clients = std::max(1, cores - 2);
  const tpcw::TpcwConfig config;  // default scale, every knob at default
  const WorkloadSpec& workload = *opts.workload;

  // Set up several times and report the median; the last system is measured.
  std::vector<double> setup_times;
  std::vector<double> load_times;
  std::vector<double> mtcache_times;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    auto t0 = i == 0 ? process_start : SteadyClock::now();
    sys = std::make_unique<System>();
    Status s = SetUp(opts, config, clients, sys.get());
    if (!s.ok()) {
      std::fprintf(stderr, "mtbench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    setup_times.push_back(SecondsBetween(t0, SteadyClock::now()));
    load_times.push_back(sys->load_s);
    mtcache_times.push_back(sys->mtcache_setup_s);
  }

  std::vector<std::string> problems;
  auto counts_start = CountTpcwRows(sys->backend.get());
  if (!counts_start.ok()) {
    std::fprintf(stderr, "mtbench: %s\n",
                 counts_start.status().ToString().c_str());
    return 1;
  }

  // Clients, each with its own driver or generator.
  std::vector<std::unique_ptr<TpcwDriver>> drivers;
  std::vector<std::unique_ptr<AdhocGenerator>> generators;
  std::vector<std::unique_ptr<ClientResult>> results;
  for (int c = 0; c < clients; ++c) {
    uint64_t client_seed = opts.seed * 0x9e3779b97f4a7c15ULL + c + 1;
    drivers.push_back(std::make_unique<TpcwDriver>(
        sys->cache.get(), config, client_seed, /*driver_index=*/c,
        /*driver_stride=*/clients + 1));
    generators.push_back(
        std::make_unique<AdhocGenerator>(config, opts.seed, client_seed));
    results.push_back(std::make_unique<ClientResult>(c));
  }
  AgentResult agent(clients);
  ProbeResult probe;

  Window window;
  window.trace = opts.trace;
  const double sim_base = sys->clock.Now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    if (workload.driver == Driver::kTpcw) {
      threads.emplace_back(TpcwClient, &window, drivers[c].get(),
                           workload.mix, results[c].get());
    } else {
      threads.emplace_back(AdhocClient, sys.get(), &window,
                           generators[c].get(), opts.seed + c,
                           results[c].get());
    }
  }
  threads.emplace_back(AgentLoop, sys.get(), &window, sim_base, &agent);
  threads.emplace_back(ProbeLoop, sys.get(), &window, int64_t{1000}, &probe);

  auto before = TakeSnapshot(sys.get());
  if (!before.ok()) problems.push_back(before.status().ToString());
  window.start = SteadyClock::now();
  window.deadline =
      window.start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  const double setup_s = Percentile(setup_times, 0.5);
  window.go.store(true, std::memory_order_release);
  for (int c = 0; c < clients; ++c) threads[c].join();
  threads[clients + 1].join();  // prober: stops at the deadline
  window.stop.store(true);
  threads[clients].join();
  auto after = TakeSnapshot(sys.get());
  if (!after.ok()) problems.push_back(after.status().ToString());
  auto counts_end = CountTpcwRows(sys->backend.get());
  if (!counts_end.ok()) problems.push_back(counts_end.status().ToString());

  // ---- correctness gates -------------------------------------------------
  int64_t diffs = 0;
  int64_t violations = 0;
  Status consistency = DrainAndCheck(sys.get(), &diffs, &violations);
  if (!consistency.ok()) {
    problems.push_back("consistency: " + consistency.ToString());
  }
  if (agent.errors > 0) problems.push_back("agent: " + agent.first_error);
  int64_t replayed = 0;
  if (workload.driver == Driver::kAdhoc) {
    for (const auto& r : results) {
      for (const std::string& sql : r->replay_sample) {
        ++replayed;
        std::string diff = CompareOnBothTiers(sys.get(), sql);
        if (!diff.empty()) problems.push_back("replay " + sql + ": " + diff);
      }
    }
  } else {
    for (const std::string& p :
         ProcedureTransparency(sys.get(), config, opts.seed)) {
      problems.push_back("transparency " + p);
    }
  }

  // ---- aggregate ----------------------------------------------------------
  int64_t ops = 0, failed_ops = 0, remote_ops = 0;
  int64_t traced_ops = 0, untraced_ops = 0;
  std::vector<double> latency;
  std::vector<const SpanLog*> logs;
  SteadyClock::time_point end = window.start;
  for (const auto& r : results) {
    ops += r->ops;
    failed_ops += r->failed;
    remote_ops += r->remote_ops;
    traced_ops += r->traced_ops;
    untraced_ops += r->untraced_ops;
    latency.insert(latency.end(), r->latency_us.begin(), r->latency_us.end());
    logs.push_back(&r->spans);
    end = std::max(end, r->end);
    for (const std::string& f : r->failures) problems.push_back(f);
  }
  logs.push_back(&agent.spans);
  for (const std::string& f : probe.failures) problems.push_back(f);
  const double window_s = SecondsBetween(window.start, end);
  const int64_t attempted = ops + probe.attempted;
  const int64_t failed = failed_ops + probe.failed;
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  if (ops == 0) problems.push_back("no operation completed");

  Snapshot b = before.ok() ? *before : Snapshot{};
  Snapshot a = after.ok() ? *after : Snapshot{};
  const int64_t backend_selects = BackendSelectsBetween(b.backend, a.backend);
  const double backend_seconds = a.backend.seconds - b.backend.seconds;
  TableCounts start_rows = *counts_start;
  TableCounts end_rows = counts_end.ok() ? *counts_end : TableCounts{};

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"throughput_ops", ops / window_s, "ops/s"},
        {"latency_p50_us", Percentile(latency, 0.50), "us"},
        {"latency_p99_us", Percentile(latency, 0.99), "us"},
        {"freshness_p50_us", Percentile(probe.freshness_us, 0.50), "us"},
        {"backend_reads_per_op", backend_selects * per_op, "count/op"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    // Slices alternate, so traced and untraced ops share the window's drift.
    double traced_rate = traced_ops / (window_s / 2);
    double untraced_rate = untraced_ops / (window_s / 2);
    auto p50 = [&](const std::string& name) {
      return Percentile(SpanMicros(logs, name), 0.50);
    };
    auto p99 = [&](const std::string& name) {
      return Percentile(SpanMicros(logs, name), 0.99);
    };
    auto tpcw_us = [&](Interaction kind) {
      return p50(InteractionSpanNames()[static_cast<int>(kind)]);
    };
    std::vector<double> compile;  // Explain minus parse, per first-seen text
    for (const SpanLog* log : logs) {
      std::map<uint64_t, double> parse_by_op;
      for (const Span& s : log->spans()) {
        if (std::strcmp(s.name, "sql.parse") == 0) {
          parse_by_op[s.op] = MicrosBetween(s.start, s.end);
        }
      }
      for (const Span& s : log->spans()) {
        if (std::strcmp(s.name, "opt.explain") == 0) {
          compile.push_back(MicrosBetween(s.start, s.end) - parse_by_op[s.op]);
        }
      }
    }
    const int64_t plan_lookups =
        (a.plan_hits - b.plan_hits) + (a.plan_misses - b.plan_misses);
    const int64_t matches = a.offload_matches - b.offload_matches;
    const double batches = static_cast<double>(a.batches - b.batches);
    metrics = {
        {"tpcw.best_sellers_us", tpcw_us(Interaction::kBestSellers), "us"},
        {"tpcw.search_results_us", tpcw_us(Interaction::kSearchResults), "us"},
        {"tpcw.buy_confirm_us", tpcw_us(Interaction::kBuyConfirm), "us"},
        {"tpcw.shopping_cart_us", tpcw_us(Interaction::kShoppingCart), "us"},
        {"tpcw.customer_registration_us",
         tpcw_us(Interaction::kCustomerRegistration), "us"},
        {"tpcw.load_s", Percentile(load_times, 0.5), "s"},
        {"sql.parse_us", p50("sql.parse"), "us"},
        {"opt.compile_us", Percentile(compile, 0.5), "us"},
        {"opt.remote_share", remote_ops * per_op, "ratio"},
        {"engine.plan_cache_hit_ratio",
         plan_lookups > 0
             ? static_cast<double>(a.plan_hits - b.plan_hits) / plan_lookups
             : 0.0,
         "ratio"},
        {"engine.plan_cache_entries", static_cast<double>(a.plan_entries),
         "count"},
        {"engine.wait_table_latch_us",
         (a.wait_latch_s - b.wait_latch_s) * 1e6 * per_op, "us/op"},
        {"engine.wait_wal_us", (a.wait_wal_s - b.wait_wal_s) * 1e6 * per_op,
         "us/op"},
        {"engine.wait_plan_cache_us",
         (a.wait_plan_s - b.wait_plan_s) * 1e6 * per_op, "us/op"},
        {"engine.backend_stmt_us",
         backend_selects > 0 ? backend_seconds * 1e6 / backend_selects : 0.0,
         "us"},
        {"exec.vectorized_rows_per_op",
         (a.vectorized_rows - b.vectorized_rows) * per_op, "rows/op"},
        {"exec.vector_fallbacks",
         static_cast<double>(a.vector_fallbacks - b.vector_fallbacks),
         "count"},
        {"storage.wal_records_per_op",
         (a.records_scanned - b.records_scanned) * per_op, "count/op"},
        {"storage.orders_rows_end", static_cast<double>(end_rows.orders),
         "count"},
        {"repl.log_reader_p50_us", p50("repl.log_reader"), "us"},
        {"repl.log_reader_p99_us", p99("repl.log_reader"), "us"},
        {"repl.distribute_p50_us", p50("repl.distribute"), "us"},
        {"repl.distribute_p99_us", p99("repl.distribute"), "us"},
        {"repl.busy_share", agent.total_s > 0 ? agent.busy_s / agent.total_s
                                              : 0.0,
         "ratio"},
        {"repl.backlog_txns_max", static_cast<double>(agent.backlog_txns_max),
         "count"},
        {"repl.txns_applied_per_s",
         (a.txns_applied - b.txns_applied) / window_s, "1/s"},
        {"repl.avg_batch_size",
         batches > 0 ? (a.batch_txns - b.batch_txns) / batches : 0.0,
         "count"},
        {"repl.txns_retried",
         static_cast<double>(a.txns_retried - b.txns_retried), "count"},
        {"mtcache.roundtrips_avoided_share",
         matches > 0 ? static_cast<double>(a.offload_avoided -
                                           b.offload_avoided) /
                           matches
                     : 0.0,
         "ratio"},
        {"mtcache.setup_s", Percentile(mtcache_times, 0.5), "s"},
        {"check.diffs", static_cast<double>(diffs), "count"},
        {"check.violations", static_cast<double>(violations), "count"},
        {"error_rate",
         attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
         "ratio"},
        {"freshness_p99_us", Percentile(probe.freshness_us, 0.99), "us"},
        {"probe.lateness_p99_us", Percentile(probe.lateness_us, 0.99), "us"},
        {"trace.overhead",
         untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0,
         "ratio"},
    };
  }

  // ---- run record, then the result line ------------------------------------
  std::string record = "{\"run_record\": {";
  record += "\"workload\": " + JsonString(workload.name);
  record += ", \"trace\": " + std::string(opts.trace ? "true" : "false");
  record += ", \"cores\": " + std::to_string(cores);
  record += ", \"clients\": " + std::to_string(clients);
  record += ", \"seed\": " + std::to_string(opts.seed);
  record += ", \"seconds\": " + Num(opts.seconds);
  record += ", \"window_s\": " + Num(window_s);
  record += ", \"scale\": {\"items\": " + std::to_string(config.num_items) +
            ", \"customers\": " + std::to_string(config.num_customers) +
            ", \"orders\": " + std::to_string(config.num_orders) + "}";
  record += ", \"cached_fraction\": " + Num(workload.cached_fraction);
  record += ", \"build_type\": " + JsonString(MTBENCH_BUILD_TYPE);
  record += ", \"commit\": " + JsonString(opts.commit);
  record += ", \"setups_s\": [";
  for (size_t i = 0; i < setup_times.size(); ++i) {
    record += (i ? ", " : "") + Num(setup_times[i]);
  }
  record += "]";
  record += ", \"ops\": " + std::to_string(ops);
  record += ", \"latency_samples\": " + std::to_string(latency.size());
  record += ", \"probes\": " + std::to_string(probe.attempted);
  record += ", \"freshness_samples\": " +
            std::to_string(probe.freshness_us.size());
  record += ", \"backend_selects\": " + std::to_string(backend_selects);
  record += ", \"rows_start\": {\"orders\": " +
            std::to_string(start_rows.orders) + ", \"order_line\": " +
            std::to_string(start_rows.order_line) + ", \"customer\": " +
            std::to_string(start_rows.customer) + "}";
  record += ", \"rows_end\": {\"orders\": " + std::to_string(end_rows.orders) +
            ", \"order_line\": " + std::to_string(end_rows.order_line) +
            ", \"customer\": " + std::to_string(end_rows.customer) + "}";
  record += ", \"plan_cache_entries\": " + std::to_string(a.plan_entries);
  record += ", \"agent_rounds\": " + std::to_string(agent.rounds);
  record += ", \"adhoc_replayed\": " + std::to_string(replayed);
  int64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  record += ", \"spans_dropped\": " + std::to_string(dropped);
  record += ", \"problems\": [";
  for (size_t i = 0; i < problems.size() && i < 10; ++i) {
    record += (i ? ", " : "") + JsonString(problems[i]);
  }
  record += "]}}";
  std::printf("%s\n", record.c_str());

  if (opts.trace && !opts.trace_out.empty()) {
    WriteTrace(opts.trace_out, logs, window.start);
  }

  const bool correct = problems.empty() && failed == 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (kSanitizedBuild) {
    std::fprintf(stderr, "mtbench: refusing to time a sanitizer build\n");
    return 2;
  }
  const std::string build_type = MTBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "mtbench: refusing to time a %s build\n",
                 build_type.c_str());
    return 2;
  }
  Options opts;
  std::string error;
  if (!ParseOptions(argc, argv, &opts, &error)) {
    std::fprintf(stderr, "mtbench: %s\n", error.c_str());
    return 2;
  }
  return Run(opts);
}
