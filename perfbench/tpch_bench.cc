// The repo benchmark's binary (perfbench/README.md): runs one workload
// against the engine's public entry points and writes what it measured.
//
//   perfbench_tpch --workload tpch_power_serial --seed 1 --seconds 10
//                  --trace 0 --out raw.json [--spans spans.jsonl]
//
// Every run sets TPC-H up kSetupReps times (the timed set-up), half of
// them first and half at the end. In between it computes a serial
// reference fingerprint per query untimed (also the warm-up), then runs
// the timed workload for --seconds and checks every result against its
// reference. The raw samples go to --out as one JSON
// object. With --trace 1, spans around each call into a layer, carrying
// the counters that call returns, are kept in memory and written to
// --spans as JSON lines when the run ends. No metric arithmetic happens
// here: metrics.py derives every reported number from these two files.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/query_context.h"
#include "plan/compiler.h"
#include "plan/query_session.h"
#include "prim/simd.h"
#include "registry/primitive_dictionary.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"
#include "tpch/dbgen.h"
#include "tpch/plans.h"
#include "tpch/queries.h"
#include "tpch/workload.h"

namespace ma::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr f64 kScaleFactor = 0.2;
constexpr int kSetupReps = 4;
constexpr int kMaxWorkers = 4;
// A budget that turns memory accounting on (QueryContext::memory_peak)
// without ever binding.
constexpr u64 kAccountingOnlyBudget = u64{1} << 50;
constexpr u64 kMiB = u64{1} << 20;

f64 SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_tpch: %s\n", msg.c_str());
  std::exit(2);
}

// --- JSON text -------------------------------------------------------

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

using Counters = std::vector<std::pair<std::string, f64>>;

std::string CountersJson(const Counters& counters) {
  std::string out = "{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(counters[i].first) + ":" + Num(counters[i].second);
  }
  return out + "}";
}

// --- Spans -----------------------------------------------------------

/// Spans around the calls into each layer: name, start, end, parent
/// span and query id, plus the counters the call returned. Kept in
/// memory until Write(). Thread-safe; a tracer built with `on` false
/// records nothing and hands out id -1.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  int Open(std::string name, int parent = -1, int query = 0) {
    if (!on_) return -1;
    const i64 now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), parent, query, now, now, {}, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `id` with the call's counters and, optionally, a raw JSON
  /// value kept under "detail".
  void Close(int id, Counters counters = {}, std::string detail = {}) {
    if (id < 0) return;
    const i64 now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = now;
    s.counters = std::move(counters);
    s.detail = std::move(detail);
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string line = "{\"id\":" + std::to_string(i) +
                         ",\"name\":" + Quote(s.name) +
                         ",\"parent\":" + std::to_string(s.parent) +
                         ",\"query\":" + std::to_string(s.query) +
                         ",\"start_ns\":" + std::to_string(s.start_ns) +
                         ",\"end_ns\":" + std::to_string(s.end_ns) +
                         ",\"counters\":" + CountersJson(s.counters);
      if (!s.detail.empty()) line += ",\"detail\":" + s.detail;
      line += "}\n";
      std::fputs(line.c_str(), f);
    }
    if (std::fclose(f) != 0) Die("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int query;
    i64 start_ns;
    i64 end_ns;
    Counters counters;
    std::string detail;
  };

  i64 NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  const bool on_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = span id
};

// --- Run state -------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
};

/// One timed query: its latency and whether its result matched the
/// serial reference byte for byte.
struct Sample {
  int query = 0;
  f64 ms = 0;
  bool ok = false;
  bool traced = false;
};

/// One complete 22-query stream: a power pass or a serve client's round.
struct Stream {
  f64 seconds = 0;
  bool traced = false;
};

struct Report {
  std::vector<f64> setup_s;
  std::vector<Sample> samples;
  std::vector<Stream> streams;
  f64 measured_s = 0;  // wall time of the timed phase
  u64 mismatches = 0;  // results that differ from the reference
  Counters meta;       // workload-specific settings
  Counters server;     // ServerStats at shutdown (serve only)
};

/// The set-up that setup_s times: TPC-H data, the 22 logical plans and
/// their compiled stage DAGs.
struct Workload {
  std::unique_ptr<tpch::TpchData> data;
  std::vector<plan::LogicalPlan> plans;      // [q-1]
  std::vector<plan::StagePlan> stage_plans;  // [q-1]
};

void SetUp(const tpch::TpchConfig& cfg, Tracer* tracer, Workload* w) {
  // Plans point into the data: drop them first.
  w->stage_plans.clear();
  w->plans.clear();
  w->data.reset();
  const int setup_span = tracer->Open("setup");
  int span = tracer->Open("tpch.Generate", setup_span);
  w->data = tpch::Generate(cfg);
  tracer->Close(span);
  w->plans.reserve(tpch::kNumQueries);
  w->stage_plans.resize(tpch::kNumQueries);
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    span = tracer->Open("tpch.PlanForQuery", setup_span, q);
    w->plans.push_back(tpch::PlanForQuery(*w->data, q));
    tracer->Close(span);
    span = tracer->Open("plan.Compiler.BuildStagePlan", setup_span, q);
    const Status s = plan::Compiler::BuildStagePlan(
        w->plans.back(), &w->stage_plans[static_cast<size_t>(q - 1)]);
    tracer->Close(
        span,
        {{"stages", static_cast<f64>(w->stage_plans[q - 1].stages.size())}});
    if (!s.ok()) Die("Q" + std::to_string(q) + " does not compile");
  }
  tracer->Close(setup_span);
}

/// The primitive sites of a profile as JSON, each with the flavor sets
/// that affect it and its per-flavor usage.
std::string SitesJson(const std::vector<InstanceProfile>& profile) {
  const PrimitiveDictionary& dict = PrimitiveDictionary::Global();
  std::string out = "[";
  for (size_t i = 0; i < profile.size(); ++i) {
    const InstanceProfile& site = profile[i];
    const FlavorEntry* entry = dict.Find(site.signature);
    std::vector<std::string> sets;
    if (entry != nullptr) {
      for (const FlavorInfo& f : entry->flavors) {
        const std::string name = FlavorSetName(f.set);
        if (f.set != FlavorSetId::kDefault &&
            std::find(sets.begin(), sets.end(), name) == sets.end()) {
          sets.push_back(name);
        }
      }
    }
    if (i > 0) out += ",";
    out += "{\"label\":" + Quote(site.label) + ",\"sets\":[";
    for (size_t s = 0; s < sets.size(); ++s) {
      out += (s > 0 ? "," : "") + Quote(sets[s]);
    }
    out += "],\"flavors\":[";
    for (size_t f = 0; f < site.flavors.size(); ++f) {
      const FlavorUsageProfile& u = site.flavors[f];
      out += (f > 0 ? "," : "");
      out += "{\"name\":" + Quote(u.flavor) +
             ",\"tuples\":" + Num(static_cast<f64>(u.tuples)) +
             ",\"cycles\":" + Num(static_cast<f64>(u.cycles)) +
             ",\"timed_tuples\":" + Num(static_cast<f64>(u.timed_tuples)) +
             "}";
    }
    out += "]}";
  }
  return out + "]";
}

Counters RunCounters(const RunResult& r, const QueryContext& ctx,
                     bool accounting) {
  return {{"ok", r.ok() ? 1.0 : 0.0},
          {"total_cycles", static_cast<f64>(r.total_cycles)},
          {"prim_cycles", static_cast<f64>(r.stages.primitives)},
          {"accounting", accounting ? 1.0 : 0.0},
          {"mem_peak_bytes", static_cast<f64>(ctx.memory_peak())}};
}

/// Runs the 22 queries once through `session`, untimed, with memory
/// accounting on; returns each result's fingerprint and fills `peaks`.
/// A failed query here means the engine is broken: the run stops.
std::vector<u64> UntimedPass(const Workload& w, plan::QuerySession* session,
                             plan::ExecMode mode, const char* span_name,
                             Tracer* tracer, std::vector<u64>* peaks) {
  std::vector<u64> fingerprints(tpch::kNumQueries);
  peaks->assign(tpch::kNumQueries, 0);
  const int pass_span = tracer->Open(span_name);
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    QueryContext ctx;
    ctx.SetMemoryBudget(kAccountingOnlyBudget);
    const int span = tracer->Open("plan.QuerySession.Run", pass_span, q);
    RunResult r = session->Run(
        w.plans[q - 1], mode, &ctx,
        mode == plan::ExecMode::kSerial ? nullptr : &w.stage_plans[q - 1]);
    tracer->Close(span, RunCounters(r, ctx, true));
    if (!r.ok() || r.table == nullptr) {
      Die(std::string(span_name) + " Q" + std::to_string(q) +
          " failed: " + r.status.message());
    }
    fingerprints[q - 1] = ExactFingerprint(*r.table);
    (*peaks)[q - 1] = ctx.memory_peak();
  }
  tracer->Close(pass_span);
  return fingerprints;
}

int WorkerCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max(1, std::min(kMaxWorkers, static_cast<int>(hc)));
}

/// Moves the calling thread from CPU to CPU and, when destroyed, gives it
/// back every CPU it had. On a shared host each CPU slows down and speeds
/// up with what its co-tenants run, for seconds to minutes and independently
/// of the others, so timed single-threaded work that rotates over all of
/// them averages that noise instead of sampling one CPU's neighbours.
/// Threads started while pinned inherit the pin: start none.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

  /// Pins the calling thread to the i-th allowed CPU, cyclically.
  void Pin(int i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<size_t>(i) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// --- Power workloads -------------------------------------------------

/// 22-query passes, one query at a time through one session (fresh
/// bandits per query: Run resets the engines' instances), until
/// --seconds have passed. Traced runs alternate untraced and traced
/// passes so one run yields both and the tracing overhead between them.
void RunPower(const Workload& w, const std::vector<u64>& reference,
              bool staged, const Args& args, Tracer* tracer,
              Report* report) {
  plan::SessionConfig sc;
  sc.engine = tpch::AdaptiveConfig();
  sc.parallel.num_threads = WorkerCount();
  plan::QuerySession session(sc);
  const plan::ExecMode mode =
      staged ? plan::ExecMode::kParallel : plan::ExecMode::kSerial;
  Tracer off(false);
  const int min_passes = args.trace ? 4 : 3;
  // The serial workload runs on this thread alone; staged runs start pool
  // threads, which must not inherit a pin.
  std::optional<CpuRotation> cpus;
  if (!staged) cpus.emplace();

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<f64>(args.seconds));
  for (int pass = 0; pass < min_passes || Clock::now() < deadline; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    Tracer* t = traced ? tracer : &off;
    const int pass_span = t->Open("pass");
    f64 pass_s = 0;
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      QueryContext ctx;
      if (traced) ctx.SetMemoryBudget(kAccountingOnlyBudget);
      // Consecutive queries run on different CPUs, so that every pass
      // time averages over all of them.
      if (cpus) cpus->Pin(pass + q);
      const int span = t->Open("plan.QuerySession.Run", pass_span, q);
      const Clock::time_point t0 = Clock::now();
      RunResult r = session.Run(w.plans[q - 1], mode, &ctx,
                                staged ? &w.stage_plans[q - 1] : nullptr);
      const Clock::time_point t1 = Clock::now();
      t->Close(span, RunCounters(r, ctx, traced));
      if (traced) {
        const int profile_span =
            t->Open("plan.QuerySession.Profile", pass_span, q);
        const std::vector<InstanceProfile> profile = session.Profile();
        t->Close(profile_span, {}, SitesJson(profile));
      }
      const bool ok = r.ok() && r.table != nullptr &&
                      ExactFingerprint(*r.table) == reference[q - 1];
      if (r.ok() && !ok) ++report->mismatches;
      const f64 s = SecondsBetween(t0, t1);
      pass_s += s;
      report->samples.push_back(Sample{q, s * 1e3, ok, traced});
    }
    t->Close(pass_span);
    report->streams.push_back(Stream{pass_s, traced});
  }
  report->measured_s = SecondsBetween(start, Clock::now());
}

// --- Serving workload ------------------------------------------------

/// A closed loop of clients over one WorkloadServer: each client
/// submits the 22 queries in its own seeded order, round after round,
/// waiting for each result before the next submission, until --seconds
/// have passed.
void RunServe(const Workload& w, const std::vector<u64>& reference,
              const std::vector<u64>& serial_peaks, const Args& args,
              Tracer* tracer, Report* report) {
  const int workers = WorkerCount();
  const int clients = workers;

  // Per-query memory budget: twice the largest peak any query reached
  // alone, serial (the reference pass) or staged (this probe pass), so
  // every query fits alone. The pool holds one budget fewer than there
  // are clients, so leases are contended.
  u64 max_peak = *std::max_element(serial_peaks.begin(), serial_peaks.end());
  {
    plan::SessionConfig sc;
    sc.engine = tpch::AdaptiveConfig();
    sc.parallel.num_threads = workers;
    plan::QuerySession probe(sc);
    std::vector<u64> staged_peaks;
    const std::vector<u64> fingerprints =
        UntimedPass(w, &probe, plan::ExecMode::kParallel, "probe", tracer,
                    &staged_peaks);
    for (int q = 0; q < tpch::kNumQueries; ++q) {
      if (fingerprints[q] != reference[q]) ++report->mismatches;
      max_peak = std::max(max_peak, staged_peaks[q]);
    }
  }
  const u64 budget = (2 * max_peak + kMiB - 1) / kMiB * kMiB;
  const int pool_budgets = std::max(1, clients - 1);

  serve::ServerConfig cfg;
  cfg.pool_threads = workers;
  cfg.max_concurrent = clients;
  cfg.max_parallel_queries = std::max(1, clients / 2);
  cfg.memory_pool_bytes = budget * static_cast<u64>(pool_budgets);
  cfg.default_query_budget = budget;
  // Clients wait for memory rather than fail: a lease frees within one
  // query's run time.
  cfg.lease_max_wait = std::chrono::milliseconds(60000);
  cfg.session.engine = tpch::AdaptiveConfig();
  report->meta = {{"clients", static_cast<f64>(clients)},
                  {"query_budget_mib", static_cast<f64>(budget / kMiB)},
                  {"pool_budgets", static_cast<f64>(pool_budgets)},
                  {"max_parallel_queries",
                   static_cast<f64>(cfg.max_parallel_queries)}};

  serve::WorkloadServer server(cfg);
  std::mutex report_mu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<f64>(args.seconds));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(args.seed * 0x9e3779b97f4a7c15ull + static_cast<u64>(c));
      std::vector<int> order(tpch::kNumQueries);
      for (int q = 1; q <= tpch::kNumQueries; ++q) order[q - 1] = q;
      std::vector<Sample> samples;
      std::vector<Stream> streams;
      u64 mismatches = 0;
      while (Clock::now() < deadline) {
        for (size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.NextBounded(i + 1)]);
        }
        const int round_span = tracer->Open("serve.round");
        const Clock::time_point r0 = Clock::now();
        bool complete = true;
        for (const int q : order) {
          if (Clock::now() >= deadline) {
            complete = false;
            break;
          }
          const int query_span = tracer->Open("serve.query", round_span, q);
          const Clock::time_point t0 = Clock::now();
          int span =
              tracer->Open("serve.WorkloadServer.Submit", query_span, q);
          serve::QueryHandle handle =
              server.Submit(&w.plans[q - 1], "c" + std::to_string(c) + "/q" +
                                                 std::to_string(q));
          tracer->Close(span);
          span = tracer->Open("serve.QueryHandle.Wait", query_span, q);
          const serve::QueryResult& res = handle.Wait();
          tracer->Close(span);
          const Clock::time_point t1 = Clock::now();
          tracer->Close(
              query_span,
              {{"ok", res.run.ok() ? 1.0 : 0.0},
               {"queue_wait_ms",
                std::chrono::duration<f64, std::milli>(res.queue_wait)
                    .count()},
               {"exec_ms", res.run.seconds * 1e3},
               {"attempts", static_cast<f64>(res.attempts)},
               {"degraded", res.degraded_to_serial ? 1.0 : 0.0},
               {"rejected",
                res.run.reason == TerminationReason::kRejected ? 1.0 : 0.0},
               {"total_cycles", static_cast<f64>(res.run.total_cycles)},
               {"prim_cycles", static_cast<f64>(res.run.stages.primitives)}});
          const bool ok = res.run.ok() && res.run.table != nullptr &&
                          ExactFingerprint(*res.run.table) == reference[q - 1];
          if (res.run.ok() && !ok) ++mismatches;
          samples.push_back(
              Sample{q, SecondsBetween(t0, t1) * 1e3, ok, tracer->on()});
        }
        tracer->Close(round_span);
        if (complete) {
          streams.push_back(
              Stream{SecondsBetween(r0, Clock::now()), tracer->on()});
        }
      }
      std::lock_guard<std::mutex> lock(report_mu);
      report->samples.insert(report->samples.end(), samples.begin(),
                             samples.end());
      report->streams.insert(report->streams.end(), streams.begin(),
                             streams.end());
      report->mismatches += mismatches;
    });
  }
  for (std::thread& t : threads) t.join();
  report->measured_s = SecondsBetween(start, Clock::now());

  const int span = tracer->Open("serve.WorkloadServer.Shutdown");
  server.Shutdown();
  const serve::ServerStats st = server.stats();
  report->server = {
      {"submitted", static_cast<f64>(st.submitted)},
      {"rejected", static_cast<f64>(st.rejected)},
      {"executed", static_cast<f64>(st.executed)},
      {"retries", static_cast<f64>(st.retries)},
      {"degraded_to_serial", static_cast<f64>(st.degraded_to_serial)},
      {"completed_ok", static_cast<f64>(st.completed_ok)},
      {"failed", static_cast<f64>(st.failed)},
      {"plan_cache_hits", static_cast<f64>(st.plan_cache_hits)},
      {"plan_cache_misses", static_cast<f64>(st.plan_cache_misses)},
      {"profiles_merged", static_cast<f64>(st.profiles_merged)},
      {"store_profiles", static_cast<f64>(st.store_profiles)},
      {"leased_bytes_after", static_cast<f64>(server.broker()->leased_bytes())}};
  tracer->Close(span, report->server);
}

// --- Output ----------------------------------------------------------

void WriteReport(const Args& args, const Report& r, int workers) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const f64 peak_rss_mib = static_cast<f64>(usage.ru_maxrss) / 1024.0;

  std::string out = "{\"meta\":{";
  out += "\"workload\":" + Quote(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"dbgen_seed\":" + std::to_string(args.seed);
  out += ",\"scale_factor\":" + Num(kScaleFactor);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"pool_threads\":" + std::to_string(workers);
  out += ",\"simd\":" + Quote(SimdLevelName(DetectSimdLevel()));
  out += ",\"seconds\":" + Num(args.seconds);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  for (const auto& [k, v] : r.meta) out += "," + Quote(k) + ":" + Num(v);
  out += "},\"setup_s\":[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    out += (i > 0 ? "," : "") + Num(r.setup_s[i]);
  }
  out += "],\"samples\":[";
  for (size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    out += (i > 0 ? ",[" : "[") + std::to_string(s.query) + "," + Num(s.ms) +
           "," + (s.ok ? "1" : "0") + "," + (s.traced ? "1" : "0") + "]";
  }
  out += "],\"streams\":[";
  for (size_t i = 0; i < r.streams.size(); ++i) {
    out += (i > 0 ? ",[" : "[") + Num(r.streams[i].seconds) + "," +
           (r.streams[i].traced ? "1" : "0") + "]";
  }
  out += "],\"measured_s\":" + Num(r.measured_s);
  out += ",\"mismatches\":" + std::to_string(r.mismatches);
  out += ",\"peak_rss_mib\":" + Num(peak_rss_mib);
  out += ",\"server\":" + CountersJson(r.server) + "}\n";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) Die("cannot write " + args.out);
  std::fputs(out.c_str(), f);
  if (std::fclose(f) != 0) Die("cannot write " + args.out);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.out.empty() || a.seconds <= 0) Die("need --out and --seconds > 0");
  if (a.trace && a.spans.empty()) Die("--trace 1 needs --spans");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const bool power_serial = args.workload == "tpch_power_serial";
  const bool power_staged = args.workload == "tpch_power_staged";
  const bool serve = args.workload == "tpch_serve_mixed";
  if (!power_serial && !power_staged && !serve) {
    Die("unknown workload " + args.workload);
  }

  Tracer tracer(args.trace);
  Report report;
  tpch::TpchConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = args.seed;
  Workload w;
  // Set-up is single-threaded: each repetition runs on another CPU. Half
  // of them run after the timed phase, so setup_s samples the host at both
  // ends of the run rather than during its first seconds only.
  auto set_up = [&](int rep) {
    CpuRotation cpus;
    cpus.Pin(rep);
    const Clock::time_point t0 = Clock::now();
    SetUp(cfg, &tracer, &w);
    report.setup_s.push_back(SecondsBetween(t0, Clock::now()));
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep) set_up(rep);

  std::vector<u64> serial_peaks;
  std::vector<u64> reference;
  {
    plan::SessionConfig sc;
    sc.engine = tpch::AdaptiveConfig();
    plan::QuerySession session(sc);
    reference = UntimedPass(w, &session, plan::ExecMode::kSerial,
                            "reference", &tracer, &serial_peaks);
  }

  if (serve) {
    RunServe(w, reference, serial_peaks, args, &tracer, &report);
  } else {
    RunPower(w, reference, power_staged, args, &tracer, &report);
  }
  for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) set_up(rep);
  WriteReport(args, report, WorkerCount());
  if (tracer.on()) tracer.Write(args.spans);
  return 0;
}

}  // namespace
}  // namespace ma::perfbench

int main(int argc, char** argv) { return ma::perfbench::Main(argc, argv); }
