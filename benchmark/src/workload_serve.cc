// serve_mixed: an in-process serve::Server on loopback hosting Shop-14 at
// scale 0.25 (about 14k transactions), driven in a closed loop (no think
// time) over LoadThreads() LineClient connections. All but the last
// connection are tenant "dash" (Zipf(1.0) over the 126-shape catalog, its
// popularity order fixed, the request draws seeded); the last is "adhoc"
// (uniform over the catalog). Replies use "meta": false, so replies of
// one shape are byte-identical.
//
// Why: 126 shapes exceed the 64-entry result cache, which gives a steady
// mix of hits (wire, parse, cache, socket) and misses (planner reuse and
// mining); three dash sessions against the default 2-slot tenant quota
// queue in admission.

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "rpm/common/random.h"
#include "rpm/common/zipf.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/snapshot_registry.h"
#include "rpm/serve/client.h"
#include "rpm/serve/protocol.h"
#include "rpm/serve/server.h"
#include "rpm/serve/service.h"
#include "rpm/serve/wire.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "workloads.h"

namespace rpmbench {

namespace {

constexpr int64_t kCallTimeoutMs = 30000;

/// One hosted dataset behind a running server. Members are destroyed in
/// reverse order: the server drains before the service and registry go.
struct Stack {
  rpm::engine::SnapshotRegistry registry;
  std::unique_ptr<rpm::serve::QueryService> service;
  std::unique_ptr<rpm::serve::Server> server;

  rpm::engine::QueryPlanner& planner() {
    return *registry.Get("shop")->planner;
  }
};

std::unique_ptr<Stack> MakeStack(
    std::shared_ptr<const rpm::engine::DatasetSnapshot> snapshot,
    bool listen, Report* report) {
  auto stack = std::make_unique<Stack>();
  report->Check(stack->registry.Register("shop", std::move(snapshot)).ok(),
                "register dataset");
  stack->service = std::make_unique<rpm::serve::QueryService>(
      &stack->registry, rpm::serve::TenantRegistry(),
      rpm::serve::QueryService::Options());
  if (listen) {
    stack->server = std::make_unique<rpm::serve::Server>(
        stack->service.get(), rpm::serve::Server::Options());
    rpm::Status started = stack->server->Start();
    report->Check(started.ok(), "server start: " + started.ToString());
  }
  return stack;
}

struct Call {
  uint32_t shape = 0;
  bool ok = false;
  bool traced = false;
  double seconds = 0.0;
  uint64_t reply_hash = 0;
  size_t reply_bytes = 0;
};

/// Request lines per shape: {"op":"query",...,"meta":false} for the socket
/// loop and the same with meta on for the in-process replay (its "cache"
/// field splits hits from misses).
struct Catalog {
  std::vector<QueryShape> shapes;
  std::vector<uint64_t> min_ps;
  std::vector<std::string> lines;
  std::vector<std::string> meta_lines;
  std::vector<uint32_t> by_popularity;  ///< Zipf rank -> shape.
};

Catalog MakeCatalog(size_t db_size) {
  Catalog c;
  c.shapes = ShapeCatalog();
  for (size_t s = 0; s < c.shapes.size(); ++s) {
    const QueryShape& q = c.shapes[s];
    c.min_ps.push_back(std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(q.min_ps_fraction * static_cast<double>(db_size)))));
    std::ostringstream fields;
    fields << "\"dataset\":\"shop\",\"per\":" << q.per
           << ",\"min_ps\":" << c.min_ps[s] << ",\"min_rec\":" << q.min_rec
           << ",\"max_length\":" << q.max_length;
    for (bool meta : {false, true}) {
      (meta ? c.meta_lines : c.lines)
          .push_back("{\"op\":\"query\",\"id\":\"s" + std::to_string(s) +
                     "\",\"tenant\":\"TENANT\"," + fields.str() +
                     ",\"meta\":" + (meta ? "true" : "false") + "}");
    }
    c.by_popularity.push_back(static_cast<uint32_t>(s));
  }
  // One fixed popularity order for every seed: which shapes are hot
  // decides how many expensive shapes miss, so it is part of the
  // workload's shape; the seed only draws the request sequence.
  rpm::Rng rng(0x5eed);
  rng.Shuffle(&c.by_popularity);
  return c;
}

std::string WithTenant(const std::string& line, const char* tenant) {
  const size_t at = line.find("TENANT");
  return line.substr(0, at) + tenant + line.substr(at + 6);
}

const char* TenantOf(size_t connection, size_t connections) {
  return connection + 1 < connections ? "dash" : "adhoc";
}

bool ReplyOk(const std::string& reply, uint32_t shape) {
  return reply.rfind("{\"id\":\"s" + std::to_string(shape) +
                         "\",\"status\":\"OK\"",
                     0) == 0;
}

struct ClientLoop {
  /// Per connection, in order.
  std::vector<std::vector<Call>> calls;
  /// First successful reply of each shape.
  std::map<uint32_t, std::string> replies;
};

/// Closed-loop clients: each connection sends its next request when the
/// previous reply arrives, until `stop` is set (or `quota` requests each,
/// when non-zero).
ClientLoop RunClients(uint16_t port, const Catalog& catalog, uint64_t seed,
                      size_t quota, const std::atomic<bool>& stop,
                      Tracer* tracer, std::atomic<uint64_t>* next_id) {
  const size_t connections = LoadThreads();
  std::vector<std::vector<Call>> calls(connections);
  std::vector<std::map<uint32_t, std::string>> replies(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const char* tenant = TenantOf(c, connections);
      const bool dash = std::string(tenant) == "dash";
      rpm::Rng rng(SubSeed(seed, 100 + c));
      const rpm::ZipfSampler zipf(catalog.shapes.size(), dash ? 1.0 : 0.0);
      std::vector<std::string> lines;
      for (const std::string& line : catalog.lines) {
        lines.push_back(WithTenant(line, tenant));
      }
      auto client = rpm::serve::LineClient::Connect(port);
      while (client.ok() && !stop.load() &&
             (quota == 0 || calls[c].size() < quota)) {
        Call call;
        call.shape = catalog.by_popularity[zipf.Sample(&rng)];
        Span span(tracer, "serve.call", next_id->fetch_add(1));
        auto reply = client->Call(lines[call.shape], kCallTimeoutMs);
        call.seconds = span.Stop();
        call.traced = span.slot() >= 0;
        call.ok = reply.ok() && ReplyOk(*reply, call.shape);
        if (reply.ok()) {
          call.reply_hash = Fnv1a(*reply);
          call.reply_bytes = reply->size();
          if (call.ok) replies[c].emplace(call.shape, std::move(*reply));
        }
        calls[c].push_back(call);
        if (!reply.ok()) break;  // Timeout or closed connection.
      }
      if (!client.ok()) calls[c].push_back(Call{});  // Counted as failed.
    });
  }
  for (std::thread& t : threads) t.join();
  ClientLoop loop;
  loop.calls = std::move(calls);
  for (auto& per_connection : replies) loop.replies.merge(per_connection);
  return loop;
}

/// The CLI's JSON for one shape, escaped the way replies embed it.
std::string CliPatternsJson(const std::string& path, const Catalog& catalog,
                            size_t shape) {
  const QueryShape& q = catalog.shapes[shape];
  std::vector<std::string> args = {
      "rpminer", "mine", "--input=" + path, "--per=" + std::to_string(q.per),
      "--min-ps=" + std::to_string(catalog.min_ps[shape]),
      "--min-rec=" + std::to_string(q.min_rec),
      "--max-length=" + std::to_string(q.max_length), "--output-format=json"};
  std::string out, err;
  if (RunCli(args, &out, &err) != 0) return "";
  return "\"patterns_json\":\"" + rpm::serve::JsonEscape(out) + "\"";
}

struct ServiceCounters {
  rpm::serve::ResultCache::Stats cache;
  rpm::serve::AdmissionController::Stats admission;
  uint64_t tree_builds = 0;
};

ServiceCounters ReadCounters(Stack& stack) {
  return {stack.service->cache_stats(), stack.service->admission_stats(),
          stack.planner().tree_builds()};
}

void AddServiceMetrics(const ServiceCounters& a, const ServiceCounters& b,
                       Report* report) {
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  const double coalesced =
      static_cast<double>(b.cache.coalesced - a.cache.coalesced);
  const double admitted =
      static_cast<double>(b.admission.admitted - a.admission.admitted);
  const double builds = static_cast<double>(b.tree_builds - a.tree_builds);
  report->Add("serve.cache.hit_share", hits / (hits + misses + coalesced),
              "share");
  report->Add("serve.cache.coalesced", coalesced, "count");
  report->Add("serve.cache.evictions",
              static_cast<double>(b.cache.evictions - a.cache.evictions),
              "count");
  report->Add("serve.admission.queued_share",
              static_cast<double>(b.admission.queued_total -
                                  a.admission.queued_total) /
                  admitted,
              "share");
  report->Add("serve.admission.rejected",
              static_cast<double>(
                  b.admission.rejected_tenant - a.admission.rejected_tenant +
                  b.admission.rejected_global - a.admission.rejected_global),
              "count");
  report->Add("engine.tree_builds", builds, "count");
  report->Add("engine.tree_reuse_share",
              misses > 0 ? 1.0 - builds / misses : 0.0, "share");
}

}  // namespace

void RunServe(const RunOptions& options, Report* report, Tracer* tracer) {
  const double scale = options.smoke ? 0.05 : 0.25;
  const std::string path = options.out_dir + "/serve_mixed.tspmf";
  const size_t warmup = options.smoke ? 10 : 125;  // Per connection.
  std::atomic<bool> never{false};
  std::atomic<uint64_t> next_id{0};

  // Set-up: generate, write and load the dataset, start the server, run
  // the untimed warm-up. Untraced runs repeat it and keep the last stack.
  std::vector<double> setups;
  std::shared_ptr<const rpm::engine::DatasetSnapshot> snapshot;
  std::unique_ptr<Stack> stack;
  Catalog catalog;
  ClientLoop warm;
  tracer->set_enabled(options.trace);
  for (int round = 0; round < (options.trace ? 1 : 3); ++round) {
    stack.reset();
    const Clock::time_point begin = Clock::now();
    rpm::Status written =
        rpm::WriteTimestampedSpmfFile(MakeShopDb(options.seed, scale), path);
    report->Check(written.ok(), "write " + path + ": " + written.ToString());
    Span load(tracer, "timeseries.load", 0);
    auto loaded = rpm::engine::DatasetSnapshot::Load(path, "tspmf");
    load.Stop();
    report->Check(loaded.ok(), "load " + path);
    if (!loaded.ok()) return;
    snapshot = *loaded;
    catalog = MakeCatalog(snapshot->size());
    stack = MakeStack(snapshot, /*listen=*/true, report);
    warm = RunClients(stack->server->port(), catalog,
                      SubSeed(options.seed, round), warmup, never, nullptr,
                      &next_id);
    setups.push_back(SecondsSince(begin));
    for (const std::vector<Call>& connection : warm.calls) {
      for (const Call& call : connection) {
        report->Check(call.ok, "warm-up call failed");
      }
    }
  }

  // Timed closed loop. Traced runs spend half the time here, toggling
  // recording every 250 ms so traced and untraced calls share conditions.
  const double loop_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const ServiceCounters before = ReadCounters(*stack);
  std::atomic<bool> stop{false};
  const CpuStamp phase_begin = ReadCpu();
  ClientLoop loop;
  std::thread clients([&] {
    loop = RunClients(stack->server->port(), catalog, options.seed, 0, stop,
                      tracer, &next_id);
  });
  CpuStamp slice_begin = phase_begin;
  for (int tick = 0; SecondsSince(phase_begin.wall) < loop_seconds; ++tick) {
    tracer->set_enabled(options.trace && tick % 2 == 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const CpuStamp now = ReadCpu();
    report->AddSlice(SliceBetween(slice_begin, now));
    slice_begin = now;
  }
  stop.store(true);
  clients.join();
  const double loop_wall = SecondsSince(phase_begin.wall);
  const CpuSlice phase = SliceBetween(phase_begin, ReadCpu());
  tracer->set_enabled(false);
  const ServiceCounters after = ReadCounters(*stack);

  // Checks: every call succeeded, and replies of one shape are identical.
  const std::vector<std::vector<Call>>& calls = loop.calls;
  std::vector<double> all_s, dash_s, adhoc_s, traced_s, untraced_s, reply_kb;
  for (size_t c = 0; c < calls.size(); ++c) {
    for (const Call& call : calls[c]) {
      report->Check(call.ok, "call failed (shape s" +
                                 std::to_string(call.shape) + ")");
      if (!call.ok) continue;
      report->Check(call.reply_hash == Fnv1a(loop.replies[call.shape]),
                    "replies of shape s" + std::to_string(call.shape) +
                        " differ");
      all_s.push_back(call.seconds);
      (c + 1 < calls.size() ? dash_s : adhoc_s).push_back(call.seconds);
      (call.traced ? traced_s : untraced_s).push_back(call.seconds);
      reply_kb.push_back(static_cast<double>(call.reply_bytes) / 1e3);
    }
  }

  report->Add("proc.cpu_util", phase.process_cores, "cores");
  AddLatencyMetrics(all_s, report);
  report->Add("serve.tenant.dash_ms_p99", Quantile(dash_s, 0.99) * 1e3, "ms",
              dash_s.size());
  report->Add("serve.tenant.adhoc_ms_p99", Quantile(adhoc_s, 0.99) * 1e3, "ms",
              adhoc_s.size());
  report->Add("serve.reply_kb_p50", Median(reply_kb), "kB", reply_kb.size());
  AddServiceMetrics(before, after, report);

  // Every shape seen must carry the patterns `rpminer mine` prints for it.
  const Clock::time_point check_begin = Clock::now();
  for (const auto& [shape, reply] : loop.replies) {
    const std::string want = CliPatternsJson(path, catalog, shape);
    report->Check(!want.empty() && reply.find(want) != std::string::npos,
                  "shape s" + std::to_string(shape) +
                      " differs from rpminer mine");
  }
  report->Add("serve.check_s", SecondsSince(check_begin), "s",
              loop.replies.size());

  if (!options.trace) {
    report->Add("setup_s", Median(setups), "s", setups.size());
    report->Add("ops_per_s", static_cast<double>(all_s.size()) / loop_wall,
                "1/s", all_s.size());
    return;
  }
  // Means, not medians: the median request is a cache hit whose latency
  // depends on whether an admission slot is free, and flips between modes.
  const double traced_mean =
      Sum(traced_s) / static_cast<double>(traced_s.size());
  const double untraced_mean =
      Sum(untraced_s) / static_cast<double>(untraced_s.size());
  report->Add("trace.overhead", traced_mean / untraced_mean - 1.0, "share",
              traced_s.size());

  // Replay 1: the warm-up and then the timed per-connection sequences
  // through HandleLine on as many threads, against a fresh service (so its
  // cache starts where the server's did); the reply's "cache" field splits
  // hits from misses.
  std::unique_ptr<Stack> fresh = MakeStack(snapshot, /*listen=*/false, report);
  std::vector<std::vector<std::pair<double, std::string>>> handled(
      calls.size());
  auto replay = [&](const std::vector<std::vector<Call>>& sequences,
                    bool record) {
    const Clock::time_point begin = Clock::now();
    tracer->set_enabled(record);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < sequences.size(); ++c) {
      threads.emplace_back([&, c] {
        const char* tenant = TenantOf(c, sequences.size());
        for (const Call& call : sequences[c]) {
          if (record && SecondsSince(begin) > options.seconds / 4) break;
          const std::string line =
              WithTenant(catalog.meta_lines[call.shape], tenant);
          Span span(tracer, "serve.handle", call.shape);
          const std::string reply = fresh->service->HandleLine(line);
          const double s = span.Stop();
          for (const char* kind : {"hit", "miss", "coalesced"}) {
            if (record && reply.find(std::string("\"cache\":\"") + kind +
                                     "\"") != std::string::npos) {
              handled[c].emplace_back(s, kind);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  replay(warm.calls, false);
  replay(calls, true);
  std::vector<double> hit_s, miss_s, handle_s;
  for (const auto& conn : handled) {
    for (const auto& [s, kind] : conn) {
      handle_s.push_back(s);
      if (kind == "hit") hit_s.push_back(s);
      if (kind == "miss") miss_s.push_back(s);
    }
  }
  report->Check(!handle_s.empty(), "in-process replay handled nothing");
  report->Add("serve.handle_hit_ms_p50", Median(hit_s) * 1e3, "ms",
              hit_s.size());
  report->Add("serve.handle_miss_ms_p50", Median(miss_s) * 1e3, "ms",
              miss_s.size());
  report->Add("serve.handle_miss_ms_p99", Quantile(miss_s, 0.99) * 1e3, "ms",
              miss_s.size());
  report->Add("serve.transport_ms_p50",
              (Median(all_s) - Median(handle_s)) * 1e3, "ms", all_s.size());

  // Request decoding alone.
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t s = 0; s < catalog.lines.size(); ++s) {
      const std::string line = WithTenant(catalog.lines[s], "dash");
      Span span(tracer, "serve.parse", s);
      const bool parsed = rpm::serve::ParseRequest(line).ok();
      span.Stop();
      report->Check(parsed, "parse shape s" + std::to_string(s));
    }
  }
  const std::vector<double> parse_s = tracer->Durations("serve.parse");
  report->Add("serve.parse_us_p50", Median(parse_s) * 1e6, "us",
              parse_s.size());

  // Replay 2: shapes in a seeded order (each a miss on a fresh planner)
  // through PlanFor / Execute, then the core layers under them.
  rpm::engine::QueryPlanner planner(snapshot);
  std::vector<uint32_t> order = catalog.by_popularity;
  rpm::Rng rng(SubSeed(options.seed, 11));
  rng.Shuffle(&order);
  CoreReplay first;
  const Clock::time_point engine_begin = Clock::now();
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && SecondsSince(engine_begin) > options.seconds / 4) break;
    const uint32_t s = order[i];
    rpm::engine::Query query;
    query.params.period = catalog.shapes[s].per;
    query.params.min_ps = catalog.min_ps[s];
    query.params.min_rec = catalog.shapes[s].min_rec;
    query.max_pattern_length = catalog.shapes[s].max_length;
    Span root(tracer, "engine.query", s);
    Span plan_span(tracer, "engine.plan", s, root.slot());
    planner.PlanFor(query.params);
    plan_span.Stop();
    Span execute_span(tracer, "engine.execute", s, root.slot());
    auto result =
        rpm::engine::GetExecutor(rpm::engine::BackendKind::kSequential)
            .Execute(planner, query, {});
    execute_span.Stop();
    root.Stop();
    CoreReplay replay = ReplayCore(tracer, s, -1, snapshot->db(), query.params,
                                   query.max_pattern_length);
    report->Check(result.ok() && result->patterns == replay.patterns &&
                      replay.consistent,
                  "engine and core replays of shape s" + std::to_string(s) +
                      " differ");
    if (i == 0) first = std::move(replay);
  }
  tracer->set_enabled(false);
  AddSpanP50(*tracer, "engine.plan", "engine.plan_ms_p50", report);
  AddSpanP50(*tracer, "engine.execute", "engine.execute_ms_p50", report);
  AddCoreLayerMetrics(*tracer, first, report);
  AddAbsentLayerMetrics("serve", report);
}

}  // namespace rpmbench
