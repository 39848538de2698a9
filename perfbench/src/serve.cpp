// serve_mixed and serve_cold40: an open-loop request schedule sent from
// one thread over four connections to an in-process TcpServer, at a fixed
// ladder of rates. Requests are mostly repeats of a hot set warmed during
// set-up, plus a seeded cold tail of new run_pair / run_multicore
// configurations and a few ping / statsz. A cold run holds up every hit
// batched with it, which is what the tail latency shows.
//
// After the ladder a cold pass sends a fixed number of configurations
// never seen before all at once and times them until the last answer: the
// simulator's own throughput through the service, which the ladder's
// schedule does not set.
//
// The request mix is an assumption, not taken from a request log (the
// repository has none): one cold request in 100, one ping in 50, one
// statsz in 500, a hot set of ten pairs and two multicore runs, and most
// of the time at 400 requests/s. The cold share is what sets p99_ms, so
// serve_cold40 runs the same schedule with one cold request in 40. (With
// no cold request at all, p99_ms is a fraction of a millisecond set by
// host scheduling jitter, and moved by 40-50% between identical runs.)
#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "harness/parallel.hpp"
#include "harness/run_cache.hpp"
#include "harness/sampler.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using amps::harness::ExperimentRunner;
using amps::harness::MulticoreRunner;
using amps::harness::RunCache;
using amps::service::Json;
using amps::service::LineClient;
using amps::service::SimulationService;
using amps::service::TcpServer;

constexpr std::size_t kConnections = 4;
constexpr int kSetupReps = 3;
constexpr std::size_t kHotPairs = 10;
constexpr std::size_t kHotMulticore = 2;
constexpr std::size_t kMulticoreThreads = 4;
/// One request in this many is a configuration never seen before.
constexpr std::size_t kMixedColdEvery = 100;
constexpr std::size_t kHeavyColdEvery = 40;
/// Cold configurations the closing cold pass sends at once.
constexpr std::size_t kColdPass = 72;
constexpr std::size_t kPingEvery = 50;
constexpr std::size_t kStatszEvery = 500;
/// Latency limit on the 99th percentile, fixed once: between a warm hit
/// (a fraction of a millisecond) and a cold ci-scale run (tens of ms).
constexpr double kLimitMs = 25.0;
/// A rung whose generator ran later than this share of the limit (p99)
/// measured the generator, not the server, and is reported invalid.
constexpr double kMaxLateShare = 0.25;
constexpr std::size_t kProbeRequests = 1000;

struct Rung {
  double rate;   ///< requests per second
  double share;  ///< share of --seconds spent at this rate
};
/// The nominal rung is where p50_ms and p99_ms are read.
constexpr Rung kLadder[] = {{100, 0.15}, {200, 0.15}, {400, 0.55}, {800, 0.15}};
constexpr std::size_t kNominal = 2;
/// p99_ms is the median of the 99th percentiles of this many consecutive
/// windows of the nominal rung, so that a burst of host jitter moves one
/// window and not the figure. With --seconds 18 a window holds 1320
/// requests, so its p99 has thirteen samples beyond it.
constexpr std::size_t kWindows = 3;

const char* const kPairSchedulers[] = {"proposed", "round-robin", "static",
                                       "hpe-regression"};
const char* const kMulticoreSchedulers[] = {"affinity", "round-robin",
                                            "static", "bandit"};
// No HPE in the cold pool: the service fits HPE models per scale, so an
// HPE request at a new run length would also profile nine benchmarks.
const char* const kColdSchedulers[] = {"proposed", "round-robin", "static"};
constexpr std::uint64_t kColdPoolSeed = 7;

struct Config {
  bool multicore = false;
  std::vector<const amps::wl::BenchmarkSpec*> benches;
  std::string scheduler;
  amps::InstrCount run_length = 0;  ///< 0 = the ci default, no override
};

std::string run_line(const Config& c, std::uint64_t id) {
  Json j = Json::object();
  j.set("id", Json(id));
  j.set("op", Json(c.multicore ? "run_multicore" : "run_pair"));
  Json names = Json::array();
  for (const auto* b : c.benches) names.push_back(Json(b->name));
  j.set(c.multicore ? "workload" : "bench", std::move(names));
  j.set("scheduler", Json(c.scheduler));
  j.set("scale", Json("ci"));
  if (c.run_length != 0) {
    Json overrides = Json::object();
    overrides.set("run_length", Json(c.run_length));
    j.set("overrides", std::move(overrides));
  }
  return j.dump();
}

std::string control_line(const char* op, std::uint64_t id) {
  Json j = Json::object();
  j.set("id", Json(id));
  j.set("op", Json(op));
  return j.dump();
}

enum class Kind : std::uint8_t { kHot, kCold, kControl };

struct Planned {
  double offset = 0.0;  ///< seconds after the rung start
  Kind kind = Kind::kHot;
  std::size_t config = 0;  ///< index into configs (run requests)
  std::string line;
};

struct Record {
  double due = 0.0;
  double sent = 0.0;
  double recv = 0.0;
  std::atomic<int> answers{0};
  std::atomic<bool> ready{false};  ///< recv and response are written
  std::string response;
};

/// The hot set is drawn from the seed. Every cold request is new: one of
/// a fixed pool of configurations with a seeded, never repeated run-length
/// override. A fixed pool keeps the cost of a cold run, and so the tail
/// latency it causes, the same from seed to seed.
std::vector<Config> make_configs(const amps::wl::BenchmarkCatalog& catalog,
                                 std::uint64_t seed, std::size_t cold) {
  std::vector<Config> out;
  for (const auto& p : amps::harness::sample_pairs(
           catalog, static_cast<int>(kHotPairs), seed)) {
    out.push_back({false,
                   {p.first, p.second},
                   kPairSchedulers[out.size() % std::size(kPairSchedulers)],
                   0});
  }
  const auto hot_workloads = amps::harness::sample_workloads(
      catalog, kMulticoreThreads, static_cast<int>(kHotMulticore), seed + 1);
  for (std::size_t i = 0; i < hot_workloads.size(); ++i)
    out.push_back({true, hot_workloads[i],
                   kMulticoreSchedulers[i % std::size(kMulticoreSchedulers)],
                   0});

  std::vector<Config> pool;
  for (const auto& p : amps::harness::sample_pairs(catalog, 3, kColdPoolSeed))
    pool.push_back({false,
                    {p.first, p.second},
                    kColdSchedulers[pool.size() % std::size(kColdSchedulers)],
                    0});
  // A two-thread multicore run costs about what a pair run costs, so every
  // cold request blocks its batch for a similar time.
  pool.push_back({true,
                  amps::harness::sample_workloads(catalog, 2, 1, kColdPoolSeed)
                      .front(),
                  "affinity", 0});
  // Distinct run-length reductions, in seeded order.
  std::vector<amps::InstrCount> cuts(cold);
  for (std::size_t i = 0; i < cold; ++i) cuts[i] = 1 + i;
  std::mt19937_64 rng(seed);
  std::shuffle(cuts.begin(), cuts.end(), rng);
  const amps::InstrCount base = amps::sim::SimScale::ci().run_length;
  for (std::size_t i = 0; i < cold; ++i) {
    Config c = pool[i % pool.size()];
    c.run_length = base - cuts[i];
    out.push_back(std::move(c));
  }
  return out;
}

std::size_t hot_count() { return kHotPairs + kHotMulticore; }

struct Plan {
  std::vector<Config> configs;
  std::vector<Planned> requests;
  std::vector<std::size_t> rung_begin;  ///< first request of each rung
  std::vector<std::size_t> cold_pass;   ///< configs of the closing cold pass
};

/// One ladder request in `cold_every` is cold.
Plan make_plan(const amps::wl::BenchmarkCatalog& catalog, std::uint64_t seed,
               double seconds, std::size_t cold_every) {
  std::size_t total = 0;
  for (const Rung& r : kLadder)
    total += static_cast<std::size_t>(r.rate * r.share * seconds);
  // At most one cold request per cold_every of each rung, rounded up.
  const std::size_t ladder_cold = total / cold_every + std::size(kLadder);
  Plan plan;
  plan.configs = make_configs(catalog, seed, ladder_cold + kColdPass);
  for (std::size_t i = hot_count() + ladder_cold; i < plan.configs.size(); ++i)
    plan.cold_pass.push_back(i);
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  std::uniform_int_distribution<std::size_t> pick(0, hot_count() - 1);
  std::size_t next_cold = hot_count();
  for (std::size_t r = 0; r < std::size(kLadder); ++r) {
    plan.rung_begin.push_back(plan.requests.size());
    const auto n =
        static_cast<std::size_t>(kLadder[r].rate * kLadder[r].share * seconds);
    for (std::size_t k = 0; k < n; ++k) {
      Planned p;
      p.offset = static_cast<double>(k) / kLadder[r].rate;
      const std::uint64_t id = plan.requests.size();
      if (k % cold_every == cold_every / 2 &&
          next_cold < hot_count() + ladder_cold) {
        p.kind = Kind::kCold;
        p.config = next_cold++;
        p.line = run_line(plan.configs[p.config], id);
      } else if (k % kStatszEvery == kStatszEvery / 5) {
        p.kind = Kind::kControl;
        p.line = control_line("statsz", id);
      } else if (k % kPingEvery == kPingEvery / 2) {
        p.kind = Kind::kControl;
        p.line = control_line("ping", id);
      } else {
        p.config = pick(rng);
        p.line = run_line(plan.configs[p.config], id);
      }
      plan.requests.push_back(std::move(p));
    }
  }
  plan.rung_begin.push_back(plan.requests.size());
  return plan;
}

/// The "result" member of an ok response, byte for byte ("" otherwise).
std::string result_text(const std::string& response) {
  static const std::string kKey = ",\"result\":";
  if (response.find("\"ok\":true") == std::string::npos) return {};
  const std::size_t pos = response.find(kKey);
  if (pos == std::string::npos || response.back() != '}') return {};
  const std::size_t begin = pos + kKey.size();
  return response.substr(begin, response.size() - 1 - begin);
}

/// Direct (socket-free, cache-free) serialisation of one configuration.
struct Direct {
  std::string text;
  std::uint64_t committed = 0;
  double format_us = 0.0;  ///< median to_json(result).dump() time
};

template <typename R>
void serialise(const R& r, Direct* d) {
  constexpr int kRepeats = 25;
  std::vector<double> us;
  for (int i = 0; i < kRepeats; ++i) {
    const double t0 = now_s();
    d->text = amps::service::to_json(r).dump();
    us.push_back((now_s() - t0) * 1e6);
  }
  d->format_us = median(us);
  for (const auto& t : r.threads) d->committed += t.committed;
}

Direct direct_result(const Config& c, const amps::sched::HpeModels& models) {
  amps::sim::SimScale scale = amps::sim::SimScale::ci();
  if (c.run_length != 0) scale.run_length = c.run_length;
  Direct d;
  if (c.multicore) {
    const MulticoreRunner runner =
        MulticoreRunner::canonical(scale, c.benches.size());
    amps::harness::NCoreSchedulerFactory f =
        c.scheduler == "affinity"      ? runner.affinity_factory()
        : c.scheduler == "round-robin" ? runner.round_robin_factory()
        : c.scheduler == "static"      ? runner.static_factory()
                                       : runner.bandit_factory();
    auto s = f();
    serialise(runner.run(c.benches, *s), &d);
    return d;
  }
  const ExperimentRunner runner(scale);
  amps::harness::SchedulerFactory f =
      c.scheduler == "proposed"      ? runner.proposed_factory()
      : c.scheduler == "round-robin" ? runner.round_robin_factory()
      : c.scheduler == "static"      ? runner.static_factory()
                                     : runner.hpe_factory(*models.regression);
  auto s = f();
  serialise(runner.run_pair({c.benches[0], c.benches[1]}, *s), &d);
  return d;
}

/// A running service with its server and four connected clients.
struct Stack {
  std::unique_ptr<SimulationService> service;
  std::unique_ptr<TcpServer> server;
  std::vector<std::unique_ptr<LineClient>> clients;

  Stack() {
    service = std::make_unique<SimulationService>();
    server = std::make_unique<TcpServer>(*service, 0);
    for (std::size_t i = 0; i < kConnections; ++i) {
      clients.push_back(std::make_unique<LineClient>());
      clients.back()->connect(server->port());
    }
  }
  ~Stack() {
    clients.clear();
    server.reset();
    service.reset();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Sends every hot configuration once (pipelined over the connections)
  /// and waits for the answers. False when any answer is not ok.
  bool warm(const std::vector<Config>& configs) {
    std::vector<std::size_t> per_client(kConnections, 0);
    for (std::size_t i = 0; i < hot_count(); ++i) {
      clients[i % kConnections]->send(run_line(configs[i], i));
      ++per_client[i % kConnections];
    }
    bool ok = true;
    for (std::size_t c = 0; c < kConnections; ++c) {
      for (std::size_t k = 0; k < per_client[c]; ++k) {
        std::string line;
        ok = clients[c]->recv_line(&line) && !result_text(line).empty() && ok;
      }
    }
    return ok;
  }
};

std::uint64_t parse_id(const std::string& line) {
  static const std::string kKey = "{\"id\":";
  if (line.rfind(kKey, 0) != 0) return std::numeric_limits<std::uint64_t>::max();
  return std::strtoull(line.c_str() + kKey.size(), nullptr, 10);
}

struct RungStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double window_p99_ms = 0.0;  ///< median of the kWindows windows' p99
  double hit_p99_ms = 0.0;
  double miss_p99_ms = 0.0;
  double late_p99_ms = 0.0;
  double rate = 0.0;  ///< measured send rate
  std::size_t backlog_max = 0;
  std::size_t failed = 0;
  bool valid = true;
  bool meets_limit = false;
};

void serve(const Args& args, Result& out, std::size_t cold_every) {
  std::unique_ptr<amps::wl::BenchmarkCatalog> catalog;
  std::unique_ptr<Stack> stack;
  Plan plan;
  bool warm_ok = true;
  const double setup_s = timed_setups(kSetupReps, [&] {
    stack.reset();
    RunCache::instance().clear();
    catalog = std::make_unique<amps::wl::BenchmarkCatalog>();
    plan = make_plan(*catalog, args.seed, args.seconds, cold_every);
    stack = std::make_unique<Stack>();
    warm_ok = stack->warm(plan.configs) && warm_ok;
  });
  if (!warm_ok) out.fail(args.workload + ": a hot-set request failed during set-up");

  // Records: the ladder, the cold pass, one final statsz, then the traced
  // probes.
  const std::size_t ladder = plan.requests.size();
  const std::size_t pass_base = ladder;
  const std::size_t statsz_id = pass_base + plan.cold_pass.size();
  const std::size_t probe_base = statsz_id + 1;
  std::vector<Record> records(probe_base + kProbeRequests);
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> recv_error{false};
  std::vector<std::thread> receivers;
  // Ends the connections and joins the receivers on every exit path: a
  // half-closed connection makes the server answer what it read and close.
  struct Joiner {
    Stack& stack;
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (auto& c : stack.clients) c->shutdown_write();
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  };
  std::optional<Joiner> joiner;
  joiner.emplace(*stack, receivers);
  for (std::size_t c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      try {
        std::string line;
        while (stack->clients[c]->recv_line(&line)) {
          const double t = now_s();
          const std::uint64_t id = parse_id(line);
          if (id < records.size()) {
            Record& r = records[id];
            if (r.answers.fetch_add(1) == 0) {
              r.recv = t;
              r.response = std::move(line);
              r.ready.store(true, std::memory_order_release);
            }
          }
          answered.fetch_add(1);
        }
      } catch (const std::exception&) {
        recv_error = true;
      }
    });
  }

  // Sleeps of the sending thread end within microseconds of the due time
  // instead of the default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::size_t sent = 0;
  const auto send = [&](std::size_t id, const std::string& line) {
    Record& r = records[id];
    const auto due = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(r.due)));
    std::this_thread::sleep_until(due);
    r.sent = now_s();
    stack->clients[id % kConnections]->send(line);
    ++sent;
  };
  const auto wait_answers = [&](std::size_t target, double timeout_s) {
    const double until = now_s() + timeout_s;
    while (answered.load() < target && now_s() < until && !recv_error)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  };

  // The ladder: each rung is sent on schedule, then drained.
  std::vector<RungStats> rungs(std::size(kLadder));
  for (std::size_t r = 0; r < std::size(kLadder); ++r) {
    const double start = now_s() + 0.01;
    std::size_t backlog_max = 0;
    for (std::size_t i = plan.rung_begin[r]; i < plan.rung_begin[r + 1]; ++i) {
      records[i].due = start + plan.requests[i].offset;
      send(i, plan.requests[i].line);
      backlog_max = std::max(backlog_max, sent - answered.load());
    }
    wait_answers(sent, 30.0);
    RungStats& st = rungs[r];
    st.backlog_max = backlog_max;
    std::vector<double> lat;
    std::vector<double> hit;
    std::vector<double> miss;
    std::vector<double> late;
    for (std::size_t i = plan.rung_begin[r]; i < plan.rung_begin[r + 1]; ++i) {
      const Record& rec = records[i];
      late.push_back((rec.sent - rec.due) * 1e3);
      const bool answered_ok =
          rec.ready.load(std::memory_order_acquire) &&
          rec.answers.load() == 1 &&
          rec.response.find("\"ok\":true") != std::string::npos;
      const double ms = answered_ok ? (rec.recv - rec.due) * 1e3
                                    : std::numeric_limits<double>::infinity();
      if (!answered_ok) ++st.failed;
      lat.push_back(ms);
      if (plan.requests[i].kind == Kind::kHot) hit.push_back(ms);
      if (plan.requests[i].kind == Kind::kCold) miss.push_back(ms);
    }
    const std::size_t first = plan.rung_begin[r];
    const std::size_t lastreq = plan.rung_begin[r + 1] - 1;
    st.rate = static_cast<double>(lastreq - first) /
              std::max(1e-9, records[lastreq].sent - records[first].sent);
    st.p50_ms = quantile(lat, 0.5);
    st.p99_ms = quantile(lat, 0.99);
    std::vector<double> window_p99;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto at = [&](std::size_t k) {
        return lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * k / kWindows);
      };
      window_p99.push_back(quantile(std::vector<double>(at(w), at(w + 1)), 0.99));
    }
    st.window_p99_ms = median(window_p99);
    st.hit_p99_ms = quantile(hit, 0.99);
    st.miss_p99_ms = quantile(miss, 0.99);
    st.late_p99_ms = quantile(late, 0.99);
    st.valid = st.late_p99_ms <= kMaxLateShare * kLimitMs;
    // Little's law: more in flight than the limit allows is a backlog.
    const auto allowed =
        static_cast<std::size_t>(kLadder[r].rate * kLimitMs / 1e3) + 1;
    st.meets_limit = st.valid && st.failed == 0 && st.p99_ms <= kLimitMs &&
                     backlog_max <= allowed;
  }

  // The cold pass: every configuration sent at once, timed from the first
  // send to the last answer.
  const double pass_t0 = now_s();
  for (std::size_t k = 0; k < plan.cold_pass.size(); ++k) {
    records[pass_base + k].due = now_s();
    send(pass_base + k, run_line(plan.configs[plan.cold_pass[k]], pass_base + k));
  }
  wait_answers(sent, 60.0);
  double pass_end = pass_t0;
  for (std::size_t k = 0; k < plan.cold_pass.size(); ++k) {
    const Record& rec = records[pass_base + k];
    if (rec.ready.load(std::memory_order_acquire))
      pass_end = std::max(pass_end, rec.recv);
  }
  const double pass_s = pass_end - pass_t0;

  // Final statsz, a cross-check on the failures counted per request.
  records[statsz_id].due = now_s();
  send(statsz_id, control_line("statsz", statsz_id));
  wait_answers(sent, 10.0);
  const Json statsz =
      records[statsz_id].ready.load(std::memory_order_acquire)
          ? Json::parse(records[statsz_id].response)
          : Json();
  if (statsz.is_null())
    out.fail(args.workload + ": the final statsz was not answered");
  const Json& counters = statsz.get("result").get("stats").get("counters");
  const auto queue_full = static_cast<std::uint64_t>(
      counters.get("service.rejected_queue_full").as_number());
  const auto dropped = static_cast<std::uint64_t>(
      counters.get("service.responses_dropped").as_number());

  // Traced probes: the same hot requests direct to the service (no
  // socket) and over TCP one at a time, plus parse and format timings.
  std::vector<double> direct_ms;
  std::vector<double> tcp_ms;
  std::vector<double> parse_us;
  if (args.trace) {
    std::mt19937_64 rng(args.seed);
    std::uniform_int_distribution<std::size_t> pick(0, hot_count() - 1);
    for (std::size_t k = 0; k < kProbeRequests; ++k) {
      const std::string line =
          run_line(plan.configs[pick(rng)], probe_base + k);
      std::mutex m;
      std::condition_variable cv;
      bool done = false;
      std::string response;
      const double t0 = now_s();
      stack->service->submit(line, [&](const std::string& resp) {
        std::lock_guard<std::mutex> lock(m);
        response = resp;
        done = true;
        cv.notify_one();
      });
      {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done; });
      }
      direct_ms.push_back((now_s() - t0) * 1e3);

      Record& probe = records[probe_base + k];
      probe.due = now_s();
      send(probe_base + k, line);
      wait_answers(sent, 10.0);
      if (!probe.ready.load(std::memory_order_acquire)) {
        out.fail(args.workload + ": a TCP probe request was not answered");
        break;
      }
      tcp_ms.push_back((probe.recv - probe.due) * 1e3);

      std::string error;
      const double p0 = now_s();
      const auto parsed = amps::service::parse_request(line, &error);
      parse_us.push_back((now_s() - p0) * 1e6);
      if (!parsed || result_text(response).empty())
        out.fail(args.workload + ": a direct probe request failed");
    }
  }

  joiner.reset();
  stack.reset();
  if (recv_error) out.fail(args.workload + ": a connection failed");

  // Byte identity: every answered run against a direct serialisation, and
  // every id answered exactly once.
  const amps::sched::HpeModels models =
      ExperimentRunner(amps::sim::SimScale::ci()).build_models(*catalog);
  std::vector<int> used(plan.configs.size(), 0);
  for (const Planned& p : plan.requests)
    if (p.kind != Kind::kControl) used[p.config] = 1;
  for (const std::size_t c : plan.cold_pass) used[c] = 1;
  std::vector<Direct> direct(plan.configs.size());
  amps::harness::parallel_for(plan.configs.size(), [&](std::size_t i) {
    if (used[i]) direct[i] = direct_result(plan.configs[i], models);
  });
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < ladder; ++i) {
    const Planned& p = plan.requests[i];
    const Record& rec = records[i];
    bool ok = rec.answers.load() == 1;
    if (ok && p.kind == Kind::kControl)
      ok = rec.response.find("\"ok\":true") != std::string::npos;
    else if (ok)
      ok = result_text(rec.response) == direct[p.config].text;
    if (!ok) ++failed;
  }
  std::uint64_t pass_committed = 0;
  for (std::size_t k = 0; k < plan.cold_pass.size(); ++k) {
    const Record& rec = records[pass_base + k];
    const Direct& d = direct[plan.cold_pass[k]];
    if (rec.answers.load() != 1 || result_text(rec.response) != d.text) ++failed;
    pass_committed += d.committed;
  }
  out.add_ops(ladder + plan.cold_pass.size(), failed);
  if (failed != 0)
    out.fail(args.workload + ": " + std::to_string(failed) +
             " requests failed, were refused or differ from direct runs");
  // A refused or dropped request is already a failed one above; statsz
  // counting more of them than that means a request went unchecked.
  if (queue_full + dropped > failed)
    out.fail(args.workload + ": statsz reports " +
             std::to_string(queue_full + dropped) +
             " refused or dropped requests, more than failed");

  const RungStats& nominal = rungs[kNominal];
  double max_rps = 0.0;
  std::string invalid;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if (rungs[r].meets_limit) max_rps = std::max(max_rps, rungs[r].rate);
    if (!rungs[r].valid)
      invalid += (invalid.empty() ? "" : ",") +
                 std::to_string(static_cast<int>(kLadder[r].rate));
  }
  out.note("limit_ms", std::to_string(kLimitMs));
  out.note("invalid_rungs", invalid.empty() ? "none" : invalid);
  for (std::size_t r = 0; r < rungs.size(); ++r)
    out.note("rung_" + std::to_string(static_cast<int>(kLadder[r].rate)),
             "p50_ms=" + std::to_string(rungs[r].p50_ms) +
                 " p99_ms=" + std::to_string(rungs[r].p99_ms) +
                 " window_p99_ms=" + std::to_string(rungs[r].window_p99_ms) +
                 " late_p99_ms=" + std::to_string(rungs[r].late_p99_ms) +
                 " backlog_max=" + std::to_string(rungs[r].backlog_max) +
                 (rungs[r].meets_limit ? " meets" : " misses"));
  out.note("cold_pass_s", std::to_string(pass_s));
  if (!nominal.valid)
    out.fail(args.workload + ": the generator ran late at the nominal rate");

  if (args.trace) {
    PerLayer layers;
    double late_p99 = 0.0;
    std::size_t backlog = 0;
    for (const RungStats& r : rungs) {
      late_p99 = std::max(late_p99, r.late_p99_ms);
      backlog = std::max(backlog, r.backlog_max);
    }
    const double direct_p50 = quantile(direct_ms, 0.5);
    layers.set("service.direct_ms.p50", direct_p50);
    layers.set("service.direct_ms.p99", quantile(direct_ms, 0.99));
    layers.set("service.transport_ms.p50", quantile(tcp_ms, 0.5) - direct_p50);
    layers.set("service.parse_us", quantile(parse_us, 0.5));
    std::vector<double> format_us;
    for (std::size_t i = 0; i < hot_count(); ++i)
      format_us.push_back(direct[i].format_us);
    layers.set("service.format_us", median(format_us));
    layers.set("service.p50_ms", nominal.p50_ms);
    layers.set("service.hit_ms.p99", nominal.hit_p99_ms);
    layers.set("service.miss_ms.p99", nominal.miss_p99_ms);
    layers.set("service.queue_full", static_cast<double>(queue_full));
    layers.set("service.responses_dropped", static_cast<double>(dropped));
    layers.set("service.max_rps_at_slo", max_rps);
    layers.set("loadgen.late_ms.p99", late_p99);
    layers.set("loadgen.backlog_max", static_cast<double>(backlog));
    layers.emit(out);
  } else {
    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", pass_s, "s");
    out.metric("sim_minstr_per_s",
               static_cast<double>(pass_committed) / pass_s / 1e6, "Minstr/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("p99_ms", nominal.window_p99_ms, "ms");
    out.note("max_rps_at_slo", std::to_string(max_rps));
  }
}

}  // namespace

void serve_mixed(const Args& args, Result& out) {
  serve(args, out, kMixedColdEvery);
}

void serve_cold40(const Args& args, Result& out) {
  serve(args, out, kHeavyColdEvery);
}

}  // namespace perfbench
