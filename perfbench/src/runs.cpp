#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>

#include "harness/parallel.hpp"
#include "harness/run_cache.hpp"
#include "service/protocol.hpp"
#include "workload/trace_store.hpp"
#include "workloads.hpp"

namespace perfbench {

using amps::harness::ExperimentRunner;
using amps::harness::MulticoreRunner;
using amps::harness::OpenRunState;
using amps::harness::PairRunState;
using amps::harness::RunCache;
using amps::metrics::OpenRunResult;
using amps::metrics::PairRunResult;
using amps::service::Json;

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"workload.gen_s", "s"},
    {"workload.ops", "count"},
    {"workload.ns_per_op", "ns"},
    {"workload.trace_mb", "MB"},
    {"sim.self_s", "s"},
    {"sim.cycles", "count"},
    {"sim.committed", "count"},
    {"sim.ns_per_cycle", "ns"},
    {"sim.advances", "count"},
    {"sim.cycles_per_advance", "count"},
    {"core.profile_s", "s"},
    {"core.tick_s", "s"},
    {"core.ticks", "count"},
    {"core.hint_s", "s"},
    {"core.decision_points", "count"},
    {"core.swaps", "count"},
    {"core.swap_ratio", "ratio"},
    {"core.fig9_err_vs_hpe_pp", "pp"},
    {"core.fig9_err_vs_rr_pp", "pp"},
    {"harness.self_s", "s"},
    {"harness.idle_s", "s"},
    {"harness.run_ms.p50", "ms"},
    {"harness.run_ms.max", "ms"},
    {"harness.busy_frac", "ratio"},
    {"harness.lane_occupancy_pct", "%"},
    {"harness.cache_hits", "count"},
    {"harness.cache_misses", "count"},
    {"harness.cache_disk_hits", "count"},
    {"harness.cache_hit_ratio", "ratio"},
    {"harness.cache_mb", "MB"},
    {"harness.disk_mb", "MB"},
    {"service.direct_ms.p50", "ms"},
    {"service.direct_ms.p99", "ms"},
    {"service.transport_ms.p50", "ms"},
    {"service.parse_us", "us"},
    {"service.format_us", "us"},
    {"service.p50_ms", "ms"},
    {"service.hit_ms.p99", "ms"},
    {"service.miss_ms.p99", "ms"},
    {"service.queue_full", "count"},
    {"service.responses_dropped", "count"},
    {"service.max_rps_at_slo", "1/s"},
    {"loadgen.late_ms.p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.accounted_pct", "%"},
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void add_totals(SimTotals* totals, std::uint64_t cycles,
                std::uint64_t committed, std::uint64_t decisions,
                std::uint64_t swaps) {
  ++totals->runs;
  totals->cycles += cycles;
  totals->committed += committed;
  totals->decisions += decisions;
  totals->swaps += swaps;
}

std::uint64_t committed_of(const amps::metrics::PairRunResult& r) {
  std::uint64_t c = 0;
  for (const auto& t : r.threads) c += t.committed;
  return c;
}

std::uint64_t committed_of(const amps::metrics::OpenRunResult& r) {
  std::uint64_t c = 0;
  for (const auto& j : r.jobs) c += j.committed;
  return c;
}

/// Per-job scheduler counters of a simulated run (unset for cache hits).
struct JobCounters {
  bool simulated = false;
  std::uint64_t decisions = 0;
  std::uint64_t swaps = 0;
};

template <typename R>
void sum_jobs(const std::vector<R>& results,
              const std::vector<JobCounters>& counters, SimTotals* totals) {
  if (totals == nullptr) return;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!counters[i].simulated) continue;
    const auto& closed = [&]() -> const auto& {
      if constexpr (std::is_same_v<R, OpenRunResult>)
        return results[i].closed;
      else
        return results[i];
    }();
    add_totals(totals, closed.total_cycles, committed_of(results[i]),
               counters[i].decisions, counters[i].swaps);
  }
}

/// The run states read decision counts and the trace summary from the
/// scheduler they drive, which is the wrapper; the wrapper's own counters
/// stay zero. Takes them from the wrapped scheduler instead, so a traced
/// result equals the untraced one field for field.
template <typename R, typename S>
void adopt_counters(R* r, const S& inner) {
  const amps::trace::TraceSummary& summary = inner.decision_trace().summary();
  r->decision_points = inner.decision_points();
  r->windows_observed = summary.windows;
  r->forced_swap_count = summary.forced_swaps;
  r->decisions_by_reason = summary.by_reason;
}

std::unique_ptr<amps::wl::OpSource> timed_source(
    const amps::wl::BenchmarkSpec& spec, std::uint64_t instance_seed) {
  return std::make_unique<TimedOpSource>(
      amps::wl::make_op_source(spec, instance_seed));
}

PairRunResult simulate_pair_traced(const ExperimentRunner& runner,
                                   const PairJob& job, std::uint64_t run_id,
                                   JobCounters* counters) {
  TimedScheduler scheduler((*job.factory)());
  PairRunState state(runner, job.pair, scheduler, nullptr,
                     timed_source(*job.pair.first, 0),
                     timed_source(*job.pair.second, 0));
  while (!state.done()) {
    const ScopedSpan advance(Layer::kAdvance, run_id);
    state.advance();
  }
  PairRunResult r = state.finish();
  adopt_counters(&r, scheduler.inner());
  counters->decisions = scheduler.inner().decision_points();
  counters->swaps = scheduler.inner().swaps_requested();
  return r;
}

OpenRunResult simulate_open_traced(const MulticoreRunner& runner,
                                   const amps::sim::OpenConfig& open_cfg,
                                   const OpenJob& job, std::uint64_t run_id,
                                   JobCounters* counters) {
  TimedNCoreScheduler scheduler((*job.factory)());
  std::vector<std::unique_ptr<amps::wl::OpSource>> sources;
  for (const amps::wl::Arrival& a : job.schedule->all())
    sources.push_back(timed_source(*a.spec, a.instance_seed));
  OpenRunState state(runner, *job.schedule, scheduler, open_cfg,
                     amps::harness::OpenStop::kAllExited, nullptr,
                     std::move(sources));
  while (!state.done()) {
    const ScopedSpan advance(Layer::kAdvance, run_id);
    state.advance();
  }
  OpenRunResult r = state.finish();
  adopt_counters(&r.closed, scheduler.inner());
  counters->decisions = scheduler.inner().decision_points();
  counters->swaps = scheduler.inner().swaps_requested();
  return r;
}

bool same_threads(std::span<const amps::metrics::ThreadRunStats> a,
                  std::span<const amps::metrics::ThreadRunStats> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].committed != b[i].committed || a[i].cycles != b[i].cycles ||
        bits(a[i].energy) != bits(b[i].energy) || a[i].swaps != b[i].swaps)
      return false;
  }
  return true;
}

}  // namespace

PerLayer::PerLayer() {
  for (const LayerMetricDef& m : kLayerMetrics) values_[m.name] = 0.0;
}

void PerLayer::set(const std::string& name, double value) {
  values_.at(name) = value;
}

double PerLayer::get(const std::string& name) const {
  return values_.at(name);
}

void PerLayer::emit(Result& out) const {
  for (const LayerMetricDef& m : kLayerMetrics)
    out.metric(m.name, values_.at(m.name), m.unit);
}

void PerLayer::set_from_spans(const std::vector<LayerTotals>& reps) {
  if (reps.empty()) return;
  const auto med = [&](auto f) { return median_of(reps, f); };
  set("workload.gen_s", med([](const LayerTotals& t) { return t.gen_s; }));
  set("workload.ops",
      med([](const LayerTotals& t) { return static_cast<double>(t.ops); }));
  set("workload.ns_per_op", med([](const LayerTotals& t) {
        return t.ops == 0 ? 0.0 : t.gen_s * 1e9 / static_cast<double>(t.ops);
      }));
  set("sim.self_s",
      med([](const LayerTotals& t) { return t.advance_self_s; }));
  set("sim.advances", med([](const LayerTotals& t) {
        return static_cast<double>(t.advances);
      }));
  set("core.tick_s", med([](const LayerTotals& t) { return t.tick_s; }));
  set("core.hint_s", med([](const LayerTotals& t) { return t.hint_s; }));
  set("core.ticks",
      med([](const LayerTotals& t) { return static_cast<double>(t.ticks); }));
  set("harness.self_s",
      med([](const LayerTotals& t) { return t.run_self_s; }));
  set("harness.idle_s", med([](const LayerTotals& t) { return t.idle_s; }));
  set("harness.run_ms.p50",
      med([](const LayerTotals& t) { return quantile(t.run_ms, 0.5); }));
  set("harness.run_ms.max",
      med([](const LayerTotals& t) { return quantile(t.run_ms, 1.0); }));
  set("harness.busy_frac", med([](const LayerTotals& t) {
        return t.run_busy_s / (t.wall_s * static_cast<double>(t.workers));
      }));
  set("trace.accounted_pct",
      med([](const LayerTotals& t) { return t.accounted_pct; }));
}

void set_sim_totals(PerLayer& layers, const SimTotals& t) {
  const auto cycles = static_cast<double>(t.cycles);
  layers.set("sim.cycles", cycles);
  if (t.cycles != 0) {
    layers.set("sim.ns_per_cycle", layers.get("sim.self_s") * 1e9 / cycles);
    layers.set("sim.cycles_per_advance",
               cycles / std::max(1.0, layers.get("sim.advances")));
  }
  layers.set("sim.committed", static_cast<double>(t.committed));
  layers.set("core.decision_points", static_cast<double>(t.decisions));
  layers.set("core.swaps", static_cast<double>(t.swaps));
  layers.set("core.swap_ratio",
             t.decisions == 0 ? 0.0
                              : static_cast<double>(t.swaps) /
                                    static_cast<double>(t.decisions));
}

LayerTotals finish_pass(const Args& args, double wall_s) {
  const std::vector<Span> spans = Recorder::collect();
  if (!args.spans_path.empty()) {
    static const char* const kLayerNames[] = {"harness.fanout", "harness.run",
                                              "sim.advance"};
    std::ofstream f(args.spans_path, std::ios::trunc);
    for (const Span& s : spans) {
      Json j = Json::object();
      j.set("name", Json(kLayerNames[static_cast<int>(s.layer)]));
      j.set("run", Json(s.run_id));
      j.set("thread", Json(static_cast<std::uint64_t>(s.thread)));
      j.set("parent", Json(s.parent));
      j.set("start_ns", Json(s.t0));
      j.set("end_ns", Json(s.t1));
      j.set("tick_ns", Json(s.child_ns[kTick]));
      j.set("ticks", Json(s.child_calls[kTick]));
      j.set("hint_ns", Json(s.child_ns[kHint]));
      j.set("gen_ns", Json(s.child_ns[kGen]));
      j.set("ops", Json(s.ops));
      f << j.dump() << '\n';
    }
  }
  return analyse(spans, wall_s, worker_count());
}

void set_cache_stats(PerLayer& layers, const RunCache::Stats& c) {
  layers.set("harness.cache_hits", static_cast<double>(c.hits));
  layers.set("harness.cache_misses", static_cast<double>(c.misses));
  layers.set("harness.cache_disk_hits", static_cast<double>(c.disk_hits));
  layers.set("harness.cache_hit_ratio",
             static_cast<double>(c.hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, c.hits + c.misses)));
}

void finish_traced(PerLayer& layers, const std::vector<LayerTotals>& reps,
                   const std::vector<double>& traced_walls,
                   const std::vector<double>& plain_walls, Result& out) {
  layers.set("trace.overhead_pct",
             100.0 * (median(traced_walls) / median(plain_walls) - 1.0));
  layers.emit(out);
  out.note("trace.tolerance_pct", std::to_string(kTraceTolerancePct));
  for (const LayerTotals& t : reps)
    if (std::abs(t.accounted_pct - 100.0) > kTraceTolerancePct)
      out.fail("layer self times plus idle do not account for wall x workers");
}

std::size_t worker_count() { return amps::harness::default_worker_count(); }

std::vector<amps::harness::BenchmarkPair> balanced_pairs(
    const amps::wl::BenchmarkCatalog& catalog, std::size_t rounds,
    std::uint64_t seed) {
  std::vector<const amps::wl::BenchmarkSpec*> order;
  for (const amps::wl::BenchmarkSpec& spec : catalog.all())
    order.push_back(&spec);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  const std::size_t n = order.size();
  std::vector<amps::harness::BenchmarkPair> pairs;
  for (std::size_t k = 1; k <= rounds; ++k)
    for (std::size_t i = 0; i < n; ++i)
      pairs.emplace_back(order[i], order[(i + k) % n]);
  return pairs;
}

std::string pair_text(const PairRunResult& r) {
  return amps::service::to_json(r).dump();
}

std::uint64_t count_differing(std::vector<std::string>* reference,
                              std::vector<std::string> texts) {
  if (reference->empty()) {
    *reference = std::move(texts);
    return 0;
  }
  if (reference->size() != texts.size())
    return std::max(reference->size(), texts.size());
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < texts.size(); ++i)
    if (texts[i] != (*reference)[i]) ++differing;
  return differing;
}

std::vector<PairRunResult> run_pair_jobs_traced(const ExperimentRunner& runner,
                                                std::span<const PairJob> jobs,
                                                bool traced,
                                                SimTotals* totals) {
  std::vector<PairRunResult> results(jobs.size());
  std::vector<JobCounters> counters(jobs.size());
  std::optional<ScopedSpan> fanout;
  if (traced) fanout.emplace(Layer::kFanout, 0);
  amps::harness::parallel_for(jobs.size(), [&](std::size_t i) {
    const PairJob& job = jobs[i];
    const std::uint64_t run_id = Recorder::next_run_id();
    std::optional<ScopedSpan> run;
    if (traced) run.emplace(Layer::kRun, run_id);
    results[i] = RunCache::instance().pair_run(
        runner.pair_run_cache_key(job.pair, *job.factory), [&] {
          counters[i].simulated = true;
          if (traced)
            return simulate_pair_traced(runner, job, run_id, &counters[i]);
          auto scheduler = (*job.factory)();
          PairRunResult r = runner.run_pair(job.pair, *scheduler);
          counters[i].decisions = scheduler->decision_points();
          counters[i].swaps = scheduler->swaps_requested();
          return r;
        });
    if (run && counters[i].simulated) run->mark_simulated();
  });
  fanout.reset();
  sum_jobs(results, counters, totals);
  return results;
}

void check_pair_wrappers(const ExperimentRunner& runner,
                         std::span<const PairJob> jobs, Result& out) {
  for (const PairJob& job : jobs) {
    auto plain = (*job.factory)();
    const PairRunResult a = runner.run_pair(job.pair, *plain);
    JobCounters wrapped;
    const PairRunResult b = simulate_pair_traced(runner, job, 0, &wrapped);
    const bool same = a.total_cycles == b.total_cycles &&
                      bits(a.total_energy) == bits(b.total_energy) &&
                      a.swap_count == b.swap_count &&
                      same_threads(a.threads, b.threads) &&
                      plain->decision_points() == wrapped.decisions &&
                      plain->swaps_requested() == wrapped.swaps &&
                      pair_text(a) == pair_text(b);
    if (!same)
      out.fail("wrapped pair run differs from unwrapped: " +
               amps::harness::pair_label(job.pair) + " under " +
               plain->name());
  }
  Recorder::reset();
}

std::string open_text(const OpenRunResult& r) {
  Json j = Json::object();
  j.set("closed", amps::service::to_json(r.closed));
  Json jobs = Json::array();
  for (const amps::metrics::OpenJobOutcome& o : r.jobs) {
    Json job = Json::object();
    job.set("benchmark", Json(o.benchmark));
    job.set("arrival", Json(o.arrival));
    job.set("first_dispatch", Json(o.first_dispatch));
    job.set("exit_cycle", Json(o.exit_cycle));
    job.set("exited", Json(o.exited));
    job.set("committed", Json(o.committed));
    job.set("running", Json(o.running_cycles));
    job.set("queued", Json(o.queued_cycles));
    job.set("blocked", Json(o.blocked_cycles));
    job.set("stalls", Json(o.stalls));
    job.set("resumes", Json(o.resumes));
    job.set("dispatches", Json(o.dispatches));
    job.set("migrations", Json(o.migrations));
    job.set("preemptions", Json(o.preemptions));
    jobs.push_back(std::move(job));
  }
  j.set("jobs", std::move(jobs));
  j.set("arrived", Json(r.jobs_arrived));
  j.set("finished", Json(r.jobs_finished));
  j.set("dispatches", Json(r.total_dispatches));
  j.set("migrations", Json(r.total_migrations));
  j.set("steals", Json(r.total_steals));
  j.set("preemptions", Json(r.total_preemptions));
  j.set("mean_turnaround", Json(r.mean_turnaround));
  j.set("p99_turnaround", Json(r.p99_turnaround));
  j.set("mean_wait", Json(r.mean_wait));
  j.set("p99_wait", Json(r.p99_wait));
  j.set("mean_slowdown", Json(r.mean_slowdown));
  j.set("max_slowdown", Json(r.max_slowdown));
  return j.dump();
}

std::vector<OpenRunResult> run_open_jobs_traced(
    const MulticoreRunner& runner, const amps::sim::OpenConfig& open_cfg,
    std::span<const OpenJob> jobs, bool traced, SimTotals* totals) {
  std::vector<OpenRunResult> results(jobs.size());
  std::vector<JobCounters> counters(jobs.size());
  std::optional<ScopedSpan> fanout;
  if (traced) fanout.emplace(Layer::kFanout, 0);
  amps::harness::parallel_for(jobs.size(), [&](std::size_t i) {
    const OpenJob& job = jobs[i];
    JobCounters& c = counters[i];
    c.simulated = true;
    if (traced) {
      const std::uint64_t run_id = Recorder::next_run_id();
      ScopedSpan run(Layer::kRun, run_id);
      run.mark_simulated();
      results[i] = simulate_open_traced(runner, open_cfg, job, run_id, &c);
      return;
    }
    auto scheduler = (*job.factory)();
    results[i] = runner.run_open(*job.schedule, *scheduler, open_cfg);
    c.decisions = scheduler->decision_points();
    c.swaps = scheduler->swaps_requested();
  });
  fanout.reset();
  sum_jobs(results, counters, totals);
  return results;
}

void check_open_wrappers(const MulticoreRunner& runner,
                         const amps::sim::OpenConfig& open_cfg,
                         std::span<const OpenJob> jobs, Result& out) {
  for (const OpenJob& job : jobs) {
    auto plain = (*job.factory)();
    const OpenRunResult a = runner.run_open(*job.schedule, *plain, open_cfg);
    JobCounters wrapped;
    const OpenRunResult b =
        simulate_open_traced(runner, open_cfg, job, 0, &wrapped);
    bool same = a.closed.total_cycles == b.closed.total_cycles &&
                bits(a.closed.total_energy) == bits(b.closed.total_energy) &&
                a.closed.swap_count == b.closed.swap_count &&
                same_threads(a.closed.threads, b.closed.threads) &&
                a.jobs.size() == b.jobs.size() &&
                plain->decision_points() == wrapped.decisions &&
                plain->swaps_requested() == wrapped.swaps &&
                open_text(a) == open_text(b);
    for (std::size_t i = 0; same && i < a.jobs.size(); ++i)
      same = a.jobs[i].committed == b.jobs[i].committed &&
             a.jobs[i].exit_cycle == b.jobs[i].exit_cycle;
    if (!same)
      out.fail("wrapped open run differs from unwrapped: " +
               amps::harness::schedule_label(*job.schedule) + " under " +
               plain->name());
  }
  Recorder::reset();
}

}  // namespace perfbench
