// open_multicore: seeded Poisson job streams, oversubscribed three to one,
// on the canonical 8-core AMP under each N-core scheduler family (static,
// affinity, round-robin, bandit) through MulticoreRunner::run_open.
#include <algorithm>
#include <memory>
#include <random>

#include "workloads.hpp"

namespace perfbench {

namespace {

using amps::harness::MulticoreRunner;
using amps::harness::NCoreSchedulerFactory;

constexpr std::size_t kCores = 8;
constexpr std::size_t kJobsPerStream = 3 * kCores;
constexpr int kStreams = 8;
constexpr int kGoldenStreams = 1;
constexpr int kSetupReps = 3;
constexpr int kMinReps = 3;

struct OpenSetup {
  amps::wl::BenchmarkCatalog catalog;
  MulticoreRunner runner =
      MulticoreRunner::canonical(amps::sim::SimScale::ci(), kCores);
  amps::sim::OpenConfig open_cfg;
  std::vector<NCoreSchedulerFactory> families;

  OpenSetup() {
    const amps::sim::SimScale& scale = runner.scale();
    open_cfg.quantum = scale.context_switch_interval / 8;
    open_cfg.dispatch_overhead = scale.swap_overhead;
    families = {runner.static_factory(), runner.affinity_factory(),
                runner.round_robin_factory(), runner.bandit_factory()};
  }

  [[nodiscard]] std::vector<amps::wl::ArrivalSchedule> streams(
      int count, std::uint64_t seed) const {
    const amps::sim::SimScale& scale = runner.scale();
    amps::wl::PoissonConfig p;
    p.count = kJobsPerStream;
    p.jobs_per_kilocycle = 0.25;
    p.min_job_length = scale.run_length / 8;
    p.max_job_length = scale.run_length / 2;
    p.io.stall_interval = scale.run_length / 16;
    p.io.stall_latency = 2000;
    // Arrival times, lengths and stream seeds come from poisson_arrivals;
    // the benchmarks are then dealt round-robin from a seeded order of the
    // catalog, so every seed runs each benchmark equally often.
    std::vector<const amps::wl::BenchmarkSpec*> order;
    for (const amps::wl::BenchmarkSpec& spec : catalog.all())
      order.push_back(&spec);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    std::size_t dealt = 0;
    std::vector<amps::wl::ArrivalSchedule> out;
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(count); ++i) {
      constexpr std::uint64_t kStreamStride = 1000003;
      std::vector<amps::wl::Arrival> jobs =
          amps::wl::poisson_arrivals(catalog, p, seed * kStreamStride + i)
              .all();
      for (amps::wl::Arrival& a : jobs) a.spec = order[dealt++ % order.size()];
      out.emplace_back(std::move(jobs));
    }
    return out;
  }

  [[nodiscard]] std::vector<OpenJob> jobs(
      const std::vector<amps::wl::ArrivalSchedule>& streams) const {
    std::vector<OpenJob> out;
    for (const auto& s : streams)
      for (const NCoreSchedulerFactory& f : families) out.push_back({&s, &f});
    return out;
  }
};

struct OpenOutcome {
  std::uint64_t digest = 0;
  std::uint64_t unfinished = 0;  ///< jobs that never exited
};

OpenOutcome outcome(const std::vector<amps::metrics::OpenRunResult>& results) {
  OpenOutcome o;
  o.digest = fnv1a("open_multicore");
  for (const auto& r : results) {
    o.digest = fnv1a(open_text(r), o.digest);
    for (const auto& j : r.jobs)
      if (!j.exited) ++o.unfinished;
    if (r.jobs_finished != r.jobs.size()) ++o.unfinished;
  }
  return o;
}

}  // namespace

void open_multicore(const Args& args, Result& out) {
  std::unique_ptr<OpenSetup> setup;
  std::vector<amps::wl::ArrivalSchedule> streams;
  std::vector<OpenJob> jobs;
  const double setup_s = timed_setups(kSetupReps, [&] {
    setup = std::make_unique<OpenSetup>();
    streams = setup->streams(kStreams, args.seed);
    jobs = setup->jobs(streams);
    // Warm-up: one stream under every family starts the worker pool and
    // faults in the engine, as a first request would.
    const auto warm = setup->streams(1, kGoldenSeed);
    run_open_jobs_traced(setup->runner, setup->open_cfg, setup->jobs(warm),
                         false, nullptr);
  });
  const OpenSetup& s = *setup;

  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<LayerTotals> reps;
  SimTotals sim;
  OpenOutcome first;
  std::vector<std::string> reference;  // traced runs: the first pass's results
  double elapsed = 0.0;
  for (int rep = 0; more_reps(rep, kMinReps, elapsed,
                              walls.empty() ? 0.0 : walls.back(), args.seconds);
       ++rep) {
    // Traced runs alternate an untraced and a traced pass per repetition.
    for (int side = 0; side < (args.trace ? 2 : 1); ++side) {
      const bool traced = args.trace && ((side == 0) == (rep % 2 == 0));
      Recorder::reset();
      SimTotals totals;
      const double t0 = now_s();
      const auto results =
          run_open_jobs_traced(s.runner, s.open_cfg, jobs, traced, &totals);
      const double wall = now_s() - t0;
      const OpenOutcome o = outcome(results);
      if (o.unfinished != 0) out.fail("open_multicore: a job never exited");
      if (args.trace) {
        // Every pass, traced or not, against the first one, run by run.
        std::vector<std::string> texts;
        for (const auto& r : results) texts.push_back(open_text(r));
        const std::uint64_t differing = count_differing(&reference, texts);
        out.add_ops(jobs.size(), o.unfinished != 0 ? jobs.size() : differing);
        if (differing != 0)
          out.fail("open_multicore: a traced or untraced pass differs from the "
                   "first");
      } else {
        if (rep == 0) first = o;
        const bool ok = o.digest == first.digest && o.unfinished == 0;
        out.add_ops(jobs.size(), ok ? 0 : jobs.size());
        if (o.digest != first.digest)
          out.fail("open_multicore outputs differ between repetitions");
      }
      if (traced) {
        traced_walls.push_back(wall);
        reps.push_back(finish_pass(args, wall));
        continue;
      }
      walls.push_back(wall);
      elapsed += wall;
      sim = totals;
    }
    if (args.trace) elapsed += traced_walls.back();
  }

  if (args.trace) {
    PerLayer layers;
    layers.set_from_spans(reps);
    set_sim_totals(layers, sim);
    finish_traced(layers, reps, traced_walls, walls, out);
    // Wrapper identity: the first stream under every family.
    check_open_wrappers(s.runner, s.open_cfg,
                        std::span(jobs).first(s.families.size()), out);
  } else {
    emit_batch_metrics(out, setup_s, walls, sim.committed);
  }

  const auto golden_streams = s.streams(kGoldenStreams, kGoldenSeed);
  const auto golden_jobs = s.jobs(golden_streams);
  Golden(args).check(
      "open_multicore",
      outcome(run_open_jobs_traced(s.runner, s.open_cfg, golden_jobs, false,
                                   nullptr))
          .digest,
      out);
}

}  // namespace perfbench
