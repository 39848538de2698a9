// paper_sweep: the Fig. 7-9 call pattern. Models are built once
// (set-up), then the proposed scheme is compared against HPE-regression
// and against Round-Robin through harness::compare_schedulers over seeded
// random pairs at ci geometry, with an in-memory RunCache only.
#include <cmath>
#include <memory>

#include "harness/lanes.hpp"
#include "harness/run_cache.hpp"
#include "harness/sampler.hpp"
#include "mathx/stats.hpp"
#include "metrics/speedup.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using amps::harness::BenchmarkPair;
using amps::harness::ComparisonRow;
using amps::harness::ExperimentRunner;
using amps::harness::RunCache;
using amps::harness::SchedulerFactory;

/// Two balanced rounds: 74 pairs, each benchmark twice on each core.
constexpr std::size_t kRounds = 2;
constexpr std::size_t kGoldenPairs = 3;
constexpr int kSetupReps = 3;
constexpr int kMinReps = 3;
// Paper Fig. 9 averages (IPC/Watt improvement of the proposed scheme).
constexpr double kPaperVsHpePct = 10.5;
constexpr double kPaperVsRrPct = 12.9;

struct Sweep {
  amps::wl::BenchmarkCatalog catalog;
  ExperimentRunner runner{amps::sim::SimScale::ci()};
  amps::sched::HpeModels models;
  SchedulerFactory proposed;
  SchedulerFactory hpe;
  SchedulerFactory rr;

  void build() {
    models = runner.build_models(catalog);
    proposed = runner.proposed_factory();
    hpe = runner.hpe_factory(*models.regression);
    rr = runner.round_robin_factory();
  }
  /// The runs compare_schedulers makes, in its order: per pair the
  /// proposed run and the reference run, first against HPE, then RR.
  [[nodiscard]] std::vector<PairJob> jobs(
      const std::vector<BenchmarkPair>& pairs,
      const SchedulerFactory& reference) const {
    std::vector<PairJob> out;
    for (const BenchmarkPair& p : pairs) {
      out.push_back({p, &proposed});
      out.push_back({p, &reference});
    }
    return out;
  }
};

struct SweepOutcome {
  std::uint64_t digest = 0;
  std::uint64_t committed = 0;  ///< simulated: three distinct runs per pair
  std::uint64_t missing = 0;
  double vs_hpe_pct = 0.0;
  double vs_rr_pct = 0.0;
};

double mean_weighted(const std::vector<ComparisonRow>& rows) {
  std::vector<double> w;
  for (const ComparisonRow& r : rows) w.push_back(r.weighted_improvement_pct);
  return amps::mathx::mean(w);
}

/// Mean weighted improvement of each (test, reference) result pair.
double mean_improvement(const std::vector<amps::metrics::PairRunResult>& r) {
  std::vector<double> w;
  for (std::size_t i = 0; i + 1 < r.size(); i += 2)
    w.push_back(amps::metrics::to_improvement_pct(
        r[i].weighted_ipw_speedup_vs(r[i + 1])));
  return amps::mathx::mean(w);
}

/// Digest of every simulated statistic of the sweep's runs, read back from
/// the RunCache, plus the per-pair improvements.
SweepOutcome sweep_outcome(const Sweep& s,
                           const std::vector<BenchmarkPair>& pairs,
                           const std::vector<ComparisonRow>& vs_hpe,
                           const std::vector<ComparisonRow>& vs_rr) {
  SweepOutcome o;
  std::uint64_t h = fnv1a("paper_sweep");
  for (const BenchmarkPair& p : pairs) {
    for (const SchedulerFactory* f : {&s.proposed, &s.hpe, &s.rr}) {
      amps::metrics::PairRunResult r;
      if (!RunCache::instance().lookup_pair_run(
              s.runner.pair_run_cache_key(p, *f), &r)) {
        ++o.missing;
        continue;
      }
      h = fnv1a(pair_text(r), h);
      for (const auto& t : r.threads) o.committed += t.committed;
    }
  }
  for (const auto* rows : {&vs_hpe, &vs_rr})
    for (const ComparisonRow& r : *rows)
      h = fnv1a(r.label + std::to_string(r.weighted_improvement_pct) +
                    std::to_string(r.geometric_improvement_pct),
                h);
  o.digest = h;
  o.vs_hpe_pct = mean_weighted(vs_hpe);
  o.vs_rr_pct = mean_weighted(vs_rr);
  return o;
}

/// One cold repetition through the public entry point.
SweepOutcome run_sweep(const Sweep& s, const std::vector<BenchmarkPair>& pairs,
                       double* wall) {
  RunCache::instance().clear();
  const double t0 = now_s();
  const auto vs_hpe =
      amps::harness::compare_schedulers(s.runner, pairs, s.proposed, s.hpe);
  const auto vs_rr =
      amps::harness::compare_schedulers(s.runner, pairs, s.proposed, s.rr);
  *wall = now_s() - t0;
  return sweep_outcome(s, pairs, vs_hpe, vs_rr);
}

void measure_traced(const Args& args, const Sweep& s,
                    const std::vector<BenchmarkPair>& pairs,
                    double profile_s, Result& out) {
  const auto jobs_hpe = s.jobs(pairs, s.hpe);
  const auto jobs_rr = s.jobs(pairs, s.rr);
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<LayerTotals> reps;
  SimTotals sim;
  RunCache::Stats cache{};
  double err_hpe = 0.0;
  double err_rr = 0.0;
  double elapsed = 0.0;
  double last = 0.0;
  std::vector<std::string> reference;  // per-job results of the first pass
  for (int rep = 0; more_reps(rep, kMinReps, elapsed, last, args.seconds);
       ++rep) {
    const double rep_t0 = now_s();
    // Alternate which side runs first so drift does not bias the overhead.
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == (rep % 2 == 0);
      RunCache::instance().clear();
      Recorder::reset();
      SimTotals totals;
      const double t0 = now_s();
      const auto vs_hpe =
          run_pair_jobs_traced(s.runner, jobs_hpe, traced, &totals);
      const auto vs_rr =
          run_pair_jobs_traced(s.runner, jobs_rr, traced, &totals);
      const double wall = now_s() - t0;
      std::vector<std::string> texts;
      for (const auto* results : {&vs_hpe, &vs_rr})
        for (const auto& r : *results) texts.push_back(pair_text(r));
      const std::uint64_t differing = count_differing(&reference, texts);
      out.add_ops(texts.size(), differing);
      if (differing != 0)
        out.fail("paper_sweep: a traced or untraced pass differs from the first");
      if (!traced) {
        plain_walls.push_back(wall);
        err_hpe = std::abs(mean_improvement(vs_hpe) - kPaperVsHpePct);
        err_rr = std::abs(mean_improvement(vs_rr) - kPaperVsRrPct);
        continue;
      }
      traced_walls.push_back(wall);
      reps.push_back(finish_pass(args, wall));
      sim = totals;
      cache = RunCache::instance().stats();
    }
    last = now_s() - rep_t0;
    elapsed += last;
  }

  // Lane occupancy of the lane executor at its automatic width (the
  // measured phase pins AMPS_LANES=1) on the first comparison.
  RunCache::instance().clear();
  std::vector<amps::harness::LanePairJob> lane_jobs;
  for (const PairJob& j : jobs_hpe)
    lane_jobs.push_back({&s.runner, j.pair, j.factory, nullptr, nullptr});
  const auto lane_results = amps::harness::run_pair_jobs(
      lane_jobs,
      std::min(amps::harness::kDefaultLaneWidth, lane_jobs.size()));
  std::vector<double> occupancy;
  for (const auto& r : lane_results) occupancy.push_back(r.lane_occupancy_pct);

  PerLayer layers;
  layers.set_from_spans(reps);
  set_sim_totals(layers, sim);
  layers.set("core.profile_s", profile_s);
  layers.set("core.fig9_err_vs_hpe_pp", err_hpe);
  layers.set("core.fig9_err_vs_rr_pp", err_rr);
  layers.set("harness.lane_occupancy_pct", amps::mathx::mean(occupancy));
  set_cache_stats(layers, cache);
  finish_traced(layers, reps, traced_walls, plain_walls, out);

  // Wrapper identity on a few pairs of every scheduler.
  std::vector<PairJob> probe;
  for (std::size_t i = 0; i < 2 && i < pairs.size(); ++i)
    for (const SchedulerFactory* f : {&s.proposed, &s.hpe, &s.rr})
      probe.push_back({pairs[i], f});
  check_pair_wrappers(s.runner, probe, out);
}

}  // namespace

void paper_sweep(const Args& args, Result& out) {
  std::unique_ptr<Sweep> sweep;
  std::vector<BenchmarkPair> pairs;
  double profile_s = 0.0;
  const double setup_s = timed_setups(kSetupReps, [&] {
    RunCache::instance().clear();
    sweep = std::make_unique<Sweep>();
    const double t0 = now_s();
    sweep->build();
    profile_s = now_s() - t0;
    pairs = balanced_pairs(sweep->catalog, kRounds, args.seed);
  });
  const Sweep& s = *sweep;

  if (args.trace) {
    measure_traced(args, s, pairs, profile_s, out);
  } else {
    std::vector<double> walls;
    SweepOutcome first;
    double elapsed = 0.0;
    for (int rep = 0;
         more_reps(rep, kMinReps, elapsed, walls.empty() ? 0 : walls.back(),
                   args.seconds);
         ++rep) {
      double wall = 0.0;
      const SweepOutcome o = run_sweep(s, pairs, &wall);
      walls.push_back(wall);
      elapsed += wall;
      if (rep == 0) first = o;
      const bool same = o.digest == first.digest && o.missing == 0;
      out.add_ops(4 * pairs.size(), same ? 0 : 4 * pairs.size());
      if (!same) out.fail("paper_sweep outputs differ between repetitions");
    }
    emit_batch_metrics(out, setup_s, walls, first.committed);
    out.note("fig9_vs_hpe_pct", std::to_string(first.vs_hpe_pct));
    out.note("fig9_vs_rr_pct", std::to_string(first.vs_rr_pct));
    out.note("fig9_err_vs_hpe_pp",
             std::to_string(std::abs(first.vs_hpe_pct - kPaperVsHpePct)));
    out.note("fig9_err_vs_rr_pp",
             std::to_string(std::abs(first.vs_rr_pct - kPaperVsRrPct)));
  }

  // Golden inputs: a fixed pair set whose digest is stored with the
  // benchmark.
  auto golden = balanced_pairs(s.catalog, 1, kGoldenSeed);
  golden.resize(kGoldenPairs);
  double ignored = 0.0;
  Golden(args).check("paper_sweep", run_sweep(s, golden, &ignored).digest,
                     out);
}

}  // namespace perfbench
