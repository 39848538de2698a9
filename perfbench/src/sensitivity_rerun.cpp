// sensitivity_rerun: the Fig. 6 window x history grid through
// harness::run_sensitivity, each repetition on an empty AMPS_CACHE_DIR.
// The HPE reference runs capture micro-op traces, the grid cells replay
// them, and every run result is written to the disk RunCache, so this is
// the workload that exercises the trace store and the disk cache.
#include <filesystem>
#include <memory>

#include "harness/run_cache.hpp"
#include "harness/sampler.hpp"
#include "harness/sensitivity.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using amps::harness::BenchmarkPair;
using amps::harness::ExperimentRunner;
using amps::harness::RunCache;
using amps::harness::SchedulerFactory;

/// One balanced round (37 pairs), every benchmark once on each core, so a
/// seed changes only the pairings. Half a round (18 disjoint pairs) leaves
/// one benchmark out and ends each grid stage on a few stragglers; its
/// wall_s moved by about 10% (IQR/median) from seed to seed.
constexpr std::size_t kRounds = 1;
constexpr std::size_t kGoldenPairs = 2;
constexpr int kSetupReps = 3;
constexpr int kMinReps = 3;

struct Grid {
  amps::wl::BenchmarkCatalog catalog;
  ExperimentRunner runner{amps::sim::SimScale::ci()};
  amps::sched::HpeModels models;
  amps::harness::SensitivityConfig cfg;
  SchedulerFactory hpe;
  std::vector<SchedulerFactory> cells;  ///< window-major, as the sweep runs

  void build() {
    models = runner.build_models(catalog);
    hpe = runner.hpe_factory(*models.regression);
    for (const amps::InstrCount window : cfg.window_sizes)
      for (const int history : cfg.history_depths)
        cells.push_back(runner.proposed_factory(window, history));
  }
};

/// Empties the cache directory the simulator reads from AMPS_CACHE_DIR.
void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

struct GridOutcome {
  std::uint64_t digest = 0;
  std::uint64_t committed = 0;
  std::uint64_t missing = 0;
};

/// Digest of the cell means and every run result the sweep cached.
GridOutcome grid_outcome(const Grid& g, const std::vector<BenchmarkPair>& pairs,
                         const std::vector<double>& cell_means) {
  GridOutcome o;
  o.digest = fnv1a("sensitivity_rerun");
  for (const double m : cell_means) o.digest = fnv1a(std::to_string(m), o.digest);
  std::vector<const SchedulerFactory*> factories{&g.hpe};
  for (const SchedulerFactory& f : g.cells) factories.push_back(&f);
  for (const BenchmarkPair& p : pairs) {
    for (const SchedulerFactory* f : factories) {
      amps::metrics::PairRunResult r;
      if (!RunCache::instance().lookup_pair_run(
              g.runner.pair_run_cache_key(p, *f), &r)) {
        ++o.missing;
        continue;
      }
      o.digest = fnv1a(pair_text(r), o.digest);
      for (const auto& t : r.threads) o.committed += t.committed;
    }
  }
  return o;
}

GridOutcome run_grid(const Grid& g, const std::vector<BenchmarkPair>& pairs,
                     const std::string& dir, double* wall) {
  fresh_dir(dir);
  RunCache::instance().clear();
  const double t0 = now_s();
  const auto cells =
      amps::harness::run_sensitivity(g.runner, pairs, *g.models.regression,
                                     g.cfg);
  *wall = now_s() - t0;
  std::vector<double> means;
  for (const auto& c : cells) means.push_back(c.mean_weighted_improvement_pct);
  return grid_outcome(g, pairs, means);
}

/// The same runs as run_sensitivity, stage by stage, through the traced
/// executor: the HPE references, then one fan-out per grid cell. Returns
/// every run's serialised result, in stage order.
std::vector<std::string> run_grid_traced(const Grid& g,
                                         const std::vector<BenchmarkPair>& pairs,
                                         bool traced, SimTotals* totals) {
  std::vector<std::string> texts;
  const auto stage = [&](const SchedulerFactory& f) {
    std::vector<PairJob> jobs;
    for (const BenchmarkPair& p : pairs) jobs.push_back({p, &f});
    for (const auto& r : run_pair_jobs_traced(g.runner, jobs, traced, totals))
      texts.push_back(pair_text(r));
  };
  stage(g.hpe);
  for (const SchedulerFactory& f : g.cells) stage(f);
  return texts;
}

}  // namespace

void sensitivity_rerun(const Args& args, Result& out) {
  const std::string dir = args.scratch_dir + "/cache";
  std::unique_ptr<Grid> grid;
  std::vector<BenchmarkPair> pairs;
  double profile_s = 0.0;
  const double setup_s = timed_setups(kSetupReps, [&] {
    fresh_dir(dir);
    RunCache::instance().clear();
    grid = std::make_unique<Grid>();
    const double t0 = now_s();
    grid->build();
    profile_s = now_s() - t0;
    pairs = balanced_pairs(grid->catalog, kRounds, args.seed);
  });
  const Grid& g = *grid;
  const std::size_t runs_per_rep = pairs.size() * (1 + g.cells.size());

  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<LayerTotals> reps;
  SimTotals sim;
  RunCache::Stats cache{};
  double trace_mb = 0.0;
  double cache_mb = 0.0;
  double disk_mb = 0.0;
  GridOutcome first;
  std::vector<std::string> reference;  // traced runs: the first pass's results
  double elapsed = 0.0;
  for (int rep = 0; more_reps(rep, kMinReps, elapsed,
                              walls.empty() ? 0.0 : walls.back(), args.seconds);
       ++rep) {
    if (args.trace) {
      // Untraced and traced passes of the same executor, alternating.
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (rep % 2 == 0);
        const double pass_t0 = now_s();
        fresh_dir(dir);
        RunCache::instance().clear();
        Recorder::reset();
        SimTotals totals;
        const double t0 = now_s();
        const auto texts = run_grid_traced(g, pairs, traced, &totals);
        const double wall = now_s() - t0;
        elapsed += now_s() - pass_t0;
        const std::uint64_t differing = count_differing(&reference, texts);
        out.add_ops(texts.size(), differing);
        if (differing != 0)
          out.fail("sensitivity_rerun: a traced or untraced pass differs from "
                   "the first");
        if (!traced) {
          walls.push_back(wall);
          continue;
        }
        traced_walls.push_back(wall);
        reps.push_back(finish_pass(args, wall));
        sim = totals;
        cache = RunCache::instance().stats();
        // The trace store lives in <dir>/traces; the rest is RunCache.
        trace_mb = static_cast<double>(dir_bytes(dir + "/traces")) / 1e6;
        disk_mb = static_cast<double>(dir_bytes(dir)) / 1e6;
        cache_mb = disk_mb - trace_mb;
      }
      continue;
    }
    // The budget counts the whole repetition: emptying the directory of
    // the last one takes a few tenths of a second of disk time.
    const double rep_t0 = now_s();
    double wall = 0.0;
    const GridOutcome o = run_grid(g, pairs, dir, &wall);
    disk_mb = static_cast<double>(dir_bytes(dir)) / 1e6;
    walls.push_back(wall);
    elapsed += now_s() - rep_t0;
    if (rep == 0) first = o;
    const bool ok = o.digest == first.digest && o.missing == 0;
    out.add_ops(runs_per_rep, ok ? 0 : runs_per_rep);
    if (!ok) out.fail("sensitivity_rerun outputs differ between repetitions");
  }

  if (args.trace) {
    PerLayer layers;
    layers.set_from_spans(reps);
    set_sim_totals(layers, sim);
    layers.set("core.profile_s", profile_s);
    layers.set("workload.trace_mb", trace_mb);
    layers.set("harness.cache_mb", cache_mb);
    layers.set("harness.disk_mb", disk_mb);
    set_cache_stats(layers, cache);
    finish_traced(layers, reps, traced_walls, walls, out);
    std::vector<PairJob> probe;
    for (std::size_t i = 0; i < 2 && i < pairs.size(); ++i)
      probe.push_back({pairs[i], &g.cells.front()});
    check_pair_wrappers(g.runner, probe, out);
  } else {
    emit_batch_metrics(out, setup_s, walls, first.committed);
    out.note("disk_mb", std::to_string(disk_mb));
  }

  auto golden = balanced_pairs(g.catalog, kRounds, kGoldenSeed);
  golden.resize(kGoldenPairs);
  double ignored = 0.0;
  Golden(args).check("sensitivity_rerun",
                     run_grid(g, golden, dir, &ignored).digest, out);
  std::filesystem::remove_all(args.scratch_dir);
}

}  // namespace perfbench
