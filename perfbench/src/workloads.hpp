// The five benchmark workloads and what they share: the per-layer metric
// table and the traced executors that drive the run states directly.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "harness/multicore.hpp"
#include "harness/run_cache.hpp"
#include "spans.hpp"

namespace perfbench {

void paper_sweep(const Args& args, Result& out);
void open_multicore(const Args& args, Result& out);
void sensitivity_rerun(const Args& args, Result& out);
void serve_mixed(const Args& args, Result& out);
void serve_cold40(const Args& args, Result& out);

/// Every per-layer metric, in print order. A workload that does not reach
/// a layer reports 0 for it.
class PerLayer {
 public:
  PerLayer();
  /// Throws std::out_of_range for a name not in the table.
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  void emit(Result& out) const;
  /// Fills the span-derived metrics from per-repetition totals (medians).
  void set_from_spans(const std::vector<LayerTotals>& reps);

 private:
  std::map<std::string, double> values_;
};

/// Median of `f` over `reps`.
template <typename T, typename F>
double median_of(const std::vector<T>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const T& r : reps) v.push_back(f(r));
  return median(v);
}

/// Simulated totals of the runs one repetition executed (cache hits
/// excluded). Decisions and swaps are read from the schedulers that ran.
struct SimTotals {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t swaps = 0;
};

// --- dual-core pair runs ------------------------------------------------

/// Seeded balanced pair design over the whole catalog: with the
/// benchmarks in a seeded random order b[0..n), round k adds the n pairs
/// (b[i], b[(i+k) % n]). Every benchmark then appears k times on each core,
/// so the kind and amount of simulated work is the same for every seed and
/// only the pairings change.
std::vector<amps::harness::BenchmarkPair> balanced_pairs(
    const amps::wl::BenchmarkCatalog& catalog, std::size_t rounds,
    std::uint64_t seed);

struct PairJob {
  amps::harness::BenchmarkPair pair{};
  const amps::harness::SchedulerFactory* factory = nullptr;
};

/// Runs `jobs` the way the harness's scalar fan-out does: parallel_for
/// over jobs, each memoized through the RunCache under the runner's own
/// key. Traced runs drive PairRunState with wrapped schedulers and op
/// sources inside harness/run/advance spans; untraced runs call
/// ExperimentRunner::run_pair on the unwrapped scheduler.
std::vector<amps::metrics::PairRunResult> run_pair_jobs_traced(
    const amps::harness::ExperimentRunner& runner,
    std::span<const PairJob> jobs, bool traced, SimTotals* totals);

/// Serialised simulated statistics of a pair run (the wire format).
std::string pair_text(const amps::metrics::PairRunResult& r);

/// Number of `texts` that differ from `*reference`, entry by entry (all of
/// them when the sizes differ). An empty reference adopts `texts`, so the
/// first pass of a run is the one every later pass is checked against.
std::uint64_t count_differing(std::vector<std::string>* reference,
                              std::vector<std::string> texts);

/// Runs each job unwrapped and wrapped and records a failure unless
/// cycles, commits, per-thread energy and swaps are identical, decisions
/// read from the wrapped scheduler included, and so is the whole
/// serialised result.
void check_pair_wrappers(const amps::harness::ExperimentRunner& runner,
                         std::span<const PairJob> jobs, Result& out);

// --- open-system runs ---------------------------------------------------

struct OpenJob {
  const amps::wl::ArrivalSchedule* schedule = nullptr;
  const amps::harness::NCoreSchedulerFactory* factory = nullptr;
};

/// parallel_for over MulticoreRunner::run_open (untraced) or over traced
/// OpenRunState drives with wrapped schedulers and op sources.
std::vector<amps::metrics::OpenRunResult> run_open_jobs_traced(
    const amps::harness::MulticoreRunner& runner,
    const amps::sim::OpenConfig& open_cfg, std::span<const OpenJob> jobs,
    bool traced, SimTotals* totals);

/// Serialised simulated statistics of an open run, job ledger included.
std::string open_text(const amps::metrics::OpenRunResult& r);

void check_open_wrappers(const amps::harness::MulticoreRunner& runner,
                         const amps::sim::OpenConfig& open_cfg,
                         std::span<const OpenJob> jobs, Result& out);

/// Analyses the spans of the traced pass that just took `wall_s` and, when
/// --spans names a file, writes them there as JSON lines (replacing the
/// previous pass's).
LayerTotals finish_pass(const Args& args, double wall_s);

/// Sets the harness.cache_* metrics from RunCache counters.
void set_cache_stats(PerLayer& layers, const amps::harness::RunCache::Stats& c);

/// Tolerance on trace.accounted_pct: layer self times plus fan-out idle
/// time must be within this many percent of wall x workers on every traced
/// pass, so no more than this share of a pass runs outside every layer.
inline constexpr double kTraceTolerancePct = 1.0;

/// Sets trace.overhead_pct (traced against untraced wall, medians), emits
/// the per-layer metrics and checks the accounting of every traced pass.
void finish_traced(PerLayer& layers, const std::vector<LayerTotals>& reps,
                   const std::vector<double>& traced_walls,
                   const std::vector<double>& plain_walls, Result& out);

/// Sets the simulated-count metrics (sim.cycles, core.swaps, ...) and the
/// ratios over them; call after set_from_spans.
void set_sim_totals(PerLayer& layers, const SimTotals& t);

/// Worker threads a parallel_for fans out over (AMPS_THREADS).
std::size_t worker_count();

}  // namespace perfbench
