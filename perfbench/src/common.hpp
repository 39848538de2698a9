// Shared plumbing of the perfbench program: command-line arguments, the
// result record every workload fills, timing and statistics helpers, and
// the stored golden digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding golden.txt (the benchmark's own directory).
  std::string data_dir = "perfbench";
  /// Scratch directory for on-disk state, deleted at exit.
  std::string scratch_dir;
  /// Where traced runs write the spans of their last traced pass ("" =
  /// nowhere).
  std::string spans_path;
  /// Print the golden digests this build computes instead of checking.
  bool print_golden = false;
};

/// What one workload run reports. End-to-end metrics go out with
/// --trace 0, per-layer metrics with --trace 1.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (makes `correct` false).
  void fail(const std::string& why);
  /// Extra key/value shown on the record line (not a metric).
  void note(const std::string& key, const std::string& value);

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const noexcept { return problems_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& notes()
      const noexcept {
    return notes_;
  }
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seconds on the monotonic clock.
double now_s();
/// Seconds since process start (first call to now_s in main).
double since_start_s();
void mark_process_start();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();
/// Total bytes of regular files under `dir` (0 when it does not exist).
std::uint64_t dir_bytes(const std::string& dir);

/// 64-bit FNV-1a, chainable through `h`.
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// Median of `reps` timed set-ups, the first timed from process start.
/// `setup` must leave the state the measured phase needs after its last
/// call.
template <typename Fn>
double timed_setups(int reps, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = i == 0 ? now_s() - since_start_s() : now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

/// The end-to-end metrics of a batch workload, whose operation is one
/// cold repetition: setup_s, wall_s (median repetition), p99_ms (99th
/// percentile repetition latency), sim_minstr_per_s (`committed` simulated
/// instructions per repetition over wall_s) and peak_rss_mb.
void emit_batch_metrics(Result& out, double setup_s,
                        const std::vector<double>& walls,
                        std::uint64_t committed);

/// Number of measured repetitions: at least `min_reps`, then more while
/// the measured time stays under `seconds`.
bool more_reps(int done, int min_reps, double elapsed, double last_rep,
               double seconds);

/// The digests stored in golden.txt, keyed "<workload>".
class Golden {
 public:
  explicit Golden(const Args& args);
  /// Compares `digest` with the stored one; records a failure on mismatch
  /// (or prints it under --print-golden).
  void check(const std::string& key, std::uint64_t digest, Result& out) const;

 private:
  bool print_ = false;
  std::map<std::string, std::string> stored_;
};

/// Seed of the fixed input set whose digest golden.txt stores. It is not
/// a tuning seed: the golden inputs only prove the outputs are unchanged.
inline constexpr std::uint64_t kGoldenSeed = 424242;

}  // namespace perfbench
