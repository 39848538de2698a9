// Span tracing for the --trace 1 runs, recorded entirely from outside the
// simulator: the benchmark opens spans around its own calls into the
// harness and the run states, and forwarding wrappers around
// sched::Scheduler, sched::NCoreScheduler and wl::OpSource time the calls
// the simulator makes into them.
//
// Calls finer than one decision quantum (scheduler ticks and hints, op
// generation batches) are not spans of their own: they are summed into the
// innermost open span as batched children, with their call counts. Spans
// live in per-thread buffers in memory and are analysed after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/global_affinity.hpp"
#include "core/scheduler.hpp"
#include "workload/source.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kFanout,   ///< harness: one parallel fan-out over runs (caller thread)
  kRun,      ///< harness: one run job (cache lookup, simulation, store)
  kAdvance,  ///< sim: one PairRunState / OpenRunState advance()
};

/// Batched children of a span.
enum Child : std::uint8_t { kTick, kHint, kGen, kChildCount };

struct Span {
  Layer layer = Layer::kRun;
  bool simulated = false;        ///< kRun: the job ran a simulation
  std::uint32_t thread = 0;      ///< recorder thread index
  std::uint64_t run_id = 0;      ///< shared by all spans of one run
  std::int64_t parent = -1;      ///< index in the same thread's buffer
  std::int64_t t0 = 0;           ///< steady-clock ns
  std::int64_t t1 = 0;
  std::int64_t child_ns[kChildCount] = {};
  std::uint64_t child_calls[kChildCount] = {};
  std::uint64_t ops = 0;         ///< ops produced by kGen children
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide span store (one buffer per thread that records).
class Recorder {
 public:
  /// Opens a span on the calling thread; returns its handle for close().
  static std::int64_t open(Layer layer, std::uint64_t run_id);
  static void close(std::int64_t handle);
  static void mark_simulated(std::int64_t handle);
  /// Adds a batched child to the innermost open span of this thread.
  static void child(Child kind, std::int64_t ns, std::uint64_t ops = 0);
  static std::uint64_t next_run_id();

  /// Every recorded span, all threads. Call with no span open.
  static std::vector<Span> collect();
  static void reset();
};

class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t run_id)
      : handle_(Recorder::open(layer, run_id)) {}
  ~ScopedSpan() { Recorder::close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void mark_simulated() { Recorder::mark_simulated(handle_); }

 private:
  std::int64_t handle_;
};

/// Forwarding wl::OpSource: identical op sequence, timed per batch.
class TimedOpSource final : public amps::wl::OpSource {
 public:
  explicit TimedOpSource(std::unique_ptr<amps::wl::OpSource> inner)
      : inner_(std::move(inner)) {}
  amps::isa::MicroOp next() override;
  void next_batch(amps::isa::MicroOp* out, std::size_t n) override;
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<amps::wl::OpSource> inner_;
};

/// Forwarding dual-core scheduler. Its own base-class counters and trace
/// stay empty; read decisions and swaps from inner().
class TimedScheduler final : public amps::sched::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<amps::sched::Scheduler> inner)
      : Scheduler(inner->name()), inner_(std::move(inner)) {}
  void tick(amps::sim::DualCoreSystem& system) override;
  void on_start(amps::sim::DualCoreSystem& system) override {
    inner_->on_start(system);
  }
  [[nodiscard]] amps::sched::DecisionHint next_decision_at(
      const amps::sim::DualCoreSystem& system) const override;
  [[nodiscard]] const amps::sched::Scheduler& inner() const { return *inner_; }

 private:
  std::unique_ptr<amps::sched::Scheduler> inner_;
};

/// Forwarding N-core scheduler, lifecycle hooks included.
class TimedNCoreScheduler final : public amps::sched::NCoreScheduler {
 public:
  explicit TimedNCoreScheduler(
      std::unique_ptr<amps::sched::NCoreScheduler> inner)
      : NCoreScheduler(inner->name()), inner_(std::move(inner)) {}
  void on_start(amps::sim::MulticoreSystem& system) override {
    inner_->on_start(system);
  }
  void tick(amps::sim::MulticoreSystem& system) override;
  [[nodiscard]] amps::sched::DecisionHint next_decision_at(
      const amps::sim::MulticoreSystem& system) const override;
  void thread_start(amps::ThreadId thread, amps::Cycles now,
                    std::size_t core) override {
    inner_->thread_start(thread, now, core);
  }
  void thread_stall(amps::ThreadId thread, amps::sim::StallReason reason,
                    amps::Cycles now) override {
    inner_->thread_stall(thread, reason, now);
  }
  void thread_resume(amps::ThreadId thread, amps::Cycles now) override {
    inner_->thread_resume(thread, now);
  }
  void thread_exit(amps::ThreadId thread, amps::Cycles now) override {
    inner_->thread_exit(thread, now);
  }
  [[nodiscard]] const amps::sched::NCoreScheduler& inner() const {
    return *inner_;
  }

 private:
  std::unique_ptr<amps::sched::NCoreScheduler> inner_;
};

/// Per-layer totals derived from one traced repetition.
struct LayerTotals {
  double wall_s = 0.0;
  std::size_t workers = 0;
  double run_self_s = 0.0;
  double advance_self_s = 0.0;
  double tick_s = 0.0;
  double hint_s = 0.0;
  double gen_s = 0.0;
  /// Worker time inside fan-out windows that no run span covers (the
  /// caller's fan-out self time included).
  double idle_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t ops = 0;
  std::uint64_t advances = 0;
  std::vector<double> run_ms;  ///< simulated runs only
  double run_busy_s = 0.0;     ///< sum of all run spans
  /// (run and sim self times + batched children + idle) / (wall x
  /// workers), in percent. Below 100 by the share of the pass that no
  /// fan-out covers; above it if run spans fall outside every fan-out.
  double accounted_pct = 0.0;
};

/// Analyses the spans of a repetition that took `wall_s` on `workers`
/// threads. Self time of a span is its duration minus its same-thread
/// child spans and batched children. Idle time is measured separately: for
/// each worker, the part of every fan-out window that none of that
/// worker's run spans overlaps.
LayerTotals analyse(const std::vector<Span>& spans, double wall_s,
                    std::size_t workers);

}  // namespace perfbench
