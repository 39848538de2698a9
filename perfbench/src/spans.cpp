#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mutex
std::atomic<std::uint64_t> g_run_ids{0};
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *t_buffer;
}

}  // namespace

std::int64_t Recorder::open(Layer layer, std::uint64_t run_id) {
  ThreadBuffer& b = buffer();
  Span s;
  s.layer = layer;
  s.thread = b.index;
  s.run_id = run_id;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.t0 = now_ns();
  b.spans.push_back(s);
  const auto handle = static_cast<std::int64_t>(b.spans.size() - 1);
  b.open.push_back(handle);
  return handle;
}

void Recorder::close(std::int64_t handle) {
  ThreadBuffer& b = buffer();
  b.spans[static_cast<std::size_t>(handle)].t1 = now_ns();
  b.open.pop_back();
}

void Recorder::mark_simulated(std::int64_t handle) {
  buffer().spans[static_cast<std::size_t>(handle)].simulated = true;
}

void Recorder::child(Child kind, std::int64_t ns, std::uint64_t ops) {
  ThreadBuffer& b = buffer();
  if (b.open.empty()) return;  // wrapper used outside a traced run
  Span& s = b.spans[static_cast<std::size_t>(b.open.back())];
  s.child_ns[kind] += ns;
  ++s.child_calls[kind];
  s.ops += ops;
}

std::uint64_t Recorder::next_run_id() {
  return g_run_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<Span> Recorder::collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& b : g_buffers) b->spans.clear();
}

amps::isa::MicroOp TimedOpSource::next() {
  const std::int64_t t0 = now_ns();
  const amps::isa::MicroOp op = inner_->next();
  Recorder::child(kGen, now_ns() - t0, 1);
  return op;
}

void TimedOpSource::next_batch(amps::isa::MicroOp* out, std::size_t n) {
  const std::int64_t t0 = now_ns();
  inner_->next_batch(out, n);
  Recorder::child(kGen, now_ns() - t0, n);
}

void TimedScheduler::tick(amps::sim::DualCoreSystem& system) {
  const std::int64_t t0 = now_ns();
  inner_->tick(system);
  Recorder::child(kTick, now_ns() - t0);
}

amps::sched::DecisionHint TimedScheduler::next_decision_at(
    const amps::sim::DualCoreSystem& system) const {
  const std::int64_t t0 = now_ns();
  const amps::sched::DecisionHint hint = inner_->next_decision_at(system);
  Recorder::child(kHint, now_ns() - t0);
  return hint;
}

void TimedNCoreScheduler::tick(amps::sim::MulticoreSystem& system) {
  const std::int64_t t0 = now_ns();
  inner_->tick(system);
  Recorder::child(kTick, now_ns() - t0);
}

amps::sched::DecisionHint TimedNCoreScheduler::next_decision_at(
    const amps::sim::MulticoreSystem& system) const {
  const std::int64_t t0 = now_ns();
  const amps::sched::DecisionHint hint = inner_->next_decision_at(system);
  Recorder::child(kHint, now_ns() - t0);
  return hint;
}

LayerTotals analyse(const std::vector<Span>& spans, double wall_s,
                    std::size_t workers) {
  LayerTotals t;
  t.wall_s = wall_s;
  std::uint32_t threads_seen = 0;
  for (const Span& s : spans) threads_seen = std::max(threads_seen, s.thread + 1);
  t.workers = std::max<std::size_t>(workers, threads_seen);

  // Same-thread child-span time per span; spans are stored per thread in
  // open order, so a parent index refers to the preceding buffer block.
  std::vector<std::int64_t> child_span_ns(spans.size(), 0);
  std::vector<std::size_t> block_start(threads_seen, 0);
  for (std::size_t i = spans.size(); i-- > 0;) block_start[spans[i].thread] = i;
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;  // fan-outs
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0)
      child_span_ns[block_start[s.thread] +
                    static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    if (s.layer == Layer::kFanout) windows.emplace_back(s.t0, s.t1);
  }

  // Idle is measured on its own timeline: per worker, the part of each
  // fan-out window that none of its run spans covers. Run time outside
  // every window is not idle, and time outside every window is in no
  // layer, so both show as a departure from 100%.
  std::int64_t window_ns = 0;
  for (const auto& [w0, w1] : windows) window_ns += w1 - w0;
  std::vector<std::int64_t> run_in_windows(t.workers, 0);
  double self_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::int64_t children = child_span_ns[i];
    for (int c = 0; c < kChildCount; ++c) children += s.child_ns[c];
    const double self = static_cast<double>(s.t1 - s.t0 - children) * 1e-9;
    switch (s.layer) {
      // The caller's own time in a fan-out is waiting for the workers: it
      // is counted as idle below, not as a layer's self time.
      case Layer::kFanout: continue;
      case Layer::kRun:
        t.run_self_s += self;
        t.run_busy_s += static_cast<double>(s.t1 - s.t0) * 1e-9;
        if (s.simulated)
          t.run_ms.push_back(static_cast<double>(s.t1 - s.t0) * 1e-6);
        for (const auto& [w0, w1] : windows)
          run_in_windows[s.thread] +=
              std::max<std::int64_t>(0, std::min(s.t1, w1) - std::max(s.t0, w0));
        break;
      case Layer::kAdvance:
        t.advance_self_s += self;
        ++t.advances;
        break;
    }
    t.tick_s += static_cast<double>(s.child_ns[kTick]) * 1e-9;
    t.hint_s += static_cast<double>(s.child_ns[kHint]) * 1e-9;
    t.gen_s += static_cast<double>(s.child_ns[kGen]) * 1e-9;
    t.ticks += s.child_calls[kTick];
    t.ops += s.ops;
    self_total += self;
  }
  self_total += t.tick_s + t.hint_s + t.gen_s;
  for (std::size_t th = 0; th < t.workers; ++th)
    t.idle_s += static_cast<double>(window_ns - run_in_windows[th]) * 1e-9;
  const double capacity = wall_s * static_cast<double>(t.workers);
  t.accounted_pct =
      capacity > 0.0 ? 100.0 * (self_total + t.idle_s) / capacity : 0.0;
  return t;
}

}  // namespace perfbench
