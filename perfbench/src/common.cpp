#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) { problems_.push_back(why); }

void Result::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {
double g_process_start = 0.0;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void mark_process_start() { g_process_start = now_s(); }

double since_start_s() { return now_s() - g_process_start; }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    total += entry.file_size(ec);
  }
  return total;
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void emit_batch_metrics(Result& out, double setup_s,
                        const std::vector<double>& walls,
                        std::uint64_t committed) {
  const double wall = median(walls);
  out.metric("setup_s", setup_s, "s");
  out.metric("wall_s", wall, "s");
  out.metric("sim_minstr_per_s", static_cast<double>(committed) / wall / 1e6,
             "Minstr/s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("p99_ms", quantile(walls, 0.99) * 1e3, "ms");
  std::string list;
  for (const double w : walls)
    list += (list.empty() ? "" : " ") + std::to_string(w);
  out.note("repetition_walls_s", list);
}

bool more_reps(int done, int min_reps, double elapsed, double last_rep,
               double seconds) {
  if (done < min_reps) return true;
  return elapsed + last_rep <= seconds;
}

Golden::Golden(const Args& args) : print_(args.print_golden) {
  std::ifstream in(args.data_dir + "/golden.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string digest;
    if (fields >> key >> digest) stored_[key] = digest;
  }
}

void Golden::check(const std::string& key, std::uint64_t digest,
                   Result& out) const {
  const std::string got = hex64(digest);
  if (print_) {
    std::cout << key << " " << got << "\n";
    return;
  }
  const auto it = stored_.find(key);
  if (it == stored_.end()) {
    out.fail("golden digest for " + key + " missing from golden.txt");
  } else if (it->second != got) {
    out.fail("golden digest mismatch for " + key + ": stored " + it->second +
             ", computed " + got);
  }
}

}  // namespace perfbench
