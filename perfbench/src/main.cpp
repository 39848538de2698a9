// perfbench: runs one workload and prints its record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir perfbench] [--scratch <dir>] [--spans <file>]
//             [--commit <sha>] [--source-digest <hex>] [--print-golden]
//
// Every knob that changes the simulator's behaviour is set here, per
// workload, before any thread starts; inherited AMPS_* variables are
// cleared first. The last line of stdout is the result object; the line
// before it is the record (host fingerprint, knobs, notes).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using amps::service::Json;
using perfbench::Args;
using perfbench::Result;

const std::map<std::string, void (*)(const Args&, Result&)> kWorkloads = {
    {"paper_sweep", perfbench::paper_sweep},
    {"open_multicore", perfbench::open_multicore},
    {"sensitivity_rerun", perfbench::sensitivity_rerun},
    {"serve_mixed", perfbench::serve_mixed},
    {"serve_cold40", perfbench::serve_cold40},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--data-dir DIR] [--scratch DIR] [--spans FILE] "
               "[--commit SHA] [--source-digest HEX] [--print-golden]\n";
  std::exit(2);
}

struct Fingerprint {
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv, Fingerprint* fp) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-golden") {
      args.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--data-dir") args.data_dir = value;
      else if (flag == "--scratch") args.scratch_dir = value;
      else if (flag == "--spans") args.spans_path = value;
      else if (flag == "--commit") fp->commit = value;
      else if (flag == "--source-digest") fp->source_digest = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (kWorkloads.count(args.workload) == 0)
    usage("unknown workload '" + args.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.scratch_dir.empty())
    args.scratch_dir = ".bench_build/scratch-" + args.workload;
  return args;
}

/// Clears every inherited AMPS_* variable, then sets this workload's.
std::vector<std::pair<std::string, std::string>> set_knobs(const Args& args) {
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AMPS_", 0) == 0) inherited.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : inherited) unsetenv(name.c_str());

  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  // The serve workloads leave one CPU to the event loop and the load
  // generator, so the generator's own lateness stays out of the measured
  // latency.
  const bool serve = args.workload.rfind("serve_", 0) == 0;
  const unsigned workers = std::min(4U, hw) - (serve && hw > 1 ? 1 : 0);
  // Lockstep lanes (AMPS_LANES=0 picks them automatically) moved
  // paper_sweep's wall time and serve_mixed's peak memory far more between
  // identical runs than the per-run path (AMPS_LANES=1) does.
  const bool per_run_path = args.workload == "paper_sweep" || serve;
  std::vector<std::pair<std::string, std::string>> knobs = {
      {"AMPS_SCALE", "ci"},
      {"AMPS_THREADS", std::to_string(workers)},
      {"AMPS_LANES", per_run_path ? "1" : "0"},
      {"AMPS_RUN_CACHE", "1"},
      {"AMPS_FAST_CORE", "1"},
      {"AMPS_TRACE_REPLAY", "1"},
      {"AMPS_TRACE_CAPTURE", "1"},
      {"AMPS_SERVE_QUEUE", "4096"},
      {"AMPS_SERVE_BATCH", "16"},
      {"AMPS_SERVE_DEADLINE_MS", "0"},
      {"AMPS_SERVE_MAX_CONNS", "64"},
  };
  // Only sensitivity_rerun has a disk cache and trace store; AMPS_TRACE
  // (decision-trace dump) stays unset everywhere.
  if (args.workload == "sensitivity_rerun")
    knobs.emplace_back("AMPS_CACHE_DIR", args.scratch_dir + "/cache");
  for (const auto& [k, v] : knobs) setenv(k.c_str(), v.c_str(), 1);
  return knobs;
}

Json record_json(const Args& args, const Fingerprint& fp,
                 const std::vector<std::pair<std::string, std::string>>& knobs,
                 const Result& result) {
  Json host = Json::object();
  host.set("nproc",
           Json(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  host.set("compiler", Json(PERFBENCH_COMPILER));
  host.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  host.set("amps_observability", Json(static_cast<int>(AMPS_OBSERVABILITY)));
  host.set("commit", Json(fp.commit));
  host.set("source_digest", Json(fp.source_digest));
  Json workloads = Json::array();
  for (const auto& [name, fn] : kWorkloads) workloads.push_back(Json(name));
  host.set("workloads", std::move(workloads));

  Json knob_json = Json::object();
  for (const auto& [k, v] : knobs) knob_json.set(k, Json(v));
  knob_json.set("AMPS_TRACE", Json("unset"));

  Json notes = Json::object();
  for (const auto& [k, v] : result.notes()) notes.set(k, Json(v));
  Json problems = Json::array();
  for (const std::string& p : result.problems()) problems.push_back(Json(p));

  Json rec = Json::object();
  rec.set("workload", Json(args.workload));
  rec.set("seed", Json(args.seed));
  rec.set("seconds", Json(args.seconds));
  rec.set("trace", Json(args.trace));
  rec.set("host", std::move(host));
  rec.set("knobs", std::move(knob_json));
  rec.set("notes", std::move(notes));
  rec.set("problems", std::move(problems));
  Json wrapper = Json::object();
  wrapper.set("record", std::move(rec));
  return wrapper;
}

Json result_json(const Result& result) {
  Json metrics = Json::object();
  for (const Result::Metric& m : result.metrics()) {
    Json v = Json::object();
    v.set("value", Json(m.value));
    v.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(v));
  }
  Json out = Json::object();
  out.set("correct", Json(result.correct()));
  out.set("attempted", Json(result.attempted()));
  out.set("failed", Json(result.failed()));
  out.set("metrics", std::move(metrics));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  Fingerprint fp;
  const Args args = parse_args(argc, argv, &fp);
  const auto knobs = set_knobs(args);

  Result result;
  try {
    kWorkloads.at(args.workload)(args, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (args.print_golden) return 0;
  for (const std::string& p : result.problems())
    std::cerr << "perfbench: check failed: " << p << "\n";
  std::cout << record_json(args, fp, knobs, result).dump() << "\n";
  std::cout << result_json(result).dump() << std::endl;
  return 0;
}
