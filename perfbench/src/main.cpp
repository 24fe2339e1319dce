// perfbench: drives one workload for a fixed time and prints one JSON line
//
//   perfbench --workload <refute|certify|search|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 prints the end-to-end metrics of untraced passes. --trace 1
// runs untraced passes for the first half of the time and traced passes
// (the program's obs spans and counters switched on) for the second, and
// prints the per-layer metrics; it also writes the layer table and the
// Chrome trace of the traced passes to <dir> (default .bench_out).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/isa.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
// Dynamic initialisation runs before main: the closest this process can
// get to its own start for the set-up time.
const Clock::time_point kProcessStart = Clock::now();

namespace pb = perfbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The per-layer metrics, in BENCHMARK.json order. Times are ms per pass
/// and counts per pass, except the server and service times (ms per
/// request, from the serve workload's extras). A metric a workload does
/// not exercise reads 0.
struct LayerRule {
  const char* name;
  const char* unit;
  std::function<double(const pb::LayerTable&)> per_pass_total;
};

std::vector<LayerRule> layer_rules() {
  const auto self = [](std::vector<std::string> keys) {
    return [keys](const pb::LayerTable& t) {
      double sum = 0;
      for (const std::string& k : keys) sum += t.self_ms(k);
      return sum;
    };
  };
  const auto count = [](std::string name, double scale = 1.0) {
    return [name, scale](const pb::LayerTable& t) {
      return static_cast<double>(t.counter(name)) * scale;
    };
  };
  const std::function<double(const pb::LayerTable&)> extra;  // extras only
  return {
      {"parse_ms", "ms", self({"bench/parse"})},
      {"to_rdn_ms", "ms", self({"refuter/refute"})},
      {"adversary_ms", "ms", self({"refuter/adversary"})},
      {"lemma41_ms", "ms", self({"refuter/lemma41_refine"})},
      {"pattern_refine_ms", "ms", self({"refuter/pattern_refine"})},
      {"witness_build_ms", "ms", self({"refuter/witness_build"})},
      {"witness_replay_ms", "ms",
       self({"refuter/witness_replay", "refuter/witness_check"})},
      {"cert_encode_ms", "ms", self({"bench/cert_encode"})},
      {"cert_verify_ms", "ms", self({"bench/cert_verify"})},
      {"adversary_stages", "count", count("refuter.adversary_stages")},
      {"witness_checks", "count", count("refuter.witness_checks")},
      {"cert_bytes", "bytes", extra},
      {"analyze_ms", "ms", self({"kernel/analyze_certify"})},
      {"analyze_certified", "count", count("kernel.analyze_certified")},
      {"analyze_inconclusive", "count", count("kernel.analyze_inconclusive")},
      {"frontier_ms", "ms", self({"kernel/frontier_check"})},
      {"frontier_states_expanded", "count",
       count("kernel.frontier_states_expanded")},
      {"frontier_fallbacks", "count", count("kernel.frontier_fallbacks")},
      {"frontier_peak_entries", "count", extra},
      {"sweep_ms", "ms", self({"kernel/zero_one_check"})},
      {"vectors_evaluated", "count", count("kernel.vectors_evaluated")},
      {"sweep_mvec_per_s", "Mvec/s", extra},
      {"compile_ms", "ms", self({"kernel/compile"})},
      {"compiles", "count", count("kernel.compiles")},
      {"arena_hits", "count", count("arena.hits")},
      {"arena_misses", "count", count("arena.misses")},
      {"search_n7_s", "s", extra},
      {"search_n8_s", "s", extra},
      {"search_n9_s", "s", extra},
      {"search_n10_s", "s", extra},
      {"search_exhaustive_s", "s", extra},
      {"search_existence_s", "s", extra},
      {"nodes_expanded", "count", count("search.nodes_expanded")},
      {"children_generated", "count", count("search.children_generated")},
      {"subsumed", "count", count("search.subsumption_hits")},
      {"deduped", "count", count("search.dedup_hits")},
      {"countdown_prunes", "count", count("search.countdown_prunes")},
      {"prune_ratio", "ratio", extra},
      {"queue_wait_ms", "ms", extra},
      {"cache_probe_ms", "ms", extra},
      {"execute_ms", "ms", extra},
      {"cache_hits", "count", count("service.cache_hits")},
      {"cache_misses", "count", count("service.cache_misses")},
      {"cache_hit_ratio", "ratio", extra},
      {"witness_revalidations", "count", count("service.witness_revalidations")},
      {"request_ms", "ms", extra},
      {"unattributed_ms", "ms", extra},
      {"pool_tasks", "count", count("pool.tasks_executed")},
      {"pool_idle_ms", "ms", count("pool.idle_us", 1e-3)},
      {"tracing_overhead_pct", "%", extra},
  };
}

/// Wrapper spans the benchmark records around calls that the program
/// spans inside: their self time is the part of the call no program span
/// covers, so it counts as unattributed.
const std::set<std::string> kWrapperSpans = {
    "bench/pass", "bench/refute", "bench/zero_one_check",
    "bench/find_min_depth_network"};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <refute|certify|search|serve> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".bench_out";
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') return usage();
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || trace < 0) return usage();
  std::unique_ptr<pb::Workload> workload = pb::make_workload(workload_name);
  if (!workload) return usage();

  try {
    workload->setup(seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - kProcessStart).count();

  // Whole passes until the time is up; with tracing, the second half of
  // the time is traced.
  std::vector<pb::PassResult> plain;
  std::vector<pb::PassResult> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // A pass starts only if a median-length pass still fits in the time,
  // so a run ends within --seconds (bar its first passes).
  const auto fits = [&] {
    std::vector<double> lengths;
    for (const auto* set : {&plain, &traced})
      for (const pb::PassResult& r : *set) lengths.push_back(r.wall_s);
    return elapsed() + percentile(lengths, 0.5) <= seconds;
  };
  bool tracing = false;
  while (plain.empty() || (trace == 1 && traced.empty()) || fits()) {
    if (trace == 1 && !tracing && !plain.empty() && elapsed() >= seconds / 2) {
      shufflebound::obs::reset();
      shufflebound::obs::set_enabled(true);
      tracing = true;
    }
    pb::PassResult r;
    const auto pass_start = Clock::now();
    {
      const shufflebound::obs::Span span("bench", "pass");
      r = workload->pass();
    }
    r.wall_s = std::chrono::duration<double>(Clock::now() - pass_start).count();
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong;
    for (std::string& e : r.errors)
      if (errors.size() < 20) errors.push_back(std::move(e));
    (tracing ? traced : plain).push_back(std::move(r));
  }
  shufflebound::obs::set_enabled(false);

  // Every pass runs the same operations, so a pass's latency percentiles
  // are fixed order statistics of those operations; their median over
  // the passes does not jump between operation sizes as the number of
  // passes changes.
  std::vector<double> pass_s;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  for (const pb::PassResult& r : plain) {
    pass_s.push_back(r.seconds);
    p50_ms.push_back(percentile(r.op_ms, 0.5));
    p90_ms.push_back(percentile(r.op_ms, 0.9));
  }
  const double median_pass = percentile(pass_s, 0.5);
  const double ops_per_pass =
      static_cast<double>(plain.front().attempted);

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"ops_per_s", ops_per_pass / median_pass, "1/s"},
        {"pass_s", median_pass, "s"},
        {"op_p50_ms", percentile(p50_ms, 0.5), "ms"},
        {"op_p90_ms", percentile(p90_ms, 0.5), "ms"},
    };
  } else {
    const pb::LayerTable table = pb::snapshot_layers("bench/pass");
    const std::size_t passes = traced.size();
    std::map<std::string, double> extras = workload->traced_extras(table, passes);
    std::vector<double> traced_s;
    double traced_total_ms = 0;
    for (const pb::PassResult& r : traced) {
      traced_s.push_back(r.seconds);
      traced_total_ms += r.seconds * 1000.0;
    }
    const double traced_median = percentile(traced_s, 0.5);
    extras["tracing_overhead_pct"] = (traced_median / median_pass - 1.0) * 100.0;
    const double hits = static_cast<double>(table.counter("service.cache_hits"));
    const double misses = static_cast<double>(table.counter("service.cache_misses"));
    extras["cache_hit_ratio"] = hits + misses == 0 ? 0.0 : hits / (hits + misses);
    if (!extras.count("unattributed_ms")) {
      double attributed = 0;
      for (const auto& [key, ms] : table.caller_self_ms)
        if (!kWrapperSpans.count(key)) attributed += ms;
      extras["unattributed_ms"] = (traced_total_ms - attributed) / passes;
    }
    for (const LayerRule& rule : layer_rules()) {
      double value = 0;
      if (const auto it = extras.find(rule.name); it != extras.end()) {
        value = it->second;
      } else if (rule.per_pass_total) {
        value = rule.per_pass_total(table) / static_cast<double>(passes);
      }
      metrics.push_back({rule.name, value, rule.unit});
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string stem = out_dir + "/" + workload_name;
    if (!pb::write_layer_table(table, stem + "-layers.json") ||
        !shufflebound::obs::write_trace_file(stem + "-trace.json")) {
      std::fprintf(stderr, "perfbench: cannot write to %s\n", out_dir.c_str());
    }
    if (std::FILE* f = std::fopen((stem + "-detail.json").c_str(), "w")) {
      std::fputs(workload->traced_detail(passes).c_str(), f);
      std::fputs("\n", f);
      std::fclose(f);
    }
  }
  workload->teardown();

  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: failed: %s\n", e.c_str());
  std::fprintf(stderr,
               "perfbench: %s: %zu untraced and %zu traced passes, median pass "
               "%.4f s, sweep kernel %s\n",
               workload_name.c_str(), plain.size(), traced.size(), median_pass,
               shufflebound::simd::isa_name(shufflebound::simd::active_kernel().isa));
  print_result(wrong == 0, attempted, failed, metrics);
  return 0;
}
