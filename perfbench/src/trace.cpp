#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

double LayerTable::self_ms(const std::string& key) const {
  const auto it = layers.find(key);
  return it == layers.end() ? 0.0 : it->second.self_ms;
}
double LayerTable::total_ms(const std::string& key) const {
  const auto it = layers.find(key);
  return it == layers.end() ? 0.0 : it->second.total_ms;
}
std::uint64_t LayerTable::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

LayerTable snapshot_layers(const std::string& caller_tid_span) {
  namespace obs = shufflebound::obs;
  return layer_table(obs::registry().snapshot_spans(),
                     obs::registry().snapshot_counters(), caller_tid_span);
}

LayerTable layer_table(
    std::vector<shufflebound::obs::SpanRecord> spans,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::string& caller_tid_span) {
  namespace obs = shufflebound::obs;
  LayerTable table;
  const auto key_of = [](const obs::SpanRecord& s) {
    return std::string(s.cat) + "/" + s.name;
  };
  std::uint32_t caller_tid = 0;
  for (const obs::SpanRecord& s : spans)
    if (key_of(s) == caller_tid_span) caller_tid = s.tid;

  // Per thread, in start order with enclosing spans first. Spans are
  // recorded in whole microseconds, so a benchmark span and the program
  // span it wraps often start and last alike; the benchmark's span
  // (category "bench") is then the enclosing one.
  const auto is_bench = [](const obs::SpanRecord& s) {
    return std::string_view(s.cat) == "bench";
  };
  std::sort(spans.begin(), spans.end(),
            [&](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return is_bench(a) && !is_bench(b);
            });
  // A stack of open spans gives each span's parent, whose self time
  // loses the child's duration.
  struct Open {
    std::string key;
    std::uint64_t end_us;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  for (const obs::SpanRecord& s : spans) {
    const std::string key = key_of(s);
    LayerTime& layer = table.layers[key];
    const double ms = static_cast<double>(s.dur_us) / 1000.0;
    layer.count += 1;
    layer.total_ms += ms;
    if (std::string_view(s.name) == "queue_wait") continue;
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && stack.back().end_us <= s.start_us) stack.pop_back();
    if (!stack.empty()) {
      table.layers[stack.back().key].self_ms -= ms;
      if (s.tid == caller_tid) table.caller_self_ms[stack.back().key] -= ms;
    }
    layer.self_ms += ms;
    if (s.tid == caller_tid) table.caller_self_ms[key] += ms;
    stack.push_back({key, s.start_us + s.dur_us});
  }
  for (const auto& [name, value] : counters) table.counters[name] = value;
  return table;
}

bool write_layer_table(const LayerTable& table, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"layers\": {");
  bool first = true;
  for (const auto& [key, layer] : table.layers) {
    std::fprintf(out, "%s\n  \"%s\": {\"self_ms\": %.3f, \"total_ms\": %.3f, "
                 "\"count\": %llu}",
                 first ? "" : ",", key.c_str(), layer.self_ms, layer.total_ms,
                 static_cast<unsigned long long>(layer.count));
    first = false;
  }
  std::fprintf(out, "},\n\"counters\": {");
  first = true;
  for (const auto& [name, value] : table.counters) {
    std::fprintf(out, "%s\n  \"%s\": %llu", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(value));
    first = false;
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
