// Per-layer accounting from the observability spans (src/obs/obs.hpp):
// the program's own spans and the ones the benchmark records around each
// public call it makes (category "bench").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct LayerTime {
  double self_ms = 0;   // span time minus the time of its child spans
  double total_ms = 0;  // span time including children
  std::uint64_t count = 0;
};

struct LayerTable {
  /// Keyed "cat/name". Self times are summed over every thread; spans
  /// recorded on other threads than the caller's (pool workers, server
  /// threads) are counted but never nest under the caller's spans. Wait
  /// spans ("*/queue_wait") only count and total; they cover no work.
  std::map<std::string, LayerTime> layers;
  /// Self times of the spans recorded on the calling thread alone.
  std::map<std::string, double> caller_self_ms;
  /// Counter values at the time of the snapshot.
  std::map<std::string, std::uint64_t> counters;

  double self_ms(const std::string& key) const;
  double total_ms(const std::string& key) const;
  std::uint64_t counter(const std::string& name) const;
};

/// Builds the table from everything recorded since the last obs::reset().
/// `caller_tid_span` names a span ("cat/name") recorded only on the
/// calling thread, which identifies that thread.
LayerTable snapshot_layers(const std::string& caller_tid_span);

/// The table for the given spans and counters (snapshot_layers' work).
LayerTable layer_table(
    std::vector<shufflebound::obs::SpanRecord> spans,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::string& caller_tid_span);

/// Writes the table as JSON (self/total ms, counts, counters) to `path`.
bool write_layer_table(const LayerTable& table, const std::string& path);

}  // namespace perfbench
