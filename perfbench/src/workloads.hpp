// The four workloads. Each builds its inputs from the seed in setup(),
// then runs whole passes over a fixed list of operations; a pass times
// only the program's work and checks every answer afterwards with the
// benchmark's own evaluator (checks.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct PassResult {
  double seconds = 0;          // program time of the pass
  double wall_s = 0;           // the pass with its checks
  std::vector<double> op_ms;   // one latency per operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         // errors and wrong answers
  std::uint64_t wrong = 0;          // answers the checks refuted
  std::vector<std::string> errors;  // one line per failed operation
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and warms up (first compile, first connection,
  /// first allocation of the large tables).
  virtual void setup(std::uint64_t seed) = 0;
  virtual PassResult pass() = 0;
  /// Workload-specific per-layer values for the traced passes, keyed by
  /// per-layer metric name (search times, certificate bytes, the
  /// unattributed time and the like); everything else comes from the
  /// layer table.
  virtual std::map<std::string, double> traced_extras(
      const LayerTable& table, std::size_t passes) = 0;
  /// A JSON object with workload-specific detail for the layer table
  /// file of the traced run.
  virtual std::string traced_detail(std::size_t passes) const {
    (void)passes;
    return "{}";
  }
  /// Called once after the last pass (stops servers, joins threads).
  virtual void teardown() {}
};

/// nullptr for an unknown name. Pool, worker and connection counts are
/// fixed inside each workload, never taken from the host.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
