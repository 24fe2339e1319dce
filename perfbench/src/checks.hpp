// The benchmark's checks of the program's answers. Each returns an empty
// string when the answer is right and a reason when it is not; the
// workloads count a non-empty reason as a failed operation and
// selftest.cpp shows that each check rejects a wrong answer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "model.hpp"

namespace perfbench {

/// A refutation witness as the program reports it: input permutations
/// pi and pi' (value on wire w is pi[w]) and the adjacent values m, m + 1
/// that sit on wires w0 and w1.
struct WitnessView {
  std::vector<u32> pi;
  std::vector<u32> pi_prime;
  u32 w0 = 0;
  u32 w1 = 0;
  u32 m = 0;
};

/// pi and pi' must be permutations of 0..n-1 that differ by one swap of
/// the adjacent values m, m + 1 (on wires w0, w1), and the network must
/// map them to different outputs: then no fixed output labelling can make
/// it sort both, so it is not a sorting network.
std::string check_refutation(const ShuffleNet& net, const WitnessView& w);
std::string check_refutation(const IteratedNet& net, const WitnessView& w);

/// One network of the certify corpus. `sorts` is true only for networks
/// that sort by construction or that the benchmark's exhaustive 0-1
/// evaluation confirmed; `known_failing` is a failing vector the
/// benchmark found itself for a non-sorter.
struct CertifyCase {
  std::string name;
  Circuit net;
  bool sorts = false;
  std::optional<u64> known_failing;
};

/// A "sorting" verdict must be on a known sorter. A "not sorting" verdict
/// must carry a failing vector that the benchmark's evaluator sees fail,
/// and at n <= 20 no smaller vector may fail (the program promises the
/// minimal one).
std::string check_certify(const CertifyCase& c, bool verdict_sorts,
                          std::optional<u64> failing_vector);

/// Published optimal depths: Knuth, TAOCP vol. 3, 5.3.4 (n <= 8);
/// Parberry, "A computer-assisted optimal depth lower bound for nine-input
/// sorting networks", 1991 (n = 9, 10). nullopt outside 1..10.
std::optional<std::size_t> published_depth(u32 n);

/// The depth must equal the published one, the witness must have n wires
/// and exactly that many levels, and it must sort every 0-1 input.
std::string check_search(u32 n, std::size_t depth, const Circuit& witness);

}  // namespace perfbench
