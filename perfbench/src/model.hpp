// The benchmark's own model of comparator networks: generators, the text
// formats the program reads, and an evaluator written apart from the
// program. Every input the benchmark hands to shufflebound is built here
// and written out as text, and every answer the program gives back is
// checked against evaluate() / first_failing_01() below, never against the
// program's own simulators.
//
// Semantics follow the documented text formats (src/core/io.hpp and
// src/networks/rdn_io.hpp):
//   * a circuit gate "a+b" puts the minimum of wires a, b on a, "a-b" the
//     maximum, "axb" swaps them;
//   * a register step "step shuffle ; ops <s_0 s_1 ...>" (one word of n/2
//     symbols) first moves register j to register rotl(j) (the perfect
//     shuffle), then applies symbol s_k ('+', '-', '0' no-op, '1' swap) to
//     registers (2k, 2k+1);
//   * an iterated-RDN stage first moves slot j to slot pre[j], then runs
//     its chunk's levels, level 1 first.
// A network sorts when every input comes out ascending in wire, register
// or slot order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  u64 below(u64 bound) { return next() % bound; }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[below(i)]);
  }

 private:
  u64 state_;
};

struct Gate {
  u32 a = 0;
  u32 b = 0;
  char op = '+';  // '+' min to a, '-' max to a, 'x' exchange
};
using Level = std::vector<Gate>;

struct Circuit {
  u32 n = 0;
  std::vector<Level> levels;
};

/// A shuffle-based register network: every step's permutation is the
/// perfect shuffle; steps[i][k] is the op on registers (2k, 2k+1).
struct ShuffleNet {
  u32 n = 0;
  std::vector<std::string> steps;
};

/// An iterated reverse delta network. `pre` empty means identity; `order`
/// is the chunk tree's leaf order (every node splits its wire list into
/// halves); `levels` has lg n entries.
struct Chunk {
  std::vector<u32> pre;
  std::vector<u32> order;
  std::vector<Level> levels;
};
struct IteratedNet {
  u32 n = 0;
  std::vector<Chunk> stages;
};

u32 lg(u32 n);  // exact log2 of a power of two

// --- evaluation on arbitrary values (a permutation of 0..n-1 in practice)
void evaluate(const Circuit& net, std::vector<u32>& values);
void evaluate(const ShuffleNet& net, std::vector<u32>& values);
void evaluate(const IteratedNet& net, std::vector<u32>& values);
bool ascending(const std::vector<u32>& values);

// --- 0-1 evaluation (bit w of a vector is the value fed to wire w)
/// True iff the circuit sorts the 0-1 vector x (n <= 64).
bool sorts_01(const Circuit& net, u64 x);
/// The smallest failing 0-1 vector below `limit` (exhaustive, 64 vectors
/// per word), or nullopt if every vector below `limit` sorts. n <= 40.
std::optional<u64> first_failing_01(const Circuit& net, u64 limit);
/// A failing 0-1 vector found by a fixed search (descending, single-one
/// and single-zero vectors, then `words` words of pseudo-random vectors
/// of every weight), or nullopt. Deterministic for a given net; n <= 64.
std::optional<u64> find_failing_01(const Circuit& net, std::size_t words);

// --- text in the program's formats
std::string to_text(const Circuit& net);
std::string to_text(const ShuffleNet& net);
std::string to_text(const IteratedNet& net);
/// Reads the circuit format back (for networks the program writes, such
/// as search witnesses). Throws std::invalid_argument on anything else.
Circuit parse_circuit(const std::string& text);

// --- generators
/// Stone's bitonic sorter on the shuffle: lg^2 n steps, sorts by
/// construction (Batcher's bitonic dimension program scheduled on the
/// cyclic dimension order the shuffle visits).
ShuffleNet bitonic_on_shuffle(u32 n);
/// A random shuffle-based network; ops drawn as 45% '+', 45% '-', 5% '0',
/// 5% '1'.
ShuffleNet random_shuffle_net(u32 n, std::size_t steps, Rng& rng);
/// Butterfly chunks (level t pairs wires differing in bit t-1) with random
/// comparator orientations; random inter-chunk permutations.
IteratedNet butterfly_iterated(u32 n, std::size_t chunks, Rng& rng);
/// Random RDN chunks: random leaf order, random matchings between the two
/// children of every node, random orientations, some gates dropped or
/// turned into exchanges; identity inter-chunk permutations.
IteratedNet random_rdn_iterated(u32 n, std::size_t chunks, Rng& rng);

// Sorting networks by construction, all comparators '+' with a < b.
Circuit batcher_bitonic(u32 n);       // n a power of two; has '-' gates
Circuit odd_even_mergesort(u32 n);    // n a power of two
Circuit pratt(u32 n);                 // any n: 2^p 3^q increments
Circuit brick(u32 n, std::size_t rounds);  // sorts iff rounds >= n
Circuit periodic_balanced(u32 n);     // n a power of two
/// Restriction of a standard ('+', a < b only) network to wires [0, m):
/// gates touching a wire >= m are dropped. A standard sorter stays a
/// sorter (feed +inf on the dropped wires: every such gate is a no-op).
Circuit restrict_to(const Circuit& net, u32 m);
/// The network with gate `index` (counted over all levels) removed.
Circuit without_gate(const Circuit& net, std::size_t index);
std::size_t gate_count(const Circuit& net);

}  // namespace perfbench
