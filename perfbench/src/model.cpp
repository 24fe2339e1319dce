#include "model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace perfbench {

u32 lg(u32 n) {
  if (n == 0 || (n & (n - 1)) != 0)
    throw std::invalid_argument("perfbench: width is not a power of two");
  u32 d = 0;
  while ((u32{1} << d) < n) ++d;
  return d;
}

namespace {

u32 rotl(u32 j, u32 d) {
  if (d == 0) return j;
  const u32 mask = (u32{1} << d) - 1;
  return ((j << 1) | (j >> (d - 1))) & mask;
}

u32 rotr_by(u32 j, u32 t, u32 d) {
  if (d == 0) return j;
  t %= d;
  const u32 mask = (u32{1} << d) - 1;
  return t == 0 ? j : ((j >> t) | (j << (d - t))) & mask;
}

void apply_gate(const Gate& g, std::vector<u32>& v) {
  u32& a = v[g.a];
  u32& b = v[g.b];
  switch (g.op) {
    case '+':
      if (b < a) std::swap(a, b);
      break;
    case '-':
      if (a < b) std::swap(a, b);
      break;
    default:
      std::swap(a, b);
  }
}

void apply_levels(const std::vector<Level>& levels, std::vector<u32>& v) {
  for (const Level& level : levels)
    for (const Gate& g : level) apply_gate(g, v);
}

void permute(const std::vector<u32>& to, std::vector<u32>& v) {
  std::vector<u32> out(v.size());
  for (std::size_t j = 0; j < v.size(); ++j) out[to[j]] = v[j];
  v.swap(out);
}

void append_level(std::string& out, const Level& level) {
  out += "level";
  for (const Gate& g : level) {
    out += ' ';
    out += std::to_string(g.a);
    out += g.op;
    out += std::to_string(g.b);
  }
  out += '\n';
}

char random_orientation(Rng& rng) { return rng.below(2) == 0 ? '+' : '-'; }

std::vector<u32> random_permutation(u32 n, Rng& rng) {
  std::vector<u32> p(n);
  for (u32 i = 0; i < n; ++i) p[i] = i;
  rng.shuffle(p);
  return p;
}

/// 64 consecutive 0-1 vectors base..base+63 through the circuit; returns
/// the mask of lanes whose output is not ascending. `wires` is scratch.
u64 failing_lanes(const Circuit& net, const std::vector<u64>& inputs,
                  std::vector<u64>& wires) {
  wires = inputs;
  for (const Level& level : net.levels) {
    for (const Gate& g : level) {
      u64& a = wires[g.a];
      u64& b = wires[g.b];
      const u64 lo = a & b;
      const u64 hi = a | b;
      switch (g.op) {
        case '+':
          a = lo;
          b = hi;
          break;
        case '-':
          a = hi;
          b = lo;
          break;
        default:
          std::swap(a, b);
      }
    }
  }
  u64 bad = 0;
  for (u32 w = 0; w + 1 < net.n; ++w) bad |= wires[w] & ~wires[w + 1];
  return bad;
}

}  // namespace

void evaluate(const Circuit& net, std::vector<u32>& values) {
  apply_levels(net.levels, values);
}

void evaluate(const ShuffleNet& net, std::vector<u32>& values) {
  const u32 d = lg(net.n);
  std::vector<u32> to(net.n);
  for (u32 j = 0; j < net.n; ++j) to[j] = rotl(j, d);
  for (const std::string& step : net.steps) {
    permute(to, values);
    for (std::size_t k = 0; k < step.size(); ++k) {
      u32& a = values[2 * k];
      u32& b = values[2 * k + 1];
      switch (step[k]) {
        case '+':
          if (b < a) std::swap(a, b);
          break;
        case '-':
          if (a < b) std::swap(a, b);
          break;
        case '1':
          std::swap(a, b);
          break;
        default:
          break;
      }
    }
  }
}

void evaluate(const IteratedNet& net, std::vector<u32>& values) {
  for (const Chunk& stage : net.stages) {
    if (!stage.pre.empty()) permute(stage.pre, values);
    apply_levels(stage.levels, values);
  }
}

bool ascending(const std::vector<u32>& values) {
  return std::is_sorted(values.begin(), values.end());
}

bool sorts_01(const Circuit& net, u64 x) {
  std::vector<u32> v(net.n);
  for (u32 w = 0; w < net.n; ++w) v[w] = static_cast<u32>((x >> w) & 1);
  evaluate(net, v);
  return ascending(v);
}

std::optional<u64> first_failing_01(const Circuit& net, u64 limit) {
  if (net.n > 40) throw std::invalid_argument("first_failing_01: n > 40");
  std::vector<u64> inputs(net.n);
  std::vector<u64> wires;
  // Lane i of the word starting at `base` is vector base + i.
  static constexpr u64 kLanePattern[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  for (u64 base = 0; base < limit; base += 64) {
    for (u32 w = 0; w < net.n; ++w)
      inputs[w] = w < 6 ? kLanePattern[w] : (((base >> w) & 1) ? ~u64{0} : 0);
    u64 bad = failing_lanes(net, inputs, wires);
    if (limit - base < 64) bad &= (u64{1} << (limit - base)) - 1;
    if (bad != 0) return base + static_cast<u64>(__builtin_ctzll(bad));
  }
  return std::nullopt;
}

std::optional<u64> find_failing_01(const Circuit& net, std::size_t words) {
  if (net.n > 64) throw std::invalid_argument("find_failing_01: n > 64");
  const u64 all = net.n == 64 ? ~u64{0} : (u64{1} << net.n) - 1;
  // First the vectors sorters find hardest: ones on a prefix of the wires
  // (descending inputs), a single one, a single zero.
  for (u32 k = 1; k < net.n; ++k) {
    for (const u64 x : {(u64{1} << k) - 1, u64{1} << k, all & ~(u64{1} << k)})
      if (!sorts_01(net, x)) return x;
  }
  Rng rng(0x5eed0f0f1e5ULL ^ (u64{net.n} << 32) ^ gate_count(net));
  std::vector<u64> inputs(net.n);
  std::vector<u64> wires;
  for (std::size_t word = 0; word < words; ++word) {
    // Lane l draws each bit with probability (l + 1) / 65, so every word
    // covers vectors of every weight.
    for (u32 w = 0; w < net.n; ++w) {
      u64 bits = 0;
      for (u32 lane = 0; lane < 64; ++lane)
        if (rng.below(65) <= lane) bits |= u64{1} << lane;
      inputs[w] = bits;
    }
    const u64 bad = failing_lanes(net, inputs, wires);
    if (bad == 0) continue;
    const u32 lane = static_cast<u32>(__builtin_ctzll(bad));
    u64 x = 0;
    for (u32 w = 0; w < net.n; ++w) x |= ((inputs[w] >> lane) & 1) << w;
    return x;
  }
  return std::nullopt;
}

std::string to_text(const Circuit& net) {
  std::string out = "circuit " + std::to_string(net.n) + "\n";
  for (const Level& level : net.levels) append_level(out, level);
  out += "end\n";
  return out;
}

std::string to_text(const ShuffleNet& net) {
  std::string out = "register " + std::to_string(net.n) + "\n";
  for (const std::string& step : net.steps) {
    out += "step shuffle ; ops ";
    out += step;
    out += '\n';
  }
  out += "end\n";
  return out;
}

std::string to_text(const IteratedNet& net) {
  std::string out = "iterated " + std::to_string(net.n) + "\n";
  for (const Chunk& stage : net.stages) {
    out += "stage perm";
    if (stage.pre.empty()) out += " identity";
    for (const u32 p : stage.pre) out += ' ' + std::to_string(p);
    out += "\ntree";
    for (const u32 w : stage.order) out += ' ' + std::to_string(w);
    out += '\n';
    for (const Level& level : stage.levels) append_level(out, level);
    out += "endstage\n";
  }
  out += "end\n";
  return out;
}

Circuit parse_circuit(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  Circuit net;
  if (!(in >> word) || word != "circuit" || !(in >> net.n) || net.n == 0)
    throw std::invalid_argument("parse_circuit: expected 'circuit <n>'");
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    std::istringstream row(line);
    if (!(row >> word)) continue;
    if (word == "end") return net;
    if (word != "level")
      throw std::invalid_argument("parse_circuit: unexpected '" + word + "'");
    Level level;
    while (row >> word) {
      const std::size_t at = word.find_first_of("+-x");
      if (at == 0 || at == std::string::npos || at + 1 == word.size())
        throw std::invalid_argument("parse_circuit: bad gate '" + word + "'");
      const u32 a = static_cast<u32>(std::stoul(word.substr(0, at)));
      const u32 b = static_cast<u32>(std::stoul(word.substr(at + 1)));
      if (a >= net.n || b >= net.n || a == b)
        throw std::invalid_argument("parse_circuit: bad gate '" + word + "'");
      level.push_back({a, b, word[at]});
    }
    net.levels.push_back(std::move(level));
  }
  throw std::invalid_argument("parse_circuit: missing 'end'");
}

ShuffleNet bitonic_on_shuffle(u32 n) {
  const u32 d = lg(n);
  // Batcher's bitonic program as (merge stage s, dimension j) pairs.
  std::vector<std::pair<u32, u32>> program;
  for (u32 s = 1; s <= d; ++s)
    for (u32 j = s; j-- > 0;) program.emplace_back(s, j);
  ShuffleNet net{n, {}};
  std::size_t next = 0;
  for (u32 t = 1; next < program.size(); ++t) {
    // After t shuffles register r holds position rotr^t(r), so the pair
    // (2k, 2k+1) holds positions differing in dimension (d - t) mod d.
    const u32 dim = (d - t % d) % d;
    std::string ops(n / 2, '0');
    if (program[next].second == dim) {
      const u32 s = program[next].first;
      for (u32 k = 0; k < n / 2; ++k) {
        const u32 p0 = rotr_by(2 * k, t, d);
        const u32 x = ((p0 >> dim) & 1) == 0 ? p0 : rotr_by(2 * k + 1, t, d);
        const bool up = s >= d || ((x >> s) & 1) == 0;  // min to x?
        ops[k] = (x == p0) == up ? '+' : '-';
      }
      ++next;
    }
    net.steps.push_back(std::move(ops));
  }
  return net;
}

ShuffleNet random_shuffle_net(u32 n, std::size_t steps, Rng& rng) {
  lg(n);
  ShuffleNet net{n, {}};
  for (std::size_t i = 0; i < steps; ++i) {
    std::string ops(n / 2, '+');
    for (char& op : ops) {
      const u64 r = rng.below(100);
      op = r < 45 ? '+' : r < 90 ? '-' : r < 95 ? '0' : '1';
    }
    net.steps.push_back(std::move(ops));
  }
  return net;
}

IteratedNet butterfly_iterated(u32 n, std::size_t chunks, Rng& rng) {
  const u32 d = lg(n);
  IteratedNet net{n, {}};
  for (std::size_t c = 0; c < chunks; ++c) {
    Chunk chunk;
    chunk.pre = random_permutation(n, rng);
    chunk.order.resize(n);
    for (u32 w = 0; w < n; ++w) chunk.order[w] = w;
    for (u32 t = 1; t <= d; ++t) {
      Level level;
      const u32 bit = u32{1} << (t - 1);
      for (u32 w = 0; w < n; ++w)
        if ((w & bit) == 0) level.push_back({w, w | bit, random_orientation(rng)});
      chunk.levels.push_back(std::move(level));
    }
    net.stages.push_back(std::move(chunk));
  }
  return net;
}

IteratedNet random_rdn_iterated(u32 n, std::size_t chunks, Rng& rng) {
  const u32 d = lg(n);
  IteratedNet net{n, {}};
  for (std::size_t c = 0; c < chunks; ++c) {
    Chunk chunk;
    chunk.order = random_permutation(n, rng);
    for (u32 t = 1; t <= d; ++t) {
      // Level-t nodes are the aligned groups of 2^t leaves; each gate
      // joins the node's left half to its right half.
      Level level;
      const u32 half = u32{1} << (t - 1);
      std::vector<u32> match(half);
      for (u32 node = 0; node < n; node += 2 * half) {
        for (u32 i = 0; i < half; ++i) match[i] = i;
        rng.shuffle(match);
        for (u32 i = 0; i < half; ++i) {
          const u64 r = rng.below(100);
          if (r < 10) continue;
          const char op = r < 15 ? 'x' : r < 57 ? '+' : '-';
          level.push_back({chunk.order[node + i],
                           chunk.order[node + half + match[i]], op});
        }
      }
      chunk.levels.push_back(std::move(level));
    }
    net.stages.push_back(std::move(chunk));
  }
  return net;
}

Circuit batcher_bitonic(u32 n) {
  lg(n);
  Circuit net{n, {}};
  for (u32 k = 2; k <= n; k <<= 1) {
    for (u32 j = k >> 1; j > 0; j >>= 1) {
      Level level;
      for (u32 i = 0; i < n; ++i) {
        const u32 l = i ^ j;
        if (l > i) level.push_back({i, l, (i & k) == 0 ? '+' : '-'});
      }
      net.levels.push_back(std::move(level));
    }
  }
  return net;
}

Circuit odd_even_mergesort(u32 n) {
  lg(n);
  Circuit net{n, {}};
  for (u32 p = 1; p < n; p <<= 1) {
    for (u32 k = p; k >= 1; k >>= 1) {
      Level level;
      for (u32 j = k % p; j + k < n; j += 2 * k)
        for (u32 i = 0; i < k && i + j + k < n; ++i)
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
            level.push_back({i + j, i + j + k, '+'});
      net.levels.push_back(std::move(level));
    }
  }
  return net;
}

Circuit pratt(u32 n) {
  std::vector<u32> increments;
  for (u64 p2 = 1; p2 < n; p2 *= 2)
    for (u64 h = p2; h < n; h *= 3) increments.push_back(static_cast<u32>(h));
  std::sort(increments.rbegin(), increments.rend());
  Circuit net{n, {}};
  for (const u32 h : increments) {
    // One h-pass; comparators (i, i+h) split by the parity of i / h so
    // each level's gates are disjoint.
    for (u32 parity = 0; parity < 2; ++parity) {
      Level level;
      for (u32 i = 0; i + h < n; ++i)
        if ((i / h) % 2 == parity) level.push_back({i, i + h, '+'});
      if (!level.empty()) net.levels.push_back(std::move(level));
    }
  }
  return net;
}

Circuit brick(u32 n, std::size_t rounds) {
  Circuit net{n, {}};
  for (std::size_t r = 0; r < rounds; ++r) {
    Level level;
    for (u32 i = static_cast<u32>(r % 2); i + 1 < n; i += 2)
      level.push_back({i, i + 1, '+'});
    if (!level.empty()) net.levels.push_back(std::move(level));
  }
  return net;
}

Circuit periodic_balanced(u32 n) {
  const u32 d = lg(n);
  Circuit net{n, {}};
  for (u32 block = 0; block < d; ++block) {
    for (u32 size = n; size >= 2; size >>= 1) {
      Level level;
      for (u32 b = 0; b < n; b += size)
        for (u32 i = 0; i < size / 2; ++i)
          level.push_back({b + i, b + size - 1 - i, '+'});
      net.levels.push_back(std::move(level));
    }
  }
  return net;
}

Circuit restrict_to(const Circuit& net, u32 m) {
  Circuit out{m, {}};
  for (const Level& level : net.levels) {
    Level kept;
    for (const Gate& g : level) {
      if (g.op != '+' || g.a > g.b)
        throw std::invalid_argument("restrict_to: network is not standard");
      if (g.b < m) kept.push_back(g);
    }
    if (!kept.empty()) out.levels.push_back(std::move(kept));
  }
  return out;
}

Circuit without_gate(const Circuit& net, std::size_t index) {
  Circuit out{net.n, {}};
  std::size_t seen = 0;
  for (const Level& level : net.levels) {
    Level kept;
    for (const Gate& g : level)
      if (seen++ != index) kept.push_back(g);
    if (!kept.empty()) out.levels.push_back(std::move(kept));
  }
  return out;
}

std::size_t gate_count(const Circuit& net) {
  std::size_t total = 0;
  for (const Level& level : net.levels) total += level.size();
  return total;
}

}  // namespace perfbench
