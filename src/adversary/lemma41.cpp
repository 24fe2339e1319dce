#include "adversary/lemma41.hpp"

#include <algorithm>
#include <stdexcept>

namespace shufflebound {

namespace {

constexpr std::uint32_t kNoSet = static_cast<std::uint32_t>(-1);

bool is_entry_symbol(PatternSymbol s) {
  return s == sym_S(0) || s == sym_M(0) || s == sym_L(0);
}

}  // namespace

Lemma41Driver::Lemma41Driver(const RdnTree& tree, InputPattern p,
                             std::uint32_t k)
    : k_(k),
      depth_(tree.depth()),
      net_(tree.width()),
      order_(tree.leaf_order()),
      pattern_(std::move(p)) {
  if (k_ == 0) throw std::invalid_argument("Lemma41Driver: k must be >= 1");
  const wire_t n = tree.width();
  if (pattern_.size() != n)
    throw std::invalid_argument("Lemma41Driver: pattern width mismatch");
  for (wire_t w = 0; w < n; ++w)
    if (!is_entry_symbol(pattern_[w]))
      throw std::invalid_argument(
          "Lemma41Driver: entry pattern must contain only S_0, M_0, L_0");

  // The leaf order must be a permutation of 0..n-1: ranks index by wire.
  rank_.assign(n, npos);
  if (order_.size() != n)
    throw std::invalid_argument("Lemma41Driver: leaf order width mismatch");
  for (wire_t r = 0; r < n; ++r) {
    const wire_t w = order_[r];
    if (w >= n || rank_[w] != npos)
      throw std::invalid_argument(
          "Lemma41Driver: tree leaf order is not a permutation of the wires");
    rank_[w] = r;
  }

  state_.assign(pattern_.symbols().begin(), pattern_.symbols().end());
  pos_of_wire_.assign(n, npos);
  wire_at_pos_.assign(n, npos);
  set_index_of_wire_.assign(n, kNoSet);
  for (wire_t w = 0; w < n; ++w) {
    if (pattern_[w] != sym_M(0)) continue;
    pos_of_wire_[w] = w;
    wire_at_pos_[w] = w;
    set_index_of_wire_[w] = 0;
    ++stats_.initial_m0;
  }

  collisions_.reserve(n / 2);
  grouped_.resize(n / 2);
  parent_start_.resize(n / 2 + 1);
  if (depth_ > 0) loss_.assign(static_cast<std::size_t>(k_) * k_, 0);
}

void Lemma41Driver::demote(wire_t w, std::uint32_t set_index,
                           std::uint32_t xj) {
  const PatternSymbol grave = sym_X(set_index, xj);
  pattern_.set(w, grave);
  state_[pos_of_wire_[w]] = grave;
  wire_at_pos_[pos_of_wire_[w]] = npos;
  pos_of_wire_[w] = npos;
  set_index_of_wire_[w] = kNoSet;
}

std::vector<wire_t> Lemma41Driver::feed_level(const Level& level) {
  if (progress_) progress_();
  const std::uint32_t m = level_ + 1;
  if (m > depth_)
    throw std::logic_error("Lemma41Driver: more levels than the tree has");
  const wire_t n = net_.width();

  // --- Validation and Step 1: collision scan on pre-level positions. ---
  // Every gate must join the two children of one level-m node: equal
  // rank >> m, different bit m-1. Values sitting on a child's lines
  // entered through that child's wires, so the tracked wires inherit the
  // sides of their lines.
  collisions_.clear();
  for (const Gate& g : level.gates) {
    if (g.lo >= n || g.hi >= n || (rank_[g.lo] >> m) != (rank_[g.hi] >> m) ||
        ((rank_[g.lo] ^ rank_[g.hi]) >> (m - 1)) == 0)
      throw std::invalid_argument(
          "Lemma41Driver: level gate violates the RDN decomposition");
    if (!is_comparator(g.op)) continue;  // "1" elements never collide
    const wire_t u = wire_at_pos_[g.lo];
    const wire_t v = wire_at_pos_[g.hi];
    if (u == npos || v == npos) continue;
    const bool u_left = ((rank_[u] >> (m - 1)) & 1u) == 0;
    const wire_t wl = u_left ? u : v;
    const wire_t wr = u_left ? v : u;
    collisions_.push_back(
        Collision{set_index_of_wire_[wl], set_index_of_wire_[wr], wl});
  }

  // add_level rejects gates that share a wire, or a stored passthrough,
  // before any state changes: past this point the level is a matching,
  // so it has at most n/2 collisions and each tracked wire is in one.
  net_.add_level(level);

  // Group the collisions by parent (stable counting sort), keeping the
  // gate-scan order within each parent so demotions stay in that order.
  const std::size_t parents = std::size_t{n} >> m;
  std::fill_n(parent_start_.begin(), parents + 1, 0u);
  for (const Collision& c : collisions_) ++parent_start_[(rank_[c.left_wire] >> m) + 1];
  for (std::size_t p = 0; p < parents; ++p) parent_start_[p + 1] += parent_start_[p];
  for (const Collision& c : collisions_)
    grouped_[parent_start_[rank_[c.left_wire] >> m]++] = c;
  // parent_start_[p] now holds the end of parent p's run.

  // --- Steps 2 & 3 per parent: pick i0, demote, rename the right child. ---
  // A parent without collisions picks i0 = 0 and changes nothing.
  const std::uint32_t xj = next_xj_++;
  const std::uint64_t offsets = static_cast<std::uint64_t>(k_) * k_;
  std::vector<wire_t> sacrificed;
  std::uint32_t begin = 0;
  for (std::size_t p = 0; p < parents; ++p) {
    const std::uint32_t end = parent_start_[p];
    if (begin == end) continue;
    const Collision* const first = grouped_.data() + begin;
    const Collision* const last = grouped_.data() + end;
    begin = end;

    // loss(off) = number of collisions with left_set - right_set == off;
    // i0 is the smallest offset of least loss.
    for (const Collision* c = first; c != last; ++c)
      if (c->left_set >= c->right_set && c->left_set - c->right_set < offsets)
        ++loss_[c->left_set - c->right_set];
    std::uint32_t i0 = 0;
    for (std::uint32_t off = 0, best = UINT32_MAX; off < offsets; ++off) {
      if (loss_[off] < best) {
        best = loss_[off];
        i0 = off;
        if (best == 0) break;
      }
    }
    for (const Collision* c = first; c != last; ++c)
      if (c->left_set >= c->right_set && c->left_set - c->right_set < offsets)
        loss_[c->left_set - c->right_set] = 0;

    // Demote the wires of L_{i0} = union_j C_{j, j-i0}.
    for (const Collision* c = first; c != last; ++c) {
      if (c->left_set >= c->right_set && c->left_set - c->right_set == i0) {
        demote(c->left_wire, c->left_set, xj);
        sacrificed.push_back(c->left_wire);
      }
    }

    // Rename the right child (paper steps 1'/2'): shift M_i -> M_{i+i0},
    // X_{i,j} -> X_{i+i0,j}, on the input pattern, the state lines (values
    // from right-child wires are still on right-child lines before this
    // level acts), and the set bookkeeping.
    if (i0 > 0) {
      const std::size_t half = std::size_t{1} << (m - 1);
      const wire_t* const right = order_.data() + (p << m) + half;
      for (const wire_t* it = right; it != right + half; ++it) {
        const wire_t w = *it;
        for (PatternSymbol* sym : {&pattern_.mutable_symbols()[w], &state_[w]}) {
          if (sym->kind == SymbolKind::M || sym->kind == SymbolKind::X)
            sym->i += i0;
        }
        if (set_index_of_wire_[w] != kNoSet) set_index_of_wire_[w] += i0;
      }
    }
  }
  stats_.loss_per_level.push_back(sacrificed.size());

  // --- Step 4: apply the level to the symbol state. ---
  // Distinct gates touch distinct lines, hence distinct tracked wires.
  for (const Gate& g : level.gates) {
    PatternSymbol& a = state_[g.lo];
    PatternSymbol& b = state_[g.hi];
    bool do_swap = false;
    switch (g.op) {
      case GateOp::CompareAsc:
        do_swap = b < a;
        break;
      case GateOp::CompareDesc:
        do_swap = a < b;
        break;
      case GateOp::Exchange:
        do_swap = true;
        break;
      case GateOp::Passthrough:
        break;
    }
    if (is_comparator(g.op) && a == b &&
        (wire_at_pos_[g.lo] != npos || wire_at_pos_[g.hi] != npos))
      throw std::logic_error(
          "Lemma41Driver: tracked value compared against an equal symbol");
    if (do_swap) {
      std::swap(a, b);
      std::swap(wire_at_pos_[g.lo], wire_at_pos_[g.hi]);
      if (wire_at_pos_[g.lo] != npos) pos_of_wire_[wire_at_pos_[g.lo]] = g.lo;
      if (wire_at_pos_[g.hi] != npos) pos_of_wire_[wire_at_pos_[g.hi]] = g.hi;
    }
  }

  level_ = m;
  return sacrificed;
}

Lemma41Result Lemma41Driver::finish() && {
  if (level_ != depth_)
    throw std::logic_error("Lemma41Driver::finish: not all levels fed");
  // The surviving set members are exactly the wires that still carry a
  // set index; an ascending scan yields each M_i sorted.
  const std::size_t budget = lemma41_set_budget(k_, depth_);
  Lemma41Result result;
  result.sets.assign(budget, {});
  for (wire_t w = 0; w < set_index_of_wire_.size(); ++w) {
    const std::uint32_t index = set_index_of_wire_[w];
    if (index == kNoSet) continue;
    if (index >= budget)
      throw std::logic_error("Lemma41Driver: set index exceeds t(l)");
    result.sets[index].push_back(w);
  }
  result.refined = std::move(pattern_);
  result.output = InputPattern(std::move(state_));
  result.final_position = std::move(pos_of_wire_);

  stats_.set_count = budget;
  for (const auto& wires : result.sets) {
    stats_.retained += wires.size();
    if (!wires.empty()) ++stats_.nonempty_sets;
    stats_.largest_set = std::max(stats_.largest_set, wires.size());
  }
  result.stats = std::move(stats_);
  return result;
}

Lemma41Result lemma41(const RdnChunk& chunk, const InputPattern& p,
                      std::uint32_t k) {
  if (auto err = chunk.tree.validate(chunk.net))
    throw std::invalid_argument("lemma41: chunk is not an RDN: " + *err);
  Lemma41Driver driver(chunk.tree, p, k);
  for (const Level& level : chunk.net.levels()) driver.feed_level(level);
  return std::move(driver).finish();
}

}  // namespace shufflebound
