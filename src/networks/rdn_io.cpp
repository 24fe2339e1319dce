#include "networks/rdn_io.hpp"

#include <iterator>
#include <sstream>
#include <stdexcept>

#include "core/io.hpp"
#include "util/bits.hpp"

namespace shufflebound {

namespace {

char gate_text_op(GateOp op) {
  switch (op) {
    case GateOp::CompareAsc:
      return '+';
    case GateOp::CompareDesc:
      return '-';
    case GateOp::Exchange:
      return 'x';
    case GateOp::Passthrough:
      return '0';
  }
  return '?';
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("iterated network text: " + what);
}

std::vector<std::string> words_of(const std::string& row) {
  std::istringstream in(row);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

/// The wire tokens words[from..]. The list grows with the tokens the text
/// supplies, never with the width in the header.
std::vector<wire_t> wires_of(const std::vector<std::string>& words,
                             std::size_t from, const char* what) {
  std::vector<wire_t> out;
  for (std::size_t i = from; i < words.size(); ++i) {
    const auto w = parse_wire_token(words[i]);
    if (!w) fail(std::string("malformed ") + what + " entry '" + words[i] + "'");
    out.push_back(*w);
  }
  return out;
}

}  // namespace

std::string to_text(const IteratedRdn& net) {
  std::ostringstream out;
  out << "iterated " << net.width() << "\n";
  for (const IteratedRdn::Stage& stage : net.stages()) {
    out << "stage perm";
    if (stage.pre.is_identity()) {
      out << " identity";
    } else {
      for (wire_t j = 0; j < net.width(); ++j) out << ' ' << stage.pre[j];
    }
    out << "\ntree";
    for (const wire_t w : stage.chunk.tree.leaf_order()) out << ' ' << w;
    out << "\n";
    for (const Level& level : stage.chunk.net.levels()) {
      out << "level";
      for (const Gate& g : level.gates)
        out << ' ' << g.lo << gate_text_op(g.op) << g.hi;
      out << "\n";
    }
    out << "endstage\n";
  }
  out << "end\n";
  return out.str();
}

IteratedRdn iterated_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&]() -> std::optional<std::string> {
    while (std::getline(in, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      const auto last = line.find_last_not_of(" \t\r");
      return line.substr(first, last - first + 1);
    }
    return std::nullopt;
  };

  auto header = next_line();
  if (!header) fail("empty input");
  const auto header_width = parse_header_width(*header, "iterated");
  if (!header_width) fail("expected 'iterated <width>'");
  const wire_t width = *header_width;
  if (width < 2 || !is_pow2(width))
    fail("width " + std::to_string(width) + " is not 2^l wires with l >= 1");
  IteratedRdn net(width);

  for (auto row = next_line(); row; row = next_line()) {
    if (*row == "end") return net;
    // --- stage perm ... ---
    // Nothing width-sized is built until the text has supplied `width`
    // tokens (an explicit image, or the tree row below).
    const std::vector<std::string> stage_words = words_of(*row);
    if (stage_words.size() < 2 || stage_words[0] != "stage" ||
        stage_words[1] != "perm")
      fail("expected 'stage perm'");
    if (stage_words.size() == 2) fail("missing permutation");
    const bool identity = stage_words[2] == "identity";
    std::vector<wire_t> image;
    if (!identity) {
      image = wires_of(stage_words, 2, "permutation");
      if (image.size() != width) fail("permutation has wrong size");
    }
    // --- tree ... ---
    auto tree_row = next_line();
    if (!tree_row) fail("expected 'tree'");
    const std::vector<std::string> tree_words = words_of(*tree_row);
    if (tree_words.front() != "tree") fail("expected 'tree'");
    std::vector<wire_t> order = wires_of(tree_words, 1, "tree leaf");
    if (order.size() != width) fail("tree leaf order has wrong size");
    Permutation pre =
        identity ? Permutation::identity(width) : Permutation(std::move(image));
    RdnTree tree = RdnTree::from_order(std::move(order));
    // --- levels until endstage ---
    ComparatorNetwork chunk(width);
    for (auto body = next_line();; body = next_line()) {
      if (!body) fail("missing 'endstage'");
      if (*body == "endstage") break;
      if (body->rfind("level", 0) != 0) fail("expected 'level' or 'endstage'");
      // Reuse the circuit gate syntax by wrapping one line.
      const std::string wrapped =
          "circuit " + std::to_string(width) + "\n" + *body + "\nend\n";
      const ComparatorNetwork one = circuit_from_text(wrapped);
      chunk.add_level(one.level(0));
    }
    net.add_stage(IteratedRdn::Stage{std::move(pre),
                                     RdnChunk{std::move(chunk), std::move(tree)}});
  }
  fail("missing 'end'");
}

}  // namespace shufflebound
