// Serialization of comparator networks.
//
// Text format (one construct per line, '#' comments, whitespace-tolerant):
//
//   circuit <width>            |  register <width>
//   level <a><op><b> ...       |  step perm <p0> <p1> ... ; ops <sym>*
//   ...                        |  ...
//   end                        |  end
//
// where <a><op><b> is e.g. "3+7" (min of wires 3,7 to wire 3), "3-7"
// (max to 3), "3x7" (exchange); register ops are a string over
// {+,-,0,1}, one symbol per register pair. A step whose permutation is
// the shuffle may be written "step shuffle ; ops <sym>*".
//
// Also provides Graphviz DOT export of circuits (wires as horizontal
// rails, gates as labeled verticals) for inspection.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"

namespace shufflebound {

std::string to_text(const ComparatorNetwork& net);
std::string to_text(const RegisterNetwork& net);

/// Parses either format back (dispatches on the first keyword). Throws
/// std::invalid_argument with a line number on malformed input.
ComparatorNetwork circuit_from_text(const std::string& text);
RegisterNetwork register_from_text(const std::string& text);

/// One wire index or width token: decimal digits only (no sign, nothing
/// after them) and a value that fits wire_t. nullopt for anything else.
std::optional<wire_t> parse_wire_token(std::string_view token);

/// The width of a `<keyword> <width>` header line: the keyword, then a
/// wire token greater than 0. nullopt when the line is not of that form.
/// Shared by every network text format, so no parser reads "-8" or "8x"
/// as a width.
std::optional<wire_t> parse_header_width(const std::string& line,
                                         std::string_view keyword);

/// Graphviz DOT rendering of a circuit.
std::string to_dot(const ComparatorNetwork& net);

}  // namespace shufflebound
