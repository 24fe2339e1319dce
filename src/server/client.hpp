// Minimal client for the analysis server: connects, forwards JSONL
// request lines from a stream, and prints each response line as it
// arrives, in request order. The lines match what `batch` prints for the
// same requests, except that the server may answer a request with an
// `overloaded` (or, while draining, a `draining`) error instead of
// running it; the exit code reports the overloaded case.
//
// Used by `shufflebound_cli connect` and by the server tests/benches.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

namespace shufflebound {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Connects a raw TCP socket to host:port; returns the fd or -1.
int client_connect(const ClientConfig& config);

/// run_client results.
inline constexpr int kClientOk = 0;          // one response per request
inline constexpr int kClientBroken = 1;      // connect/socket failure or a
                                             // short response stream
inline constexpr int kClientOverloaded = 3;  // complete stream, but some
                                             // response is `overloaded`

/// Sends every line of `in` (a trailing unterminated line included),
/// half-closes the write side, then copies response lines to `out` until
/// the server closes. Returns one of the kClient* codes above; a short
/// stream wins over an overloaded response.
int run_client(const ClientConfig& config, std::istream& in,
               std::ostream& out);

}  // namespace shufflebound
