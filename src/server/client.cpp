#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string>

#include "service/json.hpp"

namespace shufflebound {
namespace {

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Is `line` an error response whose code is `overloaded`?
bool is_overloaded(const std::string& line) {
  if (line.find("overloaded") == std::string::npos) return false;
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* code = doc.find("code");
    return code != nullptr && code->is_string() &&
           code->as_string() == "overloaded";
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int client_connect(const ClientConfig& config) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int run_client(const ClientConfig& config, std::istream& in,
               std::ostream& out) {
  const int fd = client_connect(config);
  if (fd < 0) return kClientBroken;

  // Responses are drained opportunistically between sends: a one-way
  // send-everything-then-read pump would wedge once both socket buffers
  // fill with undelivered responses (the server would then declare this
  // client write-stalled and drop it).
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool overloaded = false;
  std::string rx;
  char chunk[4096];

  const auto drain_ready = [&]() -> bool {
    // Nonblocking peek-and-drain of whatever responses already arrived.
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        rx.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;  // server closed early
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  };
  const auto flush_lines = [&] {
    std::size_t start = 0;
    for (std::size_t nl = rx.find('\n', start); nl != std::string::npos;
         nl = rx.find('\n', start)) {
      const std::string response = rx.substr(start, nl - start);
      out << response << "\n";
      overloaded = overloaded || is_overloaded(response);
      ++responses;
      start = nl + 1;
    }
    rx.erase(0, start);
  };

  bool closed_early = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    line.push_back('\n');
    if (!send_all(fd, line.data(), line.size())) {
      ::close(fd);
      return kClientBroken;
    }
    ++requests;
    if (!drain_ready()) {
      closed_early = true;
      break;
    }
    flush_lines();
  }
  // Half-close: the server reader sees EOF, finishes the in-flight jobs,
  // writes their responses, and closes.
  ::shutdown(fd, SHUT_WR);

  while (!closed_early) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      rx.append(chunk, static_cast<std::size_t>(n));
      flush_lines();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  flush_lines();
  ::close(fd);
  if (responses != requests) return kClientBroken;
  return overloaded ? kClientOverloaded : kClientOk;
}

}  // namespace shufflebound
