#include "workloads.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "checks.hpp"
#include "core/io.hpp"
#include "model.hpp"
#include "obs/obs.hpp"
#include "search/search.hpp"
#include "server/server.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "sim/arena.hpp"
#include "sim/bitparallel.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace sb = shufflebound;
namespace obs = shufflebound::obs;

namespace {

using Clock = std::chrono::steady_clock;

/// Pool workers for refute, certify and search. Fixed, so that no figure
/// depends on the host's core count.
constexpr std::size_t kPoolWorkers = 2;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

WitnessView view_of(const sb::Witness& w) {
  WitnessView v;
  v.pi.assign(w.pi.image().begin(), w.pi.image().end());
  v.pi_prime.assign(w.pi_prime.image().begin(), w.pi_prime.image().end());
  v.w0 = w.w0;
  v.w1 = w.w1;
  v.m = w.m;
  return v;
}

/// Records an operation's outcome. An exception or an error answer counts
/// as failed; an answer the checks refute (`wrong`) also makes the run
/// incorrect.
void record(PassResult& r, double ms, const std::string& error, bool wrong) {
  r.op_ms.push_back(ms);
  r.seconds += ms / 1000.0;
  r.attempted += 1;
  if (!error.empty()) {
    r.failed += 1;
    r.wrong += wrong ? 1 : 0;
    r.errors.push_back(error);
  }
}

double per(double total, std::size_t passes) {
  return passes == 0 ? 0.0 : total / static_cast<double>(passes);
}

// ============================================================== refute ==

/// Shuffle-based register networks and iterated RDNs at n = 2^10..2^14,
/// from two to sixteen lg n-step chunks, plus Stone's bitonic sorter on
/// the shuffle at each width as a control that must never be refuted.
class RefuteWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const auto add_shuffle = [&](u32 n, std::size_t chunks) {
      Item item;
      item.name = "shuffle-" + std::to_string(n) + "x" + std::to_string(chunks);
      item.shuffle = random_shuffle_net(n, chunks * lg(n), rng);
      item.text = to_text(item.shuffle);
      items_.push_back(std::move(item));
    };
    const auto add_iterated = [&](const char* kind, IteratedNet net) {
      Item item;
      item.name = std::string(kind) + "-" + std::to_string(net.n) + "x" +
                  std::to_string(net.stages.size());
      item.iterated = true;
      item.rdn = std::move(net);
      item.text = to_text(item.rdn);
      items_.push_back(std::move(item));
    };
    add_shuffle(1024, 2);
    add_shuffle(1024, 16);
    add_shuffle(4096, 4);
    add_shuffle(4096, 12);
    add_shuffle(16384, 2);
    add_shuffle(16384, 8);
    add_iterated("butterfly", butterfly_iterated(1024, 12, rng));
    add_iterated("butterfly", butterfly_iterated(4096, 3, rng));
    add_iterated("butterfly", butterfly_iterated(16384, 2, rng));
    add_iterated("random-rdn", random_rdn_iterated(1024, 6, rng));
    add_iterated("random-rdn", random_rdn_iterated(4096, 8, rng));
    add_iterated("random-rdn", random_rdn_iterated(16384, 3, rng));
    for (const u32 n : {1024u, 4096u, 16384u}) {
      Item item;
      item.name = "bitonic-shuffle-" + std::to_string(n);
      item.control = true;
      item.shuffle = bitonic_on_shuffle(n);
      item.text = to_text(item.shuffle);
      items_.push_back(std::move(item));
    }
    // Warm-up: one whole pass, a fixed amount of work that touches every
    // width and so every large table.
    const PassResult warm = pass();
    if (warm.failed != 0) throw std::runtime_error("warm-up: " + warm.errors[0]);
  }

  PassResult pass() override {
    PassResult r;
    cert_bytes_ = 0;
    for (const Item& item : items_) run(item, r);
    return r;
  }

  std::map<std::string, double> traced_extras(const LayerTable&,
                                              std::size_t) override {
    return {{"cert_bytes", static_cast<double>(cert_bytes_)}};
  }

 private:
  struct Item {
    std::string name;
    bool control = false;
    bool iterated = false;
    ShuffleNet shuffle;
    IteratedNet rdn;
    std::string text;
  };

  void run(const Item& item, PassResult& r) {
    std::string error;
    bool wrong = true;
    double ms = 0;
    try {
      sb::RefuteOptions options;
      options.pool = &pool_;
      const auto start = Clock::now();
      std::optional<sb::ParsedNetwork> parsed;
      {
        const obs::Span span("bench", "parse");
        parsed = sb::parse_any_network(item.text);
      }
      sb::RefutationResult result;
      {
        const obs::Span span("bench", "refute");
        result = item.iterated ? sb::refute(*parsed->iterated_form, options)
                               : sb::refute(*parsed->register_form, options);
      }
      std::string text;
      std::optional<sb::Certificate> back;
      bool accepted = false;
      if (result.status == sb::RefutationStatus::Refuted) {
        {
          const obs::Span span("bench", "cert_encode");
          text = sb::to_chunked_text(*result.certificate);
        }
        const obs::Span span("bench", "cert_verify");
        back = sb::certificate_from_text(text);
        accepted = sb::verify_certificate(parsed->circuit, *back).accepted();
      }
      ms = ms_between(start, Clock::now());
      cert_bytes_ += text.size();

      // The adversary is sound but not complete: below the theorem's
      // floor it may end with fewer than two survivors, which is a right
      // answer ("no claim"). Anything else must be refuted, and a sorter
      // never.
      if (result.status == sb::RefutationStatus::NotInScope) {
        error = "out of scope: " + result.detail;
      } else if (item.control) {
        if (result.status == sb::RefutationStatus::Refuted)
          error = "the sorter was refuted";
      } else if (result.status != sb::RefutationStatus::Refuted) {
        // no claim: nothing to check
      } else if (!accepted) {
        error = "verify_certificate rejected the read-back certificate";
      } else {
        const WitnessView w = view_of(back->witness);
        error = item.iterated ? check_refutation(item.rdn, w)
                              : check_refutation(item.shuffle, w);
      }
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
      wrong = false;
    }
    record(r, ms, error.empty() ? error : item.name + ": " + error, wrong);
  }

  std::vector<Item> items_;
  std::uint64_t cert_bytes_ = 0;
  sb::ThreadPool pool_{kPoolWorkers};
};

// ============================================================= certify ==

/// A fixed corpus around every rung of zero_one_check's ladder: the
/// analyzer first at every width, then the sweep (n <= 20), a
/// budget-bounded frontier attempt that falls back to the sweep
/// (21..30), and the frontier alone (31..48). The seed only orders it.
std::vector<CertifyCase> certify_corpus() {
  std::vector<CertifyCase> corpus;
  const auto sorter = [&](std::string name, Circuit net) {
    corpus.push_back({std::move(name), std::move(net), true, std::nullopt});
  };
  // Non-sorters. The benchmark finds a failing vector itself
  // (exhaustively up to 24 wires, by a fixed search above); a network
  // that turns out to sort is kept as a sorter when the exhaustive
  // evaluation confirms it.
  const auto nonsorter = [&](std::string name, Circuit net) {
    CertifyCase c{std::move(name), std::move(net), false, std::nullopt};
    if (c.net.n <= 24) {
      c.known_failing = first_failing_01(c.net, u64{1} << c.net.n);
      c.sorts = !c.known_failing;
    } else {
      c.known_failing = find_failing_01(c.net, 4096);
      if (!c.known_failing)
        throw std::logic_error("certify corpus: no failing vector for " +
                               c.name);
    }
    corpus.push_back(std::move(c));
  };
  // A sorter with one gate removed.
  const auto broken = [&](std::string name, const Circuit& net,
                          std::size_t gate) {
    nonsorter(std::move(name), without_gate(net, gate % gate_count(net)));
  };

  // n <= 20: the analyzer, else the sweep.
  sorter("pratt-16", pratt(16));
  sorter("pratt-20", pratt(20));
  sorter("balanced-16", periodic_balanced(16));
  sorter("brick-18", brick(18, 18));
  sorter("oem32|19", restrict_to(odd_even_mergesort(32), 19));
  broken("pratt-16-g9", pratt(16), 9);  // still sorts: the gate is redundant
  broken("pratt-20-g57", pratt(20), 57);
  broken("brick-20-g180", brick(20, 20), 180);
  broken("oem-16-g30", odd_even_mergesort(16), 30);
  // 21..30: the analyzer, else a frontier attempt that may fall back to
  // the sweep.
  sorter("pratt-21", pratt(21));
  sorter("pratt-24", pratt(24));
  sorter("pratt-26", pratt(26));
  sorter("brick-26", brick(26, 26));
  sorter("balanced32|24", restrict_to(periodic_balanced(32), 24));
  broken("pratt-22-g70", pratt(22), 70);
  broken("brick-21-g5", brick(21, 21), 5);
  broken("brick-24-g5", brick(24, 24), 5);
  broken("oem32|24-g90", restrict_to(odd_even_mergesort(32), 24), 90);
  // 31..48: the analyzer, else the frontier alone.
  sorter("brick-40", brick(40, 40));
  sorter("balanced-32", periodic_balanced(32));
  broken("oem64|33-g150", restrict_to(odd_even_mergesort(64), 33), 150);
  broken("oem64|40-g150", restrict_to(odd_even_mergesort(64), 40), 150);
  broken("oem64|48-g150", restrict_to(odd_even_mergesort(64), 48), 150);
  // Past 48: the analyzer alone.
  sorter("oem-64", odd_even_mergesort(64));
  sorter("bitonic-64", batcher_bitonic(64));
  sorter("oem128|100", restrict_to(odd_even_mergesort(128), 100));
  sorter("oem-128", odd_even_mergesort(128));
  sorter("bitonic-128", batcher_bitonic(128));
  return corpus;
}

class CertifyWorkload final : public Workload {
 public:
  static constexpr int kWarmupPasses = 8;

  void setup(std::uint64_t seed) override {
    corpus_ = certify_corpus();
    for (const CertifyCase& c : corpus_) texts_.push_back(to_text(c.net));
    order_.resize(corpus_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng rng(seed);
    rng.shuffle(order_);
    rungs_.assign(corpus_.size(), "");
    case_ms_.assign(corpus_.size(), 0.0);
    // Warm-up: a fixed number of whole passes, so that the set-up time
    // is not a few milliseconds of noise.
    for (int i = 0; i < kWarmupPasses; ++i) {
      const PassResult warm = pass();
      if (warm.failed != 0) throw std::runtime_error("warm-up: " + warm.errors[0]);
    }
  }

  PassResult pass() override {
    PassResult r;
    for (const std::size_t i : order_) run(i, r);
    return r;
  }

  std::map<std::string, double> traced_extras(const LayerTable& table,
                                              std::size_t passes) override {
    std::map<std::string, double> out;
    out["frontier_peak_entries"] = static_cast<double>(peak_entries_);
    const double sweep_ms = table.total_ms("kernel/zero_one_check");
    out["sweep_mvec_per_s"] =
        sweep_ms <= 0 ? 0.0
                      : static_cast<double>(table.counter("kernel.vectors_evaluated")) /
                            sweep_ms / 1000.0;
    (void)passes;
    return out;
  }

  /// Which rung decided each network in the traced passes, and its mean
  /// time per pass.
  std::string traced_detail(std::size_t passes) const override {
    std::string out = "{\"corpus\": [";
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      char ms[32];
      std::snprintf(ms, sizeof ms, "%.3f", per(case_ms_[i], passes));
      out += std::string(i == 0 ? "" : ",") + "\n  {\"name\": \"" +
             corpus_[i].name + "\", \"n\": " + std::to_string(corpus_[i].net.n) +
             ", \"sorts\": " + (corpus_[i].sorts ? "true" : "false") +
             ", \"rung\": \"" + rungs_[i] + "\", \"ms\": " + ms + "}";
    }
    return out + "]}";
  }

 private:
  void run(std::size_t index, PassResult& r) {
    const CertifyCase& c = corpus_[index];
    std::string error;
    bool wrong = true;
    double ms = 0;
    const auto counter = [](const char* name) {
      return obs::counter(name).value();
    };
    const bool traced = obs::enabled();
    const std::uint64_t analyzed = traced ? counter("kernel.analyze_certified") : 0;
    const std::uint64_t fallbacks = traced ? counter("kernel.frontier_fallbacks") : 0;
    const std::uint64_t frontiers = traced ? counter("kernel.frontier_runs") : 0;
    try {
      sb::CertifyOptions options;
      options.pool = &pool_;
      const auto start = Clock::now();
      std::optional<sb::ParsedNetwork> parsed;
      {
        const obs::Span span("bench", "parse");
        parsed = sb::parse_any_network(texts_[index]);
      }
      sb::ZeroOneReport report;
      {
        const obs::Span span("bench", "zero_one_check");
        report = sb::zero_one_check(parsed->circuit, options);
      }
      ms = ms_between(start, Clock::now());
      error = check_certify(c, report.sorts_all, report.failing_vector);
    } catch (const std::exception& e) {
      error = c.name + ": exception: " + e.what();
      wrong = false;
    }
    if (traced) {
      rungs_[index] = counter("kernel.analyze_certified") > analyzed ? "analyze"
                      : counter("kernel.frontier_fallbacks") > fallbacks
                          ? "frontier, then sweep"
                      : counter("kernel.frontier_runs") > frontiers ? "frontier"
                                                                     : "sweep";
      case_ms_[index] += ms;
      peak_entries_ = std::max(peak_entries_,
                               counter("kernel.frontier_peak_entries"));
    }
    record(r, ms, error, wrong);
  }

  std::vector<CertifyCase> corpus_;
  std::vector<std::string> texts_;
  std::vector<std::size_t> order_;
  std::vector<std::string> rungs_;
  std::vector<double> case_ms_;
  std::uint64_t peak_entries_ = 0;
  sb::ThreadPool pool_{kPoolWorkers};
};

// ============================================================== search ==

class SearchWorkload final : public Workload {
 public:
  static constexpr int kWarmupSearches = 8;

  void setup(std::uint64_t seed) override {
    // One n = 8 search takes about as long as everything else together,
    // so the short searches repeat: four n = 7 and n = 9 runs and two
    // n = 10 runs per pass put the latency median inside the n = 7
    // samples and the 90th percentile inside the n = 10 ones, rather
    // than on a boundary between two search sizes.
    order_ = {7, 7, 7, 7, 8, 9, 9, 9, 9, 10, 10};
    Rng rng(seed);
    rng.shuffle(order_);
    // Warm-up: exhaustive searches at n = 7 touch the BFS core, the
    // filter ladder and the certification of the witness; a fixed number
    // of them, so that the set-up time is not a few milliseconds of noise.
    PassResult warm;
    for (int i = 0; i < kWarmupSearches; ++i) run(7, warm);
    if (warm.failed != 0) throw std::runtime_error("warm-up: " + warm.errors[0]);
  }

  PassResult pass() override {
    PassResult r;
    for (const u32 n : order_) run(n, r);
    return r;
  }

  std::map<std::string, double> traced_extras(const LayerTable&,
                                              std::size_t passes) override {
    std::map<std::string, double> out;
    // Mean seconds of one search of each width.
    (void)passes;
    for (const u32 n : {7u, 8u, 9u, 10u})
      out["search_n" + std::to_string(n) + "_s"] =
          calls_[n] == 0 ? 0.0 : seconds_[n] / calls_[n];
    out["search_exhaustive_s"] = out["search_n7_s"] + out["search_n8_s"];
    out["search_existence_s"] = out["search_n9_s"] + out["search_n10_s"];
    out["prune_ratio"] = prune_calls_ == 0 ? 0.0 : prune_sum_ / prune_calls_;
    return out;
  }

 private:
  void run(u32 n, PassResult& r) {
    std::string error;
    bool wrong = true;
    double ms = 0;
    try {
      sb::SearchOptions options;
      options.pool = &pool_;
      options.mode = n <= 8 ? sb::SearchMode::Exhaustive : sb::SearchMode::Existence;
      const auto start = Clock::now();
      sb::SearchResult result;
      {
        const obs::Span span("bench", "find_min_depth_network");
        result = sb::find_min_depth_network(n, options);
      }
      ms = ms_between(start, Clock::now());
      if (result.status != sb::SearchStatus::Optimal) {
        error = "search did not reach an optimal network";
      } else {
        error = check_search(n, result.optimal_depth,
                             parse_circuit(sb::to_text(result.network)));
      }
      if (obs::enabled()) {
        seconds_[n] += ms / 1000.0;
        calls_[n] += 1;
        prune_sum_ += result.stats.pruning_ratio();
        prune_calls_ += 1;
      }
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
      wrong = false;
    }
    record(r, ms, error.empty() ? error : "n=" + std::to_string(n) + ": " + error,
           wrong);
  }

  std::vector<u32> order_;
  std::map<u32, double> seconds_;
  std::map<u32, double> calls_;
  double prune_sum_ = 0;
  double prune_calls_ = 0;
  sb::ThreadPool pool_{kPoolWorkers};
};

// =============================================================== serve ==

/// The in-process server on loopback with the memory cache only, driven
/// in a closed loop: kConnections connections each keep kWindow requests
/// in flight. The mix is that of the E19 server bench
/// (bench/bench_e19_server.cpp, make_mix): every other line is a certify
/// job on a network no other line uses, a cache miss that inserts; the
/// lines between cycle through jobs on fixed networks, which repeat. E19
/// cycles refute, count-sorted and info; lint and analyze join the cycle
/// here so that every op runs. Each connection has its own five fixed
/// jobs, and a kind comes back only ten lines after its last sending, so
/// its first response has arrived and every repeat is an exact cache hit.
///
/// Every pass sends the same lines to a fresh Server, with an empty cache
/// and a cleared compilation arena: a pass's work and its resident memory
/// do not depend on how many passes ran before it. Starting and stopping
/// the server is outside the timed part.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kConnections = 2;
  static constexpr std::size_t kWindow = 2;
  static constexpr std::size_t kLinesPerConnection = 192;
  static constexpr std::size_t kServerWorkers = 2;
  static constexpr u32 kWidth = 16;
  /// Passes of warm-up in set-up: a fixed amount of work, so that the
  /// set-up time is not a few milliseconds of noise.
  static constexpr int kWarmupPasses = 16;

  void setup(std::uint64_t seed) override {
    make_lines(seed);
    for (int i = 0; i < kWarmupPasses; ++i) {
      const PassResult warm = pass();
      if (warm.failed != 0) throw std::runtime_error("warm-up: " + warm.errors[0]);
    }
  }

  PassResult pass() override {
    start_server();
    PassResult r = run_pass();
    stop_server();
    return r;
  }

  std::map<std::string, double> traced_extras(const LayerTable& table,
                                              std::size_t passes) override {
    std::map<std::string, double> out;
    const double requests = static_cast<double>(traced_requests_);
    if (requests == 0) return out;
    const double probe = table.total_ms("service/cache_probe");
    const double execute = table.total_ms("service/execute");
    out["queue_wait_ms"] = table.total_ms("service/queue_wait") / requests;
    out["cache_probe_ms"] = probe / requests;
    out["execute_ms"] = execute / requests;
    out["request_ms"] = table.total_ms("server/request") / requests;
    out["unattributed_ms"] = traced_round_trip_ms_ / requests - (probe + execute) / requests;
    (void)passes;
    return out;
  }

  void teardown() override { stop_server(); }

  ~ServeWorkload() override { teardown(); }

 private:
  enum class Kind { Info, Lint, Analyze, Certify, Refute, CountSorted };

  struct Line {
    std::string text;         // the request line, with its newline
    Kind kind = Kind::Info;
    int repeat_of = -1;       // index of the first sending, on this connection
    Circuit circuit;          // info, lint, analyze, certify, count-sorted
    bool sorts = false;       // circuit sorts (checked exhaustively)
    ShuffleNet shuffle;       // refute
    std::uint64_t trials = 0; // count-sorted
  };

  void start_server() {
    sb::CompilationArena::global().clear();
    sb::ServerConfig config;
    config.host = "127.0.0.1";
    config.port = 0;
    config.workers = kServerWorkers;
    config.queue_capacity = 64;
    config.max_inflight_per_conn = 64;  // > kWindow: never `overloaded`
    server_ = std::make_unique<sb::Server>(config);
    server_->listen();
    server_thread_ = std::thread([this] { server_->run(); });
    for (std::size_t c = 0; c < kConnections; ++c) fds_.push_back(connect_loopback());
  }

  void stop_server() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    if (server_) server_->request_shutdown();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  int connect_loopback() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->bound_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  static Line circuit_line(Kind kind, Circuit net, const std::string& id) {
    Line line;
    line.kind = kind;
    line.sorts = !first_failing_01(net, u64{1} << net.n);
    const char* op = kind == Kind::Info      ? "info"
                     : kind == Kind::Lint    ? "lint"
                     : kind == Kind::Analyze ? "analyze"
                     : kind == Kind::Certify ? "certify"
                                             : "count-sorted";
    std::string fields = std::string("\"op\":\"") + op +
                         "\",\"network\":" + sb::json_quote(to_text(net));
    if (kind == Kind::CountSorted) {
      line.trials = 4096;  // as in E19
      fields += ",\"trials\":4096,\"seed\":19";
    }
    line.circuit = std::move(net);
    line.text = "{\"id\":\"" + id + "\"," + fields + "}\n";
    return line;
  }

  /// The lines of every connection, made once from the seed. Certify
  /// networks are E19's: a sorter with one gate (a, b) appended, every
  /// pair in a seeded order, on kWidth wires (periodic balanced, as in
  /// E19). Every other one drops a seeded gate of the sorter first, so
  /// that some certify jobs answer with a failing vector (the periodic
  /// balanced network is redundant: most such variants still sort, and
  /// the exhaustive 0-1 evaluation says which). The fixed jobs run on
  /// Batcher's bitonic sorter with one more pair appended.
  void make_lines(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<u32, u32>> pairs;
    for (u32 a = 0; a < kWidth; ++a)
      for (u32 b = a + 1; b < kWidth; ++b) pairs.push_back({a, b});
    rng.shuffle(pairs);
    const auto appended = [](Circuit net, std::pair<u32, u32> pair) {
      net.levels.push_back({{pair.first, pair.second, '+'}});
      return net;
    };
    const Circuit balanced = periodic_balanced(kWidth);
    const Circuit bitonic = batcher_bitonic(kWidth);
    const std::size_t certify_lines = kConnections * kLinesPerConnection / 2;
    if (certify_lines / 2 + kConnections * 5 > pairs.size())
      throw std::logic_error("serve: not enough distinct gate pairs");
    std::size_t next_certify = 0;
    lines_.assign(kConnections, {});
    for (std::size_t c = 0; c < kConnections; ++c) {
      const auto id = [&](std::size_t i) {
        char text[32];
        std::snprintf(text, sizeof text, "c%zul%zu", c, i);
        return std::string(text);
      };
      // The connection's fixed jobs, in E19's order with lint and
      // analyze after it; the last pairs of the order are theirs.
      std::vector<Line> fixed;
      for (std::size_t k = 0; k < 5; ++k) {
        const std::pair<u32, u32> pair = pairs[pairs.size() - 1 - (5 * c + k)];
        const std::string first_id = id(2 * k + 1);
        if (k == 0) {
          Line line;
          line.kind = Kind::Refute;
          line.shuffle = random_shuffle_net(32, 8, rng);  // E19's shuffle32
          line.text = "{\"id\":\"" + first_id + "\",\"op\":\"refute\",\"network\":" +
                      sb::json_quote(to_text(line.shuffle)) + "}\n";
          fixed.push_back(std::move(line));
          continue;
        }
        const Kind kind = k == 1   ? Kind::CountSorted
                          : k == 2 ? Kind::Info
                          : k == 3 ? Kind::Lint
                                   : Kind::Analyze;
        fixed.push_back(circuit_line(kind, appended(bitonic, pair), first_id));
      }
      std::vector<Line>& lines = lines_[c];
      for (std::size_t i = 0; i < kLinesPerConnection; ++i) {
        if (i % 2 == 1) {
          const std::size_t k = (i / 2) % 5;
          Line line = fixed[k];
          if (i / 2 >= 5) line.repeat_of = static_cast<int>(2 * k + 1);
          lines.push_back(std::move(line));
          continue;
        }
        const std::size_t v = next_certify++;
        Circuit base = balanced;
        if (v % 2 == 1) base = without_gate(base, rng.below(gate_count(base)));
        lines.push_back(circuit_line(Kind::Certify, appended(base, pairs[v / 2]), id(i)));
      }
    }
  }

  struct ConnResult {
    std::vector<std::string> responses;
    std::vector<double> round_trip_ms;
    std::string error;
  };

  static void drive(int fd, const std::vector<Line>& lines, ConnResult& out) {
    std::vector<Clock::time_point> sent_at(lines.size());
    std::size_t sent = 0;
    std::string buffer;
    char chunk[65536];
    while (out.responses.size() < lines.size()) {
      while (sent < lines.size() && sent - out.responses.size() < kWindow) {
        const std::string& text = lines[sent].text;
        sent_at[sent] = Clock::now();
        std::size_t off = 0;
        while (off < text.size()) {
          const ssize_t n = ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
          if (n <= 0) {
            out.error = "send failed";
            return;
          }
          off += static_cast<std::size_t>(n);
        }
        ++sent;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        out.error = "connection closed with responses missing";
        return;
      }
      const auto now = Clock::now();
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = buffer.find('\n')) != std::string::npos) {
        if (out.responses.size() >= sent) {
          out.error = "response without a request";
          return;
        }
        out.round_trip_ms.push_back(ms_between(sent_at[out.responses.size()], now));
        out.responses.push_back(buffer.substr(0, eol));
        buffer.erase(0, eol + 1);
      }
    }
  }

  PassResult run_pass() {
    std::vector<ConnResult> results(kConnections);
    const auto start = Clock::now();
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kConnections; ++c)
        clients.emplace_back(drive, fds_[c], std::cref(lines_[c]), std::ref(results[c]));
      for (std::thread& t : clients) t.join();
    }
    PassResult r;
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    for (std::size_t c = 0; c < kConnections; ++c) {
      const ConnResult& res = results[c];
      for (std::size_t i = 0; i < lines_[c].size(); ++i) {
        r.attempted += 1;
        if (i >= res.responses.size()) {
          r.failed += 1;
          r.errors.push_back("no response: " + res.error);
          continue;
        }
        r.op_ms.push_back(res.round_trip_ms[i]);
        const std::string error = check_response(lines_[c], i, res.responses);
        if (!error.empty()) {
          r.failed += 1;
          r.wrong += error.rfind("job failed", 0) == 0 ? 0 : 1;
          r.errors.push_back("connection " + std::to_string(c) + " line " +
                             std::to_string(i) + ": " + error);
        }
      }
      if (obs::enabled()) {
        for (const double ms : res.round_trip_ms) traced_round_trip_ms_ += ms;
        traced_requests_ += res.round_trip_ms.size();
      }
    }
    return r;
  }

  /// The member `key`; throws when it is missing, so that a response
  /// without it is reported as malformed.
  static const sb::JsonValue& member(const sb::JsonValue& object, const char* key) {
    const sb::JsonValue* value = object.find(key);
    if (value == nullptr) throw std::invalid_argument(std::string("no \"") + key + "\"");
    return *value;
  }

  static std::optional<u64> hex_vector(const sb::JsonValue* value) {
    if (value == nullptr || !value->is_string() || value->as_string().rfind("0x", 0) != 0)
      return std::nullopt;
    return std::stoull(value->as_string().substr(2), nullptr, 16);
  }

  static std::vector<u32> wires(const sb::JsonValue& value) {
    std::vector<u32> out;
    for (const sb::JsonValue& item : value.items())
      out.push_back(static_cast<u32>(item.as_uint()));
    return out;
  }

  static std::string check_response(const std::vector<Line>& lines, std::size_t i,
                                    const std::vector<std::string>& responses) {
    const Line& line = lines[i];
    if (line.repeat_of >= 0) {
      if (responses[i] != responses[static_cast<std::size_t>(line.repeat_of)])
        return "repeated job's response differs from its first response";
      return "";
    }
    try {
      const sb::JsonValue doc = sb::JsonValue::parse(responses[i]);
      const std::string& id = member(doc, "id").as_string();
      const std::string want_id = line.text.substr(7, line.text.find('"', 7) - 7);
      if (id != want_id) return "response out of order (id " + id + ")";
      if (!member(doc, "ok").as_bool()) {
        const sb::JsonValue* err = doc.find("error");
        return "job failed: " + (err != nullptr && err->is_string() ? err->as_string()
                                                                    : std::string("?"));
      }
      const sb::JsonValue& result = member(doc, "result");
      const auto number = [&](const char* key) { return member(result, key).as_uint(); };
      const auto text = [&](const char* key) { return member(result, key).as_string(); };
      switch (line.kind) {
        case Kind::Info: {
          std::size_t comparators = 0;
          for (const Level& level : line.circuit.levels) comparators += level.size();
          if (number("width") != line.circuit.n ||
              number("depth") != line.circuit.levels.size() ||
              number("comparators") != comparators)
            return "info disagrees with the network";
          return "";
        }
        case Kind::Lint:
          return member(result, "ok").as_bool() ? "" : "lint failed";
        case Kind::Analyze: {
          const std::string verdict = text("verdict");
          if (verdict == "sorting" && !line.sorts) return "analyze: sorting on a non-sorter";
          if (verdict != "sorting" && verdict != "inconclusive")
            return "analyze: unexpected verdict " + verdict;
          return "";
        }
        case Kind::Certify: {
          const std::string verdict = text("verdict");
          if (verdict != "sorting" && verdict != "not-sorting")
            return "certify: unexpected verdict " + verdict;
          CertifyCase c{"certify", line.circuit, line.sorts, std::nullopt};
          return check_certify(c, verdict == "sorting", hex_vector(result.find("failing_vector")));
        }
        case Kind::Refute: {
          const std::string status = text("status");
          if (status == "no-claim") return "";  // sound, not complete
          if (status != "refuted") return "refute: status " + status;
          const sb::JsonValue& w = member(result, "witness");
          WitnessView view;
          view.pi = wires(member(w, "pi"));
          view.pi_prime = wires(member(w, "pi_prime"));
          view.w0 = static_cast<u32>(member(w, "w0").as_uint());
          view.w1 = static_cast<u32>(member(w, "w1").as_uint());
          view.m = static_cast<u32>(member(w, "m").as_uint());
          return check_refutation(line.shuffle, view);
        }
        case Kind::CountSorted:
          if (number("trials") != line.trials || number("sorted") != line.trials)
            return "count-sorted: a sorter left inputs unsorted";
          return "";
      }
    } catch (const std::exception& e) {
      return std::string("malformed response: ") + e.what();
    }
    return "";
  }

  std::vector<std::vector<Line>> lines_;
  std::unique_ptr<sb::Server> server_;
  std::thread server_thread_;
  std::vector<int> fds_;
  double traced_round_trip_ms_ = 0;
  std::uint64_t traced_requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "refute") return std::make_unique<RefuteWorkload>();
  if (name == "certify") return std::make_unique<CertifyWorkload>();
  if (name == "search") return std::make_unique<SearchWorkload>();
  if (name == "serve") return std::make_unique<ServeWorkload>();
  return nullptr;
}

}  // namespace perfbench
