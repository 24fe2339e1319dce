#include "checks.hpp"

namespace perfbench {

namespace {

template <typename Net>
std::string check_refutation_on(const Net& net, const WitnessView& w) {
  const u32 n = net.n;
  if (w.pi.size() != n || w.pi_prime.size() != n)
    return "witness width differs from the network's";
  if (w.w0 >= n || w.w1 >= n || w.w0 == w.w1 || w.m + 1 >= n)
    return "witness wires or value out of range";
  std::vector<bool> seen(n, false);
  for (const u32 v : w.pi) {
    if (v >= n || seen[v]) return "pi is not a permutation";
    seen[v] = true;
  }
  if (w.pi[w.w0] != w.m || w.pi[w.w1] != w.m + 1)
    return "pi does not hold m and m+1 on w0 and w1";
  for (u32 j = 0; j < n; ++j) {
    const u32 want = j == w.w0 ? w.m + 1 : j == w.w1 ? w.m : w.pi[j];
    if (w.pi_prime[j] != want)
      return "pi' is not pi with m and m+1 swapped (wire " +
             std::to_string(j) + ")";
  }
  std::vector<u32> out = w.pi;
  std::vector<u32> out_prime = w.pi_prime;
  evaluate(net, out);
  evaluate(net, out_prime);
  if (out == out_prime)
    return "pi and pi' reach the same output, so they refute nothing";
  if (ascending(out) && ascending(out_prime))
    return "both outputs are sorted";
  return "";
}

}  // namespace

std::string check_refutation(const ShuffleNet& net, const WitnessView& w) {
  return check_refutation_on(net, w);
}

std::string check_refutation(const IteratedNet& net, const WitnessView& w) {
  return check_refutation_on(net, w);
}

std::string check_certify(const CertifyCase& c, bool verdict_sorts,
                          std::optional<u64> failing_vector) {
  if (verdict_sorts) {
    if (!c.sorts) return c.name + ": 'sorting' verdict on a known non-sorter";
    return "";
  }
  if (!failing_vector) return c.name + ": 'not sorting' without a vector";
  const u64 f = *failing_vector;
  if (c.net.n < 64 && (f >> c.net.n) != 0)
    return c.name + ": failing vector wider than the network";
  if (sorts_01(c.net, f))
    return c.name + ": failing vector " + std::to_string(f) + " sorts";
  if (c.net.n <= 20) {
    if (const auto smaller = first_failing_01(c.net, f))
      return c.name + ": vector " + std::to_string(*smaller) +
             " fails and is smaller than " + std::to_string(f);
  }
  return "";
}

std::optional<std::size_t> published_depth(u32 n) {
  static constexpr std::size_t kDepth[] = {0, 0, 1, 3, 3, 5, 5, 6, 6, 7, 7};
  if (n == 0 || n > 10) return std::nullopt;
  return kDepth[n];
}

std::string check_search(u32 n, std::size_t depth, const Circuit& witness) {
  const auto published = published_depth(n);
  if (!published) return "no published depth for n=" + std::to_string(n);
  if (depth != *published)
    return "n=" + std::to_string(n) + ": depth " + std::to_string(depth) +
           " differs from the published " + std::to_string(*published);
  if (witness.n != n) return "witness has the wrong width";
  if (witness.levels.size() != depth)
    return "witness has " + std::to_string(witness.levels.size()) +
           " levels, not " + std::to_string(depth);
  if (const auto bad = first_failing_01(witness, u64{1} << n))
    return "witness fails on 0-1 vector " + std::to_string(*bad);
  return "";
}

}  // namespace perfbench
