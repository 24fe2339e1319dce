// Tests of the benchmark's own evaluator and checks: the evaluator agrees
// with small networks worked out by hand and with the sorters it builds,
// and every check rejects a wrong answer.
//
//   perfbench_selftest     (exit 0 when every test passes)
#include <algorithm>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "model.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Every permutation of 0..n-1 in lexicographic order, through `visit`.
template <typename Visit>
void each_permutation(u32 n, Visit visit) {
  std::vector<u32> p(n);
  for (u32 i = 0; i < n; ++i) p[i] = i;
  do visit(p);
  while (std::next_permutation(p.begin(), p.end()));
}

void hand_worked() {
  // Three wires, gates (0,1) then (1,2) then (0,1): sorts. On input
  // (2, 1, 0): (1, 2, 0) -> (1, 0, 2) -> (0, 1, 2).
  Circuit three{3, {{{0, 1, '+'}}, {{1, 2, '+'}}, {{0, 1, '+'}}}};
  std::vector<u32> v = {2, 1, 0};
  evaluate(three, v);
  expect(v == std::vector<u32>({0, 1, 2}), "hand-worked 3-wire sorter sorts (2,1,0)");
  // Without its last gate it leaves (1, 0, 2) on that input, and the
  // smallest failing 0-1 vector is 0b001 (wire 0 = 1): (1,0,0) -> (0,1,0)
  // -> (0,0,1) - sorted; 0b010: (0,1,0) -> (0,1,0) -> (0,0,1) sorted;
  // 0b011: (1,1,0) -> (1,1,0) -> (1,0,1) - unsorted. So 3.
  Circuit two_gates{3, {{{0, 1, '+'}}, {{1, 2, '+'}}}};
  v = {2, 1, 0};
  evaluate(two_gates, v);
  expect(v == std::vector<u32>({1, 0, 2}), "hand-worked 2-gate network leaves (1,0,2)");
  expect(first_failing_01(two_gates, 8) == u64{3}, "its first failing 0-1 vector is 3");
  expect(first_failing_01(three, 8) == std::nullopt, "the 3-wire sorter sorts every 0-1 vector");
  // '-' puts the maximum on the first wire; 'x' swaps.
  Circuit desc{2, {{{0, 1, '-'}}}};
  v = {0, 1};
  evaluate(desc, v);
  expect(v == std::vector<u32>({1, 0}), "a '-' gate puts the maximum first");
  // A 4-register shuffle step moves register j to rotl(j): 1 -> 2, 2 -> 1,
  // then op '1' on pair (0,1) swaps and '+' on (2,3) orders.
  ShuffleNet shuffle{4, {"1+"}};
  v = {10, 11, 12, 13};
  evaluate(shuffle, v);
  // after the shuffle: (10, 12, 11, 13); after the ops: (12, 10, 11, 13)
  expect(v == std::vector<u32>({12, 10, 11, 13}), "hand-worked shuffle step");
}

void sorters_sort() {
  for (const u32 n : {4u, 8u, 16u}) {
    expect(!first_failing_01(batcher_bitonic(n), u64{1} << n), "bitonic sorts");
    expect(!first_failing_01(odd_even_mergesort(n), u64{1} << n), "odd-even merge sorts");
    expect(!first_failing_01(periodic_balanced(n), u64{1} << n), "periodic balanced sorts");
  }
  for (const u32 n : {5u, 11u, 17u, 20u}) {
    expect(!first_failing_01(pratt(n), u64{1} << n), "pratt sorts");
    expect(!first_failing_01(brick(n, n), u64{1} << n), "brick sorts");
    expect(first_failing_01(brick(n, n - 1), u64{1} << n).has_value(),
           "brick with n-1 rounds does not sort");
    expect(!first_failing_01(restrict_to(odd_even_mergesort(32), n), u64{1} << n),
           "a restricted odd-even merge sorts");
  }
  // Stone's construction on the shuffle, all 8! inputs on 8 registers.
  const ShuffleNet stone = bitonic_on_shuffle(8);
  bool all = stone.steps.size() == 9;
  each_permutation(8, [&](const std::vector<u32>& p) {
    std::vector<u32> v = p;
    evaluate(stone, v);
    all = all && ascending(v);
  });
  expect(all, "bitonic on the shuffle sorts all 8! inputs in lg^2 n steps");
  // A wider one on pseudo-random permutations.
  Rng rng(7);
  const ShuffleNet wide = bitonic_on_shuffle(1024);
  bool wide_ok = true;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<u32> v(1024);
    for (u32 i = 0; i < 1024; ++i) v[i] = i;
    rng.shuffle(v);
    evaluate(wide, v);
    wide_ok = wide_ok && ascending(v);
  }
  expect(wide_ok, "bitonic on the shuffle sorts at n = 1024");
}

/// Gates on wires (0,1) and (2,3) of a 4-wire network never compare the
/// values 1 and 2 when they sit on wires 1 and 2.
WitnessView middle_pair_witness() {
  WitnessView w;
  w.pi = {0, 1, 2, 3};
  w.pi_prime = {0, 2, 1, 3};
  w.w0 = 1;
  w.w1 = 2;
  w.m = 1;
  return w;
}

void refutation_check() {
  // The same 4-wire network as an iterated RDN: one chunk whose level 1
  // pairs (0,1) and (2,3) and whose level 2 is empty.
  IteratedNet net{4, {{{}, {0, 1, 2, 3}, {{{0, 1, '+'}, {2, 3, '+'}}, {}}}}};
  const WitnessView good = middle_pair_witness();
  expect(check_refutation(net, good).empty(), "a true witness is accepted");
  WitnessView changed = good;
  changed.pi_prime[3] = 0;
  changed.pi_prime[0] = 3;
  expect(!check_refutation(net, changed).empty(), "a witness with one value changed is rejected");
  WitnessView same = good;
  same.pi_prime = same.pi;
  expect(!check_refutation(net, same).empty(), "pi' equal to pi is rejected");
  // A sorter maps pi and pi' to the same output: no witness can pass.
  IteratedNet sorter{4, {{{}, {0, 1, 2, 3}, {{{0, 1, '+'}, {2, 3, '+'}}, {{0, 2, '+'}, {1, 3, '+'}}}},
                         {{}, {0, 1, 2, 3}, {{{1, 2, '+'}}, {}}}}};
  expect(!check_refutation(sorter, good).empty(), "a witness against a sorter is rejected");
}

void certify_check() {
  CertifyCase sorter{"brick-8", brick(8, 8), true, std::nullopt};
  CertifyCase broken{"brick-8-r7", brick(8, 7), false, first_failing_01(brick(8, 7), 256)};
  expect(check_certify(sorter, true, std::nullopt).empty(), "sorting on a sorter is accepted");
  expect(!check_certify(broken, true, std::nullopt).empty(),
         "a sorting verdict on a known non-sorter is rejected");
  expect(check_certify(broken, false, broken.known_failing).empty(),
         "the minimal failing vector is accepted");
  // Vector 0 sorts on any network; all-ones does too.
  expect(!check_certify(broken, false, u64{0}).empty(), "a failing vector that sorts is rejected");
  // A failing vector that is not the smallest one at n <= 20.
  const u64 smallest = *broken.known_failing;
  std::optional<u64> larger;
  for (u64 x = smallest + 1; x < 256 && !larger; ++x)
    if (!sorts_01(broken.net, x)) larger = x;
  expect(larger.has_value() && !check_certify(broken, false, larger).empty(),
         "a failing vector above the smallest one is rejected");
  expect(!check_certify(sorter, false, std::nullopt).empty(),
         "not-sorting without a vector is rejected");
}

void search_check() {
  // Hand-worked optimal 4-wire network: depth 3.
  Circuit four{4, {{{0, 1, '+'}, {2, 3, '+'}}, {{0, 2, '+'}, {1, 3, '+'}}, {{1, 2, '+'}}}};
  expect(check_search(4, 3, four).empty(), "a depth-3 4-wire sorter passes");
  expect(!check_search(4, 2, four).empty(), "a depth other than the published one is rejected");
  expect(!check_search(4, 4, four).empty(), "a deeper claimed optimum is rejected");
  Circuit three_levels = four;
  three_levels.levels[2].clear();
  expect(!check_search(4, 3, three_levels).empty(), "a witness that does not sort is rejected");
  expect(published_depth(7) == 6u && published_depth(8) == 6u && published_depth(9) == 7u &&
             published_depth(10) == 7u,
         "published depths 6, 6, 7, 7 for n = 7..10");
  expect(parse_circuit(to_text(four)).levels.size() == 3, "circuit text round-trips");
}

void layer_nesting() {
  // A benchmark span wraps a program span that starts and lasts the same
  // whole microseconds, around a 300 us child: the program span keeps
  // the self time, whatever order the two come in.
  using shufflebound::obs::SpanRecord;
  const SpanRecord pass{"bench", "pass", 0, 5000, 1};
  const SpanRecord wrapper{"bench", "find_min_depth_network", 100, 1000, 1};
  const SpanRecord inner{"search", "find_min_depth", 100, 1000, 1};
  const SpanRecord child{"kernel", "analyze_certify", 400, 300, 1};
  const SpanRecord worker{"pool", "task", 150, 200, 2};
  for (const bool inner_first : {true, false}) {
    std::vector<SpanRecord> spans = {pass, worker, child};
    if (inner_first) {
      spans.push_back(inner);
      spans.push_back(wrapper);
    } else {
      spans.push_back(wrapper);
      spans.push_back(inner);
    }
    const LayerTable t = layer_table(spans, {}, "bench/pass");
    const auto near = [](double a, double b) { return a - b < 1e-9 && b - a < 1e-9; };
    expect(near(t.self_ms("search/find_min_depth"), 0.7) &&
               near(t.self_ms("bench/find_min_depth_network"), 0.0) &&
               near(t.self_ms("kernel/analyze_certify"), 0.3) &&
               near(t.self_ms("bench/pass"), 4.0) && near(t.self_ms("pool/task"), 0.2) &&
               near(t.caller_self_ms.at("search/find_min_depth"), 0.7) &&
               t.caller_self_ms.count("pool/task") == 0,
           inner_first ? "a wrapper span recorded after the span it wraps is its parent"
                       : "a wrapper span recorded before the span it wraps is its parent");
  }
}

}  // namespace

int main() {
  hand_worked();
  sorters_sort();
  refutation_check();
  certify_check();
  search_check();
  layer_nesting();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
