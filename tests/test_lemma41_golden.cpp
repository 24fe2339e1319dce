// Golden outputs of Lemma 4.1 and of refute(). Each case serializes a
// Lemma41Result (refined and output patterns, the M_i sets, final
// positions, per-level losses and the summary stats) or the v2
// certificate text that refute() produces, and pins its CRC-32. The
// constants were recorded on the per-node set-merging driver; a driver
// rewrite that is meant to change speed only must reproduce every one.
//
// Families, at n = 2^4..2^12 and k in {1, 2, lg n, 2 lg n}:
//   butterfly    butterfly_rdn on all-M_0 input
//   random       random_rdn(d, rng, 10, 5) on a seeded S_0/M_0/L_0 input
//   shuffle      every chunk of shuffle_to_iterated_rdn of a seeded random
//                shuffle network (1.5 lg n steps, a truncated last chunk)
//   recognized   one lg n-step slice of such a network, flattened to a
//                circuit and decomposed by recognize_rdn
// plus refute() of the shuffle and recognized networks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/lemma41.hpp"
#include "adversary/refuter.hpp"
#include "networks/rdn.hpp"
#include "networks/shuffle.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

class Bytes {
 public:
  void u32(std::uint64_t v) {
    for (int b = 0; b < 4; ++b) out_.push_back(static_cast<char>((v >> (8 * b)) & 0xFFu));
  }
  void pattern(const InputPattern& p) {
    u32(p.size());
    for (const PatternSymbol& s : p.symbols()) {
      u32(static_cast<std::uint32_t>(s.kind));
      u32(s.i);
      u32(s.j);
    }
  }
  void wires(const std::vector<wire_t>& ws) {
    u32(ws.size());
    for (const wire_t w : ws) u32(w);
  }
  void result(const Lemma41Result& r) {
    pattern(r.refined);
    pattern(r.output);
    u32(r.sets.size());
    for (const auto& set : r.sets) wires(set);
    wires(r.final_position);
    u32(r.stats.loss_per_level.size());
    for (const std::size_t loss : r.stats.loss_per_level) u32(loss);
    u32(r.stats.initial_m0);
    u32(r.stats.retained);
    u32(r.stats.set_count);
    u32(r.stats.nonempty_sets);
    u32(r.stats.largest_set);
  }
  void text(const std::string& s) { out_ += s; }
  std::uint32_t crc() const { return crc32_ieee(out_.data(), out_.size()); }

 private:
  std::string out_;
};

InputPattern mixed_entry(wire_t n, std::uint64_t seed) {
  Prng rng(seed);
  InputPattern p(n, sym_M(0));
  for (wire_t w = 0; w < n; ++w) {
    const std::uint64_t roll = rng.below(8);
    if (roll == 0) p.set(w, sym_S(0));
    if (roll == 1) p.set(w, sym_L(0));
  }
  return p;
}

RegisterNetwork seeded_shuffle(std::uint32_t d) {
  Prng rng(1000 + d);
  return random_shuffle_network(wire_t{1} << d, d + d / 2, rng,
                                OpMix{10, 5});
}

std::string refute_text(const RefutationResult& r) {
  if (r.status != RefutationStatus::Refuted)
    return "status " + std::to_string(static_cast<int>(r.status));
  return to_chunked_text(*r.certificate);
}

/// name -> CRC-32 for every golden case.
std::map<std::string, std::uint32_t> compute_goldens() {
  std::map<std::string, std::uint32_t> out;
  for (std::uint32_t d = 4; d <= 12; ++d) {
    const wire_t n = wire_t{1} << d;
    const RdnChunk butterfly = butterfly_rdn(d);
    Prng rng(d);
    const RdnChunk random = random_rdn(d, rng, 10, 5);
    const InputPattern random_entry = mixed_entry(n, 77 + d);
    const RegisterNetwork shuffle = seeded_shuffle(d);
    const IteratedRdn iterated = shuffle_to_iterated_rdn(shuffle);
    const RdnChunk& slice_chunk = iterated.stages().front().chunk;
    const std::optional<RdnTree> recognized = recognize_rdn(slice_chunk.net);
    if (!recognized) throw std::logic_error("recognize_rdn failed");
    const RdnChunk sliced{slice_chunk.net, *recognized};

    for (const std::uint32_t k : {1u, 2u, d, 2 * d}) {
      const std::string suffix = "/n" + std::to_string(n) + "/k" + std::to_string(k);
      {
        Bytes b;
        b.result(lemma41(butterfly, InputPattern(n, sym_M(0)), k));
        out["butterfly" + suffix] = b.crc();
      }
      {
        Bytes b;
        b.result(lemma41(random, random_entry, k));
        out["random" + suffix] = b.crc();
      }
      {
        Bytes b;
        for (const IteratedRdn::Stage& stage : iterated.stages())
          b.result(lemma41(stage.chunk, InputPattern(n, sym_M(0)), k));
        out["shuffle" + suffix] = b.crc();
      }
      {
        Bytes b;
        b.result(lemma41(sliced, InputPattern(n, sym_M(0)), k));
        out["recognized" + suffix] = b.crc();
      }
      {
        Bytes b;
        b.text(refute_text(refute(shuffle, k)));
        out["refute-shuffle" + suffix] = b.crc();
      }
      {
        Bytes b;
        b.text(refute_text(refute(slice_chunk.net, k)));
        out["refute-recognized" + suffix] = b.crc();
      }
    }
  }
  return out;
}

struct Golden {
  const char* name;
  std::uint32_t crc;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"butterfly/n1024/k1", 0x526DA985u},
    {"butterfly/n1024/k10", 0x80F05155u},
    {"butterfly/n1024/k2", 0x22CE6866u},
    {"butterfly/n1024/k20", 0xDA0D2744u},
    {"butterfly/n128/k1", 0x84E5ECC2u},
    {"butterfly/n128/k14", 0x356003C4u},
    {"butterfly/n128/k2", 0xC7BE2596u},
    {"butterfly/n128/k7", 0xD392B259u},
    {"butterfly/n16/k1", 0x5A05DFF3u},
    {"butterfly/n16/k2", 0xCAB8D70Au},
    {"butterfly/n16/k4", 0x58AF8302u},
    {"butterfly/n16/k8", 0x8175A550u},
    {"butterfly/n2048/k1", 0x6A2DE286u},
    {"butterfly/n2048/k11", 0x05583DBAu},
    {"butterfly/n2048/k2", 0x9C030916u},
    {"butterfly/n2048/k22", 0x571E7446u},
    {"butterfly/n256/k1", 0xE466925Fu},
    {"butterfly/n256/k16", 0x711A3788u},
    {"butterfly/n256/k2", 0x4EDABAFAu},
    {"butterfly/n256/k8", 0xA7C30CD3u},
    {"butterfly/n32/k1", 0xC0000217u},
    {"butterfly/n32/k10", 0x9A761D54u},
    {"butterfly/n32/k2", 0xEE85034Au},
    {"butterfly/n32/k5", 0x444896F8u},
    {"butterfly/n4096/k1", 0xB4B54F1Bu},
    {"butterfly/n4096/k12", 0xF6CF7B53u},
    {"butterfly/n4096/k2", 0xD68F9D1Du},
    {"butterfly/n4096/k24", 0x198526FEu},
    {"butterfly/n512/k1", 0xF4824D3Au},
    {"butterfly/n512/k18", 0xE6FB2361u},
    {"butterfly/n512/k2", 0xCE9925C3u},
    {"butterfly/n512/k9", 0x5FF42AB3u},
    {"butterfly/n64/k1", 0x53C8A7ECu},
    {"butterfly/n64/k12", 0x1B24F08Au},
    {"butterfly/n64/k2", 0xB4E48EAAu},
    {"butterfly/n64/k6", 0x6C31407Fu},
    {"random/n1024/k1", 0x8D05B47Fu},
    {"random/n1024/k10", 0x35592A8Du},
    {"random/n1024/k2", 0xC7B0649Au},
    {"random/n1024/k20", 0xF837ABC3u},
    {"random/n128/k1", 0x90AEBF78u},
    {"random/n128/k14", 0xB3082E85u},
    {"random/n128/k2", 0x1FAE8793u},
    {"random/n128/k7", 0x337D18C6u},
    {"random/n16/k1", 0xC2DF1DB4u},
    {"random/n16/k2", 0x7163E7F7u},
    {"random/n16/k4", 0xC7D724D1u},
    {"random/n16/k8", 0x18C89D1Bu},
    {"random/n2048/k1", 0x547372E4u},
    {"random/n2048/k11", 0x63B49238u},
    {"random/n2048/k2", 0x1509E1E3u},
    {"random/n2048/k22", 0x7C8DD66Eu},
    {"random/n256/k1", 0x1687D691u},
    {"random/n256/k16", 0xDFA26C94u},
    {"random/n256/k2", 0xB6D30634u},
    {"random/n256/k8", 0x1B70AA26u},
    {"random/n32/k1", 0x31B21DEFu},
    {"random/n32/k10", 0xD0D79C93u},
    {"random/n32/k2", 0x8037D7BEu},
    {"random/n32/k5", 0x1951E3B1u},
    {"random/n4096/k1", 0x8C9D83A2u},
    {"random/n4096/k12", 0xCDD9EEB3u},
    {"random/n4096/k2", 0x64C6EE34u},
    {"random/n4096/k24", 0xE3001958u},
    {"random/n512/k1", 0x8356547Bu},
    {"random/n512/k18", 0xF89F0137u},
    {"random/n512/k2", 0x928CA117u},
    {"random/n512/k9", 0x044A6DFAu},
    {"random/n64/k1", 0xC027F1FBu},
    {"random/n64/k12", 0x7D06A98Eu},
    {"random/n64/k2", 0xB42BE4BBu},
    {"random/n64/k6", 0x958BEF6Cu},
    {"recognized/n1024/k1", 0xDDE49D04u},
    {"recognized/n1024/k10", 0xF18F8B1Cu},
    {"recognized/n1024/k2", 0x69A5AFCFu},
    {"recognized/n1024/k20", 0x27912408u},
    {"recognized/n128/k1", 0x6E9F323Cu},
    {"recognized/n128/k14", 0x89925135u},
    {"recognized/n128/k2", 0x664702AEu},
    {"recognized/n128/k7", 0x3993F548u},
    {"recognized/n16/k1", 0xF6FC7C7Cu},
    {"recognized/n16/k2", 0x67761CEBu},
    {"recognized/n16/k4", 0xE5625CF3u},
    {"recognized/n16/k8", 0x0CE021D5u},
    {"recognized/n2048/k1", 0x25FE0A14u},
    {"recognized/n2048/k11", 0xA2388792u},
    {"recognized/n2048/k2", 0x5B0F5647u},
    {"recognized/n2048/k22", 0x7C6AA391u},
    {"recognized/n256/k1", 0x1E189B99u},
    {"recognized/n256/k16", 0x42F07C43u},
    {"recognized/n256/k2", 0x80F03AA5u},
    {"recognized/n256/k8", 0x022DA20Fu},
    {"recognized/n32/k1", 0x7D51F698u},
    {"recognized/n32/k10", 0x13D71BCBu},
    {"recognized/n32/k2", 0x8FF54C73u},
    {"recognized/n32/k5", 0xFA60F5F3u},
    {"recognized/n4096/k1", 0x37E107FCu},
    {"recognized/n4096/k12", 0x4513F8B6u},
    {"recognized/n4096/k2", 0xE396E84Cu},
    {"recognized/n4096/k24", 0xC8E17054u},
    {"recognized/n512/k1", 0xB47C124Eu},
    {"recognized/n512/k18", 0x05207CC4u},
    {"recognized/n512/k2", 0x68D62959u},
    {"recognized/n512/k9", 0x88812280u},
    {"recognized/n64/k1", 0xC33BF2C5u},
    {"recognized/n64/k12", 0x90F1856Au},
    {"recognized/n64/k2", 0x253A2F05u},
    {"recognized/n64/k6", 0xF3BFC279u},
    {"refute-recognized/n1024/k1", 0x10B5D931u},
    {"refute-recognized/n1024/k10", 0xC408DF44u},
    {"refute-recognized/n1024/k2", 0x6CAA3F8Du},
    {"refute-recognized/n1024/k20", 0xC408DF44u},
    {"refute-recognized/n128/k1", 0x660C41FEu},
    {"refute-recognized/n128/k14", 0x0E1C4C64u},
    {"refute-recognized/n128/k2", 0xB9B4DD40u},
    {"refute-recognized/n128/k7", 0x0E1C4C64u},
    {"refute-recognized/n16/k1", 0xF983F26Du},
    {"refute-recognized/n16/k2", 0xA571FDB1u},
    {"refute-recognized/n16/k4", 0xA571FDB1u},
    {"refute-recognized/n16/k8", 0xA571FDB1u},
    {"refute-recognized/n2048/k1", 0x3ED11C9Eu},
    {"refute-recognized/n2048/k11", 0x90B07BDFu},
    {"refute-recognized/n2048/k2", 0x5F191CC1u},
    {"refute-recognized/n2048/k22", 0x90B07BDFu},
    {"refute-recognized/n256/k1", 0x8113AF0Eu},
    {"refute-recognized/n256/k16", 0xE64BF706u},
    {"refute-recognized/n256/k2", 0x87791584u},
    {"refute-recognized/n256/k8", 0xE64BF706u},
    {"refute-recognized/n32/k1", 0xBA8B983Au},
    {"refute-recognized/n32/k10", 0x42DAD268u},
    {"refute-recognized/n32/k2", 0xB06DA631u},
    {"refute-recognized/n32/k5", 0x42DAD268u},
    {"refute-recognized/n4096/k1", 0xBBE0FAB4u},
    {"refute-recognized/n4096/k12", 0xAC940459u},
    {"refute-recognized/n4096/k2", 0x3DB24EE5u},
    {"refute-recognized/n4096/k24", 0xAC940459u},
    {"refute-recognized/n512/k1", 0x85530A19u},
    {"refute-recognized/n512/k18", 0xE98E9D98u},
    {"refute-recognized/n512/k2", 0xDA114979u},
    {"refute-recognized/n512/k9", 0xE98E9D98u},
    {"refute-recognized/n64/k1", 0x00DB7701u},
    {"refute-recognized/n64/k12", 0xDF629FE9u},
    {"refute-recognized/n64/k2", 0x6A01A53Du},
    {"refute-recognized/n64/k6", 0xDF629FE9u},
    {"refute-shuffle/n1024/k1", 0x277815CCu},
    {"refute-shuffle/n1024/k10", 0xF1A27C3Eu},
    {"refute-shuffle/n1024/k2", 0x83886A08u},
    {"refute-shuffle/n1024/k20", 0xF1A27C3Eu},
    {"refute-shuffle/n128/k1", 0x7651A687u},
    {"refute-shuffle/n128/k14", 0xA010E494u},
    {"refute-shuffle/n128/k2", 0xB0034D46u},
    {"refute-shuffle/n128/k7", 0xA010E494u},
    {"refute-shuffle/n16/k1", 0xFB4A68D1u},
    {"refute-shuffle/n16/k2", 0x5A8779E1u},
    {"refute-shuffle/n16/k4", 0x5A8779E1u},
    {"refute-shuffle/n16/k8", 0x5A8779E1u},
    {"refute-shuffle/n2048/k1", 0xF93CD19Du},
    {"refute-shuffle/n2048/k11", 0x543BD1DCu},
    {"refute-shuffle/n2048/k2", 0x4AD623F9u},
    {"refute-shuffle/n2048/k22", 0x543BD1DCu},
    {"refute-shuffle/n256/k1", 0x80252CE0u},
    {"refute-shuffle/n256/k16", 0xB10E781Eu},
    {"refute-shuffle/n256/k2", 0x4991D97Fu},
    {"refute-shuffle/n256/k8", 0xB10E781Eu},
    {"refute-shuffle/n32/k1", 0x49C1CC1Fu},
    {"refute-shuffle/n32/k10", 0x804B8512u},
    {"refute-shuffle/n32/k2", 0x6F0A93B3u},
    {"refute-shuffle/n32/k5", 0x804B8512u},
    {"refute-shuffle/n4096/k1", 0xA64E12ECu},
    {"refute-shuffle/n4096/k12", 0x39CAE58Du},
    {"refute-shuffle/n4096/k2", 0x791434FCu},
    {"refute-shuffle/n4096/k24", 0x39CAE58Du},
    {"refute-shuffle/n512/k1", 0xAC2AD50Fu},
    {"refute-shuffle/n512/k18", 0x8A6BA823u},
    {"refute-shuffle/n512/k2", 0x09954C44u},
    {"refute-shuffle/n512/k9", 0x8A6BA823u},
    {"refute-shuffle/n64/k1", 0xE846237Cu},
    {"refute-shuffle/n64/k12", 0x01ECAAB7u},
    {"refute-shuffle/n64/k2", 0x71A8F42Fu},
    {"refute-shuffle/n64/k6", 0x01ECAAB7u},
    {"shuffle/n1024/k1", 0xE6869EABu},
    {"shuffle/n1024/k10", 0xD6BCA3EEu},
    {"shuffle/n1024/k2", 0x3C19EF05u},
    {"shuffle/n1024/k20", 0xC5580F9Du},
    {"shuffle/n128/k1", 0x0F2333EEu},
    {"shuffle/n128/k14", 0xD3E911F7u},
    {"shuffle/n128/k2", 0xA732C602u},
    {"shuffle/n128/k7", 0xC1F6304Cu},
    {"shuffle/n16/k1", 0x6EA4FCC2u},
    {"shuffle/n16/k2", 0xFB4A7CF5u},
    {"shuffle/n16/k4", 0xB967FADCu},
    {"shuffle/n16/k8", 0xFBF6F44Au},
    {"shuffle/n2048/k1", 0x44682C0Eu},
    {"shuffle/n2048/k11", 0xB3AB0FB2u},
    {"shuffle/n2048/k2", 0xE4383DACu},
    {"shuffle/n2048/k22", 0x37678813u},
    {"shuffle/n256/k1", 0x0AD92F49u},
    {"shuffle/n256/k16", 0xD9980081u},
    {"shuffle/n256/k2", 0x902BE346u},
    {"shuffle/n256/k8", 0x942FFB74u},
    {"shuffle/n32/k1", 0x6781DBF7u},
    {"shuffle/n32/k10", 0x9916D473u},
    {"shuffle/n32/k2", 0x295349E4u},
    {"shuffle/n32/k5", 0x3EB158D5u},
    {"shuffle/n4096/k1", 0x7BCE82D7u},
    {"shuffle/n4096/k12", 0x49CD852Au},
    {"shuffle/n4096/k2", 0x80483D0Au},
    {"shuffle/n4096/k24", 0xECB2B276u},
    {"shuffle/n512/k1", 0x7F97D40Bu},
    {"shuffle/n512/k18", 0xD2F67CD3u},
    {"shuffle/n512/k2", 0x72171BE9u},
    {"shuffle/n512/k9", 0x5624AD86u},
    {"shuffle/n64/k1", 0x5D360787u},
    {"shuffle/n64/k12", 0x6117A1B6u},
    {"shuffle/n64/k2", 0x2AAA3BBBu},
    {"shuffle/n64/k6", 0x830EB527u},
};
// clang-format on

TEST(Lemma41Golden, ResultsMatchRecordedCrcs) {
  const std::map<std::string, std::uint32_t> actual = compute_goldens();
  std::map<std::string, std::uint32_t> expected;
  for (const Golden& g : kGoldens) expected[g.name] = g.crc;
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [name, crc] : actual) {
    const auto it = expected.find(name);
    char line[96];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%08Xu},", name.c_str(), crc);
    if (it == expected.end()) {
      ADD_FAILURE() << "no golden constant for\n" << line;
    } else {
      EXPECT_EQ(it->second, crc) << line;
    }
  }
}

// The driver indexes its rank table by the wires of the leaf order, so it
// must refuse a tree whose leaves are not a permutation of 0..n-1 before
// any level is fed (the adaptive path never calls RdnTree::validate).
TEST(Lemma41Golden, DriverRejectsLeafOutsideTheWires) {
  const RdnTree tree = RdnTree::from_order({0, 1, 2, 7});
  EXPECT_THROW(Lemma41Driver(tree, InputPattern(4, sym_M(0)), 1),
               std::invalid_argument);
}

TEST(Lemma41Golden, DriverRejectsDuplicatedLeaf) {
  const RdnTree tree = RdnTree::from_order({0, 1, 1, 3});
  EXPECT_THROW(Lemma41Driver(tree, InputPattern(4, sym_M(0)), 1),
               std::invalid_argument);
}

TEST(Lemma41Golden, DriverRejectsGateWireOutsideTheWidth) {
  Lemma41Driver driver(RdnTree::contiguous(2), InputPattern(4, sym_M(0)), 1);
  Level bad;
  bad.gates.emplace_back(0, 5, GateOp::CompareAsc);
  EXPECT_THROW(driver.feed_level(bad), std::invalid_argument);
}

// A level whose gates share a wire is refused before the driver changes
// any state (a repeated gate would otherwise demote one wire twice), and
// the driver then accepts the corrected level as if nothing happened.
TEST(Lemma41Golden, DriverRefusesSharedWiresWithoutSideEffects) {
  const RdnChunk chunk = butterfly_rdn(2);
  Lemma41Driver driver(chunk.tree, InputPattern(4, sym_M(0)), 1);
  Level repeated;
  repeated.gates.emplace_back(0, 1, GateOp::CompareAsc);
  repeated.gates.emplace_back(0, 1, GateOp::CompareAsc);
  EXPECT_THROW(driver.feed_level(repeated), std::invalid_argument);
  EXPECT_EQ(driver.levels_fed(), 0u);
  EXPECT_EQ(driver.network_so_far().depth(), 0u);
  for (const Level& level : chunk.net.levels()) driver.feed_level(level);
  Bytes fed;
  fed.result(std::move(driver).finish());
  Bytes fresh;
  fresh.result(lemma41(chunk, InputPattern(4, sym_M(0)), 1));
  EXPECT_EQ(fed.crc(), fresh.crc());
}

}  // namespace
}  // namespace shufflebound
