// Non-sortedness certificates: construction, text round-trip, and
// adversarial verification (tampered certificates must be rejected).
#include "adversary/certificate.hpp"

#include <gtest/gtest.h>

#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

Certificate sample_certificate(wire_t n, std::size_t depth,
                               std::uint64_t seed,
                               RegisterNetwork* net_out = nullptr) {
  Prng rng(seed);
  const RegisterNetwork reg = random_shuffle_network(n, depth, rng, {10, 5});
  if (net_out) *net_out = reg;
  const AdversaryResult result =
      run_adversary(shuffle_to_iterated_rdn(reg));
  const auto cert = make_certificate(result);
  EXPECT_TRUE(cert.has_value());
  return *cert;
}

TEST(Certificate, AcceptedByItsNetwork) {
  RegisterNetwork reg;
  const Certificate cert = sample_certificate(32, 8, 1, &reg);
  const auto verdict = verify_certificate(reg, cert);
  EXPECT_TRUE(verdict.well_formed);
  EXPECT_TRUE(verdict.accepted());
}

TEST(Certificate, TextRoundTrip) {
  RegisterNetwork reg;
  const Certificate cert = sample_certificate(16, 6, 2, &reg);
  const Certificate parsed = certificate_from_text(to_text(cert));
  EXPECT_EQ(parsed.n, cert.n);
  EXPECT_EQ(parsed.pattern, cert.pattern);
  EXPECT_EQ(parsed.survivors, cert.survivors);
  EXPECT_EQ(parsed.witness.pi, cert.witness.pi);
  EXPECT_EQ(parsed.witness.pi_prime, cert.witness.pi_prime);
  EXPECT_EQ(parsed.witness.w0, cert.witness.w0);
  EXPECT_EQ(parsed.witness.w1, cert.witness.w1);
  EXPECT_EQ(parsed.witness.m, cert.witness.m);
  EXPECT_TRUE(verify_certificate(reg, parsed).accepted());
}

TEST(Certificate, RejectedByADifferentNetwork) {
  RegisterNetwork reg;
  const Certificate cert = sample_certificate(16, 6, 3, &reg);
  // A true sorting network cannot be refuted by any certificate.
  const auto sorter = bitonic_sorting_network(16);
  const auto verdict = verify_certificate(sorter, cert);
  EXPECT_FALSE(verdict.accepted());
}

TEST(Certificate, TamperedWitnessRejected) {
  RegisterNetwork reg;
  Certificate cert = sample_certificate(16, 6, 4, &reg);
  // Tamper 1: claim a different value pair.
  Certificate bad = cert;
  bad.witness.m = cert.witness.m + 1;
  EXPECT_FALSE(verify_certificate(reg, bad).well_formed);
  // Tamper 2: swap unrelated values in pi_prime (no longer a pair-swap).
  bad = cert;
  std::vector<wire_t> image(bad.witness.pi_prime.image().begin(),
                            bad.witness.pi_prime.image().end());
  std::swap(image[0], image[1]);
  if (0 != bad.witness.w0 && 1 != bad.witness.w0 && 0 != bad.witness.w1 &&
      1 != bad.witness.w1) {
    bad.witness.pi_prime = Permutation(std::move(image));
    EXPECT_FALSE(verify_certificate(reg, bad).well_formed);
  }
  // Tamper 3: pattern inconsistent with the inputs.
  bad = cert;
  bad.pattern.set(bad.witness.w0, sym_L(0));
  EXPECT_FALSE(verify_certificate(reg, bad).well_formed);
}

TEST(Certificate, MalformedTextRejected) {
  EXPECT_THROW(certificate_from_text(""), std::invalid_argument);
  EXPECT_THROW(certificate_from_text("nonsorting-certificate\nn 0\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(certificate_from_text("bogus-header\n"), std::invalid_argument);
  RegisterNetwork reg;
  const Certificate cert = sample_certificate(16, 6, 5, &reg);
  std::string text = to_text(cert);
  text.resize(text.size() / 2);  // truncate
  EXPECT_THROW(certificate_from_text(text), std::invalid_argument);
}

/// `text` with the row that starts with `key` followed by a space
/// replaced by `row`.
std::string with_row(const std::string& text, const std::string& key,
                     const std::string& row) {
  const std::size_t at = text.find("\n" + key + " ") + 1;
  const std::size_t end = text.find('\n', at);
  return text.substr(0, at) + row + text.substr(end);
}

// Every numeric token of a v1 row is a whole wire value: a bad token
// refuses the certificate instead of ending the row early (where a
// truncated survivor list used to verify as ACCEPTED).
TEST(Certificate, V1RowsRefuseBadTokens) {
  const Certificate cert = sample_certificate(16, 6, 6);
  const std::string text = to_text(cert);
  ASSERT_NO_THROW(certificate_from_text(text));
  std::string survivors = "survivors";
  for (const wire_t w : cert.survivors) survivors += " " + std::to_string(w);
  std::string pi = "pi";
  for (wire_t w = 0; w < cert.n; ++w) pi += " " + std::to_string(cert.witness.pi[w]);
  std::string pi_prime = "pi_prime";
  for (wire_t w = 0; w < cert.n; ++w)
    pi_prime += " " + std::to_string(cert.witness.pi_prime[w]);
  const std::string witness = "w0 " + std::to_string(cert.witness.w0) +
                              " w1 " + std::to_string(cert.witness.w1) +
                              " m " + std::to_string(cert.witness.m);

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"n", "n -8"},
      {"n", "n 16 16"},
      {"n", "n 16x"},
      {"survivors", "survivors 3 4 5 6 junk 9"},
      {"survivors", survivors + " -1"},
      {"pi", pi + " 0"},
      {"pi", "pi -" + pi.substr(3)},
      {"pi_prime", pi_prime + " junk"},
      {"pi_prime", pi_prime.substr(0, pi_prime.rfind(' '))},
      {"w0", witness + " 7"},
      {"w0", "w0 -1 w1 " + std::to_string(cert.witness.w1) + " m " +
                 std::to_string(cert.witness.m)},
      {"w0", "w0 " + std::to_string(cert.witness.w0) + " w1 2x m " +
                 std::to_string(cert.witness.m)},
  };
  for (const auto& [key, row] : bad) {
    EXPECT_THROW(certificate_from_text(with_row(text, key, row)),
                 std::invalid_argument)
        << row;
  }
  // The rows rebuilt from their values parse back to the same text.
  const std::string rebuilt =
      with_row(with_row(with_row(with_row(text, "survivors", survivors), "pi", pi),
                        "pi_prime", pi_prime),
               "w0", witness);
  EXPECT_EQ(to_text(certificate_from_text(rebuilt)), text);
}

TEST(Certificate, NoCertificateWithoutSurvivors) {
  AdversaryResult result;
  result.input_pattern = InputPattern(4, sym_S(0));
  EXPECT_FALSE(make_certificate(result).has_value());
}

TEST(Certificate, CircuitAndRegisterVerificationAgree) {
  RegisterNetwork reg;
  const Certificate cert = sample_certificate(32, 10, 6, &reg);
  const auto flat = register_to_circuit(reg);
  EXPECT_EQ(verify_certificate(reg, cert).accepted(),
            verify_certificate(flat.circuit, cert).accepted());
}

}  // namespace
}  // namespace shufflebound
