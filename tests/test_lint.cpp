// The network linter: every rule's fire and no-fire case, the severity /
// exit policy, JSON serialization, and the malformed-fixture corpus
// shared with test_io.
#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/rdn.hpp"
#include "networks/rdn_io.hpp"
#include "networks/shuffle.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(SB_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_rule(const LintReport& report, const std::string& rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule) ++n;
  return n;
}

bool has_rule(const LintReport& report, const std::string& rule) {
  return count_rule(report, rule) > 0;
}

const Diagnostic& find_rule(const LintReport& report, const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule) return d;
  ADD_FAILURE() << "rule " << rule << " not found";
  static const Diagnostic none;
  return none;
}

constexpr const char* kCleanCircuit =
    "circuit 4\n"
    "level 0+1 2+3\n"
    "level 0+2 1+3\n"
    "level 1+2\n"
    "end\n";

constexpr const char* kButterfly4 =
    "circuit 4\n"
    "level 0+1 2+3\n"
    "level 0+2 1+3\n"
    "end\n";

constexpr const char* kCleanRegister =
    "register 4\n"
    "step shuffle ; ops ++\n"
    "step shuffle ; ops +-\n"
    "end\n";

constexpr const char* kCleanIterated =
    "iterated 4\n"
    "stage perm identity\n"
    "tree 0 1 2 3\n"
    "level 0+1 2+3\n"
    "level 0+2 1+3\n"
    "endstage\n"
    "end\n";

// ---------------------------------------------------------------- clean

TEST(Lint, CleanCircuitHasNoDiagnostics) {
  const LintReport report = lint_network_text(kCleanCircuit);
  EXPECT_EQ(report.model, "circuit");
  EXPECT_EQ(report.width, 4u);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_TRUE(report.clean(true));
}

TEST(Lint, CleanRegisterHasNoDiagnostics) {
  const LintReport report = lint_network_text(kCleanRegister);
  EXPECT_EQ(report.model, "register");
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Lint, CleanIteratedHasNoDiagnostics) {
  const LintReport report = lint_network_text(kCleanIterated);
  EXPECT_EQ(report.model, "iterated");
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Lint, GeneratedNetworksLintClean) {
  EXPECT_TRUE(lint_network_text(to_text(bitonic_sorting_network(16)))
                  .clean(true));
  EXPECT_TRUE(lint_network_text(to_text(bitonic_on_shuffle(16))).clean(true));
  EXPECT_TRUE(lint_network_text(to_text(butterfly_rdn(4).net)).clean(true));
  Prng rng(11);
  EXPECT_TRUE(lint_network_text(to_text(random_rdn(4, rng, 10, 5).net))
                  .clean(true));
}

// --------------------------------------------------------- syntax rules

TEST(Lint, SyntaxHeaderFiresOnEmptyInput) {
  const LintReport report = lint_network_text("");
  EXPECT_TRUE(has_rule(report, "syntax-header"));
  EXPECT_EQ(report.model, "unknown");
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, SyntaxHeaderFiresOnUnknownModel) {
  EXPECT_TRUE(has_rule(lint_network_text("widget 4\nend\n"), "syntax-header"));
  EXPECT_TRUE(
      has_rule(lint_network_text("circuit banana\nend\n"), "syntax-header"));
}

TEST(Lint, SyntaxLineFiresOnUnknownKeyword) {
  const LintReport report =
      lint_network_text("circuit 2\nlevle 0+1\nlevel 0+1\nend\n");
  EXPECT_TRUE(has_rule(report, "syntax-line"));
  EXPECT_EQ(find_rule(report, "syntax-line").line, 2u);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "syntax-line"));
}

TEST(Lint, SyntaxGateFiresOnMangledGateToken) {
  const LintReport report = lint_network_text("circuit 2\nlevel 0&1\nend\n");
  EXPECT_TRUE(has_rule(report, "syntax-gate"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "syntax-gate"));
}

TEST(Lint, SyntaxStepFiresOnMissingOpsTail) {
  const LintReport report = lint_network_text("register 4\nstep shuffle\nend\n");
  EXPECT_TRUE(has_rule(report, "syntax-step"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanRegister), "syntax-step"));
}

TEST(Lint, SyntaxStageFiresOnUnclosedStage) {
  const LintReport report = lint_network_text(
      "iterated 4\nstage perm identity\ntree 0 1 2 3\n"
      "level 0+1 2+3\nlevel 0+2 1+3\nend\n");
  EXPECT_TRUE(has_rule(report, "syntax-stage"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanIterated), "syntax-stage"));
}

TEST(Lint, MissingEndFiresOnTruncatedInput) {
  const LintReport report = lint_network_text("circuit 2\nlevel 0+1\n");
  EXPECT_TRUE(has_rule(report, "missing-end"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "missing-end"));
}

TEST(Lint, UnknownDirectiveWarns) {
  const LintReport report =
      lint_network_text("# lint: frobnicate=3\ncircuit 2\nlevel 0+1\nend\n");
  EXPECT_TRUE(has_rule(report, "unknown-directive"));
  EXPECT_EQ(find_rule(report, "unknown-directive").severity,
            LintSeverity::Warning);
  // Plain comments are not directives.
  EXPECT_FALSE(has_rule(
      lint_network_text("# a comment\ncircuit 2\nlevel 0+1\nend\n"),
      "unknown-directive"));
}

// ------------------------------------------------------- semantic rules

TEST(Lint, WidthInvalidFiresOnZeroWidth) {
  const LintReport report = lint_network_text("circuit 0\nend\n");
  EXPECT_TRUE(has_rule(report, "width-invalid"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "width-invalid"));
}

TEST(Lint, WireOutOfRangeFiresAndNamesTheEndpoint) {
  const LintReport report = lint_network_text(fixture("bad_wire_index.txt"));
  const Diagnostic& d = find_rule(report, "wire-out-of-range");
  EXPECT_EQ(d.severity, LintSeverity::Error);
  EXPECT_EQ(d.line, 4u);
  EXPECT_NE(d.message.find("9"), std::string::npos);
  EXPECT_FALSE(
      has_rule(lint_network_text(kCleanCircuit), "wire-out-of-range"));
}

TEST(Lint, GateSelfLoopFires) {
  const LintReport report = lint_network_text(fixture("gate_self_loop.txt"));
  EXPECT_EQ(find_rule(report, "gate-self-loop").line, 4u);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "gate-self-loop"));
}

TEST(Lint, LevelWireConflictFires) {
  const LintReport report = lint_network_text(fixture("level_conflict.txt"));
  const Diagnostic& d = find_rule(report, "level-wire-conflict");
  EXPECT_EQ(d.line, 3u);
  EXPECT_NE(d.message.find("wire 1"), std::string::npos);
  EXPECT_FALSE(
      has_rule(lint_network_text(kCleanCircuit), "level-wire-conflict"));
}

TEST(Lint, InvertedOrientationWarnsWithCanonicalSpelling) {
  const LintReport report = lint_network_text("circuit 2\nlevel 1+0\nend\n");
  const Diagnostic& d = find_rule(report, "inverted-orientation");
  EXPECT_EQ(d.severity, LintSeverity::Warning);
  EXPECT_NE(d.hint.find("0-1"), std::string::npos);
  // Exchange gates have no orientation to flip.
  EXPECT_FALSE(has_rule(lint_network_text("circuit 2\nlevel 1x0\nend\n"),
                        "inverted-orientation"));
}

TEST(Lint, RedundantComparatorWarnsOnUntouchedPair) {
  const LintReport report =
      lint_network_text("circuit 2\nlevel 0+1\nlevel 0+1\nend\n");
  EXPECT_EQ(count_rule(report, "redundant-comparator"), 1u);
  // An intervening gate on either wire resets the pair.
  EXPECT_FALSE(has_rule(
      lint_network_text(
          "circuit 3\nlevel 0+1\nlevel 1+2\nlevel 0+1\nend\n"),
      "redundant-comparator"));
}

TEST(Lint, UnusedWireWarnsWithWireList) {
  const LintReport report = lint_network_text("circuit 4\nlevel 0+1\nend\n");
  const Diagnostic& d = find_rule(report, "unused-wire");
  EXPECT_EQ(d.severity, LintSeverity::Warning);
  EXPECT_NE(d.message.find("2, 3"), std::string::npos);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit), "unused-wire"));
}

TEST(Lint, EmptyLevelIsInfoOnly) {
  const LintReport report =
      lint_network_text("circuit 2\nlevel\nlevel 0+1\nend\n");
  EXPECT_EQ(find_rule(report, "empty-level").severity, LintSeverity::Info);
  EXPECT_TRUE(report.clean(true)) << "infos never fail a lint";
}

TEST(Lint, DepthMismatchComparesDirectiveAgainstReality) {
  const LintReport report = lint_network_text(fixture("depth_mismatch.txt"));
  const Diagnostic& d = find_rule(report, "depth-mismatch");
  EXPECT_EQ(d.severity, LintSeverity::Error);
  EXPECT_NE(d.message.find("3"), std::string::npos);
  EXPECT_NE(d.message.find("2"), std::string::npos);
  EXPECT_FALSE(has_rule(
      lint_network_text(
          "# lint: expect-depth=2\ncircuit 4\nlevel 0+1 2+3\nlevel 0+2 "
          "1+3\nend\n"),
      "depth-mismatch"));
}

TEST(Lint, RdnUnrecognizedIsInfoOnSquareNonRdn) {
  // 2^2 wires, 2 levels, rebuildable - but no bipartition works.
  const LintReport report =
      lint_network_text("circuit 4\nlevel 0+1 2+3\nlevel 0+1 2+3\nend\n");
  EXPECT_EQ(find_rule(report, "rdn-unrecognized").severity,
            LintSeverity::Info);
  EXPECT_FALSE(has_rule(lint_network_text(kButterfly4), "rdn-unrecognized"));
}

// ------------------------------------------------------- register rules

TEST(Lint, WidthOddFiresForRegisterModel) {
  EXPECT_TRUE(has_rule(lint_network_text("register 3\nend\n"), "width-odd"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanRegister), "width-odd"));
}

TEST(Lint, WidthNotPow2FiresForShuffleShorthand) {
  const LintReport report =
      lint_network_text("register 6\nstep shuffle ; ops +++\nend\n");
  EXPECT_TRUE(has_rule(report, "width-not-pow2"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanRegister), "width-not-pow2"));
}

TEST(Lint, OpsArityFires) {
  const LintReport report =
      lint_network_text(fixture("register_short_ops.txt"));
  const Diagnostic& d = find_rule(report, "ops-arity");
  EXPECT_EQ(d.line, 3u);
  EXPECT_EQ(d.unit, 1u);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanRegister), "ops-arity"));
}

TEST(Lint, OpsSymbolFires) {
  const LintReport report =
      lint_network_text("register 4\nstep shuffle ; ops +*\nend\n");
  EXPECT_TRUE(has_rule(report, "ops-symbol"));
  EXPECT_FALSE(has_rule(
      lint_network_text("register 4\nstep shuffle ; ops 01\nend\n"),
      "ops-symbol"));
}

TEST(Lint, PermInvalidFiresOnRepeatedEntry) {
  const LintReport report =
      lint_network_text("register 4\nstep perm 0 0 1 2 ; ops ++\nend\n");
  EXPECT_TRUE(has_rule(report, "perm-invalid"));
}

TEST(Lint, NonShuffleStepWarnsButShuffleImageDoesNot) {
  // The spelled-out shuffle image on 4 registers is exactly 0 2 1 3.
  EXPECT_FALSE(has_rule(
      lint_network_text("register 4\nstep perm 0 2 1 3 ; ops ++\nend\n"),
      "non-shuffle-step"));
  const LintReport report =
      lint_network_text("register 4\nstep perm 0 1 2 3 ; ops ++\nend\n");
  const Diagnostic& d = find_rule(report, "non-shuffle-step");
  EXPECT_EQ(d.severity, LintSeverity::Warning);
  EXPECT_TRUE(report.clean(false));
  EXPECT_FALSE(report.clean(true));
}

// ------------------------------------------------------- iterated rules

TEST(Lint, WidthNotPow2FiresForIteratedModel) {
  EXPECT_TRUE(
      has_rule(lint_network_text("iterated 6\nend\n"), "width-not-pow2"));
}

TEST(Lint, TreeInvalidFiresOnMissingAndMalformedTrees) {
  EXPECT_TRUE(has_rule(
      lint_network_text("iterated 4\nstage perm identity\nlevel 0+1 "
                        "2+3\nlevel 0+2 1+3\nendstage\nend\n"),
      "tree-invalid"));
  EXPECT_TRUE(has_rule(
      lint_network_text("iterated 4\nstage perm identity\ntree 0 1 2 "
                        "2\nlevel 0+1 2+3\nlevel 0+2 1+3\nendstage\nend\n"),
      "tree-invalid"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanIterated), "tree-invalid"));
}

TEST(Lint, StagePermInvalidFires) {
  EXPECT_TRUE(has_rule(
      lint_network_text("iterated 4\nstage perm 0 1 1 3\ntree 0 1 2 "
                        "3\nlevel 0+1 2+3\nlevel 0+2 1+3\nendstage\nend\n"),
      "perm-invalid"));
  EXPECT_FALSE(has_rule(lint_network_text(kCleanIterated), "perm-invalid"));
}

TEST(Lint, RdnStageDepthFiresOnShortStage) {
  const LintReport report = lint_network_text(
      "iterated 4\nstage perm identity\ntree 0 1 2 3\nlevel 0+1 "
      "2+3\nendstage\nend\n");
  const Diagnostic& d = find_rule(report, "rdn-stage-depth");
  EXPECT_EQ(d.unit, 1u);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanIterated), "rdn-stage-depth"));
}

TEST(Lint, RdnNonconformingFiresOnInvertedLevels) {
  const LintReport report =
      lint_network_text(fixture("iterated_nonconforming.txt"));
  const Diagnostic& d = find_rule(report, "rdn-nonconforming");
  EXPECT_EQ(d.severity, LintSeverity::Error);
  EXPECT_EQ(d.unit, 1u);
  EXPECT_FALSE(
      has_rule(lint_network_text(kCleanIterated), "rdn-nonconforming"));
}

TEST(Lint, SampleIteratedFixtureIsClean) {
  const LintReport report = lint_network_text(fixture("iterated_sample.txt"));
  EXPECT_TRUE(report.diagnostics.empty())
      << report.diagnostics.front().to_string("iterated_sample.txt");
}

// --------------------------------------------------- policy & serialization

TEST(Lint, EveryMalformedFixtureFailsWithItsDocumentedRule) {
  const struct {
    const char* file;
    const char* rule;
  } cases[] = {
      {"bad_wire_index.txt", "wire-out-of-range"},
      {"level_conflict.txt", "level-wire-conflict"},
      {"gate_self_loop.txt", "gate-self-loop"},
      {"truncated.txt", "missing-end"},
      {"depth_mismatch.txt", "depth-mismatch"},
      {"register_short_ops.txt", "ops-arity"},
      {"iterated_nonconforming.txt", "rdn-nonconforming"},
  };
  for (const auto& c : cases) {
    const LintReport report = lint_network_text(fixture(c.file));
    EXPECT_TRUE(has_rule(report, c.rule)) << c.file;
    EXPECT_FALSE(report.clean(false)) << c.file;
  }
}

TEST(Lint, StrictPolicyPromotesWarningsOnly) {
  const LintReport warned =
      lint_network_text("circuit 4\nlevel 0+1\nend\n");  // unused-wire
  EXPECT_EQ(warned.count(LintSeverity::Error), 0u);
  EXPECT_TRUE(warned.clean(false));
  EXPECT_FALSE(warned.clean(true));
}

TEST(Lint, DiagnosticsAreSortedByLine) {
  const LintReport report = lint_network_text(
      "circuit 4\nlevel 0+9\nlevel 1+1\nlevel 2+10\nend\n");
  EXPECT_GE(report.count(LintSeverity::Error), 3u);
  EXPECT_TRUE(std::is_sorted(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; }));
}

TEST(Lint, JsonDocumentCarriesCountsAndDiagnostics) {
  const LintReport report = lint_network_text(fixture("bad_wire_index.txt"));
  const JsonValue doc = report.to_json(false);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("model")->as_string(), "circuit");
  EXPECT_EQ(doc.find("width")->as_uint(), 4u);
  EXPECT_EQ(doc.find("errors")->as_uint(), 1u);
  const JsonValue& list = *doc.find("diagnostics");
  ASSERT_EQ(list.items().size(), 1u);
  const JsonValue& d = list.items().front();
  EXPECT_EQ(d.find("severity")->as_string(), "error");
  EXPECT_EQ(d.find("rule")->as_string(), "wire-out-of-range");
  EXPECT_EQ(d.find("line")->as_uint(), 4u);
  EXPECT_NE(d.find("message"), nullptr);
}

TEST(Lint, JsonOmitsZeroLocationAndEmptyHint) {
  const LintReport report = lint_network_text("circuit 4\nlevel 0+1\nend\n");
  const JsonValue d = find_rule(report, "unused-wire").to_json();
  EXPECT_EQ(d.find("line"), nullptr);
  EXPECT_EQ(d.find("unit"), nullptr);
  EXPECT_NE(d.find("hint"), nullptr);
}

TEST(Lint, ToStringFormatsLocationSeverityAndRule) {
  Diagnostic d;
  d.severity = LintSeverity::Error;
  d.rule = "wire-out-of-range";
  d.line = 4;
  d.message = "boom";
  d.hint = "fix it";
  EXPECT_EQ(d.to_string("net.txt"),
            "net.txt:4: error: [wire-out-of-range] boom\n    hint: fix it\n");
  d.line = 0;
  d.hint.clear();
  EXPECT_EQ(d.to_string(""), "<input>: error: [wire-out-of-range] boom\n");
}

// ------------------------------------------------- semantic (analyze)

TEST(Lint, EmptyNetworkEmitsSingleCleanInfo) {
  for (const char* text : {"circuit 4\nend\n", "circuit 4\nlevel\nlevel\nend\n"}) {
    const LintReport report = lint_network_text(text);
    EXPECT_TRUE(report.clean(true)) << text;
    ASSERT_EQ(report.diagnostics.size(), 1u) << text;
    EXPECT_EQ(report.diagnostics[0].rule, "empty-network");
    EXPECT_EQ(report.diagnostics[0].severity, LintSeverity::Info);
    // The per-level and whole-circuit hygiene rules stay quiet.
    EXPECT_FALSE(has_rule(report, "empty-level"));
    EXPECT_FALSE(has_rule(report, "unused-wire"));
  }
}

TEST(Lint, AnalyzeRedundantComparatorFiresOnProvenIdentity) {
  const LintReport report = lint_network_text(
      "circuit 4\nlevel 0+1 2+3\nlevel 0+1\nend\n");
  EXPECT_TRUE(has_rule(report, "analyze-redundant-comparator"));
  EXPECT_TRUE(has_rule(report, "analyze-dead-level"));
  EXPECT_EQ(find_rule(report, "analyze-dead-level").line, 3u);
  EXPECT_FALSE(has_rule(lint_network_text(kCleanCircuit),
                        "analyze-redundant-comparator"));
}

TEST(Lint, AnalyzeAlwaysExchangeFiresOnProvenReversedInputs) {
  const LintReport report =
      lint_network_text("circuit 2\nlevel 0-1\nlevel 0+1\nend\n");
  EXPECT_TRUE(has_rule(report, "analyze-always-exchange"));
  // The semantic rule reasons transitively (0<=1 and 1<=2 prove 0<=2);
  // the syntactic pair-repeat rule needs literal repetition and stays
  // quiet.
  const LintReport spaced = lint_network_text(
      "circuit 3\nlevel 0+1\nlevel 1+2\nlevel 0+2\nend\n");
  EXPECT_TRUE(has_rule(spaced, "analyze-redundant-comparator"));
  EXPECT_FALSE(has_rule(spaced, "redundant-comparator"));
}

TEST(Lint, ExpectRedundantDirectiveChecksAnalyzerCount) {
  const char* net =
      "# lint: expect-redundant=1\n"
      "circuit 4\nlevel 0+1 2+3\nlevel 0+1\nend\n";
  EXPECT_FALSE(has_rule(lint_network_text(net), "redundant-mismatch"));

  const char* wrong =
      "# lint: expect-redundant=3\n"
      "circuit 4\nlevel 0+1 2+3\nlevel 0+1\nend\n";
  const LintReport report = lint_network_text(wrong);
  const Diagnostic& d = find_rule(report, "redundant-mismatch");
  EXPECT_EQ(d.severity, LintSeverity::Error);
  EXPECT_EQ(d.line, 1u);

  // Zero expectation on an empty network holds vacuously.
  EXPECT_FALSE(has_rule(
      lint_network_text("# lint: expect-redundant=0\ncircuit 4\nend\n"),
      "redundant-mismatch"));

  // Outside the circuit model the directive cannot be checked.
  const LintReport reg = lint_network_text(
      "# lint: expect-redundant=0\nregister 4\nstep shuffle ; ops ++\nend\n");
  EXPECT_EQ(find_rule(reg, "redundant-mismatch").severity,
            LintSeverity::Warning);
}

TEST(Lint, ExpectRedundantDirectiveRejectsBadPayload) {
  const LintReport report = lint_network_text(
      "# lint: expect-redundant=banana\ncircuit 4\nlevel 0+1\nend\n");
  EXPECT_TRUE(has_rule(report, "unknown-directive"));
}

// The other half of the contract for headers: every width the linter
// refuses, all three strict parsers refuse too ("-8" is not 4294967288,
// "8x" is not 8).
TEST(Lint, HeaderWidthsTheLinterRefusesDoNotParse) {
  for (const char* width : {"-8", "+8", "8x", "", "0", "4294967296",
                            "99999999999999999999"}) {
    SCOPED_TRACE(width);
    const auto text = [&](const char* model) {
      return std::string(model) + " " + width + "\nend\n";
    };
    for (const char* model : {"circuit", "register", "iterated"})
      EXPECT_TRUE(lint_network_text(text(model)).has_errors()) << model;
    EXPECT_THROW(circuit_from_text(text("circuit")), std::invalid_argument);
    EXPECT_THROW(register_from_text(text("register")), std::invalid_argument);
    EXPECT_THROW(iterated_from_text(text("iterated")), std::invalid_argument);
  }
}

// The linter accepts everything the strict parsers accept: anything that
// parses must produce no *error* diagnostics (warnings are taste).
TEST(Lint, ParseableTextNeverHasLintErrors) {
  for (const char* text : {kCleanCircuit, kButterfly4}) {
    EXPECT_NO_THROW(circuit_from_text(text));
    EXPECT_FALSE(lint_network_text(text).has_errors());
  }
}

}  // namespace
}  // namespace shufflebound
