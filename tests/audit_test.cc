#include "core/audit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/audit_stats.h"
#include "common/bitset.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "core/oracle.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/transversal_audit.h"
#include "hypergraph/transversal_berge.h"
#include "hypergraph/transversal_brute.h"
#include "hypergraph/transversal_fk.h"
#include "hypergraph/transversal_mmcs.h"
#include "mining/frequency_oracle.h"
#include "mining/transaction_db.h"

namespace hgm {
namespace {

/// Captures violations instead of aborting, and restores the fatal
/// default on teardown.  Every auditor test runs under this fixture:
/// the auditors themselves are always compiled, so these tests pass in
/// both plain and -DHGMINE_AUDIT=ON builds.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    audit::ResetAuditStats();
    audit::SetAuditFailureHandler(
        [this](const std::string& contract, const std::string& detail) {
          captured_.emplace_back(contract, detail);
        });
  }

  void TearDown() override {
    audit::SetAuditFailureHandler(nullptr);
    audit::ResetAuditStats();
  }

  std::vector<std::pair<std::string, std::string>> captured_;
};

TEST_F(AuditTest, ContractNamesAreDistinct) {
  EXPECT_STRNE(audit::ContractName(audit::Contract::kAntichain),
               audit::ContractName(audit::Contract::kDuality));
  EXPECT_STRNE(audit::ContractName(audit::Contract::kClosure),
               audit::ContractName(audit::Contract::kMinimality));
  EXPECT_STRNE(audit::ContractName(audit::Contract::kMonotonicity),
               audit::ContractName(audit::Contract::kAntichain));
}

TEST_F(AuditTest, AntichainPassesAndCharges) {
  std::vector<Bitset> family{Bitset(4, {0, 1}), Bitset(4, {1, 2}),
                             Bitset(4, {3})};
  EXPECT_TRUE(audit::AuditAntichain(family, "test"));
  EXPECT_TRUE(captured_.empty());
  audit::AuditStats stats = audit::GlobalAuditStats();
  EXPECT_GE(stats.antichain_checks, family.size());
  EXPECT_EQ(stats.violations, 0u);
}

TEST_F(AuditTest, AntichainTripsOnContainedPair) {
  // {0} ⊂ {0,1}: not an antichain — a border with this shape violates
  // the Section 2 definition.
  std::vector<Bitset> family{Bitset(4, {0}), Bitset(4, {0, 1})};
  EXPECT_FALSE(audit::AuditAntichain(family, "broken-engine"));
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first,
            audit::ContractName(audit::Contract::kAntichain));
  EXPECT_NE(captured_[0].second.find("broken-engine"), std::string::npos);
  EXPECT_EQ(audit::GlobalAuditStats().violations, 1u);
}

TEST_F(AuditTest, FrontierClosurePasses) {
  // Level 1 = {A, B}, level 2 = {AB}: every 1-subset of AB is present.
  std::vector<Bitset> lower{Bitset(3, {0}), Bitset(3, {1})};
  std::vector<Bitset> upper{Bitset(3, {0, 1})};
  EXPECT_TRUE(audit::AuditFrontierClosure(lower, upper, "test"));
  EXPECT_TRUE(captured_.empty());
  EXPECT_GE(audit::GlobalAuditStats().closure_checks, 1u);
}

TEST_F(AuditTest, FrontierClosureTripsOnMissingSubset) {
  // AB at level 2 while B was never interesting at level 1: apriori-gen
  // must never have generated it.
  std::vector<Bitset> lower{Bitset(3, {0})};
  std::vector<Bitset> upper{Bitset(3, {0, 1})};
  EXPECT_FALSE(audit::AuditFrontierClosure(lower, upper, "broken-engine"));
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first,
            audit::ContractName(audit::Contract::kClosure));
}

TEST_F(AuditTest, BorderDualityPassesOnFigure1) {
  // Paper Figure 1: Bd+ = {BD, ABC}, Bd- = {AD, CD} over R = {A,B,C,D}.
  std::vector<Bitset> positive{Bitset(4, {1, 3}), Bitset(4, {0, 1, 2})};
  std::vector<Bitset> negative{Bitset(4, {0, 3}), Bitset(4, {2, 3})};
  EXPECT_TRUE(audit::AuditBorderDuality(positive, negative, 4, "test"));
  EXPECT_TRUE(captured_.empty());
  EXPECT_GE(audit::GlobalAuditStats().duality_checks, 1u);
}

TEST_F(AuditTest, BorderDualityTripsOnWrongNegativeBorder) {
  std::vector<Bitset> positive{Bitset(4, {1, 3}), Bitset(4, {0, 1, 2})};
  // Claimed Bd- omits CD: Theorem 7 says Tr(H(S)) has both.
  std::vector<Bitset> negative{Bitset(4, {0, 3})};
  EXPECT_FALSE(
      audit::AuditBorderDuality(positive, negative, 4, "broken-engine"));
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first,
            audit::ContractName(audit::Contract::kDuality));
}

TEST_F(AuditTest, MinimalityPassesOnTrueMinimalTransversal) {
  Hypergraph h = Hypergraph::FromEdgeLists(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(audit::AuditMinimalTransversal(h, Bitset(3, {1}), "test"));
  EXPECT_TRUE(captured_.empty());
  EXPECT_GE(audit::GlobalAuditStats().minimality_checks, 1u);
}

TEST_F(AuditTest, MinimalityTripsOnNonMinimalAndNonTransversal) {
  Hypergraph h = Hypergraph::FromEdgeLists(3, {{0, 1}, {1, 2}});
  // {0,1} is a transversal but not minimal ({1} suffices).
  EXPECT_FALSE(
      audit::AuditMinimalTransversal(h, Bitset(3, {0, 1}), "broken"));
  // {0} misses edge {1,2} entirely.
  EXPECT_FALSE(audit::AuditMinimalTransversal(h, Bitset(3, {0}), "broken"));
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_NE(captured_[0].second.find("not minimal"), std::string::npos);
  EXPECT_NE(captured_[1].second.find("misses an edge"), std::string::npos);
  EXPECT_EQ(audit::GlobalAuditStats().violations, 2u);
}

TEST_F(AuditTest, MinimalityTripsOnDuplicateEmission) {
  Hypergraph h = Hypergraph::FromEdgeLists(3, {{0, 1}, {1, 2}});
  std::vector<Bitset> family{Bitset(3, {1}), Bitset(3, {1})};
  EXPECT_FALSE(audit::AuditMinimalTransversals(h, family, "broken"));
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_NE(captured_[0].second.find("twice"), std::string::npos);
}

TEST_F(AuditTest, MonotonePairPassesAndTrips) {
  Bitset x(3, {0});
  Bitset y(3, {0, 1});
  // Consistent: subset interesting, superset not.
  EXPECT_TRUE(audit::AuditMonotonePair(x, true, y, false, "test"));
  // Incomparable pairs are vacuously consistent.
  EXPECT_TRUE(audit::AuditMonotonePair(Bitset(3, {0}), false,
                                       Bitset(3, {1}), true, "test"));
  EXPECT_TRUE(captured_.empty());
  // Violation: y ⊇ x interesting while x is not (downward monotonicity).
  EXPECT_FALSE(audit::AuditMonotonePair(x, false, y, true, "broken"));
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first,
            audit::ContractName(audit::Contract::kMonotonicity));
  EXPECT_GE(audit::GlobalAuditStats().monotonicity_checks, 3u);
}

// A deliberately broken "engine": emits a non-minimal transversal family.
// The batch auditor must catch it exactly like a real engine's emission.
TEST_F(AuditTest, BrokenEngineEmissionIsCaught) {
  Hypergraph h = Hypergraph::FromEdgeLists(4, {{0, 1}, {2, 3}});
  // Correct answer: {02, 03, 12, 13}; the fake engine pads one superset.
  std::vector<Bitset> emitted{Bitset(4, {0, 2}), Bitset(4, {0, 2, 3})};
  EXPECT_FALSE(audit::AuditMinimalTransversals(h, emitted, "fake-engine"));
  EXPECT_EQ(audit::GlobalAuditStats().violations, 1u);
}

// DownwardClosedMaximize assumes its input is downward closed.  Audit
// builds cross-check it against AntichainMaximize, so a family missing
// the subsets of {0,1,2} (the linear pass then keeps {0}) is reported.
TEST_F(AuditTest, DownwardClosedMaximizeTripsOnNonClosedFamily) {
  std::vector<Bitset> family{Bitset(3, {0}), Bitset(3, {0, 1, 2})};
  DownwardClosedMaximize(&family);
  EXPECT_EQ(family.size(), 2u);
  if (audit::kEnabled) {
    ASSERT_EQ(captured_.size(), 1u);
    EXPECT_EQ(captured_[0].first,
              audit::ContractName(audit::Contract::kClosure));
    EXPECT_NE(captured_[0].second.find("DownwardClosedMaximize"),
              std::string::npos);
  } else {
    EXPECT_TRUE(captured_.empty());
  }
}

// End-to-end under -DHGMINE_AUDIT=ON: run every engine and the two core
// algorithms on real instances and assert the hot paths actually charged
// contract checks and witnessed zero violations.  In plain builds the
// call sites compile away, so the test only asserts the plumbing stays
// quiet.
TEST_F(AuditTest, HotPathsChargeChecksAndStayClean) {
  Hypergraph h = Hypergraph::FromEdgeLists(5, {{0, 1}, {1, 2}, {3, 4}});
  BergeTransversals().Compute(h);
  BruteForceTransversals().Compute(h);
  MmcsTransversals().Compute(h);
  FkTransversals().Compute(h);

  TransactionDatabase db = TransactionDatabase::FromRows(
      4, {{0, 1, 2}, {0, 1, 2}, {1, 3}, {1, 3}, {0, 3}});
  FrequencyOracle freq(&db, 2);
  RunLevelwise(&freq);
  CachedOracle cached(&freq);
  RunDualizeAdvance(&cached);

  audit::AuditStats stats = audit::GlobalAuditStats();
  EXPECT_EQ(stats.violations, 0u) << "paper contract violated on a "
                                     "known-good instance";
  if (audit::kEnabled) {
    EXPECT_GE(stats.minimality_checks, 4u);  // every engine emitted
    EXPECT_GE(stats.antichain_checks, 1u);
    EXPECT_GE(stats.closure_checks, 1u);
    EXPECT_GE(stats.duality_checks, 2u);  // levelwise + dualize-advance
    EXPECT_GE(stats.monotonicity_checks, 1u);
    EXPECT_GT(stats.checks(), 0u);
  } else {
    EXPECT_EQ(stats.checks(), 0u);  // hot paths fully gated out
  }
}

}  // namespace
}  // namespace hgm
