#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/budget.h"
#include "util/permutation.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/task_pool.h"

namespace ccfp {
namespace {

// --- Status / Result ---------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad attribute");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad attribute");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad attribute");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubled(Result<int> input) {
  CCFP_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagatesValue) {
  Result<int> r = Doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> r = Doubled(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// --- Strings ------------------------------------------------------------

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ", "), "");
  EXPECT_EQ(JoinStrings({"only"}, ", "), "only");
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("x", 1, "y", 2), "x1y2");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, SplitAndTrim) {
  std::vector<std::string> parts = SplitAndTrim(" a , b ,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> parts = SplitAndTrim("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x  "), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

// --- Permutations ---------------------------------------------------------

TEST(PermutationTest, IdentityIsIdentity) {
  Permutation id = Permutation::Identity(5);
  EXPECT_TRUE(id.IsIdentity());
  EXPECT_EQ(static_cast<std::uint64_t>(id.Order()), 1u);
}

TEST(PermutationTest, CreateRejectsNonBijections) {
  EXPECT_FALSE(Permutation::Create({0, 0, 1}).ok());
  EXPECT_FALSE(Permutation::Create({0, 3, 1}).ok());
  EXPECT_TRUE(Permutation::Create({2, 0, 1}).ok());
}

TEST(PermutationTest, ComposeAndInverse) {
  Permutation p = Permutation::Create({1, 2, 0}).value();  // 3-cycle
  Permutation q = p.Compose(p.Inverse());
  EXPECT_TRUE(q.IsIdentity());
  EXPECT_EQ(static_cast<std::uint64_t>(p.Order()), 3u);
}

TEST(PermutationTest, ComposeIsFunctionComposition) {
  // p = (0 1), q = (1 2); p.Compose(q) maps i to p(q(i)).
  Permutation p = Permutation::Create({1, 0, 2}).value();
  Permutation q = Permutation::Create({0, 2, 1}).value();
  Permutation pq = p.Compose(q);
  EXPECT_EQ(pq(0), 1u);  // q(0)=0, p(0)=1
  EXPECT_EQ(pq(1), 2u);  // q(1)=2, p(2)=2
  EXPECT_EQ(pq(2), 0u);  // q(2)=1, p(1)=0
}

TEST(PermutationTest, PowerMatchesRepeatedComposition) {
  Permutation p = Permutation::Create({1, 2, 3, 4, 0}).value();  // 5-cycle
  Permutation p3 = p.Compose(p).Compose(p);
  EXPECT_EQ(p.Power(3), p3);
  EXPECT_TRUE(p.Power(5).IsIdentity());
  EXPECT_TRUE(p.Power(0).IsIdentity());
}

TEST(PermutationTest, CycleLengths) {
  // (0 1 2)(3 4) on 6 points: cycles 3, 2, 1.
  Permutation p = Permutation::FromCycleLengths(6, {3, 2}).value();
  std::vector<std::uint64_t> lengths = p.CycleLengths();
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[0], 3u);
  EXPECT_EQ(lengths[1], 2u);
  EXPECT_EQ(lengths[2], 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(p.Order()), 6u);
}

TEST(PermutationTest, OrderIsLcmOfCycleLengths) {
  Permutation p = Permutation::FromCycleLengths(9, {4, 3, 2}).value();
  EXPECT_EQ(static_cast<std::uint64_t>(p.Order()), 12u);
  EXPECT_TRUE(p.Power(12).IsIdentity());
  EXPECT_FALSE(p.Power(6).IsIdentity());
}

TEST(PermutationTest, TranspositionSwapsZeroAndI) {
  Permutation t = Permutation::Transposition(4, 2);
  EXPECT_EQ(t(0), 2u);
  EXPECT_EQ(t(2), 0u);
  EXPECT_EQ(t(1), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(t.Order()), 2u);
}

TEST(PermutationTest, FromCycleLengthsRejectsOverflow) {
  EXPECT_FALSE(Permutation::FromCycleLengths(3, {2, 2}).ok());
  EXPECT_FALSE(Permutation::FromCycleLengths(3, {0}).ok());
}

TEST(PermutationTest, ToStringUsesCycleNotation) {
  Permutation p = Permutation::FromCycleLengths(5, {3, 2}).value();
  EXPECT_EQ(p.ToString(), "(0 1 2)(3 4)");
  EXPECT_EQ(Permutation::Identity(3).ToString(), "()");
}

TEST(Uint128Test, ToStringSmallAndLarge) {
  EXPECT_EQ(Uint128ToString(0), "0");
  EXPECT_EQ(Uint128ToString(12345), "12345");
  unsigned __int128 big = static_cast<unsigned __int128>(1) << 100;
  EXPECT_EQ(Uint128ToString(big), "1267650600228229401496703205376");
}

// --- Budget ----------------------------------------------------------------

TEST(BudgetTest, SplitSharesEveryCounterWithAFloorOfOne) {
  Budget b;
  b.steps = 10;
  b.tuples = 3;
  b.expressions = 100;
  Budget share = b.Split(4);
  EXPECT_EQ(share.steps, 2u);
  EXPECT_EQ(share.expressions, 25u);
  // A nonzero counter smaller than the part count still yields a sliver
  // of 1: every stage can fire at least once.
  EXPECT_EQ(share.tuples, 1u);
  // Byte ceiling and deadline bound *shared* state, not consumable
  // rates: they pass through unchanged.
  EXPECT_EQ(share.bytes, b.bytes);
  EXPECT_EQ(share.deadline, b.deadline);
}

TEST(BudgetTest, SplitOfADrainedCounterStaysDrained) {
  // The regression this pins: the floor-of-one used to apply to drained
  // counters too, so splitting an exhausted budget resurrected one step
  // per stage and a hard stop leaked extra work downstream. A counter
  // at 0 must split to 0 (engines treat 0 as immediate exhaustion).
  Budget drained;
  drained.steps = 0;
  drained.tuples = 0;
  drained.expressions = 5;
  Budget share = drained.Split(8);
  EXPECT_EQ(share.steps, 0u);
  EXPECT_EQ(share.tuples, 0u);
  EXPECT_EQ(share.expressions, 1u);
  // Splitting the drained share again keeps it drained.
  EXPECT_EQ(share.Split(3).steps, 0u);
  EXPECT_EQ(share.Split(3).expressions, 1u);
}

// --- Task pool -------------------------------------------------------------

TEST(TaskPoolTest, SingleExecutorRunsSpawnsInlineInSubmissionOrder) {
  TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  std::thread::id caller = std::this_thread::get_id();
  TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) {
    group.Spawn([&order, caller, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    // Inline: the closure has already run when Spawn returns.
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i + 1));
  }
  group.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskPoolTest, NestedSpawnFinishesBeforeWaitReturns) {
  TaskPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&] {
      // Spawned from inside a task onto the same group: Wait must cover
      // it even though it did not exist when Wait was entered.
      group.Spawn([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        inner.fetch_add(1);
      });
      outer.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8);
}

TEST(SharedBudgetMeterTest, ChainedMeterSeesParentExhaustionNotItsCharges) {
  SharedBudgetMeter parent(Budget::Unlimited(), 10);
  SharedBudgetMeter child(Budget::Unlimited(), 5, &parent);
  EXPECT_TRUE(child.Charge(3));
  EXPECT_EQ(child.used(), 3u);
  // Charges stay on the child.
  EXPECT_EQ(parent.used(), 0u);
  // Crossing the child's own ceiling exhausts the child only.
  EXPECT_FALSE(child.Charge(3));
  EXPECT_TRUE(child.exhausted());
  EXPECT_FALSE(parent.exhausted());
  EXPECT_EQ(parent.used(), 0u);

  // The sticky flag travels down the chain: a fresh child with plenty of
  // room reports exhausted once its parent is.
  SharedBudgetMeter sibling(Budget::Unlimited(), 100, &parent);
  EXPECT_TRUE(sibling.Charge());
  parent.MarkExhausted();
  EXPECT_TRUE(sibling.exhausted());
  EXPECT_FALSE(sibling.Charge());
  EXPECT_EQ(parent.used(), 0u);
}

// --- RNG -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowStaysInRange) {
  SplitMix64 rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    std::uint64_t v = rng.Between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

}  // namespace
}  // namespace ccfp
