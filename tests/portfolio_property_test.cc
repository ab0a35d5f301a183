// Determinism and coverage properties of the refutation portfolio
// (search/portfolio.h):
//   (a) the parallel portfolio is *bit-identical* to a sequential ladder
//       sweep — verdict, witness, winner, and every per-rung report — at
//       pool widths 1/2/4/8, including budgets that drain mid-rung;
//   (b) shape monotonicity — a counterexample found within shape (t, d)
//       is also found within (t+1, d) and (t, d+1): growing the ladder
//       never loses a refutation;
//   (c) the PR's acceptance workload — a query whose smallest
//       counterexample needs a third tuple, kUnknown under the classic
//       fixed 2x2 search — flips to a verified kNotImplied under the
//       portfolio with the same total Budget, sequentially and at every
//       pool width;
//   (d) the mixed route's evidence rule — chase probe, then the ladder,
//       then the resumed chase: random mixed sigmas keep the outcome of
//       the pipeline that ran the whole chase share first, the rendered
//       verdict and evidence are bit-identical at pool widths 1/2/4/8,
//       and the acceptance workload is decided by the search with its
//       chase stopped after the probe.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/workspace_chase.h"
#include "constructions/section7.h"
#include "core/satisfies.h"
#include "interact/derivation.h"
#include "search/portfolio.h"
#include "solve/solver.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/task_pool.h"

namespace ccfp {
namespace {

/// Canonical rendering of everything the determinism contract pins: the
/// winner, the totals, and each rung's (shape, status, share, candidates,
/// note) tuple. Two runs are "bit-identical" iff these strings match and
/// the witnesses compare equal.
std::string Render(const PortfolioResult& r) {
  std::string out = StrCat("winner=", r.winner == PortfolioResult::kNoRung
                                          ? std::string("none")
                                          : StrCat(r.winner),
                           " candidates=", r.candidates_tested,
                           " scanned=", r.rungs_scanned,
                           " skipped=", r.rungs_skipped);
  for (const RungReport& rung : r.rungs) {
    out += StrCat("\n  [", rung.shape.ToString(), "] ",
                  RungStatusToString(rung.status), " share=", rung.share,
                  " candidates=", rung.candidates_tested, " note=", rung.note);
  }
  return out;
}

struct Workload {
  SchemePtr scheme;
  std::vector<Dependency> sigma;
  Dependency target{Fd{0, {0}, {0}}};  // placeholder; always overwritten
};

/// Random two-relation FD+IND workloads over arity-2 relations: small
/// enough that several ladder rungs fully scan, varied enough that some
/// queries refute at rung 0, some only above it, and some not at all.
Workload RandomWorkload(SplitMix64& rng) {
  Workload w;
  w.scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::size_t deps = 1 + rng.Below(3);
  for (std::size_t i = 0; i < deps; ++i) {
    if (rng.Chance(1, 2)) {
      RelId rel = static_cast<RelId>(rng.Below(2));
      AttrId x = static_cast<AttrId>(rng.Below(2));
      w.sigma.push_back(Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}}));
    } else {
      Ind ind{static_cast<RelId>(rng.Below(2)),
              {static_cast<AttrId>(rng.Below(2))},
              static_cast<RelId>(rng.Below(2)),
              {static_cast<AttrId>(rng.Below(2))}};
      if (!Validate(*w.scheme, ind).ok() || IsTrivial(ind)) continue;
      w.sigma.push_back(Dependency(ind));
    }
  }
  if (rng.Chance(1, 2)) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    AttrId x = static_cast<AttrId>(rng.Below(2));
    w.target = Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}});
  } else {
    w.target = Dependency(Ind{0, {static_cast<AttrId>(rng.Below(2))}, 1,
                              {static_cast<AttrId>(rng.Below(2))}});
  }
  return w;
}

/// Runs the same portfolio sequentially and on pools of width 1/2/4/8 and
/// expects identical results throughout.
void ExpectWidthInvariant(const Workload& w, const Budget& budget) {
  PortfolioOptions opts;  // defaults: 2x2 base, +2/+2 growth, 6 rungs
  RefutationPortfolio sequential(w.scheme, w.sigma, w.target, opts);
  Result<PortfolioResult> baseline = sequential.Run(budget);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::string want = Render(*baseline);
  for (unsigned width : {1u, 2u, 4u, 8u}) {
    TaskPool pool(width);
    PortfolioOptions popts;
    popts.pool = &pool;
    RefutationPortfolio parallel(w.scheme, w.sigma, w.target, popts);
    Result<PortfolioResult> run = parallel.Run(budget);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(Render(*run), want)
        << "portfolio diverged from the sequential sweep at pool width "
        << width;
    ASSERT_EQ(run->counterexample.has_value(),
              baseline->counterexample.has_value());
    if (run->counterexample.has_value()) {
      EXPECT_TRUE(*run->counterexample == *baseline->counterexample)
          << "witness differs at pool width " << width;
    }
  }
}

class PortfolioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// --- (a) width invariance under an ample budget -------------------------

TEST_P(PortfolioPropertyTest, MatchesSequentialLadderAtEveryWidth) {
  SplitMix64 rng(GetParam() * 193 + 3);
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(rng);
    Budget budget;
    budget.steps = 20000;  // funds several rungs, drains the tail
    ExpectWidthInvariant(w, budget);
  }
}

// --- (a) width invariance when the budget drains mid-rung ---------------

TEST_P(PortfolioPropertyTest, MatchesSequentialUnderMidRungStarvation) {
  SplitMix64 rng(GetParam() * 977 + 41);
  Workload w = RandomWorkload(rng);
  // Sweep budgets from "rung 0 stops after one candidate" through "the
  // tail rungs get partial shares": every SplitLadder boundary shape —
  // full shares, truncated shares, drained-to-zero shares — shows up at
  // some point of this ladder of budgets.
  for (std::uint64_t steps : {1ull, 3ull, 10ull, 40ull, 200ull, 1000ull,
                              5000ull}) {
    Budget budget;
    budget.steps = steps;
    ExpectWidthInvariant(w, budget);
  }
}

// --- (b) shape monotonicity ---------------------------------------------

TEST_P(PortfolioPropertyTest, GrowingTheShapeNeverLosesARefutation) {
  SplitMix64 rng(GetParam() * 59 + 17);
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(rng);
    BoundedSearchOptions base;
    base.max_tuples_per_relation = 2;
    base.domain_size = 2;
    Result<BoundedSearchResult> small =
        FindCounterexample(w.scheme, w.sigma, w.target, base);
    ASSERT_TRUE(small.ok()) << small.status();
    if (!small->counterexample.has_value()) continue;
    for (int axis = 0; axis < 2; ++axis) {
      BoundedSearchOptions grown = base;
      if (axis == 0) {
        grown.max_tuples_per_relation++;
      } else {
        grown.domain_size++;
      }
      Result<BoundedSearchResult> large =
          FindCounterexample(w.scheme, w.sigma, w.target, grown);
      ASSERT_TRUE(large.ok()) << large.status();
      EXPECT_TRUE(large->counterexample.has_value())
          << "refutation lost growing axis " << axis << " for "
          << w.target.ToString(*w.scheme);
    }
  }
}

// --- (d) the mixed route's evidence rule -------------------------------

/// Random mixed sigmas over R(A,B,C) and S(D,E): unary FDs plus width-1/2
/// INDs, cyclic often enough that some chases diverge while others
/// converge within a few steps or only late in their share.
Workload RandomMixedWorkload(SplitMix64& rng) {
  Workload w;
  w.scheme = MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
  auto attrs = [&](RelId rel, std::size_t width) {
    std::size_t arity = w.scheme->relation(rel).arity();
    AttrId x = static_cast<AttrId>(rng.Below(arity));
    std::vector<AttrId> out = {x};
    if (width == 2) {
      out.push_back(static_cast<AttrId>((x + 1 + rng.Below(arity - 1)) %
                                        arity));
    }
    return out;
  };
  auto random_dep = [&](bool fd) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    if (fd) {
      std::vector<AttrId> xy = attrs(rel, 2);
      return Dependency(Fd{rel, {xy[0]}, {xy[1]}});
    }
    std::size_t width = 1 + rng.Below(2);
    RelId rhs = static_cast<RelId>(rng.Below(2));
    return Dependency(Ind{rel, attrs(rel, width), rhs, attrs(rhs, width)});
  };
  std::size_t deps = 2 + rng.Below(3);
  for (std::size_t i = 0; i < deps; ++i) {
    Dependency dep = random_dep(i == 0 || (i > 1 && rng.Chance(1, 2)));
    if (!IsTrivial(*w.scheme, dep)) w.sigma.push_back(dep);
  }
  w.target = random_dep(rng.Chance(1, 2));
  return w;
}

/// The pipeline before the evidence rule, rebuilt from its parts: sound
/// derivation, one chase Run on the whole chase share, then the ladder.
ImplicationVerdict PipelineOutcome(const Workload& w, const Budget& budget) {
  Budget slice = budget.Split(SolveOptions().mixed_stage_split);
  MixedDerivation derivation(w.scheme, w.sigma,
                             MixedDerivation::Options::FromBudget(slice));
  if (derivation.Saturate().ok() && derivation.Derives(w.target)) {
    return ImplicationVerdict::kImplied;
  }
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (const Dependency& dep : w.sigma) {
    if (dep.is_fd()) fds.push_back(dep.fd());
    if (dep.is_ind()) inds.push_back(dep.ind());
  }
  InternedWorkspace ws(w.scheme);
  ws.AppendDatabase(MakeCanonicalSeed(w.scheme, w.target).value());
  WorkspaceChase chase(&ws, fds, inds);
  Result<WorkspaceChaseStats> run = chase.Run(ChaseOptions::FromBudget(slice));
  if (run.ok() && run->outcome == ChaseOutcome::kFixpoint) {
    return ws.Satisfies(w.target) ? ImplicationVerdict::kImplied
                                  : ImplicationVerdict::kNotImplied;
  }
  RefutationPortfolio portfolio(w.scheme, w.sigma, w.target);
  Result<PortfolioResult> found = portfolio.Run(slice);
  return found.ok() && found->counterexample.has_value()
             ? ImplicationVerdict::kNotImplied
             : ImplicationVerdict::kUnknown;
}

/// The rendered verdict plus the evidence database bytes.
std::string RenderVerdict(const Verdict& v, const DatabaseScheme& scheme) {
  std::string out = v.ToString(scheme);
  if (v.counterexample.has_value()) {
    out += "\n" + v.counterexample->ToString();
  }
  return out;
}

TEST_P(PortfolioPropertyTest, MixedRouteKeepsThePipelineOutcome) {
  SplitMix64 rng(GetParam() * 7919 + 13);
  for (int i = 0; i < 8; ++i) {
    Workload w = RandomMixedWorkload(rng);
    if (IsTrivial(*w.scheme, w.target) ||
        ClassifyImplicationFragment(*w.scheme, w.sigma, w.target) !=
            ImplicationFragment::kMixed) {
      continue;
    }
    for (std::uint64_t steps : {3ull * 40, 3ull * 400, 3ull * 4000}) {
      Budget budget;
      budget.steps = steps;
      ImplicationSolver solver(w.scheme, w.sigma);
      Verdict v = solver.Solve(w.target, budget).value();
      EXPECT_EQ(v.outcome, PipelineOutcome(w, budget))
          << "steps=" << steps << "\n" << v.ToString(*w.scheme);
      if (v.counterexample.has_value()) {
        EXPECT_TRUE(v.counterexample_verified);
      }
    }
  }
}

TEST_P(PortfolioPropertyTest, MixedRouteEvidenceIdenticalAtEveryWidth) {
  SplitMix64 rng(GetParam() * 104729 + 7);
  for (int i = 0; i < 4; ++i) {
    Workload w = RandomMixedWorkload(rng);
    Budget budget;
    budget.steps = 3 * (100 + rng.Below(2000));
    ImplicationSolver sequential(w.scheme, w.sigma);
    Result<Verdict> baseline = sequential.Solve(w.target, budget);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    std::string want = RenderVerdict(*baseline, *w.scheme);
    for (unsigned width : {1u, 2u, 4u, 8u}) {
      TaskPool pool(width);
      SolveOptions raced;
      raced.pool = &pool;
      ImplicationSolver solver(w.scheme, w.sigma, raced);
      Result<Verdict> v = solver.Solve(w.target, budget);
      ASSERT_TRUE(v.ok()) << v.status();
      EXPECT_EQ(RenderVerdict(*v, *w.scheme), want)
          << "verdict diverged at pool width " << width;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- (c) the acceptance workload ----------------------------------------

/// R(A,B,C) with sigma = { A -> B, R[B,C] <= R[C,A] } and target
/// R: A -> C. With exactly two tuples any A -> C violation forces, via
/// the IND, a = b = c1 and then c1 = c2 — contradiction — so no 2-tuple
/// counterexample exists at any domain size and the classic fixed 2x2
/// search exhausts its shape; the whole mixed pipeline lands on kUnknown
/// (the cyclic IND diverges the chase, the sound rules cannot derive the
/// target). The ladder's 3-tuple rung finds the minimal witness
/// (0,0,0), (0,0,1), (1,0,0).
Workload WideWorkload() {
  Workload w;
  w.scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  w.sigma.push_back(Dependency(Fd{0, {0}, {1}}));
  w.sigma.push_back(Dependency(Ind{0, {1, 2}, 0, {2, 0}}));
  w.target = Dependency(Fd{0, {0}, {2}});
  return w;
}

TEST(PortfolioAcceptanceTest, WideWorkloadFlipsUnknownToNotImplied) {
  Workload w = WideWorkload();
  Budget budget;  // the default budget, identical for both solvers

  SolveOptions fixed;
  fixed.search_max_rungs = 1;  // the classic single-shape search
  ImplicationSolver fixed_solver(w.scheme, w.sigma, fixed);
  Verdict before = fixed_solver.Solve(w.target, budget).value();
  EXPECT_EQ(before.outcome, ImplicationVerdict::kUnknown)
      << before.ToString(*w.scheme);

  ImplicationSolver portfolio_solver(w.scheme, w.sigma);
  Verdict after = portfolio_solver.Solve(w.target, budget).value();
  EXPECT_EQ(after.outcome, ImplicationVerdict::kNotImplied)
      << after.ToString(*w.scheme);
  ASSERT_TRUE(after.counterexample.has_value());
  EXPECT_TRUE(after.counterexample_verified);
  // Belt and braces: re-check the witness with the legacy model checker.
  SatisfiesOptions legacy{SatisfiesEngine::kLegacy};
  for (const Dependency& dep : w.sigma) {
    EXPECT_TRUE(Satisfies(*after.counterexample, dep, legacy));
  }
  EXPECT_FALSE(Satisfies(*after.counterexample, w.target, legacy));
}

TEST(PortfolioAcceptanceTest, WideWorkloadVerdictIdenticalAtEveryWidth) {
  Workload w = WideWorkload();
  Budget budget;
  ImplicationSolver sequential(w.scheme, w.sigma);
  Verdict baseline = sequential.Solve(w.target, budget).value();
  ASSERT_EQ(baseline.outcome, ImplicationVerdict::kNotImplied);
  std::string want = baseline.ToString(*w.scheme);
  for (unsigned width : {1u, 2u, 4u, 8u}) {
    TaskPool pool(width);
    SolveOptions raced;
    raced.pool = &pool;
    ImplicationSolver solver(w.scheme, w.sigma, raced);
    Verdict v = solver.Solve(w.target, budget).value();
    EXPECT_EQ(v.ToString(*w.scheme), want)
        << "raced verdict diverged at pool width " << width;
    ASSERT_TRUE(v.counterexample.has_value());
    EXPECT_TRUE(*v.counterexample == *baseline.counterexample);
  }
}

TEST(PortfolioAcceptanceTest, EvidenceRuleOnEveryDecidingStage) {
  // One known query per way the mixed route can end — a chase proof
  // after the ladder (Section 7: the proof takes 34 chase steps, more
  // than the probe gets under the two smaller budgets), a search witness
  // after the probe (the acceptance workload), and an exhausted chase
  // beside an exhausted ladder (cyclic INDs) — each keeps the pipeline's
  // outcome and renders identically at every pool width.
  std::vector<Workload> cases;
  Section7Construction s7 = MakeSection7(2);
  cases.push_back(Workload{s7.scheme, s7.SigmaDeps(), Dependency(s7.sigma)});
  cases.push_back(WideWorkload());
  SchemePtr cyclic = MakeScheme({{"R", {"A", "B", "C"}}});
  cases.push_back(Workload{cyclic,
                           {Dependency(Fd{0, {0}, {1}}),
                            Dependency(Ind{0, {1, 2}, 0, {0, 1}}),
                            Dependency(Ind{0, {0}, 0, {2}})},
                           Dependency(Fd{0, {2}, {1}})});
  const ImplicationVerdict expected[] = {ImplicationVerdict::kImplied,
                                         ImplicationVerdict::kNotImplied,
                                         ImplicationVerdict::kUnknown};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Workload& w = cases[c];
    for (std::uint64_t steps : {3ull * 64, 3ull * 640, 3ull * 6400}) {
      Budget budget;
      budget.steps = steps;
      ImplicationSolver sequential(w.scheme, w.sigma);
      Verdict v = sequential.Solve(w.target, budget).value();
      EXPECT_EQ(v.outcome, expected[c]) << v.ToString(*w.scheme);
      EXPECT_EQ(v.outcome, PipelineOutcome(w, budget)) << "case " << c;
      std::string want = RenderVerdict(v, *w.scheme);
      for (unsigned width : {1u, 2u, 4u, 8u}) {
        TaskPool pool(width);
        SolveOptions raced;
        raced.pool = &pool;
        ImplicationSolver solver(w.scheme, w.sigma, raced);
        EXPECT_EQ(RenderVerdict(solver.Solve(w.target, budget).value(),
                                *w.scheme),
                  want)
            << "case " << c << " steps " << steps << " width " << width;
      }
    }
  }
}

TEST(PortfolioAcceptanceTest, WideWorkloadDecidedBySearchAfterTheProbe) {
  // The chase diverges on the cyclic IND, so it stops after its probe —
  // a small slice of its share — and the ladder's verified 3-tuple
  // witness decides, without the chase spending the rest of its share.
  Workload w = WideWorkload();
  Budget budget;
  const std::uint64_t chase_share =
      budget.Split(SolveOptions().mixed_stage_split).steps;
  for (unsigned width : {0u, 1u, 2u, 4u, 8u}) {
    std::optional<TaskPool> pool;
    SolveOptions options;
    if (width > 0) options.pool = &pool.emplace(width);
    ImplicationSolver solver(w.scheme, w.sigma, options);
    Verdict v = solver.Solve(w.target, budget).value();
    ASSERT_EQ(v.outcome, ImplicationVerdict::kNotImplied) << "width " << width;
    EXPECT_NE(v.engine.find("bounded-search"), std::string::npos) << v.engine;
    EXPECT_FALSE(v.chase_stats.has_value());
    ASSERT_GE(v.stages.size(), 3u);
    EXPECT_EQ(v.stages[0].stage, "derivation");
    const StageReport& chase = v.stages[1];
    EXPECT_EQ(chase.stage, "chase");
    EXPECT_EQ(chase.verdict, ImplicationVerdict::kUnknown);
    EXPECT_NE(chase.note.find("stopped after the probe"), std::string::npos)
        << chase.note;
    EXPECT_GT(chase.used.steps, 0u);
    EXPECT_LE(chase.used.steps, chase_share / 64);
    for (std::size_t i = 2; i < v.stages.size(); ++i) {
      EXPECT_EQ(v.stages[i].stage, "search");
    }
  }
}

}  // namespace
}  // namespace ccfp
