// The implication-engine benchmark: one binary, three seeded closed-loop
// workloads against the public API, every verdict checked outside the
// timed region.
//
//   implbench --workload <solve_mixed|solve_exact|service_sessions>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run is split into an untraced half and a traced half, and
// the metrics are the per-layer ones recorded by spans around each
// layer's public entry point (see trace.h), plus the tracing overhead.
// Lines starting with "# " before it are informational (host stamp,
// sample counts, mode shares, verdict digest).
//
// Exit codes: 0 on a correct run; 1 on a wrong verdict (the JSON line is
// still printed, with "correct": false); 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "chase/chase.h"
#include "chase/ind_chase.h"
#include "chase/workspace_chase.h"
#include "check.h"
#include "core/workspace.h"
#include "fd/closure.h"
#include "generate.h"
#include "ind/implication.h"
#include "interact/derivation.h"
#include "interact/unary_finite.h"
#include "mine/discovery.h"
#include "search/portfolio.h"
#include "service/service.h"
#include "service/shared_core.h"
#include "solve/solver.h"
#include "trace.h"
#include "verify/witness_cache.h"

#ifndef IMPLBENCH_COMPILER
#define IMPLBENCH_COMPILER "unknown"
#endif
#ifndef IMPLBENCH_BUILD_TYPE
#define IMPLBENCH_BUILD_TYPE "unknown"
#endif

namespace implbench {
namespace {

using ccfp::Budget;
using ccfp::ImplicationSolver;
using ccfp::SolverService;

/// Per-query step budget of both solve workloads (the default is 2^20).
/// At 2^14 a chase that cannot converge burns its share in ~15 ms on a
/// 4-core x86 host, so the slow mode stays cheap enough for many passes.
constexpr std::uint64_t kQuerySteps = 1u << 14;
/// The stage shares the solver hands out with default SolveOptions: the
/// mixed route splits the query budget three ways (derivation, chase,
/// search), and the unary route's evidence search gets an eighth. The
/// traced replay calls each stage with the same share.
constexpr unsigned kMixedShares = 3;
constexpr unsigned kGarnishShares = 8;
/// setup_s is the median of at least this many set-ups per run, spread
/// over the run: the solve workloads set up afresh before every pass, the
/// service workload in two blocks, before and after its measured loop.
constexpr int kSetupReps = 20;
/// The quantile over passes each operation's latency is taken at (see
/// PassLog::PerOpNs): the median.
constexpr double kPassQuantile = 0.5;
/// service_sessions: client threads, and TaskPool executors (the pool
/// spawns kPoolThreads - 1 workers; every client also helps run tasks),
/// so clients + workers == 4 == nproc of the reference host.
constexpr unsigned kClients = 2;
constexpr unsigned kPoolThreads = 3;

Budget QueryBudget() {
  Budget b;
  b.steps = kQuerySteps;
  return b;
}

double ElapsedS(std::uint64_t since_ns) { return (NowNs() - since_ns) / 1e9; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;

  void Error(std::string e) {
    if (errors.size() < 20) errors.push_back(std::move(e));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One client's pass over its fixed operation list: every operation's
/// latency, in list order, as timed (raw) and at reference speed (see
/// calibrate.h).
struct PassSample {
  unsigned client = 0;
  bool traced = false;
  std::vector<double> lat_ns;
  std::vector<double> raw_ns;
  /// The SpeedProbe mark each operation was timed after.
  std::vector<std::size_t> marks;

  /// Times `call` as the next operation, ticking `probe` before it.
  template <typename F>
  auto Time(SpeedProbe& probe, F&& call) {
    probe.Tick();
    marks.push_back(probe.mark());
    std::uint64_t t0 = NowNs();
    auto result = call();
    raw_ns.push_back(NowNs() - t0);
    return result;
  }

  /// Ends the pass: one more kernel run, then every latency is scaled by
  /// the kernel times around it.
  void Finish(SpeedProbe& probe) {
    probe.Tick(/*force=*/true);
    lat_ns.clear();
    for (std::size_t i = 0; i < raw_ns.size(); ++i) {
      lat_ns.push_back(raw_ns[i] * probe.Scale(marks[i]));
    }
    marks.clear();
  }
};

/// The passes a run keeps for its timing metrics: at most kKeptPasses
/// per (client, traced) stream, spread evenly over the run. When a stream
/// fills up, every other kept pass is dropped and from then on only every
/// other pass is kept (the stride doubles). Memory stays bounded, so
/// peak_rss_mb does not grow with the number of passes a faster program
/// completes.
class PassLog {
 public:
  void Add(PassSample p) {
    ++passes_;
    samples_ += p.lat_ns.size();
    Stream& s = streams_[{p.client, p.traced}];
    if (s.seen++ % s.stride != 0) return;
    s.kept.push_back(std::move(p));
    if (s.kept.size() < kKeptPasses) return;
    for (std::size_t i = 0; i < s.kept.size() / 2; ++i) {
      s.kept[i] = std::move(s.kept[2 * i]);
    }
    s.kept.resize(s.kept.size() / 2);
    s.stride *= 2;
  }

  /// Adds another log's streams (the other log's clients must differ).
  void Merge(PassLog&& other) {
    passes_ += other.passes_;
    samples_ += other.samples_;
    streams_.merge(other.streams_);
  }

  std::uint64_t passes() const { return passes_; }
  std::uint64_t samples() const { return samples_; }

  /// Every operation's latency as the quantile `q` over the kept passes
  /// (traced or untraced ones) that ran it, per client in list order; at
  /// reference speed, or as timed when `raw`.
  ///
  /// Operation i of a client's list does identical work in every pass, so
  /// its pass-to-pass variation is the host's: on a shared host the CPU
  /// speed switches between states ~1.7x apart. Taking each operation's
  /// median before the percentiles across operations keeps a burst on a
  /// few passes from moving the tail percentiles, which a pooled figure
  /// would let it do.
  std::vector<std::vector<double>> PerOpNs(bool traced, double q,
                                           bool raw = false) const {
    std::vector<std::vector<double>> out;
    for (const auto& [key, stream] : streams_) {
      if (key.second != traced) continue;
      std::vector<std::vector<double>> ops;
      for (const PassSample& p : stream.kept) {
        const std::vector<double>& lat = raw ? p.raw_ns : p.lat_ns;
        if (ops.size() < lat.size()) ops.resize(lat.size());
        for (std::size_t i = 0; i < lat.size(); ++i) ops[i].push_back(lat[i]);
      }
      out.emplace_back();
      for (const auto& samples : ops) {
        out.back().push_back(Quantile(samples, q));
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kKeptPasses = 128;
  struct Stream {
    std::uint64_t seen = 0;
    std::uint64_t stride = 1;
    std::vector<PassSample> kept;
  };
  std::map<std::pair<unsigned, bool>, Stream> streams_;
  std::uint64_t passes_ = 0;
  std::uint64_t samples_ = 0;
};

/// The q2-quantile over all operations of their per-op latencies (us).
double OpQuantileUs(const std::vector<std::vector<double>>& per_op,
                    double q2) {
  std::vector<double> all;
  for (const auto& ops : per_op) all.insert(all.end(), ops.begin(), ops.end());
  return Quantile(all, q2) / 1e3;
}

/// The end-to-end metric set every workload reports. `kernel_ns` are the
/// run's SpeedProbe times, reported beside the raw percentiles.
void AddEndToEnd(Report& r, double setup_s, const PassLog& log,
                 std::uint64_t decided, std::uint64_t solves,
                 const std::vector<double>& kernel_ns) {
  std::vector<std::vector<double>> per_op = log.PerOpNs(false, kPassQuantile);
  // Closed loop: each client completes its operations back to back, so
  // its rate is its operation count over the sum of their latencies.
  double qps = 0;
  for (const auto& ops : per_op) qps += ops.size() / (Sum(ops) / 1e9);
  r.Add("setup_s", setup_s, "s");
  r.Add("latency_p50_us", OpQuantileUs(per_op, 0.5), "us");
  r.Add("latency_p90_us", OpQuantileUs(per_op, 0.9), "us");
  r.Add("throughput_qps", qps, "1/s");
  r.Add("decided_ratio", solves ? double(decided) / solves : 1, "ratio");
  r.Add("ok_ratio",
        r.attempted ? 1 - double(r.failed) / r.attempted : 1, "ratio");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.info.push_back(ccfp::StrCat("latency_samples=", log.samples(),
                                " passes=", log.passes()));
  std::vector<std::vector<double>> raw = log.PerOpNs(false, kPassQuantile,
                                                     /*raw=*/true);
  r.info.push_back(ccfp::StrCat(
      "as_timed latency_p50_us=", OpQuantileUs(raw, 0.5),
      " latency_p90_us=", OpQuantileUs(raw, 0.9), " reference_kernel_us=",
      Quantile(kernel_ns, 0.5) / 1e3, " (median of ", kernel_ns.size(),
      ", reference ", kReferenceKernelNs / 1e3, ")"));
}

/// Tracing overhead: the traced passes' p50 over the untraced passes'
/// one, minus 1.
double TraceOverhead(const PassLog& log) {
  double base = OpQuantileUs(log.PerOpNs(false, kPassQuantile), 0.5);
  double traced = OpQuantileUs(log.PerOpNs(true, kPassQuantile), 0.5);
  return base > 0 ? traced / base - 1 : 0;
}

/// The per-layer metric set every traced run reports; layers a workload
/// never reaches read 0 (with a 0 span count beside them).
void AddPerLayer(Report& r, const Trace& t, double overhead_share) {
  auto med_us = [&](const char* span) {
    return Quantile(t.Durations(span), 0.5) / 1e3;
  };
  auto ratio = [&](const char* num, const char* den) {
    double d = t.counter(den);
    return d > 0 ? t.counter(num) / d : 0.0;
  };
  double solve_ns = Sum(t.Durations("solve.solve"));
  double direct_ns = 0;
  for (const char* s :
       {"fd.closure", "ind.decide", "ind.evidence", "interact.unary",
        "interact.derivation", "chase.run", "search.portfolio",
        "verify.admit", "verify.probe"}) {
    direct_ns += Sum(t.Durations(s));
  }
  r.Add("solve.classify_us", med_us("solve.classify"), "us");
  r.Add("solve.overhead_share", solve_ns > 0 ? 1 - direct_ns / solve_ns : 0,
        "ratio");
  r.Add("fd.closure_us", med_us("fd.closure"), "us");
  r.Add("ind.decide_us", med_us("ind.decide"), "us");
  r.Add("ind.expressions_per_query", ratio("ind.expressions", "ind.decides"),
        "count");
  r.Add("ind.evidence_us", med_us("ind.evidence"), "us");
  r.Add("interact.unary_us", med_us("interact.unary"), "us");
  r.Add("interact.derivation_us", med_us("interact.derivation"), "us");
  r.Add("interact.derivation_decided_ratio",
        ratio("interact.derived", "interact.derivations"), "ratio");
  r.Add("chase.run_us", med_us("chase.run"), "us");
  r.Add("chase.wall_share",
        solve_ns > 0 ? Sum(t.Durations("chase.run")) / solve_ns : 0,
        "ratio");
  r.Add("chase.exhausted_ratio", ratio("chase.exhausted", "chase.runs"),
        "ratio");
  r.Add("search.portfolio_us", med_us("search.portfolio"), "us");
  r.Add("search.candidates_per_query",
        ratio("search.candidates", "search.runs"), "count");
  r.Add("search.find_ratio", ratio("search.finds", "search.runs"), "ratio");
  r.Add("verify.admit_us", med_us("verify.admit"), "us");
  r.Add("verify.cache_hit_ratio", ratio("verify.cache_decided", "solves"),
        "ratio");
  r.Add("service.open_us", med_us("service.open"), "us");
  r.Add("service.core_reuse_ratio",
        ratio("service.core_reuses", "service.sessions_opened"), "ratio");
  // Mean, not median: the distinct cores differ by orders of magnitude
  // (a mining core premines its warm data), and set-up pays them all.
  std::vector<double> builds = t.Durations("service.core_build");
  r.Add("service.core_build_us",
        builds.empty() ? 0 : Sum(builds) / builds.size() / 1e3, "us");
  r.Add("service.solve_us", med_us("service.solve"), "us");
  r.Add("service.values_interned_per_session",
        ratio("service.values_interned", "service.sessions"), "count");
  r.Add("service.rejected_ratio",
        ratio("service.rejected", "service.ops"), "ratio");
  r.Add("mine.append_us", med_us("mine.append"), "us");
  r.Add("mine.mine_us", med_us("mine.mine"), "us");
  r.Add("armstrong.extend_us", med_us("armstrong.extend"), "us");
  r.Add("core.evict_us", med_us("core.evict"), "us");
  r.Add("core.revive_us", med_us("core.revive"), "us");
  for (const char* layer : {"solve", "fd", "ind", "interact", "chase",
                            "search", "verify", "service", "mine",
                            "armstrong", "core"}) {
    std::size_t n = 0;
    std::string prefix = ccfp::StrCat(layer, ".");
    for (const Span& s : t.spans()) {
      if (std::strncmp(s.name, prefix.c_str(), prefix.size()) == 0) ++n;
    }
    r.Add(ccfp::StrCat(layer, ".spans"), n, "count");
  }
  r.Add("trace.replay_mismatch", t.counter("trace.replay_mismatch"),
        "count");
  r.Add("trace.overhead_share", overhead_share, "ratio");
}

/// Stage names of a verdict with consecutive repeats folded (the search
/// stage reports once per ladder rung).
std::vector<std::string> StageNames(const Verdict& v) {
  std::vector<std::string> out;
  for (const ccfp::StageReport& s : v.stages) {
    if (out.empty() || out.back() != s.stage) out.push_back(s.stage);
  }
  return out;
}

/// A query whose chase ran out of its share: the slow latency mode.
bool ChaseExhausted(const Verdict& v) {
  for (const ccfp::StageReport& s : v.stages) {
    if (s.stage == "chase" && s.verdict == ImplicationVerdict::kUnknown &&
        !s.engine.empty()) {
      return true;
    }
  }
  return false;
}

/// The stage whose report carries the verdict ("unknown" when none
/// decided): where a query's answer came from.
std::string DecidingStage(const Verdict& v) {
  if (v.unknown()) return "unknown";
  for (const ccfp::StageReport& s : v.stages) {
    if (s.verdict == v.outcome) return s.stage;
  }
  return "?";
}

// --- solve workloads: traced replay ---------------------------------------

/// What the traced replay keeps per instance: its own witness cache and
/// search tables, fed exactly what the solver's private ones are fed, so
/// replayed cache probes answer as the solver's did.
struct ReplayState {
  SchemePtr scheme;
  std::vector<Dependency> nontrivial;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::unique_ptr<ccfp::WitnessCache> cache;
  ccfp::BoundedSearchWorkspace search_tables;

  explicit ReplayState(const Instance& in)
      : scheme(in.scheme), nontrivial(Nontrivial(*in.scheme, in.sigma)) {
    for (const Dependency& d : nontrivial) {
      if (d.is_fd()) fds.push_back(d.fd());
      if (d.is_ind()) inds.push_back(d.ind());
    }
    cache = std::make_unique<ccfp::WitnessCache>(scheme, nontrivial, 8);
  }
};

/// The stage sequence and outcome a replay reached.
struct ReplayResult {
  std::vector<std::string> stages;
  ImplicationVerdict outcome = ImplicationVerdict::kUnknown;
};

/// The refutation stage: the default shape ladder under `share`.
bool ReplaySearch(ReplayState& st, const Dependency& target,
                  const Budget& share, Trace& t, std::uint64_t req,
                  std::int64_t parent) {
  ccfp::PortfolioOptions opts;
  opts.workspace = &st.search_tables;
  ccfp::Result<ccfp::PortfolioResult> run = ccfp::Status::OK();
  {
    ScopedSpan span(&t, "search.portfolio", req, parent);
    ccfp::RefutationPortfolio portfolio(st.scheme, st.nontrivial, target,
                                        opts);
    run = portfolio.Run(share);
  }
  t.Count("search.runs");
  if (!run.ok()) return false;
  t.Count("search.candidates", run->candidates_tested);
  if (!run->counterexample.has_value()) return false;
  t.Count("search.finds");
  ScopedSpan span(&t, "verify.admit", req, parent);
  return st.cache->Admit(*run->counterexample, target).genuine;
}

/// Calls each stage's public entry point on the query the solver just
/// answered, with the share the solver hands that stage, under spans.
ReplayResult Replay(ReplayState& st, const Instance& in,
                    const Dependency& target, const Verdict& v, Trace& t,
                    std::uint64_t req, std::int64_t parent) {
  ReplayResult out;
  Budget budget = QueryBudget();
  ImplicationFragment fragment;
  {
    ScopedSpan span(&t, "solve.classify", req, parent);
    fragment = ccfp::ClassifyImplicationFragment(*in.scheme, in.sigma, target);
  }
  auto decide = [&](bool implied) {
    out.outcome = implied ? ImplicationVerdict::kImplied
                          : ImplicationVerdict::kNotImplied;
  };
  switch (fragment) {
    case ImplicationFragment::kPureFd: {
      out.stages = {"decide"};
      const Fd& fd = target.fd();
      std::vector<AttrId> closure;
      {
        ScopedSpan span(&t, "fd.closure", req, parent);
        closure = ccfp::AttributeClosure(*st.scheme, fd.rel, st.fds, fd.lhs);
      }
      decide(std::all_of(fd.rhs.begin(), fd.rhs.end(), [&](AttrId a) {
        return std::binary_search(closure.begin(), closure.end(), a);
      }));
      if (!v.implied() && v.counterexample.has_value()) {
        ScopedSpan span(&t, "verify.admit", req, parent);
        st.cache->Admit(*v.counterexample, target);
      }
      break;
    }
    case ImplicationFragment::kPureInd: {
      out.stages = {"decide"};
      ccfp::Result<ccfp::IndDecision> d = ccfp::Status::OK();
      {
        ScopedSpan span(&t, "ind.decide", req, parent);
        ccfp::IndImplication engine(st.scheme, st.inds);
        d = engine.Decide(target.ind(), budget, /*want_proof=*/true);
      }
      t.Count("ind.decides");
      if (!d.ok()) break;
      t.Count("ind.expressions", d->expressions_visited);
      decide(d->implied);
      if (d->implied) break;
      out.stages.push_back("evidence");
      ccfp::IndChaseOptions copts;
      copts.max_tuples = budget.tuples;
      ccfp::Result<ccfp::IndChaseResult> w = ccfp::Status::OK();
      {
        ScopedSpan span(&t, "ind.evidence", req, parent);
        w = ccfp::IndChaseDecide(st.scheme, st.inds, target.ind(), copts);
      }
      if (w.ok() && !w->implied) {
        ScopedSpan span(&t, "verify.admit", req, parent);
        st.cache->Admit(w->db, target);
      }
      break;
    }
    case ImplicationFragment::kUnary: {
      out.stages = {"decide"};
      bool implied, separated = false;
      {
        ScopedSpan span(&t, "interact.unary", req, parent);
        ccfp::UnaryFiniteImplication finite(st.scheme, st.fds, st.inds);
        if (in.semantics == ImplicationSemantics::kFinite) {
          implied = finite.Implies(target);
        } else {
          ccfp::UnaryUnrestrictedImplication unrestricted(st.scheme, st.fds,
                                                          st.inds);
          implied = unrestricted.Implies(target);
          separated = !implied && finite.Implies(target);
        }
      }
      decide(implied);
      if (implied || separated) break;
      std::shared_ptr<const Database> hit;
      if (st.cache->size() > 0) {
        ScopedSpan span(&t, "verify.probe", req, parent);
        hit = st.cache->Refute(target);
      }
      if (hit != nullptr) {
        out.stages.push_back("witness-cache");
        break;
      }
      out.stages.push_back("search");
      ReplaySearch(st, target, budget.Split(kGarnishShares), t, req, parent);
      break;
    }
    case ImplicationFragment::kMixed: {
      if (st.cache->size() > 0) {
        std::shared_ptr<const Database> hit;
        {
          ScopedSpan span(&t, "verify.probe", req, parent);
          hit = st.cache->Refute(target);
        }
        if (hit != nullptr) {
          out.stages = {"witness-cache"};
          decide(false);
          break;
        }
      }
      Budget share = budget.Split(kMixedShares);
      out.stages = {"derivation"};
      bool derived;
      {
        ScopedSpan span(&t, "interact.derivation", req, parent);
        ccfp::MixedDerivation derivation(
            st.scheme, st.nontrivial,
            ccfp::MixedDerivation::Options::FromBudget(share));
        derived = derivation.Saturate().ok() && derivation.Derives(target);
      }
      t.Count("interact.derivations");
      if (derived) {
        t.Count("interact.derived");
        decide(true);
        break;
      }
      out.stages.push_back("chase");
      ccfp::InternedWorkspace ws(st.scheme);
      ccfp::Result<ccfp::WorkspaceChaseStats> run = ccfp::Status::OK();
      {
        ScopedSpan span(&t, "chase.run", req, parent);
        ccfp::Result<Database> seed = ccfp::MakeCanonicalSeed(st.scheme, target);
        ws.AppendDatabase(*seed);
        ccfp::WorkspaceChase chase(&ws, st.fds, st.inds);
        run = chase.Run(ccfp::ChaseOptions::FromBudget(share));
      }
      t.Count("chase.runs");
      if (run.ok() && run->outcome == ccfp::ChaseOutcome::kFixpoint) {
        bool holds = ws.Satisfies(target);
        decide(holds);
        if (!holds) {
          Database fixpoint = ws.Materialize();
          ScopedSpan span(&t, "verify.admit", req, parent);
          st.cache->Admit(fixpoint, target);
        }
        break;
      }
      if (!run.ok()) t.Count("chase.exhausted");
      out.stages.push_back("search");
      if (ReplaySearch(st, target, share, t, req, parent)) decide(false);
      break;
    }
    case ImplicationFragment::kUnsupported:
      break;
  }
  return out;
}

// --- solve workloads --------------------------------------------------------

/// One pass's solvers.
std::vector<std::unique_ptr<ImplicationSolver>> BuildSolvers(
    const std::vector<Instance>& instances) {
  std::vector<std::unique_ptr<ImplicationSolver>> out;
  for (const Instance& in : instances) {
    ccfp::SolveOptions opts;
    opts.semantics = in.semantics;
    out.push_back(
        std::make_unique<ImplicationSolver>(in.scheme, in.sigma, opts));
  }
  return out;
}

Report RunSolve(bool exact, std::uint64_t seed, double seconds, bool trace) {
  Report rep;
  // Set-up: generate the instances and build one pass's solvers. Every
  // pass sets up afresh (so every pass does identical work: the witness
  // caches start empty each time); setup_s is the median of those.
  std::vector<double> setup;
  std::vector<Instance> instances;
  std::vector<std::unique_ptr<ImplicationSolver>> solvers;
  SpeedProbe probe;
  auto set_up = [&] {
    // Tearing down the previous pass is not set-up.
    solvers.clear();
    instances.clear();
    probe.Tick(/*force=*/true);
    std::size_t at = probe.mark();
    std::uint64_t t0 = NowNs();
    instances = exact ? ExactInstances(seed) : MixedInstances(seed);
    solvers = BuildSolvers(instances);
    double s = ElapsedS(t0);
    probe.Tick(/*force=*/true);
    setup.push_back(s * probe.Scale(at));
  };

  std::vector<Verdict> first;  // pass-1 verdicts, checked after the run
  PassLog log;
  std::uint64_t decided = 0, slow = 0;
  std::map<std::string, std::uint64_t> decided_by;
  Trace t;
  std::uint64_t start = NowNs();
  double elapsed = 0;
  for (int pass = 0;; ++pass) {
    bool traced = trace && elapsed >= seconds / 2;
    set_up();
    PassSample sample;
    sample.traced = traced;
    std::vector<std::unique_ptr<ReplayState>> replay;
    if (traced) {
      for (const Instance& in : instances) {
        replay.push_back(std::make_unique<ReplayState>(in));
      }
    }
    std::size_t q = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& in = instances[i];
      for (const Dependency& target : in.targets) {
        ++rep.attempted;
        std::int64_t root = -1;
        ccfp::Result<Verdict> v = sample.Time(probe, [&] {
          root = traced ? t.Open("solve.solve", q) : -1;
          ccfp::Result<Verdict> r = solvers[i]->Solve(target, QueryBudget());
          if (traced) t.Close(root);
          return r;
        });
        if (!v.ok()) {
          ++rep.failed;
          // Keep pass-1 verdicts aligned with the queries; an empty
          // (kUnknown) verdict is left unchecked.
          if (pass == 0) first.emplace_back();
          ++q;
          continue;
        }
        if (pass == 0) {
          if (!v->unknown()) ++decided;
          if (ChaseExhausted(*v)) ++slow;
          ++decided_by[DecidingStage(*v)];
          first.push_back(*v);
        } else if (q >= first.size() || first[q].outcome != v->outcome) {
          rep.Error(ccfp::StrCat("query ", q, " changed its verdict in pass ",
                                 pass));
        }
        if (traced) {
          t.Count("solves");
          if (!v->stages.empty() && v->stages[0].stage == "witness-cache") {
            t.Count("verify.cache_decided");
          }
          ReplayResult r = Replay(*replay[i], in, target, *v, t, q, root);
          if (r.stages != StageNames(*v) || r.outcome != v->outcome) {
            t.Count("trace.replay_mismatch");
          }
        }
        ++q;
      }
    }
    sample.Finish(probe);
    log.Add(std::move(sample));
    elapsed = ElapsedS(start);
    bool traced_done = !trace || traced;
    if (elapsed >= seconds && traced_done) break;
  }
  while (setup.size() < kSetupReps) set_up();

  // Every pass-1 verdict is checked (later passes must repeat it).
  CheckStats checks;
  Digest digest;
  std::size_t q = 0;
  std::vector<ImplicationVerdict> outcome(first.size());
  for (const Instance& in : instances) {
    for (const Dependency& target : in.targets) {
      if (q >= first.size()) break;
      std::string err =
          CheckVerdict(in.scheme, in.sigma, target, first[q], checks);
      if (!err.empty()) {
        rep.Error(ccfp::StrCat("query ", q, " (", in.kind, ", ",
                               target.ToString(*in.scheme), "): ", err));
      }
      digest.Add(static_cast<std::uint64_t>(first[q].outcome));
      outcome[q] = first[q].outcome;
      ++q;
    }
  }
  // Theorem 4.4 consistency: |= implies |=fin on every unary pair.
  q = 0;
  std::vector<std::pair<const Instance*, std::size_t>> offsets;
  for (const Instance& in : instances) {
    offsets.push_back({&in, q});
    q += in.targets.size();
  }
  for (const auto& [u, uq] : offsets) {
    if (u->kind != "unary-unrestricted") continue;
    for (const auto& [f, fq] : offsets) {
      if (f->kind != "unary-finite" || f->scheme != u->scheme) continue;
      for (std::size_t j = 0; j < u->targets.size(); ++j) {
        if (uq + j < outcome.size() && fq + j < outcome.size() &&
            outcome[uq + j] == ImplicationVerdict::kImplied &&
            outcome[fq + j] != ImplicationVerdict::kImplied) {
          rep.Error("unary: implied under |= but not under |=fin");
        }
      }
    }
  }

  std::size_t per_pass = first.size();
  rep.info.push_back(ccfp::StrCat(
      "queries_per_pass=", per_pass, " checked=", checks.checked,
      " unchecked=", checks.unchecked));
  std::string shares = ccfp::StrCat(
      "mode_share slow(chase exhausted)=", double(slow) / per_pass,
      " fast=", 1 - double(slow) / per_pass, " decided_by");
  for (const auto& [stage, n] : decided_by) {
    shares += ccfp::StrCat(" ", stage, "=", double(n) / per_pass);
  }
  rep.info.push_back(shares);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest.value());
  rep.info.push_back(ccfp::StrCat("verdict_digest=", hex));

  if (!trace) {
    AddEndToEnd(rep, Quantile(setup, 0.5), log, decided, per_pass,
                probe.times());
  } else {
    AddPerLayer(rep, t, TraceOverhead(log));
  }
  return rep;
}

// --- service_sessions -------------------------------------------------------

/// One session's life in a client's script.
struct Episode {
  SolverService::SessionKind kind;
  std::size_t pair;  ///< index into the matching ServiceInputs vector
  bool evict;        ///< evict after the first op; the next op revives
};

/// A client's pass: a fixed multiset of episodes in a seeded order — two
/// solve or Armstrong episodes per pair, four mining episodes per pair (a
/// mining open interns nothing but still fingerprints the warm data, the
/// heaviest routine op, so the p90 lands among those opens); one episode
/// of each kind evicts.
/// Only the order depends on the seed, so every seed runs the same mix.
std::vector<Episode> ClientScript(std::uint64_t seed, unsigned client) {
  SplitMix64 rng = SeededRng(seed, 16 + client);
  using Kind = SolverService::SessionKind;
  std::vector<Episode> eps;
  for (std::size_t pair = 0; pair < 3; ++pair) {
    eps.push_back({Kind::kSolve, pair, pair == 0});
    eps.push_back({Kind::kSolve, pair, false});
  }
  for (std::size_t pair = 0; pair < 2; ++pair) {
    for (int i = 0; i < 4; ++i) {
      eps.push_back({Kind::kMine, pair, i == 0 && pair == 0});
    }
    eps.push_back({Kind::kArmstrong, pair, pair == 0});
    eps.push_back({Kind::kArmstrong, pair, false});
  }
  for (std::size_t i = eps.size(); i > 1; --i) {
    std::swap(eps[i - 1], eps[rng.Below(i)]);
  }
  return eps;
}

/// What a pass-1 episode produced, checked after the run.
struct EpisodeResult {
  Episode ep;
  std::vector<Verdict> verdicts;  // solve
  std::optional<std::vector<Fd>> fds;    // mine
  std::optional<std::vector<Ind>> inds;  // mine
  std::optional<Database> armstrong;
};

struct ClientState {
  unsigned id = 0;
  Trace trace;
  PassLog log;
  SpeedProbe probe;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<EpisodeResult> first;
  std::vector<std::string> errors;
  std::uint64_t digest_first = 0;
};

class ServiceBench {
 public:
  ServiceBench(std::uint64_t seed, std::string spill_dir)
      : inputs_(MakeServiceInputs(seed)), spill_dir_(std::move(spill_dir)) {
    SolverService::Options opts;
    opts.threads = kPoolThreads;
    // Admission limits far above what kClients clients can hold open, so
    // refusals stay at 0 and never depend on timing.
    opts.max_sessions = 1024;
    opts.max_inflight = 256;
    opts.spill_dir = spill_dir_;
    service_ = std::make_unique<SolverService>(opts);
    // One anchor session per distinct (scheme, sigma[, warm]) pair builds
    // every core up front; later opens adopt them.
    for (const Instance& in : inputs_.solve) {
      anchors_.push_back(service_->OpenSolve(in.scheme, in.sigma).value());
    }
    for (const MinePair& m : inputs_.mine) {
      anchors_.push_back(service_->OpenMine(m.scheme, m.warm).value());
    }
    for (const ArmstrongPair& a : inputs_.armstrong) {
      anchors_.push_back(
          service_->OpenArmstrong(a.scheme, a.fds, a.inds).value());
    }
  }
  ~ServiceBench() {
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  const ServiceInputs& inputs() const { return inputs_; }
  SolverService& service() { return *service_; }

  /// Runs one pass of `script`; returns the pass digest. Pass-1 results
  /// land in `first` when non-null.
  std::uint64_t Pass(const std::vector<Episode>& script, ClientState& c,
                     bool traced, std::uint64_t& req,
                     std::vector<EpisodeResult>* first) {
    Digest digest;
    Trace* t = traced ? &c.trace : nullptr;
    PassSample sample;
    sample.client = c.id;
    sample.traced = traced;
    for (const Episode& ep : script) {
      EpisodeResult res{ep, {}, {}, {}, std::nullopt};
      bool revive_next = false;
      SolverService::SessionId id = 0;
      bool open = false;
      // Times one service call; the first call after an Evict is also
      // recorded as the revival span.
      auto op = [&](const char* span_name, auto&& call) {
        ++c.attempted;
        ++req;
        bool ok = sample.Time(c.probe, [&] {
          std::int64_t revive =
              revive_next && t ? t->Open("core.revive", req) : -1;
          bool done;
          {
            ScopedSpan span(t, span_name, req);
            done = call();
          }
          if (revive >= 0) t->Close(revive);
          return done;
        });
        revive_next = false;
        if (!ok) ++c.failed;
        return ok;
      };
      auto maybe_evict = [&] {
        if (!ep.evict || revive_next) return;
        op("core.evict", [&] { return service_->Evict(id).ok(); });
        revive_next = true;
      };
      switch (ep.kind) {
        case SolverService::SessionKind::kSolve: {
          const Instance& in = inputs_.solve[ep.pair];
          open = op("service.open", [&] {
            auto r = service_->OpenSolve(in.scheme, in.sigma);
            if (r.ok()) id = *r;
            return r.ok();
          });
          if (!open) break;
          for (std::size_t j = 0; j < in.targets.size(); ++j) {
            ccfp::Result<Verdict> v = ccfp::Status::OK();
            op("service.solve", [&] {
              v = service_->Solve(id, in.targets[j], QueryBudget());
              return v.ok();
            });
            if (!v.ok()) continue;
            digest.Add(static_cast<std::uint64_t>(v->outcome));
            if (first) res.verdicts.push_back(*v);
            if (j == 0) maybe_evict();
          }
          break;
        }
        case SolverService::SessionKind::kMine: {
          const MinePair& m = inputs_.mine[ep.pair];
          open = op("service.open", [&] {
            auto r = service_->OpenMine(m.scheme, m.warm);
            if (r.ok()) id = *r;
            return r.ok();
          });
          if (!open) break;
          op("mine.append",
             [&] { return service_->Append(id, m.delta).ok(); });
          maybe_evict();
          ccfp::Result<std::vector<Fd>> fds = ccfp::Status::OK();
          op("mine.mine", [&] {
            fds = service_->MineSessionFds(id, 0);
            return fds.ok();
          });
          ccfp::Result<std::vector<Ind>> inds = ccfp::Status::OK();
          op("mine.mine", [&] {
            inds = service_->MineSessionInds(id);
            return inds.ok();
          });
          if (fds.ok()) {
            digest.Add(fds->size());
            if (first) res.fds = *fds;
          }
          if (inds.ok()) {
            digest.Add(inds->size());
            if (first) res.inds = *inds;
          }
          break;
        }
        case SolverService::SessionKind::kArmstrong: {
          const ArmstrongPair& a = inputs_.armstrong[ep.pair];
          open = op("service.open", [&] {
            auto r = service_->OpenArmstrong(a.scheme, a.fds, a.inds);
            if (r.ok()) id = *r;
            return r.ok();
          });
          if (!open) break;
          for (std::size_t e = 0; e < a.extends.size(); ++e) {
            op("armstrong.extend",
               [&] { return service_->Extend(id, a.extends[e]).ok(); });
            if (e == 0) maybe_evict();
          }
          ccfp::Result<Database> db = ccfp::Status::OK();
          op("service.read", [&] {
            db = service_->ArmstrongDatabase(id);
            return db.ok();
          });
          if (db.ok()) {
            digest.Add(db->TotalTuples());
            if (first) res.armstrong = *db;
          }
          break;
        }
      }
      if (!open) continue;
      if (traced) {
        auto stats = service_->Stats(id);
        if (stats.ok()) {
          c.trace.Count("service.values_interned", stats->values_interned);
          c.trace.Count("service.sessions");
        }
      }
      op("service.close", [&] { return service_->Close(id).ok(); });
      if (first) first->push_back(std::move(res));
    }
    sample.Finish(c.probe);
    c.log.Add(std::move(sample));
    return digest.value();
  }

  /// Times SolverCore::Build for each distinct core (the traced run's
  /// view of what the service's first Open over a pair pays).
  void TraceCoreBuilds(Trace& t, std::uint64_t req) {
    for (const Instance& in : inputs_.solve) {
      ScopedSpan span(&t, "service.core_build", req);
      ccfp::SolverCore::Build(in.scheme, in.sigma).value();
    }
    for (const MinePair& m : inputs_.mine) {
      ScopedSpan span(&t, "service.core_build", req);
      ccfp::SolverCore::Build(m.scheme, {}, &m.warm).value();
    }
    for (const ArmstrongPair& a : inputs_.armstrong) {
      std::vector<Dependency> sigma;
      for (const Fd& fd : a.fds) sigma.emplace_back(fd);
      for (const Ind& ind : a.inds) sigma.emplace_back(ind);
      ScopedSpan span(&t, "service.core_build", req);
      ccfp::SolverCore::Build(a.scheme, sigma).value();
    }
  }

 private:
  ServiceInputs inputs_;
  std::string spill_dir_;
  std::unique_ptr<SolverService> service_;
  std::vector<SolverService::SessionId> anchors_;
};

/// Checks one pass-1 episode against independent recomputation.
void CheckEpisode(const ServiceInputs& in, const EpisodeResult& r,
                  CheckStats& checks, std::vector<std::string>& errors) {
  switch (r.ep.kind) {
    case SolverService::SessionKind::kSolve: {
      const Instance& inst = in.solve[r.ep.pair];
      for (std::size_t j = 0; j < r.verdicts.size(); ++j) {
        std::string err = CheckVerdict(inst.scheme, inst.sigma,
                                       inst.targets[j], r.verdicts[j], checks);
        if (!err.empty()) errors.push_back(ccfp::StrCat("service solve: ", err));
      }
      break;
    }
    case SolverService::SessionKind::kMine: {
      // Mining the accumulated data from scratch (no service, no shared
      // core, no overlay) must give the same dependencies.
      const MinePair& m = in.mine[r.ep.pair];
      Database data = m.warm;
      for (RelId rel = 0; rel < m.scheme->size(); ++rel) {
        for (const ccfp::Tuple& tup : m.delta.relation(rel).tuples()) {
          data.Insert(rel, tup);
        }
      }
      if (r.fds.has_value() && ccfp::MineFds(data, 0) != *r.fds) {
        errors.push_back("service mining: FDs differ from a fresh mine");
      }
      if (r.inds.has_value() && ccfp::MineInds(data) != *r.inds) {
        errors.push_back("service mining: INDs differ from a fresh mine");
      }
      ++checks.checked;
      break;
    }
    case SolverService::SessionKind::kArmstrong: {
      // The database must obey exactly the universe members sigma
      // implies; implication is decided by a standalone solver.
      const ArmstrongPair& a = in.armstrong[r.ep.pair];
      if (!r.armstrong.has_value()) break;
      std::vector<Dependency> sigma;
      for (const Fd& fd : a.fds) sigma.emplace_back(fd);
      for (const Ind& ind : a.inds) sigma.emplace_back(ind);
      ImplicationSolver solver(a.scheme, sigma);
      Database db = *r.armstrong;
      for (const Dependency& d : sigma) {
        if (!ccfp::Satisfies(db, d)) {
          errors.push_back("Armstrong database violates sigma");
        }
      }
      for (const auto& ext : a.extends) {
        for (const Dependency& u : ext) {
          Verdict v = solver.Solve(u).value();
          if (v.unknown()) continue;
          if (ccfp::Satisfies(db, u) != v.implied()) {
            errors.push_back(ccfp::StrCat(
                "Armstrong database disagrees with implication on ",
                u.ToString(*a.scheme)));
          }
        }
      }
      ++checks.checked;
      break;
    }
  }
}

Report RunService(std::uint64_t seed, double seconds, bool trace,
                  const std::string& spill_root) {
  Report rep;
  // Set-up: generate the inputs, start a service and build every core
  // through one anchor session per distinct pair. Timed kSetupReps / 2
  // times before the measured loop (the last one is kept) and as many
  // times after it.
  std::vector<double> setup;
  std::unique_ptr<ServiceBench> bench;
  std::vector<std::vector<Episode>> scripts;
  int reps = 0;
  SpeedProbe setup_probe;
  auto set_up = [&] {
    // The spill directory is the host's, made before the clock starts.
    std::string spill_dir = ccfp::StrCat(spill_root, "/rep", reps++);
    std::filesystem::create_directories(spill_dir);
    setup_probe.Tick(/*force=*/true);
    std::size_t at = setup_probe.mark();
    std::uint64_t t0 = NowNs();
    auto b = std::make_unique<ServiceBench>(seed, spill_dir);
    std::vector<std::vector<Episode>> sc;
    for (unsigned c = 0; c < kClients; ++c) {
      sc.push_back(ClientScript(seed, c));
    }
    double s = ElapsedS(t0);
    setup_probe.Tick(/*force=*/true);
    setup.push_back(s * setup_probe.Scale(at));
    return std::make_pair(std::move(b), std::move(sc));
  };
  for (int i = 0; i < kSetupReps / 2; ++i) {
    bench.reset();
    std::tie(bench, scripts) = set_up();
  }

  std::vector<ClientState> clients(kClients);
  std::uint64_t start = NowNs();
  std::atomic<bool> core_builds_traced{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& cs = clients[c];
      cs.id = c;
      std::uint64_t req = std::uint64_t(c) << 40;
      for (int pass = 0;; ++pass) {
        double elapsed = ElapsedS(start);
        bool traced = trace && elapsed >= seconds / 2;
        if (traced && c == 0 && !core_builds_traced.exchange(true)) {
          bench->TraceCoreBuilds(cs.trace, req);
        }
        std::uint64_t d = bench->Pass(scripts[c], cs, traced, req,
                                      pass == 0 ? &cs.first : nullptr);
        if (pass == 0) {
          cs.digest_first = d;
        } else if (d != cs.digest_first) {
          cs.errors.push_back(
              ccfp::StrCat("client ", c, " pass ", pass, " changed results"));
        }
        elapsed = ElapsedS(start);
        if (elapsed >= seconds && (!trace || traced)) break;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kSetupReps / 2; ++i) set_up();
  PassLog log;
  std::uint64_t solves = 0, decided = 0;
  Trace t;
  CheckStats checks;
  Digest digest;
  std::vector<double> kernel_ns;
  for (ClientState& cs : clients) {
    log.Merge(std::move(cs.log));
    kernel_ns.insert(kernel_ns.end(), cs.probe.times().begin(),
                     cs.probe.times().end());
    rep.attempted += cs.attempted;
    rep.failed += cs.failed;
    t.Merge(cs.trace);
    for (const std::string& e : cs.errors) rep.Error(e);
    for (const EpisodeResult& r : cs.first) {
      std::vector<std::string> errs;
      CheckEpisode(bench->inputs(), r, checks, errs);
      for (std::string& e : errs) rep.Error(std::move(e));
    }
    digest.Add(cs.digest_first);
  }
  // The decided ratio is taken over pass 1 of every client, so it is a
  // function of the seed alone.
  for (ClientState& cs : clients) {
    for (const EpisodeResult& r : cs.first) {
      for (const Verdict& v : r.verdicts) {
        ++solves;
        if (!v.unknown()) ++decided;
      }
    }
  }
  SolverService::ServiceStats s = bench->service().stats();
  t.Count("service.core_reuses", s.core_reuses);
  t.Count("service.sessions_opened", s.sessions_opened);
  t.Count("service.rejected",
          s.rejected_inflight + s.rejected_capacity + s.rejected_budget);
  t.Count("service.ops", rep.attempted);

  rep.info.push_back(ccfp::StrCat(
      "clients=", kClients, " pool_threads=", kPoolThreads,
      " cores=", s.cores, " sessions_opened=", s.sessions_opened,
      " evicted=", s.sessions_evicted, " revived=", s.sessions_revived,
      " checked=", checks.checked, " unchecked=", checks.unchecked));
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest.value());
  rep.info.push_back(ccfp::StrCat("verdict_digest=", hex));

  if (!trace) {
    AddEndToEnd(rep, Quantile(setup, 0.5), log, decided, solves, kernel_ns);
  } else {
    AddPerLayer(rep, t, TraceOverhead(log));
  }
  bench.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);
  return rep;
}

// --- command line -----------------------------------------------------------

void PrintJson(const Report& rep) {
  std::string out = ccfp::StrCat(
      "{\"correct\": ", rep.errors.empty() ? "true" : "false",
      ", \"attempted\": ", rep.attempted, ", \"failed\": ", rep.failed,
      ", \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    out += ccfp::StrCat(i ? ", " : "", "\"", m.name, "\": {\"value\": ", num,
                        ", \"unit\": \"", m.unit, "\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: implbench --workload <solve_mixed|solve_exact|"
               "service_sessions> --seed <n> --seconds <s> --trace <0|1> "
               "[--spill-dir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spill_dir = ".bench_build/implbench-spill";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spill-dir") {
      spill_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0) return Usage();

  std::printf("# host nproc=%u compiler=%s build=%s workload=%s seed=%" PRIu64
              " trace=%d query_steps=%" PRIu64 "\n",
              std::thread::hardware_concurrency(), IMPLBENCH_COMPILER,
              IMPLBENCH_BUILD_TYPE, workload.c_str(), seed, int(trace),
              kQuerySteps);
  Report rep;
  if (workload == "solve_mixed" || workload == "solve_exact") {
    rep = RunSolve(workload == "solve_exact", seed, seconds, trace);
  } else if (workload == "service_sessions") {
    rep = RunService(seed, seconds, trace,
                     ccfp::StrCat(spill_dir, "-", ::getpid()));
  } else {
    return Usage();
  }
  for (const std::string& line : rep.info) std::printf("# %s\n", line.c_str());
  for (const std::string& e : rep.errors) {
    std::printf("# WRONG: %s\n", e.c_str());
  }
  PrintJson(rep);
  return rep.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace implbench

int main(int argc, char** argv) { return implbench::Main(argc, argv); }
