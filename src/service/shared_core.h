#ifndef CCFP_SERVICE_SHARED_CORE_H_
#define CCFP_SERVICE_SHARED_CORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/workspace.h"
#include "mine/discovery.h"
#include "search/bounded.h"
#include "util/status.h"
#include "verify/witness_cache.h"

namespace ccfp {

/// The immutable, reference-counted substrate every session over one
/// (scheme, sigma [, warm data]) triple shares — the expensive capital a
/// solver session used to rebuild privately on every construction:
///
///   * a *sealed* base workspace: the value interner frozen behind a
///     shared table (core/intern.h), every warm tuple interned, and every
///     projection partition the warm-up touched compiled — a session
///     forks it for the price of copying index vectors, and the fork's
///     copy-on-write interner extends locally without ever duplicating
///     (or re-hashing) the shared value table;
///   * a thread-safe WitnessCache over sigma (verify/witness_cache.h),
///     so one session's verified refutation answers its siblings'
///     probes — opt-in per service, because shared replay makes evidence
///     history-dependent;
///   * a thread-safe BoundedSearchWorkspace (search/bounded.h), so the
///     Nth session's refutation searches compile zero key tables.
///
/// A core is deeply immutable after Build (the cache and search tables
/// mutate internally but are safe for concurrent use), so the service
/// hands out `shared_ptr<const SolverCore>` with no further locking. The
/// acceptance proof that sharing works is in the counters: a forked
/// workspace inherits the base's Stats, so a session's re-interning and
/// partition compilation read as *deltas over base_stats()* — zero for a
/// session that only touches warm state.
class SolverCore {
 public:
  /// How Build warms the base workspace before sealing it.
  struct WarmupOptions {
    /// Run the mining sweeps over the warm data so every candidate
    /// projection partition (FD lattice up to `fd.max_lhs`, IND columns,
    /// RD pairs) is compiled into the shared base. Ignored without warm
    /// data. Mining sessions forked from a pre-mined core re-mine from
    /// cached partitions alone.
    bool premine = true;
    FdMiningOptions fd;
    IndMiningOptions ind;
  };

  /// Validates sigma, interns `warm` (when provided), compiles the
  /// partitions sigma verification and (optionally) mining will touch,
  /// and seals the result. InvalidArgument on a sigma member that does
  /// not fit the scheme.
  static Result<std::shared_ptr<const SolverCore>> Build(
      SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm,
      const WarmupOptions& warmup);
  /// Build with default warm-up (premine on).
  static Result<std::shared_ptr<const SolverCore>> Build(
      SchemePtr scheme, std::vector<Dependency> sigma,
      const Database* warm = nullptr);

  /// InvalidArgument unless every sigma member fits the scheme and the
  /// warm data (when given) has the scheme's relation count and arities.
  /// Build runs it first; callers that render the identity run it before.
  static Status ValidateInputs(const DatabaseScheme& scheme,
                               const std::vector<Dependency>& sigma,
                               const Database* warm = nullptr);
  /// Canonical rendering of the substrate's inputs: scheme + sigma + warm
  /// data. Equal strings mean equal substrates — the service's dedup key.
  /// Sigma order matters deliberately: the solver's stage pipeline and the
  /// witness cache verify sigma in order, so differently-ordered sigmas
  /// are different (if logically equal) substrates. Inputs must have
  /// passed ValidateInputs.
  static std::string IdentityString(const DatabaseScheme& scheme,
                                    const std::vector<Dependency>& sigma,
                                    const Database* warm = nullptr);
  /// 64-bit FNV-1a fingerprint of IdentityString (a label for logs and
  /// stats; never a dedup key on its own).
  static std::uint64_t Identity(const DatabaseScheme& scheme,
                                const std::vector<Dependency>& sigma,
                                const Database* warm = nullptr);

  const DatabaseScheme& scheme() const { return *scheme_; }
  const SchemePtr& scheme_ptr() const { return scheme_; }
  const std::vector<Dependency>& sigma() const { return sigma_; }
  /// SchemeFingerprint(scheme) — the service's shard routing key.
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t identity() const { return identity_; }

  /// The sealed base workspace (frozen interner, compiled partitions).
  const InternedWorkspace& base() const { return base_; }
  /// Substrate counters at seal time — the baseline session deltas are
  /// measured against.
  const InternedWorkspace::Stats& base_stats() const { return base_stats_; }

  /// A cheap mutable overlay: shares the frozen interner table, copies
  /// the (small) index state, inherits the compiled partitions. See
  /// InternedWorkspace::Fork for what is reset (journal, cursors, chain
  /// identity).
  InternedWorkspace ForkWorkspace() const { return base_.Fork(); }

  /// Shared, thread-safe caches (mutable through a const core: both are
  /// internally synchronized and observationally transparent).
  WitnessCache& witness_cache() const { return witness_cache_; }
  BoundedSearchWorkspace& search_tables() const { return search_tables_; }

 private:
  SolverCore(SchemePtr scheme, std::vector<Dependency> sigma);

  SchemePtr scheme_;
  std::vector<Dependency> sigma_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t identity_ = 0;
  InternedWorkspace base_;
  InternedWorkspace::Stats base_stats_;
  mutable WitnessCache witness_cache_;
  mutable BoundedSearchWorkspace search_tables_;
};

}  // namespace ccfp

#endif  // CCFP_SERVICE_SHARED_CORE_H_
