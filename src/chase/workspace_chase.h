#ifndef CCFP_CHASE_WORKSPACE_CHASE_H_
#define CCFP_CHASE_WORKSPACE_CHASE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/chase.h"
#include "core/dependency.h"
#include "core/workspace.h"
#include "util/status.h"

namespace ccfp {

/// Counters of one WorkspaceChase::Run call (same meanings as ChaseResult).
struct WorkspaceChaseStats {
  ChaseOutcome outcome = ChaseOutcome::kFixpoint;
  std::uint64_t fd_merges = 0;
  std::uint64_t ind_tuples = 0;
  std::uint64_t steps = 0;
};

/// The delta-driven FD+IND chase engine (PR 1/2's incremental engine),
/// re-hosted on a caller-owned InternedWorkspace — the substrate keeps the
/// interner, union-find, tuple stores, and occurrence lists; this class
/// keeps only the rule machinery (per-FD lhs-key indexes, per-IND rhs
/// projection sets, dirty worklists, admission cursors).
///
/// The payoff over the one-shot engine is that the chase is *resumable*:
/// after Run() reaches a fixpoint, the caller can append more tuples to the
/// workspace (repair seeds, new probes) and Run() again — only the delta is
/// chased, nothing is re-interned, and the persistent indexes carry over.
/// This is what retires the per-round full re-intern in the Armstrong
/// build -> chase -> verify -> repair loop.
///
/// Invariants: the workspace must not be mutated by anyone else between
/// construction and the last Run() except by appending tuples; after a Run
/// returns kFixpoint every tuple is canonical, so workspace model checking
/// (Satisfies / partitions) is valid until the next append.
///
/// The chase is itself a consumer of the workspace *change feed*: between
/// Runs it admits outside appends by replaying the feed from its cursor
/// (`event_cursor`), and its own merges surface as rewrite/kill events
/// other consumers can replay. In particular, an
/// IncrementalVerifier (verify/verifier.h) attached to the same workspace
/// can verify *mid-chase* — after any Run that reaches kFixpoint — in
/// time proportional to that Run's delta: surgical partition repair means
/// the fixpoint's merges no longer invalidate a single cached partition.
class WorkspaceChase {
 public:
  /// CHECK-fails if any dependency is invalid for the workspace's scheme.
  WorkspaceChase(InternedWorkspace* ws, std::vector<Fd> fds,
                 std::vector<Ind> inds);
  /// Releases the chase's registered feed cursor (so it stops pinning
  /// compaction). The workspace must outlive the chase.
  ~WorkspaceChase();

  WorkspaceChase(const WorkspaceChase&) = delete;
  WorkspaceChase& operator=(const WorkspaceChase&) = delete;

  const std::vector<Fd>& fds() const { return fds_; }
  const std::vector<Ind>& inds() const { return inds_; }

  /// The chase's position in `rel`'s change feed: every event with a
  /// lower sequence number is incorporated into its rule indexes. After a
  /// Run returns kFixpoint this equals the workspace's EventCount(rel);
  /// a ResourceExhausted Run may leave it behind (the next Run resumes).
  std::uint64_t event_cursor(RelId rel) const {
    return admit_cursor_[rel];
  }

  /// Chases everything appended since the last Run (plus its consequences)
  /// to a Sigma fixpoint or failure. Budgets apply per call; `max_tuples`
  /// bounds the workspace's total alive tuples. A kFailed outcome (two
  /// constants merged) is sticky: the workspace is left mid-chase and
  /// further Runs return kFailed immediately. A ResourceExhausted return
  /// stops *before* the step that would cross a budget and remembers the
  /// interrupted FD probe or IND pass, so the next Run continues exactly
  /// there: Run(a) exhausted, then Run(b) with no appends in between,
  /// takes the same steps in the same order as one Run(a' + b), where a'
  /// is what the first Run consumed (stats().steps). The deadline and the
  /// byte ceiling are sampled at periodic checkpoints, so only the step
  /// and tuple budgets resume step-exactly. The workspace must not be
  /// model-checked while exhausted (tuples may be stale).
  Result<WorkspaceChaseStats> Run(const ChaseOptions& options);

  /// Work done across every Run so far, exhausted Runs included. The
  /// outcome is kFailed once the chase failed, kFixpoint otherwise (an
  /// exhausted chase has not reached one; only an OK Run says it has).
  WorkspaceChaseStats stats() const;

 private:
  struct IndState {
    /// Canonical rhs projections present in the rhs relation. Insert-only:
    /// entries whose ids have since been merged away contain non-root ids
    /// and can never collide with a canonical probe key, so stale entries
    /// are harmless.
    std::unordered_set<IdTuple, IdTupleHash> rhs_keys;
    /// Lhs slots whose canonical form changed since the last pass.
    std::vector<std::uint32_t> dirty;
    /// Lhs slots below this index were scanned in earlier passes.
    std::uint32_t cursor = 0;
  };

  /// Periodic budget checkpoint for the inner loops: consults the
  /// kEngineExhaust fault site every call and, every 64th call, the
  /// wall-clock deadline and the workspace byte ceiling. Returning
  /// ResourceExhausted here is always resumable (callers requeue).
  Status BudgetCheckpoint();
  void EnqueueFdDirty(RelId rel, std::uint32_t idx);
  void RegisterRhsProjections(RelId rel, std::uint32_t idx);
  /// Takes a freshly appended slot under management: rhs projections into
  /// every IND targeting its relation, plus an FD-dirty enqueue.
  void AdmitSlot(RelId rel, std::uint32_t idx);
  /// Replays the change feed from the admission cursors, admitting every
  /// append published since the last call (rewrites/kills are the chase's
  /// own moves and already tracked by its worklists).
  void AdmitAppended();
  /// One slot against one FD on its relation: `fd_pos` indexes
  /// fds_by_rel_[ref.rel]; `rep` is the slot holding the same lhs key.
  struct FdProbe {
    WorkspaceTupleRef ref;
    std::size_t fd_pos = 0;
    std::uint32_t rep = 0;
  };
  /// Looks the slot's lhs key up in the FD's index and merges right-hand
  /// sides on a hit (MergeFdRhs).
  Status ProbeFd(WorkspaceTupleRef ref, std::size_t fd_pos);
  /// Merges the slot's rhs values into the representative's. Stops before
  /// a merge that would cross the step budget, remembering the probe in
  /// interrupted_fd_ (merged attributes compare equal on re-entry).
  Status MergeFdRhs(const FdProbe& probe);
  /// Probes `ref` against the FDs on its relation from `from` on, until
  /// the chase fails or the slot merges away.
  Status ProbeFds(WorkspaceTupleRef ref, std::size_t from);
  /// Pops and fully processes dirty slots (canonicalize, re-register,
  /// probe every FD on its relation) until the FD fixpoint.
  Status DrainFdDirty();
  Status ProbeInd(std::uint32_t ind_id, std::uint32_t idx, bool* any);
  /// Runs (or continues) the IND pass in ind_pass_.
  Status IndPass();

  InternedWorkspace* ws_;
  std::vector<Fd> fds_;
  std::vector<Ind> inds_;

  std::vector<std::vector<std::uint32_t>> fds_by_rel_;
  /// Per FD: canonical lhs key -> representative slot.
  std::vector<std::unordered_map<IdTuple, std::uint32_t, IdTupleHash>>
      fd_index_;
  std::vector<IndState> ind_states_;
  std::vector<std::vector<std::uint32_t>> inds_by_lhs_rel_;
  std::vector<std::vector<std::uint32_t>> inds_by_rhs_rel_;

  std::deque<WorkspaceTupleRef> fd_dirty_;
  std::vector<std::vector<std::uint8_t>> queued_;  // per rel, per slot
  std::vector<std::uint32_t> admitted_;            // per rel: admitted prefix
  std::vector<std::uint64_t> admit_cursor_;        // per rel: feed position
  InternedWorkspace::FeedCursorId feed_cursor_ = 0;  ///< pins compaction
  bool failed_ = false;

  /// Where an exhausted Run stopped: an FD probe cut between two rhs
  /// merges, or an IND pass cut between two probes. The next Run finishes
  /// it before anything else, so no FD drain slips into an open IND pass.
  std::optional<FdProbe> interrupted_fd_;
  struct IndPassState {
    bool open = false;
    std::uint32_t ind_id = 0;            ///< the IND being processed
    std::optional<std::uint32_t> end;    ///< its lhs range end, fixed at start
    bool any = false;                    ///< a witness was created this pass
  };
  IndPassState ind_pass_;

  // Per-Run budget counters (reset by Run; folded into done_ first).
  const ChaseOptions* options_ = nullptr;
  std::uint64_t fd_merges_ = 0;
  std::uint64_t ind_tuples_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t checkpoint_tick_ = 0;
  WorkspaceChaseStats done_;  ///< counters of every earlier Run
};

}  // namespace ccfp

#endif  // CCFP_CHASE_WORKSPACE_CHASE_H_
