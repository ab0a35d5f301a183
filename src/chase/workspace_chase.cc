#include "chase/workspace_chase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/fault.h"

namespace ccfp {

WorkspaceChase::WorkspaceChase(InternedWorkspace* ws, std::vector<Fd> fds,
                               std::vector<Ind> inds)
    : ws_(ws), fds_(std::move(fds)), inds_(std::move(inds)) {
  const DatabaseScheme& scheme = ws_->scheme();
  for (const Fd& fd : fds_) {
    Status st = Validate(scheme, fd);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (const Ind& ind : inds_) {
    Status st = Validate(scheme, ind);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  std::size_t n = scheme.size();
  fds_by_rel_.resize(n);
  for (std::uint32_t i = 0; i < fds_.size(); ++i) {
    fds_by_rel_[fds_[i].rel].push_back(i);
  }
  fd_index_.resize(fds_.size());
  ind_states_.resize(inds_.size());
  inds_by_lhs_rel_.resize(n);
  inds_by_rhs_rel_.resize(n);
  for (std::uint32_t i = 0; i < inds_.size(); ++i) {
    inds_by_lhs_rel_[inds_[i].lhs_rel].push_back(i);
    inds_by_rhs_rel_[inds_[i].rhs_rel].push_back(i);
  }
  queued_.resize(n);
  admitted_.resize(n, 0);
  admit_cursor_.resize(n, 0);
  feed_cursor_ = ws_->RegisterFeedCursor();
}

WorkspaceChase::~WorkspaceChase() { ws_->ReleaseFeedCursor(feed_cursor_); }

Status WorkspaceChase::BudgetCheckpoint() {
  if (FaultFires(FaultSite::kEngineExhaust)) {
    return Status::ResourceExhausted("injected chase exhaustion");
  }
  // Cancellation is checked every call (not behind the tick gate): a
  // raced chase should die promptly once the other probe is decisive.
  if (options_->cancel != nullptr && options_->cancel->exhausted()) {
    return Status::ResourceExhausted("chase cancelled by racing probe");
  }
  if ((checkpoint_tick_ & 63) != 0) {
    ++checkpoint_tick_;
    return Status::OK();
  }
  // A trip leaves the tick in place: the resumed Run re-checks at once.
  if (options_->deadline.has_value() &&
      std::chrono::steady_clock::now() >= *options_->deadline) {
    return Status::ResourceExhausted("chase deadline exceeded");
  }
  if (options_->max_bytes != UINT64_MAX &&
      ws_->MemoryUsage().Total() > options_->max_bytes) {
    return Status::ResourceExhausted("chase byte ceiling exceeded");
  }
  ++checkpoint_tick_;
  return Status::OK();
}

void WorkspaceChase::EnqueueFdDirty(RelId rel, std::uint32_t idx) {
  std::vector<std::uint8_t>& q = queued_[rel];
  if (q.size() <= idx) q.resize(ws_->size(rel), 0);
  if (q[idx]) return;
  q[idx] = 1;
  fd_dirty_.push_back(WorkspaceTupleRef{rel, idx});
}

void WorkspaceChase::RegisterRhsProjections(RelId rel, std::uint32_t idx) {
  for (std::uint32_t ind_id : inds_by_rhs_rel_[rel]) {
    ind_states_[ind_id].rhs_keys.insert(
        ws_->CanonicalProjection(rel, idx, inds_[ind_id].rhs));
  }
}

void WorkspaceChase::AdmitSlot(RelId rel, std::uint32_t idx) {
  RegisterRhsProjections(rel, idx);
  EnqueueFdDirty(rel, idx);
  if (admitted_[rel] <= idx) admitted_[rel] = idx + 1;
}

void WorkspaceChase::AdmitAppended() {
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    std::uint64_t end = ws_->EventCount(rel);
    if (admit_cursor_[rel] < ws_->FeedBase(rel)) {
      // Behind the compaction horizon (a forced TrimFeedTo outran us):
      // the feed delta is gone, but between Runs outside parties only
      // append, so scanning the unadmitted slot suffix recovers exactly
      // the lost events.
      std::uint32_t size = static_cast<std::uint32_t>(ws_->size(rel));
      for (std::uint32_t idx = admitted_[rel]; idx < size; ++idx) {
        AdmitSlot(rel, idx);
      }
    } else {
      for (std::uint64_t seq = admit_cursor_[rel]; seq < end; ++seq) {
        const WorkspaceEvent& ev = ws_->event(rel, seq);
        // The chase's own appends were admitted inline (ProbeInd) and its
        // own rewrites/kills are tracked by the dirty worklists; only
        // appends published by outside parties are news.
        if (ev.kind == WorkspaceEventKind::kAppend &&
            ev.idx >= admitted_[rel]) {
          AdmitSlot(rel, ev.idx);
        }
      }
    }
    admit_cursor_[rel] = end;
    ws_->AdvanceFeedCursor(feed_cursor_, rel, end);
  }
}

/// Probes one (canonical, alive) slot against one FD's persistent lhs-key
/// index, merging right-hand sides on a key hit.
Status WorkspaceChase::ProbeFd(WorkspaceTupleRef ref, std::size_t fd_pos) {
  const std::uint32_t fd_id = fds_by_rel_[ref.rel][fd_pos];
  const Fd& fd = fds_[fd_id];
  const RelId rel = ref.rel;
  const std::uint32_t idx = ref.idx;
  IdTuple key = ws_->CanonicalProjection(rel, idx, fd.lhs);
  FdIndexShard& index =
      fd_index_[fd_id][IdTupleHash{}(key) & (kFdIndexShards - 1)];
  auto [it, inserted] = index.try_emplace(std::move(key), idx);
  if (inserted || it->second == idx) return Status::OK();
  std::uint32_t rep = it->second;
  // The entry may be stale: the representative's key can have drifted
  // since insertion (its ids merged). A drifted rep was dirtied by the
  // merge and will re-index itself under its new key, so just take over.
  if (ws_->CanonicalProjection(rel, rep, fd.lhs) != it->first) {
    it->second = idx;
    return Status::OK();
  }
  return MergeFdRhs(FdProbe{ref, fd_pos, rep});
}

Status WorkspaceChase::MergeFdRhs(const FdProbe& probe) {
  const Fd& fd = fds_[fds_by_rel_[probe.ref.rel][probe.fd_pos]];
  const IdTuple& t = ws_->tuple(probe.ref.rel, probe.ref.idx);
  const IdTuple& rep_t = ws_->tuple(probe.ref.rel, probe.rep);
  for (AttrId y : fd.rhs) {
    ValueId a = ws_->Canon(t[y]);
    ValueId b = ws_->Canon(rep_t[y]);
    if (a == b) continue;
    if (steps_ >= options_->max_steps) {
      interrupted_fd_ = probe;
      return Status::ResourceExhausted("chase step budget exhausted");
    }
    InternedWorkspace::MergeResult u = ws_->MergeValues(a, b);
    if (u.clash) {
      failed_ = true;
      return Status::OK();
    }
    ++fd_merges_;
    ++steps_;
    // Dirty every slot that stores the losing id — the delta the merge
    // actually touches — then hand its occurrence list to the winner.
    for (const WorkspaceTupleRef& ref : ws_->occurrences(u.loser)) {
      EnqueueFdDirty(ref.rel, ref.idx);
    }
    ws_->RerouteOccurrences(u.loser, u.winner);
  }
  return Status::OK();
}

Status WorkspaceChase::ProbeFds(WorkspaceTupleRef ref, std::size_t from) {
  for (std::size_t pos = from; pos < fds_by_rel_[ref.rel].size(); ++pos) {
    CCFP_RETURN_NOT_OK(ProbeFd(ref, pos));
    if (failed_ || !ws_->alive(ref.rel, ref.idx)) break;  // merged away
  }
  return Status::OK();
}

/// Pops and fully processes the front dirty slot: re-canonicalize,
/// re-deduplicate, and re-probe it against every FD on its relation.
Status WorkspaceChase::DrainOneFdSlot() {
  // Checked per slot, *inside* the FD fixpoint: one huge round can no
  // longer blow past the deadline or the byte ceiling unobserved.
  // Checking before the pop keeps exhaustion trivially resumable.
  CCFP_RETURN_NOT_OK(BudgetCheckpoint());
  WorkspaceTupleRef ref = fd_dirty_.front();
  fd_dirty_.pop_front();
  queued_[ref.rel][ref.idx] = 0;
  if (!ws_->alive(ref.rel, ref.idx)) return Status::OK();
  InternedWorkspace::CanonOutcome c =
      ws_->CanonicalizeTuple(ref.rel, ref.idx);
  if (c == InternedWorkspace::CanonOutcome::kKilled) return Status::OK();
  if (c == InternedWorkspace::CanonOutcome::kRewritten) {
    RegisterRhsProjections(ref.rel, ref.idx);
    for (std::uint32_t ind_id : inds_by_lhs_rel_[ref.rel]) {
      ind_states_[ind_id].dirty.push_back(ref.idx);
    }
  }
  return ProbeFds(ref, 0);
}

/// Drains the dirty worklist: re-canonicalize, re-deduplicate, and
/// re-probe each touched slot until the FD fixpoint is reached.
Status WorkspaceChase::DrainFdDirty() {
  while (!fd_dirty_.empty() && !failed_) {
    CCFP_RETURN_NOT_OK(DrainOneFdSlot());
  }
  return Status::OK();
}

Status WorkspaceChase::DrainFdDirtyParallel(TaskPool& pool) {
  while (!fd_dirty_.empty() && !failed_) {
    if (fd_dirty_.size() < kMinParallelFdRound || fds_.empty()) {
      // Too little work to amortize the snapshot + fork/join; drain one
      // slot and re-check (a merge cascade can regrow the queue past the
      // threshold, re-entering the parallel path mid-drain).
      CCFP_RETURN_NOT_OK(DrainOneFdSlot());
      continue;
    }
    CCFP_RETURN_NOT_OK(ParallelFdRound(pool));
  }
  return Status::OK();
}

/// One parallel FD round over the current queue snapshot.
///
/// Shape: (a) a *serial* pre-pass canonicalizes every queued slot — the
/// union-find is only ever mutated single-threaded; (b) workers compute
/// canonical lhs keys over the now-frozen union-find and speculatively
/// probe the per-(FD, shard) indexes they exclusively own; (c) if no probe
/// found merge work anywhere, the speculative inserts ARE the sequential
/// result (same keys, same within-shard round order, cross-shard keys
/// disjoint) and the round is done; otherwise every insert is rolled back
/// and the round replays through the ordinary sequential probe path, so
/// merge value-pairs — and hence the final database bytes — are identical
/// to the sequential engine. Stale index representatives also force the
/// replay: a takeover changes rep identity, which can reorder later merge
/// pairs.
Status WorkspaceChase::ParallelFdRound(TaskPool& pool) {
  // Snapshot the round; queued_ flags stay SET so merge-time re-enqueues
  // of still-pending round slots no-op, exactly as when the slots sat in
  // the deque.
  std::vector<WorkspaceTupleRef> round(fd_dirty_.begin(), fd_dirty_.end());
  fd_dirty_.clear();

  // --- Serial pre-pass: canonicalize, register projections, build the
  // live list. Nothing is probed yet, so a budget trip restores the whole
  // round (earlier canonicalizations are idempotent on resume).
  std::vector<WorkspaceTupleRef> live;
  live.reserve(round.size());
  std::vector<WorkspaceTupleRef> dead;
  for (const WorkspaceTupleRef& ref : round) {
    Status st = BudgetCheckpoint();
    if (!st.ok()) {
      fd_dirty_.assign(round.begin(), round.end());
      return st;
    }
    if (!ws_->alive(ref.rel, ref.idx)) {
      dead.push_back(ref);
      continue;
    }
    InternedWorkspace::CanonOutcome c =
        ws_->CanonicalizeTuple(ref.rel, ref.idx);
    if (c == InternedWorkspace::CanonOutcome::kKilled) {
      dead.push_back(ref);
      continue;
    }
    if (c == InternedWorkspace::CanonOutcome::kRewritten) {
      RegisterRhsProjections(ref.rel, ref.idx);
      for (std::uint32_t ind_id : inds_by_lhs_rel_[ref.rel]) {
        ind_states_[ind_id].dirty.push_back(ref.idx);
      }
    }
    live.push_back(ref);
  }
  // Dead slots leave the round exactly as a sequential pop would drop
  // them. Their flags were kept set until here so the exhausted-pre-pass
  // restore above stays flag/deque consistent.
  for (const WorkspaceTupleRef& ref : dead) queued_[ref.rel][ref.idx] = 0;
  if (live.empty()) return Status::OK();

  // --- Stage 1 (parallel, frozen reads): canonical lhs key + shard hash
  // per (live slot, FD). The pre-pass left every live tuple canonical and
  // no merge runs before the replay decision, so read-only union-find
  // traversal is race-free.
  struct Probe {
    IdTuple key;
    std::size_t hash = 0;
    std::uint32_t fd_id = 0;
    std::uint32_t live_idx = 0;  // index into `live` — the round order
  };
  std::vector<std::vector<Probe>> per_slot(live.size());
  pool.ParallelFor(live.size(), [&](std::size_t i) {
    const WorkspaceTupleRef& ref = live[i];
    for (std::uint32_t fd_id : fds_by_rel_[ref.rel]) {
      Probe p;
      p.fd_id = fd_id;
      p.live_idx = static_cast<std::uint32_t>(i);
      ws_->CanonicalProjectionReadOnly(ref.rel, ref.idx, fds_[fd_id].lhs,
                                       p.key);
      p.hash = IdTupleHash{}(p.key);
      per_slot[i].push_back(std::move(p));
    }
  });

  // Group probes by (FD, shard), preserving round order within each group.
  std::vector<std::vector<Probe*>> buckets(fds_.size() * kFdIndexShards);
  for (std::vector<Probe>& slot_probes : per_slot) {
    for (Probe& p : slot_probes) {
      buckets[p.fd_id * kFdIndexShards + (p.hash & (kFdIndexShards - 1))]
          .push_back(&p);
    }
  }
  std::vector<std::uint32_t> active;
  for (std::uint32_t b = 0; b < buckets.size(); ++b) {
    if (!buckets[b].empty()) active.push_back(b);
  }

  // --- Stage 2 (parallel, exclusive shard ownership): speculative
  // try_emplace in round order, with a per-task undo log. Any hit that
  // would merge — or a stale representative — flags the round for replay.
  std::atomic<bool> replay{false};
  std::vector<std::vector<Probe*>> undo(active.size());
  pool.ParallelFor(active.size(), [&](std::size_t a) {
    std::uint32_t b = active[a];
    std::uint32_t fd_id = b / kFdIndexShards;
    const Fd& fd = fds_[fd_id];
    FdIndexShard& index = fd_index_[fd_id][b % kFdIndexShards];
    for (Probe* p : buckets[b]) {
      if (replay.load(std::memory_order_relaxed)) return;
      const WorkspaceTupleRef& ref = live[p->live_idx];
      auto [it, inserted] = index.try_emplace(p->key, ref.idx);
      if (inserted) {
        undo[a].push_back(p);
        continue;
      }
      if (it->second == ref.idx) continue;
      IdTuple rep_key;
      ws_->CanonicalProjectionReadOnly(ref.rel, it->second, fd.lhs,
                                       rep_key);
      if (rep_key != it->first) {
        replay.store(true, std::memory_order_relaxed);
        return;
      }
      const IdTuple& t = ws_->tuple(ref.rel, ref.idx);
      const IdTuple& rep_t = ws_->tuple(ref.rel, it->second);
      for (AttrId y : fd.rhs) {
        if (ws_->CanonReadOnly(t[y]) != ws_->CanonReadOnly(rep_t[y])) {
          replay.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  });

  if (!replay.load(std::memory_order_acquire)) {
    // No merge anywhere: the speculative inserts are exactly what the
    // sequential probes would have left behind. Keep them; the round is
    // fully processed.
    for (const WorkspaceTupleRef& ref : live) queued_[ref.rel][ref.idx] = 0;
    return Status::OK();
  }
  // Roll every insert back — try_emplace was the only mutation, so this
  // restores the round-start index byte-for-byte — then replay the round
  // through the authoritative sequential path.
  for (std::size_t a = 0; a < active.size(); ++a) {
    std::uint32_t b = active[a];
    FdIndexShard& index = fd_index_[b / kFdIndexShards][b % kFdIndexShards];
    for (Probe* p : undo[a]) index.erase(p->key);
  }
  return ReplayRoundSequential(live);
}

/// Sequential replay of a parallel round that found merge work: the same
/// per-slot processing as DrainOneFdSlot, over the live list in round
/// order. The tail-restore bookkeeping reproduces the sequential queue
/// exactly — sequential resume order is [interrupted probe, unprocessed
/// round slots, merge-added slots]; the probe is held in interrupted_fd_
/// and merge-added slots are already in the deque, so the tail goes to
/// the *front*.
Status WorkspaceChase::ReplayRoundSequential(
    const std::vector<WorkspaceTupleRef>& live) {
  for (std::size_t i = 0; i < live.size(); ++i) {
    Status st = BudgetCheckpoint();
    if (!st.ok()) {
      fd_dirty_.insert(fd_dirty_.begin(), live.begin() + i, live.end());
      return st;
    }
    WorkspaceTupleRef ref = live[i];
    queued_[ref.rel][ref.idx] = 0;
    if (!ws_->alive(ref.rel, ref.idx)) continue;
    // Usually kUnchanged (the pre-pass canonicalized this slot); an
    // earlier replayed slot's merge can have re-dirtied it, in which case
    // this is the sequential engine's own catch-up step.
    InternedWorkspace::CanonOutcome c =
        ws_->CanonicalizeTuple(ref.rel, ref.idx);
    if (c == InternedWorkspace::CanonOutcome::kKilled) continue;
    if (c == InternedWorkspace::CanonOutcome::kRewritten) {
      RegisterRhsProjections(ref.rel, ref.idx);
      for (std::uint32_t ind_id : inds_by_lhs_rel_[ref.rel]) {
        ind_states_[ind_id].dirty.push_back(ref.idx);
      }
    }
    Status probe = ProbeFds(ref, 0);
    if (!probe.ok() || failed_) {
      fd_dirty_.insert(fd_dirty_.begin(), live.begin() + i + 1, live.end());
      return probe;
    }
  }
  return Status::OK();
}

/// Fires one IND on one lhs slot: if its canonical projection is not yet
/// present on the rhs, create the witness with fresh-null padding.
Status WorkspaceChase::ProbeInd(std::uint32_t ind_id, std::uint32_t idx,
                                bool* any) {
  const Ind& ind = inds_[ind_id];
  if (!ws_->alive(ind.lhs_rel, idx)) return Status::OK();
  CCFP_RETURN_NOT_OK(BudgetCheckpoint());
  IdTuple key = ws_->CanonicalProjection(ind.lhs_rel, idx, ind.lhs);
  std::unordered_set<IdTuple, IdTupleHash>& rhs_keys =
      ind_states_[ind_id].rhs_keys;
  if (rhs_keys.count(key) != 0) return Status::OK();
  // Every refusal below happens before the slot's witness exists, so a
  // resumed Run re-probes this slot and creates the witness then.
  if (FaultFires(FaultSite::kArenaAppend)) {
    return Status::ResourceExhausted("injected arena allocation failure");
  }
  if (steps_ >= options_->max_steps ||
      ws_->TotalAliveTuples() >= options_->max_tuples) {
    return Status::ResourceExhausted("chase budget exhausted");
  }
  auto it = rhs_keys.insert(std::move(key)).first;
  std::size_t arity = ws_->scheme().relation(ind.rhs_rel).arity();
  IdTuple fresh(arity, 0);
  // Fresh labels for every position, then overwrite the constrained ones
  // — byte-for-byte the naive engine's numbering, so all engines produce
  // identically-labeled databases on deterministic inputs.
  for (std::size_t a = 0; a < arity; ++a) {
    fresh[a] = ws_->InternFreshNull();
  }
  for (std::size_t i = 0; i < ind.width(); ++i) {
    fresh[ind.rhs[i]] = (*it)[i];
  }
  *any = true;
  if (ws_->Append(ind.rhs_rel, std::move(fresh))) {
    std::uint32_t new_idx =
        static_cast<std::uint32_t>(ws_->size(ind.rhs_rel)) - 1;
    AdmitSlot(ind.rhs_rel, new_idx);
    ++ind_tuples_;
    ++steps_;
  }
  return Status::OK();
}

/// One pass over the INDs in declaration order — each IND only looks at
/// its delta: slots beyond its cursor plus slots whose canonical form
/// changed since its last pass.
Status WorkspaceChase::IndPass() {
  for (; ind_pass_.ind_id < inds_.size(); ++ind_pass_.ind_id) {
    const std::uint32_t ind_id = ind_pass_.ind_id;
    const Ind& ind = inds_[ind_id];
    IndState& is = ind_states_[ind_id];
    if (!ind_pass_.end.has_value()) {
      ind_pass_.end = static_cast<std::uint32_t>(ws_->size(ind.lhs_rel));
    }
    const std::uint32_t end = *ind_pass_.end;
    std::vector<std::uint32_t> touched;
    touched.swap(is.dirty);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    // Ascending over touched-then-new matches the naive full scan's tuple
    // order (touched slots all precede the cursor).
    for (std::size_t t = 0; t < touched.size(); ++t) {
      if (touched[t] >= is.cursor) continue;  // the range below covers it
      Status st = ProbeInd(ind_id, touched[t], &ind_pass_.any);
      if (!st.ok()) {
        // Budget tripped before this slot's witness: put it and the
        // unprocessed tail back on the dirty list; the resumed pass
        // continues from it. The cursor was not advanced.
        is.dirty.insert(is.dirty.end(), touched.begin() + t, touched.end());
        return st;
      }
    }
    for (std::uint32_t idx = is.cursor; idx < end; ++idx) {
      Status st = ProbeInd(ind_id, idx, &ind_pass_.any);
      if (!st.ok()) {
        is.cursor = idx;  // slots below were scanned; resume at this one
        return st;
      }
    }
    is.cursor = end;
    ind_pass_.end.reset();
  }
  return Status::OK();
}

WorkspaceChaseStats WorkspaceChase::stats() const {
  WorkspaceChaseStats s = done_;
  s.outcome = failed_ ? ChaseOutcome::kFailed : ChaseOutcome::kFixpoint;
  s.fd_merges += fd_merges_;
  s.ind_tuples += ind_tuples_;
  s.steps += steps_;
  return s;
}

Result<WorkspaceChaseStats> WorkspaceChase::Run(const ChaseOptions& options) {
  options_ = &options;
  done_ = stats();
  fd_merges_ = ind_tuples_ = steps_ = 0;
  // Executor selection: a caller-owned pool wins; otherwise threads > 1
  // (or 0 = hardware concurrency) spins up a transient pool for this Run.
  TaskPool* pool = options.pool;
  std::optional<TaskPool> local_pool;
  if (pool == nullptr && options.threads != 1) {
    unsigned n = options.threads != 0 ? options.threads
                                      : std::thread::hardware_concurrency();
    if (n > 1) {
      local_pool.emplace(n);
      pool = &*local_pool;
    }
  }
  AdmitAppended();
  if (interrupted_fd_.has_value() && !failed_) {
    FdProbe probe = *interrupted_fd_;
    interrupted_fd_.reset();
    CCFP_RETURN_NOT_OK(MergeFdRhs(probe));
    if (!failed_ && ws_->alive(probe.ref.rel, probe.ref.idx)) {
      CCFP_RETURN_NOT_OK(ProbeFds(probe.ref, probe.fd_pos + 1));
    }
  }
  while (!failed_) {
    if (!ind_pass_.open) {
      Status drained = pool != nullptr && pool->threads() > 1
                           ? DrainFdDirtyParallel(*pool)
                           : DrainFdDirty();
      CCFP_RETURN_NOT_OK(drained);
      if (failed_) break;
      ind_pass_ = IndPassState{};
      ind_pass_.open = true;
    }
    CCFP_RETURN_NOT_OK(IndPass());
    bool any = ind_pass_.any;
    ind_pass_ = IndPassState{};
    if (!any) break;
  }
  // Everything published so far — including this Run's own appends,
  // rewrites, and kills — is incorporated; expose that via the cursor so
  // mid-chase verifiers know the chase is caught up with the feed, and
  // advance the registered cursor so compaction can reclaim the prefix.
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    admit_cursor_[rel] = ws_->EventCount(rel);
    ws_->AdvanceFeedCursor(feed_cursor_, rel, admit_cursor_[rel]);
  }
  WorkspaceChaseStats stats;
  stats.outcome = failed_ ? ChaseOutcome::kFailed : ChaseOutcome::kFixpoint;
  stats.fd_merges = fd_merges_;
  stats.ind_tuples = ind_tuples_;
  stats.steps = steps_;
  return stats;
}

}  // namespace ccfp
