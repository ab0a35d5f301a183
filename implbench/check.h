// Verdict checks, run outside every timed region. Each check takes a
// path independent of the one the solver used to reach its verdict:
//
//   * every kNotImplied counterexample is re-checked with Satisfies on a
//     fresh Database copy (the full-sweep model checker, not the
//     solver's incremental watchers);
//   * every pure-FD verdict is re-derived by a small closure oracle;
//   * every IND proof is re-Check()ed;
//   * no kImplied outside the exact FD/IND routes may be refuted by a
//     base-shape bounded search.
//
// A failed check makes the run incorrect; it is never counted as a
// failed operation.
#ifndef IMPLBENCH_CHECK_H_
#define IMPLBENCH_CHECK_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/satisfies.h"
#include "search/bounded.h"
#include "solve/solver.h"
#include "util/strings.h"

namespace implbench {

using ccfp::AttrId;
using ccfp::Database;
using ccfp::Dependency;
using ccfp::Fd;
using ccfp::ImplicationFragment;
using ccfp::ImplicationVerdict;
using ccfp::RelId;
using ccfp::SchemePtr;
using ccfp::Verdict;

/// Attribute closure of `start` under the FDs of `rel` (the fixpoint
/// "expand" loop: apply every FD whose lhs is inside the set until the
/// set stops growing). Sorted.
inline std::vector<AttrId> ClosureOracle(const std::vector<Fd>& fds,
                                         RelId rel,
                                         std::vector<AttrId> result) {
  std::sort(result.begin(), result.end());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fd& fd : fds) {
      if (fd.rel != rel) continue;
      bool applies = std::all_of(fd.lhs.begin(), fd.lhs.end(), [&](AttrId a) {
        return std::binary_search(result.begin(), result.end(), a);
      });
      if (!applies) continue;
      for (AttrId a : fd.rhs) {
        if (!std::binary_search(result.begin(), result.end(), a)) {
          result.insert(std::upper_bound(result.begin(), result.end(), a), a);
          changed = true;
        }
      }
    }
  }
  return result;
}

/// Counts of what the checks could and could not establish.
struct CheckStats {
  std::uint64_t checked = 0;
  /// Verdicts no independent check covered: a kUnknown, a unary
  /// kNotImplied with no finite witness attached, or a kImplied whose
  /// base-shape search ran out of candidates first.
  std::uint64_t unchecked = 0;
};

/// The non-trivial members of sigma (the solver ignores trivial ones).
inline std::vector<Dependency> Nontrivial(const ccfp::DatabaseScheme& scheme,
                                          const std::vector<Dependency>& sigma) {
  std::vector<Dependency> out;
  for (const Dependency& d : sigma) {
    if (!ccfp::IsTrivial(scheme, d)) out.push_back(d);
  }
  return out;
}

/// Returns "" when `v` passes every applicable check, else why not.
inline std::string CheckVerdict(const SchemePtr& scheme,
                                const std::vector<Dependency>& sigma,
                                const Dependency& target, const Verdict& v,
                                CheckStats& stats) {
  std::vector<Dependency> nontrivial = Nontrivial(*scheme, sigma);
  bool checked = false;

  if (v.fragment == ImplicationFragment::kPureFd) {
    std::vector<Fd> fds;
    for (const Dependency& d : nontrivial) fds.push_back(d.fd());
    const Fd& t = target.fd();
    std::vector<AttrId> closure = ClosureOracle(fds, t.rel, t.lhs);
    bool implied = std::all_of(t.rhs.begin(), t.rhs.end(), [&](AttrId a) {
      return std::binary_search(closure.begin(), closure.end(), a);
    });
    if (v.unknown() || implied != v.implied()) {
      return "pure-FD verdict disagrees with the closure oracle";
    }
    if (v.fd_closure != closure) return "pure-FD closure differs";
    checked = true;
  }

  if (v.ind_proof.has_value()) {
    ccfp::Status st = v.ind_proof->Check();
    if (!st.ok()) return ccfp::StrCat("IND proof fails Check(): ", st.ToString());
    checked = true;
  } else if (v.implied() && v.fragment == ImplicationFragment::kPureInd) {
    return "pure-IND kImplied without a proof";
  }

  if (v.not_implied()) {
    if (v.counterexample.has_value()) {
      Database fresh = *v.counterexample;
      for (const Dependency& d : nontrivial) {
        if (!ccfp::Satisfies(fresh, d)) {
          return ccfp::StrCat("counterexample violates sigma member ",
                              d.ToString(*scheme));
        }
      }
      if (ccfp::Satisfies(fresh, target)) {
        return "counterexample satisfies the target";
      }
      checked = true;
    } else if (v.fragment != ImplicationFragment::kUnary) {
      return "kNotImplied without a counterexample";
    }
  }

  if (v.implied() && (v.fragment == ImplicationFragment::kMixed ||
                      v.fragment == ImplicationFragment::kUnary)) {
    ccfp::BoundedSearchOptions opts;
    opts.max_candidates = 1u << 16;
    auto found = ccfp::FindCounterexample(scheme, nontrivial, target, opts);
    if (found.ok() && found->counterexample.has_value()) {
      return "kImplied refuted by a base-shape bounded search";
    }
    // Checked only when the whole base shape was scanned.
    checked = checked || (found.ok() && found->exhausted);
  }

  if (checked) {
    ++stats.checked;
  } else {
    ++stats.unchecked;
  }
  return "";
}

/// FNV-1a over a byte stream: the per-seed digest of verdict outcomes.
class Digest {
 public:
  void Add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace implbench

#endif  // IMPLBENCH_CHECK_H_
