#ifndef CCFP_CORE_MODEL_CHECK_H_
#define CCFP_CORE_MODEL_CHECK_H_

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/dependency.h"
#include "core/intern.h"
#include "core/tuple.h"
#include "core/workspace.h"

namespace ccfp {
namespace model_check {

/// The id-space model-checking implementation behind
/// `InternedWorkspace::Satisfies` / `FindViolation`. It reads the
/// workspace's slot store and cached projection partitions:
///
///   * dead (merged-away) slots carry `kNoGroup` in every partition and
///     are skipped;
///   * a partition that went through surgical repair can carry
///     *tombstoned* groups (`group_size == 0`) whose `key_to_group` entry
///     lingers — every check below treats a key hit on a tombstone as a
///     miss, and none relies on group ids being in first-occurrence order
///     (repairs keep ids stable rather than sorted).
///
/// The differential suites (tests/satisfies_property_test.cc,
/// tests/emvd_chase_property_test.cc) rely on the witness order being
/// identical to the legacy Value-hashing engine: every scan below walks
/// slots front-to-back, so the first violation reported matches a legacy
/// front-to-back scan.
/// Slots of `rel`, dead ones included.
inline std::uint32_t SlotCount(const InternedWorkspace& ws, RelId rel) {
  return static_cast<std::uint32_t>(ws.size(rel));
}

inline bool SatisfiesFd(const InternedWorkspace& ws, const Fd& fd) {
  if (ws.AliveTuples(fd.rel) == 0) return true;
  const auto& lhs = ws.partition(fd.rel, fd.lhs);
  const auto& rhs = ws.partition(fd.rel, fd.rhs);
  // The FD holds iff the lhs partition refines the rhs partition.
  std::vector<std::uint32_t> seen(lhs.group_count, UINT32_MAX);
  std::uint32_t n = SlotCount(ws, fd.rel);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t g = lhs.group_of[i];
    if (g == InternedWorkspace::kNoGroup) continue;
    std::uint32_t h = rhs.group_of[i];
    if (seen[g] == UINT32_MAX) {
      seen[g] = h;
    } else if (seen[g] != h) {
      return false;
    }
  }
  return true;
}

/// True iff `key` names a group with at least one alive member of `p`
/// (tombstoned groups left behind by surgical repair do not count).
inline bool HasAliveGroup(const InternedWorkspace::Partition& p,
                          const IdTuple& key) {
  auto it = p.key_to_group.find(key);
  return it != p.key_to_group.end() && p.group_size[it->second] > 0;
}

inline bool SatisfiesInd(const InternedWorkspace& ws, const Ind& ind) {
  if (ws.AliveTuples(ind.lhs_rel) == 0) return true;
  const auto& lhs_p = ws.partition(ind.lhs_rel, ind.lhs);
  const auto& rhs_p = ws.partition(ind.rhs_rel, ind.rhs);
  // Each alive lhs group's key IS the projection of its members onto
  // ind.lhs — probe it into the rhs partition directly.
  for (const auto& [key, g] : lhs_p.key_to_group) {
    if (lhs_p.group_size[g] == 0) continue;  // tombstone
    if (!HasAliveGroup(rhs_p, key)) return false;
  }
  return true;
}

inline bool SatisfiesRd(const InternedWorkspace& ws, const Rd& rd) {
  std::uint32_t n = SlotCount(ws, rd.rel);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!ws.alive(rd.rel, i)) continue;
    const IdTuple& t = ws.tuple(rd.rel, i);
    for (std::size_t k = 0; k < rd.lhs.size(); ++k) {
      if (t[rd.lhs[k]] != t[rd.rhs[k]]) return false;
    }
  }
  return true;
}

inline bool SatisfiesEmvdOn(const InternedWorkspace& ws, RelId rel,
                            const std::vector<AttrId>& x,
                            const std::vector<AttrId>& y,
                            const std::vector<AttrId>& z) {
  if (ws.AliveTuples(rel) == 0) return true;
  std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
  std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
  const auto& x_p = ws.partition(rel, x);
  const auto& xy_p = ws.partition(rel, xy);
  const auto& xz_p = ws.partition(rel, xz);
  // Per X-group distinct XY / XZ / (XY, XZ) counts. XY refines X, so an XY
  // group belongs to exactly one X group (likewise XZ and pairs) — the
  // group obeys the EMVD iff pairs == xy_distinct * xz_distinct.
  std::vector<std::uint32_t> ny(x_p.group_count, 0);
  std::vector<std::uint32_t> nz(x_p.group_count, 0);
  std::vector<std::uint64_t> np(x_p.group_count, 0);
  std::vector<std::uint8_t> seen_xy(xy_p.group_count, 0);
  std::vector<std::uint8_t> seen_xz(xz_p.group_count, 0);
  std::unordered_set<std::uint64_t> pairs;
  pairs.reserve(ws.AliveTuples(rel));
  std::uint32_t n = SlotCount(ws, rel);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t g = x_p.group_of[i];
    if (g == InternedWorkspace::kNoGroup) continue;
    std::uint32_t gy = xy_p.group_of[i];
    std::uint32_t gz = xz_p.group_of[i];
    if (!seen_xy[gy]) {
      seen_xy[gy] = 1;
      ++ny[g];
    }
    if (!seen_xz[gz]) {
      seen_xz[gz] = 1;
      ++nz[g];
    }
    if (pairs.insert(PackIdPair(gy, gz)).second) ++np[g];
  }
  for (std::uint32_t g = 0; g < x_p.group_count; ++g) {
    if (static_cast<std::uint64_t>(ny[g]) * nz[g] != np[g]) return false;
  }
  return true;
}

inline bool SatisfiesDependency(const InternedWorkspace& ws,
                                const Dependency& dep) {
  switch (dep.kind()) {
    case DependencyKind::kFd:
      return SatisfiesFd(ws, dep.fd());
    case DependencyKind::kInd:
      return SatisfiesInd(ws, dep.ind());
    case DependencyKind::kRd:
      return SatisfiesRd(ws, dep.rd());
    case DependencyKind::kEmvd:
      return SatisfiesEmvdOn(ws, dep.emvd().rel, dep.emvd().x, dep.emvd().y,
                             dep.emvd().z);
    case DependencyKind::kMvd:
      return SatisfiesEmvdOn(ws, dep.mvd().rel, dep.mvd().x, dep.mvd().y,
                             MvdComplement(ws.scheme(), dep.mvd()));
  }
  return false;
}

inline std::optional<IdViolation> FindEmvdViolation(
    const InternedWorkspace& ws, RelId rel, const std::vector<AttrId>& x,
    const std::vector<AttrId>& y, const std::vector<AttrId>& z) {
  if (SatisfiesEmvdOn(ws, rel, x, y, z)) return std::nullopt;
  std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
  std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
  const auto& x_p = ws.partition(rel, x);
  const auto& xy_p = ws.partition(rel, xy);
  const auto& xz_p = ws.partition(rel, xz);
  std::uint32_t n = SlotCount(ws, rel);
  std::unordered_set<std::uint64_t> pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (x_p.group_of[i] == InternedWorkspace::kNoGroup) continue;
    pairs.insert(PackIdPair(xy_p.group_of[i], xz_p.group_of[i]));
  }
  // Diagnostics path only: quadratic scan for the first same-group pair
  // whose (XY, XZ) combination has no witness tuple.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (x_p.group_of[i] == InternedWorkspace::kNoGroup) continue;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (x_p.group_of[i] != x_p.group_of[j]) continue;
      if (pairs.count(PackIdPair(xy_p.group_of[i], xz_p.group_of[j])) == 0) {
        return IdViolation{rel, {i, j}};
      }
    }
  }
  return IdViolation{rel, {}};  // unreachable if Satisfies was false
}

inline std::optional<IdViolation> FindViolation(const InternedWorkspace& ws,
                                                const Dependency& dep) {
  switch (dep.kind()) {
    case DependencyKind::kFd: {
      const Fd& fd = dep.fd();
      if (ws.AliveTuples(fd.rel) == 0) return std::nullopt;
      const auto& lhs = ws.partition(fd.rel, fd.lhs);
      const auto& rhs = ws.partition(fd.rel, fd.rhs);
      std::vector<std::uint32_t> first(lhs.group_count, UINT32_MAX);
      std::uint32_t n = SlotCount(ws, fd.rel);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t g = lhs.group_of[i];
        if (g == InternedWorkspace::kNoGroup) continue;
        if (first[g] == UINT32_MAX) {
          first[g] = i;
        } else if (rhs.group_of[first[g]] != rhs.group_of[i]) {
          return IdViolation{fd.rel, {first[g], i}};
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kInd: {
      const Ind& ind = dep.ind();
      const auto& lhs_p = ws.partition(ind.lhs_rel, ind.lhs);
      const auto& rhs_p = ws.partition(ind.rhs_rel, ind.rhs);
      IdTuple key;
      // Front-to-back over slots, probing each group once — the first
      // slot of the first missing group in slot order is the witness,
      // identical to a legacy front-to-back scan (and independent of the
      // group numbering, which repairs do not keep sorted).
      std::vector<std::uint8_t> checked(lhs_p.group_count, 0);
      std::uint32_t n = SlotCount(ws, ind.lhs_rel);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t g = lhs_p.group_of[i];
        if (g == InternedWorkspace::kNoGroup || checked[g]) continue;
        checked[g] = 1;
        const IdTuple& t = ws.tuple(ind.lhs_rel, i);
        key.clear();
        for (AttrId c : ind.lhs) key.push_back(t[c]);
        if (!HasAliveGroup(rhs_p, key)) {
          return IdViolation{ind.lhs_rel, {i}};
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kRd: {
      const Rd& rd = dep.rd();
      std::uint32_t n = SlotCount(ws, rd.rel);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!ws.alive(rd.rel, i)) continue;
        const IdTuple& t = ws.tuple(rd.rel, i);
        for (std::size_t k = 0; k < rd.lhs.size(); ++k) {
          if (t[rd.lhs[k]] != t[rd.rhs[k]]) {
            return IdViolation{rd.rel, {i}};
          }
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kEmvd:
      return FindEmvdViolation(ws, dep.emvd().rel, dep.emvd().x,
                               dep.emvd().y, dep.emvd().z);
    case DependencyKind::kMvd:
      return FindEmvdViolation(ws, dep.mvd().rel, dep.mvd().x, dep.mvd().y,
                               MvdComplement(ws.scheme(), dep.mvd()));
  }
  return std::nullopt;
}

}  // namespace model_check
}  // namespace ccfp

#endif  // CCFP_CORE_MODEL_CHECK_H_
