// Seeded input generators for the three benchmark workloads. Every
// generator is a pure function of its SplitMix64 stream: the same seed
// yields the same schemes, sigmas, targets and data, and the program under
// test only ever sees the generated values.
//
// The instance *mix* (how many instances of each shape a pass holds) is
// fixed; the seed only draws names, arities, attribute permutations, the
// noise relations and the data. That keeps the share of each latency mode
// and the decided ratio close to constant across seeds, so the reported
// percentiles never straddle the boundary between two modes.
#ifndef IMPLBENCH_GENERATE_H_
#define IMPLBENCH_GENERATE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace implbench {

using ccfp::AttrId;
using ccfp::Database;
using ccfp::Dependency;
using ccfp::Fd;
using ccfp::ImplicationSemantics;
using ccfp::Ind;
using ccfp::RelId;
using ccfp::SchemePtr;
using ccfp::SplitMix64;
using ccfp::Value;

/// An independent generator stream per (seed, workload): the seed is
/// mixed first, so nearby seeds do not share overlapping streams.
inline SplitMix64 SeededRng(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed);
  return SplitMix64(mix.Next() ^ (stream * 0xD1B54A32D192ED03ULL));
}

/// One sigma with the targets asked against it, in order, on one solver.
struct Instance {
  std::string kind;
  SchemePtr scheme;
  std::vector<Dependency> sigma;
  std::vector<Dependency> targets;
  ImplicationSemantics semantics = ImplicationSemantics::kUnrestricted;
};

/// Relation i of a generated scheme is named R, S, T, U, ... and has
/// arity `arities[i]`; attributes are distinct capital letters across the
/// whole scheme. Arities are fixed by the caller (per instance slot), not
/// drawn: the per-step cost of a chase and the size of a search space
/// follow from them, so drawing them would make the latency modes move
/// with the seed.
inline SchemePtr MakeSlotScheme(const std::vector<std::size_t>& arities) {
  static const char* kRel[] = {"R", "S", "T", "U", "V", "W"};
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  char next = 'A';
  for (std::size_t r = 0; r < arities.size(); ++r) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arities[r]; ++a) attrs.push_back({next++});
    rels.emplace_back(kRel[r], std::move(attrs));
  }
  return ccfp::MakeScheme(std::move(rels));
}

/// A uniformly random permutation of the attributes of `rel`.
inline std::vector<AttrId> Perm(SplitMix64& rng, const SchemePtr& scheme,
                                RelId rel) {
  std::vector<AttrId> p(scheme->relation(rel).arity());
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<AttrId>(i);
  for (std::size_t i = p.size(); i > 1; --i) {
    std::swap(p[i - 1], p[rng.Below(i)]);
  }
  return p;
}

inline Dependency FdOf(RelId rel, std::vector<AttrId> lhs,
                       std::vector<AttrId> rhs) {
  return Dependency(Fd{rel, std::move(lhs), std::move(rhs)});
}
inline Dependency IndOf(RelId l, std::vector<AttrId> lhs, RelId r,
                        std::vector<AttrId> rhs) {
  return Dependency(Ind{l, std::move(lhs), r, std::move(rhs)});
}

/// Noise on the relations after `first`: one 2-ary FD each, and a width-2
/// IND from each into the next. Relations reached by no IND from the
/// target's relation never enter a chase, but they widen every bounded
/// search (the candidate space is a product over all relations).
inline void AddNoise(SplitMix64& rng, const SchemePtr& scheme, RelId first,
                     std::vector<Dependency>& sigma) {
  std::size_t nrel = scheme->size();
  for (RelId r = first; r < nrel; ++r) {
    std::vector<AttrId> p = Perm(rng, scheme, r);
    sigma.push_back(FdOf(r, {p[0], p[1]}, {p[2]}));
    if (r + 1 < nrel) {
      std::vector<AttrId> q = Perm(rng, scheme, r + 1);
      sigma.push_back(IndOf(r, {p[0], p[1]}, r + 1, {q[0], q[1]}));
    }
  }
}

/// --- solve_mixed ------------------------------------------------------
///
/// Three shapes, all in the mixed fragment (every sigma holds a k-ary FD
/// and a width-2 IND, so no target routes to an exact engine):
///
///   * "cycle": R: X -> Y with R[Y,Z] <= R[Z,X] — the chase from any seed
///     in R never terminates, so a target over R that the sound rules
///     cannot derive burns the chase's whole share before the bounded
///     search refutes it (the slow mode). Later targets over the same
///     sigma are often refuted by replaying that witness (witness cache).
///   * "derive": FD transitivity, IND transitivity and the FD pullback
///     through an IND — decided by the derivation stage.
///   * "acyclic": INDs from R into S only, so the chase reaches a fixpoint
///     in a few steps and decides the target either way.
inline Instance MixedCycle(SplitMix64& rng,
                          const std::vector<std::size_t>& arities) {
  Instance in;
  in.kind = "cycle";
  in.scheme = MakeSlotScheme(arities);
  std::vector<AttrId> p = Perm(rng, in.scheme, 0);
  AttrId x = p[0], y = p[1], z = p[2];
  in.sigma = {FdOf(0, {x}, {y}), IndOf(0, {y, z}, 0, {z, x})};
  AddNoise(rng, in.scheme, 1, in.sigma);
  in.targets = {FdOf(0, {x}, {z}), FdOf(0, {y}, {x})};
  return in;
}

inline Instance MixedDerive(SplitMix64& rng,
                           const std::vector<std::size_t>& arities) {
  std::size_t nrel = arities.size();
  Instance in;
  in.kind = "derive";
  in.scheme = MakeSlotScheme(arities);
  std::vector<AttrId> p = Perm(rng, in.scheme, 0);
  AttrId x = p[0], y = p[1], z = p[2];
  RelId s = nrel > 1 ? 1 : 0;
  std::vector<AttrId> q = Perm(rng, in.scheme, s);
  if (s == 0) q = {y, x, z};  // R[X,Y] <= R[Y,X]: a 2-cycle that closes
  in.sigma = {FdOf(0, {x}, {y}), FdOf(0, {y}, {z}),
              IndOf(0, {x, y}, s, {q[0], q[1]}), FdOf(s, {q[0]}, {q[2]})};
  AddNoise(rng, in.scheme, s + 1, in.sigma);
  in.targets = {FdOf(0, {x}, {z}), FdOf(0, {x}, {y, z}),
                IndOf(0, {x}, s, {q[0]}), FdOf(0, {x, z}, {y})};
  return in;
}

inline Instance MixedAcyclic(SplitMix64& rng,
                            const std::vector<std::size_t>& arities) {
  Instance in;
  in.kind = "acyclic";
  in.scheme = MakeSlotScheme(arities);
  std::vector<AttrId> p = Perm(rng, in.scheme, 0);
  std::vector<AttrId> q = Perm(rng, in.scheme, 1);
  AttrId x = p[0], y = p[1], z = p[2];
  in.sigma = {FdOf(0, {x}, {y}), IndOf(0, {x, y}, 1, {q[0], q[1]}),
              FdOf(1, {q[0], q[1]}, {q[2]})};
  AddNoise(rng, in.scheme, 2, in.sigma);
  in.targets = {FdOf(0, {x}, {z}), IndOf(0, {x, z}, 1, {q[0], q[1]}),
                FdOf(0, {y}, {x}), IndOf(0, {y, x}, 1, {q[1], q[0]})};
  return in;
}

/// The fixed solve_mixed pass: instance counts per (shape, arities), in
/// a seeded order.
inline std::vector<Instance> MixedInstances(std::uint64_t seed) {
  SplitMix64 rng = SeededRng(seed, 1);
  std::vector<Instance> out;
  auto add = [&](auto make, std::vector<std::size_t> arities, int count) {
    for (int i = 0; i < count; ++i) out.push_back(make(rng, arities));
  };
  // Per pass: 24 cycle instances (the slow mode: 12 + 8 + 2 * 4 queries
  // whose chase exhausts; the 3-relation ones also leave one target
  // kUnknown), 12 acyclic, 8 derive — 128 queries, about 22% slow.
  add(MixedCycle, {4}, 12);
  add(MixedCycle, {4, 3}, 8);
  add(MixedCycle, {4, 3, 3}, 4);
  add(MixedAcyclic, {3, 4}, 3);
  add(MixedAcyclic, {4, 3}, 3);
  add(MixedAcyclic, {3, 3, 4}, 3);
  add(MixedAcyclic, {4, 4, 3}, 3);
  add(MixedDerive, {3}, 2);
  add(MixedDerive, {4}, 2);
  add(MixedDerive, {3, 4}, 2);
  add(MixedDerive, {4, 3, 3}, 2);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

/// --- solve_exact ------------------------------------------------------

/// Pure FDs over one wide relation: a chain A0 -> A1 -> ... plus two
/// random 2-ary FDs. The six targets are three implied FDs with 1-, 2-
/// and 1-attribute lhs and three refuted ones with 2-, 1- and 2-attribute
/// lhs (1-attribute when the noise leaves no 2-attribute one), each drawn
/// from all candidates of its kind. A refuted FD costs more than an
/// implied one (the solver builds its counterexample), so leaving the
/// outcomes to the draw moved the workload's p50 by about 10% from seed
/// to seed.
inline Instance ExactPureFd(SplitMix64& rng, std::size_t arity) {
  Instance in;
  in.kind = "pure-fd";
  in.scheme = MakeSlotScheme({arity});
  std::vector<AttrId> p = Perm(rng, in.scheme, 0);
  std::size_t n = p.size();
  for (std::size_t i = 0; i + 2 < n; ++i) {
    in.sigma.push_back(FdOf(0, {p[i]}, {p[i + 1]}));
  }
  for (int k = 0; k < 2; ++k) {
    std::vector<AttrId> q = Perm(rng, in.scheme, 0);
    in.sigma.push_back(FdOf(0, {q[0], q[1]}, {q[2]}));
  }
  // Attribute sets as bitmasks; the closure is the "expand" fixpoint.
  // check.h's vector-based ClosureOracle would do, but it doubled the
  // generator's share of setup_s.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rules;
  auto mask = [](const std::vector<AttrId>& attrs) {
    std::uint32_t m = 0;
    for (AttrId a : attrs) m |= 1u << a;
    return m;
  };
  for (const Dependency& d : in.sigma) {
    rules.emplace_back(mask(d.fd().lhs), mask(d.fd().rhs));
  }
  auto closure = [&](std::uint32_t set) {
    for (bool grew = true; grew;) {
      grew = false;
      for (auto [lhs, rhs] : rules) {
        if ((set & lhs) == lhs && (set | rhs) != set) {
          set |= rhs;
          grew = true;
        }
      }
    }
    return set;
  };
  // candidates[lhs width - 1][implied]: every non-trivial single-rhs FD,
  // as (lhs mask, rhs attribute).
  std::vector<std::pair<std::uint32_t, AttrId>> candidates[2][2];
  for (std::uint32_t lhs = 1; lhs < (1u << n); ++lhs) {
    int width = std::popcount(lhs);
    if (width > 2) continue;
    std::uint32_t c = closure(lhs);
    for (AttrId a = 0; a < n; ++a) {
      if (lhs >> a & 1) continue;
      candidates[width - 1][c >> a & 1].emplace_back(lhs, a);
    }
  }
  // An implied target of either width always exists (the chain's first
  // link), and so do n - 1 refuted 1-attribute ones (the attribute
  // outside the chain determines nothing), so no pool runs dry.
  const std::pair<std::size_t, bool> kSlots[] = {
      {1, true}, {2, true}, {1, true}, {2, false}, {1, false}, {2, false}};
  for (auto [width, implied] : kSlots) {
    auto* pool = &candidates[width - 1][implied];
    if (pool->empty()) pool = &candidates[0][implied];
    std::size_t pick = rng.Below(pool->size());
    auto [lhs, rhs] = (*pool)[pick];
    std::vector<AttrId> left;
    for (AttrId a = 0; a < n; ++a) {
      if (lhs >> a & 1) left.push_back(a);
    }
    in.targets.push_back(FdOf(0, std::move(left), {rhs}));
    pool->erase(pool->begin() + pick);
  }
  return in;
}

/// Pure width-2 INDs along a chain R -> S -> T (-> U): targets walk the
/// chain with projections and permutations (implied, proof requested)
/// or run against it (refuted, Rule (*) evidence).
inline Instance ExactPureInd(SplitMix64& rng, std::size_t nrel,
                             std::size_t arity) {
  Instance in;
  in.kind = "pure-ind";
  in.scheme = MakeSlotScheme(std::vector<std::size_t>(nrel, arity));
  std::vector<std::vector<AttrId>> p;
  for (RelId r = 0; r < nrel; ++r) p.push_back(Perm(rng, in.scheme, r));
  for (RelId r = 0; r + 1 < nrel; ++r) {
    in.sigma.push_back(
        IndOf(r, {p[r][0], p[r][1]}, r + 1, {p[r + 1][0], p[r + 1][1]}));
  }
  in.sigma.push_back(IndOf(nrel - 1, {p[nrel - 1][2]}, 0, {p[0][2]}));
  RelId last = static_cast<RelId>(nrel - 1);
  in.targets = {
      IndOf(0, {p[0][0], p[0][1]}, last, {p[last][0], p[last][1]}),
      IndOf(0, {p[0][1], p[0][0]}, last, {p[last][1], p[last][0]}),
      IndOf(0, {p[0][1]}, last - 1, {p[last - 1][1]}),
      IndOf(last, {p[last][0], p[last][1]}, 0, {p[0][0], p[0][1]}),
      IndOf(0, {p[0][0], p[0][2]}, last, {p[last][0], p[last][2]}),
      IndOf(last, {p[last][2]}, 1, {p[1][2]}),
  };
  return in;
}

/// Unary FDs and INDs with the Theorem 4.4 pattern (R: X -> Y with
/// R[X] <= R[Y]: finitely but not unrestrictedly implies R[Y] <= R[X] and
/// R: Y -> X), asked under unrestricted semantics.
inline Instance ExactUnary(SplitMix64& rng, std::size_t nrel) {
  Instance in;
  in.kind = "unary-unrestricted";
  in.scheme = MakeSlotScheme(std::vector<std::size_t>(nrel, 3));
  std::vector<AttrId> p = Perm(rng, in.scheme, 0);
  AttrId x = p[0], y = p[1], z = p[2];
  in.sigma = {FdOf(0, {x}, {y}), IndOf(0, {x}, 0, {y})};
  if (nrel > 1) {
    std::vector<AttrId> q = Perm(rng, in.scheme, 1);
    in.sigma.push_back(IndOf(0, {z}, 1, {q[0]}));
    in.sigma.push_back(FdOf(1, {q[0]}, {q[1]}));
    in.targets.push_back(IndOf(1, {q[0]}, 0, {z}));
  }
  in.targets.push_back(IndOf(0, {y}, 0, {x}));
  in.targets.push_back(FdOf(0, {y}, {x}));
  in.targets.push_back(FdOf(0, {x}, {z}));
  in.targets.push_back(IndOf(0, {z}, 0, {x}));
  return in;
}

inline std::vector<Instance> ExactInstances(std::uint64_t seed) {
  SplitMix64 rng = SeededRng(seed, 2);
  std::vector<Instance> out;
  // As in solve_mixed, the sizes are fixed per slot and only the
  // permutations and the order are drawn: 12 pure-FD (arity 5 and 6),
  // 12 pure-IND (3 or 4 relations of arity 3 or 4), 6 unary sigmas over 1
  // or 2 relations, each asked under both semantics — 198 queries.
  for (int i = 0; i < 12; ++i) out.push_back(ExactPureFd(rng, 5 + i % 2));
  for (int i = 0; i < 12; ++i) {
    out.push_back(ExactPureInd(rng, 3 + i % 2, 3 + (i / 2) % 2));
  }
  for (int i = 0; i < 6; ++i) {
    Instance u = ExactUnary(rng, 1 + i % 2);
    Instance f = u;
    f.kind = "unary-finite";
    f.semantics = ImplicationSemantics::kFinite;
    out.push_back(std::move(u));
    out.push_back(std::move(f));
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

/// --- service_sessions -------------------------------------------------

/// Random integer tuples over a small domain per column, so mined FDs and
/// INDs are non-trivial and appends can break or keep them.
inline Database RandomData(SplitMix64& rng, const SchemePtr& scheme,
                           std::size_t tuples, std::int64_t base) {
  Database db(scheme);
  for (RelId r = 0; r < scheme->size(); ++r) {
    std::size_t arity = scheme->relation(r).arity();
    for (std::size_t i = 0; i < tuples; ++i) {
      ccfp::Tuple t(arity);
      std::int64_t key = base + static_cast<std::int64_t>(i);
      t[0] = Value::Int(key);
      for (std::size_t a = 1; a < arity; ++a) {
        // Column a takes 3 + 2a values, and column 1 is a function of
        // column 0 most of the time, so FDs survive some appends only.
        std::int64_t v = a == 1 && rng.Chance(7, 8)
                             ? key % 5
                             : static_cast<std::int64_t>(rng.Below(3 + 2 * a));
        t[a] = Value::Int(v);
      }
      db.Insert(r, std::move(t));
    }
  }
  return db;
}

struct MinePair {
  SchemePtr scheme;
  Database warm;
  /// The tuples a mining episode appends before it mines.
  Database delta;
};

struct ArmstrongPair {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  /// The universe grown in three Extend calls.
  std::vector<std::vector<Dependency>> extends;
};

/// An acyclic FD + IND sigma (so the chase oracle always converges) and a
/// universe of FDs and INDs over it, half implied and half not.
inline ArmstrongPair MakeArmstrongPair(SplitMix64& rng) {
  ArmstrongPair a;
  a.scheme = MakeSlotScheme({3, 3});
  std::vector<AttrId> p = Perm(rng, a.scheme, 0);
  std::vector<AttrId> q = Perm(rng, a.scheme, 1);
  a.fds = {Fd{0, {p[0]}, {p[1]}}, Fd{1, {q[0]}, {q[2]}}};
  a.inds = {Ind{0, {p[0], p[1]}, 1, {q[0], q[1]}}};
  a.extends = {
      {FdOf(0, {p[0]}, {p[2]}), FdOf(0, {p[1]}, {p[0]})},
      {IndOf(0, {p[0]}, 1, {q[0]}), IndOf(0, {p[2]}, 1, {q[2]})},
      {FdOf(1, {q[1]}, {q[0]}), FdOf(0, {p[0], p[2]}, {p[1]})},
  };
  return a;
}

struct ServiceInputs {
  std::vector<Instance> solve;  ///< distinct (scheme, sigma) solve pairs
  std::vector<MinePair> mine;
  std::vector<ArmstrongPair> armstrong;
};

inline ServiceInputs MakeServiceInputs(std::uint64_t seed) {
  SplitMix64 rng = SeededRng(seed, 3);
  ServiceInputs in;
  in.solve = {MixedDerive(rng, {4, 3}), MixedAcyclic(rng, {4, 3}),
              MixedCycle(rng, {3})};
  for (int i = 0; i < 2; ++i) {
    SchemePtr scheme = MakeSlotScheme({4, 3});
    Database warm = RandomData(rng, scheme, 160, 0);
    in.mine.push_back({scheme, std::move(warm), RandomData(rng, scheme, 8, 1000)});
  }
  for (int i = 0; i < 2; ++i) in.armstrong.push_back(MakeArmstrongPair(rng));
  return in;
}

}  // namespace implbench

#endif  // IMPLBENCH_GENERATE_H_
