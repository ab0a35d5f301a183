#include "service/shared_core.h"

#include <string>
#include <utility>

#include "core/snapshot.h"
#include "util/strings.h"

namespace ccfp {

std::string SolverCore::IdentityString(const DatabaseScheme& scheme,
                                       const std::vector<Dependency>& sigma,
                                       const Database* warm) {
  std::string s = scheme.ToString();
  s += '\n';
  for (const Dependency& dep : sigma) {
    s += dep.ToString(scheme);
    s += '\n';
  }
  if (warm != nullptr) {
    s += warm->ToString();
  }
  return s;
}

Status SolverCore::ValidateInputs(const DatabaseScheme& scheme,
                                  const std::vector<Dependency>& sigma,
                                  const Database* warm) {
  for (const Dependency& dep : sigma) {
    CCFP_RETURN_NOT_OK(Validate(scheme, dep));
  }
  if (warm == nullptr) return Status::OK();
  bool same_shape = warm->scheme().size() == scheme.size();
  for (RelId rel = 0; same_shape && rel < scheme.size(); ++rel) {
    same_shape = warm->scheme().relation(rel).arity() ==
                 scheme.relation(rel).arity();
  }
  if (!same_shape) {
    return Status::InvalidArgument(
        StrCat("warm data is over a different scheme: ",
               warm->scheme().ToString()));
  }
  return Status::OK();
}

SolverCore::SolverCore(SchemePtr scheme, std::vector<Dependency> sigma)
    : scheme_(scheme),
      sigma_(std::move(sigma)),
      fingerprint_(SchemeFingerprint(*scheme)),
      base_(scheme),
      witness_cache_(scheme, sigma_) {}

std::uint64_t SolverCore::Identity(const DatabaseScheme& scheme,
                                   const std::vector<Dependency>& sigma,
                                   const Database* warm) {
  return Fnv1a64(IdentityString(scheme, sigma, warm));
}

Result<std::shared_ptr<const SolverCore>> SolverCore::Build(
    SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm) {
  return Build(std::move(scheme), std::move(sigma), warm, WarmupOptions());
}

Result<std::shared_ptr<const SolverCore>> SolverCore::Build(
    SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm,
    const WarmupOptions& warmup) {
  CCFP_RETURN_NOT_OK(ValidateInputs(*scheme, sigma, warm));
  // make_shared needs a public constructor; the core is handed out const,
  // so a private-ctor new is the simpler seam.
  std::shared_ptr<SolverCore> core(
      new SolverCore(std::move(scheme), std::move(sigma)));
  core->identity_ = Identity(*core->scheme_, core->sigma_, warm);
  if (warm != nullptr) {
    core->base_.AppendDatabase(*warm);
  }
  // Compile the partitions sigma verification touches (and warm the
  // verdicts themselves — Satisfies caches by partition, so every session
  // fork inherits compiled groups, not just interned values).
  for (const Dependency& dep : core->sigma_) {
    core->base_.Satisfies(dep);
  }
  if (warm != nullptr && warmup.premine) {
    // One sweep per fragment compiles every candidate projection the
    // miners enumerate; forked sessions re-mining the warm data build
    // zero partitions.
    for (RelId rel = 0; rel < core->scheme_->size(); ++rel) {
      (void)MineFds(core->base_, rel, warmup.fd);
    }
    (void)MineInds(core->base_, warmup.ind);
    (void)MineRds(core->base_);
  }
  core->base_.SealSharedBase();
  core->base_stats_ = core->base_.stats();
  return std::shared_ptr<const SolverCore>(std::move(core));
}

}  // namespace ccfp
