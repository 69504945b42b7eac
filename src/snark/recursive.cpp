#include "snark/recursive.hpp"

#include <memory>
#include <stdexcept>
#include <variant>

namespace zendoo::snark {

namespace {

// Points at the caller's transition, which outlives the prove call, so
// proving a base step never copies it.
struct BaseWitness {
  const std::any* transition;
};

struct MergeWitness {
  StateDigest mid;
  Proof left;
  Proof right;
};

using RecursiveWitness = std::variant<BaseWitness, MergeWitness>;

Statement make_statement(const StateDigest& before, const StateDigest& after) {
  return {before, after};
}

}  // namespace

TransitionProofSystem::TransitionProofSystem(TransitionChecker checker,
                                             std::string label)
    : checker_(std::move(checker)) {
  if (!checker_) {
    throw std::invalid_argument("TransitionProofSystem: null checker");
  }
  // The Merge circuit must run the verifier of this very system on its
  // children ("the circuit embeds the inner verifier"). The verification
  // key only exists after setup, so the circuit captures a slot that is
  // filled immediately afterwards.
  auto vk_slot = std::make_shared<VerifyingKey>();
  TransitionChecker checker_copy = checker_;
  Predicate circuit = [checker_copy, vk_slot](const Statement& statement,
                                              const Witness& witness) {
    if (statement.size() != 2) return false;
    const auto* rw = std::any_cast<RecursiveWitness>(&witness);
    if (rw == nullptr) return false;
    const StateDigest& before = statement[0];
    const StateDigest& after = statement[1];
    if (const auto* base = std::get_if<BaseWitness>(rw)) {
      return checker_copy(before, after, *base->transition);
    }
    const auto& merge = std::get<MergeWitness>(*rw);
    return PredicateSnark::verify(*vk_slot, make_statement(before, merge.mid),
                                  merge.left) &&
           PredicateSnark::verify(*vk_slot, make_statement(merge.mid, after),
                                  merge.right);
  };
  auto [pk, vk] = PredicateSnark::setup(std::move(circuit),
                                        "transition/" + label);
  pk_ = pk;
  vk_ = vk;
  *vk_slot = vk;
}

Proof TransitionProofSystem::prove_base(const StateDigest& before,
                                        const StateDigest& after,
                                        const std::any& transition) const {
  auto proof = PredicateSnark::prove(
      pk_, make_statement(before, after),
      RecursiveWitness{BaseWitness{&transition}});
  if (!proof) {
    throw std::invalid_argument(
        "TransitionProofSystem::prove_base: transition does not connect the "
        "given states");
  }
  return *proof;
}

Proof TransitionProofSystem::prove_merge(const StateDigest& before,
                                         const StateDigest& after,
                                         const StateDigest& mid,
                                         const Proof& left,
                                         const Proof& right) const {
  auto proof = PredicateSnark::prove(
      pk_, make_statement(before, after),
      RecursiveWitness{MergeWitness{mid, left, right}});
  if (!proof) {
    throw std::invalid_argument(
        "TransitionProofSystem::prove_merge: child proofs invalid or not "
        "chained through the given midpoint");
  }
  return *proof;
}

bool TransitionProofSystem::verify(const StateDigest& before,
                                   const StateDigest& after,
                                   const Proof& proof) const {
  return PredicateSnark::verify(vk_, make_statement(before, after), proof);
}

Proof TransitionProofSystem::prove_chain(
    const std::vector<TransitionStep>& steps, RecursionStats* stats) const {
  if (steps.empty()) {
    throw std::invalid_argument(
        "TransitionProofSystem::prove_chain: empty step sequence");
  }
  for (std::size_t i = 1; i < steps.size(); ++i) {
    if (!(steps[i - 1].after == steps[i].before)) {
      throw std::invalid_argument(
          "TransitionProofSystem::prove_chain: steps are not contiguous");
    }
  }
  std::vector<ProvenSpan> spans;
  spans.reserve(steps.size());
  for (const TransitionStep& step : steps) {
    spans.push_back(
        {step.before, step.after,
         prove_base(step.before, step.after, step.transition)});
    if (stats != nullptr) ++stats->base_proofs;
  }
  return merge_spans(spans, stats);
}

Proof TransitionProofSystem::merge_spans(const std::vector<ProvenSpan>& spans,
                                         RecursionStats* stats) const {
  if (spans.empty()) {
    throw std::invalid_argument(
        "TransitionProofSystem::merge_spans: empty span sequence");
  }
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (!(spans[i - 1].after == spans[i].before)) {
      throw std::invalid_argument(
          "TransitionProofSystem::merge_spans: spans are not contiguous");
    }
  }
  // Balanced binary merge, exactly the tree shape of Figs. 10/11: adjacent
  // pairs merge level by level; an odd span carries to the next level.
  std::vector<ProvenSpan> level = spans;
  while (level.size() > 1) {
    std::vector<ProvenSpan> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const ProvenSpan& l = level[i];
      const ProvenSpan& r = level[i + 1];
      Proof merged = prove_merge(l.before, r.after, l.after, l.proof, r.proof);
      if (stats != nullptr) ++stats->merge_proofs;
      next.push_back({l.before, r.after, merged});
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
    if (stats != nullptr) ++stats->depth;
  }
  return level.front().proof;
}

}  // namespace zendoo::snark
