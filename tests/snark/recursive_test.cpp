#include "snark/recursive.hpp"

#include <gtest/gtest.h>

#include "crypto/rng.hpp"

namespace zendoo::snark {
namespace {

using crypto::Domain;
using crypto::Hasher;

// A concrete state-transition system (Def 2.4): the state is a counter
// digest H(i), a transition is the increment amount; update(t, H(i)) = H(i+t).
// The checker is given the claimed digests and the transition witness.
struct Counter {
  static StateDigest state(std::uint64_t value) {
    return Hasher(Domain::kStateCommitment).write_u64(value).finalize();
  }

  struct Step {
    std::uint64_t from;
    std::uint64_t amount;
  };

  static TransitionChecker checker() {
    return [](const StateDigest& before, const StateDigest& after,
              const std::any& t) {
      const auto* step = std::any_cast<Step>(&t);
      if (step == nullptr) return false;
      return state(step->from) == before &&
             state(step->from + step->amount) == after;
    };
  }

  static TransitionStep step(std::uint64_t from, std::uint64_t amount) {
    return {state(from), state(from + amount), Step{from, amount}};
  }
};

TEST(Recursive, BaseProofRoundTrip) {
  TransitionProofSystem sys(Counter::checker(), "counter-base");
  Proof p = sys.prove_base(Counter::state(0), Counter::state(5),
                           Counter::Step{0, 5});
  EXPECT_TRUE(sys.verify(Counter::state(0), Counter::state(5), p));
  EXPECT_FALSE(sys.verify(Counter::state(0), Counter::state(6), p));
}

TEST(Recursive, BaseProofRejectsInvalidTransition) {
  TransitionProofSystem sys(Counter::checker(), "counter-invalid");
  EXPECT_THROW((void)sys.prove_base(Counter::state(0), Counter::state(5),
                                    Counter::Step{0, 4}),
               std::invalid_argument);
  EXPECT_THROW((void)sys.prove_base(Counter::state(0), Counter::state(5),
                                    std::string("not a step")),
               std::invalid_argument);
}

// A transition that counts its copies (moves are free), to show that
// prove_base hands the caller's witness to the checker without copying it.
struct CountedStep {
  static inline int copies = 0;
  Counter::Step step;

  explicit CountedStep(Counter::Step s) : step(s) {}
  CountedStep(const CountedStep& other) : step(other.step) { ++copies; }
  CountedStep(CountedStep&&) noexcept = default;
  CountedStep& operator=(const CountedStep&) = delete;
  CountedStep& operator=(CountedStep&&) = delete;
};

TEST(Recursive, BaseProofDoesNotCopyTheTransition) {
  TransitionProofSystem sys(
      [](const StateDigest& before, const StateDigest& after,
         const std::any& t) {
        const auto* counted = std::any_cast<CountedStep>(&t);
        return counted != nullptr &&
               Counter::checker()(before, after, counted->step);
      },
      "counter-no-copy");
  const std::any transition{CountedStep{Counter::Step{0, 5}}};
  CountedStep::copies = 0;
  Proof p = sys.prove_base(Counter::state(0), Counter::state(5), transition);
  EXPECT_EQ(CountedStep::copies, 0);
  EXPECT_TRUE(sys.verify(Counter::state(0), Counter::state(5), p));
}

TEST(Recursive, MergeCombinesAdjacentProofs) {
  TransitionProofSystem sys(Counter::checker(), "counter-merge");
  Proof p1 = sys.prove_base(Counter::state(0), Counter::state(3),
                            Counter::Step{0, 3});
  Proof p2 = sys.prove_base(Counter::state(3), Counter::state(10),
                            Counter::Step{3, 7});
  Proof merged = sys.prove_merge(Counter::state(0), Counter::state(10),
                                 Counter::state(3), p1, p2);
  EXPECT_TRUE(sys.verify(Counter::state(0), Counter::state(10), merged));
}

TEST(Recursive, MergeRejectsNonChainedChildren) {
  TransitionProofSystem sys(Counter::checker(), "counter-nonchain");
  Proof p1 = sys.prove_base(Counter::state(0), Counter::state(3),
                            Counter::Step{0, 3});
  Proof p2 = sys.prove_base(Counter::state(4), Counter::state(9),
                            Counter::Step{4, 5});
  // Children do not share the midpoint 3 -> merge must fail.
  EXPECT_THROW((void)sys.prove_merge(Counter::state(0), Counter::state(9),
                                     Counter::state(3), p1, p2),
               std::invalid_argument);
}

TEST(Recursive, MergeRejectsForgedChildProof) {
  TransitionProofSystem sys(Counter::checker(), "counter-forged");
  Proof p1 = sys.prove_base(Counter::state(0), Counter::state(3),
                            Counter::Step{0, 3});
  Proof forged;
  forged.binding = crypto::hash_str(Domain::kGeneric, "fake proof");
  EXPECT_THROW((void)sys.prove_merge(Counter::state(0), Counter::state(9),
                                     Counter::state(3), p1, forged),
               std::invalid_argument);
}

TEST(Recursive, MergeOfMerges) {
  // Fig. 10's two-level composition: merge two merged proofs.
  TransitionProofSystem sys(Counter::checker(), "counter-mergemerge");
  Proof p01 = sys.prove_base(Counter::state(0), Counter::state(1),
                             Counter::Step{0, 1});
  Proof p12 = sys.prove_base(Counter::state(1), Counter::state(2),
                             Counter::Step{1, 1});
  Proof p23 = sys.prove_base(Counter::state(2), Counter::state(3),
                             Counter::Step{2, 1});
  Proof p34 = sys.prove_base(Counter::state(3), Counter::state(4),
                             Counter::Step{3, 1});
  Proof m02 = sys.prove_merge(Counter::state(0), Counter::state(2),
                              Counter::state(1), p01, p12);
  Proof m24 = sys.prove_merge(Counter::state(2), Counter::state(4),
                              Counter::state(3), p23, p34);
  Proof m04 = sys.prove_merge(Counter::state(0), Counter::state(4),
                              Counter::state(2), m02, m24);
  EXPECT_TRUE(sys.verify(Counter::state(0), Counter::state(4), m04));
}

TEST(Recursive, ProveChainSingleStep) {
  TransitionProofSystem sys(Counter::checker(), "counter-chain1");
  RecursionStats stats;
  Proof p = sys.prove_chain({Counter::step(10, 5)}, &stats);
  EXPECT_TRUE(sys.verify(Counter::state(10), Counter::state(15), p));
  EXPECT_EQ(stats.base_proofs, 1u);
  EXPECT_EQ(stats.merge_proofs, 0u);
}

TEST(Recursive, ProveChainEmptyThrows) {
  TransitionProofSystem sys(Counter::checker(), "counter-chain0");
  EXPECT_THROW((void)sys.prove_chain({}), std::invalid_argument);
}

TEST(Recursive, ProveChainNonContiguousThrows) {
  TransitionProofSystem sys(Counter::checker(), "counter-gap");
  EXPECT_THROW(
      (void)sys.prove_chain({Counter::step(0, 2), Counter::step(3, 1)}),
      std::invalid_argument);
}

TEST(Recursive, MergeSpansAcrossBlocks) {
  // Fig. 11: per-block proofs merged into an epoch proof.
  TransitionProofSystem sys(Counter::checker(), "counter-epoch");
  std::vector<TransitionProofSystem::ProvenSpan> blocks;
  std::uint64_t at = 0;
  for (int b = 0; b < 5; ++b) {
    std::vector<TransitionStep> txs;
    for (int t = 0; t < 3; ++t) {
      txs.push_back(Counter::step(at, 1));
      ++at;
    }
    Proof block_proof = sys.prove_chain(txs);
    blocks.push_back({txs.front().before, txs.back().after, block_proof});
  }
  Proof epoch = sys.merge_spans(blocks);
  EXPECT_TRUE(sys.verify(Counter::state(0), Counter::state(15), epoch));
}

class ChainLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainLengthSweep, BalancedTreeStats) {
  int n = GetParam();
  TransitionProofSystem sys(Counter::checker(),
                            "counter-sweep-" + std::to_string(n));
  std::vector<TransitionStep> steps;
  for (int i = 0; i < n; ++i) {
    steps.push_back(Counter::step(static_cast<std::uint64_t>(i), 1));
  }
  RecursionStats stats;
  Proof p = sys.prove_chain(steps, &stats);
  EXPECT_TRUE(sys.verify(Counter::state(0),
                         Counter::state(static_cast<std::uint64_t>(n)), p));
  EXPECT_EQ(stats.base_proofs, static_cast<std::size_t>(n));
  // A binary merge over n leaves needs exactly n-1 merges.
  EXPECT_EQ(stats.merge_proofs, static_cast<std::size_t>(n - 1));
  // Depth is ceil(log2(n)).
  std::size_t expected_depth = 0;
  while ((1u << expected_depth) < static_cast<unsigned>(n)) ++expected_depth;
  EXPECT_EQ(stats.depth, expected_depth);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLengthSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 33, 64));

TEST(Recursive, IndependentSystemsDoNotCrossVerify) {
  TransitionProofSystem a(Counter::checker(), "counter-A");
  TransitionProofSystem b(Counter::checker(), "counter-B");
  Proof p = a.prove_base(Counter::state(0), Counter::state(1),
                         Counter::Step{0, 1});
  EXPECT_TRUE(a.verify(Counter::state(0), Counter::state(1), p));
  EXPECT_FALSE(b.verify(Counter::state(0), Counter::state(1), p));
}

TEST(Recursive, NullCheckerRejected) {
  EXPECT_THROW(TransitionProofSystem(nullptr, "bad"), std::invalid_argument);
}

TEST(Recursive, MergeSpansSingleSpanIsIdentity) {
  TransitionProofSystem sys(Counter::checker(), "counter-single-span");
  Proof base = sys.prove_base(Counter::state(0), Counter::state(1),
                              Counter::Step{0, 1});
  RecursionStats stats;
  Proof merged = sys.merge_spans(
      {{Counter::state(0), Counter::state(1), base}}, &stats);
  EXPECT_EQ(merged, base);
  EXPECT_EQ(stats.merge_proofs, 0u);
}

TEST(Recursive, MergeSpansRejectsGaps) {
  TransitionProofSystem sys(Counter::checker(), "counter-span-gap");
  Proof a = sys.prove_base(Counter::state(0), Counter::state(1),
                           Counter::Step{0, 1});
  Proof b = sys.prove_base(Counter::state(2), Counter::state(3),
                           Counter::Step{2, 1});
  EXPECT_THROW(
      (void)sys.merge_spans({{Counter::state(0), Counter::state(1), a},
                             {Counter::state(2), Counter::state(3), b}}),
      std::invalid_argument);
  EXPECT_THROW((void)sys.merge_spans({}), std::invalid_argument);
}

TEST(Recursive, ProofForIdentityTransitionStillBindsStates) {
  // A transition that leaves the state unchanged is provable, and the
  // proof only verifies for that exact (s, s) pair.
  TransitionProofSystem sys(Counter::checker(), "counter-identity");
  Proof p = sys.prove_base(Counter::state(7), Counter::state(7),
                           Counter::Step{7, 0});
  EXPECT_TRUE(sys.verify(Counter::state(7), Counter::state(7), p));
  EXPECT_FALSE(sys.verify(Counter::state(8), Counter::state(8), p));
}

}  // namespace
}  // namespace zendoo::snark
