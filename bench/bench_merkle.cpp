// Experiment F2: Merkle Hash Tree costs — Fig. 2 mechanism.
//
// Series: build time vs leaf count (linear), proof generation (O(log n)),
// proof verification (O(log n)), proof size in hashes (log n).
#include <benchmark/benchmark.h>

#include "crypto/rng.hpp"
#include "merkle/mht.hpp"

namespace {

using namespace zendoo;
using merkle::MerkleProof;
using merkle::MerkleTree;

std::vector<crypto::Digest> leaves_for(std::size_t n) {
  crypto::Rng rng(n);
  std::vector<crypto::Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.next_digest());
  return leaves;
}

void BM_MhtBuild(benchmark::State& state) {
  auto leaves = leaves_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MhtBuild)->RangeMultiplier(4)->Range(16, 16384)->Complexity();

void BM_MhtProve(benchmark::State& state) {
  auto leaves = leaves_for(static_cast<std::size_t>(state.range(0)));
  MerkleTree tree(leaves);
  std::uint64_t i = 0;
  for (auto _ : state) {
    MerkleProof p = tree.prove(i++ % leaves.size());
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MhtProve)->RangeMultiplier(4)->Range(16, 16384)->Complexity();

void BM_MhtVerify(benchmark::State& state) {
  auto leaves = leaves_for(static_cast<std::size_t>(state.range(0)));
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(leaves.size() / 2);
  const auto& leaf = leaves[leaves.size() / 2];
  for (auto _ : state) {
    bool ok = MerkleTree::verify(tree.root(), leaf, proof);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["proof_hashes"] =
      static_cast<double>(proof.siblings.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MhtVerify)->RangeMultiplier(4)->Range(16, 16384)->Complexity();

}  // namespace
