// Experiments F9 and F15/F16: Merkle State Tree costs — the
// Fig. 9 accounting structure and the Appendix-A mst_delta mechanism.
//
// Series: insert/erase/prove at various depths (all O(depth), independent
// of capacity thanks to sparsity), delta merge/hash, and the
// delta-unspentness check across k epochs.
#include <benchmark/benchmark.h>

#include "crypto/rng.hpp"
#include "merkle/mst.hpp"

namespace {

using namespace zendoo;
using merkle::MerkleStateTree;
using merkle::MstDelta;

void BM_MstInsertErase(benchmark::State& state) {
  unsigned depth = static_cast<unsigned>(state.range(0));
  MerkleStateTree mst(depth);
  crypto::Rng rng(depth);
  // Pre-populate 1024 slots so paths are non-trivial.
  for (int i = 0; i < 1024; ++i) {
    mst.insert(rng.next_below(mst.capacity()), rng.next_digest());
  }
  for (auto _ : state) {
    std::uint64_t pos = rng.next_below(mst.capacity());
    if (mst.occupied(pos)) {
      mst.erase(pos);
    } else {
      mst.insert(pos, rng.next_digest());
    }
    benchmark::DoNotOptimize(mst.root());
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_MstInsertErase)->DenseRange(8, 32, 4)->Complexity();

void BM_MstProve(benchmark::State& state) {
  unsigned depth = static_cast<unsigned>(state.range(0));
  MerkleStateTree mst(depth);
  crypto::Rng rng(depth);
  std::vector<std::uint64_t> positions;
  for (int i = 0; i < 1024; ++i) {
    std::uint64_t pos = rng.next_below(mst.capacity());
    if (mst.insert(pos, rng.next_digest())) positions.push_back(pos);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto proof = mst.prove(positions[i++ % positions.size()]);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_MstProve)->DenseRange(8, 32, 4);

void BM_MstOccupancyScaling(benchmark::State& state) {
  // Root update cost must stay O(depth) as occupancy grows.
  unsigned depth = 20;
  std::uint64_t occupancy = static_cast<std::uint64_t>(state.range(0));
  MerkleStateTree mst(depth);
  crypto::Rng rng(occupancy);
  for (std::uint64_t i = 0; i < occupancy; ++i) {
    mst.insert(rng.next_below(mst.capacity()), rng.next_digest());
  }
  for (auto _ : state) {
    std::uint64_t pos = rng.next_below(mst.capacity());
    if (mst.occupied(pos)) {
      mst.erase(pos);
    } else {
      mst.insert(pos, rng.next_digest());
    }
  }
}
BENCHMARK(BM_MstOccupancyScaling)->RangeMultiplier(4)->Range(64, 65536);

void BM_MstDeltaMergeHash(benchmark::State& state) {
  unsigned depth = static_cast<unsigned>(state.range(0));
  MstDelta a(depth), b(depth);
  crypto::Rng rng(depth);
  for (int i = 0; i < 256; ++i) {
    a.set(rng.next_below(a.size()));
    b.set(rng.next_below(b.size()));
  }
  for (auto _ : state) {
    MstDelta merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.hash());
  }
}
BENCHMARK(BM_MstDeltaMergeHash)->DenseRange(8, 20, 4);

void BM_DeltaUnspentnessCheck(benchmark::State& state) {
  // Appendix A: prove a coin unspent across k epochs = one old Merkle
  // proof + k delta bit checks.
  std::int64_t epochs = state.range(0);
  unsigned depth = 16;
  MerkleStateTree mst(depth);
  crypto::Rng rng(7);
  crypto::Digest coin = rng.next_digest();
  std::uint64_t pos = 12345;
  mst.insert(pos, coin);
  auto proof = mst.prove(pos);
  crypto::Digest root = mst.root();
  std::vector<MstDelta> deltas;
  for (std::int64_t e = 0; e < epochs; ++e) {
    MstDelta d(depth);
    for (int i = 0; i < 64; ++i) d.set(rng.next_below(d.size()));
    deltas.push_back(std::move(d));
  }
  for (auto _ : state) {
    bool ok = MerkleStateTree::verify(root, coin, proof);
    for (const MstDelta& d : deltas) ok = ok && !d.get(pos);
    benchmark::DoNotOptimize(ok);
  }
  state.SetComplexityN(epochs);
}
BENCHMARK(BM_DeltaUnspentnessCheck)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity();

}  // namespace
