#include "core/engine.hpp"

#include <stdexcept>

namespace zendoo::core {

Engine::Engine(mainchain::ChainParams params, const crypto::KeyPair& miner_key)
    : chain_(params),
      miner_key_(miner_key),
      miner_wallet_(miner_key),
      miner_(chain_, miner_key.address()) {}

latus::LatusNode& Engine::add_latus_sidechain(
    const SidechainId& id, std::uint64_t start_block, std::uint64_t epoch_len,
    std::uint64_t submit_len, const std::vector<crypto::KeyPair>& forgers,
    unsigned mst_depth, std::uint64_t slots_per_epoch) {
  if (sidechains_.contains(id)) {
    throw std::invalid_argument("Engine: sidechain id already added");
  }
  auto [it, _] = sidechains_.emplace(
      id, ScEntry{latus::LatusNode(id, start_block, epoch_len, submit_len,
                                   mst_depth, slots_per_epoch),
                  chain_.height()});
  latus::LatusNode& node = it->second.node;
  for (const auto& key : forgers) node.add_forger(key);
  mempool_.sidechain_creations.push_back(node.mc_params());
  return node;
}

latus::LatusNode& Engine::sidechain(const SidechainId& id) {
  auto it = sidechains_.find(id);
  if (it == sidechains_.end()) {
    throw std::invalid_argument("Engine: unknown sidechain");
  }
  return it->second.node;
}

void Engine::sync_entry(ScEntry& entry, const mainchain::Block& block) {
  if (std::string err = entry.node.observe_mc_block(block); !err.empty()) {
    throw std::logic_error("Engine: sidechain observe failed: " + err);
  }
  if (std::string err = entry.node.forge_until_synced(); !err.empty()) {
    throw std::logic_error("Engine: sidechain forge failed: " + err);
  }
  entry.synced_height = block.header.height;
}

mainchain::Block Engine::step() {
  mainchain::Block block;
  auto result = miner_.mine_and_submit(mempool_, &block);
  if (!result.accepted()) {
    throw std::logic_error("Engine: mining failed: " + result.error);
  }
  mempool_.clear();

  for (auto& [id, entry] : sidechains_) {
    sync_entry(entry, block);
    // Queue any certificates whose epoch just completed; the next MC block
    // lands inside the submission window.
    while (entry.auto_certificates) {
      auto cert = entry.node.build_certificate();
      if (!cert) break;
      mempool_.certificates.push_back(std::move(*cert));
    }
  }
  return block;
}

void Engine::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

mainchain::Blockchain::SubmitResult Engine::submit_external_block(
    const mainchain::Block& block) {
  auto result = chain_.submit_block(block);
  if (result.accepted() && (result.connected > 0 || result.reorged)) {
    // resync handles plain catch-up and reorgs alike: it walks back to
    // the fork point between what each node observed and the new active
    // chain, then replays forward.
    resync_sidechains_after_reorg();
  }
  return result;
}

bool Engine::queue_forward_transfer(const SidechainId& id,
                                    const mainchain::Address& sc_receiver,
                                    const mainchain::Address& mc_payback,
                                    mainchain::Amount amount) {
  auto tx = miner_wallet_.forward_transfer(
      chain_.state(), id, {sc_receiver, mc_payback}, amount);
  if (!tx) return false;
  mempool_.transactions.push_back(std::move(*tx));
  return true;
}

void Engine::set_auto_certificates(const SidechainId& id, bool enabled) {
  auto it = sidechains_.find(id);
  if (it == sidechains_.end()) {
    throw std::invalid_argument("Engine: unknown sidechain");
  }
  it->second.auto_certificates = enabled;
}

void Engine::resync_sidechains_after_reorg() {
  for (auto& [id, entry] : sidechains_) {
    // A node that has observed nothing yet just catches up from its
    // creation height.
    std::uint64_t replay_from = entry.synced_height + 1;
    if (entry.node.last_observed_mc_height()) {
      // Fork point between what this node observed and the new active
      // chain: the highest observed height whose hash is still active.
      std::uint64_t top = std::min(entry.synced_height, chain_.height());
      std::uint64_t fork_height = 0;
      for (std::uint64_t h = top; h >= 1; --h) {
        auto seen = entry.node.observed_mc_hash(h);
        if (seen && *seen == chain_.hash_at_height(h)) {
          fork_height = h;
          break;
        }
      }
      // Unless nothing the node observed was rolled back, roll it back in
      // place; its base checkpoint covers every fork point.
      if (fork_height != entry.synced_height) {
        replay_from =
            entry.node.rollback_to_mc_ancestor(fork_height).value() + 1;
      }
    }

    entry.synced_height = replay_from - 1;
    for (std::uint64_t h = replay_from; h <= chain_.height(); ++h) {
      const mainchain::Block* b = chain_.find_block(chain_.hash_at_height(h));
      if (b == nullptr) {
        throw std::logic_error("Engine: active chain block missing");
      }
      sync_entry(entry, *b);
      while (entry.auto_certificates) {
        auto cert = entry.node.build_certificate();
        if (!cert) break;
        // Certificates for already-finalized epochs would be rejected by
        // the MC (outside their window); only re-queue fresh ones.
        const auto* sc = chain_.state().find_sidechain(id);
        if (sc != nullptr && !sc->ceased) {
          mempool_.certificates.push_back(std::move(*cert));
        }
      }
    }
  }
}

}  // namespace zendoo::core
