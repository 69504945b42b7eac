#include "mainchain/chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace zendoo::mainchain {

namespace {

std::string check_genesis(const Block& block) {
  if (block.header.height != 0) return "first block must be genesis";
  if (!block.header.prev_hash.is_zero()) return "genesis must have no parent";
  if (!block.transactions.empty() || !block.certificates.empty() ||
      !block.btrs.empty() || !block.csws.empty() ||
      !block.sidechain_creations.empty()) {
    return "genesis block must be empty";
  }
  return "";
}

}  // namespace

ChainState::ChainState(ChainParams params) : params_(params) {
  if (params_.validation.policy == parallel::CheckPolicy::kDeferred) {
    vctx_ = std::make_shared<parallel::ValidationContext>(params_.validation);
  }
}

void ChainState::set_validation_config(
    const parallel::ValidationConfig& config) {
  params_.validation = config;
  vctx_ = config.policy == parallel::CheckPolicy::kDeferred
              ? std::make_shared<parallel::ValidationContext>(config)
              : nullptr;
}

const TxOutput* ChainState::find_utxo(const OutPoint& op) const {
  auto it = utxos_.find(op);
  return it == utxos_.end() ? nullptr : &it->second;
}

const SidechainStatus* ChainState::find_sidechain(
    const SidechainId& id) const {
  auto it = sidechains_.find(id);
  return it == sidechains_.end() ? nullptr : &it->second;
}

bool ChainState::nullifier_key_used(const Digest& key) const {
  return nullifiers_.contains(key);
}

Digest ChainState::hash_at_height(std::uint64_t h) const {
  if (h >= block_hashes_.size()) return Digest{};
  return block_hashes_[h];
}

std::vector<SidechainId> ChainState::sidechain_ids() const {
  std::vector<SidechainId> ids;
  ids.reserve(sidechains_.size());
  for (const auto& [id, _] : sidechains_) ids.push_back(id);
  return ids;
}

Amount ChainState::balance_of(const Address& addr) const {
  Amount sum = 0;
  for (const auto& [op, out] : utxos_) {
    if (out.addr == addr) sum += out.amount;
  }
  return sum;
}

std::vector<std::pair<OutPoint, TxOutput>> ChainState::utxos_of(
    const Address& addr) const {
  std::vector<std::pair<OutPoint, TxOutput>> out;
  for (const auto& [op, o] : utxos_) {
    if (o.addr == addr) out.emplace_back(op, o);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

Digest ChainState::state_fingerprint() const {
  // UTXOs and nullifiers live in unordered containers: hash each entry
  // independently and combine with XOR so iteration order cannot matter.
  auto hash_outpoint_entry = [](const OutPoint& op, const TxOutput& out) {
    return crypto::Hasher(Domain::kGeneric)
        .write(op.txid)
        .write_u64(op.index)
        .write(out.addr)
        .write_u64(out.amount)
        .finalize();
  };
  Digest utxo_acc{};
  for (const auto& [op, out] : utxos_) {
    Digest h = hash_outpoint_entry(op, out);
    for (std::size_t i = 0; i < h.bytes.size(); ++i) {
      utxo_acc.bytes[i] ^= h.bytes[i];
    }
  }
  Digest nullifier_acc{};
  for (const Digest& n : nullifiers_) {
    for (std::size_t i = 0; i < n.bytes.size(); ++i) {
      nullifier_acc.bytes[i] ^= n.bytes[i];
    }
  }

  crypto::Hasher h(Domain::kGeneric);
  h.write_u64(height_).write(tip_).write(utxo_acc).write(nullifier_acc);
  h.write_u64(block_hashes_.size());
  for (const Digest& bh : block_hashes_) h.write(bh);
  h.write_u64(sidechains_.size());
  for (const auto& [id, sc] : sidechains_) {
    h.write(id)
        .write(sc.params.hash())
        .write_u64(sc.created_at_height)
        .write_u64(sc.balance)
        .write_u8(sc.ceased ? 1 : 0);
    h.write_u8(sc.pending_cert.has_value() ? 1 : 0);
    if (sc.pending_cert) {
      h.write(sc.pending_cert->hash())
          .write_u64(sc.pending_cert_epoch)
          .write(sc.pending_cert_block);
    }
    h.write_u8(sc.last_finalized_epoch.has_value() ? 1 : 0);
    if (sc.last_finalized_epoch) h.write_u64(*sc.last_finalized_epoch);
    h.write(sc.last_cert_block);
  }
  return h.finalize();
}

BlockUndo ChainState::build_undo(const CacheView& view,
                                 const Block& block) const {
  BlockUndo undo;
  undo.block_hash = block.hash();
  undo.height = block.header.height;
  for (const auto& [op, entry] : view.utxo_entries()) {
    const TxOutput* prior = find_utxo(op);
    if (entry.has_value()) {
      if (prior != nullptr) undo.spent.emplace_back(op, *prior);
      undo.created.push_back(op);
    } else if (prior != nullptr) {
      undo.spent.emplace_back(op, *prior);
    }
    // entry == nullopt with no prior: created and spent within this very
    // block — net zero, nothing to undo.
  }
  for (const auto& [id, _] : view.sidechain_entries()) {
    const SidechainStatus* prior = find_sidechain(id);
    undo.sidechains.emplace_back(
        id, prior ? std::optional<SidechainStatus>(*prior) : std::nullopt);
  }
  for (const Digest& key : view.nullifier_entries()) {
    undo.nullifier_keys.push_back(key);
  }
  return undo;
}

void ChainState::flush(const CacheView& view, const Block& block) {
  for (const auto& [op, entry] : view.utxo_entries()) {
    if (entry.has_value()) {
      utxos_[op] = *entry;
    } else {
      utxos_.erase(op);
    }
  }
  for (const auto& [id, sc] : view.sidechain_entries()) {
    sidechains_[id] = sc;
  }
  for (const Digest& key : view.nullifier_entries()) {
    nullifiers_.insert(key);
  }
  ++height_;
  tip_ = block.hash();
  block_hashes_.push_back(tip_);
}

std::string ChainState::connect_block(const Block& block, BlockUndo* undo) {
  if (!genesis_connected_) {
    if (std::string err = check_genesis(block); !err.empty()) return err;
    genesis_connected_ = true;
    height_ = 0;
    tip_ = block.hash();
    block_hashes_ = {tip_};
    if (undo != nullptr) *undo = BlockUndo{tip_, 0, {}, {}, {}, {}};
    return "";
  }

  CacheView view(*this);
  std::string err;
  if (vctx_ != nullptr) {
    parallel::BatchProofVerifier batch(*vctx_);
    err = apply_block(view, params_, block, &batch);
  } else {
    err = apply_block(view, params_, block);
  }
  if (!err.empty()) return err;
  if (undo != nullptr) *undo = build_undo(view, block);
  flush(view, block);
  return "";
}

std::string ChainState::disconnect_block(const BlockUndo& undo) {
  if (!genesis_connected_ || height_ == 0) {
    return "disconnect: nothing above genesis";
  }
  if (undo.height != height_ || undo.block_hash != tip_) {
    return "disconnect: undo record does not match the tip";
  }
  for (const OutPoint& op : undo.created) utxos_.erase(op);
  for (const auto& [op, out] : undo.spent) utxos_[op] = out;
  for (const auto& [id, prior] : undo.sidechains) {
    if (prior.has_value()) {
      sidechains_[id] = *prior;
    } else {
      sidechains_.erase(id);
    }
  }
  for (const Digest& key : undo.nullifier_keys) nullifiers_.erase(key);
  block_hashes_.pop_back();
  --height_;
  tip_ = block_hashes_.back();
  return "";
}

std::string ChainState::dry_run(const Block& block) const {
  if (!genesis_connected_) return check_genesis(block);
  CacheView view(*this);
  if (vctx_ != nullptr) {
    // Shares the validation runtime with connect_block: proofs verified
    // here are cached, so a later connect of the same block (the
    // mempool-probe-then-connect flow) re-verifies nothing.
    parallel::BatchProofVerifier batch(*vctx_);
    return apply_block(view, params_, block, &batch);
  }
  return apply_block(view, params_, block);
}

// ---------------------------------------------------------------------------
// Blockchain
// ---------------------------------------------------------------------------

namespace {

Block make_genesis_block() {
  Block genesis;
  genesis.header.height = 0;
  genesis.header.tx_merkle_root = genesis.compute_tx_merkle_root();
  genesis.header.sc_txs_commitment = genesis.build_commitment_tree().root();
  return genesis;
}

/// `dos` is the suggested misbehavior penalty for the relaying peer —
/// zero when the rejection is local policy rather than peer fault.
Blockchain::SubmitResult invalid_result(std::string error, int dos = 0) {
  Blockchain::SubmitResult r;
  r.code = SubmitCode::kInvalid;
  r.error = std::move(error);
  r.dos = dos;
  return r;
}

}  // namespace

const char* to_string(SubmitCode code) {
  switch (code) {
    case SubmitCode::kAccepted: return "accepted";
    case SubmitCode::kDuplicate: return "duplicate";
    case SubmitCode::kOrphaned: return "orphaned";
    case SubmitCode::kInvalid: return "invalid";
  }
  return "?";
}

void Blockchain::init_metrics() {
  obs_ = std::make_shared<obs::Registry>();
  events_ = std::make_shared<obs::EventLog>(64);
  m_submitted_ = obs_->counter("mc.blocks_submitted");
  m_connected_ = obs_->counter("mc.blocks_connected");
  m_disconnected_ = obs_->counter("mc.blocks_disconnected");
  m_duplicates_ = obs_->counter("mc.duplicates");
  m_rejected_ = obs_->counter("mc.rejected");
  m_reorgs_ = obs_->counter("mc.reorgs");
  m_orphans_buffered_ = obs_->counter("mc.orphans_buffered");
  m_orphans_connected_ = obs_->counter("mc.orphans_connected");
  m_orphans_evicted_ = obs_->counter("mc.orphans_evicted");
  m_headers_accepted_ = obs_->counter("mc.headers_accepted");
  m_reorg_depth_ = obs_->histogram("mc.reorg_depth");
  m_connect_ns_ = obs_->histogram("mc.connect_block_ns",
                                  obs::Determinism::kWallClock);
  m_disconnect_ns_ = obs_->histogram("mc.disconnect_block_ns",
                                     obs::Determinism::kWallClock);
  m_orphan_pool_ = obs_->gauge("mc.orphan_pool");
  m_height_ = obs_->gauge("mc.height");
}

Blockchain::Blockchain(ChainParams params)
    : params_(params), state_(params) {
  init_metrics();
  Block genesis = make_genesis_block();
  genesis_hash_ = genesis.hash();
  std::string err = state_.connect_block(genesis);
  if (!err.empty()) {
    throw std::logic_error("genesis connect failed: " + err);
  }
  heights_[genesis_hash_] = 0;
  blocks_.emplace(genesis_hash_, std::move(genesis));
  header_chain_ = {genesis_hash_};
}

const Block& Blockchain::genesis() const { return blocks_.at(genesis_hash_); }

const Block* Blockchain::find_block(const Digest& hash) const {
  auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : &it->second;
}

const BlockHeader* Blockchain::find_header(const Digest& hash) const {
  if (auto it = headers_.find(hash); it != headers_.end()) return &it->second;
  if (auto it = blocks_.find(hash); it != blocks_.end()) {
    return &it->second.header;
  }
  return nullptr;
}

void Blockchain::set_best_header(const Digest& tip, std::uint64_t tip_height) {
  // Walk the new branch back to the first hash already on the current
  // best-header branch at the same height (genesis matches at worst).
  std::vector<Digest> branch;  // tip first, reversed by the append below
  Digest cur = tip;
  std::uint64_t h = tip_height;
  while (h >= header_chain_.size() || header_chain_[h] != cur) {
    branch.push_back(cur);
    const BlockHeader* hdr = find_header(cur);
    if (hdr == nullptr) {
      throw std::logic_error("Blockchain: header branch ancestor missing");
    }
    cur = hdr->prev_hash;
    --h;
  }
  header_chain_.resize(h + 1);
  for (auto it = branch.rbegin(); it != branch.rend(); ++it) {
    header_chain_.push_back(*it);
  }
  if (first_missing_body_ > h + 1) first_missing_body_ = h + 1;
}

void Blockchain::note_stored_block(const Digest& hash,
                                   const BlockHeader& header) {
  if (header.height > header_height()) set_best_header(hash, header.height);
}

HeaderResult Blockchain::submit_header(const BlockHeader& header) {
  Digest hash = header.hash();
  HeaderResult result;
  if (headers_.contains(hash) || blocks_.contains(hash)) {
    result.code = HeaderCode::kDuplicate;
    return result;
  }
  // Same parent-free checks a body must pass: header spam costs PoW.
  if (!(hash.as_u256() < params_.pow_target)) {
    result.error = "insufficient proof of work";
    result.dos = 100;
    return result;
  }
  if (header.height == 0 || header.prev_hash.is_zero()) {
    result.error = "only one genesis block";
    result.dos = 100;
    return result;
  }
  const BlockHeader* parent = find_header(header.prev_hash);
  if (parent == nullptr) {
    // Headers arrive fork-point-first from honest serving peers, so a
    // disconnected header is a protocol violation, not a race.
    result.code = HeaderCode::kDisconnected;
    result.dos = 20;
    return result;
  }
  if (header.height != parent->height + 1) {
    result.error = "header height does not follow parent";
    result.dos = 100;
    return result;
  }
  headers_.emplace(hash, header);
  if (header.height > header_height()) set_best_header(hash, header.height);
  result.code = HeaderCode::kAccepted;
  ++*m_headers_accepted_;
  return result;
}

BlockLocator Blockchain::locator() const {
  BlockLocator loc;
  std::uint64_t step = 1;
  std::uint64_t h = header_height();
  while (true) {
    loc.hashes.push_back(header_chain_[h]);
    if (h == 0) break;
    if (loc.hashes.size() >= 10) step *= 2;  // dense tail, then exponential
    h = h > step ? h - step : 0;
  }
  return loc;
}

std::vector<BlockHeader> Blockchain::headers_after(const BlockLocator& loc,
                                                   std::size_t max) const {
  // Highest locator hash on our active chain; a locator from any node
  // sharing our genesis matches at least there.
  std::uint64_t fork = 0;
  for (const Digest& hash : loc.hashes) {
    if (on_active_chain(hash)) {
      fork = heights_.at(hash);
      break;
    }
  }
  std::vector<BlockHeader> out;
  const std::uint64_t top =
      std::min<std::uint64_t>(state_.height(), fork + max);
  out.reserve(top > fork ? top - fork : 0);
  for (std::uint64_t h = fork + 1; h <= top; ++h) {
    const Block* b = find_block(state_.hash_at_height(h));
    if (b == nullptr) {
      throw std::logic_error("Blockchain: active chain block missing");
    }
    out.push_back(b->header);
  }
  return out;
}

std::vector<Digest> Blockchain::next_missing_bodies(std::size_t max) {
  while (first_missing_body_ < header_chain_.size() &&
         blocks_.contains(header_chain_[first_missing_body_])) {
    ++first_missing_body_;
  }
  std::vector<Digest> out;
  // Ceiling: never hand out bodies the orphan pool couldn't retain next
  // to everything below them — a body that far up would evict
  // closer-to-connecting orphans on arrival and get re-fetched, churning
  // the pool instead of advancing the chain.
  const std::uint64_t ceiling = state_.height() + params_.max_orphan_blocks;
  for (std::uint64_t h = first_missing_body_;
       h < header_chain_.size() && h <= ceiling && out.size() < max; ++h) {
    if (!has_body(header_chain_[h])) out.push_back(header_chain_[h]);
  }
  return out;
}

bool Blockchain::on_active_chain(const Digest& hash) const {
  auto it = heights_.find(hash);
  if (it == heights_.end()) return false;
  return it->second <= state_.height() &&
         state_.hash_at_height(it->second) == hash;
}

void Blockchain::push_undo(BlockUndo undo) {
  undo_stack_.push_back(std::move(undo));
  if (undo_stack_.size() > params_.max_reorg_depth) {
    undo_stack_.pop_front();
  }
}

Blockchain::SubmitResult Blockchain::activate_branch(const Digest& tip) {
  // Walk the candidate branch back to its fork point with the active
  // chain: these are the only blocks a switch has to connect.
  std::vector<const Block*> new_branch;  // tip first, reversed below
  Digest cur = tip;
  while (!on_active_chain(cur)) {
    const Block* b = find_block(cur);
    if (b == nullptr) {
      throw std::logic_error("Blockchain: branch block missing");
    }
    new_branch.push_back(b);
    cur = b->header.prev_hash;
  }
  std::reverse(new_branch.begin(), new_branch.end());
  std::uint64_t fork_height = heights_.at(cur);
  std::uint64_t depth = state_.height() - fork_height;

  if (depth > params_.max_reorg_depth) {
    return invalid_result("reorg of depth " + std::to_string(depth) +
                          " exceeds max_reorg_depth");
  }

  // Remember the branch being abandoned so an invalid candidate can be
  // rolled forward again.
  std::vector<const Block*> old_branch;
  old_branch.reserve(depth);
  for (std::uint64_t h = fork_height + 1; h <= state_.height(); ++h) {
    old_branch.push_back(find_block(state_.hash_at_height(h)));
  }

  auto disconnect_to_fork = [&] {
    while (state_.height() > fork_height) {
      std::string err;
      {
        obs::ScopedTimer timer(m_disconnect_ns_);
        err = state_.disconnect_block(undo_stack_.back());
      }
      if (!err.empty()) {
        throw std::logic_error("Blockchain: disconnect failed: " + err);
      }
      ++*m_disconnected_;
      undo_stack_.pop_back();
    }
  };

  disconnect_to_fork();
  for (std::size_t i = 0; i < new_branch.size(); ++i) {
    BlockUndo undo;
    std::string connect_err;
    {
      obs::ScopedTimer timer(m_connect_ns_);
      connect_err = state_.connect_block(*new_branch[i], &undo);
    }
    if (!connect_err.empty()) ++*m_rejected_; else ++*m_connected_;
    if (std::string err = connect_err; !err.empty()) {
      // Candidate invalid mid-branch: unwind what connected and restore
      // the old branch (which validated before, so this cannot fail).
      disconnect_to_fork();
      for (const Block* b : old_branch) {
        BlockUndo redo;
        if (std::string redo_err = state_.connect_block(*b, &redo);
            !redo_err.empty()) {
          throw std::logic_error("Blockchain: old branch reconnect failed: " +
                                 redo_err);
        }
        ++*m_connected_;
        push_undo(std::move(redo));
      }
      // The branch tip's relayer fed us a branch containing an invalid
      // block; an honest peer validates before relaying.
      return invalid_result("reorg candidate invalid: " + err, 50);
    }
    push_undo(std::move(undo));
  }
  SubmitResult result;
  result.code = SubmitCode::kAccepted;

  result.reorged = depth > 0;
  result.disconnected = depth;
  result.connected = new_branch.size();
  if (depth > 0) {
    ++*m_reorgs_;
    m_reorg_depth_->record(depth);
    ZENDOO_OBS_EVENT(*events_, kInfo, state_.height(), "mc",
                     "reorg: branch switch", depth, new_branch.size());
  }
  m_height_->set(state_.height());
  return result;
}

Blockchain::SubmitResult Blockchain::submit_attached(const Block& block) {
  Digest hash = block.hash();
  if (block.header.height != heights_.at(block.header.prev_hash) + 1) {
    return invalid_result("block height does not follow parent", 100);
  }

  if (block.header.prev_hash == state_.tip_hash()) {
    // Fast path: extends the active tip.
    BlockUndo undo;
    std::string err;
    {
      obs::ScopedTimer timer(m_connect_ns_);
      err = state_.connect_block(block, &undo);
    }
    if (!err.empty()) {
      ++*m_rejected_;
      return invalid_result(err, 50);
    }
    ++*m_connected_;
    m_height_->set(state_.height());
    push_undo(std::move(undo));
    heights_[hash] = block.header.height;
    blocks_.emplace(hash, block);
    note_stored_block(hash, block.header);
    SubmitResult result;
    result.code = SubmitCode::kAccepted;

    result.connected = 1;
    return result;
  }

  // Side branch. Store it; switch only if it becomes strictly longer than
  // the active chain (Nakamoto rule, first-seen tiebreak).
  heights_[hash] = block.header.height;
  blocks_.emplace(hash, block);
  if (block.header.height <= state_.height()) {
    note_stored_block(hash, block.header);
    SubmitResult result;
    result.code = SubmitCode::kAccepted;

    return result;
  }

  SubmitResult result = activate_branch(hash);
  if (!result.accepted()) {
    blocks_.erase(hash);
    heights_.erase(hash);
  } else {
    // Only a block that survived validation may advance the best header
    // — noting it earlier would leave the header chain pointing at a
    // branch whose body just proved invalid, and the download scheduler
    // would re-fetch it forever.
    note_stored_block(hash, block.header);
  }
  return result;
}

void Blockchain::erase_orphan(const Digest& hash) {
  auto it = orphans_.find(hash);
  if (it == orphans_.end()) return;
  ++*m_orphans_evicted_;
  auto [lo, hi] = orphan_children_.equal_range(it->second.header.prev_hash);
  for (auto idx = lo; idx != hi; ++idx) {
    if (idx->second == hash) {
      orphan_children_.erase(idx);
      break;
    }
  }
  orphans_.erase(it);
}

void Blockchain::prune_orphans() {
  // Height window: only orphans whose claimed height is near the next
  // height to connect can still matter.
  const std::uint64_t next = state_.height() + 1;
  const std::uint64_t window = params_.orphan_height_window;
  std::vector<Digest> stale;
  for (const auto& [hash, block] : orphans_) {
    const std::uint64_t h = block.header.height;
    if (h + window < next || h > next + window) stale.push_back(hash);
  }
  for (const Digest& hash : stale) erase_orphan(hash);

  // Size bound: evict the orphan farthest from the tip (larger hash
  // breaking ties) until the pool fits — deterministic under any
  // insertion order.
  while (orphans_.size() > params_.max_orphan_blocks) {
    auto distance = [next](std::uint64_t h) {
      return h > next ? h - next : next - h;
    };
    auto victim = orphans_.begin();
    for (auto it = std::next(orphans_.begin()); it != orphans_.end(); ++it) {
      const std::uint64_t dv = distance(victim->second.header.height);
      const std::uint64_t di = distance(it->second.header.height);
      if (di > dv || (di == dv && it->first > victim->first)) victim = it;
    }
    erase_orphan(victim->first);
  }
  m_orphan_pool_->set(orphans_.size());
}

void Blockchain::connect_orphans(const Digest& parent, SubmitResult& agg) {
  std::vector<Digest> ready{parent};
  while (!ready.empty()) {
    Digest p = ready.back();
    ready.pop_back();
    auto [lo, hi] = orphan_children_.equal_range(p);
    std::vector<Digest> kids;
    for (auto it = lo; it != hi; ++it) kids.push_back(it->second);
    orphan_children_.erase(lo, hi);
    std::sort(kids.begin(), kids.end());  // deterministic adoption order
    for (const Digest& kid_hash : kids) {
      auto it = orphans_.find(kid_hash);
      if (it == orphans_.end()) continue;
      Block kid = std::move(it->second);
      orphans_.erase(it);
      SubmitResult r = submit_attached(kid);
      if (r.code == SubmitCode::kAccepted) {
        ++*m_orphans_connected_;
        ++agg.orphans_connected;
        agg.connected += r.connected;
        agg.disconnected += r.disconnected;
        agg.reorged = agg.reorged || r.reorged;
        ready.push_back(kid_hash);
      }
      // An orphan that fails validation is simply discarded; its own
      // descendants (if any) will age out of the height window.
    }
  }
}

Blockchain::SubmitResult Blockchain::submit_block(const Block& block) {
  Digest hash = block.hash();
  ++*m_submitted_;
  if (blocks_.contains(hash) || orphans_.contains(hash)) {
    ++*m_duplicates_;
    SubmitResult result;
    result.code = SubmitCode::kDuplicate;
    return result;  // idempotent: resubmission is a silent no-op
  }

  // Checks that need no parent context — an orphan must pass these too,
  // so a spammer cannot fill the pool with free (PoW-less) blocks.
  if (!(block.hash().as_u256() < params_.pow_target)) {
    ++*m_rejected_;
    return invalid_result("insufficient proof of work", 100);
  }
  if (block.header.height == 0 || block.header.prev_hash.is_zero()) {
    ++*m_rejected_;
    return invalid_result("only one genesis block", 100);
  }
  if (block.header.tx_merkle_root != block.compute_tx_merkle_root()) {
    ++*m_rejected_;
    return invalid_result("tx merkle root mismatch", 100);
  }

  if (!heights_.contains(block.header.prev_hash)) {
    // Parent not here yet (out-of-order gossip delivery): buffer. The
    // result is kOrphaned even when pruning refuses retention (height
    // outside the window, pool full) — the parent is unknown either way
    // and the caller should backfill ancestors; an unretained orphan
    // simply re-triggers this path when redelivered later.
    orphan_children_.emplace(block.header.prev_hash, hash);
    orphans_.emplace(hash, block);
    ++*m_orphans_buffered_;
    prune_orphans();
    SubmitResult result;
    result.code = SubmitCode::kOrphaned;
    return result;
  }

  SubmitResult result = submit_attached(block);
  if (result.code == SubmitCode::kAccepted) {
    connect_orphans(hash, result);
    prune_orphans();  // the tip may have moved; re-apply the window
  }
  return result;
}

}  // namespace zendoo::mainchain
