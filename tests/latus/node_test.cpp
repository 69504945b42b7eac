// LatusNode + ScValidator tests: the produce/verify pair for sidechain
// blocks (§5.1, §5.5.1), driven by a real mainchain.
#include "latus/node.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "crypto/rng.hpp"
#include "latus/validation.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::latus {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "m"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "a"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "b"))),
        chain_(mainchain::ChainParams{}),
        miner_(chain_, miner_key_.address()),
        wallet_(miner_key_),
        node_(hash_str(Domain::kGeneric, "node-test-sc"), /*start=*/2,
              /*epoch_len=*/4, /*submit_len=*/2, /*depth=*/10,
              /*slots=*/8) {
    node_.add_forger(alice_);
    // Register the sidechain on the MC.
    mainchain::Mempool pool;
    pool.sidechain_creations.push_back(node_.mc_params());
    mine_and_observe(pool);
  }

  mainchain::Block mine_and_observe(const mainchain::Mempool& pool) {
    mainchain::Block out;
    auto r = miner_.mine_and_submit(pool, &out);
    if (!r.accepted()) throw std::logic_error(r.error);
    std::string err = node_.observe_mc_block(out);
    if (!err.empty()) throw std::logic_error(err);
    return out;
  }

  void fund_alice(mainchain::Amount amount) {
    mainchain::Mempool pool;
    pool.transactions.push_back(*wallet_.forward_transfer(
        chain_.state(), node_.mc_params().ledger_id,
        {alice_.address(), alice_.address()}, amount));
    mine_and_observe(pool);
    ASSERT_EQ(node_.forge_until_synced(), "");
  }

  KeyPair miner_key_, alice_, bob_;
  mainchain::Blockchain chain_;
  mainchain::Miner miner_;
  mainchain::Wallet wallet_;
  LatusNode node_;
};

TEST_F(NodeTest, ObserveRequiresOrder) {
  mainchain::Block b1;
  auto r = miner_.mine_and_submit({}, &b1);
  ASSERT_TRUE(r.accepted());
  mainchain::Block b2;
  r = miner_.mine_and_submit({}, &b2);
  ASSERT_TRUE(r.accepted());
  // Feeding block 3 (b2) before block 2 (b1) must fail.
  EXPECT_NE(node_.observe_mc_block(b2), "");
  EXPECT_EQ(node_.observe_mc_block(b1), "");
  EXPECT_EQ(node_.observe_mc_block(b2), "");
}

TEST_F(NodeTest, ForgeConsumesReferences) {
  EXPECT_TRUE(node_.has_pending_refs());
  ASSERT_EQ(node_.forge_until_synced(), "");
  EXPECT_FALSE(node_.has_pending_refs());
  EXPECT_GE(node_.height(), 1u);
}

TEST_F(NodeTest, ForgeWithoutForgersFails) {
  LatusNode bare(hash_str(Domain::kGeneric, "bare"), 2, 4, 2, 10, 8);
  EXPECT_EQ(bare.forge_block(), "no forgers registered");
}

TEST_F(NodeTest, FundsArriveAndCertificateBuilds) {
  fund_alice(10'000);
  EXPECT_EQ(node_.state().balance_of(alice_.address()), 10'000u);
  // Complete withdrawal epoch 0 (MC heights 2..5).
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  EXPECT_EQ(node_.pending_certificates(), 1u);
  snark::RecursionStats stats;
  auto cert = node_.build_certificate(&stats);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->epoch_id, 0u);
  EXPECT_EQ(cert->ledger_id, node_.mc_params().ledger_id);
  EXPECT_EQ(cert->proofdata.size(), LatusProofSystem::kWcertProofdataLen);
  EXPECT_GE(stats.base_proofs, 1u);  // at least the FTTx transition
  // The certificate verifies against the MC-enforced statement.
  auto [prev, last] =
      chain_.state().epoch_boundary_hashes(node_.mc_params(), 0);
  auto st = mainchain::wcert_statement_for(*cert, prev, last);
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, st,
                                            cert->proof));
  // ...and not against a tampered one.
  auto bad = st;
  bad[0] = snark::statement_u64(cert->quality + 1);
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, bad,
                                             cert->proof));
}

TEST_F(NodeTest, QualityIsChainHeight) {
  fund_alice(10'000);
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  std::uint64_t boundary_height = node_.height();
  auto cert = node_.build_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->quality, boundary_height);
}

TEST_F(NodeTest, ValidatorAcceptsHonestChain) {
  fund_alice(50'000);
  // Some payment traffic.
  auto coins = node_.state().utxos_of(alice_.address());
  node_.submit_payment(
      build_payment({coins[0]}, alice_,
                    {{bob_.address(), 20'000}, {alice_.address(), 30'000}}));
  while (chain_.height() < 7) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  ScValidator validator(node_.mc_params().ledger_id, 10, 8,
                        alice_.address(), 2, 4);
  for (const ScBlock& b : node_.chain()) {
    ASSERT_EQ(validator.accept(b), "") << "at SC height " << b.header.height;
  }
  EXPECT_EQ(validator.height(), node_.height());
  EXPECT_EQ(validator.state().balance_of(bob_.address()), 20'000u);
  EXPECT_EQ(validator.state().commitment(), node_.state().commitment());
}

TEST_F(NodeTest, ValidatorRejectsTamperedBlocks) {
  fund_alice(50'000);
  ASSERT_EQ(node_.forge_until_synced(), "");
  auto make_validator = [&] {
    return ScValidator(node_.mc_params().ledger_id, 10, 8, alice_.address(),
                       2, 4);
  };

  // Baseline: the honest chain passes.
  {
    auto v = make_validator();
    for (const ScBlock& b : node_.chain()) ASSERT_EQ(v.accept(b), "");
  }

  const std::vector<ScBlock>& chain = node_.chain();

  {  // Tampered state commitment.
    auto v = make_validator();
    ScBlock bad = chain[0];
    bad.header.state_commitment.bytes[0] ^= 1;
    EXPECT_NE(v.accept(bad), "");
  }
  {  // Wrong forger (bob is not the scheduled leader / key mismatch).
    auto v = make_validator();
    ScBlock bad = chain[0];
    bad.header.forger = bob_.address();
    EXPECT_NE(v.accept(bad), "");
  }
  {  // Signature stripped.
    auto v = make_validator();
    ScBlock bad = chain[0];
    bad.header.forger_sig.s =
        crypto::u256::addmod(bad.header.forger_sig.s, crypto::u256{1},
                             crypto::secp256k1::kN);
    EXPECT_NE(v.accept(bad), "");
  }
  {  // Body tampered after signing.
    auto v = make_validator();
    ScBlock bad = chain[0];
    bad.payments.push_back(PaymentTx{});
    EXPECT_NE(v.accept(bad), "");
  }
  {  // FTTx derived fields forged (forger claims an extra output).
    auto v = make_validator();
    // Find a block with an FTTx.
    for (ScBlock b : chain) {
      bool has_ft = false;
      for (auto& ref : b.mc_refs) {
        if (ref.forward_transfers &&
            !ref.forward_transfers->outputs.empty()) {
          ref.forward_transfers->outputs[0].amount += 1;
          has_ft = true;
          break;
        }
      }
      if (!has_ft) continue;
      b.header.body_root = b.compute_body_root();
      // Even with a recomputed body root (attacker-controlled), either the
      // signature breaks or the re-execution catches the forged field.
      EXPECT_NE(v.accept(b), "");
      break;
    }
  }
  {  // Out-of-sequence height.
    auto v = make_validator();
    ScBlock bad = chain[0];
    bad.header.height = 5;
    EXPECT_NE(v.accept(bad), "");
  }
}

TEST_F(NodeTest, EmptyEpochCertificate) {
  // Epoch with zero transitions: no FTs, no payments — heartbeat cert.
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  auto cert = node_.build_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(cert->bt_list.empty());
  auto [prev, last] =
      chain_.state().epoch_boundary_hashes(node_.mc_params(), 0);
  auto st = mainchain::wcert_statement_for(*cert, prev, last);
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, st,
                                            cert->proof));
}

TEST_F(NodeTest, CreateBtrRequiresObservedCertificate) {
  fund_alice(1'000);
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_FALSE(coins.empty());
  EXPECT_THROW((void)node_.create_btr(coins[0], alice_, alice_.address()),
               std::logic_error);
}

TEST_F(NodeTest, HeartbeatBlockWithNothingToInclude) {
  // Forging with no refs and no mempool produces a valid empty block
  // whose state commitment equals the previous one.
  ASSERT_EQ(node_.forge_until_synced(), "");
  Digest before = node_.state().commitment();
  std::uint64_t h = node_.height();
  ASSERT_EQ(node_.forge_block(), "");
  EXPECT_EQ(node_.height(), h + 1);
  const ScBlock& b = node_.chain().back();
  EXPECT_TRUE(b.mc_refs.empty());
  EXPECT_TRUE(b.payments.empty());
  EXPECT_EQ(b.header.state_commitment, before);
}

TEST_F(NodeTest, InvalidMempoolPaymentDropped) {
  fund_alice(1'000);
  // A payment signed by the wrong key never enters a block.
  auto coins = node_.state().utxos_of(alice_.address());
  node_.submit_payment(
      build_payment({coins[0]}, bob_, {{bob_.address(), 1'000}}));
  ASSERT_EQ(node_.forge_block(), "");
  EXPECT_TRUE(node_.chain().back().payments.empty());
  EXPECT_EQ(node_.state().balance_of(alice_.address()), 1'000u);
}

/// A payment of `inputs` into hand-picked `outputs`, signed by `key`.
PaymentTx signed_payment(const std::vector<Utxo>& inputs, const KeyPair& key,
                         std::vector<Utxo> outputs) {
  PaymentTx tx;
  for (const Utxo& in : inputs) {
    tx.inputs.push_back(SignedInput{in, key.public_key(), {}});
  }
  tx.outputs = std::move(outputs);
  crypto::Signature sig = key.sign(tx.signing_digest());
  for (SignedInput& in : tx.inputs) in.sig = sig;
  return tx;
}

TEST_F(NodeTest, OneSignatureVerifyPerAppliedPayment) {
  constexpr std::size_t kValid = 6, kColliding = 4;
  fund_alice(100'000);
  // Split the funding coin so every valid payment spends its own coin.
  auto coins = node_.state().utxos_of(alice_.address());
  node_.submit_payment(build_payment(
      {coins[0]}, alice_,
      std::vector<OutputSpec>(kValid + 1, {alice_.address(), 1'000})));
  mine_and_observe({});
  ASSERT_EQ(node_.forge_until_synced(), "");
  coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), kValid + 1);
  const Utxo& occupant = coins.back();

  const SignatureMemo& memo = node_.signature_memo();
  std::uint64_t verifies = memo.verifies(), hits = memo.hits();
  // First K payments that aim an output at the occupant's slot, then N
  // valid ones spending the same coins.
  for (std::size_t i = 0; i < kColliding; ++i) {
    node_.submit_payment(signed_payment(
        {coins[i]}, alice_, {Utxo{bob_.address(), 1'000, occupant.nonce}}));
  }
  for (std::size_t i = 0; i < kValid; ++i) {
    node_.submit_payment(
        build_payment({coins[i]}, alice_, {{bob_.address(), 1'000}}));
  }
  mine_and_observe({});
  ASSERT_EQ(node_.forge_until_synced(), "");
  EXPECT_EQ(node_.chain().back().payments.size(), kValid);

  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  ASSERT_TRUE(node_.build_certificate().has_value());
  // Forging verified each valid payment once and refused the colliding
  // ones unverified; the base proofs re-executed the valid payments and the
  // split from the memo.
  EXPECT_EQ(memo.verifies() - verifies, kValid);
  EXPECT_EQ(memo.hits() - hits, kValid + 1);
}

TEST_F(NodeTest, MultiForgerLeadershipRotates) {
  // With two funded stakeholders the slot schedule eventually picks both.
  node_.add_forger(bob_);
  fund_alice(500'000);
  mainchain::Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), node_.mc_params().ledger_id,
      {bob_.address(), bob_.address()}, 500'000));
  mine_and_observe(pool);
  ASSERT_EQ(node_.forge_until_synced(), "");
  // Forge plenty of empty-ish blocks to cross consensus epochs (8 slots).
  std::unordered_map<Digest, int, crypto::DigestHash> forged_by;
  for (int i = 0; i < 40; ++i) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  for (const ScBlock& b : node_.chain()) {
    forged_by[b.header.forger] += 1;
  }
  // After funding, both stakeholders should have led some slots.
  EXPECT_GT(forged_by[alice_.address()], 0);
  EXPECT_GT(forged_by[bob_.address()], 0);
}

/// The payment rule with the signature checked inside the input loop,
/// before the amount and output checks, kept as a slow reference: the
/// payment applies to a copy of the state, which replaces the state only
/// on success.
std::string reference_apply_payment(LatusState& state, const PaymentTx& tx) {
  if (tx.inputs.empty()) return "transaction has no inputs";
  Digest msg = tx.signing_digest();
  std::unordered_set<std::uint64_t> slots;
  unsigned __int128 total_in = 0, total_out = 0;
  for (const SignedInput& in : tx.inputs) {
    if (!slots.insert(mst_position(in.utxo, state.depth())).second) {
      return "duplicate input";
    }
    if (!state.contains(in.utxo)) return "input not in the MST";
    if (crypto::address_of(in.pubkey) != in.utxo.addr) {
      return "input public key does not match UTXO address";
    }
    if (!crypto::verify_signature(in.pubkey, msg, in.sig)) {
      return "invalid input signature";
    }
    total_in += in.utxo.amount;
  }
  for (const Utxo& o : tx.outputs) total_out += o.amount;
  if (total_in < total_out) return "transaction spends more than its inputs";
  LatusState copy = state;
  for (const SignedInput& in : tx.inputs) (void)copy.remove_utxo(in.utxo);
  for (const Utxo& o : tx.outputs) {
    if (!copy.insert_utxo(o)) return "output position collision in the MST";
  }
  state = std::move(copy);
  return "";
}

/// A seeded mix of valid payments and payments with one or two faults:
/// output collisions, missing inputs, bad signatures, overspends, duplicate
/// inputs and foreign keys. Coins may be picked twice (double spends).
PaymentTx random_payment(crypto::Rng& rng, const std::vector<Utxo>& coins,
                         const KeyPair& alice, const KeyPair& bob) {
  const Utxo& coin = coins[rng.next_below(coins.size())];
  const Utxo& other = coins[rng.next_below(coins.size())];
  const KeyPair& owner = coin.addr == alice.address() ? alice : bob;
  const KeyPair& payee = rng.next_below(2) == 0 ? alice : bob;
  Amount half = coin.amount / 2;
  PaymentTx tx;
  switch (rng.next_below(9)) {
    case 0:
    case 1:  // valid
      return build_payment({coin}, owner,
                           {{payee.address(), half},
                            {owner.address(), coin.amount - half}});
    case 2:  // output aimed at another coin's slot
      return signed_payment({coin}, owner,
                            {Utxo{payee.address(), coin.amount, other.nonce}});
    case 3: {  // input not in the state
      Utxo ghost{owner.address(), coin.amount,
                 crypto::Hasher(Domain::kGeneric).write_u64(rng.next_u64())
                     .finalize()};
      return build_payment({ghost}, owner, {{payee.address(), half}});
    }
    case 4:  // bad signature
      tx = build_payment({coin}, owner, {{payee.address(), half}});
      break;
    case 5:  // overspend
      return build_payment({coin}, owner,
                           {{payee.address(), coin.amount + 1}});
    case 6:  // duplicate input
      return build_payment({coin, coin}, owner,
                           {{payee.address(), coin.amount}});
    case 7:  // signed by a key that does not own the coin
      return build_payment({coin}, &owner == &alice ? bob : alice,
                           {{payee.address(), half}});
    default:  // two faults: a collision and a bad signature
      tx = signed_payment({coin}, owner,
                          {Utxo{payee.address(), coin.amount, other.nonce}});
      break;
  }
  tx.inputs[0].sig.s = crypto::u256::addmod(
      tx.inputs[0].sig.s, crypto::u256{1}, crypto::secp256k1::kN);
  return tx;
}

/// NodeTest plus a twin node of the same sidechain that sees the same MC
/// blocks but is handed only the payments the reference accepts.
class ForgingDifferential : public NodeTest,
                            public ::testing::WithParamInterface<int> {
 protected:
  ForgingDifferential()
      : twin_(node_.mc_params().ledger_id, /*start=*/2, /*epoch_len=*/4,
              /*submit_len=*/2, /*depth=*/10, /*slots=*/8) {
    node_.add_forger(bob_);
    twin_.add_forger(alice_);
    twin_.add_forger(bob_);
    const mainchain::Block& creation =
        *chain_.find_block(chain_.hash_at_height(1));
    if (!twin_.observe_mc_block(creation).empty()) {
      throw std::logic_error("twin rejected the creation block");
    }
  }

  void mine_both(const mainchain::Mempool& pool = {}) {
    mainchain::Block b = mine_and_observe(pool);
    ASSERT_EQ(node_.forge_until_synced(), "");
    ASSERT_EQ(twin_.observe_mc_block(b), "");
    ASSERT_EQ(twin_.forge_until_synced(), "");
  }

  void submit_both(const PaymentTx& tx) {
    node_.submit_payment(tx);
    twin_.submit_payment(tx);
  }

  LatusNode twin_;
};

TEST_P(ForgingDifferential, AcceptsWhatTheSignatureFirstReferenceAccepts) {
  crypto::Rng rng(static_cast<std::uint64_t>(GetParam()));
  mainchain::Mempool funding;
  funding.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), node_.mc_params().ledger_id,
      {alice_.address(), alice_.address()}, 160'000));
  mine_both(funding);
  std::vector<OutputSpec> split;
  for (int i = 0; i < 16; ++i) {
    split.push_back({(i % 2 == 0 ? alice_ : bob_).address(), 10'000});
  }
  submit_both(build_payment(node_.state().utxos_of(alice_.address()), alice_,
                            split));
  mine_both();
  std::size_t first_block = node_.height();

  LatusState reference = node_.state();
  std::vector<Digest> accepted;
  std::size_t submitted = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<Utxo> coins = reference.utxos_of(alice_.address());
    for (const Utxo& u : reference.utxos_of(bob_.address())) {
      coins.push_back(u);
    }
    for (int i = 0; i < 24; ++i, ++submitted) {
      PaymentTx tx = random_payment(rng, coins, alice_, bob_);
      node_.submit_payment(tx);
      if (reference_apply_payment(reference, tx).empty()) {
        accepted.push_back(tx.id());
        twin_.submit_payment(tx);
      }
    }
    // An epoch-boundary block (MC heights 5, 9, ...) takes no mempool
    // transactions (§5.1.1); forge the payments in the block after it.
    if ((chain_.height() + 1) % 4 == 1) mine_both();
    mine_both();
    EXPECT_EQ(node_.state().commitment(), reference.commitment());
  }
  EXPECT_GT(accepted.size(), 0u);
  EXPECT_LT(accepted.size(), submitted);

  std::vector<Digest> forged;
  for (std::size_t h = first_block; h < node_.height(); ++h) {
    for (const PaymentTx& tx : node_.chain()[h].payments) {
      forged.push_back(tx.id());
    }
  }
  EXPECT_EQ(forged, accepted);

  while (chain_.height() % 4 != 1) mine_both();  // close the open epoch
  ASSERT_EQ(node_.height(), twin_.height());
  for (std::size_t h = 0; h < node_.height(); ++h) {
    EXPECT_EQ(node_.chain()[h].hash(), twin_.chain()[h].hash()) << h;
  }
  EXPECT_EQ(node_.state().commitment(), twin_.state().commitment());
  std::size_t certificates = 0;
  while (auto cert = node_.build_certificate()) {
    auto twin_cert = twin_.build_certificate();
    ASSERT_TRUE(twin_cert.has_value());
    EXPECT_EQ(cert->hash(), twin_cert->hash());
    ++certificates;
  }
  EXPECT_FALSE(twin_.build_certificate().has_value());
  EXPECT_EQ(certificates, 2u);  // epochs ending at MC heights 5 and 9
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgingDifferential,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace zendoo::latus
