// Circuit-level tests for the three Latus SNARKs (§5.4, §5.5.3): the
// prover must refuse every malformed witness, and proofs must not verify
// under perturbed statements.
#include "latus/proofs.hpp"

#include <gtest/gtest.h>

#include "latus/node.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::latus {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;

TEST(LatusProofSystemTest, DeterministicKeysPerLedger) {
  auto id = hash_str(Domain::kGeneric, "proof-sc");
  LatusProofSystem a(id, 10);
  LatusProofSystem b(id, 10);
  EXPECT_EQ(a.wcert_vk(), b.wcert_vk());
  EXPECT_EQ(a.btr_vk(), b.btr_vk());
  EXPECT_EQ(a.csw_vk(), b.csw_vk());
  // Different ledgers get different circuits.
  LatusProofSystem c(hash_str(Domain::kGeneric, "other-sc"), 10);
  EXPECT_NE(a.wcert_vk(), c.wcert_vk());
}

TEST(LatusProofSystemTest, TransitionProofRoundTrip) {
  auto id = hash_str(Domain::kGeneric, "tp-sc");
  LatusProofSystem sys(id, 8);
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));

  LatusState state(8);
  Utxo coin{alice.address(), 100, hash_str(Domain::kGeneric, "n")};
  ASSERT_TRUE(state.insert_utxo(coin));

  LatusState pre = state;
  Digest before = state.commitment();
  PaymentTx tx =
      build_payment({coin}, alice, {{alice.address(), 100}});
  TxVariant variant{tx};
  ASSERT_EQ(apply_transaction(state, variant), "");
  Digest after = state.commitment();

  auto proof = sys.prove_transition(before, after,
                                    TransitionWitness{pre, variant});
  EXPECT_TRUE(sys.transitions().verify(before, after, proof));
  EXPECT_FALSE(sys.transitions().verify(after, before, proof));
}

TEST(LatusProofSystemTest, TransitionProverRejectsWrongStates) {
  auto id = hash_str(Domain::kGeneric, "tp2-sc");
  LatusProofSystem sys(id, 8);
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));
  LatusState state(8);
  Utxo coin{alice.address(), 100, hash_str(Domain::kGeneric, "n")};
  ASSERT_TRUE(state.insert_utxo(coin));
  PaymentTx tx = build_payment({coin}, alice, {{alice.address(), 100}});
  Digest bogus = hash_str(Domain::kGeneric, "bogus-state");
  EXPECT_THROW((void)sys.prove_transition(
                   bogus, state.commitment(),
                   TransitionWitness{state, TxVariant{tx}}),
               std::invalid_argument);
}

/// One payment's transition, ready for prove_transition.
struct PaymentTransition {
  LatusState pre;
  PaymentTx tx;
  Digest before, after;
};

PaymentTransition payment_transition(const KeyPair& owner) {
  LatusState state(8);
  Utxo coin{owner.address(), 100, hash_str(Domain::kGeneric, "n")};
  EXPECT_TRUE(state.insert_utxo(coin));
  PaymentTransition t{state, build_payment({coin}, owner,
                                           {{owner.address(), 100}}),
                      state.commitment(), {}};
  EXPECT_EQ(apply_payment(state, t.tx), "");
  t.after = state.commitment();
  return t;
}

TEST(LatusProofSystemTest, MemoizedGenuineSignatureDoesNotAdmitTamperedOne) {
  LatusProofSystem sys(hash_str(Domain::kGeneric, "memo-sc"), 8);
  PaymentTransition t =
      payment_transition(KeyPair::from_seed(hash_str(Domain::kGeneric, "a")));
  auto memo = std::make_shared<SignatureMemo>();
  LatusState scratch = t.pre;
  ASSERT_EQ(apply_payment(scratch, t.tx, memo.get()), "");
  ASSERT_EQ(memo->size(), 1u);

  PaymentTx tampered = t.tx;
  tampered.inputs[0].sig.s = crypto::u256::addmod(
      tampered.inputs[0].sig.s, crypto::u256{1}, crypto::secp256k1::kN);
  EXPECT_THROW((void)sys.prove_transition(
                   t.before, t.after,
                   TransitionWitness{t.pre, TxVariant{tampered}, memo}),
               std::invalid_argument);
  EXPECT_EQ(memo->verifies(), 2u);  // the tampered one missed and failed
  EXPECT_EQ(memo->size(), 1u);

  // The genuine witness proves from the memo without a verify.
  auto proof = sys.prove_transition(
      t.before, t.after, TransitionWitness{t.pre, TxVariant{t.tx}, memo});
  EXPECT_TRUE(sys.transitions().verify(t.before, t.after, proof));
  EXPECT_EQ(memo->verifies(), 2u);
  EXPECT_EQ(memo->hits(), 1u);
}

TEST(LatusProofSystemTest, GenuineWitnessProvesWithNullOrFreshMemo) {
  LatusProofSystem sys(hash_str(Domain::kGeneric, "memo2-sc"), 8);
  PaymentTransition t =
      payment_transition(KeyPair::from_seed(hash_str(Domain::kGeneric, "a")));
  auto plain = sys.prove_transition(
      t.before, t.after, TransitionWitness{t.pre, TxVariant{t.tx}, nullptr});
  EXPECT_TRUE(sys.transitions().verify(t.before, t.after, plain));

  auto fresh = std::make_shared<SignatureMemo>();
  auto proof = sys.prove_transition(
      t.before, t.after, TransitionWitness{t.pre, TxVariant{t.tx}, fresh});
  EXPECT_TRUE(sys.transitions().verify(t.before, t.after, proof));
  EXPECT_EQ(fresh->verifies(), 1u);
  EXPECT_EQ(fresh->hits(), 0u);
}

TEST(LatusProofSystemTest, FailedVerifyLeavesNothingInTheMemo) {
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));
  Digest msg = hash_str(Domain::kGeneric, "msg");
  crypto::Signature sig = alice.sign(msg);
  sig.s = crypto::u256::addmod(sig.s, crypto::u256{1}, crypto::secp256k1::kN);
  SignatureMemo memo;
  EXPECT_FALSE(memo.verify(alice.public_key(), msg, sig));
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.verify(alice.public_key(), msg, sig));
  EXPECT_EQ(memo.verifies(), 2u);  // verified again, never answered
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(LatusProofSystemTest, WcertEmptyEpochRules) {
  auto id = hash_str(Domain::kGeneric, "empty-sc");
  LatusProofSystem sys(id, 8);
  LatusState state(8);

  WcertProofInput in;
  in.state_before = state.commitment();
  in.state_after = state.commitment();
  in.mst_root_before = state.mst().root();
  in.mst_root_after = state.mst().root();
  in.sb_last_hash = hash_str(Domain::kScBlock, "sb");
  in.delta_hash = merkle::MstDelta(8).hash();
  in.quality = 3;
  in.bt_root = merkle::MerkleTree::empty_root();
  in.prev_epoch_last_mc = hash_str(Domain::kBlockHeader, "p");
  in.epoch_last_mc = hash_str(Domain::kBlockHeader, "l");

  auto proof = sys.prove_wcert(in);  // empty epoch, no transition proof
  auto st = mainchain::wcert_statement(
      in.quality, in.bt_root, in.prev_epoch_last_mc, in.epoch_last_mc,
      merkle::merkle_root(LatusProofSystem::wcert_proofdata(in)));
  EXPECT_TRUE(snark::PredicateSnark::verify(sys.wcert_vk(), st, proof));

  // An empty epoch cannot claim backward transfers.
  WcertProofInput bad = in;
  bad.bt_root = hash_str(Domain::kGeneric, "claimed-bts");
  EXPECT_THROW((void)sys.prove_wcert(bad), std::invalid_argument);

  // Nor a state change without a transition proof.
  WcertProofInput bad2 = in;
  bad2.state_after = hash_str(Domain::kGeneric, "moved");
  EXPECT_THROW((void)sys.prove_wcert(bad2), std::invalid_argument);
}

/// Full-pipeline fixture for ownership-proof tests: runs a real MC +
/// node through one certified epoch so genuine witnesses exist.
class OwnershipProofTest : public ::testing::Test {
 protected:
  OwnershipProofTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "m"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "a"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "b"))),
        chain_(mainchain::ChainParams{}),
        miner_(chain_, miner_key_.address()),
        wallet_(miner_key_),
        node_(hash_str(Domain::kGeneric, "own-sc"), 2, 4, 2, 10, 8) {
    node_.add_forger(alice_);
    mainchain::Mempool pool;
    pool.sidechain_creations.push_back(node_.mc_params());
    step(pool);
    mainchain::Mempool ft;
    ft.transactions.push_back(*wallet_.forward_transfer(
        chain_.state(), node_.mc_params().ledger_id,
        {alice_.address(), alice_.address()}, 777));
    step(ft);
    // Finish epoch 0 (heights 2..5) and mine the certificate at height 6.
    while (chain_.height() < 5) step({});
    mainchain::Mempool cp;
    cp.certificates.push_back(*node_.build_certificate());
    step(cp);
  }

  void step(const mainchain::Mempool& pool) {
    mainchain::Block out;
    auto r = miner_.mine_and_submit(pool, &out);
    if (!r.accepted()) throw std::logic_error(r.error);
    std::string err = node_.observe_mc_block(out);
    if (!err.empty()) throw std::logic_error(err);
    err = node_.forge_until_synced();
    if (!err.empty()) throw std::logic_error(err);
  }

  KeyPair miner_key_, alice_, bob_;
  mainchain::Blockchain chain_;
  mainchain::Miner miner_;
  mainchain::Wallet wallet_;
  LatusNode node_;
};

TEST_F(OwnershipProofTest, BtrProofVerifiesAndBinds) {
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  auto btr = node_.create_btr(coins[0], alice_, alice_.address());
  const auto* sc =
      chain_.state().find_sidechain(node_.mc_params().ledger_id);
  auto st = mainchain::btr_statement(sc->last_cert_block, btr.nullifier,
                                     btr.receiver, btr.amount,
                                     btr.proofdata_root());
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().btr_vk, st,
                                            btr.proof));
  // Changing the receiver invalidates the proof (theft protection).
  auto stolen = mainchain::btr_statement(sc->last_cert_block, btr.nullifier,
                                         bob_.address(), btr.amount,
                                         btr.proofdata_root());
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().btr_vk,
                                             stolen, btr.proof));
  // So does changing the amount.
  auto inflated = mainchain::btr_statement(
      sc->last_cert_block, btr.nullifier, btr.receiver, btr.amount + 1,
      btr.proofdata_root());
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().btr_vk,
                                             inflated, btr.proof));
}

TEST_F(OwnershipProofTest, NonOwnerCannotProve) {
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  // Bob tries to claim alice's coin: the circuit rejects his signature.
  EXPECT_THROW((void)node_.create_btr(coins[0], bob_, bob_.address()),
               std::invalid_argument);
}

TEST_F(OwnershipProofTest, FabricatedUtxoCannotProve) {
  Utxo fake{alice_.address(), 1'000'000,
            hash_str(Domain::kGeneric, "counterfeit")};
  EXPECT_THROW((void)node_.create_btr(fake, alice_, alice_.address()),
               std::invalid_argument);
}

TEST_F(OwnershipProofTest, CswProofDomainSeparatedFromBtr) {
  auto coins = node_.state().utxos_of(alice_.address());
  auto btr = node_.create_btr(coins[0], alice_, alice_.address());
  // A BTR proof must not verify as a CSW (distinct statement domain).
  const auto* sc =
      chain_.state().find_sidechain(node_.mc_params().ledger_id);
  auto csw_st = mainchain::csw_statement(sc->last_cert_block, btr.nullifier,
                                         btr.receiver, btr.amount,
                                         merkle::merkle_root({}));
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().csw_vk,
                                             csw_st, btr.proof));
}

}  // namespace
}  // namespace zendoo::latus
