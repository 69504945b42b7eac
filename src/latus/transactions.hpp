// Latus transactional model (paper §5.3): the four logical transaction
// types and their state-transition (`update`) functions.
//
//   PaymentTx            — §5.3.1, SC-defined, signature-authorized
//   ForwardTransfersTx   — §5.3.2, MC-defined, credits synced FTs (failed
//                          transfers spawn refund backward transfers)
//   BackwardTransferTx   — §5.3.3, SC-defined, burns inputs into BTs
//   BtrTx                — §5.3.4, MC-defined, processes synced BTRs
//
// Application is transactional: on any validation failure the state is
// unchanged and a diagnostic is returned.
//
// Check order of a signature-authorized spend (PaymentTx, BackwardTransferTx):
// the stateful checks run first and the Schnorr check last, so a spend the
// state refuses costs no signature verify.
//   1. at least one input (a BTTx first needs at least one transfer);
//   2. per input, in order: no duplicate slot, present in the MST, public key
//      matches the UTXO address;
//   3. inputs cover the outputs;
//   4. PaymentTx only: every output slot is free once the inputs are removed,
//      and no two outputs share a slot;
//   5. every input signature verifies.
// A transaction with one fault reports that fault; one with several reports
// the first in this order.
#pragma once

#include <string>
#include <unordered_set>
#include <variant>

#include "latus/state.hpp"
#include "mainchain/types.hpp"

namespace zendoo::latus {

/// Verified-signature memo of one LatusNode, after Bitcoin Core's signature
/// cache: it remembers the (public key, message, signature) triples that
/// verified, keyed by a digest of the whole triple, and never a failure, so
/// a lookup cannot accept a signature that was not verified. It lets the
/// base proof's re-execution of a forged transaction skip the verify the
/// forger already ran. Full at kCapacity entries, it is cleared: a miss only
/// costs a re-verify. Not thread-safe; a node and the copies sharing its
/// memo run on one thread.
class SignatureMemo {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 14;

  /// crypto::verify_signature, skipped when this exact triple verified
  /// before.
  [[nodiscard]] bool verify(const std::pair<crypto::u256, crypto::u256>& pubkey,
                            const Digest& msg, const crypto::Signature& sig);

  /// verify_signature calls run.
  [[nodiscard]] std::uint64_t verifies() const { return verifies_; }
  /// Calls answered from the memo.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::size_t size() const { return verified_.size(); }

 private:
  std::unordered_set<Digest, crypto::DigestHash> verified_;
  std::uint64_t verifies_ = 0;
  std::uint64_t hits_ = 0;
};

/// An input being spent: the full UTXO plus its spending authorization.
struct SignedInput {
  Utxo utxo;
  std::pair<crypto::u256, crypto::u256> pubkey;
  crypto::Signature sig;
};

/// Desired output of a payment (nonce assigned at build time).
struct OutputSpec {
  Address addr;
  Amount amount = 0;
};

/// Regular multi-input multi-output payment (§5.3.1).
struct PaymentTx {
  std::vector<SignedInput> inputs;
  std::vector<Utxo> outputs;

  [[nodiscard]] Digest id() const;
  [[nodiscard]] Digest signing_digest() const;
};

/// One forward transfer as synced from a referenced MC block: the FT output
/// plus its provenance (containing MC tx and output index), enough to
/// recompute the SCTxsCommitment leaf.
struct SyncedForwardTransfer {
  mainchain::ForwardTransferOutput ft;
  Digest mc_txid;
  std::uint32_t index = 0;

  [[nodiscard]] Digest leaf() const { return ft.leaf_hash(mc_txid, index); }
};

/// ForwardTransfers transaction (§5.3.2): "a coinbase transaction
/// authorized by the mainchain". `outputs` and `rejected_transfers` are
/// derived deterministically from the pre-state during application.
struct ForwardTransfersTx {
  Digest mc_block_id;
  std::vector<SyncedForwardTransfer> fts;
  // Derived during application:
  std::vector<Utxo> outputs;
  std::vector<mainchain::BackwardTransfer> rejected_transfers;

  [[nodiscard]] Digest id() const;
};

/// Backward transfer transaction (§5.3.3): spends inputs, all "outputs"
/// are backward transfers claimable on the MC via the next certificate.
struct BackwardTransferTx {
  std::vector<SignedInput> inputs;
  std::vector<mainchain::BackwardTransfer> backward_transfers;

  [[nodiscard]] Digest id() const;
  [[nodiscard]] Digest signing_digest() const;
};

/// BackwardTransferRequests transaction (§5.3.4): processes BTRs synced
/// from a referenced MC block. Invalid requests are rejected without
/// affecting the state (they spawn no BT).
struct BtrTx {
  Digest mc_block_id;
  std::vector<mainchain::BtrRequest> requests;
  // Derived during application:
  std::vector<Utxo> consumed_inputs;
  std::vector<mainchain::BackwardTransfer> backward_transfers;

  [[nodiscard]] Digest id() const;
};

/// Any Latus transaction — the transition alphabet of the state-transition
/// system (§5.4).
using TxVariant =
    std::variant<PaymentTx, ForwardTransfersTx, BackwardTransferTx, BtrTx>;

[[nodiscard]] Digest tx_id(const TxVariant& tx);

// ---- update functions (§5.3.x) ----
// Each returns "" on success; on failure the state is untouched. FTTx and
// BtrTx fill their derived fields. Signatures go through `memo` when one is
// given, else through crypto::verify_signature.

/// Checks 1-4 of a payment (see the top of this file): everything but the
/// signatures. "" means apply_payment can fail only on a signature.
[[nodiscard]] std::string check_payment(const LatusState& state,
                                        const PaymentTx& tx);
[[nodiscard]] std::string apply_payment(LatusState& state, const PaymentTx& tx,
                                        SignatureMemo* memo = nullptr);
[[nodiscard]] std::string apply_forward_transfers(LatusState& state,
                                                  ForwardTransfersTx& tx);
[[nodiscard]] std::string apply_backward_transfer(
    LatusState& state, const BackwardTransferTx& tx,
    SignatureMemo* memo = nullptr);
[[nodiscard]] std::string apply_btr(LatusState& state, BtrTx& tx);

/// Dispatch over TxVariant.
[[nodiscard]] std::string apply_transaction(LatusState& state, TxVariant& tx,
                                            SignatureMemo* memo = nullptr);

// ---- builders ----

/// Builds and signs a payment spending `inputs` (all owned by `key`) into
/// `outputs`; output nonces are derived from the input set so they are
/// unique and deterministic. Total input value must cover outputs.
[[nodiscard]] PaymentTx build_payment(const std::vector<Utxo>& inputs,
                                      const crypto::KeyPair& key,
                                      const std::vector<OutputSpec>& outputs);

/// Builds and signs a backward-transfer transaction burning `inputs` into
/// `bts` (§5.3.3).
[[nodiscard]] BackwardTransferTx build_backward_transfer(
    const std::vector<Utxo>& inputs, const crypto::KeyPair& key,
    const std::vector<mainchain::BackwardTransfer>& bts);

/// Latus BTR proofdata layout (§5.5.3.2): [addr, amount, nonce] — enough
/// for the sidechain to reconstruct the claimed UTXO.
[[nodiscard]] std::vector<Digest> encode_utxo_proofdata(const Utxo& utxo);
[[nodiscard]] std::optional<Utxo> decode_utxo_proofdata(
    const std::vector<Digest>& proofdata);

}  // namespace zendoo::latus
