// Latus sidechain blocks and mainchain block references (paper §5.1,
// §5.5.1).
//
// A sidechain block may embed one or more MCBlockReferences, each binding
// the SC to one MC block: the MC header plus either a membership proof for
// this sidechain's transactions in the header's SCTxsCommitment (with the
// synced FTTx/BTRTx/WCert) or a proof-of-no-data. This is what gives the
// construction deterministic MC→SC synchronization and MC-fork resolution
// (§5.1, Figs. 6 & 7).
#pragma once

#include <optional>

#include "latus/transactions.hpp"
#include "mainchain/block.hpp"
#include "merkle/commitment.hpp"

namespace zendoo::latus {

using mainchain::SidechainId;

/// §5.5.1 MCBlockReference.
struct McBlockReference {
  mainchain::BlockHeader header;
  /// Present when the MC block carries transactions for this sidechain.
  std::optional<merkle::CommitmentMembershipProof> mproof;
  /// Present when it does not.
  std::optional<merkle::AbsenceProof> proof_of_no_data;
  std::optional<ForwardTransfersTx> forward_transfers;
  std::optional<BtrTx> bt_requests;
  std::optional<mainchain::WithdrawalCertificate> wcert;

  /// Verifies internal consistency for sidechain `id` (§5.5.1): the synced
  /// transactions recompute exactly the FTHash/BTRHash/WCertHash subtree
  /// committed by the MC header, or the absence proof holds and nothing is
  /// synced. Returns "" or a diagnostic.
  [[nodiscard]] std::string verify(const SidechainId& id) const;

  [[nodiscard]] Digest hash() const;
};

/// Sidechain block header.
struct ScBlockHeader {
  Digest prev_hash;
  std::uint64_t height = 0;
  std::uint64_t epoch = 0;  ///< consensus epoch
  std::uint64_t slot = 0;   ///< slot within the consensus epoch
  Address forger;           ///< must equal the scheduled slot leader
  /// Forger's public key (its hash must equal `forger`), so any node can
  /// check the signature.
  std::pair<crypto::u256, crypto::u256> forger_pubkey;
  Digest body_root;         ///< Merkle root over refs + transactions
  Digest state_commitment;  ///< s = H(state) after applying this block
  crypto::Signature forger_sig;  ///< leader's signature over the header

  [[nodiscard]] Digest hash() const;
  [[nodiscard]] Digest signing_digest() const;
};

/// A Latus sidechain block (Fig. 10's container): MC references first, then
/// regular SC transactions.
struct ScBlock {
  ScBlockHeader header;
  std::vector<McBlockReference> mc_refs;
  std::vector<PaymentTx> payments;
  std::vector<BackwardTransferTx> bt_txs;

  [[nodiscard]] Digest hash() const { return header.hash(); }
  [[nodiscard]] Digest compute_body_root() const;

  /// The block's transitions in application order (§5.4): per referenced MC
  /// block its FTTx then BTRTx, then payments, then BT transactions.
  [[nodiscard]] std::vector<TxVariant> transitions() const;
};

}  // namespace zendoo::latus
