// Simulated SNARK proving system (paper §2.1 Def 2.3).
//
// PredicateSnark is the one prover: the "compiled circuit" is an arbitrary
// C++ predicate over (statement, witness). It stands in for every SNARK the
// protocol uses — the sidechain-defined circuits the paper registers at
// sidechain creation (wcert_vk, btr_vk, csw_vk) and the recursive Base/Merge
// circuits of Defs 2.4–2.5 — whose circuits are far too large to hand-write
// as constraint systems.
//
// Simulation model: Setup deposits a secret in a process-global oracle keyed
// by the key id; Prove checks that the witness actually satisfies the
// circuit and only then emits the 32-byte binding proof =
// H(secret ‖ statement); Verify recomputes it. Completeness,
// knowledge-soundness (no path constructs a valid proof without a satisfying
// witness, short of guessing a 256-bit MAC) and succinctness (constant proof
// size, O(|statement|) verification) all hold.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hash.hpp"

namespace zendoo::snark {

using crypto::Digest;

/// Constant-size (32-byte) proof, as Def 2.3's succinctness requires.
struct Proof {
  Digest binding;

  friend bool operator==(const Proof&, const Proof&) = default;

  /// Digest of the proof itself (for inclusion in tx/certificate hashes).
  [[nodiscard]] Digest hash() const {
    return crypto::Hasher(crypto::Domain::kSnarkProof)
        .write(binding)
        .finalize();
  }
};

/// Opaque proving-key handle. Only the holder can produce proofs.
struct ProvingKey {
  Digest id;
};

/// Opaque verification-key handle, registered with the mainchain at
/// sidechain creation (paper §4.2). A null key disables the operation
/// (paper §4.1.2.1: "by setting vkBTR and vkCSW to NULL").
struct VerifyingKey {
  Digest id;

  [[nodiscard]] bool is_null() const { return id.is_zero(); }
  static VerifyingKey null() { return VerifyingKey{}; }

  friend bool operator==(const VerifyingKey&, const VerifyingKey&) = default;
};

/// Public input: an ordered list of digests (the paper passes
/// (wcert_sysdata, MH(proofdata)) — all digests/integers, which callers
/// encode as digests).
using Statement = std::vector<Digest>;

/// Type-erased witness for predicate circuits.
using Witness = std::any;

/// A "compiled circuit": decides whether witness satisfies the relation
/// for the given statement.
using Predicate = std::function<bool(const Statement&, const Witness&)>;

/// SNARK over an arbitrary predicate circuit.
class PredicateSnark {
 public:
  /// Bootstrap the proving system for `circuit`. `label` seeds the key
  /// material so setups are deterministic per label (and distinct across
  /// labels).
  static std::pair<ProvingKey, VerifyingKey> setup(Predicate circuit,
                                                   std::string label);

  /// Produce a proof, or nullopt if (statement, witness) does not satisfy
  /// the circuit — the simulated equivalent of "no valid proof exists".
  static std::optional<Proof> prove(const ProvingKey& pk,
                                    const Statement& statement,
                                    const Witness& witness);

  /// The unified verifier interface used by the mainchain (§4.1.2):
  /// constant-time in circuit size. A null key verifies nothing.
  static bool verify(const VerifyingKey& vk, const Statement& statement,
                     const Proof& proof);
};

/// Statement helper: encodes an integer as a statement digest.
Digest statement_u64(std::uint64_t v);

}  // namespace zendoo::snark
