#include "snark/snark.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace zendoo::snark {

namespace {

using crypto::Domain;
using crypto::Hasher;

/// The process-global "cryptographic oracle" backing the simulated SNARKs.
///
/// Maps key ids to the binding secret plus the circuit. The secret never
/// leaves this translation unit; the only way to obtain a valid proof is
/// through prove(), which enforces witness satisfaction first.
class Oracle {
 public:
  struct Entry {
    Digest secret;
    Predicate predicate;
  };

  static Oracle& instance() {
    static Oracle oracle;
    return oracle;
  }

  Digest register_entry(Entry entry, const std::string& label,
                        const Digest& circuit_id) {
    Digest id = Hasher(Domain::kSnarkKey)
                    .write_str(label)
                    .write(circuit_id)
                    .finalize();
    entry.secret =
        Hasher(Domain::kSnarkKey).write(id).write_str("secret").finalize();
    std::scoped_lock lock(mu_);
    entries_[id] = std::move(entry);
    return id;
  }

  /// nullptr when the key id is unknown.
  const Entry* find(const Digest& id) {
    std::scoped_lock lock(mu_);
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<Digest, Entry, crypto::DigestHash> entries_;
};

Digest bind_proof(const Digest& secret, const Statement& statement) {
  Hasher h(Domain::kSnarkProof);
  h.write(secret);
  h.write_u64(statement.size());
  for (const Digest& d : statement) h.write(d);
  return h.finalize();
}

}  // namespace

std::pair<ProvingKey, VerifyingKey> PredicateSnark::setup(Predicate circuit,
                                                          std::string label) {
  if (!circuit) {
    throw std::invalid_argument("PredicateSnark::setup: null circuit");
  }
  Digest circuit_id =
      Hasher(Domain::kSnarkKey).write_str("predicate").write_str(label).finalize();
  Oracle::Entry entry;
  entry.predicate = std::move(circuit);
  Digest id =
      Oracle::instance().register_entry(std::move(entry), label, circuit_id);
  return {ProvingKey{id}, VerifyingKey{id}};
}

std::optional<Proof> PredicateSnark::prove(const ProvingKey& pk,
                                           const Statement& statement,
                                           const Witness& witness) {
  const Oracle::Entry* e = Oracle::instance().find(pk.id);
  if (e == nullptr) {
    throw std::invalid_argument("PredicateSnark::prove: unknown proving key");
  }
  if (!e->predicate(statement, witness)) return std::nullopt;
  return Proof{bind_proof(e->secret, statement)};
}

bool PredicateSnark::verify(const VerifyingKey& vk, const Statement& statement,
                            const Proof& proof) {
  if (vk.is_null()) return false;
  const Oracle::Entry* e = Oracle::instance().find(vk.id);
  if (e == nullptr) return false;
  return proof.binding == bind_proof(e->secret, statement);
}

Digest statement_u64(std::uint64_t v) {
  return Hasher(Domain::kSnarkStatement).write_u64(v).finalize();
}

}  // namespace zendoo::snark
