#include "core/certifier_baseline.hpp"

#include <stdexcept>
#include <unordered_set>

namespace zendoo::core::baseline {

CertifierScheme::CertifierScheme(std::size_t n, std::size_t threshold,
                                 std::uint64_t seed)
    : threshold_(threshold) {
  if (threshold == 0 || threshold > n) {
    throw std::invalid_argument("CertifierScheme: threshold must be in [1,n]");
  }
  certifiers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    certifiers_.push_back(KeyPair::from_seed(
        crypto::Hasher(crypto::Domain::kGeneric)
            .write_str("certifier")
            .write_u64(seed)
            .write_u64(i)
            .finalize()));
  }
}

Digest CertifierScheme::certificate_digest(
    const mainchain::WithdrawalCertificate& cert,
    const Digest& prev_epoch_last_block, const Digest& epoch_last_block) {
  return crypto::Hasher(crypto::Domain::kCertificate)
      .write_str("certifier-baseline")
      .write(cert.ledger_id)
      .write_u64(cert.epoch_id)
      .write_u64(cert.quality)
      .write(cert.bt_list_root())
      .write(prev_epoch_last_block)
      .write(epoch_last_block)
      .finalize();
}

std::vector<Endorsement> CertifierScheme::endorse(
    const mainchain::WithdrawalCertificate& cert,
    const Digest& prev_epoch_last_block,
    const Digest& epoch_last_block) const {
  Digest msg =
      certificate_digest(cert, prev_epoch_last_block, epoch_last_block);
  std::vector<Endorsement> out;
  out.reserve(threshold_);
  for (std::size_t i = 0; i < threshold_; ++i) {
    out.push_back(Endorsement{i, certifiers_[i].sign(msg)});
  }
  return out;
}

bool CertifierScheme::verify(const mainchain::WithdrawalCertificate& cert,
                             const Digest& prev_epoch_last_block,
                             const Digest& epoch_last_block,
                             const std::vector<Endorsement>& sigs) const {
  if (sigs.size() < threshold_) return false;
  Digest msg =
      certificate_digest(cert, prev_epoch_last_block, epoch_last_block);
  std::unordered_set<std::size_t> seen;
  std::size_t valid = 0;
  for (const Endorsement& e : sigs) {
    if (e.certifier >= certifiers_.size()) return false;
    if (!seen.insert(e.certifier).second) return false;  // duplicate signer
    if (!crypto::verify_signature(certifiers_[e.certifier].public_key(), msg,
                                  e.sig)) {
      return false;
    }
    ++valid;
  }
  return valid >= threshold_;
}

}  // namespace zendoo::core::baseline
