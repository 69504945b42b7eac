#include "mainchain/codec.hpp"

namespace zendoo::mainchain::codec {

namespace {
/// Upper bounds for repeated elements; far above anything a valid block
/// contains, low enough to stop allocation bombs from hostile input.
constexpr std::uint64_t kMaxVecElements = 1 << 20;
}  // namespace

void Writer::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::put_digest(const crypto::Digest& d) {
  buf_.insert(buf_.end(), d.bytes.begin(), d.bytes.end());
}

void Writer::put_u256(const crypto::u256& v) {
  auto b = v.to_bytes_be();
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::uint8_t Reader::get_u8() {
  if (pos_ >= data_.size()) throw CodecError("truncated input");
  return data_[pos_++];
}

std::uint32_t Reader::get_u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(get_u8()) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(get_u8()) << (8 * i);
  }
  return v;
}

crypto::Digest Reader::get_digest() {
  if (pos_ + 32 > data_.size()) throw CodecError("truncated digest");
  crypto::Digest d;
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_) + 32,
            d.bytes.begin());
  pos_ += 32;
  return d;
}

crypto::u256 Reader::get_u256() {
  if (pos_ + 32 > data_.size()) throw CodecError("truncated u256");
  crypto::u256 v = crypto::u256::from_bytes_be(data_.data() + pos_);
  pos_ += 32;
  return v;
}

bool Reader::get_bool() {
  std::uint8_t v = get_u8();
  if (v > 1) throw CodecError("invalid boolean");
  return v == 1;
}

std::uint64_t Reader::get_count(std::uint64_t max) {
  std::uint64_t n = get_u64();
  if (n > max) throw CodecError("element count exceeds limit");
  return n;
}

void Reader::expect_done() const {
  if (!done()) throw CodecError("trailing bytes after message");
}

void encode(Writer& w, const Signature& sig) {
  w.put_u256(sig.rx);
  w.put_u256(sig.ry);
  w.put_u256(sig.s);
}

Signature decode_signature(Reader& r) {
  Signature sig;
  sig.rx = r.get_u256();
  sig.ry = r.get_u256();
  sig.s = r.get_u256();
  return sig;
}

void encode(Writer& w, const TxInput& in) {
  w.put_digest(in.prevout.txid);
  w.put_u32(in.prevout.index);
  w.put_u256(in.pubkey.first);
  w.put_u256(in.pubkey.second);
  encode(w, in.sig);
}

TxInput decode_tx_input(Reader& r) {
  TxInput in;
  in.prevout.txid = r.get_digest();
  in.prevout.index = r.get_u32();
  in.pubkey.first = r.get_u256();
  in.pubkey.second = r.get_u256();
  in.sig = decode_signature(r);
  return in;
}

void encode(Writer& w, const TxOutput& out) {
  w.put_digest(out.addr);
  w.put_u64(out.amount);
}

TxOutput decode_tx_output(Reader& r) {
  TxOutput out;
  out.addr = r.get_digest();
  out.amount = r.get_u64();
  return out;
}

void encode(Writer& w, const ForwardTransferOutput& ft) {
  w.put_digest(ft.ledger_id);
  w.put_u64(ft.receiver_metadata.size());
  for (const auto& m : ft.receiver_metadata) w.put_digest(m);
  w.put_u64(ft.amount);
}

ForwardTransferOutput decode_forward_transfer(Reader& r) {
  ForwardTransferOutput ft;
  ft.ledger_id = r.get_digest();
  std::uint64_t n = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n; ++i) {
    ft.receiver_metadata.push_back(r.get_digest());
  }
  ft.amount = r.get_u64();
  return ft;
}

void encode(Writer& w, const Transaction& tx) {
  w.put_bool(tx.is_coinbase);
  w.put_u64(tx.coinbase_height);
  w.put_u64(tx.inputs.size());
  for (const auto& in : tx.inputs) encode(w, in);
  w.put_u64(tx.outputs.size());
  for (const auto& out : tx.outputs) encode(w, out);
  w.put_u64(tx.forward_transfers.size());
  for (const auto& ft : tx.forward_transfers) encode(w, ft);
}

Transaction decode_transaction(Reader& r) {
  Transaction tx;
  tx.is_coinbase = r.get_bool();
  tx.coinbase_height = r.get_u64();
  std::uint64_t n_in = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_in; ++i) {
    tx.inputs.push_back(decode_tx_input(r));
  }
  std::uint64_t n_out = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_out; ++i) {
    tx.outputs.push_back(decode_tx_output(r));
  }
  std::uint64_t n_ft = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_ft; ++i) {
    tx.forward_transfers.push_back(decode_forward_transfer(r));
  }
  return tx;
}

void encode(Writer& w, const BackwardTransfer& bt) {
  w.put_digest(bt.receiver);
  w.put_u64(bt.amount);
}

BackwardTransfer decode_backward_transfer(Reader& r) {
  BackwardTransfer bt;
  bt.receiver = r.get_digest();
  bt.amount = r.get_u64();
  return bt;
}

void encode(Writer& w, const WithdrawalCertificate& cert) {
  w.put_digest(cert.ledger_id);
  w.put_u64(cert.epoch_id);
  w.put_u64(cert.quality);
  w.put_u64(cert.bt_list.size());
  for (const auto& bt : cert.bt_list) encode(w, bt);
  w.put_u64(cert.proofdata.size());
  for (const auto& d : cert.proofdata) w.put_digest(d);
  w.put_digest(cert.proof.binding);
}

WithdrawalCertificate decode_certificate(Reader& r) {
  WithdrawalCertificate cert;
  cert.ledger_id = r.get_digest();
  cert.epoch_id = r.get_u64();
  cert.quality = r.get_u64();
  std::uint64_t n_bt = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_bt; ++i) {
    cert.bt_list.push_back(decode_backward_transfer(r));
  }
  std::uint64_t n_pd = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_pd; ++i) {
    cert.proofdata.push_back(r.get_digest());
  }
  cert.proof.binding = r.get_digest();
  return cert;
}

namespace {

template <typename T>
void encode_withdrawal_request(Writer& w, const T& req) {
  w.put_digest(req.ledger_id);
  w.put_digest(req.receiver);
  w.put_u64(req.amount);
  w.put_digest(req.nullifier);
  w.put_u64(req.proofdata.size());
  for (const auto& d : req.proofdata) w.put_digest(d);
  w.put_digest(req.proof.binding);
}

template <typename T>
T decode_withdrawal_request(Reader& r) {
  T req;
  req.ledger_id = r.get_digest();
  req.receiver = r.get_digest();
  req.amount = r.get_u64();
  req.nullifier = r.get_digest();
  std::uint64_t n = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n; ++i) {
    req.proofdata.push_back(r.get_digest());
  }
  req.proof.binding = r.get_digest();
  return req;
}

}  // namespace

void encode(Writer& w, const BtrRequest& btr) {
  encode_withdrawal_request(w, btr);
}

BtrRequest decode_btr(Reader& r) {
  return decode_withdrawal_request<BtrRequest>(r);
}

void encode(Writer& w, const CeasedSidechainWithdrawal& csw) {
  encode_withdrawal_request(w, csw);
}

CeasedSidechainWithdrawal decode_csw(Reader& r) {
  return decode_withdrawal_request<CeasedSidechainWithdrawal>(r);
}

void encode(Writer& w, const SidechainParams& p) {
  w.put_digest(p.ledger_id);
  w.put_u64(p.start_block);
  w.put_u64(p.epoch_len);
  w.put_u64(p.submit_len);
  w.put_digest(p.wcert_vk.id);
  w.put_digest(p.btr_vk.id);
  w.put_digest(p.csw_vk.id);
  w.put_u64(p.wcert_proofdata_len);
  w.put_u64(p.btr_proofdata_len);
  w.put_u64(p.csw_proofdata_len);
}

SidechainParams decode_sidechain_params(Reader& r) {
  SidechainParams p;
  p.ledger_id = r.get_digest();
  p.start_block = r.get_u64();
  p.epoch_len = r.get_u64();
  p.submit_len = r.get_u64();
  p.wcert_vk.id = r.get_digest();
  p.btr_vk.id = r.get_digest();
  p.csw_vk.id = r.get_digest();
  p.wcert_proofdata_len = r.get_u64();
  p.btr_proofdata_len = r.get_u64();
  p.csw_proofdata_len = r.get_u64();
  return p;
}

void encode(Writer& w, const BlockHeader& h) {
  w.put_digest(h.prev_hash);
  w.put_u64(h.height);
  w.put_digest(h.tx_merkle_root);
  w.put_digest(h.sc_txs_commitment);
  w.put_u64(h.nonce);
}

BlockHeader decode_block_header(Reader& r) {
  BlockHeader h;
  h.prev_hash = r.get_digest();
  h.height = r.get_u64();
  h.tx_merkle_root = r.get_digest();
  h.sc_txs_commitment = r.get_digest();
  h.nonce = r.get_u64();
  return h;
}

void encode(Writer& w, const BlockLocator& loc) {
  w.put_u64(loc.hashes.size());
  for (const auto& h : loc.hashes) w.put_digest(h);
}

BlockLocator decode_locator(Reader& r) {
  BlockLocator loc;
  std::uint64_t n = r.get_count(kMaxLocatorHashes);
  for (std::uint64_t i = 0; i < n; ++i) loc.hashes.push_back(r.get_digest());
  return loc;
}

void encode(Writer& w, const Block& b) {
  encode(w, b.header);
  w.put_u64(b.transactions.size());
  for (const auto& tx : b.transactions) encode(w, tx);
  w.put_u64(b.sidechain_creations.size());
  for (const auto& sc : b.sidechain_creations) encode(w, sc);
  w.put_u64(b.certificates.size());
  for (const auto& cert : b.certificates) encode(w, cert);
  w.put_u64(b.btrs.size());
  for (const auto& btr : b.btrs) encode(w, btr);
  w.put_u64(b.csws.size());
  for (const auto& csw : b.csws) encode(w, csw);
}

Block decode_block(Reader& r) {
  Block b;
  b.header = decode_block_header(r);
  std::uint64_t n_tx = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_tx; ++i) {
    b.transactions.push_back(decode_transaction(r));
  }
  std::uint64_t n_sc = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_sc; ++i) {
    b.sidechain_creations.push_back(decode_sidechain_params(r));
  }
  std::uint64_t n_cert = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_cert; ++i) {
    b.certificates.push_back(decode_certificate(r));
  }
  std::uint64_t n_btr = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_btr; ++i) {
    b.btrs.push_back(decode_btr(r));
  }
  std::uint64_t n_csw = r.get_count(kMaxVecElements);
  for (std::uint64_t i = 0; i < n_csw; ++i) {
    b.csws.push_back(decode_csw(r));
  }
  return b;
}

std::vector<std::uint8_t> encode_block(const Block& b) {
  Writer w;
  encode(w, b);
  return w.take();
}

Block decode_block(std::span<const std::uint8_t> data) {
  Reader r(data);
  Block b = decode_block(r);
  r.expect_done();
  return b;
}

std::vector<std::uint8_t> encode_transaction(const Transaction& tx) {
  Writer w;
  encode(w, tx);
  return w.take();
}

Transaction decode_transaction(std::span<const std::uint8_t> data) {
  Reader r(data);
  Transaction tx = decode_transaction(r);
  r.expect_done();
  return tx;
}

std::vector<std::uint8_t> encode_locator(const BlockLocator& l) {
  Writer w;
  encode(w, l);
  return w.take();
}

BlockLocator decode_locator(std::span<const std::uint8_t> data) {
  Reader r(data);
  BlockLocator loc = decode_locator(r);
  r.expect_done();
  return loc;
}

std::vector<std::uint8_t> encode_headers(
    const std::vector<BlockHeader>& headers) {
  Writer w;
  w.put_u64(headers.size());
  for (const auto& h : headers) encode(w, h);
  return w.take();
}

std::vector<BlockHeader> decode_headers(std::span<const std::uint8_t> data) {
  Reader r(data);
  std::uint64_t n = r.get_count(kMaxHeadersPerMsg);
  std::vector<BlockHeader> headers;
  for (std::uint64_t i = 0; i < n; ++i) {
    headers.push_back(decode_block_header(r));
  }
  r.expect_done();
  return headers;
}

std::vector<std::uint8_t> encode_inv(
    const std::vector<crypto::Digest>& hashes) {
  Writer w;
  w.put_u64(hashes.size());
  for (const auto& h : hashes) w.put_digest(h);
  return w.take();
}

std::vector<crypto::Digest> decode_inv(std::span<const std::uint8_t> data) {
  Reader r(data);
  std::uint64_t n = r.get_count(kMaxInvElements);
  std::vector<crypto::Digest> hashes;
  for (std::uint64_t i = 0; i < n; ++i) hashes.push_back(r.get_digest());
  r.expect_done();
  return hashes;
}

}  // namespace zendoo::mainchain::codec
