// Wire-codec tests: round-trip identity (checked by re-hashing, which
// covers every field), strictness against truncation/trailing bytes, and
// hostile-count handling.
#include "mainchain/codec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crypto/rng.hpp"

// Replaces the global allocator for this test binary so a test can
// record the largest single allocation made while it runs.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t prev = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > prev && !g_largest_allocation.compare_exchange_weak(prev, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace zendoo::mainchain::codec {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::Rng;

// Runs `decode`, which must throw CodecError, and checks that no single
// allocation made meanwhile reaches 64 KiB.
template <class Decode>
void expect_rejected_without_large_allocation(Decode decode,
                                              const char* what) {
  bool rejected = false;
  g_largest_allocation = 0;
  g_track_allocations = true;
  try {
    decode();
  } catch (const CodecError&) {
    rejected = true;
  }
  g_track_allocations = false;
  EXPECT_TRUE(rejected) << what;
  EXPECT_LT(g_largest_allocation.load(), 64u * 1024) << what;
}

Transaction random_tx(Rng& rng, bool coinbase = false) {
  Transaction tx;
  tx.is_coinbase = coinbase;
  tx.coinbase_height = coinbase ? rng.next_below(100) : 0;
  if (!coinbase) {
    for (std::uint64_t i = 0; i < 1 + rng.next_below(3); ++i) {
      TxInput in;
      in.prevout = {rng.next_digest(),
                    static_cast<std::uint32_t>(rng.next_below(8))};
      in.pubkey = {rng.next_u256(), rng.next_u256()};
      in.sig = {rng.next_u256(), rng.next_u256(), rng.next_u256()};
      tx.inputs.push_back(in);
    }
  }
  for (std::uint64_t i = 0; i < 1 + rng.next_below(3); ++i) {
    tx.outputs.push_back(TxOutput{rng.next_digest(), rng.next_below(1000)});
  }
  for (std::uint64_t i = 0; i < rng.next_below(3); ++i) {
    ForwardTransferOutput ft;
    ft.ledger_id = rng.next_digest();
    for (std::uint64_t j = 0; j < rng.next_below(3); ++j) {
      ft.receiver_metadata.push_back(rng.next_digest());
    }
    ft.amount = 1 + rng.next_below(1000);
    tx.forward_transfers.push_back(ft);
  }
  return tx;
}

WithdrawalCertificate random_cert(Rng& rng) {
  WithdrawalCertificate cert;
  cert.ledger_id = rng.next_digest();
  cert.epoch_id = rng.next_below(20);
  cert.quality = rng.next_below(1000);
  for (std::uint64_t i = 0; i < rng.next_below(4); ++i) {
    cert.bt_list.push_back({rng.next_digest(), rng.next_below(500)});
  }
  for (std::uint64_t i = 0; i < rng.next_below(4); ++i) {
    cert.proofdata.push_back(rng.next_digest());
  }
  cert.proof.binding = rng.next_digest();
  return cert;
}

BtrRequest random_btr(Rng& rng) {
  BtrRequest btr;
  btr.ledger_id = rng.next_digest();
  btr.receiver = rng.next_digest();
  btr.amount = rng.next_below(100);
  btr.nullifier = rng.next_digest();
  for (std::uint64_t i = 0; i < rng.next_below(3); ++i) {
    btr.proofdata.push_back(rng.next_digest());
  }
  btr.proof.binding = rng.next_digest();
  return btr;
}

CeasedSidechainWithdrawal random_csw(Rng& rng) {
  CeasedSidechainWithdrawal csw;
  csw.ledger_id = rng.next_digest();
  csw.receiver = rng.next_digest();
  csw.amount = 1 + rng.next_below(1000);
  csw.nullifier = rng.next_digest();
  for (std::uint64_t i = 0; i < rng.next_below(3); ++i) {
    csw.proofdata.push_back(rng.next_digest());
  }
  csw.proof.binding = rng.next_digest();
  return csw;
}

Block random_block(Rng& rng) {
  Block b;
  b.header.prev_hash = rng.next_digest();
  b.header.height = rng.next_below(1000);
  b.header.nonce = rng.next_u64();
  b.transactions.push_back(random_tx(rng, /*coinbase=*/true));
  for (std::uint64_t i = 0; i < rng.next_below(3); ++i) {
    b.transactions.push_back(random_tx(rng));
  }
  for (std::uint64_t i = 0; i < rng.next_below(2); ++i) {
    SidechainParams p;
    p.ledger_id = rng.next_digest();
    p.start_block = 1 + rng.next_below(10);
    p.epoch_len = 1 + rng.next_below(10);
    p.submit_len = 1;
    p.wcert_vk.id = rng.next_digest();
    b.sidechain_creations.push_back(p);
  }
  for (std::uint64_t i = 0; i < rng.next_below(2); ++i) {
    b.certificates.push_back(random_cert(rng));
  }
  for (std::uint64_t i = 0; i < rng.next_below(2); ++i) {
    b.btrs.push_back(random_btr(rng));
  }
  for (std::uint64_t i = 0; i < rng.next_below(2); ++i) {
    b.csws.push_back(random_csw(rng));
  }
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = hash_str(Domain::kGeneric, "whatever");
  return b;
}

TEST(Codec, TransactionRoundTripPreservesId) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    Transaction tx = random_tx(rng, i % 5 == 0);
    auto bytes = encode_transaction(tx);
    Transaction back = decode_transaction(bytes);
    // The tx id hashes every field: equality of ids == field equality.
    EXPECT_EQ(back.id(), tx.id());
  }
}

TEST(Codec, BlockRoundTripPreservesHashAndRoots) {
  Rng rng(2);
  for (int i = 0; i < 15; ++i) {
    Block b = random_block(rng);
    auto bytes = encode_block(b);
    Block back = decode_block(bytes);
    EXPECT_EQ(back.hash(), b.hash());
    EXPECT_EQ(back.compute_tx_merkle_root(), b.compute_tx_merkle_root());
    EXPECT_EQ(back.certificates.size(), b.certificates.size());
    for (std::size_t c = 0; c < b.certificates.size(); ++c) {
      EXPECT_EQ(back.certificates[c].hash(), b.certificates[c].hash());
    }
  }
}

TEST(Codec, CertificateRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    WithdrawalCertificate cert = random_cert(rng);
    Writer w;
    encode(w, cert);
    Reader r(w.bytes());
    WithdrawalCertificate back = decode_certificate(r);
    r.expect_done();
    EXPECT_EQ(back.hash(), cert.hash());
  }
}

TEST(Codec, GossipedBlockShapesRoundTrip) {
  // The network simulator ships whole blocks over the wire: every shape a
  // NetNode can gossip must survive encode -> decode with identity
  // preserved AND re-encode byte-identically (peers hash wire payloads
  // for the delivery trace, so the encoding must be canonical).
  Rng rng(8);
  auto check = [](const Block& b, const char* what) {
    auto bytes = encode_block(b);
    Block back = decode_block(bytes);
    EXPECT_EQ(back.hash(), b.hash()) << what;
    ASSERT_EQ(back.certificates.size(), b.certificates.size()) << what;
    for (std::size_t i = 0; i < b.certificates.size(); ++i) {
      EXPECT_EQ(back.certificates[i].hash(), b.certificates[i].hash());
    }
    ASSERT_EQ(back.btrs.size(), b.btrs.size()) << what;
    for (std::size_t i = 0; i < b.btrs.size(); ++i) {
      EXPECT_EQ(back.btrs[i].hash(), b.btrs[i].hash());
    }
    ASSERT_EQ(back.csws.size(), b.csws.size()) << what;
    for (std::size_t i = 0; i < b.csws.size(); ++i) {
      EXPECT_EQ(back.csws[i].hash(), b.csws[i].hash());
    }
    EXPECT_EQ(encode_block(back), bytes) << what << ": not canonical";
  };

  // Empty block — what a tip announcement for a quiet chain carries.
  Block empty;
  empty.header.prev_hash = rng.next_digest();
  empty.header.height = 7;
  empty.header.tx_merkle_root = empty.compute_tx_merkle_root();
  empty.header.sc_txs_commitment = hash_str(Domain::kGeneric, "empty");
  check(empty, "empty block");

  // Certificate-carrying block with BT payouts and proofdata — the
  // §5.1-critical payload a reorg can orphan and re-deliver.
  Block cert_block;
  cert_block.header.prev_hash = rng.next_digest();
  cert_block.header.height = 9;
  cert_block.transactions.push_back(random_tx(rng, /*coinbase=*/true));
  cert_block.certificates.push_back(random_cert(rng));
  cert_block.certificates.push_back(random_cert(rng));
  cert_block.header.tx_merkle_root = cert_block.compute_tx_merkle_root();
  cert_block.header.sc_txs_commitment = hash_str(Domain::kGeneric, "certs");
  check(cert_block, "certificate block");

  // CSW-carrying block (ceased-sidechain recovery traffic).
  Block csw_block;
  csw_block.header.prev_hash = rng.next_digest();
  csw_block.header.height = 11;
  csw_block.transactions.push_back(random_tx(rng, /*coinbase=*/true));
  csw_block.csws.push_back(random_csw(rng));
  csw_block.btrs.push_back(random_btr(rng));
  csw_block.header.tx_merkle_root = csw_block.compute_tx_merkle_root();
  csw_block.header.sc_txs_commitment = hash_str(Domain::kGeneric, "csws");
  check(csw_block, "csw block");

  // And everything at once, fuzzed.
  for (int i = 0; i < 20; ++i) check(random_block(rng), "random block");
}

TEST(Codec, TruncationAtEveryPointRejected) {
  Rng rng(4);
  Block b = random_block(rng);
  auto bytes = encode_block(b);
  // Cutting the message anywhere must throw, never crash or mis-decode.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW((void)decode_block(prefix), CodecError) << "cut=" << cut;
  }
}

TEST(Codec, TrailingBytesRejected) {
  Rng rng(5);
  Transaction tx = random_tx(rng);
  auto bytes = encode_transaction(tx);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_transaction(bytes), CodecError);
}

TEST(Codec, HostileCountRejected) {
  // A message claiming 2^63 inputs must be rejected by the count guard,
  // not by an allocation failure.
  Writer w;
  w.put_bool(false);                  // is_coinbase
  w.put_u64(0);                       // coinbase_height
  w.put_u64(std::uint64_t{1} << 63);  // inputs count
  EXPECT_THROW((void)decode_transaction(w.bytes()), CodecError);
}

TEST(Codec, HostileCountAllocatesNothingForTheClaim) {
  // Each payload claims its cap's worth of entries, then ends. The
  // decoder must reject it without allocating for entries it never read.
  Writer ft_block;  // ~250 bytes claiming 2^20 receiver_metadata digests
  encode(ft_block, BlockHeader{});
  ft_block.put_u64(1);        // transactions
  ft_block.put_bool(true);    // is_coinbase
  ft_block.put_u64(0);        // coinbase_height
  ft_block.put_u64(0);        // inputs
  ft_block.put_u64(0);        // outputs
  ft_block.put_u64(1);        // forward transfers
  ft_block.put_digest(Digest{});  // ledger_id
  ft_block.put_u64(std::uint64_t{1} << 20);
  Writer headers;
  headers.put_u64(kMaxHeadersPerMsg);
  Writer inv;
  inv.put_u64(kMaxInvElements);

  expect_rejected_without_large_allocation(
      [&] { (void)decode_block(ft_block.bytes()); }, "forward transfer");
  expect_rejected_without_large_allocation(
      [&] { (void)decode_headers(headers.bytes()); }, "headers");
  expect_rejected_without_large_allocation(
      [&] { (void)decode_inv(inv.bytes()); }, "inv");
}

TEST(Codec, InvalidBooleanRejected) {
  Writer w;
  w.put_u8(7);  // is_coinbase must be 0/1
  w.put_u64(0);
  w.put_u64(0);
  w.put_u64(0);
  w.put_u64(0);
  EXPECT_THROW((void)decode_transaction(w.bytes()), CodecError);
}

TEST(Codec, EncodingIsDeterministic) {
  Rng rng(6);
  Block b = random_block(rng);
  EXPECT_EQ(encode_block(b), encode_block(b));
}

TEST(Codec, LocatorRoundTripAndCaps) {
  Rng rng(9);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                        static_cast<std::size_t>(kMaxLocatorHashes)}) {
    BlockLocator loc;
    for (std::size_t i = 0; i < n; ++i) loc.hashes.push_back(rng.next_digest());
    auto bytes = encode_locator(loc);
    BlockLocator back = decode_locator(bytes);
    EXPECT_EQ(back.hashes, loc.hashes) << "n=" << n;
    EXPECT_EQ(encode_locator(back), bytes) << "n=" << n << ": not canonical";
  }

  // One hash over the cap: count guard, not allocation failure.
  Writer w;
  w.put_u64(kMaxLocatorHashes + 1);
  EXPECT_THROW((void)decode_locator(w.bytes()), CodecError);
}

TEST(Codec, LocatorTruncationAndTrailingBytesRejected) {
  Rng rng(10);
  BlockLocator loc;
  for (int i = 0; i < 5; ++i) loc.hashes.push_back(rng.next_digest());
  auto bytes = encode_locator(loc);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, bytes.size() - 1}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW((void)decode_locator(prefix), CodecError) << "cut=" << cut;
  }
  bytes.push_back(0);
  EXPECT_THROW((void)decode_locator(bytes), CodecError);
}

TEST(Codec, HeaderBatchRoundTrip) {
  Rng rng(11);
  std::vector<BlockHeader> headers;
  for (int i = 0; i < 40; ++i) {
    BlockHeader h;
    h.prev_hash = rng.next_digest();
    h.height = rng.next_below(1000);
    h.nonce = rng.next_u64();
    h.tx_merkle_root = rng.next_digest();
    h.sc_txs_commitment = rng.next_digest();
    headers.push_back(h);
  }
  auto bytes = encode_headers(headers);
  std::vector<BlockHeader> back = decode_headers(bytes);
  ASSERT_EQ(back.size(), headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    // Header hashes cover every field.
    EXPECT_EQ(back[i].hash(), headers[i].hash()) << "header " << i;
  }
  EXPECT_EQ(encode_headers(back), bytes) << "not canonical";
  EXPECT_TRUE(decode_headers(encode_headers({})).empty());
}

TEST(Codec, HeaderBatchHostileCountAndTruncationRejected) {
  Writer w;
  w.put_u64(kMaxHeadersPerMsg + 1);
  EXPECT_THROW((void)decode_headers(w.bytes()), CodecError);

  Rng rng(12);
  BlockHeader h;
  h.prev_hash = rng.next_digest();
  h.tx_merkle_root = rng.next_digest();
  h.sc_txs_commitment = rng.next_digest();
  auto bytes = encode_headers({h});
  std::span<const std::uint8_t> prefix(bytes.data(), bytes.size() - 1);
  EXPECT_THROW((void)decode_headers(prefix), CodecError);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_headers(bytes), CodecError);
}

TEST(Codec, InvRoundTripAndCaps) {
  Rng rng(13);
  std::vector<Digest> hashes;
  for (int i = 0; i < 64; ++i) hashes.push_back(rng.next_digest());
  auto bytes = encode_inv(hashes);
  EXPECT_EQ(decode_inv(bytes), hashes);
  EXPECT_EQ(encode_inv(decode_inv(bytes)), bytes) << "not canonical";
  EXPECT_TRUE(decode_inv(encode_inv({})).empty());

  Writer w;
  w.put_u64(kMaxInvElements + 1);
  EXPECT_THROW((void)decode_inv(w.bytes()), CodecError);

  std::span<const std::uint8_t> prefix(bytes.data(), bytes.size() - 1);
  EXPECT_THROW((void)decode_inv(prefix), CodecError);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_inv(bytes), CodecError);
}

TEST(Codec, BitFlipChangesDecodedIdentity) {
  Rng rng(7);
  Transaction tx = random_tx(rng);
  auto bytes = encode_transaction(tx);
  // Flip one payload byte: either decode fails or the id changes; the
  // codec must never silently return the original transaction.
  for (std::size_t i = 0; i < bytes.size(); i += 13) {
    auto mutated = bytes;
    mutated[i] ^= 1;
    try {
      Transaction back = decode_transaction(mutated);
      EXPECT_NE(back.id(), tx.id()) << "byte " << i;
    } catch (const CodecError&) {
      // fine: strict rejection
    }
  }
}

}  // namespace
}  // namespace zendoo::mainchain::codec
