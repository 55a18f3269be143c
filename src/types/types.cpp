#include "src/types/types.h"

#include <algorithm>
#include <cstdlib>
#include <ranges>
#include <span>

#include "src/common/seeded_bugs.h"
#include "src/store/record.h"

namespace nt {

uint32_t NarwhalCertQuorum(const Committee& committee) {
  if (seeded_bugs::On(SeededBug::kAccept2fCerts)) {
    // ntlint:allow(quorum-arith): deliberate seeded mutation — 2f (not 2f+1) breaks quorum intersection to mutation-test the DST harness
    return std::max(1u, 2 * committee.f());
  }
  return committee.quorum_threshold();
}

namespace {

// Fixed wire-size contributions (bytes). Signatures are 64, digests 32.
constexpr size_t kSigSize = 64;
constexpr size_t kDigestSize = 32;

// Quorum size, distinct known voters — everything except signatures.
bool CertStructureOk(const Committee& committee, const SignedVotes& set) {
  const uint32_t threshold = set.kind == VerifiedCertCache::Kind::kNarwhal
                                 ? NarwhalCertQuorum(committee)
                                 : committee.quorum_threshold();
  return set.votes.size() >= threshold && committee.DistinctMembers(set.votes);
}

// The set as a cache claim: keyed by what it certifies, bound to its author,
// committee and exact vote bytes.
VerifiedCertCache::Claim CacheClaim(const Committee& committee, const SignedVotes& set) {
  return {set.kind, set.subject, set.round, set.author, committee.fingerprint(),
          set.votes.bytes()};
}

const Certificate& Deref(const Certificate& cert) { return cert; }
const Certificate& Deref(const Certificate* cert) { return *cert; }

// Certificates, or pointers to them, as the verification kernel sees them.
template <typename Certs>
std::vector<SignedVotes> Signed(const Certs& certs) {
  std::vector<SignedVotes> sets;
  sets.reserve(certs.size());
  for (const auto& entry : certs) {
    const Certificate& cert = Deref(entry);
    sets.push_back({VerifiedCertCache::Kind::kNarwhal, cert.header_digest, cert.round,
                    cert.author, cert.votes, &Certificate::VotePreimage});
  }
  return sets;
}

}  // namespace

bool VerifySignedVotes(std::span<const SignedVotes> sets, const Committee& committee,
                       const Verifier& verifier, VerifiedCertCache* cache) {
  bool all_valid = true;
  std::vector<const SignedVotes*> pending;
  for (const SignedVotes& set : sets) {
    if (!CertStructureOk(committee, set)) {
      all_valid = false;
    } else if (cache == nullptr || !cache->Lookup(CacheClaim(committee, set))) {
      pending.push_back(&set);
    }
  }
  if (pending.empty()) {
    return all_valid;
  }
  std::vector<Bytes> preimages;
  preimages.reserve(pending.size());  // Items point into these buffers.
  size_t num_votes = 0;
  for (const SignedVotes* set : pending) {
    num_votes += set->votes.size();
  }
  std::vector<BatchItem> items;
  items.reserve(num_votes);
  for (const SignedVotes* set : pending) {
    const Bytes& preimage =
        preimages.emplace_back(set->preimage(set->subject, set->round, set->author));
    for (const VoteList::View vote : set->votes) {
      items.push_back(
          {committee.key_of(vote.voter), preimage.data(), preimage.size(), vote.signature()});
    }
  }
  const std::vector<bool> ok = verifier.VerifyBatch(items);
  size_t next = 0;
  for (const SignedVotes* set : pending) {
    bool set_ok = true;
    for (size_t i = 0; i < set->votes.size(); ++i) {
      set_ok = ok[next++] && set_ok;
    }
    if (!set_ok) {
      all_valid = false;
    } else if (cache != nullptr) {
      cache->Insert(CacheClaim(committee, *set));
    }
  }
  return all_valid;
}

// -------------------------------------------------------------------- Batch
//
// Canonical layout, little-endian:
//   u32 author | u32 worker | u64 seq | u64 num_txs | u64 payload_bytes
//   u32 n_samples | n_samples x (u64 tx_id | i64 submit_time)
//   u32 n_txs     | n_txs x (u32 len | len bytes)

namespace {

constexpr size_t kBatchFixedSize = 4 + 4 + 8 + 8 + 8;
constexpr size_t kSampleSize = 8 + 8;

}  // namespace

bool Batch::Parse(Reader& r, Batch& b) {
  b.author_ = r.GetU32();
  b.worker_ = r.GetU32();
  b.seq_ = r.GetU64();
  b.num_txs_ = r.GetU64();
  b.payload_bytes_ = r.GetU64();
  const uint32_t n_samples = r.GetU32();
  if (n_samples > r.remaining() / kSampleSize) {
    return false;
  }
  b.samples_.resize(n_samples);
  for (TxSample& s : b.samples_) {
    s.tx_id = r.GetU64();
    s.submit_time = r.GetI64();
  }
  const uint32_t n_txs = r.GetU32();
  if (n_txs > r.remaining() / 4 || n_txs > b.num_txs_) {
    return false;
  }
  b.txs_.resize(n_txs);
  uint64_t explicit_bytes = 0;
  for (TxView& tx : b.txs_) {
    tx = r.GetVarView();
    explicit_bytes += tx.size();
  }
  return r.ok() && explicit_bytes <= b.payload_bytes_;
}

void Batch::Builder::AddTx(TxView tx) {
  txs_.PutU32(static_cast<uint32_t>(tx.size()));
  txs_.PutRaw(tx.data(), tx.size());
  ++explicit_txs_;
  AddLoad(1, tx.size());
}

std::shared_ptr<const Batch> Batch::Builder::Seal(uint64_t seq) {
  Writer w(kBatchFixedSize + 4 + samples_.size() * kSampleSize + 4 + txs_.size());
  w.PutU32(author_);
  w.PutU32(worker_);
  w.PutU64(seq);
  w.PutU64(num_txs_);
  w.PutU64(payload_bytes_);
  w.PutU32(static_cast<uint32_t>(samples_.size()));
  for (const TxSample& s : samples_) {
    w.PutU64(s.tx_id);
    w.PutI64(s.submit_time);
  }
  w.PutU32(explicit_txs_);
  w.PutRaw(txs_.bytes());
  *this = Builder(author_, worker_);
  // A sealed batch is read back exactly as a stored one is, so the two
  // cannot disagree.
  std::optional<Batch> batch = Decode(std::make_shared<const Bytes>(w.Take()));
  if (!batch.has_value()) {
    std::abort();  // Only a transaction of 4 GiB or more fails to read back.
  }
  return std::make_shared<const Batch>(std::move(*batch));
}

void Batch::Encode(Writer& w) const { w.PutRaw(*bytes_); }

std::optional<Batch> Batch::Decode(Reader& r) {
  // Find the encoding's extent on a copy of the cursor, then adopt a copy of
  // exactly those bytes.
  Reader probe = r;
  Batch scratch;
  if (!Parse(probe, scratch)) {
    return std::nullopt;
  }
  const TxView encoding = r.GetRawView(r.remaining() - probe.remaining());
  return Decode(std::make_shared<const Bytes>(encoding.begin(), encoding.end()));
}

std::optional<Batch> Batch::Decode(SharedBytes bytes) {
  if (bytes == nullptr) {
    return std::nullopt;
  }
  Batch b;
  Reader r(*bytes);
  if (!Parse(r, b) || !r.AtEnd()) {
    return std::nullopt;
  }
  b.bytes_ = std::move(bytes);
  return b;
}

Digest Batch::ComputeDigest() const {
  // The prefix is PutString("narwhal-batch"): a u32 length, then the text.
  static constexpr std::string_view kDomain = "narwhal-batch";
  const uint8_t domain_len[4] = {static_cast<uint8_t>(kDomain.size()), 0, 0, 0};
  Sha256 h;
  h.Update(domain_len, sizeof(domain_len));
  h.Update(kDomain);
  h.Update(*bytes_);
  return h.Finalize();
}

size_t Batch::WireSize() const {
  // Explicit transactions are framed (4 bytes each) in the encoding, and
  // payload_bytes covers their contents; the larger of the two counts.
  const size_t explicit_bytes =
      bytes_->size() - kBatchFixedSize - 4 - samples_.size() * kSampleSize - 4;
  return 32 + samples_.size() * kSampleSize + std::max<size_t>(payload_bytes_, explicit_bytes);
}

// ----------------------------------------------------------------- VoteList

namespace {

// The encoding of the empty list: a zero count.
constexpr uint8_t kNoVotes[4] = {0, 0, 0, 0};

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

Signature VoteList::View::signature() const {
  Signature out;
  std::copy(sig.begin(), sig.end(), out.begin());
  return out;
}

VoteList::View VoteList::Iterator::operator*() const {
  return {LoadU32(at_), std::span<const uint8_t, 64>(at_ + 4, 64)};
}

VoteList::VoteList(std::span<const Entry> votes) {
  Writer w(4 + votes.size() * kEntrySize);
  w.PutU32(static_cast<uint32_t>(votes.size()));
  for (const auto& [voter, sig] : votes) {
    w.PutU32(voter);
    w.PutRaw(sig);
  }
  buffer_ = std::make_shared<const Bytes>(w.Take());
}

std::vector<VoteList::Entry> VoteList::Quorum(const std::map<ValidatorId, Signature>& collected,
                                              size_t count) {
  const auto end =
      std::next(collected.begin(), static_cast<ptrdiff_t>(std::min(count, collected.size())));
  return std::vector<Entry>(collected.begin(), end);
}

void VoteList::Encode(Writer& w) const {
  const std::span<const uint8_t> encoding = bytes();
  w.PutRaw(encoding.data(), encoding.size());
}

std::optional<VoteList> VoteList::Decode(Reader& r) {
  Reader probe = r;
  const uint32_t n = probe.GetU32();
  if (!probe.ok() || n > probe.remaining() / kEntrySize) {
    return std::nullopt;
  }
  const std::span<const uint8_t> encoding = r.GetRawView(4 + n * kEntrySize);
  return VoteList(std::make_shared<const Bytes>(encoding.begin(), encoding.end()), 0);
}

size_t VoteList::size() const { return LoadU32(bytes().data()); }

std::span<const uint8_t> VoteList::bytes() const {
  if (buffer_ == nullptr) {
    return kNoVotes;
  }
  return std::span<const uint8_t>(*buffer_).subspan(offset_);
}

std::vector<VoteList::Entry> VoteList::Entries() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (const View vote : *this) {
    out.emplace_back(vote.voter, vote.signature());
  }
  return out;
}

bool VoteList::operator==(const VoteList& other) const {
  return std::ranges::equal(bytes(), other.bytes());
}

bool Committee::DistinctMembers(const VoteList& votes) const {
  MemberSet seen(size());
  for (const VoteList::View vote : votes) {
    if (!Contains(vote.voter) || !seen.Insert(vote.voter)) {
      return false;
    }
  }
  return true;
}

// -------------------------------------------------------------- Certificate
//
// Sealed layout, little-endian — the 'C' record value: the tag 'C', then the
// field list (Certificate::Fields):
//   u8 tag 'C' | 32 header_digest | u64 round | u32 author
//   u32 n_votes | n_votes x (u32 voter | 64 signature)

namespace {

constexpr size_t kCertFieldsSize = kDigestSize + 8 + 4;
// Where the vote list starts in a sealed buffer.
constexpr uint32_t kSealedVotesOffset = 1 + kCertFieldsSize;

}  // namespace

Certificate::Certificate(const Digest& digest, Round cert_round, ValidatorId cert_author,
                         std::span<const VoteList::Entry> entries)
    : header_digest(digest), round(cert_round), author(cert_author), votes(entries) {
  votes = VoteList(SealRecordValue(kRecordTag, [this](Writer& w) { EncodeWire(w, *this); }),
                   kSealedVotesOffset);
}

Bytes Certificate::VotePreimage(const Digest& header_digest, Round round, ValidatorId author) {
  Writer w;
  w.PutString("narwhal-vote");
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  return w.Take();
}

std::optional<Certificate> Certificate::Decode(SharedBytes record_value) {
  if (record_value == nullptr || record_value->empty() || (*record_value)[0] != kRecordTag) {
    return std::nullopt;
  }
  Reader r(record_value->data() + 1, record_value->size() - 1);
  std::optional<Certificate> c = DecodeWhole<Certificate>(r);
  if (c.has_value()) {
    // The votes, read into a list of their own, are viewed in place instead.
    c->votes = VoteList(std::move(record_value), kSealedVotesOffset);
  }
  return c;
}

bool Certificate::Sealed() const {
  if (votes.buffer_ == nullptr || votes.offset_ != kSealedVotesOffset) {
    return false;
  }
  Reader r(votes.buffer_->data() + 1, kCertFieldsSize);
  return r.GetArray<32>() == header_digest && r.GetU64() == round && r.GetU32() == author;
}

SharedBytes Certificate::RecordValue() const {
  if (Sealed()) {
    return votes.buffer_;
  }
  return SealRecordValue(kRecordTag, [this](Writer& w) { EncodeWire(w, *this); });
}

bool Certificate::Verify(const Committee& committee, const Verifier& verifier,
                         VerifiedCertCache* cache) const {
  return VerifySignedVotes(Signed(std::span(this, 1)), committee, verifier, cache);
}

bool Certificate::VerifyAll(const std::vector<Certificate>& certs, const Committee& committee,
                            const Verifier& verifier, VerifiedCertCache* cache) {
  return VerifySignedVotes(Signed(certs), committee, verifier, cache);
}

bool Certificate::VerifyAll(std::span<const Certificate* const> certs, const Committee& committee,
                            const Verifier& verifier, VerifiedCertCache* cache) {
  return VerifySignedVotes(Signed(certs), committee, verifier, cache);
}

// -------------------------------------------------------------- BlockHeader

Digest BlockHeader::ComputeDigest() const {
  Writer w;
  w.PutString("narwhal-header");
  w.PutU32(author);
  w.PutU64(round);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const BatchRef& b : batches) {
    EncodeWire(w, b);
  }
  w.PutU32(static_cast<uint32_t>(parents.size()));
  for (const Certificate& c : parents) {
    // Identify parents by (digest, round, author) — not by their vote sets.
    w.PutRaw(c.header_digest);
    w.PutU64(c.round);
    w.PutU32(c.author);
  }
  return Sha256::Hash(w.bytes());
}

// Sealed layout, little-endian — the 'H' record value: the tag 'H', then the
// field list with the parents named by digest (BlockHeader::Fields):
//   u8 tag 'H' | u32 author | u64 round
//   u32 n_batches | n_batches x batch ref
//   u32 n_parents | n_parents x 32 parent digest | 64 author_sig

namespace {

// The 'H' record value of `h`, its parents named by their digests.
SharedBytes SealHeaderRecord(const BlockHeader& h) {
  return SealRecordValue(BlockHeader::kRecordTag, [&](Writer& w) {
    EncodeWire(w, BlockHeader::Fields(
                      h, std::views::transform(h.parents, &Certificate::header_digest)));
  });
}

}  // namespace

void BlockHeader::Seal(const Digest& digest) {
  seal_.value = SealHeaderRecord(*this);
  seal_.digest = digest;
}

void BlockHeader::Adopt(SharedBytes record_value, const Digest& digest) {
  seal_.value = std::move(record_value);
  seal_.digest = digest;
}

SharedBytes BlockHeader::RecordValue(const Digest& digest) const {
  // The signature is the value's last field.
  if (seal_.value != nullptr && seal_.digest == digest && seal_.value->size() > kSigSize &&
      std::equal(author_sig.begin(), author_sig.end(), seal_.value->end() - kSigSize)) {
    return seal_.value;
  }
  return SealHeaderRecord(*this);
}

// --------------------------------------------------------------------- Vote

bool Vote::Verify(const Committee& committee, const Verifier& verifier) const {
  if (!committee.Contains(voter) || !committee.Contains(author)) {
    return false;
  }
  Bytes preimage = Certificate::VotePreimage(header_digest, round, author);
  return verifier.Verify(committee.key_of(voter), preimage, sig);
}

}  // namespace nt
