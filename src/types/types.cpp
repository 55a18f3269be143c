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

// ----------------------------------------------------------------- BatchRef

void BatchRef::Encode(Writer& w) const {
  w.PutRaw(digest);
  w.PutU32(worker);
  w.PutU64(num_txs);
  w.PutU64(payload_bytes);
}

BatchRef BatchRef::Decode(Reader& r) {
  BatchRef b;
  b.digest = r.GetArray<32>();
  b.worker = r.GetU32();
  b.num_txs = r.GetU64();
  b.payload_bytes = r.GetU64();
  return b;
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
  w.PutU32(static_cast<uint32_t>(size()));
  const std::span<const uint8_t> votes = bytes().subspan(4);
  w.PutRaw(votes.data(), votes.size());
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
// Sealed layout, little-endian — the 'C' record value:
//   u8 tag 'C' | 32 header_digest | u64 round | u32 author
//   u32 n_votes | n_votes x (u32 voter | 64 signature)
// Encode writes everything after the tag.

namespace {

constexpr size_t kCertFieldsSize = kDigestSize + 8 + 4;
// Where the vote list starts in a sealed buffer.
constexpr uint32_t kSealedVotesOffset = 1 + kCertFieldsSize;

}  // namespace

Certificate::Certificate(const Digest& digest, Round cert_round, ValidatorId cert_author,
                         std::span<const VoteList::Entry> entries)
    : header_digest(digest),
      round(cert_round),
      author(cert_author),
      votes(SealRecordValue(kRecordTag,
                            [&](Writer& w) {
                              w.PutRaw(digest);
                              w.PutU64(cert_round);
                              w.PutU32(cert_author);
                              VoteList(entries).Encode(w);
                            }),
            kSealedVotesOffset) {}

Bytes Certificate::VotePreimage(const Digest& header_digest, Round round, ValidatorId author) {
  Writer w;
  w.PutString("narwhal-vote");
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  return w.Take();
}

void Certificate::Encode(Writer& w) const {
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  w.PutU32(static_cast<uint32_t>(votes.size()));
  const std::span<const uint8_t> entries = votes.bytes().subspan(4);
  w.PutRaw(entries.data(), entries.size());
}

std::optional<Certificate> Certificate::Decode(SharedBytes record_value) {
  if (record_value == nullptr || record_value->empty() || (*record_value)[0] != kRecordTag) {
    return std::nullopt;
  }
  Reader r(record_value->data() + 1, record_value->size() - 1);
  Certificate c;
  c.header_digest = r.GetArray<32>();
  c.round = r.GetU64();
  c.author = r.GetU32();
  const uint32_t n = r.GetU32();
  if (!r.ok() || n > r.remaining() / VoteList::kEntrySize) {
    return std::nullopt;
  }
  r.GetRawView(n * VoteList::kEntrySize);  // The votes, which `votes` views in place.
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  c.votes = VoteList(std::move(record_value), kSealedVotesOffset);
  return c;
}

std::optional<Certificate> Certificate::Decode(Reader& r) {
  // Find the encoding's extent on a copy of the cursor, bounding the vote
  // count by the input before anything is allocated, then seal a copy of
  // exactly those bytes.
  Reader probe = r;
  probe.GetRawView(kCertFieldsSize);
  const uint32_t n = probe.GetU32();
  if (!probe.ok() || n > probe.remaining() / VoteList::kEntrySize) {
    return std::nullopt;
  }
  const std::span<const uint8_t> encoding =
      r.GetRawView(kCertFieldsSize + 4 + n * VoteList::kEntrySize);
  return Decode(SealRecordValue(
      kRecordTag, [&](Writer& w) { w.PutRaw(encoding.data(), encoding.size()); }));
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
  return SealRecordValue(kRecordTag, [this](Writer& w) { Encode(w); });
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

size_t Certificate::WireSize() const {
  return kCertFieldsSize + 4 + votes.size() * VoteList::kEntrySize;
}

// -------------------------------------------------------------- BlockHeader

Digest BlockHeader::ComputeDigest() const {
  Writer w;
  w.PutString("narwhal-header");
  w.PutU32(author);
  w.PutU64(round);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const BatchRef& b : batches) {
    b.Encode(w);
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

void BlockHeader::Encode(Writer& w) const {
  w.PutU32(author);
  w.PutU64(round);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const BatchRef& b : batches) {
    b.Encode(w);
  }
  w.PutU32(static_cast<uint32_t>(parents.size()));
  for (const Certificate& c : parents) {
    c.Encode(w);
  }
  w.PutRaw(author_sig);
}

std::optional<BlockHeader> BlockHeader::Decode(Reader& r) {
  BlockHeader h;
  h.author = r.GetU32();
  h.round = r.GetU64();
  uint32_t n_batches = r.GetU32();
  for (uint32_t i = 0; i < n_batches && r.ok(); ++i) {
    h.batches.push_back(BatchRef::Decode(r));
  }
  uint32_t n_parents = r.GetU32();
  for (uint32_t i = 0; i < n_parents && r.ok(); ++i) {
    auto c = Certificate::Decode(r);
    if (!c.has_value()) {
      return std::nullopt;
    }
    h.parents.push_back(std::move(*c));
  }
  h.author_sig = r.GetArray<64>();
  if (!r.ok()) {
    return std::nullopt;
  }
  return h;
}

// Sealed layout, little-endian — the 'H' record value:
//   u8 tag 'H' | u32 author | u64 round
//   u32 n_batches | n_batches x batch ref
//   u32 n_parents | n_parents x 32 parent digest | 64 author_sig
// EncodeRecordFields writes everything after the tag.

namespace {

// `parent_digests` is a sized range of Digest.
template <typename ParentDigests>
void PutRecordFields(Writer& w, const BlockHeader& h, const ParentDigests& parent_digests) {
  w.PutU32(h.author);
  w.PutU64(h.round);
  w.PutU32(static_cast<uint32_t>(h.batches.size()));
  for (const BatchRef& ref : h.batches) {
    ref.Encode(w);
  }
  w.PutU32(static_cast<uint32_t>(std::ranges::size(parent_digests)));
  for (const Digest& parent : parent_digests) {
    w.PutRaw(parent);
  }
  w.PutRaw(h.author_sig);
}

// The 'H' record value of `h`, its parents named by their digests.
SharedBytes SealHeaderRecord(const BlockHeader& h) {
  return SealRecordValue(BlockHeader::kRecordTag, [&](Writer& w) {
    PutRecordFields(w, h, std::views::transform(h.parents, &Certificate::header_digest));
  });
}

}  // namespace

void BlockHeader::EncodeRecordFields(Writer& w, std::span<const Digest> parent_digests) const {
  PutRecordFields(w, *this, parent_digests);
}

std::optional<BlockHeader> BlockHeader::DecodeRecordFields(Reader& r,
                                                           std::vector<Digest>& parent_digests) {
  BlockHeader h;
  h.author = r.GetU32();
  h.round = r.GetU64();
  uint32_t n_batches = r.GetU32();
  for (uint32_t i = 0; i < n_batches && r.ok(); ++i) {
    h.batches.push_back(BatchRef::Decode(r));
  }
  uint32_t n_parents = r.GetU32();
  for (uint32_t i = 0; i < n_parents && r.ok(); ++i) {
    parent_digests.push_back(r.GetArray<32>());
  }
  h.author_sig = r.GetArray<64>();
  if (!r.ok()) {
    return std::nullopt;
  }
  return h;
}

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

size_t BlockHeader::WireSize() const {
  size_t size = 4 + 8 + 4 + 4 + kSigSize;
  size += batches.size() * (kDigestSize + 4 + 8 + 8);
  for (const Certificate& c : parents) {
    size += c.WireSize();
  }
  return size;
}

// --------------------------------------------------------------------- Vote

void Vote::Encode(Writer& w) const {
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  w.PutU32(voter);
  w.PutRaw(sig);
}

std::optional<Vote> Vote::Decode(Reader& r) {
  Vote v;
  v.header_digest = r.GetArray<32>();
  v.round = r.GetU64();
  v.author = r.GetU32();
  v.voter = r.GetU32();
  v.sig = r.GetArray<64>();
  if (!r.ok()) {
    return std::nullopt;
  }
  return v;
}

bool Vote::Verify(const Committee& committee, const Verifier& verifier) const {
  if (!committee.Contains(voter) || !committee.Contains(author)) {
    return false;
  }
  Bytes preimage = Certificate::VotePreimage(header_digest, round, author);
  return verifier.Verify(committee.key_of(voter), preimage, sig);
}

size_t Vote::WireSize() const { return kDigestSize + 8 + 4 + 4 + kSigSize; }

}  // namespace nt
