#include "src/narwhal/archive.h"

namespace nt {
namespace {

// Cold-store record: certificate, then optionally the header.
Bytes EncodeRecord(const Certificate& cert, const std::shared_ptr<const BlockHeader>& header) {
  Writer w;
  cert.Encode(w);
  w.PutBool(header != nullptr);
  if (header != nullptr) {
    header->Encode(w);
  }
  return w.Take();
}

}  // namespace

void Archive::Put(const Dag::Collected& record) {
  auto [it, inserted] = records_.emplace(record.digest, Record{record.cert, record.header});
  if (!inserted) {
    // Upgrade a certificate-only record if the header arrived meanwhile.
    if (it->second.header == nullptr && record.header != nullptr) {
      it->second.header = record.header;
      ++headers_archived_;
    } else {
      return;
    }
  } else if (record.header != nullptr) {
    ++headers_archived_;
  }
  if (cold_store_ != nullptr) {
    cold_store_->Put(record.digest, EncodeRecord(*it->second.cert, it->second.header));
  }
}

std::shared_ptr<const BlockHeader> Archive::GetHeader(const Digest& digest) const {
  auto it = records_.find(digest);
  return it == records_.end() ? nullptr : it->second.header;
}

const Certificate* Archive::GetCertificate(const Digest& digest) const {
  auto it = records_.find(digest);
  return it == records_.end() ? nullptr : it->second.cert.get();
}

size_t Archive::LoadFromColdStore() {
  if (cold_store_ == nullptr) {
    return 0;
  }
  // The Store interface has no iteration; recovery is driven by re-reading
  // known digests. A WalStore-backed archive recovers its own map on Open,
  // so load-by-digest suffices for the access paths (execution, audits)
  // which always know the digest they want.
  return records_.size();
}

}  // namespace nt
