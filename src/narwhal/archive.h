// Passive cold storage for garbage-collected rounds — the paper's §3.3
// offload: "storing and servicing requests for blocks from previous rounds
// can be offloaded to a passive and scalable distributed store or an
// external provider operating a CDN such as Cloudflare or S3", from which
// execution engines and light clients read after sequencing.
//
// The archive is append-only, keyed by header digest, and optionally backed
// by a persistent Store (WAL) so it survives restarts.
#ifndef SRC_NARWHAL_ARCHIVE_H_
#define SRC_NARWHAL_ARCHIVE_H_

#include <map>
#include <memory>

#include "src/narwhal/dag.h"
#include "src/store/store.h"

namespace nt {

class Archive {
 public:
  // In-memory archive; pass a Store for durability.
  explicit Archive(std::unique_ptr<Store> cold_store = nullptr)
      : cold_store_(std::move(cold_store)) {}

  // Ingests a record evicted by DAG garbage collection. Records without a
  // locally-synced header are kept as certificate-only entries.
  void Put(const Dag::Collected& record);

  std::shared_ptr<const BlockHeader> GetHeader(const Digest& digest) const;
  const Certificate* GetCertificate(const Digest& digest) const;
  bool Contains(const Digest& digest) const { return records_.count(digest) != 0; }

  size_t size() const { return records_.size(); }
  size_t headers_archived() const { return headers_archived_; }

  // Recovers the in-memory index from the persistent store (after restart).
  // Returns the number of records loaded. No-op without a backing store.
  size_t LoadFromColdStore();

 private:
  struct Record {
    CertPtr cert;
    std::shared_ptr<const BlockHeader> header;
  };

  std::unique_ptr<Store> cold_store_;
  std::map<Digest, Record> records_;
  size_t headers_archived_ = 0;
};

}  // namespace nt

#endif  // SRC_NARWHAL_ARCHIVE_H_
