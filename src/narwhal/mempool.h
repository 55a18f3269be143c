// The abstract Mempool interface of paper §2.1, as a facade over one
// validator's primary + worker:
//
//   write(d, b)      -> Mempool::Write       (submit a block of transactions;
//                                             succeeds when a certificate of
//                                             availability covers it)
//   valid(d, c(d))   -> Mempool::Valid       (certificate verification)
//   read(d)          -> Mempool::Read        (block content by digest)
//   read_causal(d)   -> Mempool::ReadCausal  (causal history of a block)
//
// The facade is synchronous over the simulator: callers drive the Scheduler
// between Write and the certificate appearing.
#ifndef SRC_NARWHAL_MEMPOOL_H_
#define SRC_NARWHAL_MEMPOOL_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/narwhal/primary.h"
#include "src/narwhal/worker.h"
#include "src/types/cert_cache.h"

namespace nt {

class Mempool {
 public:
  Mempool(Primary* primary, Worker* worker) : primary_(primary), worker_(worker) {}

  // Submits a block of transactions as one batch and returns its digest (the
  // key `d`). The write *succeeds* once IsWriteCertified(d) holds.
  Digest Write(std::vector<Bytes> txs);

  // True once some certified header includes the batch — i.e. a certificate
  // of availability c(d) exists.
  bool IsWriteCertified(const Digest& batch_digest) const;

  // The certificate covering the batch (via the including header), if any.
  std::optional<Certificate> CertificateFor(const Digest& batch_digest) const;

  // valid(d, c(d)): structural and cryptographic certificate check through
  // the batched verification kernel and this mempool's own
  // verified-certificate cache, so repeated validity queries for the same
  // certificate cost one cache probe after the first.
  bool Valid(const Committee& committee, const Signer& verifier, const Certificate& cert) const {
    return cert.Verify(committee, verifier, &cert_cache_);
  }

  // read(d): the batch content, if stored locally.
  std::shared_ptr<const Batch> Read(const Digest& batch_digest) const {
    return worker_->GetBatch(batch_digest);
  }

  // read_causal over header digests: every header with a transitive
  // happened-before path to `header_digest` (inclusive), above the GC round.
  // Empty if the header is unknown or its history is incomplete locally.
  std::vector<Digest> ReadCausal(const Digest& header_digest) const;

  const VerifiedCertCache& cert_cache() const { return cert_cache_; }

 private:
  Primary* primary_;
  Worker* worker_;
  // The cache of Valid: the wrapped validator's certificate DAG is its own
  // memo and uses none (see src/types/cert_cache.h).
  mutable VerifiedCertCache cert_cache_;
};

}  // namespace nt

#endif  // SRC_NARWHAL_MEMPOOL_H_
