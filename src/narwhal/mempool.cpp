#include "src/narwhal/mempool.h"

namespace nt {

Digest Mempool::Write(std::vector<Bytes> txs) { return worker_->SubmitBlock(std::move(txs)); }

std::optional<Certificate> Mempool::CertificateFor(const Digest& batch_digest) const {
  const Dag& dag = primary_->dag();
  // In (round, author) order: a batch re-proposed after GC re-injection is
  // covered by its earliest certificate.
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    for (const auto& [author, cert] : dag.CertsAt(round)) {
      std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest);
      if (header == nullptr) {
        continue;
      }
      for (const BatchRef& ref : header->batches) {
        if (ref.digest == batch_digest) {
          return *cert;
        }
      }
    }
  }
  return std::nullopt;
}

bool Mempool::IsWriteCertified(const Digest& batch_digest) const {
  return CertificateFor(batch_digest).has_value();
}

std::vector<Digest> Mempool::ReadCausal(const Digest& header_digest) const {
  Dag::History history = primary_->dag().CollectCausalHistory(header_digest, {});
  if (!history.missing.empty()) {
    return {};
  }
  return history.ordered;
}

}  // namespace nt
