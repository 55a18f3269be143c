#include "src/narwhal/light_client.h"

#include <algorithm>

namespace nt {

void InclusionProof::Encode(Writer& w) const {
  certificate.Encode(w);
  header->Encode(w);
  batch->Encode(w);
  w.PutU32(tx_index);
}

std::optional<InclusionProof> InclusionProof::Decode(Reader& r) {
  InclusionProof proof;
  auto cert = Certificate::Decode(r);
  if (!cert.has_value()) {
    return std::nullopt;
  }
  proof.certificate = std::move(*cert);
  auto header = BlockHeader::Decode(r);
  if (!header.has_value()) {
    return std::nullopt;
  }
  proof.header = std::make_shared<BlockHeader>(std::move(*header));
  auto batch = Batch::Decode(r);
  if (!batch.has_value()) {
    return std::nullopt;
  }
  proof.batch = std::make_shared<Batch>(std::move(*batch));
  proof.tx_index = r.GetU32();
  if (!r.ok()) {
    return std::nullopt;
  }
  return proof;
}

size_t InclusionProof::WireSize() const {
  // Exact encoded size (Batch::WireSize is a bandwidth-accounting figure
  // that counts represented payload bytes, not the canonical encoding).
  Writer w;
  Encode(w);
  return w.size();
}

std::optional<Bytes> LightClient::VerifyInclusion(const InclusionProof& proof) const {
  auto reject = [this]() -> std::optional<Bytes> {
    ++rejected_;
    return std::nullopt;
  };
  if (proof.header == nullptr || proof.batch == nullptr) {
    return reject();
  }
  // 1+2a. Structural binding of header to certificate (content hash +
  //       consistent round/author metadata) before any signature work.
  Digest header_digest = proof.header->ComputeDigest();
  if (header_digest != proof.certificate.header_digest ||
      proof.header->round != proof.certificate.round ||
      proof.header->author != proof.certificate.author ||
      !committee_.Contains(proof.header->author)) {
    return reject();
  }
  // 2b. Certificate of availability: 2f+1 distinct valid committee votes,
  //     verified as one batch (single multi-scalar multiplication for
  //     Ed25519) and memoized in the verified-certificate cache — then the
  //     header author's signature.
  if (!proof.certificate.Verify(committee_, *verifier_, &cert_cache_) ||
      !verifier_->Verify(committee_.key_of(proof.header->author), header_digest,
                         proof.header->author_sig)) {
    return reject();
  }
  // 3. Batch binds to the header.
  Digest batch_digest = proof.batch->ComputeDigest();
  bool referenced = false;
  for (const BatchRef& ref : proof.header->batches) {
    if (ref.digest == batch_digest) {
      referenced = true;
      break;
    }
  }
  if (!referenced) {
    return reject();
  }
  // 4. The transaction is inside the batch.
  if (proof.tx_index >= proof.batch->txs().size()) {
    return reject();
  }
  ++verified_;
  const Batch::TxView tx = proof.batch->txs()[proof.tx_index];
  return Bytes(tx.begin(), tx.end());
}

std::optional<InclusionProof> BuildInclusionProof(const Primary& primary, const Worker& worker,
                                                  const Bytes& tx) {
  const Dag& dag = primary.dag();
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    for (const auto& [author, cert] : dag.CertsAt(round)) {
      std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest);
      if (header == nullptr) {
        continue;  // Certified, but the header is not (yet) stored.
      }
      for (const BatchRef& ref : header->batches) {
        std::shared_ptr<const Batch> batch = worker.GetBatch(ref.digest);
        if (batch == nullptr) {
          continue;  // Data lives on another worker (§8.4).
        }
        for (size_t i = 0; i < batch->txs().size(); ++i) {
          if (std::ranges::equal(batch->txs()[i], tx)) {
            InclusionProof proof;
            proof.certificate = *cert;
            proof.header = header;
            proof.batch = batch;
            proof.tx_index = static_cast<uint32_t>(i);
            return proof;
          }
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace nt
