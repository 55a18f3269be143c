// Compile-fail fixture: a Primary-like node that signs a vote without its
// ledger. With NT_DEFECT it signs through verifier(), skipping the vote
// record and its Sync(); a Verifier has no Sign, so this does not compile.
// Without it, the vote goes through SigningLedger::SignVote.
#include "src/narwhal/primary.h"

namespace nt {

class VotingNode {
 public:
  explicit VotingNode(const Signer* signer) : ledger_(signer) {}

  Signature Vote(const Digest& header, Round round, ValidatorId author) {
    const Bytes preimage = Certificate::VotePreimage(header, round, author);
#ifdef NT_DEFECT
    return ledger_.verifier().Sign(preimage);
#else
    return ledger_.SignVote(VoteRecord{round, author, header}, preimage);
#endif
  }

 private:
  SigningLedger ledger_;
};

}  // namespace nt
