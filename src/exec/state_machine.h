// Deterministic execution engine over the committed transaction stream —
// the "SMR execution" stage of the paper's Figure 3. The paper defers an
// efficient execution engine to future work (§8.4); this module provides a
// correct one: a replicated key-value + token-ledger state machine whose
// state digest must agree across validators, demonstrating that the totally
// ordered, available output of Narwhal+consensus is executable.
#ifndef SRC_EXEC_STATE_MACHINE_H_
#define SRC_EXEC_STATE_MACHINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/codec.h"
#include "src/crypto/hash.h"

namespace nt {

// Wire format of an executable transaction.
struct ExecTx {
  enum class Op : uint8_t {
    kPut = 0,       // key := value
    kDelete = 1,    // erase key
    kMint = 2,      // account += amount (faucet)
    kTransfer = 3,  // from -> to, amount
    kNoop = 4,      // padding / load-generation filler
  };

  Op op = Op::kNoop;
  std::string key;     // kPut/kDelete key, kMint/kTransfer `from` account.
  std::string key2;    // kTransfer `to` account.
  Bytes value;         // kPut payload.
  uint64_t amount = 0; // kMint/kTransfer.

  Bytes Encode() const;
  static std::optional<ExecTx> Decode(const Bytes& wire);

  static ExecTx Put(std::string key, Bytes value);
  static ExecTx Delete(std::string key);
  static ExecTx Mint(std::string account, uint64_t amount);
  static ExecTx Transfer(std::string from, std::string to, uint64_t amount);
  static ExecTx Noop(size_t padding);
};

// Outcome of applying one transaction.
enum class ExecStatus : uint8_t {
  kApplied,
  kRejectedMalformed,     // Undecodable wire bytes.
  kRejectedInsufficient,  // Transfer without funds.
};

// How a transaction touched this state machine. Single-lane execution always
// applies whole transactions; the sharded executor (src/shard/) splits a
// cross-shard transfer into a lock (debit at the source lane) and a credit
// (at the destination lane), and the phase is folded into the digest chain so
// a lane that saw a lock can never agree with one that saw a whole apply.
enum class ExecPhase : uint8_t {
  kWhole = 0,
  kLock = 1,    // Cross-shard phase 1: funds check + debit of `key`.
  kCredit = 2,  // Cross-shard phase 2: credit of `key2`.
};

// The replicated state machine. Deterministic: identical transaction
// sequences yield identical state digests on every replica.
class KvStateMachine {
 public:
  ExecStatus Apply(const Bytes& wire_tx);
  // As Apply(wire_tx) for a caller that has already decoded it: `tx` must be
  // the decoded form of `wire_tx`. The digest chain is the same either way.
  ExecStatus Apply(const Bytes& wire_tx, const ExecTx& tx);

  // Two-phase cross-shard transfer, driven by the sharded executor with this
  // machine acting as one lane. `tx` must be the decoded form of `wire_tx`.
  //
  // Phase 1 at the source lane: checks funds and debits `tx.key`. Counts the
  // whole transaction (applied or rejected) at this lane.
  ExecStatus LockDebit(const Bytes& wire_tx, const ExecTx& tx);
  // Phase 2 at the destination lane: credits `tx.key2`. Only called after a
  // successful lock, so it cannot fail; counts nothing (the source lane
  // already accounted for the transaction).
  void ApplyCredit(const Bytes& wire_tx, const ExecTx& tx);

  // Chained digest over every applied transaction *and* its effect — two
  // replicas agree on it iff they executed the same sequence with the same
  // outcomes.
  const Digest& state_digest() const { return state_digest_; }

  std::optional<Bytes> Get(const std::string& key) const;
  uint64_t BalanceOf(const std::string& account) const;

  uint64_t applied() const { return applied_; }
  uint64_t rejected() const { return rejected_; }
  size_t keys() const { return kv_.size(); }
  size_t accounts() const { return balances_.size(); }

  // Conservation accounting: token supply created by kMint on this machine,
  // and the sum of all account balances. On a single machine the two are
  // always equal (transfers conserve, rejects move nothing); across sharded
  // lanes their sums must agree — the DST conservation invariant.
  uint64_t minted() const { return minted_; }
  uint64_t total_balance() const;

  // Full-state digest (order-independent recomputation over the maps);
  // used by audits and snapshot tests.
  Digest ComputeSnapshotDigest() const;

 private:
  void Advance(const Bytes& wire_tx, ExecStatus status, ExecPhase phase);

  std::map<std::string, Bytes> kv_;
  std::map<std::string, uint64_t> balances_;
  Digest state_digest_{};
  uint64_t applied_ = 0;
  uint64_t rejected_ = 0;
  uint64_t minted_ = 0;
};

}  // namespace nt

#endif  // SRC_EXEC_STATE_MACHINE_H_
