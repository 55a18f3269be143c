// Deterministic execution engine over the committed transaction stream —
// the "SMR execution" stage of the paper's Figure 3. The paper defers an
// efficient execution engine to future work (§8.4); this module provides a
// correct one: a replicated key-value + token-ledger state machine whose
// state digest must agree across validators, demonstrating that the totally
// ordered, available output of Narwhal+consensus is executable.
#ifndef SRC_EXEC_STATE_MACHINE_H_
#define SRC_EXEC_STATE_MACHINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/codec.h"
#include "src/crypto/digest_table.h"
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

  // A decoded transaction: the fields of ExecTx, with `key`, `key2` and
  // `value` borrowed from the wire bytes it was decoded from. Valid only as
  // long as those bytes are.
  struct View {
    Op op = Op::kNoop;
    std::string_view key;
    std::string_view key2;
    std::span<const uint8_t> value;
    uint64_t amount = 0;
  };

  Bytes Encode() const;
  // The one decoder. It copies nothing, so a temporary `wire` would leave the
  // view dangling: that overload is deleted.
  static std::optional<View> Decode(std::span<const uint8_t> wire);
  static std::optional<View> Decode(Bytes&& wire) = delete;
  // The bytes of Transfer(from, to, amount) with `nonce` as its 8-byte
  // little-endian value, Encode()d: written straight into one exact-size
  // buffer, with no ExecTx in between (the load generator's hot path).
  static Bytes EncodeTransfer(std::string_view from, std::string_view to, uint64_t amount,
                              uint64_t nonce);

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
// (at the destination lane). Every record of the state digest ends with its
// phase byte, so a lane that saw a lock can never agree with one that saw a
// whole apply.
enum class ExecPhase : uint8_t {
  kWhole = 0,
  kLock = 1,    // Cross-shard phase 1: funds check + debit of `key`.
  kCredit = 2,  // Cross-shard phase 2: credit of `key2`.
};

// The replicated state machine. Deterministic: identical transaction
// sequences yield identical state digests on every replica.
class KvStateMachine {
 public:
  ExecStatus Apply(std::span<const uint8_t> wire_tx);
  // As Apply(wire_tx) for a caller that has already decoded it: `tx` must be
  // the decoded form of `wire_tx`. The state digest is the same either way.
  ExecStatus Apply(std::span<const uint8_t> wire_tx, const ExecTx::View& tx);

  // Two-phase cross-shard transfer, driven by the sharded executor with this
  // machine acting as one lane. `tx` must be the decoded form of `wire_tx`.
  //
  // Phase 1 at the source lane: checks funds and debits `tx.key`. Counts the
  // whole transaction (applied or rejected) at this lane.
  ExecStatus LockDebit(std::span<const uint8_t> wire_tx, const ExecTx::View& tx);
  // Phase 2 at the destination lane: credits `tx.key2`. Only called after a
  // successful lock, so it cannot fail; counts nothing (the source lane
  // already accounted for the transaction).
  void ApplyCredit(std::span<const uint8_t> wire_tx, const ExecTx::View& tx);

  // SHA-256 over the lane's whole record stream: one framed record per
  // transaction, `u32 len || wire || status || phase`. Two replicas agree on
  // it iff they executed the same sequence with the same outcomes and
  // phases; the length prefix keeps the stream injective. The stream is
  // hashed as it grows, so a transaction costs about one compression; a read
  // finalizes a copy of the running context and never changes later digests.
  Digest state_digest() const;

  std::optional<Bytes> Get(std::string_view key) const;
  uint64_t BalanceOf(std::string_view account) const;

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

  // Full-state digest over both books in ascending key order, so it depends
  // only on their contents, never on insertion history; used by audits and
  // snapshot tests.
  Digest ComputeSnapshotDigest() const;

 private:
  // Counts the outcome, then appends the record.
  void Advance(std::span<const uint8_t> wire_tx, ExecStatus status, ExecPhase phase);
  void AppendRecord(std::span<const uint8_t> wire_tx, ExecStatus status, ExecPhase phase);

  FlatTable<std::string, Bytes, StringHash> kv_;
  FlatTable<std::string, uint64_t, StringHash> balances_;
  Sha256 records_;  // Running hash of the record stream.
  uint64_t applied_ = 0;
  uint64_t rejected_ = 0;
  uint64_t minted_ = 0;
};

}  // namespace nt

#endif  // SRC_EXEC_STATE_MACHINE_H_
