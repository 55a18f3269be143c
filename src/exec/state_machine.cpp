#include "src/exec/state_machine.h"

#include <functional>

namespace nt {

// --------------------------------------------------------------------- ExecTx

namespace {

constexpr std::string_view kExecTxTag = "exec-tx";

// The one ExecTx writer: the tag, the op byte, three u32-prefixed fields (key,
// key2, value) and the u64 amount, into one exact-size buffer.
Bytes WriteExecTx(ExecTx::Op op, std::string_view key, std::string_view key2,
                  std::span<const uint8_t> value, uint64_t amount) {
  Writer w(4 + kExecTxTag.size() + 1 + 4 + key.size() + 4 + key2.size() + 4 + value.size() + 8);
  w.PutString(kExecTxTag);
  w.PutU8(static_cast<uint8_t>(op));
  w.PutString(key);
  w.PutString(key2);
  w.PutU32(static_cast<uint32_t>(value.size()));
  w.PutRaw(value.data(), value.size());
  w.PutU64(amount);
  return w.Take();
}

}  // namespace

Bytes ExecTx::Encode() const { return WriteExecTx(op, key, key2, value, amount); }

Bytes ExecTx::EncodeTransfer(std::string_view from, std::string_view to, uint64_t amount,
                             uint64_t nonce) {
  uint8_t nonce_le[sizeof(nonce)];
  for (size_t i = 0; i < sizeof(nonce); ++i) {
    nonce_le[i] = static_cast<uint8_t>(nonce >> (8 * i));
  }
  return WriteExecTx(Op::kTransfer, from, to, nonce_le, amount);
}

std::optional<ExecTx::View> ExecTx::Decode(std::span<const uint8_t> wire) {
  Reader r(wire.data(), wire.size());
  if (r.GetStringView() != kExecTxTag) {
    return std::nullopt;
  }
  View tx;
  uint8_t op = r.GetU8();
  if (op > static_cast<uint8_t>(Op::kNoop)) {
    return std::nullopt;
  }
  tx.op = static_cast<Op>(op);
  tx.key = r.GetStringView();
  tx.key2 = r.GetStringView();
  tx.value = r.GetVarView();
  tx.amount = r.GetU64();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return tx;
}

ExecTx ExecTx::Put(std::string key, Bytes value) {
  ExecTx tx;
  tx.op = Op::kPut;
  tx.key = std::move(key);
  tx.value = std::move(value);
  return tx;
}

ExecTx ExecTx::Delete(std::string key) {
  ExecTx tx;
  tx.op = Op::kDelete;
  tx.key = std::move(key);
  return tx;
}

ExecTx ExecTx::Mint(std::string account, uint64_t amount) {
  ExecTx tx;
  tx.op = Op::kMint;
  tx.key = std::move(account);
  tx.amount = amount;
  return tx;
}

ExecTx ExecTx::Transfer(std::string from, std::string to, uint64_t amount) {
  ExecTx tx;
  tx.op = Op::kTransfer;
  tx.key = std::move(from);
  tx.key2 = std::move(to);
  tx.amount = amount;
  return tx;
}

ExecTx ExecTx::Noop(size_t padding) {
  ExecTx tx;
  tx.op = Op::kNoop;
  tx.value.assign(padding, 0);
  return tx;
}

// ------------------------------------------------------------- KvStateMachine

ExecStatus KvStateMachine::Apply(std::span<const uint8_t> wire_tx) {
  std::optional<ExecTx::View> tx = ExecTx::Decode(wire_tx);
  if (!tx.has_value()) {
    Advance(wire_tx, ExecStatus::kRejectedMalformed, ExecPhase::kWhole);
    return ExecStatus::kRejectedMalformed;
  }
  return Apply(wire_tx, *tx);
}

ExecStatus KvStateMachine::Apply(std::span<const uint8_t> wire_tx, const ExecTx::View& tx) {
  ExecStatus status = ExecStatus::kApplied;
  switch (tx.op) {
    case ExecTx::Op::kPut:
      kv_[tx.key].assign(tx.value.begin(), tx.value.end());
      break;
    case ExecTx::Op::kDelete:
      kv_.erase(tx.key);
      break;
    case ExecTx::Op::kMint:
      balances_[tx.key] += tx.amount;
      minted_ += tx.amount;
      break;
    case ExecTx::Op::kTransfer: {
      uint64_t* from = balances_.find(tx.key);
      if (from == nullptr || *from < tx.amount) {
        status = ExecStatus::kRejectedInsufficient;
      } else {
        *from -= tx.amount;  // Before the credit, which may move the slot.
        balances_[tx.key2] += tx.amount;
      }
      break;
    }
    case ExecTx::Op::kNoop:
      break;
  }
  Advance(wire_tx, status, ExecPhase::kWhole);
  return status;
}

ExecStatus KvStateMachine::LockDebit(std::span<const uint8_t> wire_tx, const ExecTx::View& tx) {
  ExecStatus status = ExecStatus::kApplied;
  uint64_t* from = balances_.find(tx.key);
  if (from == nullptr || *from < tx.amount) {
    status = ExecStatus::kRejectedInsufficient;
  } else {
    *from -= tx.amount;
  }
  Advance(wire_tx, status, ExecPhase::kLock);
  return status;
}

void KvStateMachine::ApplyCredit(std::span<const uint8_t> wire_tx, const ExecTx::View& tx) {
  balances_[tx.key2] += tx.amount;
  AppendRecord(wire_tx, ExecStatus::kApplied, ExecPhase::kCredit);
}

void KvStateMachine::Advance(std::span<const uint8_t> wire_tx, ExecStatus status,
                             ExecPhase phase) {
  if (status == ExecStatus::kApplied) {
    ++applied_;
  } else {
    ++rejected_;
  }
  AppendRecord(wire_tx, status, phase);
}

void KvStateMachine::AppendRecord(std::span<const uint8_t> wire_tx, ExecStatus status,
                                  ExecPhase phase) {
  const uint32_t len = static_cast<uint32_t>(wire_tx.size());
  const uint8_t prefix[4] = {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                             static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24)};
  records_.Update(prefix, sizeof(prefix));
  records_.Update(wire_tx.data(), wire_tx.size());
  const uint8_t trailer[2] = {static_cast<uint8_t>(status), static_cast<uint8_t>(phase)};
  records_.Update(trailer, sizeof(trailer));
}

Digest KvStateMachine::state_digest() const {
  Sha256 snapshot = records_;
  return snapshot.Finalize();
}

std::optional<Bytes> KvStateMachine::Get(std::string_view key) const {
  const Bytes* value = kv_.find(key);
  if (value == nullptr) {
    return std::nullopt;
  }
  return *value;
}

uint64_t KvStateMachine::total_balance() const {
  uint64_t total = 0;
  balances_.ForEachSorted(std::less<std::string>{},
                          [&total](const std::string&, uint64_t balance) { total += balance; });
  return total;
}

uint64_t KvStateMachine::BalanceOf(std::string_view account) const {
  const uint64_t* balance = balances_.find(account);
  return balance == nullptr ? 0 : *balance;
}

Digest KvStateMachine::ComputeSnapshotDigest() const {
  Writer w;
  w.PutString("exec-snapshot");
  w.PutU64(kv_.size());
  kv_.ForEachSorted(std::less<std::string>{}, [&w](const std::string& key, const Bytes& value) {
    w.PutString(key);
    w.PutVar(value);
  });
  w.PutU64(balances_.size());
  balances_.ForEachSorted(std::less<std::string>{},
                          [&w](const std::string& account, uint64_t balance) {
                            w.PutString(account);
                            w.PutU64(balance);
                          });
  return Sha256::Hash(w.bytes());
}

}  // namespace nt
