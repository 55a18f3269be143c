#include "src/exec/state_machine.h"

namespace nt {

// --------------------------------------------------------------------- ExecTx

Bytes ExecTx::Encode() const {
  Writer w;
  w.PutString("exec-tx");
  w.PutU8(static_cast<uint8_t>(op));
  w.PutString(key);
  w.PutString(key2);
  w.PutVar(value);
  w.PutU64(amount);
  return w.Take();
}

std::optional<ExecTx> ExecTx::Decode(const Bytes& wire) {
  Reader r(wire);
  if (r.GetString() != "exec-tx") {
    return std::nullopt;
  }
  ExecTx tx;
  uint8_t op = r.GetU8();
  if (op > static_cast<uint8_t>(Op::kNoop)) {
    return std::nullopt;
  }
  tx.op = static_cast<Op>(op);
  tx.key = r.GetString();
  tx.key2 = r.GetString();
  tx.value = r.GetVar();
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

ExecStatus KvStateMachine::Apply(const Bytes& wire_tx) {
  std::optional<ExecTx> tx = ExecTx::Decode(wire_tx);
  if (!tx.has_value()) {
    Advance(wire_tx, ExecStatus::kRejectedMalformed, ExecPhase::kWhole);
    return ExecStatus::kRejectedMalformed;
  }
  return Apply(wire_tx, *tx);
}

ExecStatus KvStateMachine::Apply(const Bytes& wire_tx, const ExecTx& tx) {
  ExecStatus status = ExecStatus::kApplied;
  switch (tx.op) {
    case ExecTx::Op::kPut:
      kv_[tx.key] = tx.value;
      break;
    case ExecTx::Op::kDelete:
      kv_.erase(tx.key);
      break;
    case ExecTx::Op::kMint:
      balances_[tx.key] += tx.amount;
      minted_ += tx.amount;
      break;
    case ExecTx::Op::kTransfer: {
      auto from = balances_.find(tx.key);
      if (from == balances_.end() || from->second < tx.amount) {
        status = ExecStatus::kRejectedInsufficient;
      } else {
        from->second -= tx.amount;
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

ExecStatus KvStateMachine::LockDebit(const Bytes& wire_tx, const ExecTx& tx) {
  ExecStatus status = ExecStatus::kApplied;
  auto from = balances_.find(tx.key);
  if (from == balances_.end() || from->second < tx.amount) {
    status = ExecStatus::kRejectedInsufficient;
  } else {
    from->second -= tx.amount;
  }
  Advance(wire_tx, status, ExecPhase::kLock);
  return status;
}

void KvStateMachine::ApplyCredit(const Bytes& wire_tx, const ExecTx& tx) {
  balances_[tx.key2] += tx.amount;
  Sha256 h;
  h.Update(state_digest_.data(), state_digest_.size());
  h.Update(wire_tx);
  uint8_t status_byte = static_cast<uint8_t>(ExecStatus::kApplied);
  h.Update(&status_byte, 1);
  uint8_t phase_byte = static_cast<uint8_t>(ExecPhase::kCredit);
  h.Update(&phase_byte, 1);
  state_digest_ = h.Finalize();
}

void KvStateMachine::Advance(const Bytes& wire_tx, ExecStatus status, ExecPhase phase) {
  if (status == ExecStatus::kApplied) {
    ++applied_;
  } else {
    ++rejected_;
  }
  Sha256 h;
  h.Update(state_digest_.data(), state_digest_.size());
  h.Update(wire_tx);
  uint8_t status_byte = static_cast<uint8_t>(status);
  h.Update(&status_byte, 1);
  if (phase != ExecPhase::kWhole) {
    // The phase byte is appended only for split applies, so single-lane
    // digests stay byte-compatible with the pre-sharding chain.
    uint8_t phase_byte = static_cast<uint8_t>(phase);
    h.Update(&phase_byte, 1);
  }
  state_digest_ = h.Finalize();
}

std::optional<Bytes> KvStateMachine::Get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    return std::nullopt;
  }
  return it->second;
}

uint64_t KvStateMachine::total_balance() const {
  uint64_t total = 0;
  for (const auto& [account, balance] : balances_) {
    total += balance;
  }
  return total;
}

uint64_t KvStateMachine::BalanceOf(const std::string& account) const {
  auto it = balances_.find(account);
  return it == balances_.end() ? 0 : it->second;
}

Digest KvStateMachine::ComputeSnapshotDigest() const {
  Writer w;
  w.PutString("exec-snapshot");
  w.PutU64(kv_.size());
  for (const auto& [key, value] : kv_) {
    w.PutString(key);
    w.PutVar(value);
  }
  w.PutU64(balances_.size());
  for (const auto& [account, balance] : balances_) {
    w.PutString(account);
    w.PutU64(balance);
  }
  return Sha256::Hash(w.bytes());
}

}  // namespace nt
