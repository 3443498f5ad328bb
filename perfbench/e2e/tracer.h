#ifndef PERFBENCH_E2E_TRACER_H_
#define PERFBENCH_E2E_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/message.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The public cluster calls the benchmark times, one span kind each.
enum class CallKind {
  kConnect,     // ClusterController::Connect
  kDisconnect,  // ~Connection (joins the session strands)
  kPrepare,     // the 21 Connection::Prepare calls of one statement set
  kBegin,       // Connection::Begin
  kExecute,     // Connection::ExecutePrepared
  kCommit,      // Connection::Commit
  kAbort,       // Connection::Abort
};
inline constexpr int kNumCallKinds = 7;

// One timed call into the cluster layer, on one client thread.
struct CallSpan {
  CallKind kind = CallKind::kBegin;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One Channel::Call as the transport decorator saw it: from the call to the
// reply reaching the caller's handler. `txn_id` is RpcRequest::txn_id, the
// Connection::current_txn_id() of the transaction that issued it (0 for
// control RPCs such as a PrepareStatement re-mint).
struct RpcSpan {
  mtdb::net::RpcType type = mtdb::net::RpcType::kHealth;
  uint64_t txn_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t server_us = -1;  // RpcResponse::server_duration_us
};

// One whole interaction as the client saw it (Connect..~Connection on
// longtail, Begin..Commit elsewhere). `txn_id` is the transaction's
// Connection::current_txn_id(), which its RPCs carry.
struct TxnSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t txn_id = 0;
};

// In-memory span store, one buffer per client thread. Spans are recorded
// only while tracing is enabled and only for threads bound to a client slot,
// and are analysed after the run. RPC replies arrive on transport threads,
// so every buffer has its own lock; the client thread is its only other
// user, so the lock is uncontended in practice.
class Tracer {
 public:
  explicit Tracer(int clients);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Binds the calling thread to client slot `slot` (-1 unbinds). RPCs issued
  // from a bound thread are attributed to that client.
  static void BindThread(int slot);
  static int ThreadSlot();

  void RecordCall(int slot, const CallSpan& span);
  void RecordRpc(int slot, const RpcSpan& span);
  void RecordTxn(int slot, const TxnSpan& span);

  struct ClientSpans {
    std::vector<CallSpan> calls;
    std::vector<RpcSpan> rpcs;
    std::vector<TxnSpan> txns;
  };
  // Moves every recorded span out, leaving the buffers empty. Call with the
  // clients stopped or tracing disabled and in-flight RPCs drained.
  std::vector<ClientSpans> Take();

 private:
  struct Buffer {
    std::mutex mu;
    ClientSpans spans;
  };
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Times one cluster call on the current client thread: records a CallSpan
// when the tracer is enabled, costs one branch otherwise.
class ScopedCall {
 public:
  ScopedCall(Tracer* tracer, int slot, CallKind kind)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        slot_(slot),
        kind_(kind),
        start_ns_(tracer_ != nullptr ? NowNs() : 0) {}
  ~ScopedCall() {
    if (tracer_ != nullptr) {
      tracer_->RecordCall(slot_, {kind_, start_ns_, NowNs()});
    }
  }

  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  Tracer* tracer_;
  int slot_;
  CallKind kind_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_E2E_TRACER_H_
