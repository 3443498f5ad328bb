#include "e2e/tracer.h"

namespace perfbench {

namespace {
thread_local int t_slot = -1;
}  // namespace

Tracer::Tracer(int clients) {
  for (int i = 0; i < clients; ++i) {
    buffers_.push_back(std::make_unique<Buffer>());
  }
}

void Tracer::BindThread(int slot) { t_slot = slot; }

int Tracer::ThreadSlot() { return t_slot; }

void Tracer::RecordCall(int slot, const CallSpan& span) {
  Buffer& buffer = *buffers_[slot];
  std::lock_guard lock(buffer.mu);
  buffer.spans.calls.push_back(span);
}

void Tracer::RecordRpc(int slot, const RpcSpan& span) {
  Buffer& buffer = *buffers_[slot];
  std::lock_guard lock(buffer.mu);
  buffer.spans.rpcs.push_back(span);
}

void Tracer::RecordTxn(int slot, const TxnSpan& span) {
  Buffer& buffer = *buffers_[slot];
  std::lock_guard lock(buffer.mu);
  buffer.spans.txns.push_back(span);
}

std::vector<Tracer::ClientSpans> Tracer::Take() {
  std::vector<ClientSpans> out;
  for (auto& buffer : buffers_) {
    std::lock_guard lock(buffer->mu);
    out.push_back(std::move(buffer->spans));
    buffer->spans = {};
  }
  return out;
}

}  // namespace perfbench
