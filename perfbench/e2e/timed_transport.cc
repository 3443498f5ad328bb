#include "e2e/timed_transport.h"

#include <utility>

namespace perfbench {

namespace {

class TimedChannel : public mtdb::net::Channel {
 public:
  TimedChannel(std::unique_ptr<mtdb::net::Channel> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Call(const mtdb::net::RpcRequest& request,
            mtdb::net::ResponseHandler handler) override {
    const int slot = Tracer::ThreadSlot();
    if (slot < 0 || !tracer_->enabled()) {
      inner_->Call(request, std::move(handler));
      return;
    }
    RpcSpan span{.type = request.type,
                 .txn_id = request.txn_id,
                 .start_ns = NowNs()};
    inner_->Call(request, [tracer = tracer_, slot, span,
                           handler = std::move(handler)](
                              mtdb::net::RpcResponse response) mutable {
      span.end_ns = NowNs();
      span.server_us = response.server_duration_us;
      tracer->RecordRpc(slot, span);
      handler(std::move(response));
    });
  }

 private:
  std::unique_ptr<mtdb::net::Channel> inner_;
  Tracer* tracer_;
};

}  // namespace

std::unique_ptr<mtdb::net::Channel> TimedTransport::OpenChannel(
    int machine_id) {
  return std::make_unique<TimedChannel>(inner_->OpenChannel(machine_id),
                                        tracer_);
}

}  // namespace perfbench
