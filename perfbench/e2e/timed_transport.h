#ifndef PERFBENCH_E2E_TIMED_TRANSPORT_H_
#define PERFBENCH_E2E_TIMED_TRANSPORT_H_

#include <memory>
#include <string>

#include "e2e/tracer.h"
#include "src/net/transport.h"

namespace perfbench {

// A net::Transport decorator that times every Channel::Call of the
// transport it wraps. Handed to the cluster through
// ClusterControllerOptions::transport, so it sees exactly the RPCs the
// controller issues. While the tracer is enabled, a call issued from a
// thread bound to a client slot records an RpcSpan (type, txn_id, round
// trip, the reply's server_duration_us); otherwise the call goes straight
// through. Replies are handed on unchanged either way.
class TimedTransport : public mtdb::net::Transport {
 public:
  // `inner` and `tracer` must outlive this transport and its channels.
  TimedTransport(mtdb::net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::unique_ptr<mtdb::net::Channel> OpenChannel(int machine_id) override;
  void AttachLocal(int machine_id,
                   mtdb::net::MachineService* service) override {
    inner_->AttachLocal(machine_id, service);
  }
  std::string name() const override { return "timed+" + inner_->name(); }

 private:
  mtdb::net::Transport* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_E2E_TIMED_TRANSPORT_H_
