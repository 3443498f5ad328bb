#ifndef PERFBENCH_E2E_TPCW_CLIENT_H_
#define PERFBENCH_E2E_TPCW_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2e/tracer.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/random.h"
#include "src/workload/tpcw.h"

namespace perfbench {

// Per-tenant client state. Each tenant is owned by exactly one client
// thread, so nothing here is shared.
struct Tenant {
  std::string db;
  // BuyConfirm order ids come from a per-tenant sequence scattered over
  // 10^9 values (see NextOrderId), so no two orders of a run share a key.
  uint64_t order_offset = 0;
  uint64_t order_seq = 0;
  int64_t buys_committed = 0;
};

struct Outcome {
  mtdb::Status status;
  bool write = false;
  // A statement returned a result the data set rules out (a point lookup
  // of a loaded key that found no row, a key update that touched no row).
  bool wrong_result = false;
  uint64_t txn_id = 0;  // Connection::current_txn_id() of the transaction
};

// Drives TPC-W interactions through the public Connection API, timing each
// call into the cluster layer (Connect, ~Connection, Prepare, Begin,
// ExecutePrepared, Commit, Abort) as a span when the tracer is enabled.
// The interactions are those of src/workload/tpcw.cc, executed statement by
// statement here so that every call can be timed from outside, with result
// checks added and BuyConfirm order ids drawn without repetition.
// One instance per client thread.
class TpcwClient {
 public:
  TpcwClient(mtdb::ClusterController* controller, Tracer* tracer, int slot,
             mtdb::workload::TpcwScale scale, uint64_t seed);

  std::unique_ptr<mtdb::Connection> Connect(const std::string& db);
  void Disconnect(std::unique_ptr<mtdb::Connection> conn);
  mtdb::Result<mtdb::workload::TpcwStatements> Prepare(mtdb::Connection* conn);

  // Runs `interaction` as one transaction on `conn`; a failed transaction
  // is rolled back before returning.
  Outcome Run(mtdb::Connection* conn,
              const mtdb::workload::TpcwStatements& stmts, Tenant* tenant,
              mtdb::workload::Interaction interaction);

  mtdb::Random* rng() { return &rng_; }

 private:
  using Stmt = std::shared_ptr<mtdb::PreparedStatement>;
  using Params = std::vector<mtdb::Value>;

  mtdb::Result<mtdb::sql::QueryResult> Exec(mtdb::Connection* conn,
                                            const Stmt& stmt,
                                            const Params& params);
  // Exec, then flags a wrong result unless the row count (for queries) or
  // affected-row count (for DML) lies in [min, max].
  mtdb::Result<mtdb::sql::QueryResult> ExecExpect(mtdb::Connection* conn,
                                                  const Stmt& stmt,
                                                  const Params& params,
                                                  int64_t min, int64_t max);
  mtdb::Status Body(mtdb::Connection* conn,
                    const mtdb::workload::TpcwStatements& s, Tenant* tenant,
                    mtdb::workload::Interaction interaction);
  int64_t Customer();
  int64_t Item();
  std::string Subject();

  mtdb::ClusterController* controller_;
  Tracer* tracer_;
  int slot_;
  mtdb::workload::TpcwScale scale_;
  mtdb::Random rng_;
  bool wrong_result_ = false;
};

// The order id of a tenant's `seq`-th BuyConfirm: an injective scatter of
// the sequence over [10^6, 10^6 + 10^9), so order keys land all over the key
// space (as tpcw.cc's random draw does) but never repeat within 10^9 orders.
int64_t NextOrderId(Tenant* tenant);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_TPCW_CLIENT_H_
