#ifndef PERFBENCH_E2E_GATE_H_
#define PERFBENCH_E2E_GATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/storage/dump.h"
#include "src/storage/engine.h"

namespace perfbench {

// Outcome of the post-run correctness gate.
struct GateReport {
  std::vector<std::string> mismatches;  // empty = passed
  // Rows per (tenant, table) on the tenant's first replica.
  std::map<std::string, std::map<std::string, size_t>> row_counts;
  int64_t dumps_compared = 0;
  bool ok() const { return mismatches.empty(); }
};

// Tables of one database as comparable contents: table name -> rows sorted
// by value. Row versions are left out: they are engine-local bookkeeping.
using Contents = std::map<std::string, std::vector<mtdb::Row>>;

// Dumps `db` on `engine` under a coarse read lock, as the copy tool does.
// `dump_txn_id` must be fresh on that engine.
mtdb::Result<Contents> DumpContents(mtdb::Engine* engine,
                                    const std::string& db,
                                    uint64_t dump_txn_id);

// Appends a line to `mismatches` for every table whose rows differ between
// `a` and `b`.
void CompareContents(const std::string& what, const Contents& a,
                     const Contents& b, std::vector<std::string>* mismatches);

// Replays the WAL at `wal_path` into a fresh engine and compares every
// database in it with `live`. Differences are appended to `mismatches`;
// `dumps` counts the databases compared.
mtdb::Status CheckWalReplay(mtdb::Engine* live, const std::string& wal_path,
                            const std::string& machine_name,
                            std::vector<std::string>* mismatches,
                            int64_t* dumps);

// The full gate, run with no client transaction in flight:
//  1. every replica of every tenant holds the same table contents;
//  2. each machine's WAL, replayed into a fresh engine, equals that
//     machine's live engine.
// `wal_paths[m]` is machine m's log.
GateReport RunGate(mtdb::ClusterController* controller,
                   const std::vector<std::string>& tenants,
                   const std::vector<std::string>& wal_paths);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_GATE_H_
