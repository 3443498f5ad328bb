#include "e2e/gate.h"

#include <algorithm>
#include <atomic>

#include "src/storage/wal/wal.h"

namespace perfbench {

namespace {

// Dump transactions get ids far above anything the controller mints.
uint64_t NextDumpTxnId() {
  static std::atomic<uint64_t> next{uint64_t{1} << 62};
  return next.fetch_add(1);
}

bool RowLess(const mtdb::Row& a, const mtdb::Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

mtdb::Result<Contents> DumpContents(mtdb::Engine* engine,
                                    const std::string& db,
                                    uint64_t dump_txn_id) {
  MTDB_ASSIGN_OR_RETURN(mtdb::DatabaseDump dump,
                        mtdb::DumpDatabaseCoarse(engine, db, dump_txn_id));
  Contents contents;
  for (mtdb::TableDump& table : dump.tables) {
    std::vector<mtdb::Row>& rows = contents[table.schema.name()];
    rows.reserve(table.rows.size());
    for (auto& [row, version] : table.rows) rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end(), RowLess);
  }
  return contents;
}

void CompareContents(const std::string& what, const Contents& a,
                     const Contents& b, std::vector<std::string>* mismatches) {
  for (const auto& [table, rows] : a) {
    auto it = b.find(table);
    if (it == b.end()) {
      mismatches->push_back(what + ": table " + table + " missing");
    } else if (it->second != rows) {
      mismatches->push_back(what + ": table " + table + " differs (" +
                            std::to_string(rows.size()) + " vs " +
                            std::to_string(it->second.size()) + " rows)");
    }
  }
  for (const auto& [table, rows] : b) {
    if (a.count(table) == 0) {
      mismatches->push_back(what + ": extra table " + table);
    }
  }
}

mtdb::Status CheckWalReplay(mtdb::Engine* live, const std::string& wal_path,
                            const std::string& machine_name,
                            std::vector<std::string>* mismatches,
                            int64_t* dumps) {
  if (live->wal() != nullptr) MTDB_RETURN_IF_ERROR(live->wal()->Sync());
  mtdb::EngineOptions options;
  options.invariant_checks = false;
  mtdb::Engine replay(machine_name + "-replay", options);
  MTDB_RETURN_IF_ERROR(mtdb::WriteAheadLog::Recover(wal_path, &replay));
  std::vector<std::string> live_dbs = live->DatabaseNames();
  std::vector<std::string> replay_dbs = replay.DatabaseNames();
  std::sort(live_dbs.begin(), live_dbs.end());
  std::sort(replay_dbs.begin(), replay_dbs.end());
  if (live_dbs != replay_dbs) {
    mismatches->push_back(machine_name + ": WAL replay holds " +
                          std::to_string(replay_dbs.size()) +
                          " databases, live engine " +
                          std::to_string(live_dbs.size()));
  }
  for (const std::string& db : live_dbs) {
    if (!replay.HasDatabase(db)) continue;
    MTDB_ASSIGN_OR_RETURN(Contents want,
                          DumpContents(live, db, NextDumpTxnId()));
    MTDB_ASSIGN_OR_RETURN(Contents got,
                          DumpContents(&replay, db, NextDumpTxnId()));
    CompareContents(machine_name + " WAL replay of " + db, want, got,
                    mismatches);
    ++*dumps;
  }
  return mtdb::Status::OK();
}

GateReport RunGate(mtdb::ClusterController* controller,
                   const std::vector<std::string>& tenants,
                   const std::vector<std::string>& wal_paths) {
  GateReport report;
  auto fail = [&report](const std::string& what, const mtdb::Status& status) {
    report.mismatches.push_back(what + ": " + status.ToString());
  };
  for (const std::string& db : tenants) {
    const std::vector<int> replicas = controller->ReplicasOf(db);
    if (replicas.empty()) {
      report.mismatches.push_back(db + ": no replicas");
      continue;
    }
    Contents first;
    for (size_t i = 0; i < replicas.size(); ++i) {
      const int m = replicas[i];
      auto contents = DumpContents(controller->machine(m)->engine().get(), db,
                                   NextDumpTxnId());
      ++report.dumps_compared;
      if (!contents.ok()) {
        fail(db + " on machine " + std::to_string(m), contents.status());
        continue;
      }
      if (i == 0) {
        first = std::move(*contents);
        for (const auto& [table, rows] : first) {
          report.row_counts[db][table] = rows.size();
        }
      } else {
        CompareContents(db + " replica " + std::to_string(replicas[0]) +
                            " vs " + std::to_string(m),
                        first, *contents, &report.mismatches);
      }
    }
  }
  for (size_t m = 0; m < wal_paths.size(); ++m) {
    const std::string name = "machine " + std::to_string(m);
    mtdb::Status status = CheckWalReplay(
        controller->machine(static_cast<int>(m))->engine().get(), wal_paths[m],
        name, &report.mismatches, &report.dumps_compared);
    if (!status.ok()) fail(name + " WAL replay", status);
  }
  return report;
}

}  // namespace perfbench
