#include "e2e/tpcw_client.h"

#include <algorithm>

namespace perfbench {

using mtdb::Status;
using mtdb::Value;
using mtdb::workload::Interaction;

namespace {

// The subject vocabulary of the loaded item table (src/workload/tpcw.cc).
const char* const kSubjects[] = {
    "ARTS",        "BIOGRAPHIES", "BUSINESS",       "CHILDREN",
    "COMPUTERS",   "COOKING",     "HEALTH",         "HISTORY",
    "HOME",        "HUMOR",       "LITERATURE",     "MYSTERY",
    "NON-FICTION", "PARENTING",   "POLITICS",       "REFERENCE",
    "RELIGION",    "ROMANCE",     "SELF-HELP",      "SCIENCE-NATURE",
    "SCIENCE-FICTION", "SPORTS",  "YOUTH",          "TRAVEL"};
constexpr uint64_t kNumSubjects = sizeof(kSubjects) / sizeof(kSubjects[0]);

constexpr uint64_t kOrderIdSpace = 1'000'000'000;
// Odd and not a multiple of 5, hence coprime with 10^9: multiplying by it
// permutes [0, 10^9).
constexpr uint64_t kOrderIdScatter = 738'197'383;

}  // namespace

int64_t NextOrderId(Tenant* tenant) {
  const uint64_t seq = (tenant->order_offset + tenant->order_seq++) %
                       kOrderIdSpace;
  const auto scattered = static_cast<int64_t>(
      static_cast<unsigned __int128>(seq) * kOrderIdScatter % kOrderIdSpace);
  return 1'000'000 + scattered;
}

TpcwClient::TpcwClient(mtdb::ClusterController* controller, Tracer* tracer,
                       int slot, mtdb::workload::TpcwScale scale,
                       uint64_t seed)
    : controller_(controller),
      tracer_(tracer),
      slot_(slot),
      scale_(scale),
      rng_(seed) {}

std::unique_ptr<mtdb::Connection> TpcwClient::Connect(const std::string& db) {
  ScopedCall span(tracer_, slot_, CallKind::kConnect);
  return controller_->Connect(db);
}

void TpcwClient::Disconnect(std::unique_ptr<mtdb::Connection> conn) {
  ScopedCall span(tracer_, slot_, CallKind::kDisconnect);
  conn.reset();
}

mtdb::Result<mtdb::workload::TpcwStatements> TpcwClient::Prepare(
    mtdb::Connection* conn) {
  ScopedCall span(tracer_, slot_, CallKind::kPrepare);
  return mtdb::workload::PrepareTpcwStatements(conn);
}

mtdb::Result<mtdb::sql::QueryResult> TpcwClient::Exec(mtdb::Connection* conn,
                                                      const Stmt& stmt,
                                                      const Params& params) {
  ScopedCall span(tracer_, slot_, CallKind::kExecute);
  return conn->ExecutePrepared(stmt, params);
}

mtdb::Result<mtdb::sql::QueryResult> TpcwClient::ExecExpect(
    mtdb::Connection* conn, const Stmt& stmt, const Params& params,
    int64_t min, int64_t max) {
  auto result = Exec(conn, stmt, params);
  if (result.ok()) {
    const int64_t n = stmt->is_read()
                          ? static_cast<int64_t>(result->rows.size())
                          : result->affected_rows;
    if (n < min || n > max) wrong_result_ = true;
  }
  return result;
}

int64_t TpcwClient::Customer() {
  return static_cast<int64_t>(rng_.Uniform(scale_.customers));
}

int64_t TpcwClient::Item() {
  return static_cast<int64_t>(rng_.Uniform(scale_.items));
}

std::string TpcwClient::Subject() {
  return kSubjects[rng_.Uniform(kNumSubjects)];
}

Outcome TpcwClient::Run(mtdb::Connection* conn,
                        const mtdb::workload::TpcwStatements& stmts,
                        Tenant* tenant, Interaction interaction) {
  Outcome outcome;
  outcome.write = mtdb::workload::IsWriteInteraction(interaction);
  wrong_result_ = false;
  {
    ScopedCall span(tracer_, slot_, CallKind::kBegin);
    outcome.status = conn->Begin();
  }
  if (!outcome.status.ok()) return outcome;
  outcome.txn_id = conn->current_txn_id();
  Status status = Body(conn, stmts, tenant, interaction);
  if (status.ok()) {
    ScopedCall span(tracer_, slot_, CallKind::kCommit);
    status = conn->Commit();
  } else if (conn->in_transaction()) {
    ScopedCall span(tracer_, slot_, CallKind::kAbort);
    (void)conn->Abort();
  }
  if (status.ok() && interaction == Interaction::kBuyConfirm) {
    ++tenant->buys_committed;
  }
  outcome.status = status;
  outcome.wrong_result = wrong_result_;
  return outcome;
}

Status TpcwClient::Body(mtdb::Connection* conn,
                        const mtdb::workload::TpcwStatements& s,
                        Tenant* tenant, Interaction interaction) {
  switch (interaction) {
    case Interaction::kHome: {
      MTDB_RETURN_IF_ERROR(
          ExecExpect(conn, s.home_customer, {Value(Customer())}, 1, 1)
              .status());
      for (int i = 0; i < 5; ++i) {
        MTDB_RETURN_IF_ERROR(
            ExecExpect(conn, s.home_item, {Value(Item())}, 1, 1).status());
      }
      return Status::OK();
    }
    case Interaction::kNewProducts:
      return ExecExpect(conn, s.new_products, {Value(Subject())}, 0, 20)
          .status();
    case Interaction::kBestSellers: {
      // The bounded order-line window of tpcw.cc's BestSellers; the loaded
      // orders always put some lines in it.
      const int64_t window = std::max<int64_t>(scale_.initial_orders * 3, 150);
      return ExecExpect(conn, s.best_sellers, {Value(window)}, 1, 10)
          .status();
    }
    case Interaction::kProductDetail:
      return ExecExpect(conn, s.product_detail, {Value(Item())}, 1, 1)
          .status();
    case Interaction::kSearchBySubject:
      return ExecExpect(conn, s.search_subject, {Value(Subject())}, 0, 50)
          .status();
    case Interaction::kSearchByTitle: {
      std::string prefix =
          std::string("title_") + static_cast<char>('a' + rng_.Uniform(26));
      return ExecExpect(conn, s.search_title, {Value(prefix + "%")}, 0, 50)
          .status();
    }
    case Interaction::kShoppingCartAdd: {
      const auto cart =
          static_cast<int64_t>(rng_.Uniform(scale_.customers * 4));
      auto existing = ExecExpect(conn, s.cart_get, {Value(cart)}, 0, 1);
      MTDB_RETURN_IF_ERROR(existing.status());
      if (existing->rows.empty()) {
        MTDB_RETURN_IF_ERROR(
            ExecExpect(conn, s.cart_insert, {Value(cart)}, 1, 1).status());
      }
      const int64_t item = Item();
      const int64_t line = cart * 100 + static_cast<int64_t>(rng_.Uniform(100));
      auto line_row = ExecExpect(conn, s.cart_line_get, {Value(line)}, 0, 1);
      MTDB_RETURN_IF_ERROR(line_row.status());
      if (line_row->rows.empty()) {
        return ExecExpect(conn, s.cart_line_insert,
                          {Value(line), Value(cart), Value(item)}, 1, 1)
            .status();
      }
      return ExecExpect(conn, s.cart_line_update, {Value(line)}, 1, 1)
          .status();
    }
    case Interaction::kBuyConfirm: {
      const int64_t customer = Customer();
      const int64_t order_id = NextOrderId(tenant);
      const auto lines = 1 + static_cast<int64_t>(rng_.Uniform(3));
      double total = 0;
      for (int64_t l = 0; l < lines; ++l) {
        const int64_t item = Item();
        auto stock = ExecExpect(conn, s.buy_stock, {Value(item)}, 1, 1);
        MTDB_RETURN_IF_ERROR(stock.status());
        if (stock->rows.empty()) continue;
        const auto qty = 1 + static_cast<int64_t>(rng_.Uniform(3));
        total += stock->at(0, 1).AsDouble() * static_cast<double>(qty);
        MTDB_RETURN_IF_ERROR(ExecExpect(conn, s.buy_update_item,
                                        {Value(qty), Value(qty), Value(item)},
                                        1, 1)
                                 .status());
        MTDB_RETURN_IF_ERROR(
            ExecExpect(conn, s.buy_insert_line,
                       {Value(order_id * 10 + l), Value(order_id),
                        Value(item), Value(qty)},
                       1, 1)
                .status());
      }
      MTDB_RETURN_IF_ERROR(
          ExecExpect(conn, s.buy_insert_order,
                     {Value(order_id), Value(customer), Value(total)}, 1, 1)
              .status());
      MTDB_RETURN_IF_ERROR(ExecExpect(conn, s.buy_insert_cc,
                                      {Value(order_id), Value(total)}, 1, 1)
                               .status());
      return ExecExpect(conn, s.buy_update_customer,
                        {Value(total), Value(total), Value(customer)}, 1, 1)
          .status();
    }
    case Interaction::kOrderInquiry: {
      auto order = ExecExpect(conn, s.order_last, {Value(Customer())}, 0, 1);
      MTDB_RETURN_IF_ERROR(order.status());
      if (order->rows.empty()) return Status::OK();
      return ExecExpect(conn, s.order_lines, {order->at(0, 0)}, 1, 4)
          .status();
    }
    case Interaction::kAdminUpdate:
      return ExecExpect(conn, s.admin_update, {Value(Item())}, 1, 1)
          .status();
  }
  return Status::OK();
}

}  // namespace perfbench
