// Tests for the benchmark's own helpers: exact percentiles, span-union self
// time, the timing transport decorator, and the correctness gate's
// comparisons.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "e2e/gate.h"
#include "e2e/stats.h"
#include "e2e/timed_transport.h"
#include "e2e/tpcw_client.h"
#include "e2e/tracer.h"
#include "src/net/codec.h"
#include "src/storage/engine.h"
#include "src/storage/wal/wal.h"

namespace perfbench {
namespace {

using mtdb::net::RpcRequest;
using mtdb::net::RpcResponse;
using mtdb::net::RpcType;

TEST(PercentileTest, EmptyIsZero) {
  std::vector<int64_t> none;
  EXPECT_EQ(Percentile(none, 50), 0);
}

TEST(PercentileTest, SingleSample) {
  std::vector<int64_t> one = {42};
  EXPECT_EQ(Percentile(one, 0), 42);
  EXPECT_EQ(Percentile(one, 99), 42);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<int64_t> v = {40, 10, 30, 20};  // order must not matter
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);  // rank 1.5
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 17.5);  // rank 0.75
}

TEST(PercentileTest, NoBucketJumps) {
  // 1..1000: the exact p99 is 990.01. A power-of-two histogram would
  // report a bucket edge (1023) instead.
  std::vector<int64_t> v;
  for (int64_t i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_NEAR(Percentile(v, 99), 990.01, 1e-9);
  EXPECT_NEAR(Percentile(v, 50), 500.5, 1e-9);
}

TEST(PercentileTest, DuplicatesAndExtremes) {
  std::vector<int64_t> v = {5, 5, 5, 5, 100};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 62);  // rank 3.6: 5 + 0.6 * 95
}

TEST(SpanUnionTest, DisjointChildren) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {50, 70}}), 70);
}

TEST(SpanUnionTest, OverlappingChildrenCountOnce) {
  // Two replica RPCs in flight at once.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 60}, {20, 50}, {55, 80}}), 30);
}

TEST(SpanUnionTest, ChildrenClippedToParent) {
  EXPECT_EQ(SelfTime({0, 100}, {{-50, 10}, {90, 200}}), 80);
  EXPECT_EQ(SelfTime({0, 100}, {{200, 300}}), 100);
}

TEST(SpanUnionTest, NoChildrenAndFullCover) {
  EXPECT_EQ(SelfTime({5, 25}, {}), 20);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {10, 20}}), 0);
}

TEST(SpanUnionTest, UnionIgnoresEmptyAndAdjacent) {
  EXPECT_EQ(UnionLength({{10, 10}, {0, 5}, {5, 9}}, {0, 100}), 9);
}

// An inner transport whose channels answer every call at once with a fixed
// response.
class CannedTransport : public mtdb::net::Transport {
 public:
  explicit CannedTransport(RpcResponse response)
      : response_(std::move(response)) {}

  std::unique_ptr<mtdb::net::Channel> OpenChannel(int) override {
    return std::make_unique<CannedChannel>(this);
  }
  std::string name() const override { return "canned"; }

  RpcRequest last_request;
  int calls = 0;

 private:
  class CannedChannel : public mtdb::net::Channel {
   public:
    explicit CannedChannel(CannedTransport* owner) : owner_(owner) {}
    void Call(const RpcRequest& request,
              mtdb::net::ResponseHandler handler) override {
      owner_->last_request = request;
      ++owner_->calls;
      handler(owner_->response_);
    }

   private:
    CannedTransport* owner_;
  };

  RpcResponse response_;
};

RpcResponse Canned() {
  RpcResponse r;
  r.code = mtdb::StatusCode::kResourceExhausted;
  r.message = "slow down";
  r.result.columns = {"a", "b"};
  r.result.rows = {{mtdb::Value(int64_t{7}), mtdb::Value("x")}};
  r.result.affected_rows = 3;
  r.txn_ids = {4, 5};
  r.names = {"t"};
  r.stmt_handle = 99;
  r.server_duration_us = 1234;
  r.retry_after_us = 5678;
  r.snapshot_ts = 424242;
  r.wal_lsn = 17;
  return r;
}

std::string Frame(const RpcResponse& r) {
  std::string out;
  mtdb::net::EncodeResponseFrame(r, &out);
  return out;
}

TEST(TimedTransportTest, PassesResponsesThroughUnchanged) {
  const RpcResponse canned = Canned();
  for (bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    CannedTransport inner(canned);
    Tracer tracer(1);
    tracer.SetEnabled(traced);
    TimedTransport timed(&inner, &tracer);
    auto channel = timed.OpenChannel(0);

    RpcRequest request;
    request.type = RpcType::kExecutePrepared;
    request.txn_id = 77;
    request.stmt_handle = 5;
    Tracer::BindThread(0);
    std::optional<RpcResponse> got;
    channel->Call(request, [&got](RpcResponse r) { got = std::move(r); });
    Tracer::BindThread(-1);

    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->server_duration_us, 1234);
    EXPECT_EQ(got->snapshot_ts, 424242u);
    EXPECT_EQ(got->retry_after_us, 5678);
    EXPECT_EQ(Frame(*got), Frame(canned));  // every wire field
    EXPECT_EQ(inner.calls, 1);
    EXPECT_EQ(inner.last_request.txn_id, 77u);
    EXPECT_EQ(inner.last_request.stmt_handle, 5u);

    auto spans = tracer.Take();
    ASSERT_EQ(spans.size(), 1u);
    if (traced) {
      ASSERT_EQ(spans[0].rpcs.size(), 1u);
      const RpcSpan& span = spans[0].rpcs[0];
      EXPECT_EQ(span.type, RpcType::kExecutePrepared);
      EXPECT_EQ(span.txn_id, 77u);
      EXPECT_EQ(span.server_us, 1234);
      EXPECT_LE(span.start_ns, span.end_ns);
    } else {
      EXPECT_TRUE(spans[0].rpcs.empty());
    }
  }
}

TEST(TimedTransportTest, UnboundThreadsAreNotRecorded) {
  CannedTransport inner(Canned());
  Tracer tracer(1);
  tracer.SetEnabled(true);
  TimedTransport timed(&inner, &tracer);
  auto channel = timed.OpenChannel(0);
  bool answered = false;
  channel->Call(RpcRequest{}, [&answered](RpcResponse) { answered = true; });
  EXPECT_TRUE(answered);
  EXPECT_TRUE(tracer.Take()[0].rpcs.empty());
}

TEST(OrderIdTest, NeverRepeats) {
  Tenant tenant{.db = "t", .order_offset = 999'999'990};  // wraps the space
  std::set<int64_t> seen;
  for (int i = 0; i < 100'000; ++i) {
    const int64_t id = NextOrderId(&tenant);
    EXPECT_GE(id, 1'000'000);
    EXPECT_LT(id, 1'001'000'000);
    ASSERT_TRUE(seen.insert(id).second) << "repeat at " << i;
  }
}

// Gate comparisons: two engines with one table each, optionally diverged.
class GateTest : public ::testing::Test {
 protected:
  static void Load(mtdb::Engine* engine, int64_t extra_key) {
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    mtdb::TableSchema schema(
        "kv",
        {{"k", mtdb::ColumnType::kInt64}, {"v", mtdb::ColumnType::kString}}, 0);
    ASSERT_TRUE(engine->CreateTable("db", schema).ok());
    std::vector<mtdb::Row> rows = {{mtdb::Value(int64_t{1}), mtdb::Value("a")},
                                   {mtdb::Value(int64_t{2}), mtdb::Value("b")}};
    if (extra_key > 0) {
      rows.push_back({mtdb::Value(extra_key), mtdb::Value("z")});
    }
    ASSERT_TRUE(engine->BulkInsert("db", "kv", rows).ok());
  }

  void SetUp() override {
    dir_ = std::filesystem::current_path() /
           ("perfbench_gate_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  mtdb::EngineOptions WalOptions(const std::string& file) {
    mtdb::EngineOptions options;
    options.wal_path = (dir_ / file).string();
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(GateTest, IdenticalReplicasMatch) {
  mtdb::Engine a("a"), b("b");
  Load(&a, 0);
  Load(&b, 0);
  auto ca = DumpContents(&a, "db", 1);
  auto cb = DumpContents(&b, "db", 1);
  ASSERT_TRUE(ca.ok() && cb.ok());
  std::vector<std::string> mismatches;
  CompareContents("db", *ca, *cb, &mismatches);
  EXPECT_TRUE(mismatches.empty());
}

TEST_F(GateTest, DivergedReplicaIsReported) {
  mtdb::Engine a("a"), b("b");
  Load(&a, 0);
  Load(&b, 3);
  auto ca = DumpContents(&a, "db", 1);
  auto cb = DumpContents(&b, "db", 1);
  ASSERT_TRUE(ca.ok() && cb.ok());
  std::vector<std::string> mismatches;
  CompareContents("db", *ca, *cb, &mismatches);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("kv"), std::string::npos);
}

TEST_F(GateTest, WalReplayMatchesLiveEngine) {
  mtdb::Engine live("live", WalOptions("live.wal"));
  Load(&live, 0);
  std::vector<std::string> mismatches;
  int64_t dumps = 0;
  ASSERT_TRUE(CheckWalReplay(&live, (dir_ / "live.wal").string(), "m0",
                             &mismatches, &dumps)
                  .ok());
  EXPECT_TRUE(mismatches.empty());
  EXPECT_EQ(dumps, 1);
}

TEST_F(GateTest, WalReplayMismatchIsReported) {
  // Replaying another engine's log stands in for a log that lost a write.
  mtdb::Engine live("live", WalOptions("live.wal"));
  mtdb::Engine other("other", WalOptions("other.wal"));
  Load(&live, 3);
  Load(&other, 0);
  ASSERT_TRUE(other.wal()->Sync().ok());
  std::vector<std::string> mismatches;
  int64_t dumps = 0;
  ASSERT_TRUE(CheckWalReplay(&live, (dir_ / "other.wal").string(), "m0",
                             &mismatches, &dumps)
                  .ok());
  EXPECT_FALSE(mismatches.empty());
}

}  // namespace
}  // namespace perfbench
