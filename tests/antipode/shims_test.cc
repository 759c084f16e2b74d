// The Shim API layer: write/read/wait per datastore, lineage propagation
// through stored values, and the ShimRegistry.

#include <gtest/gtest.h>

#include "src/antipode/antipode.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class ShimsTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }
};

// ---- KvShim ----------------------------------------------------------------

TEST_F(ShimsTest, KvWriteReturnsExtendedLineage) {
  KvStore store(KvStore::DefaultOptions("kvs1", kRegions));
  KvShim shim(&store);
  Lineage lineage(1);
  lineage = shim.Write(Region::kUs, "k", "v", std::move(lineage));
  EXPECT_EQ(lineage.Size(), 1u);
  EXPECT_TRUE(lineage.Contains(WriteId{"kvs1", "k", 1}));
}

TEST_F(ShimsTest, KvReadReturnsValueAndWriterLineage) {
  KvStore store(KvStore::DefaultOptions("kvs2", kRegions));
  KvShim shim(&store);
  Lineage writer_lineage(1);
  writer_lineage.Append(WriteId{"otherstore", "dep", 5});
  shim.Write(Region::kUs, "k", "v", writer_lineage);
  auto result = shim.Read(Region::kUs, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "v");
  // The read's lineage contains the writer's dependency set plus the write's
  // own identifier (reads-from-lineage, §4.2).
  EXPECT_TRUE(result->lineage.Contains(WriteId{"otherstore", "dep", 5}));
  EXPECT_TRUE(result->lineage.Contains(WriteId{"kvs2", "k", 1}));
}

TEST_F(ShimsTest, KvReadMissingKey) {
  KvStore store(KvStore::DefaultOptions("kvs3", kRegions));
  KvShim shim(&store);
  auto result = shim.Read(Region::kUs, "nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ShimsTest, KvCtxVariantsFlowThroughContext) {
  KvStore store(KvStore::DefaultOptions("kvs4", kRegions));
  KvShim shim(&store);
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  shim.WriteCtx(Region::kUs, "k", "v");
  EXPECT_TRUE(LineageApi::Current()->Contains(WriteId{"kvs4", "k", 1}));

  // A different request reading the value inherits the writer's lineage.
  ScopedContext reader(RequestContext(2));
  LineageApi::Root();
  auto read = shim.ReadCtx(Region::kUs, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v");
  EXPECT_TRUE(LineageApi::Current()->Contains(WriteId{"kvs4", "k", 1}));
}

TEST_F(ShimsTest, KvWaitBlocksUntilReplicated) {
  auto options = KvStore::DefaultOptions("kvs5", kRegions);
  options.replication.median_millis = 100.0;
  options.replication.sigma = 0.05;
  KvStore store(options);
  KvShim shim(&store);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  const WriteId id{"kvs5", "k", 1};
  EXPECT_FALSE(shim.IsVisible(Region::kEu, id));
  EXPECT_TRUE(shim.Wait(Region::kEu, id, std::chrono::seconds(5)).ok());
  EXPECT_TRUE(shim.IsVisible(Region::kEu, id));
}

TEST_F(ShimsTest, KvWaitTimesOut) {
  auto options = KvStore::DefaultOptions("kvs6", kRegions);
  options.replication.median_millis = 1000000.0;
  KvStore store(options);
  KvShim shim(&store);
  shim.Write(Region::kUs, "k", "v", Lineage(1));
  EXPECT_EQ(shim.Wait(Region::kEu, WriteId{"kvs6", "k", 1}, Millis(30)).code(),
            StatusCode::kDeadlineExceeded);
}

// ---- SqlShim ----------------------------------------------------------------

TEST_F(ShimsTest, SqlShimStripsLineageColumnOnRead) {
  SqlStore store(SqlStore::DefaultOptions("sqls1", kRegions));
  store.CreateTable("posts", {"id", "text"}, "id");
  SqlShim shim(&store);
  ASSERT_TRUE(shim.InstrumentTable("posts").ok());

  Lineage lineage(1);
  lineage.Append(WriteId{"acl", "alice", 2});
  auto updated = shim.Insert(Region::kUs, "posts", Row{{"id", Value("p1")}, {"text", Value("t")}},
                             lineage);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->Contains(WriteId{"sqls1", "posts/p1", 1}));

  auto result = shim.SelectByPk(Region::kUs, "posts", Value("p1"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->row.Has(kLineageField));
  EXPECT_EQ(result->row.Get("text"), Value("t"));
  EXPECT_TRUE(result->lineage.Contains(WriteId{"acl", "alice", 2}));
  EXPECT_TRUE(result->lineage.Contains(WriteId{"sqls1", "posts/p1", 1}));
}

TEST_F(ShimsTest, SqlShimInstrumentAddsIndexOverhead) {
  SqlStore store(SqlStore::DefaultOptions("sqls2", kRegions));
  store.CreateTable("t", {"id"}, "id");
  SqlShim shim(&store);
  shim.InstrumentTable("t", /*with_index=*/true);
  EXPECT_TRUE(store.HasIndex("t", kLineageField));
  shim.Insert(Region::kUs, "t", Row{{"id", Value("1")}}, Lineage(1));
  EXPECT_GT(store.metrics().MeanObjectBytes(), SqlStore::kIndexEntryOverheadBytes / 2);
}

TEST_F(ShimsTest, SqlShimInsertUnknownTableFails) {
  SqlStore store(SqlStore::DefaultOptions("sqls3", kRegions));
  SqlShim shim(&store);
  auto result = shim.Insert(Region::kUs, "ghosts", Row{{"id", Value("1")}}, Lineage(1));
  EXPECT_FALSE(result.ok());
}

// ---- DocShim ----------------------------------------------------------------

TEST_F(ShimsTest, DocShimRoundTripWithLineageField) {
  DocStore store(DocStore::DefaultOptions("docs1", kRegions));
  DocShim shim(&store);
  Lineage lineage(1);
  lineage.Append(WriteId{"upstream", "u", 3});
  lineage = shim.InsertDoc(Region::kUs, "posts", "p1", Document{{"text", Value("hello")}},
                           std::move(lineage));
  EXPECT_TRUE(lineage.Contains(WriteId{"docs1", "posts/p1", 1}));

  auto result = shim.FindById(Region::kUs, "posts", "p1");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->doc.Has(kLineageField));
  EXPECT_TRUE(result->lineage.Contains(WriteId{"upstream", "u", 3}));
  EXPECT_TRUE(result->lineage.Contains(WriteId{"docs1", "posts/p1", 1}));
}

TEST_F(ShimsTest, DocShimCtxTransfersOnRead) {
  DocStore store(DocStore::DefaultOptions("docs2", kRegions));
  DocShim shim(&store);
  {
    ScopedContext writer(RequestContext(1));
    LineageApi::Root();
    shim.InsertDocCtx(Region::kUs, "c", "d", Document{{"a", Value("1")}});
  }
  ScopedContext reader(RequestContext(2));
  LineageApi::Root();
  auto doc = shim.FindByIdCtx(Region::kUs, "c", "d");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(LineageApi::Current()->Contains(WriteId{"docs2", "c/d", 1}));
}

// ---- ObjectShim ---------------------------------------------------------------

TEST_F(ShimsTest, ObjectShimRoundTrip) {
  ObjectStore store(ObjectStore::DefaultOptions("objs1", kRegions));
  ObjectShim shim(&store);
  Lineage lineage = shim.PutObject(Region::kUs, "b", "k", "bytes", Lineage(1));
  EXPECT_TRUE(lineage.Contains(WriteId{"objs1", "b/k", 1}));
  auto result = shim.GetObject(Region::kUs, "b", "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "bytes");
  EXPECT_TRUE(result->lineage.Contains(WriteId{"objs1", "b/k", 1}));
}

// ---- DynamoShim ---------------------------------------------------------------

TEST_F(ShimsTest, DynamoShimWaitUsesStrongReads) {
  auto options = DynamoStore::DefaultOptions("dys1", kRegions);
  options.replication.median_millis = 1000000.0;  // local replica never catches up in test
  DynamoStore store(options);
  DynamoShim shim(&store);
  auto lineage = shim.PutItem(Region::kUs, "t", "k", Document{{"a", Value("1")}}, Lineage(1));
  ASSERT_TRUE(lineage.ok());
  const WriteId id{"dys1", "t/k", 1};
  // Strong-read wait resolves promptly even though the local replica lags…
  EXPECT_TRUE(shim.Wait(Region::kEu, id, std::chrono::seconds(5)).ok());
  // …while the dry-run probe (local view) still reports it as not visible.
  EXPECT_FALSE(shim.IsVisible(Region::kEu, id));
  // And consistent reads then observe the item.
  auto result = shim.GetItemConsistent(Region::kEu, "t", "k");
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(shim.GetItem(Region::kEu, "t", "k").ok());
}

TEST_F(ShimsTest, DynamoShimWaitTimesOutOnMissingItem) {
  DynamoStore store(DynamoStore::DefaultOptions("dys2", kRegions));
  DynamoShim shim(&store);
  EXPECT_EQ(shim.Wait(Region::kUs, WriteId{"dys2", "t/never", 1}, Millis(30)).code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(ShimsTest, DynamoShimStripsLineageField) {
  DynamoStore store(DynamoStore::DefaultOptions("dys3", kRegions));
  DynamoShim shim(&store);
  shim.PutItem(Region::kUs, "t", "k", Document{{"a", Value("1")}}, Lineage(1));
  auto result = shim.GetItem(Region::kUs, "t", "k");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->item.Has(kLineageField));
}

// ---- Queue / PubSub shims -----------------------------------------------------

TEST_F(ShimsTest, QueueShimDeliversLineageToConsumer) {
  QueueStore store(QueueStore::DefaultOptions("qs1", kRegions));
  QueueShim shim(&store);
  ThreadPool pool(1, "consumer");
  std::atomic<bool> got{false};
  Lineage seen;
  std::mutex mu;
  shim.Subscribe(Region::kEu, "q", &pool, [&](const ConsumedMessage& message) {
    std::lock_guard<std::mutex> lock(mu);
    seen = message.lineage;
    // The consumer's context carries the message lineage.
    auto current = LineageApi::Current();
    got = current.has_value() && current->Size() == message.lineage.Size();
  });
  Lineage lineage(1);
  lineage.Append(WriteId{"mongo", "posts/1", 4});
  shim.Publish(Region::kUs, "q", "payload", lineage);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (got.load()) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(got.load());
  EXPECT_TRUE(seen.Contains(WriteId{"mongo", "posts/1", 4}));
  EXPECT_EQ(seen.DepsForStore("qs1").size(), 1u);  // the message's own write id
  pool.Shutdown();
}

TEST_F(ShimsTest, PubSubShimPublishCtxAppendsMessageId) {
  PubSubStore store(PubSubStore::DefaultOptions("pss1", kRegions));
  PubSubShim shim(&store);
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  shim.PublishCtx(Region::kUs, "topic", "m");
  EXPECT_EQ(LineageApi::Current()->DepsForStore("pss1").size(), 1u);
}

// ---- ShimRegistry --------------------------------------------------------------

TEST_F(ShimsTest, RegistryRegisterLookupUnregister) {
  KvStore store(KvStore::DefaultOptions("regs1", kRegions));
  KvShim shim(&store);
  ShimRegistry registry;
  EXPECT_EQ(registry.Lookup("regs1"), nullptr);
  registry.Register(&shim);
  EXPECT_EQ(registry.Lookup("regs1"), &shim);
  EXPECT_EQ(registry.RegisteredStores(), std::vector<std::string>{"regs1"});
  registry.Unregister("regs1");
  EXPECT_EQ(registry.Lookup("regs1"), nullptr);
}

TEST_F(ShimsTest, RegistryOptionsRejectDuplicateRegistration) {
  KvStore store(KvStore::DefaultOptions("regs4", kRegions));
  KvShim first(&store);
  KvShim second(&store);
  ShimRegistry registry(ShimRegistry::Options{.name = "strict", .allow_replace = false});
  EXPECT_TRUE(registry.Register(&first).ok());
  auto replaced = registry.Register(&second);
  EXPECT_EQ(replaced.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Lookup("regs4"), &first);

  // The default (replace-allowed) registry keeps the historical semantics.
  ShimRegistry lax;
  EXPECT_TRUE(lax.Register(&first).ok());
  EXPECT_TRUE(lax.Register(&second).ok());
  EXPECT_EQ(lax.Lookup("regs4"), &second);
}

TEST_F(ShimsTest, RegistryClear) {
  KvStore a(KvStore::DefaultOptions("regs2", kRegions));
  KvStore b(KvStore::DefaultOptions("regs3", kRegions));
  KvShim shim_a(&a);
  KvShim shim_b(&b);
  ShimRegistry registry;
  registry.Register(&shim_a);
  registry.Register(&shim_b);
  EXPECT_EQ(registry.RegisteredStores().size(), 2u);
  registry.Clear();
  EXPECT_TRUE(registry.RegisteredStores().empty());
}

}  // namespace
}  // namespace antipode
