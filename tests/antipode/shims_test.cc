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

// ---- *Ctx writes: frame by reference, append in place -------------------------

// One context-bound write of every shim, each against its own store. The
// `*Ctx` contract is shared (LineageApi::AppendWrite), so all seven must
// behave alike.
class CtxWriterBed {
 public:
  struct Writer {
    std::string shim;
    std::function<Status()> write;
    WriteId id;  // the dependency the write appends
  };

  explicit CtxWriterBed(const std::string& tag)
      : kv_(KvStore::DefaultOptions("ctx-kv-" + tag, kRegions)),
        queue_(QueueStore::DefaultOptions("ctx-queue-" + tag, kRegions)),
        pubsub_(PubSubStore::DefaultOptions("ctx-pubsub-" + tag, kRegions)),
        docs_(DocStore::DefaultOptions("ctx-doc-" + tag, kRegions)),
        objects_(ObjectStore::DefaultOptions("ctx-object-" + tag, kRegions)),
        sql_(SqlStore::DefaultOptions("ctx-sql-" + tag, kRegions)),
        dynamo_(DynamoStore::DefaultOptions("ctx-dynamo-" + tag, kRegions)),
        kv_shim_(&kv_),
        queue_shim_(&queue_),
        pubsub_shim_(&pubsub_),
        doc_shim_(&docs_),
        object_shim_(&objects_),
        sql_shim_(&sql_),
        dynamo_shim_(&dynamo_) {
    sql_.CreateTable("posts", {"id", "text"}, "id");
    EXPECT_TRUE(sql_shim_.InstrumentTable("posts", /*with_index=*/false).ok());
  }

  std::vector<Writer> writers() {
    return {
        {"kv", [this] { return kv_shim_.WriteCtx(Region::kUs, "post-key", "v"); },
         kv_shim_.MakeWriteId("post-key", 1)},
        {"queue", [this] { return queue_shim_.PublishCtx(Region::kUs, "jobs", "m"); },
         queue_shim_.MakeWriteId("jobs/1", 1)},
        {"pubsub", [this] { return pubsub_shim_.PublishCtx(Region::kUs, "topic", "m"); },
         pubsub_shim_.MakeWriteId("topic/1", 1)},
        {"doc",
         [this] {
           return doc_shim_.InsertDocCtx(Region::kUs, "posts", "p1", Document{{"a", Value("1")}});
         },
         doc_shim_.MakeWriteId("posts/p1", 1)},
        {"object", [this] { return object_shim_.PutObjectCtx(Region::kUs, "b", "k", "bytes"); },
         object_shim_.MakeWriteId("b/k", 1)},
        {"sql",
         [this] {
           return sql_shim_.InsertCtx(Region::kUs, "posts",
                                      Row{{"id", Value("p1")}, {"text", Value("t")}});
         },
         sql_shim_.MakeWriteId("posts/p1", 1)},
        {"dynamo",
         [this] {
           return dynamo_shim_.PutItemCtx(Region::kUs, "t", "k", Document{{"a", Value("1")}});
         },
         dynamo_shim_.MakeWriteId("t/k", 1)},
    };
  }

 private:
  KvStore kv_;
  QueueStore queue_;
  PubSubStore pubsub_;
  DocStore docs_;
  ObjectStore objects_;
  SqlStore sql_;
  DynamoStore dynamo_;
  KvShim kv_shim_;
  QueueShim queue_shim_;
  PubSubShim pubsub_shim_;
  DocShim doc_shim_;
  ObjectShim object_shim_;
  SqlShim sql_shim_;
  DynamoShim dynamo_shim_;
};

TEST_F(ShimsTest, CtxWriteWithoutLineageInstallsExactlyTheNewDep) {
  CtxWriterBed bed("nolineage");
  for (const auto& writer : bed.writers()) {
    SCOPED_TRACE(writer.shim);
    ScopedContext scoped(RequestContext(1));  // a context, but no lineage in it
    ASSERT_TRUE(writer.write().ok());
    auto current = LineageApi::Current();
    ASSERT_TRUE(current.has_value());
    EXPECT_EQ(current->Size(), 1u);
    EXPECT_TRUE(current->Contains(writer.id));
    EXPECT_EQ(current->deps().front().scope, writer.id.scope);
  }
}

TEST_F(ShimsTest, CtxWriteWithoutContextInstallsNothing) {
  CtxWriterBed bed("nocontext");
  for (const auto& writer : bed.writers()) {
    SCOPED_TRACE(writer.shim);
    ASSERT_EQ(RequestContext::Current(), nullptr);
    EXPECT_TRUE(writer.write().ok());
    EXPECT_EQ(LineageApi::Current(), std::nullopt);
  }
}

TEST_F(ShimsTest, CtxWriteOnCopiedContextLeavesTheOriginalUnchanged) {
  CtxWriterBed bed("copied");
  const WriteId prior{"upstream", "u", 3};
  for (const auto& writer : bed.writers()) {
    SCOPED_TRACE(writer.shim);
    ScopedContext original(RequestContext(1));
    LineageApi::Root();
    LineageApi::Append(prior);
    {
      // The copy shares the original's lineage object until one of them writes.
      ScopedContext copy(*RequestContext::Current());
      ASSERT_TRUE(writer.write().ok());
      auto written = LineageApi::Current();
      ASSERT_TRUE(written.has_value());
      EXPECT_EQ(written->Size(), 2u);
      EXPECT_TRUE(written->Contains(prior));
      EXPECT_TRUE(written->Contains(writer.id));
    }
    auto untouched = LineageApi::Current();
    ASSERT_TRUE(untouched.has_value());
    EXPECT_EQ(untouched->Size(), 1u);
    EXPECT_TRUE(untouched->Contains(prior));
  }
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
