// Per-datastore behaviour: the typed APIs of the five storage substrates
// (KV/Redis, SQL/MySQL, Doc/Mongo, Object/S3, Dynamo) layered on the
// replication engine.

#include <gtest/gtest.h>

#include "src/store/doc_store.h"
#include "src/store/dynamo_store.h"
#include "src/store/kv_store.h"
#include "src/store/object_store.h"
#include "src/store/sql_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class StoresTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.02); }
  void TearDown() override { TimeScale::Set(1.0); }
};

// ---- KvStore --------------------------------------------------------------

TEST_F(StoresTest, KvSetGet) {
  KvStore kv(KvStore::DefaultOptions("kv1", kRegions));
  kv.Set(Region::kUs, "k", "v");
  EXPECT_EQ(kv.GetValue(Region::kUs, "k"), "v");
  EXPECT_TRUE(kv.Exists(Region::kUs, "k"));
  EXPECT_FALSE(kv.Exists(Region::kUs, "other"));
}

TEST_F(StoresTest, KvDelLeavesTombstone) {
  KvStore kv(KvStore::DefaultOptions("kv2", kRegions));
  kv.Set(Region::kUs, "k", "v");
  const uint64_t del_version = kv.Del(Region::kUs, "k");
  EXPECT_EQ(del_version, 2u);
  EXPECT_EQ(kv.GetValue(Region::kUs, "k"), std::nullopt);
  EXPECT_FALSE(kv.Exists(Region::kUs, "k"));
}

TEST_F(StoresTest, KvReplicatesEventually) {
  KvStore kv(KvStore::DefaultOptions("kv3", kRegions));
  kv.Set(Region::kUs, "k", "v");
  ASSERT_TRUE(kv.WaitVisible(Region::kEu, "k", 1, std::chrono::seconds(10)).ok());
  EXPECT_EQ(kv.GetValue(Region::kEu, "k"), "v");
}

// ---- SqlStore -------------------------------------------------------------

class SqlTest : public StoresTest {
 protected:
  // Every fixture's store is named "sql", so its metrics resolve to the same
  // registry instruments as the previous test's in this process: start from
  // reset metrics so size assertions see only this test's writes.
  SqlTest() : sql_(SqlStore::DefaultOptions("sql", kRegions)) {
    sql_.metrics().Reset();
    sql_.CreateTable("users", {"id", "name", "age"}, "id");
  }
  SqlStore sql_;
};

TEST_F(SqlTest, CreateTableRejectsBadPrimaryKey) {
  EXPECT_EQ(sql_.CreateTable("bad", {"a", "b"}, "c").code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, CreateTableRejectsDuplicates) {
  EXPECT_EQ(sql_.CreateTable("users", {"id"}, "id").code(), StatusCode::kAlreadyExists);
}

TEST_F(SqlTest, InsertAndSelectByPk) {
  Row row{{"id", Value("u1")}, {"name", Value("alice")}, {"age", Value(static_cast<int64_t>(30))}};
  auto version = sql_.Insert(Region::kUs, "users", row);
  ASSERT_TRUE(version.ok());
  auto fetched = sql_.SelectByPk(Region::kUs, "users", Value("u1"));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->Get("name"), Value("alice"));
}

TEST_F(SqlTest, InsertMissingPkFails) {
  Row row{{"name", Value("bob")}};
  EXPECT_EQ(sql_.Insert(Region::kUs, "users", row).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, InsertUnknownColumnFails) {
  Row row{{"id", Value("u2")}, {"ghost", Value("boo")}};
  EXPECT_EQ(sql_.Insert(Region::kUs, "users", row).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, InsertIntoUnknownTableFails) {
  Row row{{"id", Value("x")}};
  EXPECT_EQ(sql_.Insert(Region::kUs, "ghosts", row).status().code(), StatusCode::kNotFound);
}

TEST_F(SqlTest, SelectWhereFiltersByColumn) {
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u1")}, {"age", Value(static_cast<int64_t>(30))}});
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u2")}, {"age", Value(static_cast<int64_t>(30))}});
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u3")}, {"age", Value(static_cast<int64_t>(40))}});
  EXPECT_EQ(sql_.SelectWhere(Region::kUs, "users", "age", Value(static_cast<int64_t>(30))).size(),
            2u);
}

TEST_F(SqlTest, UpdateRowModifiesColumn) {
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u1")}, {"name", Value("old")}});
  ASSERT_TRUE(sql_.UpdateRow(Region::kUs, "users", Value("u1"), "name", Value("new")).ok());
  EXPECT_EQ(sql_.SelectByPk(Region::kUs, "users", Value("u1"))->Get("name"), Value("new"));
}

TEST_F(SqlTest, UpdateMissingRowFails) {
  EXPECT_EQ(sql_.UpdateRow(Region::kUs, "users", Value("nope"), "name", Value("x"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(SqlTest, AddColumnThenInsertUsingIt) {
  ASSERT_TRUE(sql_.AddColumn("users", "email").ok());
  Row row{{"id", Value("u9")}, {"email", Value("u9@example.com")}};
  EXPECT_TRUE(sql_.Insert(Region::kUs, "users", row).ok());
}

TEST_F(SqlTest, AddDuplicateColumnFails) {
  EXPECT_EQ(sql_.AddColumn("users", "name").code(), StatusCode::kAlreadyExists);
}

TEST_F(SqlTest, CreateIndexAddsWriteAmplification) {
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u1")}});
  const double before = sql_.metrics().MeanObjectBytes();
  ASSERT_TRUE(sql_.CreateIndex("users", "name").ok());
  EXPECT_TRUE(sql_.HasIndex("users", "name"));
  sql_.Insert(Region::kUs, "users", Row{{"id", Value("u2")}});
  EXPECT_GT(sql_.metrics().MeanObjectBytes(), before + SqlStore::kIndexEntryOverheadBytes / 4);
}

TEST_F(SqlTest, CreateIndexOnUnknownColumnFails) {
  EXPECT_EQ(sql_.CreateIndex("users", "ghost").code(), StatusCode::kNotFound);
}

TEST_F(SqlTest, PrimaryKeyColumnAccessor) {
  auto pk = sql_.PrimaryKeyColumn("users");
  ASSERT_TRUE(pk.ok());
  EXPECT_EQ(*pk, "id");
  EXPECT_FALSE(sql_.PrimaryKeyColumn("ghosts").ok());
}

TEST_F(SqlTest, IntegerPrimaryKeys) {
  sql_.CreateTable("orders", {"n", "total"}, "n");
  sql_.Insert(Region::kUs, "orders",
              Row{{"n", Value(static_cast<int64_t>(7))}, {"total", Value(1.5)}});
  auto row = sql_.SelectByPk(Region::kUs, "orders", Value(static_cast<int64_t>(7)));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->Get("total"), Value(1.5));
}

// ---- DocStore -------------------------------------------------------------

TEST_F(StoresTest, DocInsertAndFind) {
  DocStore docs(DocStore::DefaultOptions("doc1", kRegions));
  docs.InsertDoc(Region::kUs, "posts", "p1", Document{{"text", Value("hi")}});
  auto doc = docs.FindById(Region::kUs, "posts", "p1");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("text"), Value("hi"));
  EXPECT_FALSE(docs.FindById(Region::kUs, "posts", "p2").has_value());
}

TEST_F(StoresTest, DocFindWhere) {
  DocStore docs(DocStore::DefaultOptions("doc2", kRegions));
  docs.InsertDoc(Region::kUs, "posts", "p1", Document{{"author", Value("a")}});
  docs.InsertDoc(Region::kUs, "posts", "p2", Document{{"author", Value("a")}});
  docs.InsertDoc(Region::kUs, "posts", "p3", Document{{"author", Value("b")}});
  docs.InsertDoc(Region::kUs, "other", "x", Document{{"author", Value("a")}});
  EXPECT_EQ(docs.FindWhere(Region::kUs, "posts", "author", Value("a")).size(), 2u);
}

TEST_F(StoresTest, DocReplicationLagGrowsWithDistance) {
  auto eu_options = DocStore::DefaultOptions("doc-eu", {Region::kUs, Region::kEu});
  auto sg_options = DocStore::DefaultOptions("doc-sg", {Region::kUs, Region::kSg});
  DocStore eu(eu_options);
  DocStore sg(sg_options);
  for (int i = 0; i < 30; ++i) {
    eu.InsertDoc(Region::kUs, "c", "d" + std::to_string(i), Document{});
    sg.InsertDoc(Region::kUs, "c", "d" + std::to_string(i), Document{});
  }
  // The oplog multiplier makes US->SG lag clearly exceed US->EU lag.
  EXPECT_GT(sg.metrics().ReplicationLag().Mean(),
            eu.metrics().ReplicationLag().Mean() * 1.3);
  eu.DrainReplication();
  sg.DrainReplication();
}

// ---- ObjectStore ----------------------------------------------------------

TEST_F(StoresTest, ObjectPutGet) {
  ObjectStore s3(ObjectStore::DefaultOptions("s31", kRegions));
  s3.PutObject(Region::kUs, "bucket", "key", "blob");
  EXPECT_EQ(s3.GetObject(Region::kUs, "bucket", "key"), "blob");
  EXPECT_EQ(s3.GetObject(Region::kUs, "bucket", "nope"), std::nullopt);
  EXPECT_EQ(s3.GetObject(Region::kUs, "nope", "key"), std::nullopt);
}

TEST_F(StoresTest, ObjectReplicationHasHeavyTail) {
  auto options = ObjectStore::DefaultOptions("s32", kRegions);
  ObjectStore s3(options);
  for (int i = 0; i < 200; ++i) {
    s3.PutObject(Region::kUs, "b", "k" + std::to_string(i), "v");
  }
  const Histogram lag = s3.metrics().ReplicationLag();
  // Bimodal profile: p50 in seconds, p95 well above 10x the median.
  EXPECT_GT(lag.Percentile(0.95), lag.Percentile(0.50) * 5);
  s3.DrainReplication();
}

// ---- DynamoStore ----------------------------------------------------------

TEST_F(StoresTest, DynamoPutGetItem) {
  DynamoStore dynamo(DynamoStore::DefaultOptions("dy1", kRegions));
  ASSERT_TRUE(dynamo.PutItem(Region::kUs, "t", "k", Document{{"a", Value("1")}}).ok());
  auto item = dynamo.GetItem(Region::kUs, "t", "k");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->Get("a"), Value("1"));
}

TEST_F(StoresTest, DynamoRejectsOversizedItems) {
  DynamoStore dynamo(DynamoStore::DefaultOptions("dy2", kRegions));
  Document big{{"blob", Value(std::string(DynamoStore::kMaxItemBytes + 100, 'x'))}};
  auto version = dynamo.PutItem(Region::kUs, "t", "k", big);
  EXPECT_EQ(version.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StoresTest, DynamoEventualReadMissesButConsistentReadHits) {
  auto options = DynamoStore::DefaultOptions("dy3", kRegions);
  options.replication.median_millis = 100000.0;  // effectively never replicates in test
  DynamoStore dynamo(options);
  dynamo.PutItem(Region::kUs, "t", "k", Document{{"a", Value("1")}});
  EXPECT_FALSE(dynamo.GetItem(Region::kEu, "t", "k").has_value());
  auto strong = dynamo.GetItemConsistent(Region::kEu, "t", "k");
  ASSERT_TRUE(strong.has_value());
  EXPECT_EQ(strong->Get("a"), Value("1"));
}

TEST_F(StoresTest, DynamoNotifierProfileIsSlower) {
  auto regular = DynamoStore::DefaultOptions("dyr", kRegions);
  auto notifier = DynamoStore::NotifierOptions("dyn", kRegions);
  EXPECT_GT(notifier.replication.median_millis, regular.replication.median_millis * 10);
}

}  // namespace
}  // namespace antipode
