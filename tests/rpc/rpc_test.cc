#include "src/rpc/rpc.h"

#include <gtest/gtest.h>

#include "src/antipode/lineage_api.h"
#include "src/common/sim.h"

namespace antipode {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }

  ServiceRegistry registry_;
};

TEST_F(RpcTest, CallInvokesHandlerAndReturnsPayload) {
  RpcService* echo = registry_.RegisterService("echo", Region::kUs, 2);
  echo->RegisterMethod("shout", [](const std::string& payload) {
    return Result<std::string>(payload + "!");
  });
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("echo", "shout", "hey");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "hey!");
}

TEST_F(RpcTest, UnknownServiceFails) {
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("nope", "x", "");
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, UnknownMethodFails) {
  registry_.RegisterService("svc", Region::kUs, 1);
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("svc", "missing", "");
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, HandlerErrorPropagates) {
  RpcService* svc = registry_.RegisterService("err", Region::kUs, 1);
  svc->RegisterMethod("fail", [](const std::string&) {
    return Result<std::string>(Status::InvalidArgument("bad input"));
  });
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("err", "fail", "");
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.status().message(), "bad input");
}

// Runs in simulation: both calls' durations are exact virtual time, so the
// ratio cannot be swamped by scheduling noise on a loaded host.
TEST_F(RpcTest, CrossRegionCallIsSlowerThanLocal) {
  ScopedSimMode sim(7);
  RpcService* local = registry_.RegisterService("local", Region::kUs, 1);
  RpcService* remote = registry_.RegisterService("remote", Region::kSg, 1);
  auto noop = [](const std::string&) { return Result<std::string>(std::string()); };
  local->RegisterMethod("m", noop);
  remote->RegisterMethod("m", noop);
  RpcClient client(&registry_, Region::kUs);

  const TimePoint t0 = GlobalClock().Now();
  ASSERT_TRUE(client.Call("local", "m", "").ok());
  const auto local_elapsed = GlobalClock().Now() - t0;
  const TimePoint t1 = GlobalClock().Now();
  ASSERT_TRUE(client.Call("remote", "m", "").ok());
  const auto remote_elapsed = GlobalClock().Now() - t1;
  EXPECT_GT(remote_elapsed, local_elapsed * 3);
}

TEST_F(RpcTest, ContextPropagatesIntoHandler) {
  RpcService* svc = registry_.RegisterService("ctx", Region::kUs, 1);
  svc->RegisterMethod("read-baggage", [](const std::string&) {
    RequestContext* context = RequestContext::Current();
    if (context == nullptr) {
      return Result<std::string>(Status::Internal("no context"));
    }
    return Result<std::string>(context->baggage().Get("user").value_or("none"));
  });
  ScopedContext scoped(RequestContext(11));
  RequestContext::Current()->baggage().Set("user", "alice");
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("ctx", "read-baggage", "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "alice");
}

TEST_F(RpcTest, HandlerBaggageFlowsBackToCaller) {
  RpcService* svc = registry_.RegisterService("back", Region::kUs, 1);
  svc->RegisterMethod("tag", [](const std::string&) {
    RequestContext::Current()->baggage().Set("server-note", "seen");
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(12));
  RpcClient client(&registry_, Region::kUs);
  client.Call("back", "tag", "");
  EXPECT_EQ(RequestContext::Current()->baggage().Get("server-note"), "seen");
}

TEST_F(RpcTest, LineageAccumulatesAcrossNestedCalls) {
  // A callee that appends a write id to the propagated lineage; the update
  // must be visible in the caller's context after the call (Fig. 4 step 3).
  RpcService* svc = registry_.RegisterService("writer", Region::kUs, 1);
  svc->RegisterMethod("write", [](const std::string&) {
    LineageApi::Append(WriteId{"db", "k", 3});
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(13));
  LineageApi::Root();
  RpcClient client(&registry_, Region::kUs);
  client.Call("writer", "write", "");
  auto lineage = LineageApi::Current();
  ASSERT_TRUE(lineage.has_value());
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "k", 3}));
}

TEST_F(RpcTest, LineageUnionWhenBothSidesWrite) {
  RpcService* svc = registry_.RegisterService("w2", Region::kUs, 1);
  svc->RegisterMethod("write", [](const std::string&) {
    LineageApi::Append(WriteId{"db", "remote", 1});
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(14));
  LineageApi::Root();
  LineageApi::Append(WriteId{"db", "local", 1});
  RpcClient client(&registry_, Region::kUs);
  client.Call("w2", "write", "");
  auto lineage = LineageApi::Current();
  ASSERT_TRUE(lineage.has_value());
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "local", 1}));
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "remote", 1}));
}

// The caller's lineage exists only as a baggage string (it arrived over the
// wire and no LineageApi call has touched it yet); the response merge must
// still union the callee's dependencies into it rather than overwrite it.
TEST_F(RpcTest, MergeUnionsStringOnlyCallerLineage) {
  RpcService* svc = registry_.RegisterService("str-callee", Region::kUs, 1);
  svc->RegisterMethod("write", [](const std::string&) {
    LineageApi::Append(WriteId{"db", "callee", 2});
    return Result<std::string>(std::string("ok"));
  });
  Lineage caller(21);
  caller.Append(WriteId{"db", "caller", 1});
  RequestContext context(15);
  context.baggage().Set(kLineageBaggageKey, caller.Serialize());
  ScopedContext scoped(std::move(context));
  RpcClient client(&registry_, Region::kUs);
  ASSERT_TRUE(client.Call("str-callee", "write", "").ok());

  // Judge the wire form the caller would send on its next hop.
  const RequestContext sent = RequestContext::Deserialize(RequestContext::SerializeCurrent());
  const std::string* blob = sent.baggage().Find(kLineageBaggageKey);
  ASSERT_NE(blob, nullptr);
  auto lineage = Lineage::Deserialize(*blob);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage->id(), 21u);
  EXPECT_EQ(lineage->Size(), 2u);
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "caller", 1}));
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "callee", 2}));
}

// A handler that calls two services in sequence accumulates both callees'
// dependencies, and the context it sends on its next hop carries them.
TEST_F(RpcTest, MergeAccumulatesSequentialCallsInHandler) {
  for (const char* leaf : {"leaf-a", "leaf-b"}) {
    RpcService* svc = registry_.RegisterService(leaf, Region::kUs, 1);
    svc->RegisterMethod("write", [leaf](const std::string&) {
      LineageApi::Append(WriteId{"db", leaf, 1});
      return Result<std::string>(std::string("ok"));
    });
  }
  // Reports the dependency keys of the lineage it was called with.
  RpcService* probe = registry_.RegisterService("probe", Region::kUs, 1);
  probe->RegisterMethod("deps", [](const std::string&) {
    std::string keys;
    const Lineage lineage = LineageApi::Current().value_or(Lineage());
    for (const WriteId& dep : lineage.deps()) {
      keys += dep.key + ",";
    }
    return Result<std::string>(keys);
  });
  RpcService* middle = registry_.RegisterService("middle", Region::kUs, 1);
  middle->RegisterMethod("fan", [this](const std::string&) {
    RpcClient client(&registry_, Region::kUs);
    if (!client.Call("leaf-a", "write", "").ok() || !client.Call("leaf-b", "write", "").ok()) {
      return Result<std::string>(Status::Internal("leaf call failed"));
    }
    return client.Call("probe", "deps", "");
  });

  ScopedContext scoped(RequestContext(16));
  LineageApi::Root();
  LineageApi::Append(WriteId{"db", "root", 1});
  RpcClient client(&registry_, Region::kUs);
  auto seen_by_probe = client.Call("middle", "fan", "");
  ASSERT_TRUE(seen_by_probe.ok());
  EXPECT_EQ(*seen_by_probe, "leaf-a,leaf-b,root,");
  auto lineage = LineageApi::Current();
  ASSERT_TRUE(lineage.has_value());
  EXPECT_EQ(lineage->Size(), 3u);
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "leaf-a", 1}));
  EXPECT_TRUE(lineage->Contains(WriteId{"db", "leaf-b", 1}));
}

// Baggage keys other than the lineage are overwritten by the callee's value.
TEST_F(RpcTest, MergeOverwritesNonLineageKey) {
  RpcService* svc = registry_.RegisterService("overwrite", Region::kUs, 1);
  svc->RegisterMethod("tag", [](const std::string&) {
    RequestContext::Current()->baggage().Set("note", "callee");
    LineageApi::Append(WriteId{"db", "callee", 1});
    return Result<std::string>(std::string("ok"));
  });
  ScopedContext scoped(RequestContext(17));
  LineageApi::Root();
  RequestContext::Current()->baggage().Set("note", "caller");
  RpcClient client(&registry_, Region::kUs);
  ASSERT_TRUE(client.Call("overwrite", "tag", "").ok());
  EXPECT_EQ(RequestContext::Current()->baggage().Get("note"), "callee");
  EXPECT_TRUE(LineageApi::Current()->Contains(WriteId{"db", "callee", 1}));
}

TEST_F(RpcTest, CastDeliversAsynchronously) {
  RpcService* svc = registry_.RegisterService("async", Region::kUs, 1);
  std::atomic<bool> ran{false};
  svc->RegisterMethod("fire", [&ran](const std::string&) {
    ran = true;
    return Result<std::string>(std::string());
  });
  RpcClient client(&registry_, Region::kUs);
  EXPECT_TRUE(client.Cast("async", "fire", "").ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
}

TEST_F(RpcTest, CastToUnknownServiceFails) {
  RpcClient client(&registry_, Region::kUs);
  EXPECT_EQ(client.Cast("ghost", "m", "").code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, ConcurrentCallsAreServed) {
  RpcService* svc = registry_.RegisterService("busy", Region::kUs, 4);
  svc->RegisterMethod("m", [](const std::string& p) { return Result<std::string>(p); });
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&, i] {
      RpcClient client(&registry_, Region::kUs);
      auto response = client.Call("busy", "m", std::to_string(i));
      if (response.ok() && *response == std::to_string(i)) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(RpcTest, CallAfterShutdownReturnsUnavailable) {
  RpcService* svc = registry_.RegisterService("gone", Region::kUs, 1);
  svc->RegisterMethod("m", [](const std::string&) { return Result<std::string>(std::string()); });
  registry_.ShutdownAll();
  RpcClient client(&registry_, Region::kUs);
  auto response = client.Call("gone", "m", "");
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace antipode
