// Tracing subsystem: span context propagation through baggage, across RPC
// hops, onto replication shipments, and into barrier stall attribution, plus
// the sampling and export surfaces. `Tracer::Default()` is process-wide, so
// every test runs against a cleared tracer and disables it on the way out.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/antipode/antipode.h"
#include "src/context/request_context.h"
#include "src/rpc/rpc.h"
#include "src/store/kv_store.h"

namespace antipode {

// Found by argument-dependent lookup, so it lives in the enum's namespace.
void PrintTo(EnforcementBackendKind kind, std::ostream* os) {
  *os << EnforcementBackendKindName(kind);
}

namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TimeScale::Set(0.01);
    Tracer::Default().Clear();
    Tracer::Default().Enable();
  }
  void TearDown() override {
    Tracer::Default().Disable();
    Tracer::Default().Clear();
    TimeScale::Set(1.0);
  }

  static const TraceEvent* Find(const std::vector<TraceEvent>& events,
                                const std::string& name) {
    for (const auto& event : events) {
      if (event.name == name) {
        return &event;
      }
    }
    return nullptr;
  }

  static std::string Annotation(const TraceEvent& event, const std::string& key) {
    for (const auto& [k, v] : event.annotations) {
      if (k == key) {
        return v;
      }
    }
    return "";
  }
};

TEST_F(TraceTest, InjectExtractRoundTrip) {
  Baggage baggage;
  const SpanContext context{.trace_id = 0xabcdef1234ull, .span_id = 42};
  InjectSpanContext(baggage, context);
  const SpanContext back = ExtractSpanContext(baggage);
  EXPECT_EQ(back.trace_id, context.trace_id);
  EXPECT_EQ(back.span_id, context.span_id);

  // Injecting an invalid context removes the keys.
  InjectSpanContext(baggage, SpanContext{});
  EXPECT_FALSE(ExtractSpanContext(baggage).valid());
}

TEST_F(TraceTest, SpanInstallsAndRestoresCurrentContext) {
  ScopedContext scoped(RequestContext(1));
  EXPECT_FALSE(CurrentSpanContext().valid());
  {
    Span outer = Span::Start("outer");
    ASSERT_TRUE(outer.recording());
    EXPECT_EQ(CurrentSpanContext().span_id, outer.context().span_id);
    {
      Span inner = Span::Start("inner");
      EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
      EXPECT_EQ(CurrentSpanContext().span_id, inner.context().span_id);
    }
    // The inner span restored its parent as current.
    EXPECT_EQ(CurrentSpanContext().span_id, outer.context().span_id);
  }
  EXPECT_FALSE(CurrentSpanContext().valid());

  const auto events = Tracer::Default().Snapshot();
  const TraceEvent* inner = Find(events, "inner");
  const TraceEvent* outer = Find(events, "outer");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
}

TEST_F(TraceTest, DisabledTracerProducesInertSpans) {
  Tracer::Default().Disable();
  Span span = Span::Start("nope");
  EXPECT_FALSE(span.recording());
  span.Annotate("dropped", uint64_t{1});
  span.End();
  EXPECT_EQ(Tracer::Default().NumEvents(), 0u);
}

TEST_F(TraceTest, SamplePeriodTracesOneRootOutOfN) {
  Tracer::Default().Disable();
  Tracer::Default().Clear();
  Tracer::Default().Enable(/*sample_period=*/4);
  for (int i = 0; i < 8; ++i) {
    Span root = Span::Start("maybe");
  }
  EXPECT_EQ(Tracer::Default().NumEvents(), 2u);
}

// An RPC hop: the server-side handler span must join the client's trace (the
// context rides the serialized baggage), and the handler's thread must see
// the propagated context as current.
TEST_F(TraceTest, RpcHopInheritsTraceId) {
  ServiceRegistry registry;
  std::atomic<uint64_t> handler_trace_id{0};
  RpcService* echo = registry.RegisterService("echo", Region::kEu, 1);
  echo->RegisterMethod("ping", [&](const std::string& payload) {
    handler_trace_id = CurrentSpanContext().trace_id;
    return Result<std::string>(payload);
  });

  ScopedContext scoped(RequestContext(1));
  RpcClient client(&registry, Region::kUs);
  ASSERT_TRUE(client.Call("echo", "ping", "hi").ok());
  registry.ShutdownAll();

  const auto events = Tracer::Default().Snapshot();
  const TraceEvent* call = Find(events, "rpc/call");
  const TraceEvent* server = Find(events, "rpc/server");
  ASSERT_NE(call, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(call->trace_id, 0u);
  EXPECT_EQ(server->trace_id, call->trace_id);
  EXPECT_EQ(server->parent_span_id, call->span_id);
  EXPECT_EQ(handler_trace_id.load(), call->trace_id);
  EXPECT_EQ(call->region, Region::kUs);
  EXPECT_EQ(server->region, Region::kEu);
  EXPECT_EQ(Annotation(*server, "service"), "echo");
}

// A replication shipment is stamped with the put span's context, so the apply
// at the remote replica lands in the same trace even though it runs on a
// timer thread with no RequestContext at all.
TEST_F(TraceTest, ReplicationApplyInheritsTraceId) {
  KvStore store(KvStore::DefaultOptions("trc-repl", kRegions));
  KvShim shim(&store);
  shim.Write(Region::kUs, "k", "v", Lineage(1));
  store.DrainReplication();

  const auto events = Tracer::Default().Snapshot();
  const TraceEvent* put = Find(events, "store/put");
  const TraceEvent* apply = Find(events, "replication/apply");
  ASSERT_NE(put, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_NE(put->trace_id, 0u);
  EXPECT_EQ(apply->trace_id, put->trace_id);
  EXPECT_EQ(apply->parent_span_id, put->span_id);
  EXPECT_EQ(apply->region, Region::kEu);
  EXPECT_EQ(Annotation(*apply, "store"), "trc-repl");
  EXPECT_EQ(Annotation(*apply, "key"), "k");
}

// Both dependency encodings emit the same "antipode/barrier" parent span.
class TraceBarrierTest : public TraceTest,
                         public ::testing::WithParamInterface<EnforcementBackendKind> {};

// The barrier records one parent span plus, for exact dependencies, a
// per-dependency wait span, and attributes the stall to the store on the
// critical path. A cut wait covers its dependencies without a span per dep.
TEST_P(TraceBarrierTest, BarrierSpanAttributesStallPerDependency) {
  KvStore store(KvStore::DefaultOptions("trc-bar", kRegions));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  Span root = Span::Start("test/request");
  ASSERT_TRUE(root.recording());
  shim.WriteCtx(Region::kUs, "k", "v");
  ASSERT_TRUE(
      BarrierCtx(Region::kEu, BarrierOptions{.registry = &registry, .backend = GetParam()}).ok());
  root.End();
  store.DrainReplication();

  const auto events = Tracer::Default().Snapshot();
  const TraceEvent* barrier = Find(events, "antipode/barrier");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->trace_id, root.context().trace_id);
  EXPECT_EQ(barrier->parent_span_id, root.context().span_id);
  EXPECT_EQ(Annotation(*barrier, "deps"), "1");
  EXPECT_EQ(Annotation(*barrier, "status"), "OK");
  if (GetParam() != EnforcementBackendKind::kLineage) {
    return;
  }
  const TraceEvent* wait = Find(events, "barrier/wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->trace_id, barrier->trace_id);
  EXPECT_EQ(wait->parent_span_id, barrier->span_id);
  // One dependency, so it is trivially the critical path.
  EXPECT_EQ(Annotation(*barrier, "critical_path_store"), "trc-bar");
  EXPECT_EQ(Annotation(*barrier, "critical_path_key"), "k");
  EXPECT_EQ(Annotation(*wait, "store"), "trc-bar");
  EXPECT_EQ(Annotation(*wait, "key"), "k");
  EXPECT_FALSE(Annotation(*wait, "stall_model_ms").empty());
}

INSTANTIATE_TEST_SUITE_P(Backends, TraceBarrierTest,
                         ::testing::Values(EnforcementBackendKind::kLineage,
                                           EnforcementBackendKind::kStableFrontier));

TEST_F(TraceTest, ChromeTraceAndJsonlExport) {
  {
    ScopedContext scoped(RequestContext(1));
    Span span = Span::Start("export/me", {.category = "test", .region = Region::kUs});
    span.Annotate("answer", uint64_t{42});
  }
  std::ostringstream chrome;
  Tracer::Default().WriteChromeTrace(chrome);
  const std::string chrome_json = chrome.str();
  EXPECT_NE(chrome_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome_json.find("\"export/me\""), std::string::npos);
  EXPECT_NE(chrome_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome_json.find("\"answer\":\"42\""), std::string::npos);

  std::ostringstream jsonl;
  Tracer::Default().WriteJsonl(jsonl);
  size_t lines = 0;
  std::istringstream in(jsonl.str());
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, Tracer::Default().NumEvents());

  const std::string path = ::testing::TempDir() + "/antipode_trace_test.json";
  ASSERT_TRUE(Tracer::Default().ExportChromeTrace(path).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
}

}  // namespace
}  // namespace antipode
