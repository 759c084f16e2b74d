#include "src/context/request_context.h"

#include "src/common/serialization.h"

namespace antipode {
namespace {

thread_local RequestContext* tls_current = nullptr;

// Written once during static initialization, read-only afterwards.
const RequestContext::NativeSlotOps* g_native_ops = nullptr;

}  // namespace

void RequestContext::BindNativeSlot(const NativeSlotOps& ops) { g_native_ops = &ops; }

RequestContext* RequestContext::Current() { return tls_current; }

std::string RequestContext::SerializeCurrent() {
  if (tls_current == nullptr) {
    return std::string();
  }
  return tls_current->Serialize();
}

const void* RequestContext::NativeObject() {
  if (native_object_ == nullptr && g_native_ops != nullptr) {
    const std::string* blob = baggage_.Find(g_native_ops->key);
    if (blob != nullptr) {
      native_object_ = g_native_ops->decode(*blob);
      native_dirty_ = false;
    }
  }
  return native_object_.get();
}

void* RequestContext::MutableNativeObject() {
  if (NativeObject() == nullptr) {
    return nullptr;
  }
  if (native_object_.use_count() > 1) {
    native_object_ = g_native_ops->clone(native_object_.get());
  }
  native_dirty_ = true;
  return native_object_.get();
}

void RequestContext::SetNativeObject(std::shared_ptr<void> object) {
  native_object_ = std::move(object);
  native_dirty_ = true;
}

void RequestContext::EraseNativeObject() {
  native_object_.reset();
  native_dirty_ = false;
  if (g_native_ops != nullptr) {
    baggage_.Erase(g_native_ops->key);
  }
}

void RequestContext::MergeBaggage(const Baggage& incoming) {
  for (const auto& [key, value] : incoming.entries()) {
    if (g_native_ops != nullptr && key == g_native_ops->key) {
      if (void* object = MutableNativeObject()) {
        g_native_ops->merge(object, value);
        continue;
      }
    }
    baggage_.Assign(key, value);
  }
}

void RequestContext::FlushNativeObject() {
  if (!native_dirty_ || native_object_ == nullptr) {
    return;
  }
  // Encode into a reused per-thread scratch, then copy-assign into the
  // baggage entry: on the steady-state flush cycle both buffers have warm
  // capacity, so the write-back allocates nothing.
  thread_local std::string scratch;
  scratch.clear();
  g_native_ops->encode(native_object_.get(), scratch);
  baggage_.Assign(g_native_ops->key, scratch);
  native_dirty_ = false;
}

std::string RequestContext::Serialize() {
  FlushNativeObject();
  Serializer s;
  s.WriteUint64(trace_id_);
  s.WriteString(baggage_.Serialize());
  return s.Release();
}

RequestContext RequestContext::Deserialize(std::string_view data) {
  Deserializer d(data);
  auto trace_id = d.ReadUint64();
  auto baggage_blob = d.ReadString();
  if (!trace_id.ok() || !baggage_blob.ok() || !d.AtEnd()) {
    return RequestContext();
  }
  auto baggage = Baggage::TryDeserialize(*baggage_blob);
  if (!baggage.has_value()) {
    return RequestContext();
  }
  RequestContext context(*trace_id);
  context.baggage_ = std::move(*baggage);
  return context;
}

ScopedContext::ScopedContext(RequestContext context)
    : context_(std::move(context)), previous_(tls_current) {
  tls_current = &context_;
}

ScopedContext::~ScopedContext() { tls_current = previous_; }

}  // namespace antipode
