#include "src/antipode/lineage_api.h"

#include <atomic>
#include <memory>

#include "src/context/request_context.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_next_lineage_id{1};

std::shared_ptr<void> DecodeLineage(std::string_view blob) {
  auto lineage = Lineage::Deserialize(blob);
  if (!lineage.ok()) {
    return nullptr;
  }
  return std::make_shared<Lineage>(std::move(*lineage));
}

std::shared_ptr<void> CloneLineage(const void* object) {
  return std::make_shared<Lineage>(*static_cast<const Lineage*>(object));
}

void EncodeLineage(const void* object, std::string& out) {
  static_cast<const Lineage*>(object)->SerializeTo(out);
}

// Lineages accumulate across the request tree (§6.2): a callee's returned
// lineage is unioned into the caller's.
void MergeLineage(void* object, std::string_view incoming) {
  auto theirs = Lineage::Deserialize(incoming);
  if (!theirs.ok()) {
    return;  // keep ours on a corrupt incoming blob
  }
  auto* mine = static_cast<Lineage*>(object);
  mine->Transfer(*theirs);
  if (mine->id() == 0) {
    mine->set_id(theirs->id());
  }
}

constexpr RequestContext::NativeSlotOps kLineageSlot = {
    kLineageBaggageKey, &DecodeLineage, &CloneLineage, &EncodeLineage, &MergeLineage};

[[maybe_unused]] const bool kLineageSlotBound =
    (RequestContext::BindNativeSlot(kLineageSlot), true);

// The current context's lineage for in-place mutation; nullptr when no
// context or no lineage is installed.
Lineage* MutableCurrent() {
  RequestContext* context = RequestContext::Current();
  return context == nullptr ? nullptr : static_cast<Lineage*>(context->MutableNativeObject());
}

}  // namespace

Lineage LineageApi::Root() {
  Lineage lineage(g_next_lineage_id.fetch_add(1, std::memory_order_relaxed));
  Install(lineage);
  return lineage;
}

void LineageApi::Stop() {
  RequestContext* context = RequestContext::Current();
  if (context != nullptr) {
    context->EraseNativeObject();
  }
}

std::optional<Lineage> LineageApi::Current() {
  RequestContext* context = RequestContext::Current();
  if (context == nullptr) {
    return std::nullopt;
  }
  const auto* lineage = static_cast<const Lineage*>(context->NativeObject());
  if (lineage == nullptr) {
    return std::nullopt;
  }
  return *lineage;
}

void LineageApi::Install(const Lineage& lineage) {
  RequestContext* context = RequestContext::Current();
  if (context != nullptr) {
    context->SetNativeObject(std::make_shared<Lineage>(lineage));
  }
}

void LineageApi::Append(const WriteId& dep) {
  if (Lineage* lineage = MutableCurrent()) {
    lineage->Append(dep);
  }
}

void LineageApi::Remove(const WriteId& dep) {
  if (Lineage* lineage = MutableCurrent()) {
    lineage->Remove(dep);
  }
}

const Lineage& LineageApi::CurrentOrEmpty() {
  static const Lineage kEmpty{};
  RequestContext* context = RequestContext::Current();
  const auto* lineage =
      context == nullptr ? nullptr : static_cast<const Lineage*>(context->NativeObject());
  return lineage != nullptr ? *lineage : kEmpty;
}

void LineageApi::AppendOrInstall(WriteId dep) {
  if (Lineage* lineage = MutableCurrent()) {
    lineage->Append(std::move(dep));
    return;
  }
  if (RequestContext* context = RequestContext::Current()) {
    auto fresh = std::make_shared<Lineage>();
    fresh->Append(std::move(dep));
    context->SetNativeObject(std::move(fresh));
  }
}

void LineageApi::Transfer(const Lineage& from) {
  if (Lineage* lineage = MutableCurrent()) {
    lineage->Transfer(from);
    return;
  }
  // Transferring into a context with no lineage installs a copy, so the
  // dependencies are not silently dropped.
  Install(from);
}

}  // namespace antipode
