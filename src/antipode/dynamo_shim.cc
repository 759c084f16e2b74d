#include "src/antipode/dynamo_shim.h"

#include "src/antipode/framing.h"

namespace antipode {

Status DynamoShim::Wait(Region region, const WriteId& id, Duration timeout) {
  const TimePoint deadline = timeout == Duration::max()
                                 ? TimePoint::max()
                                 : GlobalClock().Now() + timeout;
  // Poll with strongly consistent reads. The authoritative copy reflects the
  // write as soon as it is durable at its origin, so in practice this
  // resolves on the first probe; the loop guards the (rare) case of probing
  // before the writer's Put returned.
  while (true) {
    EntryHandle entry = dynamo_->StrongGet(region, id.key);
    if (entry && entry->version >= id.version) {
      return Status::Ok();
    }
    if (deadline != TimePoint::max() && GlobalClock().Now() >= deadline) {
      return Status::DeadlineExceeded("dynamo wait: " + id.ToString());
    }
    GlobalClock().SleepFor(TimeScale::FromModelMillis(10.0));
  }
}

void DynamoShim::WaitAsync(Region region, const WriteId& id, TimePoint deadline,
                           WaitCallback done) {
  auto state = std::make_shared<ProbeState>(ProbeState{region, id, deadline, std::move(done)});
  if (!BlockingWaitPool().Submit([this, state] { ProbeLoop(state); })) {
    state->done(Status::Unavailable("shim wait pool shut down"));
  }
}

void DynamoShim::ProbeLoop(const std::shared_ptr<ProbeState>& state) {
  EntryHandle entry = dynamo_->StrongGet(state->region, state->id.key);
  if (entry && entry->version >= state->id.version) {
    state->done(Status::Ok());
    return;
  }
  if (state->deadline != TimePoint::max() &&
      GlobalClock().Now() >= state->deadline) {
    state->done(Status::DeadlineExceeded("dynamo wait: " + state->id.ToString()));
    return;
  }
  // Re-arm after the poll interval on the store's injected timer service (a
  // private deployment must not leak probes onto the shared engine). The
  // probe runs on the pool, so the timer dispatcher never pays the strong
  // read's WAN round trip; between probes no thread is parked.
  const bool armed = dynamo_->timers()->ScheduleAfter(
      TimeScale::FromModelMillis(10.0), [this, state] {
        if (!BlockingWaitPool().Submit([this, state] { ProbeLoop(state); })) {
          state->done(Status::Unavailable("shim wait pool shut down"));
        }
      });
  if (!armed) {
    state->done(Status::Unavailable("timer service shut down during dynamo wait"));
  }
}

bool DynamoShim::IsVisible(Region region, const WriteId& id) {
  // Dry-run probes the *local* replica: it reports whether an
  // eventually-consistent reader in this region would already observe the
  // write, which is what the consistency checker wants to know.
  return dynamo_->IsVisible(region, id.key, id.version);
}

Result<WriteId> DynamoShim::FramedPut(Region region, const std::string& table,
                                      const std::string& key, Document item,
                                      const Lineage& lineage) {
  item.Set(kLineageField, Value(lineage.Serialize()));
  auto version = dynamo_->PutItem(region, table, key, item);
  if (!version.ok()) {
    return version.status();
  }
  return MakeWriteId(DynamoStore::ItemKey(table, key), *version);
}

Result<Lineage> DynamoShim::PutItem(Region region, const std::string& table,
                                    const std::string& key, Document item, Lineage lineage) {
  auto id = FramedPut(region, table, key, std::move(item), lineage);
  if (!id.ok()) {
    return id.status();
  }
  lineage.Append(std::move(*id));
  return lineage;
}

Result<DynamoShim::ReadResult> DynamoShim::DecodeEntry(const EntryHandle& entry,
                                                       const std::string& key) const {
  if (!entry || entry->bytes.empty()) {
    return Status::NotFound("dynamo read miss: " + key);
  }
  auto doc = Document::Deserialize(entry->bytes);
  if (!doc.ok()) {
    return doc.status();
  }
  ReadResult out;
  auto lineage_field = doc->Get(kLineageField);
  if (lineage_field.has_value() && lineage_field->is_string()) {
    auto lineage = Lineage::Deserialize(lineage_field->as_string());
    if (lineage.ok()) {
      out.lineage = std::move(*lineage);
    }
  }
  doc->Erase(kLineageField);
  out.lineage.Append(MakeWriteId(key, entry->version));
  out.item = std::move(*doc);
  return out;
}

Result<DynamoShim::ReadResult> DynamoShim::GetItem(Region region, const std::string& table,
                                                   const std::string& key) const {
  const std::string item_key = DynamoStore::ItemKey(table, key);
  return DecodeEntry(dynamo_->Get(region, item_key), item_key);
}

Result<DynamoShim::ReadResult> DynamoShim::GetItemConsistent(Region region,
                                                             const std::string& table,
                                                             const std::string& key) const {
  const std::string item_key = DynamoStore::ItemKey(table, key);
  return DecodeEntry(dynamo_->StrongGet(region, item_key), item_key);
}

Status DynamoShim::PutItemCtx(Region region, const std::string& table, const std::string& key,
                              Document item) {
  return LineageApi::AppendWrite([&](const Lineage& lineage) {
    return FramedPut(region, table, key, std::move(item), lineage);
  });
}

Result<Document> DynamoShim::GetItemCtx(Region region, const std::string& table,
                                        const std::string& key) const {
  auto result = GetItem(region, table, key);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->item);
}

Result<Document> DynamoShim::GetItemConsistentCtx(Region region, const std::string& table,
                                                  const std::string& key) const {
  auto result = GetItemConsistent(region, table, key);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->item);
}

}  // namespace antipode
