#include "src/antipode/doc_shim.h"

#include "src/antipode/framing.h"

namespace antipode {

WriteId DocShim::FramedInsert(Region region, const std::string& collection,
                              const std::string& id, Document doc, const Lineage& lineage) {
  doc.Set(kLineageField, Value(lineage.Serialize()));
  const uint64_t version = docs_->InsertDoc(region, collection, id, doc);
  return MakeWriteId(DocStore::DocKey(collection, id), version);
}

Lineage DocShim::InsertDoc(Region region, const std::string& collection, const std::string& id,
                           Document doc, Lineage lineage) {
  lineage.Append(FramedInsert(region, collection, id, std::move(doc), lineage));
  return lineage;
}

Result<DocShim::ReadResult> DocShim::FindById(Region region, const std::string& collection,
                                              const std::string& id) const {
  const std::string key = DocStore::DocKey(collection, id);
  EntryHandle entry = docs_->Get(region, key);
  if (!entry || entry->bytes.empty()) {
    return Status::NotFound("doc read miss: " + key);
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
  out.doc = std::move(*doc);
  return out;
}

Status DocShim::InsertDocCtx(Region region, const std::string& collection, const std::string& id,
                             Document doc) {
  return LineageApi::AppendWrite([&](const Lineage& lineage) {
    return FramedInsert(region, collection, id, std::move(doc), lineage);
  });
}

Result<Document> DocShim::FindByIdCtx(Region region, const std::string& collection,
                                      const std::string& id) const {
  auto result = FindById(region, collection, id);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->doc);
}

}  // namespace antipode
