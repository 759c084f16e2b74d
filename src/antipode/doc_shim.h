// Shim for the MongoDB-like DocStore: the lineage rides in a document field.

#ifndef SRC_ANTIPODE_DOC_SHIM_H_
#define SRC_ANTIPODE_DOC_SHIM_H_

#include <string>

#include "src/antipode/lineage_api.h"
#include "src/antipode/watermark_shim.h"
#include "src/store/doc_store.h"

namespace antipode {

class DocShim : public WatermarkShim {
 public:
  explicit DocShim(DocStore* store) : WatermarkShim(store), docs_(store) {}

  struct ReadResult {
    Document doc;  // lineage field stripped
    Lineage lineage;
  };

  Lineage InsertDoc(Region region, const std::string& collection, const std::string& id,
                    Document doc, Lineage lineage);
  // NotFound when the document is absent at `region`; InvalidArgument when
  // the stored bytes do not decode as a document.
  Result<ReadResult> FindById(Region region, const std::string& collection,
                              const std::string& id) const;

  Status InsertDocCtx(Region region, const std::string& collection, const std::string& id,
                      Document doc);
  Result<Document> FindByIdCtx(Region region, const std::string& collection,
                               const std::string& id) const;

 private:
  // Stores `doc` with `lineage` in its lineage field; returns the write's
  // identifier.
  WriteId FramedInsert(Region region, const std::string& collection, const std::string& id,
                       Document doc, const Lineage& lineage);

  DocStore* docs_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_DOC_SHIM_H_
