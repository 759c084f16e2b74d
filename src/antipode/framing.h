// Value framing used by every shim: the serialized lineage is written
// alongside the application value in the underlying datastore (paper §6.2
// "datastore propagation"). The stored bytes are
//     varint(lineage_len) ‖ lineage ‖ value
// so the size increase visible in store metrics is exactly the lineage
// metadata overhead Table 3 reports.
//
// Note the framed lineage is the *dependency set the write was issued with*;
// the write's own identifier is reconstructed at read time from the entry's
// key and version, so it costs no extra bytes.

#ifndef SRC_ANTIPODE_FRAMING_H_
#define SRC_ANTIPODE_FRAMING_H_

#include <string>
#include <string_view>

#include "src/antipode/lineage.h"

namespace antipode {

// Field under which document-model shims (SQL/Doc/Dynamo) store the
// serialized lineage — the one-time schema change of §6.4.
inline constexpr char kLineageField[] = "_antipode_lineage";

struct FramedValue {
  std::string value;
  Lineage lineage;
};

// Encodes lineage + value into the stored representation.
std::string FrameValue(const Lineage& lineage, std::string_view value);

// Decodes a stored representation. Bytes that were written without a shim
// (no valid frame, or a frame whose lineage does not decode) decode as
// {bytes, empty lineage} on a best-effort basis. A valid frame re-encodes
// byte-identically: FrameValue(out.lineage, out.value) == stored.
FramedValue UnframeValue(std::string_view stored);

}  // namespace antipode

#endif  // SRC_ANTIPODE_FRAMING_H_
