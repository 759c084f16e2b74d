#include "src/context/baggage.h"

#include "src/common/serialization.h"

namespace antipode {

size_t Baggage::WireSize() const {
  size_t total = 0;
  for (const auto& [key, value] : entries_) {
    total += key.size() + value.size() + 4;  // ~varint framing per entry
  }
  return total;
}

std::string Baggage::Serialize() const {
  Serializer s;
  s.WriteVarint(entries_.size());
  for (const auto& [key, value] : entries_) {
    s.WriteString(key);
    s.WriteString(value);
  }
  return s.Release();
}

std::optional<Baggage> Baggage::TryDeserialize(std::string_view data) {
  Deserializer d(data);
  auto count = d.ReadVarint();
  if (!count.ok()) {
    return std::nullopt;
  }
  Baggage baggage;
  for (uint64_t i = 0; i < *count; ++i) {
    auto key = d.ReadString();
    auto value = d.ReadString();
    if (!key.ok() || !value.ok()) {
      return std::nullopt;
    }
    baggage.Set(std::move(*key), std::move(*value));
  }
  if (!d.AtEnd()) {
    return std::nullopt;
  }
  return baggage;
}

Baggage Baggage::Deserialize(std::string_view data) {
  return TryDeserialize(data).value_or(Baggage());
}

}  // namespace antipode
