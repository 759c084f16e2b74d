// Baggage: a small string->string map that travels with a request across
// service boundaries — the same role OpenTelemetry baggage plays in the paper
// (§6.4). Antipode piggybacks its serialized lineage on one baggage entry.
//
// Representation: a flat vector of ⟨key, value⟩ pairs kept sorted by key.
// Real baggage holds a handful of entries (lineage, span context, a few app
// keys), so a contiguous vector beats the old node-based std::map on every
// per-hop operation — copy (one buffer instead of a tree of nodes), lookup
// (binary search over a cache-resident array), and serialize (linear scan).

#ifndef SRC_CONTEXT_BAGGAGE_H_
#define SRC_CONTEXT_BAGGAGE_H_

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace antipode {

class Baggage {
 public:
  using Entry = std::pair<std::string, std::string>;
  using EntryList = std::vector<Entry>;

  // Overwrite-or-insert.
  void Set(std::string key, std::string value) {
    auto it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      it->second = std::move(value);
      return;
    }
    entries_.insert(it, Entry(std::move(key), std::move(value)));
  }

  // Copy-assign into an existing entry (or insert one). Unlike Set, the
  // mapped string's capacity is reused when the key is already present —
  // the lineage entry is rewritten on every flush, so this keeps the
  // steady-state install path allocation-free.
  void Assign(std::string_view key, std::string_view value) {
    auto it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      it->second.assign(value.data(), value.size());
      return;
    }
    entries_.insert(it, Entry(std::string(key), std::string(value)));
  }

  std::optional<std::string> Get(std::string_view key) const {
    const std::string* value = Find(key);
    if (value == nullptr) {
      return std::nullopt;
    }
    return *value;
  }

  // Copy-free lookup for hot paths; the pointer is invalidated by any
  // mutation of the baggage.
  const std::string* Find(std::string_view key) const {
    auto it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      return &it->second;
    }
    return nullptr;
  }

  void Erase(std::string_view key) {
    auto it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      entries_.erase(it);
    }
  }

  bool Empty() const { return entries_.empty(); }
  size_t Size() const { return entries_.size(); }

  // Sorted by key.
  const EntryList& entries() const { return entries_; }

  // Total bytes this baggage adds to a message (keys + values + framing).
  size_t WireSize() const;

  std::string Serialize() const;
  // All-or-nothing: a truncated frame, a short entry count or trailing bytes
  // decode to nullopt (TryDeserialize) or an empty baggage (Deserialize),
  // never to the prefix that parsed.
  static std::optional<Baggage> TryDeserialize(std::string_view data);
  static Baggage Deserialize(std::string_view data);

 private:
  EntryList::iterator LowerBound(std::string_view key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& entry, std::string_view k) { return entry.first < k; });
  }
  EntryList::const_iterator LowerBound(std::string_view key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& entry, std::string_view k) { return entry.first < k; });
  }

  EntryList entries_;
};

}  // namespace antipode

#endif  // SRC_CONTEXT_BAGGAGE_H_
