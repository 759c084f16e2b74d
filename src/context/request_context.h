// Thread-local request context, the substrate Antipode's Lineage API rides on
// (paper §6.2 "typically, this is stored in a pre-existing (thread-local)
// request context"). The RPC layer and the queue/pub-sub consumers install a
// context before running a handler and serialize it into outgoing messages.
//
// One baggage entry — the Antipode lineage — also has a live, typed form: the
// native slot (DESIGN.md §14). LineageApi mutates the object in place, and
// the string entry is re-encoded only when the context is serialized for the
// next hop. A callee's returned baggage is folded back with MergeBaggage: the
// native entry is unioned through the slot, every other key is overwritten.

#ifndef SRC_CONTEXT_REQUEST_CONTEXT_H_
#define SRC_CONTEXT_REQUEST_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/context/baggage.h"

namespace antipode {

class RequestContext {
 public:
  RequestContext() = default;
  explicit RequestContext(uint64_t trace_id) : trace_id_(trace_id) {}

  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  Baggage& baggage() { return baggage_; }
  const Baggage& baggage() const { return baggage_; }

  // --- Native baggage slot ----------------------------------------------
  //
  // The type-erased operations of the one baggage entry that has a native
  // form. The context layer stays ignorant of the payload type; the owner
  // (src/antipode/lineage_api.cc) supplies these thunks. The object is held
  // by shared_ptr and treated as copy-on-write: copying a context copies one
  // pointer, and the context clones the object before handing it out for
  // mutation while another copy shares it.
  struct NativeSlotOps {
    std::string_view key;  // baggage key the object shadows (static storage)
    // A fresh object decoded from a baggage value; nullptr when malformed.
    std::shared_ptr<void> (*decode)(std::string_view blob);
    std::shared_ptr<void> (*clone)(const void* object);
    void (*encode)(const void* object, std::string& out);
    // Folds a callee's serialized value into `object`; a malformed value
    // leaves it unchanged.
    void (*merge)(void* object, std::string_view incoming);
  };

  // Binds the process's native slot type. Called once, during static
  // initialization, by the slot's owner. Until then every baggage entry is a
  // plain string.
  static void BindNativeSlot(const NativeSlotOps& ops);

  // The native object, decoded from its baggage entry on first access (one
  // decode per hop instead of one per read). nullptr when the entry is absent
  // or malformed.
  const void* NativeObject();

  // NativeObject, uniquely owned for in-place mutation; marks it newer than
  // the baggage entry.
  void* MutableNativeObject();

  // Replaces the native value; `object` must be of the bound slot type.
  void SetNativeObject(std::shared_ptr<void> object);

  // Drops the native value: both the object and its baggage entry.
  void EraseNativeObject();

  // Folds a callee's returned baggage into this context: the native entry is
  // merged into the object (built from this context's entry first when
  // needed), every other key is overwritten.
  void MergeBaggage(const Baggage& incoming);

  // --- Thread-local accessors -------------------------------------------

  // The context currently installed on this thread, or nullptr.
  static RequestContext* Current();

  // Serializes the current context (trace id + baggage) for transport; empty
  // string when no context is installed.
  static std::string SerializeCurrent();

  // Non-const: re-encodes a mutated native object into its baggage entry
  // first.
  std::string Serialize();
  // All-or-nothing, like Baggage::Deserialize: any malformed frame decodes to
  // an empty context.
  static RequestContext Deserialize(std::string_view data);

 private:
  friend class ScopedContext;

  void FlushNativeObject();

  uint64_t trace_id_ = 0;
  Baggage baggage_;
  std::shared_ptr<void> native_object_;
  bool native_dirty_ = false;  // object newer than the baggage entry
};

// RAII installation of a RequestContext on the current thread. Contexts nest;
// the destructor restores the previously installed one.
class ScopedContext {
 public:
  explicit ScopedContext(RequestContext context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

  RequestContext& context() { return context_; }

 private:
  RequestContext context_;
  RequestContext* previous_;
};

}  // namespace antipode

#endif  // SRC_CONTEXT_REQUEST_CONTEXT_H_
