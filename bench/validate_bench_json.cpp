// Schema check for the BENCH_*.json artifacts: parses the document with a
// minimal recursive-descent JSON reader (no dependencies) and asserts the
// keys every future PR's delta-comparison relies on. Dispatches on the root
// "bench" tag:
//
//   * (absent) / load_sweep — a non-empty `phases` array whose every element
//     carries peak_req_s, p50/p99/p999, an enforcement `backend` tag, the
//     strategy's metadata_bytes_per_req, and a scoped_skips count (with at
//     least one phase actually backend-tagged, and a locality phase pair —
//     scoped with scoped_skips>0, plus an unscoped baseline).
//   * trace_mesh — additionally a `graph` shape block proving the deep-graph
//     regime (min_stateful_calls ≥ 20, min_depth ≥ 5, and ≥200 live services
//     on non-quick runs), a `carry` array with the legacy-vs-native lineage
//     carry pair at ≥20 deps, per-phase violations (must be 0 under
//     enforcement) and allocs_per_req, both enforcement backends present,
//     and the scoped/unscoped global-barrier pair.
//   * sim_sweep — the deterministic seed-sweep verdict: seeds_run ≥ 200,
//     always_violations == 0, unreached_sometimes == 0, a configs array
//     covering both enforcement backends × scoped/unscoped with episodes in
//     every cell, a non-empty properties array (name/kind/passes/failures,
//     every SOMETIMES and REACHABLE with passes > 0, every ALWAYS with
//     failures == 0), and a replay block with checked ≥ 1, mismatches == 0.
//
// Usage: validate_bench_json <path> — exit 0 on a valid report, 1 with a
// diagnostic otherwise. Wired into bench-smoke right after each bench's
// --quick run emits its file.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace {

// A parsed JSON value. Only what the schema check needs: object/array
// containers, numbers, and a catch-all for the scalar leaves.
struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing bytes after document");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Expect("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      if (!Consume(':')) {
        return Fail("expected ':' after key \"" + key + "\"");
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"':
          case '\\':
          case '/':
            out->push_back(escaped);
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
          case 'f':
            out->push_back(' ');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            pos_ += 4;            // skip the code point
            out->push_back('?');  // keys never use \u; value fidelity not needed
            break;
          }
          default:
            return Fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseLiteral(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (text_[pos_] == 't') {
      out->boolean = true;
      return Expect("true");
    }
    out->boolean = false;
    return Expect("false");
  }

  bool Expect(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::Kind::kNumber;
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    out->number = std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

// Checks that `value` (phase `index` of the artifact) has every key in
// `keys` with JSON kind `kind`; returns the number of schema errors.
int RequireFields(const JsonValue& value, size_t index, const char* const* keys, size_t num_keys,
                  JsonValue::Kind kind, const char* kind_name) {
  int errors = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    const JsonValue* field = value.Find(keys[k]);
    if (field == nullptr) {
      std::fprintf(stderr, "validate_bench_json: phases[%zu] missing \"%s\"\n", index, keys[k]);
      ++errors;
    } else if (field->kind != kind) {
      std::fprintf(stderr, "validate_bench_json: phases[%zu].%s is not a %s\n", index, keys[k],
                   kind_name);
      ++errors;
    }
  }
  return errors;
}

double NumberOr(const JsonValue& value, const std::string& key, double fallback) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->kind == JsonValue::Kind::kNumber ? field->number : fallback;
}

bool BoolOr(const JsonValue& value, const std::string& key, bool fallback) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->kind == JsonValue::Kind::kBool ? field->boolean : fallback;
}

// The trace-mesh macrobench schema (emitted by bench/trace_mesh, documented
// in DESIGN.md §14).
int CheckTraceMesh(const char* path, const JsonValue& root) {
  int errors = 0;
  const bool quick = BoolOr(root, "quick", false);

  // Graph-shape block: the acceptance regime must be visible in the artifact.
  const JsonValue* graph = root.Find("graph");
  if (graph == nullptr || graph->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "validate_bench_json: missing \"graph\" shape object\n");
    ++errors;
  } else {
    const double live = NumberOr(*graph, "live_services", 0.0);
    const double min_stateful = NumberOr(*graph, "min_stateful_calls", 0.0);
    const double min_depth = NumberOr(*graph, "min_depth", 0.0);
    if (min_stateful < 20) {
      std::fprintf(stderr,
                   "validate_bench_json: graph.min_stateful_calls %.0f < 20 — not the "
                   "deep-graph regime\n",
                   min_stateful);
      ++errors;
    }
    if (min_depth < 5) {
      std::fprintf(stderr, "validate_bench_json: graph.min_depth %.0f < 5\n", min_depth);
      ++errors;
    }
    if (!quick && live < 200) {
      std::fprintf(stderr,
                   "validate_bench_json: graph.live_services %.0f < 200 on a full run\n", live);
      ++errors;
    }
  }

  // Lineage-carry points: the per-hop context cost at ≥20 deps.
  const JsonValue* carry = root.Find("carry");
  bool carry_deep = false;
  if (carry == nullptr || carry->kind != JsonValue::Kind::kArray || carry->array.empty()) {
    std::fprintf(stderr, "validate_bench_json: missing or empty \"carry\" array\n");
    ++errors;
  } else {
    for (const JsonValue& point : carry->array) {
      if (point.kind != JsonValue::Kind::kObject ||
          point.Find("p50_ns") == nullptr || point.Find("allocs_per_hop") == nullptr) {
        std::fprintf(stderr, "validate_bench_json: malformed carry point\n");
        ++errors;
        continue;
      }
      carry_deep |= NumberOr(point, "deps", 0.0) >= 20;
    }
    if (!carry_deep) {
      std::fprintf(stderr, "validate_bench_json: carry array lacks a point at >=20 deps\n");
      ++errors;
    }
  }

  const JsonValue* phases = root.Find("phases");
  if (phases == nullptr || phases->kind != JsonValue::Kind::kArray || phases->array.empty()) {
    std::fprintf(stderr, "validate_bench_json: missing or empty \"phases\" array\n");
    return 1;
  }
  const char* required_numbers[] = {"peak_req_s",   "p50_ms",
                                    "p99_ms",       "p999_ms",
                                    "scoped_skips", "metadata_bytes_per_req",
                                    "violations",   "allocs_per_req"};
  const char* required_strings[] = {"name", "backend"};
  const char* required_bools[] = {"antipode", "use_scope"};
  bool any_lineage = false;
  bool any_frontier = false;
  bool any_scoped_engaged = false;
  bool any_unscoped = false;
  for (size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& phase = phases->array[i];
    if (phase.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "validate_bench_json: phases[%zu] is not an object\n", i);
      ++errors;
      continue;
    }
    errors += RequireFields(phase, i, required_numbers,
                            sizeof(required_numbers) / sizeof(required_numbers[0]),
                            JsonValue::Kind::kNumber, "number");
    errors += RequireFields(phase, i, required_strings,
                            sizeof(required_strings) / sizeof(required_strings[0]),
                            JsonValue::Kind::kString, "string");
    errors += RequireFields(phase, i, required_bools,
                            sizeof(required_bools) / sizeof(required_bools[0]),
                            JsonValue::Kind::kBool, "bool");
    const JsonValue* backend = phase.Find("backend");
    if (backend != nullptr && backend->kind == JsonValue::Kind::kString) {
      any_lineage |= backend->string == "lineage";
      any_frontier |= backend->string == "stable_frontier";
    }
    const bool antipode = BoolOr(phase, "antipode", false);
    if (antipode && NumberOr(phase, "violations", -1.0) != 0.0) {
      std::fprintf(stderr,
                   "validate_bench_json: phases[%zu] ran under enforcement with %.0f XCY "
                   "violations\n",
                   i, NumberOr(phase, "violations", -1.0));
      ++errors;
    }
    if (antipode) {
      if (BoolOr(phase, "use_scope", true)) {
        any_scoped_engaged |= NumberOr(phase, "scoped_skips", 0.0) > 0;
      } else {
        any_unscoped = true;
      }
    }
  }
  if (!any_lineage || !any_frontier) {
    std::fprintf(stderr,
                 "validate_bench_json: need phases under both enforcement backends "
                 "(lineage + stable_frontier)\n");
    ++errors;
  }
  if (!any_scoped_engaged || !any_unscoped) {
    std::fprintf(stderr,
                 "validate_bench_json: missing the scoped/unscoped barrier pair (one scoped "
                 "phase with scoped_skips>0, one with use_scope=false)\n");
    ++errors;
  }
  if (errors != 0) {
    return 1;
  }
  std::printf("validate_bench_json: %s OK (trace_mesh, %zu phases)\n", path,
              phases->array.size());
  return 0;
}

// The deterministic seed-sweep verdict artifact (emitted by bench/sim_sweep,
// documented in DESIGN.md §15).
int CheckSimSweep(const char* path, const JsonValue& root) {
  int errors = 0;

  const double seeds_run = NumberOr(root, "seeds_run", -1.0);
  if (seeds_run < 200) {
    std::fprintf(stderr, "validate_bench_json: seeds_run %.0f < 200\n", seeds_run);
    ++errors;
  }
  if (NumberOr(root, "always_violations", -1.0) != 0.0) {
    std::fprintf(stderr, "validate_bench_json: always_violations %.0f != 0\n",
                 NumberOr(root, "always_violations", -1.0));
    ++errors;
  }
  if (NumberOr(root, "unreached_sometimes", -1.0) != 0.0) {
    std::fprintf(stderr,
                 "validate_bench_json: %.0f SOMETIMES/REACHABLE properties never reached\n",
                 NumberOr(root, "unreached_sometimes", -1.0));
    ++errors;
  }
  if (NumberOr(root, "failing_seeds", -1.0) != 0.0) {
    std::fprintf(stderr, "validate_bench_json: failing_seeds %.0f != 0\n",
                 NumberOr(root, "failing_seeds", -1.0));
    ++errors;
  }

  // Config grid: both backends × scoped/unscoped, every cell exercised.
  const JsonValue* configs = root.Find("configs");
  if (configs == nullptr || configs->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "validate_bench_json: missing \"configs\" array\n");
    ++errors;
  } else {
    const char* required[] = {"lineage/scoped", "lineage/unscoped", "frontier/scoped",
                              "frontier/unscoped"};
    for (const char* label : required) {
      bool found = false;
      for (const JsonValue& config : configs->array) {
        const JsonValue* name = config.Find("label");
        if (name != nullptr && name->kind == JsonValue::Kind::kString &&
            name->string == label && NumberOr(config, "episodes", 0.0) > 0) {
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "validate_bench_json: config cell \"%s\" missing or ran 0 episodes\n",
                     label);
        ++errors;
      }
    }
  }

  // Per-property verdicts. ALWAYS must be failure-free; SOMETIMES/REACHABLE
  // must have actually passed at least once over the sweep.
  const JsonValue* properties = root.Find("properties");
  if (properties == nullptr || properties->kind != JsonValue::Kind::kArray ||
      properties->array.empty()) {
    std::fprintf(stderr, "validate_bench_json: missing or empty \"properties\" array\n");
    ++errors;
  } else {
    for (size_t i = 0; i < properties->array.size(); ++i) {
      const JsonValue& property = properties->array[i];
      const JsonValue* name = property.Find("name");
      const JsonValue* kind = property.Find("kind");
      if (name == nullptr || name->kind != JsonValue::Kind::kString || kind == nullptr ||
          kind->kind != JsonValue::Kind::kString ||
          property.Find("passes") == nullptr || property.Find("failures") == nullptr) {
        std::fprintf(stderr, "validate_bench_json: malformed properties[%zu]\n", i);
        ++errors;
        continue;
      }
      const double passes = NumberOr(property, "passes", 0.0);
      const double failures = NumberOr(property, "failures", 0.0);
      if (kind->string == "ALWAYS" && failures != 0.0) {
        std::fprintf(stderr, "validate_bench_json: ALWAYS property \"%s\" has %.0f failures\n",
                     name->string.c_str(), failures);
        ++errors;
      }
      if ((kind->string == "SOMETIMES" || kind->string == "REACHABLE") && passes <= 0.0) {
        std::fprintf(stderr, "validate_bench_json: %s property \"%s\" was never reached\n",
                     kind->string.c_str(), name->string.c_str());
        ++errors;
      }
    }
  }

  // Replay determinism: at least one seed re-run, zero trace-hash mismatches.
  const JsonValue* replay = root.Find("replay");
  if (replay == nullptr || replay->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "validate_bench_json: missing \"replay\" object\n");
    ++errors;
  } else {
    if (NumberOr(*replay, "checked", 0.0) < 1) {
      std::fprintf(stderr, "validate_bench_json: replay.checked %.0f < 1\n",
                   NumberOr(*replay, "checked", 0.0));
      ++errors;
    }
    if (NumberOr(*replay, "mismatches", -1.0) != 0.0) {
      std::fprintf(stderr, "validate_bench_json: replay.mismatches %.0f != 0\n",
                   NumberOr(*replay, "mismatches", -1.0));
      ++errors;
    }
  }

  if (errors != 0) {
    return 1;
  }
  std::printf("validate_bench_json: %s OK (sim_sweep, %.0f seeds)\n", path, seeds_run);
  return 0;
}

int Check(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "validate_bench_json: cannot open %s\n", path);
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  Parser parser(text);
  if (!parser.Parse(&root)) {
    std::fprintf(stderr, "validate_bench_json: %s does not parse: %s\n", path,
                 parser.error().c_str());
    return 1;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "validate_bench_json: top level is not an object\n");
    return 1;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench != nullptr && bench->kind == JsonValue::Kind::kString &&
      bench->string == "trace_mesh") {
    return CheckTraceMesh(path, root);
  }
  if (bench != nullptr && bench->kind == JsonValue::Kind::kString &&
      bench->string == "sim_sweep") {
    return CheckSimSweep(path, root);
  }
  const JsonValue* phases = root.Find("phases");
  if (phases == nullptr || phases->kind != JsonValue::Kind::kArray || phases->array.empty()) {
    std::fprintf(stderr, "validate_bench_json: missing or empty \"phases\" array\n");
    return 1;
  }
  // Backend-tagged schema: every phase names its enforcement strategy
  // ("lineage" / "stable_frontier", or "none" on non-Antipode baselines) and
  // reports the metadata bytes that strategy ships per request, so the
  // delta-comparison can pair phases across backends.
  const char* required_numbers[] = {"peak_req_s", "p50_ms", "p99_ms", "p999_ms",
                                    "metadata_bytes_per_req", "scoped_skips"};
  const char* required_strings[] = {"name", "backend"};
  int errors = 0;
  bool any_backend_tagged = false;
  bool any_scoped_locality = false;
  bool any_unscoped_locality = false;
  for (size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& phase = phases->array[i];
    if (phase.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "validate_bench_json: phases[%zu] is not an object\n", i);
      ++errors;
      continue;
    }
    for (const char* key : required_strings) {
      const JsonValue* field = phase.Find(key);
      if (field == nullptr) {
        std::fprintf(stderr, "validate_bench_json: phases[%zu] missing \"%s\"\n", i, key);
        ++errors;
      } else if (field->kind != JsonValue::Kind::kString) {
        std::fprintf(stderr, "validate_bench_json: phases[%zu].%s is not a string\n", i, key);
        ++errors;
      } else if (std::string_view(key) == "backend" && field->string != "none") {
        any_backend_tagged = true;
      }
    }
    for (const char* key : required_numbers) {
      const JsonValue* field = phase.Find(key);
      if (field == nullptr) {
        std::fprintf(stderr, "validate_bench_json: phases[%zu] missing \"%s\"\n", i, key);
        ++errors;
      } else if (field->kind != JsonValue::Kind::kNumber) {
        std::fprintf(stderr, "validate_bench_json: phases[%zu].%s is not a number\n", i, key);
        ++errors;
      }
    }
    // Locality-tagged phases: the scoped/unscoped pair over the three
    // region-group-disjoint beds. The scoped one must actually have skipped
    // out-of-scope ⟨store, region⟩ pairs, or the scoping never engaged.
    const JsonValue* locality = phase.Find("locality");
    const JsonValue* use_scope = phase.Find("use_scope");
    const JsonValue* skips = phase.Find("scoped_skips");
    if (locality != nullptr && locality->kind == JsonValue::Kind::kBool && locality->boolean &&
        use_scope != nullptr && use_scope->kind == JsonValue::Kind::kBool &&
        skips != nullptr && skips->kind == JsonValue::Kind::kNumber) {
      if (use_scope->boolean) {
        if (skips->number > 0) {
          any_scoped_locality = true;
        } else {
          std::fprintf(stderr,
                       "validate_bench_json: phases[%zu] is a scoped locality phase with zero "
                       "scoped_skips — scoping never engaged\n",
                       i);
          ++errors;
        }
      } else {
        any_unscoped_locality = true;
      }
    }
  }
  if (!any_backend_tagged) {
    std::fprintf(stderr,
                 "validate_bench_json: no phase names an enforcement backend — the "
                 "strategy comparison is missing\n");
    ++errors;
  }
  if (!any_scoped_locality || !any_unscoped_locality) {
    std::fprintf(stderr,
                 "validate_bench_json: missing the locality phase pair (need one locality "
                 "phase with use_scope=true and scoped_skips>0, one with use_scope=false) — "
                 "the scoped-vs-unscoped comparison is missing\n");
    ++errors;
  }
  if (errors != 0) {
    return 1;
  }
  std::printf("validate_bench_json: %s OK (%zu phases)\n", path, phases->array.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: validate_bench_json <BENCH_*.json>\n");
    return 2;
  }
  return Check(argv[1]);
}
