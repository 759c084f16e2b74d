// Schema check for the BENCH_*.json artifacts: parses the document with a
// minimal recursive-descent JSON reader (no dependencies) and checks it
// against the declarative schema registered for its root "bench" tag
// (kSchemas below). A schema is:
//
//   * sections — the root object and each named sub-object or non-empty
//     array of objects, with the exact set of typed fields every element
//     carries (a missing, mistyped or unknown field is an error, so a stale
//     artifact shape cannot pass) and per-element predicates;
//   * file rules — whole-document predicates, typically "some phase …"
//     existence checks that keep a claimed comparison in the artifact.
//
// Usage: validate_bench_json <path> — exit 0 on a valid report, 1 with a
// diagnostic otherwise. Wired into ctest for each bench's --quick output and
// for every committed BENCH_*.json.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
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

// --- Schema vocabulary -------------------------------------------------------

using Kind = JsonValue::Kind;

struct Field {
  const char* key;
  Kind kind;
};

// A predicate over one element (or over the whole document for file rules).
// It reads fields through the accessors below, which return 0 / false / ""
// for a missing or mistyped field; the section's field checks report that
// field, so a predicate's fallback never hides it.
struct Rule {
  const char* what;  // the invariant, printed when it fails
  bool (*holds)(const JsonValue& value, bool quick);
};

struct Section {
  const char* key;  // nullptr: the root object itself
  bool array;       // a non-empty array of objects, or one object
  std::vector<Field> fields;
  std::vector<Rule> each;
};

struct Schema {
  const char* bench;
  std::vector<Section> sections;
  std::vector<Rule> file;
};

double Num(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->kind == Kind::kNumber ? field->number : 0.0;
}

bool Bool(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->kind == Kind::kBool && field->boolean;
}

std::string_view Str(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->kind == Kind::kString ? std::string_view(field->string)
                                                          : std::string_view();
}

bool OneOf(std::string_view value, std::initializer_list<std::string_view> allowed) {
  for (std::string_view candidate : allowed) {
    if (value == candidate) {
      return true;
    }
  }
  return false;
}

// True when some element of root[key] satisfies `pred`.
template <typename Pred>
bool Any(const JsonValue& root, const char* key, Pred pred) {
  const JsonValue* array = root.Find(key);
  if (array == nullptr || array->kind != Kind::kArray) {
    return false;
  }
  for (const JsonValue& element : array->array) {
    if (pred(element)) {
      return true;
    }
  }
  return false;
}

constexpr Kind kNum = Kind::kNumber;
constexpr Kind kStr = Kind::kString;
constexpr Kind kBool = Kind::kBool;

// --- The schemas ---------------------------------------------------------------

// bench/load_sweep (DESIGN.md §11).
const Schema kLoadSweep{
    "load_sweep",
    {
        {nullptr,
         false,
         {{"bench", kStr}, {"quick", kBool}, {"duration_s", kNum}, {"phases", Kind::kArray}},
         {}},
        {"phases",
         true,
         {{"name", kStr}, {"app", kStr}, {"antipode", kBool}, {"locality", kBool},
          {"use_scope", kBool}, {"scoped_skips", kNum}, {"backend", kStr},
          {"offered_req_s", kNum}, {"issued", kNum}, {"completed", kNum}, {"p50_ms", kNum},
          {"p99_ms", kNum}, {"p999_ms", kNum}, {"violation_rate", kNum},
          {"metadata_bytes_per_req", kNum}},
         {
             {"name is a phase load_sweep emits",
              [](const JsonValue& p, bool) {
                return OneOf(Str(p, "name"),
                             {"post_baseline", "post_antipode", "post_antipode_frontier",
                              "media_baseline", "media_antipode", "media_antipode_frontier",
                              "post_local3_scoped", "post_local3_unscoped"});
              }},
             {"every issued request completed within the drain cap",
              [](const JsonValue& p, bool) {
                return Num(p, "issued") > 0 && Num(p, "completed") == Num(p, "issued");
              }},
             {"an Antipode phase has violation_rate 0",
              [](const JsonValue& p, bool) {
                return !Bool(p, "antipode") || Num(p, "violation_rate") == 0.0;
              }},
             {"a baseline phase shows violations (violation_rate > 0)",
              [](const JsonValue& p, bool) {
                return Bool(p, "antipode") || Num(p, "violation_rate") > 0.0;
              }},
             {"a scoped locality phase has scoped_skips > 0",
              [](const JsonValue& p, bool) {
                return !Bool(p, "locality") || !Bool(p, "use_scope") ||
                       Num(p, "scoped_skips") > 0;
              }},
         }},
    },
    {
        {"some phase names an enforcement backend",
         [](const JsonValue& root, bool) {
           return Any(root, "phases",
                      [](const JsonValue& p) { return Str(p, "backend") != "none"; });
         }},
        {"the locality pair: a scoped phase with scoped_skips > 0 and an unscoped one",
         [](const JsonValue& root, bool) {
           return Any(root, "phases",
                      [](const JsonValue& p) {
                        return Bool(p, "locality") && Bool(p, "use_scope") &&
                               Num(p, "scoped_skips") > 0;
                      }) &&
                  Any(root, "phases", [](const JsonValue& p) {
                    return Bool(p, "locality") && !Bool(p, "use_scope");
                  });
         }},
    },
};

// bench/trace_mesh (DESIGN.md §14).
const Schema kTraceMesh{
    "trace_mesh",
    {
        {nullptr,
         false,
         {{"bench", kStr}, {"quick", kBool}, {"duration_s", kNum}, {"graph", Kind::kObject},
          {"carry", Kind::kArray}, {"phases", Kind::kArray}},
         {}},
        {"graph",
         false,
         {{"live_services", kNum}, {"stateless_services", kNum}, {"stateful_bindings", kNum},
          {"stores", kNum}, {"plans", kNum}, {"graphs_sampled", kNum},
          {"min_stateful_calls", kNum}, {"max_stateful_calls", kNum},
          {"mean_stateful_calls", kNum}, {"min_depth", kNum}, {"max_depth", kNum},
          {"mean_depth", kNum}, {"mean_total_calls", kNum}},
         {
             {"graph.min_stateful_calls >= 20 (the deep-graph regime)",
              [](const JsonValue& g, bool) { return Num(g, "min_stateful_calls") >= 20; }},
             {"graph.min_depth >= 5",
              [](const JsonValue& g, bool) { return Num(g, "min_depth") >= 5; }},
             {"graph.live_services >= 200 on a full run",
              [](const JsonValue& g, bool quick) {
                return quick || Num(g, "live_services") >= 200;
              }},
         }},
        {"carry",
         true,
         {{"deps", kNum}, {"p50_ns", kNum}, {"p99_ns", kNum}, {"allocs_per_hop", kNum}},
         {}},
        {"phases",
         true,
         {{"name", kStr}, {"backend", kStr}, {"antipode", kBool}, {"use_scope", kBool},
          {"scoped_skips", kNum}, {"violations", kNum}, {"offered_req_s", kNum}, {"issued", kNum},
          {"completed", kNum}, {"p50_ms", kNum}, {"p99_ms", kNum}, {"p999_ms", kNum},
          {"metadata_bytes_per_req", kNum}, {"allocs_per_req", kNum}},
         {
             {"name is a phase trace_mesh emits",
              [](const JsonValue& p, bool) {
                return OneOf(Str(p, "name"),
                             {"mesh_baseline", "mesh_lineage", "mesh_lineage_scoped",
                              "mesh_lineage_unscoped", "mesh_frontier"});
              }},
             {"every issued request completed within the drain cap",
              [](const JsonValue& p, bool) {
                return Num(p, "issued") > 0 && Num(p, "completed") == Num(p, "issued");
              }},
             {"an Antipode phase has 0 XCY violations",
              [](const JsonValue& p, bool) {
                return !Bool(p, "antipode") || Num(p, "violations") == 0.0;
              }},
             {"a baseline phase shows violations (violations > 0)",
              [](const JsonValue& p, bool) {
                return Bool(p, "antipode") || Num(p, "violations") > 0.0;
              }},
         }},
    },
    {
        {"the carry micro has a point at >= 20 deps",
         [](const JsonValue& root, bool) {
           return Any(root, "carry", [](const JsonValue& c) { return Num(c, "deps") >= 20; });
         }},
        {"phases under both enforcement backends (lineage + stable_frontier)",
         [](const JsonValue& root, bool) {
           return Any(root, "phases",
                      [](const JsonValue& p) { return Str(p, "backend") == "lineage"; }) &&
                  Any(root, "phases",
                      [](const JsonValue& p) { return Str(p, "backend") == "stable_frontier"; });
         }},
        {"the scoped/unscoped pair: a scoped Antipode phase with scoped_skips > 0 and an "
         "unscoped one",
         [](const JsonValue& root, bool) {
           return Any(root, "phases",
                      [](const JsonValue& p) {
                        return Bool(p, "antipode") && Bool(p, "use_scope") &&
                               Num(p, "scoped_skips") > 0;
                      }) &&
                  Any(root, "phases", [](const JsonValue& p) {
                    return Bool(p, "antipode") && !Bool(p, "use_scope");
                  });
         }},
    },
};

// bench/sim_sweep (DESIGN.md §15).
const Schema kSimSweep{
    "sim_sweep",
    {
        {nullptr,
         false,
         {{"bench", kStr}, {"quick", kBool}, {"seeds_run", kNum}, {"events", kNum},
          {"checked_reads", kNum}, {"barrier_deadline_misses", kNum}, {"always_violations", kNum},
          {"unreached_sometimes", kNum}, {"failing_seeds", kNum}, {"configs", Kind::kArray},
          {"replay", Kind::kObject}, {"properties", Kind::kArray}},
         {
             {"seeds_run >= 200",
              [](const JsonValue& r, bool) { return Num(r, "seeds_run") >= 200; }},
             {"always_violations == 0",
              [](const JsonValue& r, bool) { return Num(r, "always_violations") == 0.0; }},
             {"unreached_sometimes == 0 (every SOMETIMES/REACHABLE reached)",
              [](const JsonValue& r, bool) { return Num(r, "unreached_sometimes") == 0.0; }},
             {"failing_seeds == 0",
              [](const JsonValue& r, bool) { return Num(r, "failing_seeds") == 0.0; }},
         }},
        {"configs", true, {{"label", kStr}, {"episodes", kNum}}, {}},
        {"properties",
         true,
         {{"name", kStr}, {"kind", kStr}, {"passes", kNum}, {"failures", kNum}},
         {
             {"an ALWAYS property has 0 failures",
              [](const JsonValue& p, bool) {
                return Str(p, "kind") != "ALWAYS" || Num(p, "failures") == 0.0;
              }},
             {"a SOMETIMES/REACHABLE property passed at least once",
              [](const JsonValue& p, bool) {
                return !OneOf(Str(p, "kind"), {"SOMETIMES", "REACHABLE"}) ||
                       Num(p, "passes") > 0.0;
              }},
         }},
        {"replay",
         false,
         {{"checked", kNum}, {"mismatches", kNum}},
         {
             {"replay.checked >= 1",
              [](const JsonValue& r, bool) { return Num(r, "checked") >= 1; }},
             {"replay.mismatches == 0",
              [](const JsonValue& r, bool) { return Num(r, "mismatches") == 0.0; }},
         }},
    },
    {
        {"config cells lineage/frontier x scoped/unscoped each ran episodes",
         [](const JsonValue& root, bool) {
           for (std::string_view label :
                {"lineage/scoped", "lineage/unscoped", "frontier/scoped", "frontier/unscoped"}) {
             const bool found = Any(root, "configs", [label](const JsonValue& c) {
               return Str(c, "label") == label && Num(c, "episodes") > 0;
             });
             if (!found) {
               return false;
             }
           }
           return true;
         }},
    },
};

const Schema* const kSchemas[] = {&kLoadSweep, &kTraceMesh, &kSimSweep};

// --- The checker ---------------------------------------------------------------

const char* KindName(Kind kind) {
  static constexpr const char* kNames[] = {"object", "array", "string", "number", "bool", "null"};
  return kNames[static_cast<int>(kind)];
}

// Checks one element against its section; returns the number of errors.
int CheckElement(const Section& section, const std::string& where, const JsonValue& element,
                 bool quick) {
  if (element.kind != Kind::kObject) {
    std::fprintf(stderr, "validate_bench_json: %s is not an object\n", where.c_str());
    return 1;
  }
  int errors = 0;
  for (const Field& field : section.fields) {
    const JsonValue* value = element.Find(field.key);
    if (value == nullptr) {
      std::fprintf(stderr, "validate_bench_json: %s missing \"%s\"\n", where.c_str(), field.key);
      ++errors;
    } else if (value->kind != field.kind) {
      std::fprintf(stderr, "validate_bench_json: %s.%s is not a %s\n", where.c_str(), field.key,
                   KindName(field.kind));
      ++errors;
    }
  }
  for (const auto& [key, value] : element.object) {
    bool known = false;
    for (const Field& field : section.fields) {
      known |= key == field.key;
    }
    if (!known) {
      std::fprintf(stderr, "validate_bench_json: %s has unknown field \"%s\"\n", where.c_str(),
                   key.c_str());
      ++errors;
    }
  }
  for (const Rule& rule : section.each) {
    if (!rule.holds(element, quick)) {
      std::fprintf(stderr, "validate_bench_json: %s violates: %s\n", where.c_str(), rule.what);
      ++errors;
    }
  }
  return errors;
}

int CheckSchema(const Schema& schema, const JsonValue& root) {
  const bool quick = Bool(root, "quick");
  int errors = 0;
  for (const Section& section : schema.sections) {
    if (section.key == nullptr) {
      errors += CheckElement(section, "root", root, quick);
      continue;
    }
    const JsonValue* value = root.Find(section.key);
    const Kind expected = section.array ? Kind::kArray : Kind::kObject;
    if (value == nullptr || value->kind != expected ||
        (section.array && value->array.empty())) {
      std::fprintf(stderr, "validate_bench_json: missing%s \"%s\" %s\n",
                   section.array ? " or empty" : "", section.key, KindName(expected));
      ++errors;
      continue;
    }
    if (!section.array) {
      errors += CheckElement(section, section.key, *value, quick);
      continue;
    }
    for (size_t i = 0; i < value->array.size(); ++i) {
      const std::string where = std::string(section.key) + "[" + std::to_string(i) + "]";
      errors += CheckElement(section, where, value->array[i], quick);
    }
  }
  for (const Rule& rule : schema.file) {
    if (!rule.holds(root, quick)) {
      std::fprintf(stderr, "validate_bench_json: missing: %s\n", rule.what);
      ++errors;
    }
  }
  return errors;
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
  if (root.kind != Kind::kObject) {
    std::fprintf(stderr, "validate_bench_json: top level is not an object\n");
    return 1;
  }
  const std::string_view bench = Str(root, "bench");
  for (const Schema* schema : kSchemas) {
    if (bench != schema->bench) {
      continue;
    }
    if (CheckSchema(*schema, root) != 0) {
      return 1;
    }
    std::printf("validate_bench_json: %s OK (%s)\n", path, schema->bench);
    return 0;
  }
  std::fprintf(stderr, "validate_bench_json: %s has no schema for bench \"%.*s\"\n", path,
               static_cast<int>(bench.size()), bench.data());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: validate_bench_json <BENCH_*.json>\n");
    return 2;
  }
  return Check(argv[1]);
}
