// Shared helpers for the experiment-reproduction binaries: flag parsing,
// table formatting, and JSON report emission. Every binary accepts:
//   --scale=<f>      time scale (default 0.02: 50x compression)
//   --requests=<n>   requests per cell (default varies per experiment)
//   --duration=<s>   real seconds per open-loop window (load_sweep, trace_mesh)

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace antipode {

class BenchArgs {
 public:
  BenchArgs(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double GetDouble(const char* name, double fallback) const {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        return std::atof(argv_[i] + prefix.size());
      }
    }
    return fallback;
  }

  int GetInt(const char* name, int fallback) const {
    return static_cast<int>(GetDouble(name, fallback));
  }

  std::string GetString(const char* name, const std::string& fallback = "") const {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        return std::string(argv_[i] + prefix.size());
      }
    }
    return fallback;
  }

  // True when the bare flag `--<name>` is present.
  bool HasFlag(const char* name) const {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc_; ++i) {
      if (flag == argv_[i]) {
        return true;
      }
    }
    return false;
  }

  // Applies --scale and announces the configuration.
  void SetupTimeScale(double default_scale = 0.02) const {
    const double scale = GetDouble("scale", default_scale);
    TimeScale::Set(scale);
    std::printf("# time scale: %.3f (model latencies compressed %.0fx)\n", scale,
                scale > 0 ? 1.0 / scale : 0.0);
  }

 private:
  int argc_;
  char** argv_;
};

// Streaming JSON writer for the machine-readable BENCH_*.json artifacts the
// benches emit alongside their human-readable tables. Scope management
// (commas, nesting) is handled here so call sites read like the schema:
//
//   JsonReport json;
//   json.BeginObject().Field("bench", "load_sweep").BeginArray("phases");
//   for (...) json.BeginObject().Field("name", ...).EndObject();
//   json.EndArray().EndObject();
//   json.WriteFile("BENCH_load_sweep.json");
//
// Numbers are emitted with %.6g (enough for latencies and rates); non-finite
// doubles become null, which strict parsers accept where NaN would not.
class JsonReport {
 public:
  JsonReport& BeginObject(std::string_view key = {}) { return Open(key, '{'); }
  JsonReport& EndObject() { return Close('}'); }
  JsonReport& BeginArray(std::string_view key = {}) { return Open(key, '['); }
  JsonReport& EndArray() { return Close(']'); }

  JsonReport& Field(std::string_view key, std::string_view value) {
    Prefix(key);
    AppendEscaped(value);
    return *this;
  }
  JsonReport& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonReport& Field(std::string_view key, double value) {
    Prefix(key);
    if (value != value || value == 1.0 / 0.0 || value == -1.0 / 0.0) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out_ += buf;
    }
    return *this;
  }
  JsonReport& Field(std::string_view key, uint64_t value) {
    Prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonReport& Field(std::string_view key, int value) {
    Prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonReport& Field(std::string_view key, bool value) {
    Prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  // The standard distribution block: count/mean/p50/p99/p999/max.
  JsonReport& HistogramField(std::string_view key, const Histogram& hist) {
    BeginObject(key);
    Field("count", static_cast<uint64_t>(hist.count()));
    Field("mean", hist.Mean());
    Field("p50", hist.Percentile(0.50));
    Field("p99", hist.Percentile(0.99));
    Field("p999", hist.Percentile(0.999));
    Field("max", hist.max());
    return EndObject();
  }

  // Finished document; asserts every Begin* was closed.
  const std::string& str() const {
    assert(depth_ == 0 && "unbalanced JsonReport scopes");
    return out_;
  }

  // Writes the document (plus trailing newline) to `path`; returns false and
  // prints to stderr on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path.c_str());
      return false;
    }
    const std::string& doc = str();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "JsonReport: short write to %s\n", path.c_str());
    }
    return ok;
  }

 private:
  JsonReport& Open(std::string_view key, char bracket) {
    Prefix(key);
    out_ += bracket;
    need_comma_ = false;
    ++depth_;
    return *this;
  }

  JsonReport& Close(char bracket) {
    assert(depth_ > 0);
    out_ += bracket;
    need_comma_ = true;
    --depth_;
    return *this;
  }

  void Prefix(std::string_view key) {
    if (need_comma_) {
      out_ += ',';
    }
    need_comma_ = true;
    if (!key.empty()) {
      AppendEscaped(key);
      out_ += ':';
    }
  }

  void AppendEscaped(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        case '\r':
          out_ += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  int depth_ = 0;
  bool need_comma_ = false;
};

}  // namespace antipode

#endif  // BENCH_BENCH_UTIL_H_
