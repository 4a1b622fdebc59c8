// Shared harness for the figure-reproduction benches.
//
// Each bench prints the same rows the paper plots: per configuration and per
// compiler, the median [p10, p90] of compilation time, firmware time, and
// TCAM update time over an update stream (Sec. VII-A(c)).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/strfmt.h"

namespace ruletris::bench {

/// Number of sequential updates fed to each compiler. The paper uses 1000;
/// the default is lower so the full suite runs in minutes — override with
/// RULETRIS_UPDATES=1000 to match the paper exactly.
inline size_t updates_per_run(size_t fallback = 200) {
  if (const char* env = std::getenv("RULETRIS_UPDATES")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

/// Version of the emitted JSON document format. Bump when the envelope
/// changes shape (fields added/renamed/moved), so downstream readers of the
/// checked-in BENCH_*.json files can detect drift instead of misparsing.
/// History: 1 = original unversioned {benchmark, meta, rows} envelope;
/// 2 = adds schema_version + generator provenance (the "provenance" object
/// — git SHA, build type, hardware threads — is a v2-additive field: JSON
/// readers ignore unknown keys, so it does not bump the version).
inline constexpr int kBenchJsonSchemaVersion = 2;

/// Build provenance baked in by CMake; "unknown" outside a git checkout.
inline const char* git_sha() {
#ifdef RULETRIS_GIT_SHA
  return RULETRIS_GIT_SHA;
#else
  return "unknown";
#endif
}

inline const char* build_type() {
#ifdef RULETRIS_BUILD_TYPE
  return RULETRIS_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Machine-readable benchmark output: a flat list of rows, each a list of
/// key/value fields, emitted as JSON. Started from a `--json out.json`
/// command-line flag (see init_json); rows printed through print_row are
/// mirrored automatically, and benches with custom output record rows
/// explicitly through `json()`. The emitted document is
///   {"benchmark": ..., "schema_version": N, "generator": ...,
///    "meta": {...}, "rows": [{...}, ...]}
/// so the perf trajectory under BENCH_*.json stays trivially diffable.
class JsonReport {
 public:
  JsonReport(std::string benchmark, std::string path)
      : benchmark_(std::move(benchmark)),
        generator_("ruletris/bench/" + benchmark_),
        path_(std::move(path)) {}

  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, quote(value));
  }
  void meta(const std::string& key, double value) {
    meta_.emplace_back(key, number(value));
  }

  /// Starts a new result row; subsequent field() calls land in it.
  void begin_row() { rows_.emplace_back(); }
  void field(const std::string& key, double value) {
    rows_.back().emplace_back(key, number(value));
  }
  void field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quote(value));
  }
  /// Adds every field `visit_fields(report, f)` yields to the current row;
  /// the visitor is found by argument-dependent lookup (the runtime's
  /// reports: runtime/report_fields.h).
  template <class Report>
  void fields(const Report& report) {
    visit_fields(report, [this](const std::string& key, const auto& value) {
      field(key, value);
    });
  }

  const std::string& path() const { return path_; }

  bool write() const {
    std::ofstream out(path_);
    if (!out) return false;
    out << "{\n  \"benchmark\": " << quote(benchmark_)
        << ",\n  \"schema_version\": " << kBenchJsonSchemaVersion
        << ",\n  \"generator\": " << quote(generator_)
        << ",\n  \"provenance\": {\"git_sha\": " << quote(git_sha())
        << ", \"build_type\": " << quote(build_type())
        << ", \"hardware_threads\": "
        << std::max(1u, std::thread::hardware_concurrency())
        << "},\n  \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      out << (i ? ", " : "") << quote(meta_[i].first) << ": " << meta_[i].second;
    }
    out << "},\n  \"rows\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out << "    {";
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i ? ", " : "") << quote(rows_[r][i].first) << ": "
            << rows_[r][i].second;
      }
      out << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
    return out.good();
  }

 private:
  static std::string number(double v) { return util::strfmt("%.6g", v); }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string benchmark_;
  std::string generator_;  // provenance: which harness binary emitted this
  std::string path_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

namespace detail {
inline std::unique_ptr<JsonReport>& json_slot() {
  static std::unique_ptr<JsonReport> report;
  return report;
}
}  // namespace detail

/// The active report, or nullptr when --json was not requested.
inline JsonReport* json() { return detail::json_slot().get(); }

/// Scans argv for "--json PATH" and arms the global report when present.
inline void init_json(int argc, char** argv, const char* benchmark) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      detail::json_slot() = std::make_unique<JsonReport>(benchmark, argv[i + 1]);
      return;
    }
  }
}

/// Writes and disarms the report; prints the destination for the console log.
inline void write_json() {
  auto& slot = detail::json_slot();
  if (!slot) return;
  if (slot->write()) {
    std::printf("json report written to %s\n", slot->path().c_str());
  } else {
    std::fprintf(stderr, "error: cannot write json report to %s\n",
                 slot->path().c_str());
  }
  slot.reset();
}

struct MetricSet {
  util::Samples compile_ms;
  util::Samples firmware_ms;
  util::Samples tcam_ms;
  // Channel transfer time, charged from the actual proto::codec encoded
  // bytes of each delivered batch. Kept out of total_ms: the paper's three
  // bars exclude the channel, but the decomposition is reported alongside.
  util::Samples channel_ms;
  util::Samples total_ms;

  void add(double compile, double firmware, double tcam, double channel = 0.0) {
    compile_ms.add(compile);
    firmware_ms.add(firmware);
    tcam_ms.add(tcam);
    channel_ms.add(channel);
    total_ms.add(compile + firmware + tcam);
  }
};

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-10s %-10s | %-28s %-28s %-28s %-28s %-28s\n", "config",
              "compiler", "compile ms (med [p10,p90])", "firmware ms", "tcam ms",
              "channel ms", "total ms");
}

inline void print_row(const std::string& config, const char* compiler,
                      const MetricSet& m) {
  std::printf("%-10s %-10s | %-28s %-28s %-28s %-28s %-28s\n", config.c_str(),
              compiler, m.compile_ms.summary("").c_str(),
              m.firmware_ms.summary("").c_str(), m.tcam_ms.summary("").c_str(),
              m.channel_ms.summary("").c_str(), m.total_ms.summary("").c_str());
  std::fflush(stdout);
  if (JsonReport* j = json()) {
    j->begin_row();
    j->field("config", config);
    j->field("compiler", compiler);
    const auto record = [j](const char* name, const util::Samples& s) {
      j->field(std::string(name) + "_med_ms", s.median());
      j->field(std::string(name) + "_p10_ms", s.p10());
      j->field(std::string(name) + "_p90_ms", s.p90());
    };
    record("compile", m.compile_ms);
    record("firmware", m.firmware_ms);
    record("tcam", m.tcam_ms);
    record("channel", m.channel_ms);
    record("total", m.total_ms);
  }
}

}  // namespace ruletris::bench
