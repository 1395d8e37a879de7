#include "harness_util.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "core/memory_planner.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonNumber(value);
  }
  return out + "}";
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload) << ",\"seed\":" << seed
      << ",\"input_hash\":" << JsonString(input_hash)
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(errors[i]);
  }
  out << "],\"samples\":{";
  bool first = true;
  for (const auto& [key, values] : samples) {
    out << (first ? "" : ",") << JsonString(key) << ":" << JsonArray(values);
    first = false;
  }
  out << "},\"modeled\":" << JsonObject(modeled)
      << ",\"latencies_us\":" << JsonArray(latencies_us)
      << ",\"layers\":" << JsonObject(layers)
      << ",\"peak_rss_mb\":" << JsonNumber(peak_rss_mb) << "}";
  return out.str();
}

uint64_t HashMatrix(const pimine::FloatMatrix& m, uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const size_t size = m.rows() * m.cols() * sizeof(float);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string HexHash(uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

uint64_t RunSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

pimine::DatasetSpec MustFindSpec(const char* name) {
  auto spec = pimine::Catalog::Find(name);
  PIMINE_CHECK(spec.ok()) << "unknown dataset " << name;
  return *spec;
}

pimine::EngineOptions ScaledOptions(const pimine::DatasetSpec& spec,
                                    size_t rows) {
  pimine::EngineOptions options;
  options.pim_config = pimine::ScalePimArrayForDataset(
      spec.paper_n, static_cast<int64_t>(rows), options.pim_config);
  return options;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool SameModeledStats(const pimine::RunStats& a, const pimine::RunStats& b) {
  return a.traffic == b.traffic && a.pim_ns == b.pim_ns &&
         a.exact_count == b.exact_count && a.bound_count == b.bound_count &&
         a.footprint_bytes == b.footprint_bytes;
}

}  // namespace perfbench
