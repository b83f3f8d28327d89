#include "util/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

JsonObject& JsonObject::set(const std::string& key, double value) {
  char buf[40];
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; null keeps the document loadable.
    fields_.emplace_back(key, "null");
    return *this;
  }
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, escape(value));
  return *this;
}

JsonObject& JsonObject::set_raw(const std::string& key,
                                const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::encode() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t k = 0; k < fields_.size(); ++k) {
    if (k > 0) os << ", ";
    os << escape(fields_[k].first) << ": " << fields_[k].second;
  }
  os << '}';
  return os.str();
}

std::string JsonObject::encode_members(const std::string& prefix) const {
  std::ostringstream os;
  for (std::size_t k = 0; k < fields_.size(); ++k) {
    if (k > 0) os << ",\n";
    os << prefix << escape(fields_[k].first) << ": " << fields_[k].second;
  }
  return os.str();
}

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name)) {
  WSMD_REQUIRE(!name_.empty(), "bench name must be non-empty");
}

JsonObject BenchJson::provenance() {
  JsonObject o;
#ifdef WSMD_GIT_SHA
  o.set("git_sha", WSMD_GIT_SHA);
#else
  o.set("git_sha", "unknown");
#endif
#if defined(__clang__)
  o.set("compiler", format("clang %d.%d.%d", __clang_major__,
                           __clang_minor__, __clang_patchlevel__));
#elif defined(__GNUC__)
  o.set("compiler",
        format("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__));
#else
  o.set("compiler", "unknown");
#endif
#ifdef WSMD_BUILD_TYPE
  o.set("build_type", WSMD_BUILD_TYPE);
#else
  o.set("build_type", "unknown");
#endif
  o.set("threads",
        static_cast<long long>(std::thread::hardware_concurrency()));
  return o;
}

JsonObject& BenchJson::add_row() {
  rows_.emplace_back();
  return rows_.back();
}

std::string BenchJson::encode() const {
  std::ostringstream os;
  os << "{\n  \"bench\": " << escape(name_);
  if (!meta_.empty()) {
    os << ",\n" << meta_.encode_members("  ");
  }
  os << ",\n  \"meta\": " << provenance().encode();
  os << ",\n  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n") << "    " << rows_[r].encode();
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string BenchJson::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  write_to(path);
  return path;
}

void BenchJson::write_to(const std::string& path) const {
  std::ofstream out(path);
  WSMD_REQUIRE(out.good(), "cannot open " << path << " for writing");
  out << encode();
  out.flush();
  if (!out.good()) throw WriteError(path, "");
}

}  // namespace wsmd
