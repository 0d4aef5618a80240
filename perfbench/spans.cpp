#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

std::int32_t SpanLog::begin(const char* name, std::uint64_t id,
                            std::int32_t parent) {
  spans_.push_back({name, id, parent, wall_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t index) noexcept {
  spans_[static_cast<std::size_t>(index)].end_ns = wall_ns();
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& span : spans_) {
    if (wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"index\":" << i << ",\"id\":" << span.id << ",\"name\":\""
        << span.name << "\",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
