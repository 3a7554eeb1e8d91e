#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::map<std::string, double> self_ms(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += spans[i].end_ms - spans[i].start_ms - child_ms[i];
  return out;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t Tracer::open(std::string name, cusfft::u64 id) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
  s.id = id;
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("perfbench::Tracer: spans must close innermost "
                           "first");
  spans_[span].end_ms = now_ms();
  open_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", ";
    std::snprintf(buf, sizeof buf, "%.6f", s.start_ms);
    f << "\"start_ms\": " << buf << ", ";
    std::snprintf(buf, sizeof buf, "%.6f", s.end_ms);
    f << "\"end_ms\": " << buf << ", \"parent\": " << s.parent
      << ", \"id\": " << s.id << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
