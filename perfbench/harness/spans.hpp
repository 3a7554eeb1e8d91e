// Benchmark-side tracing: spans recorded around each call the benchmark
// makes into a library layer (generation, plan build, resolve, execute,
// capture, submit/advance/drain). Spans live in memory and are written out
// once, when the run ends. Nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;  // since the tracer was created
  double end_ms = 0;
  std::ptrdiff_t parent = -1;  // index into the span list; -1 = root
  cusfft::u64 id = 0;          // signal / call / request the span serves
};

/// Self time per span name: each span's duration minus the part of its
/// interval its direct children cover, summed over spans of that name.
/// Children are assumed nested in their parent (the tracer guarantees it).
std::map<std::string, double> self_ms(const std::vector<Span>& spans);

/// Span recorder with a stack of open spans: a span opened while another
/// is open becomes its child. A null Tracer* means tracing is off; the
/// Scope helper below is then a no-op, so traced and untraced runs share
/// one code path.
class Tracer {
 public:
  Tracer();

  std::size_t open(std::string name, cusfft::u64 id);
  void close(std::size_t span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON document: {"spans": [...]}.
  bool write_json(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer* t, const char* name, cusfft::u64 id)
        : t_(t), span_(t != nullptr ? t->open(name, id) : 0) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t span_;
  };

 private:
  double now_ms() const;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
