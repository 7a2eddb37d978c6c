#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the driver's calls into each library layer and
// kept in memory until write_json() at exit. Calls made once per event are
// not spanned one by one: the driver accumulates their busy time per batch
// and records one aggregate span (busy_ns < end - start) per batch and call
// kind. Self time of a span is its busy time minus the busy time of its
// direct children.
//
// A disabled Tracer records nothing and costs one branch per call site, so
// the untraced run executes the same driver code.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,       // driver work: synthesis, loop overhead, grouping spans
  kFs,          // fs::Vfs
  kActiveness,  // ActivityStore ingest, Service::evaluate
  kRetention,   // Service::purge
  kTrace,       // trace::EventLogWriter
  kServe,       // serve::Daemon
};
inline constexpr std::size_t kLayerCount = 6;
const char* layer_name(Layer layer);

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span as a child of the innermost open span; returns its id
  /// (-1 when disabled). `name` must be a string literal.
  int open(const char* name, Layer layer);
  /// Close span `id` (must be the innermost open span).
  void close(int id);

  /// Record a closed aggregate span under the innermost open span:
  /// [start_ns, end_ns] is the batch window, busy_ns the time actually
  /// spent in `calls` calls inside it.
  void aggregate(const char* name, Layer layer, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t busy_ns,
                 std::uint64_t calls);

  struct Span {
    const char* name = "";
    Layer layer = Layer::kBench;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;
    std::uint64_t calls = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (seconds) over span `root` and its descendants.
  std::vector<double> self_seconds_by_layer(int root) const;
  /// Share of span `root`'s duration covered by its direct children.
  double coverage(int root) const;
  /// Total busy seconds and call count of every span named `name`.
  double busy_seconds(const char* name) const;
  std::uint64_t calls(const char* name) const;

  /// Write every span as a JSON array.
  void write_json(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, Layer layer)
      : tracer_(tracer), id_(tracer.open(name, layer)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Per-batch accumulator for calls made once per event: one clock read per
/// call when tracing, none otherwise. flush() records the aggregate span.
class BatchTimer {
 public:
  BatchTimer(Tracer& tracer, const char* name, Layer layer)
      : tracer_(tracer), name_(name), layer_(layer) {}
  void add(std::int64_t ns) {
    busy_ns_ += ns;
    ++calls_;
  }
  void flush(std::int64_t start_ns, std::int64_t end_ns);

 private:
  Tracer& tracer_;
  const char* name_;
  Layer layer_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace perfbench
