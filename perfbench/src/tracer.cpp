#include "tracer.hpp"

#include <cstring>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kFs: return "fs";
    case Layer::kActiveness: return "activeness";
    case Layer::kRetention: return "retention";
    case Layer::kTrace: return "trace";
    case Layer::kServe: return "serve";
  }
  return "?";
}

int Tracer::open(const char* name, Layer layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer::close: span is not the innermost");
  }
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.busy_ns = span.end_ns - span.start_ns;
  span.calls = 1;
}

void Tracer::aggregate(const char* name, Layer layer, std::int64_t start_ns,
                       std::int64_t end_ns, std::int64_t busy_ns,
                       std::uint64_t calls) {
  if (!enabled_ || calls == 0) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = busy_ns;
  span.calls = calls;
  spans_.push_back(span);
}

void BatchTimer::flush(std::int64_t start_ns, std::int64_t end_ns) {
  tracer_.aggregate(name_, layer_, start_ns, end_ns, busy_ns_, calls_);
  busy_ns_ = 0;
  calls_ = 0;
}

std::vector<double> Tracer::self_seconds_by_layer(int root) const {
  // Children always follow their parent in spans_, so one forward pass
  // decides membership in root's subtree and one pass nets out children.
  std::vector<std::uint8_t> inside(spans_.size(), 0);
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inside[i] = static_cast<int>(i) == root ||
                (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
    if (!inside[i]) continue;
    self[i] += s.busy_ns;
    if (static_cast<int>(i) != root && s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.busy_ns;
    }
  }
  std::vector<double> by_layer(kLayerCount, 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i]) {
      by_layer[static_cast<std::size_t>(spans_[i].layer)] +=
          static_cast<double>(self[i]) * 1e-9;
    }
  }
  return by_layer;
}

double Tracer::coverage(int root) const {
  if (root < 0) return 0.0;
  const Span& r = spans_[static_cast<std::size_t>(root)];
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == root) covered += s.busy_ns;
  }
  return r.busy_ns > 0 ? static_cast<double>(covered) /
                             static_cast<double>(r.busy_ns)
                       : 0.0;
}

double Tracer::busy_seconds(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.busy_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::calls(const char* name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) n += s.calls;
  }
  return n;
}

void Tracer::write_json(std::ostream& out) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"layer\": \""
        << layer_name(s.layer) << "\", \"start_ns\": " << s.start_ns - t0
        << ", \"end_ns\": " << s.end_ns - t0 << ", \"busy_ns\": " << s.busy_ns
        << ", \"calls\": " << s.calls << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]";
}

}  // namespace perfbench
