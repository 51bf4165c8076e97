#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "util.hpp"

namespace perfbench {

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool write_chrome(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans.empty() ? 0.0 : spans.front().t0;
  for (const Span& s : spans) origin = std::min(origin, s.t0);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << (s.t0 - origin) * 1e6
        << ",\"dur\":" << s.seconds() * 1e6 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"replay\":" << (s.replay ? "true" : "false") << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(Tracer* tracer, std::string layer, std::string name,
                     std::uint64_t op, std::uint64_t parent, int track,
                     bool replay)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_.id = tracer_->new_id();
    span_.parent = parent;
    span_.op = op;
    span_.name = std::move(name);
    span_.layer = std::move(layer);
    span_.track = track;
    span_.replay = replay;
  }
  span_.t0 = wall_s();
}

double SpanScope::close() {
  if (open_) {
    span_.t1 = wall_s();
    open_ = false;
    if (tracer_ != nullptr) tracer_->record(span_);
  }
  return span_.seconds();
}

SpanScope::~SpanScope() { close(); }

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  out.spans = spans.size();
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const Span& s : spans) {
    if (s.parent != 0) child_seconds[s.parent] += s.seconds();
  }
  for (const Span& s : spans) {
    out.seconds_by_name[s.name].push_back(s.seconds());
    const auto it = child_seconds.find(s.id);
    const double children = it == child_seconds.end() ? 0.0 : it->second;
    // Replayed children are timed outside the parent's interval, so noise
    // can make them sum past it; self time never goes negative.
    out.self_seconds_by_layer[s.layer] +=
        std::max(0.0, s.seconds() - children);
  }
  return out;
}

}  // namespace perfbench
