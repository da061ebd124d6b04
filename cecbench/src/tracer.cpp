#include "tracer.hpp"

#include <fstream>

namespace cecbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  SpanRecord span;
  span.name = std::string(name);
  span.op = tracer_->op_;
  span.parent = tracer_->open_.empty() ? -1 : static_cast<std::int32_t>(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_s = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = tracer_->now();
  tracer_->open_.pop_back();
}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

double Tracer::total(std::string_view name) const {
  double seconds = 0.0;
  for (const SpanRecord& span : spans_)
    if (span.name == name) seconds += span.seconds();
  return seconds;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << span.name << "\", \"op\": " << span.op
        << ", \"parent\": " << span.parent << ", \"start_s\": " << span.start_s
        << ", \"end_s\": " << span.end_s << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

}  // namespace cecbench
